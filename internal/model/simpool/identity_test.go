package simpool_test

import (
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/model/kthresh"
	"github.com/kboost/kboost/internal/model/sir"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestSIRRecoveryOneIsKThreshOne pins the kernel/rule split. SIR at
// recovery 1 (every node infectious for exactly one round) and
// k-threshold at threshold 1 (one usable exposure activates) both
// reduce to independent-cascade percolation over the same edge hashes,
// and the kernel samples the same profile seeds for both. Only the
// rules differ, so pools of the two models on the same (graph, seeds,
// seed) must agree bit for bit: base spread, estimates, and greedy
// picks with their Δ̂.
func TestSIRRecoveryOneIsKThreshOne(t *testing.T) {
	r := rng.New(2024)
	boosted := 0 // trials whose greedy found a positive Δ̂
	for trial := 0; trial < 20; trial++ {
		const n = 80
		g := testutil.RandomGraph(r, n, 2*n+r.Intn(3*n), 0.5)
		seeds := []int32{int32(r.Intn(n)), int32(r.Intn(n))}
		seed := uint64(trial) + 1
		sp, err := sir.New(1).NewPool(g, seeds, seed, 1+trial%3)
		if err != nil {
			t.Fatal(err)
		}
		kp, err := kthresh.New(1).NewPool(g, seeds, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		sp.Extend(500)
		kp.Extend(500)
		if a, b := sp.BaseSpread(), kp.BaseSpread(); a != b {
			t.Fatalf("trial %d: base spread sir %v != kthresh %v", trial, a, b)
		}
		boost := []int32{int32(r.Intn(n)), int32(r.Intn(n)), int32(r.Intn(n))}
		as, err := sp.EstimateSpread(boost)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := kp.EstimateSpread(boost)
		if err != nil {
			t.Fatal(err)
		}
		ad, err := sp.EstimateBoost(boost)
		if err != nil {
			t.Fatal(err)
		}
		bd, err := kp.EstimateBoost(boost)
		if err != nil {
			t.Fatal(err)
		}
		if as != bs || ad != bd {
			t.Fatalf("trial %d boost %v: sir %v/%v != kthresh %v/%v", trial, boost, as, ad, bs, bd)
		}
		aPicks, aEst, err := sp.GreedyBoost(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		bPicks, bEst, err := kp.GreedyBoost(4, 0)
		if err != nil {
			t.Fatal(err)
		}
		if aEst != bEst || fmt.Sprint(aPicks) != fmt.Sprint(bPicks) {
			t.Fatalf("trial %d: greedy sir %v/%v != kthresh %v/%v", trial, aPicks, aEst, bPicks, bEst)
		}
		if aEst > 0 {
			boosted++
		}
	}
	if boosted < 10 {
		t.Fatalf("only %d of 20 trials had a positive boost: the graphs are too sparse to test anything", boosted)
	}
}
