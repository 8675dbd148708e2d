package simpool_test

import (
	"fmt"
	"math"
	"testing"

	"github.com/kboost/kboost/internal/lt"
	"github.com/kboost/kboost/internal/model/kthresh"
	"github.com/kboost/kboost/internal/model/simpool"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestScratchEpochWrap starts every scratch's touch epoch at
// MaxInt32-1, so the second profile of an Extend wraps it, and checks
// that the pool matches one whose epochs never wrapped. Rules read
// their frontier off Scratch.Touched, which the epoch dedups: a stale
// stamp surviving the wrap would drop frontier nodes and corrupt every
// warm estimate. It runs for kthresh, whose cascade touches nodes
// directly, and for lt, which touches its push log after the cascade
// and dedups CELF's touch sets with the same stamps.
func TestScratchEpochWrap(t *testing.T) {
	for trial := uint64(0); trial < 4; trial++ {
		g := testutil.RandomGraph(rng.New(41+trial), 30, 120, 0.5)
		seeds := []int32{0, 1}
		t.Run(fmt.Sprintf("kthresh/%d", trial), func(t *testing.T) {
			build := func(wrap bool) *kthresh.Pool {
				p, err := kthresh.New(2).NewPool(g, seeds, 7, 1)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					simpool.StartEpochsAt(p.Pool, math.MaxInt32-1)
				}
				p.Extend(300)
				return p
			}
			sameAcrossWrap(t, build(false).Pool, build(true).Pool)
		})
		t.Run(fmt.Sprintf("lt/%d", trial), func(t *testing.T) {
			build := func(wrap bool) *lt.Pool {
				p, err := lt.NewPool(g, seeds, 7, 1)
				if err != nil {
					t.Fatal(err)
				}
				if wrap {
					simpool.StartEpochsAt(p.Pool, math.MaxInt32-1)
				}
				p.Extend(300)
				return p
			}
			want, got := build(false), build(true)
			sameAcrossWrap(t, want.Pool, got.Pool)
			wantPicks, wantEst, err := want.GreedyBoost(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			gotPicks, gotEst, err := got.GreedyBoost(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotEst != wantEst || fmt.Sprint(gotPicks) != fmt.Sprint(wantPicks) {
				t.Fatalf("GreedyBoost diverged across wrap: %v/%v vs %v/%v", gotPicks, gotEst, wantPicks, wantEst)
			}
		})
	}
}

// sameAcrossWrap asserts two pools built with and without an epoch wrap
// hold the same base worlds and agree on the base spread and on the
// estimate of every single-node boost.
func sameAcrossWrap[S any, A simpool.Aux](t *testing.T, want, got *simpool.Pool[S, A]) {
	t.Helper()
	for pi := 0; pi < want.NumProfiles(); pi++ {
		if w, g := fmt.Sprint(want.Profile(pi)), fmt.Sprint(got.Profile(pi)); w != g {
			t.Fatalf("profile %d diverged across wrap:\n got %s\nwant %s", pi, g, w)
		}
	}
	if want.BaseSpread() != got.BaseSpread() {
		t.Fatalf("BaseSpread diverged across wrap: %v vs %v", got.BaseSpread(), want.BaseSpread())
	}
	for v := int32(0); int(v) < want.Graph().N(); v++ {
		wantEst, err := want.EstimateSpread([]int32{v})
		if err != nil {
			t.Fatal(err)
		}
		gotEst, err := got.EstimateSpread([]int32{v})
		if err != nil {
			t.Fatal(err)
		}
		if wantEst != gotEst {
			t.Fatalf("EstimateSpread({%d}) diverged across wrap: %v vs %v", v, gotEst, wantEst)
		}
	}
}
