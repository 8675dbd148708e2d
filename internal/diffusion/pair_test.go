package diffusion

import (
	"math"
	"testing"

	"github.com/kboost/kboost/internal/exact"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// Both legs of EstimatePair must match the exact σ_S(B) and Δ_S(B) of
// possible-world enumeration.
func TestEstimatePairMatchesExact(t *testing.T) {
	r := rng.New(654)
	for trial := 0; trial < 5; trial++ {
		g := testutil.RandomGraph(r, 7, exact.MaxEdges-4, 0.7)
		seeds := testutil.RandomSeedSet(r, g.N(), 1+trial%2)
		nonSeeds := testutil.NonSeeds(g.N(), seeds)
		boost := nonSeeds[:min(1+trial%3, len(nonSeeds))]

		wantSpread, err := exact.Spread(g, seeds, boost)
		if err != nil {
			t.Fatal(err)
		}
		wantBoost, err := exact.Boost(g, seeds, boost)
		if err != nil {
			t.Fatal(err)
		}
		spread, delta, err := EstimatePair(g, seeds, boost, Options{Sims: 300000, Seed: uint64(trial) + 29})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(spread-wantSpread) > 0.02 {
			t.Errorf("trial %d: MC spread %v, exact %v", trial, spread, wantSpread)
		}
		if math.Abs(delta-wantBoost) > 0.02 {
			t.Errorf("trial %d: MC boost %v, exact %v", trial, delta, wantBoost)
		}
	}
}

// With every p, p' in {0, 1} a possible world is fixed: an edge is live
// (1,1), live-upon-boost (0,1) or blocked (0,0). PairOnce must then
// return exactly the BFS reachability over live edges (base) and over
// live edges plus boost-only edges into boosted targets (boosted), for
// any boost mask and any RNG state.
func TestPairOnceDeterministicWorlds(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 40; trial++ {
		n := 6 + r.Intn(20)
		b := graph.NewBuilder(n)
		seen := make(map[[2]int32]bool)
		for e := 0; e < 3*n; e++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			switch r.Intn(3) {
			case 0:
				b.MustAddEdge(u, v, 0, 0)
			case 1:
				b.MustAddEdge(u, v, 0, 1)
			default:
				b.MustAddEdge(u, v, 1, 1)
			}
		}
		g := b.MustBuild()
		seeds := testutil.RandomSeedSet(r, n, 1+r.Intn(3))
		sim := NewSimulator(g)
		for m := 0; m < 25; m++ {
			mask := make([]bool, n)
			for v := range mask {
				mask[v] = r.Intn(3) == 0
			}
			wantBase, wantBoosted := reachable(g, seeds, nil), reachable(g, seeds, mask)
			base, boosted := sim.PairOnce(seeds, mask, r)
			if base != wantBase || boosted != wantBoosted {
				t.Fatalf("trial %d mask %d: PairOnce = (%d,%d), reachability (%d,%d)",
					trial, m, base, boosted, wantBase, wantBoosted)
			}
		}
	}
}

// reachable counts the nodes reachable from seeds over live edges
// (p = 1) and over boost-only edges (p = 0, p' = 1) into targets boost
// marks (nil marks none).
func reachable(g *graph.Graph, seeds []int32, boost []bool) int {
	seen := make([]bool, g.N())
	var queue []int32
	for _, v := range seeds {
		if !seen[v] {
			seen[v] = true
			queue = append(queue, v)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		p, pb := g.OutP(u), g.OutPBoost(u)
		for i, v := range g.OutTo(u) {
			if seen[v] {
				continue
			}
			if p[i] == 1 || (pb[i] == 1 && boost != nil && boost[v]) {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	return len(queue)
}

// TestSimulatorEpochWrap pushes a Simulator's visit epoch across its
// int32 wrap mid-stream and checks every run matches a fresh Simulator
// fed the same RNG stream: a stale stamp surviving the wrap would read
// as visited and truncate the cascades. The epoch must also restart
// positive — a bare increment would go negative and later collide with
// the zero-initialized stamps.
func TestSimulatorEpochWrap(t *testing.T) {
	g := testutil.RandomGraph(rng.New(41), 30, 120, 0.5)
	seeds := []int32{0, 1}
	mask := MaskFromSet(g.N(), []int32{2, 3, 4})
	fresh, wrapped := NewSimulator(g), NewSimulator(g)
	wrapped.epoch = math.MaxInt32 - 2
	ra, rb := rng.New(9), rng.New(9)
	for i := 0; i < 8; i++ {
		if a, b := fresh.SpreadOnce(seeds, mask, ra), wrapped.SpreadOnce(seeds, mask, rb); a != b {
			t.Fatalf("run %d: SpreadOnce %d across the wrap, %d fresh", i, b, a)
		}
		if a, b := fresh.SpreadOnceTarget(seeds, mask, BoostSenders, ra), wrapped.SpreadOnceTarget(seeds, mask, BoostSenders, rb); a != b {
			t.Fatalf("run %d: SpreadOnceTarget %d across the wrap, %d fresh", i, b, a)
		}
		ab, aB := fresh.PairOnce(seeds, mask, ra)
		bb, bB := wrapped.PairOnce(seeds, mask, rb)
		if ab != bb || aB != bB {
			t.Fatalf("run %d: PairOnce (%d,%d) across the wrap, (%d,%d) fresh", i, bb, bB, ab, aB)
		}
	}
	if wrapped.epoch <= 0 {
		t.Fatalf("epoch %d after the wrap, want a positive restart", wrapped.epoch)
	}
}
