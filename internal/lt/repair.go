package lt

// This file is the LT side of delta graph mutation: Pool.Repair moves a
// pool to a patched graph through the kernel's Resample, re-running the
// cached base fixed point only for the threshold profiles a delta could
// have changed.
//
// A profile's base fixed point depends on the graph only through (a)
// the out-edge lists of its active nodes — those are the only edges the
// cascade ever walks — and (b) the in-weight normalizers norm[t] of its
// push targets, all of which lie in active ∪ frontier and change only
// when t's in-edge list changes. Thresholds θ(ps, v) are a pure hash of
// the profile seed, and profile seeds are drawn serially from the pool
// root before any simulation, so they are graph-independent and survive
// repair: a repaired pool is bit-identical to a cold pool built on the
// patched graph at the same (seed, profiles).

import (
	"context"
	"fmt"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// Repair transitions the pool from its current graph to g2 — the result
// of applying an edge delta whose per-node out/in-edge dirtiness is
// dirtyOut/dirtyIn (see graph.DeltaEffect) — re-simulating exactly the
// profiles whose base cascade crossed a mutated edge list: those with
// an active node in dirtyOut, or an active or frontier node in dirtyIn.
//
// touched reports how many profiles needed re-simulation. When their
// share of the pool's stored cascade size exceeds maxFrac
// (0 < maxFrac <= 1), Repair declines without mutating the pool and
// returns ok == false; the caller decides what to do with a declined
// pool (the engine drops it and lets the next query rebuild cold). See
// simpool.Pool.Resample for the cost weighting. A failed repair — an
// injected fault or a panic in a resampling shard — returns the error
// and likewise leaves the pool exactly as it was.
//
// The node universe is fixed: g2 must have the same node count (deltas
// mutate edges only). Growing the universe is a re-upload.
func (p *Pool) Repair(g2 *graph.Graph, dirtyOut, dirtyIn []bool, maxFrac float64) (touched int, ok bool, err error) {
	if len(dirtyOut) != g2.N() || len(dirtyIn) != g2.N() {
		return 0, false, fmt.Errorf("lt: dirty masks have %d/%d entries, want %d", len(dirtyOut), len(dirtyIn), g2.N())
	}
	m2, seeds := New(g2), p.Seeds()
	base := func(ps uint64, sh *simpool.Shard[float64], s *scratch) { m2.base(seeds, ps, sh, s) }
	dirty := func(pr simpool.Profile[float64]) bool {
		for _, v := range pr.Active {
			if dirtyOut[v] || dirtyIn[v] {
				return true
			}
		}
		for _, v := range pr.Front {
			if dirtyIn[v] {
				return true
			}
		}
		return false
	}
	touched, ok, err = p.Resample(context.TODO(), g2, base, dirty, maxFrac)
	if ok {
		p.Model = m2
	}
	return touched, ok, err
}
