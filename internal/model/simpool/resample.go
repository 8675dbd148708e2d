package simpool

import (
	"context"
	"fmt"

	"github.com/kboost/kboost/internal/graph"
)

// Resample moves the pool onto g2 — its graph after an edge delta, on
// the same node set — by re-running base, the rule's Base bound to g2,
// for exactly the profiles dirty reports, and copying every other
// profile's cached base world unchanged. dirty must report every
// profile whose base world the delta could have changed: given profile
// seeds are graph-independent, a resampled pool is then bit-identical
// to a cold pool built on g2 at the same (seed, profiles), and future
// Extends of the two stay identical because the root RNG state is
// untouched.
//
// touched reports how many profiles dirty marked. When their share of
// the pool's total stored cascade size — each profile's active-set plus
// frontier length, the quantity resampling cost is proportional to —
// exceeds maxFrac, Resample declines without mutating the pool and
// returns ok == false. Weighting by cascade size instead of profile
// count mirrors the PRR repair fallback: on dense supercritical graphs
// the profiles a delta touches are exactly the expensive ones.
//
// The dirty profiles run through Extend's shard runner, so a canceled
// ctx, an injected fault or a worker panic returns an error and, like a
// decline, leaves the graph, the arrays and the generation exactly as
// they were. On success the caller rebinds its rule to g2.
func (p *Pool[S, A]) Resample(ctx context.Context, g2 *graph.Graph, base func(uint64, *Shard[A], S), dirty func(Profile[A]) bool, maxFrac float64) (touched int, ok bool, err error) {
	n := p.g.N()
	if g2.N() != n {
		return 0, false, fmt.Errorf("%s: repair changes node count %d -> %d", p.rule.Name, n, g2.N())
	}
	R := len(p.profileSeed)
	mask := make([]bool, R)
	counts := make([]int, p.workers)
	costs := make([]int64, p.workers)
	p.fanOut(R, func(w, lo, hi int, _ S) {
		for pi := lo; pi < hi; pi++ {
			if pr := p.Profile(pi); dirty(pr) {
				mask[pi] = true
				counts[w]++
				costs[w] += int64(len(pr.Active) + len(pr.Front))
			}
		}
	})
	var cost int64
	for w := range counts {
		touched += counts[w]
		cost += costs[w]
	}
	if total := int64(len(p.activeItems) + len(p.frontItems)); total > 0 && float64(cost) > maxFrac*float64(total) {
		return touched, false, nil
	}
	shards, chunk, err := p.runShards(ctx, 0, mask, base)
	if err != nil {
		return touched, false, err
	}

	// Exact-size the new arrays: clean segments keep their old lengths,
	// dirty ones take their resampled shard lengths.
	newActive, newFront := len(p.activeItems), len(p.frontItems)
	for pi, d := range mask {
		if d {
			newActive -= int(p.activeStart[pi+1] - p.activeStart[pi])
			newFront -= int(p.frontStart[pi+1] - p.frontStart[pi])
		}
	}
	for w := range shards {
		newActive += len(shards[w].activeItems)
		newFront += len(shards[w].frontItems)
	}
	aw := int32(p.rule.AuxWidth)
	activeStart := make([]int32, R+1)
	activeItems := make([]int32, newActive)
	frontStart := make([]int32, R+1)
	frontItems := make([]int32, newFront)
	aux := make([]A, newFront*p.rule.AuxWidth)

	// Assemble in profile order. A maximal clean run is contiguous in
	// the old arrays, so it moves as one bulk copy; each dirty profile
	// comes from its worker's shard, consumed in range order.
	shCur := make([]int, p.workers)
	var ai, fi int32
	for pi := 0; pi < R; {
		if !mask[pi] {
			j := pi
			for j < R && !mask[j] {
				j++
			}
			a0, a1 := p.activeStart[pi], p.activeStart[j]
			f0, f1 := p.frontStart[pi], p.frontStart[j]
			copy(activeItems[ai:], p.activeItems[a0:a1])
			copy(frontItems[fi:], p.frontItems[f0:f1])
			copy(aux[fi*aw:], p.aux[f0*aw:f1*aw])
			for i := pi; i < j; i++ {
				activeStart[i+1] = p.activeStart[i+1] - a0 + ai
				frontStart[i+1] = p.frontStart[i+1] - f0 + fi
			}
			ai += a1 - a0
			fi += f1 - f0
			pi = j
			continue
		}
		w := pi / chunk
		sh := &shards[w]
		k := shCur[w]
		shCur[w]++
		a0, a1 := sh.activeStart[k], sh.activeStart[k+1]
		f0, f1 := sh.frontStart[k], sh.frontStart[k+1]
		copy(activeItems[ai:], sh.activeItems[a0:a1])
		copy(frontItems[fi:], sh.frontItems[f0:f1])
		copy(aux[fi*aw:], sh.Aux[f0*aw:f1*aw])
		ai += a1 - a0
		fi += f1 - f0
		activeStart[pi+1], frontStart[pi+1] = ai, fi
		pi++
	}
	p.g = g2
	p.activeStart, p.activeItems = activeStart, activeItems
	p.frontStart, p.frontItems, p.aux = frontStart, frontItems, aux
	p.baseSum = int64(newActive)
	clear(p.idxStart) // an empty index: mergeIndex(0) rebuilds it whole
	p.idxItems = nil
	p.mergeIndex(0)
	p.generation++
	return touched, true, nil
}
