package simpool

import (
	"fmt"
	"math"
	"sync"

	"github.com/kboost/kboost/internal/rng"
)

// EstimateSpread returns the pooled estimate of the boosted spread
// σ̂(B) by incrementally evaluating boost from every affected profile's
// cached base world. It is deterministic for a fixed pool generation,
// bit-exact across worker counts, and shares its possible worlds with
// every other estimate from the same pool (common random numbers).
func (p *Pool[S, A]) EstimateSpread(boost []int32) (float64, error) {
	total, err := p.estimateCount(boost)
	if err != nil {
		return 0, err
	}
	return float64(total) / float64(len(p.profileSeed)), nil
}

// EstimateBoost returns the pooled estimate of the boost
// Δ̂_S(B) = σ̂(B) − σ̂(∅). Both terms are evaluated on the same
// profiles, so the difference is coupled, exactly zero for an empty or
// ineffective boost set, and — because the activation sums are
// differenced as integers before dividing — bit-identical to the
// estimate GreedyBoost reports for the same boost set.
func (p *Pool[S, A]) EstimateBoost(boost []int32) (float64, error) {
	total, err := p.estimateCount(boost)
	if err != nil {
		return 0, err
	}
	return float64(total-p.baseSum) / float64(len(p.profileSeed)), nil
}

// estimateCount returns Σ_i |active_i(B)|, the integer numerator of the
// pooled spread estimate: the cached base sum plus the incremental
// deltas of the profiles whose frontier intersects the boost set (no
// other profile can change — see idxStart).
func (p *Pool[S, A]) estimateCount(boost []int32) (int64, error) {
	if len(p.profileSeed) == 0 {
		return 0, fmt.Errorf("%s: estimate on an empty pool (call Extend first)", p.rule.Name)
	}
	mask := make([]bool, p.g.N())
	for _, v := range boost {
		if v < 0 || int(v) >= p.g.N() {
			return 0, fmt.Errorf("%s: boost node %d out of range [0,%d)", p.rule.Name, v, p.g.N())
		}
		mask[v] = true
	}
	// Dense boost list (deduplicated, sorted) for the per-profile pass.
	var bset []int32
	for v := int32(0); int(v) < p.g.N(); v++ {
		if mask[v] {
			bset = append(bset, v)
		}
	}
	profs := p.mergeFrontierProfiles(nil, bset)
	return p.baseSum + p.sumDeltas(profs, bset, mask), nil
}

// mergeFrontierProfiles returns the sorted, deduplicated union of base
// (already sorted ascending) and the posting lists of each node in
// vs — the profiles a boost over base's owners plus vs could change.
func (p *Pool[S, A]) mergeFrontierProfiles(base []int32, vs []int32) []int32 {
	lists := make([][]int32, 0, len(vs)+1)
	if len(base) > 0 {
		lists = append(lists, base)
	}
	for _, v := range vs {
		if pl := p.FrontierProfiles(v); len(pl) > 0 {
			lists = append(lists, pl)
		}
	}
	return mergeSorted(lists)
}

// mergeSorted merges sorted int32 lists into a sorted, deduplicated
// union. The posting lists are short relative to R, so a simple k-way
// min scan is enough.
func mergeSorted(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	var out []int32
	cur := make([]int, len(lists))
	for {
		best := int32(math.MaxInt32)
		found := false
		for li, l := range lists {
			if cur[li] < len(l) && l[cur[li]] < best {
				best = l[cur[li]]
				found = true
			}
		}
		if !found {
			return out
		}
		out = append(out, best)
		for li, l := range lists {
			for cur[li] < len(l) && l[cur[li]] == best {
				cur[li]++
			}
		}
	}
}

// sumDeltas evaluates the boost set on each listed profile and returns
// the summed activation deltas, fanning out to the pool's workers for
// large batches. Deltas are integers summed in any order, so the result
// does not depend on the sharding.
func (p *Pool[S, A]) sumDeltas(profs []int32, bset []int32, mask []bool) int64 {
	evalChunk := func(lo, hi int, s S) int64 {
		var sum int64
		for _, pi := range profs[lo:hi] {
			sum += int64(p.rule.Eval(int(pi), bset, mask, -1, s))
		}
		return sum
	}
	if len(profs) < p.rule.EstimateParallelMin || p.workers <= 1 {
		s := p.getScratch()
		defer p.putScratch(s)
		return evalChunk(0, len(profs), s)
	}
	sums := make([]int64, p.workers)
	p.fanOut(len(profs), func(w, lo, hi int, s S) { sums[w] = evalChunk(lo, hi, s) })
	var total int64
	for _, v := range sums {
		total += v
	}
	return total
}

// fanOut splits [0, n) into one contiguous chunk per worker and runs f
// on each chunk concurrently, with its own scratch; it returns when
// every chunk is done.
func (p *Pool[S, A]) fanOut(n int, f func(w, lo, hi int, s S)) {
	var wg sync.WaitGroup
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s := p.getScratch()
			defer p.putScratch(s)
			f(w, lo, hi, s)
		}(w, lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// FanOut runs f over [0, n) for a rule's own batch passes (lt's CELF
// re-evaluation): on one scratch when n < minPar or the pool has one
// worker, else split into one contiguous chunk per worker, each with
// its own scratch. It returns when every chunk is done.
func (p *Pool[S, A]) FanOut(n, minPar int, f func(lo, hi int, s S)) {
	if n < minPar || p.workers <= 1 {
		s := p.getScratch()
		defer p.putScratch(s)
		f(0, n, s)
		return
	}
	p.fanOut(n, func(_, lo, hi int, s S) { f(lo, hi, s) })
}

// EstimateSpreadNaive re-simulates every profile from scratch under the
// boost mask — the reference implementation EstimateSpread is
// property-tested against.
func (p *Pool[S, A]) EstimateSpreadNaive(boost []int32) float64 {
	mask := make([]bool, p.g.N())
	for _, v := range boost {
		mask[v] = true
	}
	s := p.getScratch()
	defer p.putScratch(s)
	var sum int64
	for _, ps := range p.profileSeed {
		sum += int64(p.rule.Simulate(ps, mask, s))
	}
	return float64(sum) / float64(len(p.profileSeed))
}

// EstimateSamples runs sims pool-free replicates on the pool's graph
// and seed set and returns the per-simulation boosted spread and boost
// delta samples (delta is all zeros when boost is empty). Replicate i's
// world is the profile seeded by rng.StreamSeed(seed, i) — a stateless
// hash, so the boosted and base runs of one replicate share the exact
// same draws (perfect common-random-numbers coupling: delta is never
// negative) and the returned vectors are bit-identical for every worker
// count. It reads only the pool's seed set, so it runs on an empty
// pool. This is the engine's tier-1 estimator for the simulation
// models; the sample vectors feed stats.Summarize for confidence
// intervals.
func (p *Pool[S, A]) EstimateSamples(boost []int32, sims int, seed uint64) (spread, delta []float64, err error) {
	mask := make([]bool, p.g.N())
	for _, v := range boost {
		if v < 0 || int(v) >= p.g.N() {
			return nil, nil, fmt.Errorf("%s: boost node %d out of range [0,%d)", p.rule.Name, v, p.g.N())
		}
		mask[v] = true
	}
	if sims <= 0 {
		return nil, nil, fmt.Errorf("%s: sims=%d must be >= 1", p.rule.Name, sims)
	}
	spread = make([]float64, sims)
	delta = make([]float64, sims)
	pair := len(boost) > 0

	p.fanOut(sims, func(_, lo, hi int, s S) {
		for i := lo; i < hi; i++ {
			ps := rng.StreamSeed(seed, uint64(i))
			boosted := float64(p.rule.Simulate(ps, mask, s))
			spread[i] = boosted
			if pair {
				delta[i] = boosted - float64(p.rule.Simulate(ps, nil, s))
			}
		}
	})
	return spread, delta, nil
}
