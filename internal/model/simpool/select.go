package simpool

// Pooled greedy boost selection. Unlike lt's CELF lazy-heap, this is a
// plain exhaustive greedy made cheap by the frontier index: a
// candidate's delta is nonzero only in profiles where some member of
// (chosen ∪ {candidate}) sits in the base frontier, so each round
// evaluates every candidate over the merged posting lists — typically a
// small fraction of R — instead of all profiles. Candidates are
// evaluated in parallel (each goroutine owns a scratch, gains land in a
// per-candidate slot) and the argmax is applied serially, so results
// are bit-identical for every worker count and to the full-resimulation
// reference GreedyBoostNaive.

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"github.com/kboost/kboost/internal/graph"
)

// BoostCandidates returns the greedy candidate pool: non-seed nodes
// ordered by incoming boost gain Σ (p'−p) descending (ties toward the
// smaller id), capped at candCap (already resolved by the caller) — the
// raw-uplift ranking lt uses, a first-order proxy for the activations a
// boost adds under every simulation model.
func BoostCandidates(g *graph.Graph, seedMask []bool, candCap int) []int32 {
	type nw struct {
		v int32
		w float64
	}
	pool := make([]nw, 0, g.N())
	for v := int32(0); int(v) < g.N(); v++ {
		if seedMask[v] {
			continue
		}
		var wsum float64
		p := g.InP(v)
		pb := g.InPBoost(v)
		for i := range p {
			wsum += pb[i] - p[i]
		}
		pool = append(pool, nw{v, wsum})
	}
	slices.SortFunc(pool, func(a, b nw) int {
		if a.w != b.w {
			return cmp.Compare(b.w, a.w)
		}
		return cmp.Compare(a.v, b.v)
	})
	if len(pool) > candCap {
		pool = pool[:candCap]
	}
	out := make([]int32, len(pool))
	for i, c := range pool {
		out[i] = c.v
	}
	return out
}

// CandidateCap resolves the candidate-pool cap: candCap < k falls back
// to the repo-wide 4k default.
func CandidateCap(k, candCap int) int {
	if candCap < k {
		return 4 * k
	}
	return candCap
}

// GreedyBoost greedily selects up to k boost nodes maximizing the
// pooled boost estimate over the candidate pool (candCap < k picks the
// 4k default). It returns the chosen nodes in pick order and the pooled
// boost estimate Δ̂ of the chosen set. Selection stops early when no
// candidate adds activations in any profile. It is a heuristic without
// an approximation guarantee, but it returns exactly what
// GreedyBoostNaive would, bit-for-bit, at a fraction of the
// simulations. Safe to run concurrently with other read-only pool
// methods (not with Extend).
func (p *Pool[S, A]) GreedyBoost(k, candCap int) ([]int32, float64, error) {
	return p.GreedyBoostContext(context.Background(), k, candCap)
}

// GreedyBoostContext is GreedyBoost with cooperative cancellation: the
// greedy pick loop polls ctx once per round, so a canceled request
// stops within one gain-evaluation sweep.
func (p *Pool[S, A]) GreedyBoostContext(ctx context.Context, k, candCap int) ([]int32, float64, error) {
	if err := p.checkSelect(k); err != nil {
		return nil, 0, err
	}
	return p.greedyBoost(ctx, k, BoostCandidates(p.g, p.seedMask, CandidateCap(k, candCap)))
}

// GreedyBoostAmong is GreedyBoost over an explicit candidate list
// instead of the uplift-ranked default pool: only listed non-seed nodes
// may be picked. Callers (the engine's tier-0 pre-filter) supply a
// shortlist from a cheap closed-form ranking; out-of-range ids and
// seeds are ignored.
func (p *Pool[S, A]) GreedyBoostAmong(k int, cands []int32) ([]int32, float64, error) {
	return p.GreedyBoostAmongContext(context.Background(), k, cands)
}

// GreedyBoostAmongContext is GreedyBoostAmong with cooperative
// cancellation (see GreedyBoostContext).
func (p *Pool[S, A]) GreedyBoostAmongContext(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := p.checkSelect(k); err != nil {
		return nil, 0, err
	}
	ok := make([]int32, 0, len(cands))
	for _, v := range cands {
		if v >= 0 && int(v) < p.g.N() && !p.seedMask[v] {
			ok = append(ok, v)
		}
	}
	return p.greedyBoost(ctx, k, ok)
}

// checkSelect validates a selection request against the pool.
func (p *Pool[S, A]) checkSelect(k int) error {
	if k < 1 {
		return fmt.Errorf("%s: k=%d must be >= 1", p.rule.Name, k)
	}
	if len(p.profileSeed) == 0 {
		return fmt.Errorf("%s: selection on an empty pool (call Extend first)", p.rule.Name)
	}
	return nil
}

// greedyBoost is the exhaustive greedy over a resolved candidate list,
// or the rule's own Select when it has one.
func (p *Pool[S, A]) greedyBoost(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if p.rule.Select != nil {
		return p.rule.Select(ctx, k, cands)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	chosenMask := make([]bool, p.g.N())
	var chosen []int32
	var profsChosen []int32 // sorted union of chosen's posting lists
	var curDelta int64      // Σ_profiles delta(chosen), integer-exact
	gains := make([]int64, len(cands))

	for len(chosen) < k {
		// One poll per round: evalGains dominates a round, so this
		// bounds cancellation latency to one sweep while costing
		// nothing measurable on the warm path.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		p.evalGains(cands, chosen, chosenMask, profsChosen, curDelta, gains)
		best := int32(-1)
		var bestGain int64
		for ci, c := range cands {
			if chosenMask[c] {
				continue
			}
			if g := gains[ci]; g > 0 && (g > bestGain || (g == bestGain && c < best)) {
				best, bestGain = c, g
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		chosenMask[best] = true
		curDelta += bestGain
		profsChosen = p.mergeFrontierProfiles(profsChosen, []int32{best})
	}
	return chosen, float64(curDelta) / float64(len(p.profileSeed)), nil
}

// evalGains fills gains[ci] with candidate cands[ci]'s marginal delta
// over the current chosen set: Σ delta(chosen ∪ {c}) over the merged
// posting lists, minus the chosen set's own delta. Each candidate is a
// pure function of (pool, chosen, candidate), so the parallel fan-out
// cannot change results.
func (p *Pool[S, A]) evalGains(cands, chosen []int32, chosenMask []bool, profsChosen []int32, curDelta int64, gains []int64) {
	evalRange := func(lo, hi int, s S) {
		for ci := lo; ci < hi; ci++ {
			c := cands[ci]
			if chosenMask[c] {
				gains[ci] = 0
				continue
			}
			profs := p.mergeFrontierProfiles(profsChosen, cands[ci:ci+1])
			var sum int64
			for _, pi := range profs {
				sum += int64(p.rule.Eval(int(pi), chosen, chosenMask, c, s))
			}
			gains[ci] = sum - curDelta
		}
	}
	if len(cands) < p.rule.SelectParallelMin || p.workers <= 1 {
		s := p.getScratch()
		defer p.putScratch(s)
		evalRange(0, len(cands), s)
		return
	}
	p.fanOut(len(cands), func(_, lo, hi int, s S) { evalRange(lo, hi, s) })
}

// GreedyBoostNaive is the reference implementation GreedyBoost is
// property-tested against: each round it re-simulates every profile
// from scratch for every remaining candidate and takes the best (ties
// toward the smaller node id, stopping when no candidate adds
// activations) — exactly the semantics GreedyBoost reproduces
// incrementally.
func (p *Pool[S, A]) GreedyBoostNaive(k, candCap int) ([]int32, float64, error) {
	if err := p.checkSelect(k); err != nil {
		return nil, 0, err
	}
	cands := BoostCandidates(p.g, p.seedMask, CandidateCap(k, candCap))
	slices.Sort(cands)

	s := p.getScratch()
	defer p.putScratch(s)
	mask := make([]bool, p.g.N())
	curSum := p.baseSum
	var chosen []int32
	for len(chosen) < k {
		best := int32(-1)
		bestSum := curSum
		for _, v := range cands {
			if mask[v] {
				continue
			}
			mask[v] = true
			var sum int64
			for _, ps := range p.profileSeed {
				sum += int64(p.rule.Simulate(ps, mask, s))
			}
			mask[v] = false
			if sum > bestSum {
				best, bestSum = v, sum
			}
		}
		if best < 0 {
			break
		}
		chosen = append(chosen, best)
		mask[best] = true
		curSum = bestSum
	}
	return chosen, float64(curSum-p.baseSum) / float64(len(p.profileSeed)), nil
}
