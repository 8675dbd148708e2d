package lt

// This file is the pooled greedy-selection subsystem: a CELF-style
// lazy-heap greedy over a Pool's threshold profiles, replacing the
// O(candidates × k × R) full-rescan loop of the Monte-Carlo GreedyBoost
// with exact incremental maintenance. The structure deliberately
// mirrors internal/prr's SelectDelta:
//
//   - per-candidate gains are held in an authoritative gain array and a
//     lazy max-heap whose top always dominates the true maximum (the LT
//     boost objective is not submodular, so gains may rise; every rise
//     pushes a fresh entry, which keeps the pop-validate loop exact);
//   - after a pick, only *affected* profiles are re-evaluated. A
//     profile is affected exactly when the picked node is in its
//     current frontier (its stored in-weight switches to the boosted
//     probabilities, and it may activate and cascade) or was touched by
//     one of the profile's candidate-gain cascades (those cascades can
//     now push boosted weight into it). Profiles where neither holds
//     replay bit-identically under the grown boost set, so their gains
//     are provably unchanged — the invariant the equivalence property
//     tests pin against the naive reference;
//   - re-evaluation is sharded across the pool's workers.
//
// The kernel's GreedyBoostNaive — full from-scratch re-simulation of
// every (candidate, profile) pair per round — is the behavioral
// reference for the equivalence tests and the warm-selection benchmark.

import (
	"context"
	"slices"

	"github.com/kboost/kboost/internal/maxcover"
)

// gainPair is one candidate's nonzero marginal gain on one profile.
type gainPair struct {
	v int32
	g int32
}

// queryState is one profile's per-query mutable state. The slices start
// as views into the pool's base CSRs and are replaced wholesale (never
// written in place) when a pick changes the profile, so the shared pool
// is never mutated by a selection.
type queryState struct {
	active []int32 // sorted
	front  []int32 // sorted
	frontW []float64

	// touch is the sorted union of nodes touched by this profile's most
	// recent candidate-gain evaluation pass; pairs are the gains that
	// pass accumulated into the global gain array (for retraction).
	touch []int32
	pairs []gainPair
}

// profEval is one profile's re-evaluation result, produced in the
// (possibly parallel) evaluation phase and applied serially.
type profEval struct {
	delta     int32 // activations added by the applied pick
	pairs     []gainPair
	touch     []int32
	frontAdds []int32 // nodes that entered the frontier with this pick
}

// celf is the pool's selection (simpool.Rule.Select): the CELF greedy
// over a resolved candidate list. It returns exactly what the kernel's
// GreedyBoostNaive would for the same candidates, bit-for-bit, at a
// fraction of the simulations.
func (p *Pool) celf(ctx context.Context, k int, cands []int32) ([]int32, float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	R := p.NumProfiles()
	n := p.g.N()
	candMask := make([]bool, n)
	for _, v := range cands {
		candMask[v] = true
	}
	chosenMask := make([]bool, n)

	states := make([]queryState, R)
	for pi := range states {
		pr := p.Profile(pi)
		states[pi] = queryState{active: pr.Active, front: pr.Front, frontW: pr.Aux}
	}

	gain := make([]int32, n)
	// extra holds query-local inverted-index additions: profiles whose
	// touch set or grown frontier came to include a node after the base
	// index was built. Entries may be stale or duplicated — the affected
	// filter re-checks membership — so appends never need dedup here.
	extra := make([][]int32, n)
	evals := make([]profEval, R)

	// Initial evaluation pass: every profile's candidate gains.
	all := make([]int32, R)
	for i := range all {
		all[i] = int32(i)
	}
	p.evalProfilesInto(all, states, -1, chosenMask, candMask, evals)
	var curDelta int64 // Σ_profiles activations the picks added
	for _, pi := range all {
		st := &states[pi]
		st.pairs, st.touch = evals[pi].pairs, evals[pi].touch
		for _, pr := range st.pairs {
			gain[pr.v] += pr.g
		}
		for _, t := range st.touch {
			extra[t] = append(extra[t], pi)
		}
	}

	// Lazy max-heap with the same exactness contract as prr.SelectDelta:
	// gain[] is authoritative, stale entries are reinserted at the
	// current value, and every gain rise pushes a fresh entry so the
	// heap top always bounds the true maximum.
	h := make(maxcover.Heap, 0, len(cands))
	for _, v := range cands {
		if gain[v] > 0 {
			h = append(h, maxcover.Entry{Item: v, Gain: gain[v]})
		}
	}
	h.Init()

	var chosen []int32
	var affected []int32
	var bumped []int32
	bumpStamp := make([]int32, n)
	profStamp := make([]int32, R)
	round := int32(0)

	for len(chosen) < k && h.Len() > 0 {
		top := h.PopMax()
		if chosenMask[top.Item] {
			continue
		}
		if top.Gain != gain[top.Item] {
			h.PushEntry(maxcover.Entry{Item: top.Item, Gain: gain[top.Item]})
			continue
		}
		if top.Gain == 0 {
			break
		}
		// One poll per pick: the profile re-evaluation below dominates a
		// round, so this bounds cancellation latency to one round while
		// costing nothing measurable on the warm path.
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		best := top.Item
		chosen = append(chosen, best)
		chosenMask[best] = true
		round++

		// Affected profiles: best in the current frontier or in the last
		// eval pass's touch set. The base index plus the extra appends
		// form a superset; membership is re-checked before inclusion.
		affected = affected[:0]
		for _, src := range [2][]int32{p.FrontierProfiles(best), extra[best]} {
			for _, pi := range src {
				if profStamp[pi] == round {
					continue
				}
				profStamp[pi] = round
				st := &states[pi]
				_, inFront := slices.BinarySearch(st.front, best)
				_, inTouch := slices.BinarySearch(st.touch, best)
				if inFront || inTouch {
					affected = append(affected, pi)
				}
			}
		}
		slices.Sort(affected)

		p.evalProfilesInto(affected, states, best, chosenMask, candMask, evals)

		// Serial apply: retract the affected profiles' old gains, install
		// the new state, and push fresh heap entries for raised gains.
		bumped = bumped[:0]
		for _, pi := range affected {
			st := &states[pi]
			for _, pr := range st.pairs {
				gain[pr.v] -= pr.g
			}
			ev := &evals[pi]
			curDelta += int64(ev.delta)
			st.pairs, st.touch = ev.pairs, ev.touch
			for _, pr := range st.pairs {
				gain[pr.v] += pr.g
				if bumpStamp[pr.v] != round {
					bumpStamp[pr.v] = round
					bumped = append(bumped, pr.v)
				}
			}
			for _, t := range st.touch {
				extra[t] = append(extra[t], pi)
			}
			for _, t := range ev.frontAdds {
				extra[t] = append(extra[t], pi)
			}
		}
		for _, v := range bumped {
			if gain[v] > 0 && !chosenMask[v] {
				h.PushEntry(maxcover.Entry{Item: v, Gain: gain[v]})
			}
		}
	}
	return chosen, float64(curDelta) / float64(R), nil
}

// evalProfilesInto runs evalProfile for each listed profile, sharded
// across the pool's workers when the batch is large enough, writing
// results into evals[pi]. Profiles are independent, and each result is
// a pure function of (profile state, pick, masks), so the output does
// not depend on the sharding.
func (p *Pool) evalProfilesInto(pis []int32, states []queryState, pick int32, chosenMask, candMask []bool, evals []profEval) {
	p.FanOut(len(pis), ltReEvalParallelMin, func(lo, hi int, s *scratch) {
		for _, pi := range pis[lo:hi] {
			evals[pi] = p.evalProfile(int(pi), &states[pi], pick, chosenMask, candMask, s)
		}
	})
}

// evalProfile applies pick (if >= 0) to one profile's query state and
// recomputes the profile's candidate gains and touch set. It mutates
// st's slices by replacement only; the scratch is left clean.
//
// The scratch's Touched log dedups both node sets: the loaded frontier
// is touched first, then the pick's push targets (commitState), then
// the nodes the candidate-gain cascades reach. So a gain pass's touch
// set holds only nodes outside the current frontier and active set;
// the affected-profile filter finds frontier members through the base
// index and the frontAdds lists instead.
func (p *Pool) evalProfile(pi int, st *queryState, pick int32, chosenMask, candMask []bool, s *scratch) profEval {
	ps := p.Profile(pi).Seed
	s.load(st.active, st.front, st.frontW)
	for _, v := range st.front {
		s.Touch(v)
	}
	var ev profEval

	if pick >= 0 && !s.Active[pick] {
		// The picked node's stored in-weight switches to the boosted
		// probabilities; if that reaches its threshold, it activates and
		// cascades. Modifications stay in the logs for the rebuild below.
		wb := p.boostedInWeight(pick, s)
		s.push(pick, wb)
		if wb >= theta(ps, pick) {
			s.Activate(pick)
			ev.delta = int32(1 + p.cascade(ps, chosenMask, -1, s))
		}
		commitState(st, &ev, s)
	}

	// Candidate gains over the (possibly rebuilt) frontier, collecting
	// the union of nodes the tentative cascades touch.
	mark := len(s.Touched)
	for _, v := range st.front {
		if !candMask[v] || chosenMask[v] || s.Active[v] {
			continue
		}
		if g := p.gainOf(ps, v, chosenMask, s); g > 0 {
			ev.pairs = append(ev.pairs, gainPair{v, g})
		}
	}
	if len(s.Touched) > mark {
		ev.touch = slices.Clone(s.Touched[mark:])
		slices.Sort(ev.touch)
	}
	s.reset()
	return ev
}

// gainOf evaluates one candidate's marginal activations on the loaded
// profile state: recompute its in-weight under the boosted
// probabilities, tentatively activate and cascade if it reaches its
// threshold, then roll the state back. The nodes the cascade pushed to
// or activated are recorded with s.Touch.
func (p *Pool) gainOf(ps uint64, v int32, inB []bool, s *scratch) int32 {
	if p.boostedInWeight(v, s) < theta(ps, v) {
		return 0
	}
	pushMark, actMark := len(s.pushNode), len(s.ActNode)
	s.Activate(v)
	g := int32(1 + p.cascade(ps, inB, -1, s))
	for _, t := range s.pushNode[pushMark:] {
		s.Touch(t)
	}
	for _, t := range s.ActNode[actMark:] {
		s.Touch(t)
	}
	s.rollback(pushMark, actMark)
	return g
}

// commitState rebuilds st's active set and frontier from the scratch
// after an applied pick, recording nodes that entered the frontier in
// ev.frontAdds. The scratch keeps the committed state loaded so
// candidate gains can be evaluated directly afterwards.
func commitState(st *queryState, ev *profEval, s *scratch) {
	if len(s.ActNode) > 0 {
		merged := make([]int32, 0, len(st.active)+len(s.ActNode))
		merged = append(merged, st.active...)
		merged = append(merged, s.ActNode...)
		slices.Sort(merged)
		st.active = merged
	}

	// New frontier: old frontier members (touched on load) plus the
	// pick's push targets, minus activations, with weights read off the
	// scratch.
	for _, v := range s.pushNode {
		s.Touch(v)
	}
	var front []int32
	for i, v := range s.Touched {
		if s.Active[v] {
			continue
		}
		front = append(front, v)
		if i >= len(st.front) {
			ev.frontAdds = append(ev.frontAdds, v)
		}
	}
	slices.Sort(front)
	frontW := make([]float64, len(front))
	for j, v := range front {
		frontW[j] = s.wIn[v]
	}
	st.front, st.frontW = front, frontW
}
