package lt

// This file is boosted LT's transmission rule for the simpool kernel,
// which owns the pool itself: profile seeds, sharded Extend and
// Resample, flat base-world storage, the frontier index, estimation
// and memory accounting. A profile is a "threshold profile" — a
// possible world of the LT diffusion, defined by a deterministic
// per-node threshold draw θ(i,v) — and its cached base world is the
// fixed point under the empty boost set: the active set, and the
// frontier (touched but inactive nodes) with each frontier node's
// accumulated in-weight as the kernel's aux value. Because LT
// activation with fixed thresholds is monotone in the edge weights, and
// boosting only raises weights, a boosted world's active set always
// contains the base world's; boost sets therefore evaluate
// incrementally from the cached base fixed point instead of re-running
// the cascade from scratch.
//
// Thresholds are a pure hash of (profile seed, node id) rather than a
// lazily consumed RNG stream, so θ(i,v) does not depend on cascade
// order or on the boost set under evaluation — the property that makes
// profile reuse across boost sets well-defined (common random numbers)
// and makes every pool estimate bit-exact regardless of worker count.

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// Pool is a growable collection of boosted-LT threshold profiles for a
// fixed (graph, seed set): the simpool kernel under the LT rule, with
// CELF selection (select.go) and in-place repair (repair.go). Profiles
// are independent of the boost budget k, so one pool serves every query
// against its seed set. Mutation (Extend, Repair) must be externally
// serialized against everything else; estimation and selection only
// read the pool and may run concurrently with each other.
type Pool struct {
	*simpool.Pool[*scratch, float64]
	*Model          // the pool's graph and its in-weight normalizers
	seedMask []bool // the kernel's seed mask, for the package's tests
}

// Fan-out thresholds: the minimum number of affected profiles per
// estimate, and of profiles per CELF evaluation pass, before the work
// fans out to the pool's workers; variables so tests can force the
// parallel paths on small pools.
var (
	estimateParallelMin = 256
	ltReEvalParallelMin = 64
)

// NewPool creates an empty pool for (g, seeds). seed determines every
// profile the pool will ever contain; workers <= 0 means GOMAXPROCS.
// Unlike PRR pools, pool contents do not depend on workers.
func NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool, error) {
	p := &Pool{Model: New(g)}
	n := g.N()
	k, err := simpool.New(simpool.Rule[*scratch, float64]{
		Name:                "lt",
		AuxWidth:            1, // accumulated base in-weight
		NewScratch:          func() *scratch { return newScratch(n) },
		Base:                func(ps uint64, sh *simpool.Shard[float64], s *scratch) { p.base(p.Seeds(), ps, sh, s) },
		Eval:                p.eval,
		Simulate:            p.simulate,
		Select:              p.celf,
		EstimateParallelMin: estimateParallelMin,
	}, g, seeds, seed, workers)
	if err != nil {
		return nil, err
	}
	p.Pool, p.seedMask = k, k.SeedMask()
	return p, nil
}

// Norms returns the pool's per-node in-weight normalizers (see
// Model.Norms). The slice aliases the pool's model and must not be
// modified. kboost:aliased-view
func (p *Pool) Norms() []float64 { return p.norm }

// theta returns θ(i,v) ∈ (0,1): the threshold of node v in the profile
// seeded by ps, hashed so the draw is independent of evaluation order.
// A zero threshold would auto-activate any touched node, so the
// (measure-zero) 0 output is clamped away.
func theta(ps uint64, v int32) float64 {
	t := simpool.Hash01(ps ^ (uint64(uint32(v))+1)*0x9e3779b97f4a7c15)
	if t == 0 {
		t = 1e-18
	}
	return t
}

// scratch extends the kernel scratch with accumulated in-weights and a
// push log. Every node whose weight changed since the last reset is in
// pushNode or the loaded frontier, so reset clears them there; the push
// log (with the weight each push overwrote) also lets CELF roll a
// tentative cascade back.
type scratch struct {
	simpool.Scratch
	wIn      []float64
	front    []int32   // frontier whose weights load installed
	pushNode []int32   // every push target, in order
	pushPrev []float64 // wIn value before that push
	pend     []pending // eval's recomputed boosted weights
}

func newScratch(n int) *scratch {
	return &scratch{Scratch: *simpool.NewScratch(n), wIn: make([]float64, n)}
}

// pending is one boosted node's recomputed in-weight.
type pending struct {
	v int32
	w float64
}

// load installs a profile state (active set + frontier weights).
func (s *scratch) load(active, front []int32, frontW []float64) {
	s.Load(active)
	for j, v := range front {
		s.wIn[v] = frontW[j]
	}
	s.front = front
}

// reset clears every node the scratch touched since the last reset.
func (s *scratch) reset() {
	for _, v := range s.front {
		s.wIn[v] = 0
	}
	for _, v := range s.pushNode {
		s.wIn[v] = 0
	}
	s.front = nil
	s.pushNode = s.pushNode[:0]
	s.pushPrev = s.pushPrev[:0]
	s.Scratch.Reset()
}

// push sets v's in-weight to w, logging the overwritten value.
func (s *scratch) push(v int32, w float64) {
	s.pushNode = append(s.pushNode, v)
	s.pushPrev = append(s.pushPrev, s.wIn[v])
	s.wIn[v] = w
}

// rollback undoes pushes and activations past the given log marks,
// restoring the state that was loaded (or committed) before them.
func (s *scratch) rollback(pushMark, actMark int) {
	for i := len(s.pushNode) - 1; i >= pushMark; i-- {
		s.wIn[s.pushNode[i]] = s.pushPrev[i]
	}
	for _, v := range s.ActNode[actMark:] {
		s.Active[v] = false
	}
	s.pushNode = s.pushNode[:pushMark]
	s.pushPrev = s.pushPrev[:pushMark]
	s.ActNode = s.ActNode[:actMark]
}

// cascade drains s.Queue, pushing each newly active node's out-edge
// weights into inactive neighbors and activating those whose
// accumulated in-weight reaches their threshold. Edges into node t use
// the boosted probability when t is boosted (mask membership or the
// tentative candidate extra). Every push and activation is logged so
// the caller can either roll back (tentative evaluation) or commit and
// reset. Returns the number of activations (excluding nodes queued by
// the caller).
func (m *Model) cascade(ps uint64, mask []bool, extra int32, s *scratch) int {
	g := m.g
	activated := 0
	for qi := 0; qi < len(s.Queue); qi++ {
		u := s.Queue[qi]
		to := g.OutTo(u)
		pp := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, t := range to {
			if s.Active[t] {
				continue
			}
			w := pp[i]
			if (mask != nil && mask[t]) || t == extra {
				w = pb[i]
			}
			s.push(t, s.wIn[t]+w/m.norm[t])
			if s.wIn[t] >= theta(ps, t) {
				s.Activate(t)
				activated++
			}
		}
	}
	s.Queue = s.Queue[:0]
	return activated
}

// run activates seeds, then cascades under the boost mask to the fixed
// point, leaving the final state in s. It returns the active count.
func (m *Model) run(seeds []int32, ps uint64, mask []bool, s *scratch) int {
	for _, v := range seeds {
		s.Activate(v)
	}
	return len(seeds) + m.cascade(ps, mask, -1, s)
}

// base captures one profile's base fixed point (simpool.Rule.Base): the
// active set and the frontier — the unique push targets that did not
// activate — with their accumulated base in-weights.
func (m *Model) base(seeds []int32, ps uint64, sh *simpool.Shard[float64], s *scratch) {
	m.run(seeds, ps, nil, s)
	for _, v := range s.pushNode {
		s.Touch(v)
	}
	for _, v := range sh.Add(&s.Scratch) {
		sh.Aux = append(sh.Aux, s.wIn[v])
	}
	s.reset()
}

// simulate is the rule's from-scratch simulation (simpool.Rule.Simulate).
func (p *Pool) simulate(ps uint64, mask []bool, s *scratch) int {
	n := p.run(p.Seeds(), ps, mask, s)
	s.reset()
	return n
}

// boostedInWeight recomputes node v's accumulated in-weight from the
// currently active in-neighbors using the boosted probabilities — the
// value v's frontier weight takes when v joins the boost set.
func (m *Model) boostedInWeight(v int32, s *scratch) float64 {
	var w float64
	in := m.g.InFrom(v)
	pb := m.g.InPBoost(v)
	for j, u := range in {
		if s.Active[u] {
			w += pb[j]
		}
	}
	return w / m.norm[v]
}

// eval computes the marginal activations of boosting bset ∪ {extra} on
// profile pi (simpool.Rule.Eval), starting from the cached base fixed
// point. The scratch is left clean.
func (p *Pool) eval(pi int, bset []int32, mask []bool, extra int32, s *scratch) int {
	pr := p.Profile(pi)
	s.load(pr.Active, pr.Front, pr.Aux)
	// Phase 1: recompute every inactive boosted node's in-weight with
	// the boosted probabilities, against the *base* active set only —
	// interleaving with activation would double-count cascade pushes.
	s.pend = s.pend[:0]
	for _, b := range bset {
		if !s.Active[b] {
			s.pend = append(s.pend, pending{b, p.boostedInWeight(b, s)})
		}
	}
	if extra >= 0 && !s.Active[extra] {
		s.pend = append(s.pend, pending{extra, p.boostedInWeight(extra, s)})
	}
	// Phase 2: install the recomputed weights, activate those at
	// threshold, then run the cascade under the boost mask.
	delta := 0
	for _, e := range s.pend {
		s.push(e.v, e.w)
		if e.w >= theta(pr.Seed, e.v) {
			s.Activate(e.v)
			delta++
		}
	}
	delta += p.cascade(pr.Seed, mask, extra, s)
	s.reset()
	return delta
}
