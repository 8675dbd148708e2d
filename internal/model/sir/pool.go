package sir

// This file is boosted SIR's transmission rule for the simpool kernel:
// the SIR analogue of internal/lt's threshold-profile pool. A profile
// is a possible world defined by hash-derived infectious durations
// d(ps, u) and edge uniforms U(ps, u, v); its cached base world is the
// seeds' forward reachable set over live edges (U < q) and the frontier
// of boost-reachable nodes (inactive nodes with at least one boost-only
// in-edge, q ≤ U < q', from a base-active node). Boosting is monotone
// under the shared uniforms, so a profile can only gain infections from
// a boost — never lose them. SIR activation is a single-edge event, so
// frontier membership alone carries the incremental-evaluation state
// (no aux values, unlike kthresh's exposure counts).

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// Pool is a growable collection of boosted-SIR percolation profiles for
// a fixed (graph, seed set): the simpool kernel under the SIR rule.
// Mutation (Extend) must be externally serialized against everything
// else; estimation and selection only read the pool and may run
// concurrently with each other.
type Pool struct {
	*simpool.Pool[*simpool.Scratch, int32]
	m        *Model
	g        *graph.Graph
	seedMask []bool // the kernel's seed mask, for the package's tests
}

// Fan-out thresholds handed to the kernel (see simpool.Rule); variables
// so tests can force the parallel paths on small pools.
var (
	selectParallelMin   = 16
	estimateParallelMin = 256
)

// NewPool creates an empty pool for (g, seeds). seed determines every
// profile the pool will ever contain; workers <= 0 means GOMAXPROCS.
// Pool contents do not depend on workers.
func (m *Model) NewPool(g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool, error) {
	p := &Pool{m: m, g: g}
	n := g.N()
	k, err := simpool.New(simpool.Rule[*simpool.Scratch, int32]{
		Name:                "sir",
		NewScratch:          func() *simpool.Scratch { return simpool.NewScratch(n) },
		Base:                p.base,
		Eval:                p.eval,
		Simulate:            p.simulate,
		SelectParallelMin:   selectParallelMin,
		EstimateParallelMin: estimateParallelMin,
	}, g, seeds, seed, workers)
	if err != nil {
		return nil, err
	}
	p.Pool, p.seedMask = k, k.SeedMask()
	return p, nil
}

// EstimateSamples runs sims pool-free boosted-SIR replicates and
// returns the per-simulation boosted spread and boost delta samples:
// simpool.Pool.EstimateSamples on an empty pool for (g, seeds). This is
// the engine's tier-1 estimator for mode "sir".
func (m *Model) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) (spread, delta []float64, err error) {
	p, err := m.NewPool(g, seeds, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return p.EstimateSamples(boost, sims, seed)
}

// cascade drains s.Queue: each newly infected node u attempts its
// out-edges under the profile's percolation draws. An edge transmits
// when its uniform falls below the base transmissibility q, or — for
// targets in the boost set (mask membership or the tentative candidate
// extra) — below the boosted transmissibility q'. With collect set
// (base-world capture), boost-only targets that did not activate are
// touched for frontier extraction. Returns the number of activations
// (excluding nodes queued by the caller).
func (p *Pool) cascade(ps uint64, mask []bool, extra int32, collect bool, s *simpool.Scratch) int {
	g := p.g
	activated := 0
	for qi := 0; qi < len(s.Queue); qi++ {
		u := s.Queue[qi]
		d := p.m.duration(ps, u)
		to := g.OutTo(u)
		pp := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, t := range to {
			if s.Active[t] {
				continue
			}
			uu := simpool.EdgeU(ps, u, t)
			if uu < transQ(pp[i], d) {
				s.Activate(t)
				activated++
				continue
			}
			boosted := (mask != nil && mask[t]) || t == extra
			if (boosted || collect) && uu < transQ(pb[i], d) {
				if boosted {
					s.Activate(t)
					activated++
				} else {
					s.Touch(t)
				}
			}
		}
	}
	s.Queue = s.Queue[:0]
	return activated
}

// run infects the seeds, then cascades under the boost mask, leaving
// the final state in s. It returns the infected count.
func (p *Pool) run(ps uint64, mask []bool, collect bool, s *simpool.Scratch) int {
	seeds := p.Seeds()
	for _, v := range seeds {
		s.Activate(v)
	}
	return len(seeds) + p.cascade(ps, mask, -1, collect, s)
}

// simulate is the rule's from-scratch simulation (simpool.Rule.Simulate).
func (p *Pool) simulate(ps uint64, mask []bool, s *simpool.Scratch) int {
	n := p.run(ps, mask, false, s)
	s.Reset()
	return n
}

// base captures one profile's base world (simpool.Rule.Base): the
// infected set and the boost-only push targets that stayed inactive.
func (p *Pool) base(ps uint64, sh *simpool.Shard[int32], s *simpool.Scratch) {
	p.run(ps, nil, true, s)
	sh.Add(s)
	s.Reset()
}

// eval computes the marginal infections of boosting bset ∪ {extra} on
// profile pi (simpool.Rule.Eval), starting from the cached base
// reachability. Phase 1 scans each inactive boosted node's in-edges
// against the base active set (the only sources whose out-attempts the
// cascade will not replay); phase 2 cascades from the nodes that
// activated.
func (p *Pool) eval(pi int, bset []int32, mask []bool, extra int32, s *simpool.Scratch) int {
	pr := p.Profile(pi)
	ps := pr.Seed
	s.Load(pr.Active)
	delta := 0
	activate := func(b int32) {
		if !s.Active[b] && p.boostActivates(ps, b, s) {
			s.Activate(b)
			delta++
		}
	}
	for _, b := range bset {
		activate(b)
	}
	if extra >= 0 {
		activate(extra)
	}
	delta += p.cascade(ps, mask, extra, false, s)
	s.Reset()
	return delta
}

// boostActivates reports whether boosting node b activates it against
// the currently active set: some active in-neighbor's edge transmits at
// the boosted probability. (A base-active in-neighbor with a *live*
// edge into inactive b cannot exist — b would be base-active — so the
// boosted-transmissibility test alone is exact here.)
func (p *Pool) boostActivates(ps uint64, b int32, s *simpool.Scratch) bool {
	in := p.g.InFrom(b)
	pb := p.g.InPBoost(b)
	for j, u := range in {
		if s.Active[u] && simpool.EdgeU(ps, u, b) < transQ(pb[j], p.m.duration(ps, u)) {
			return true
		}
	}
	return false
}
