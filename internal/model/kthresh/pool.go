package kthresh

// This file is boosted k-threshold contagion's transmission rule for
// the simpool kernel, structured like internal/lt's threshold-profile
// pool. A profile is one assignment of edge uniforms U(ps, u, v); its
// cached base world is the active set under B = ∅ and the frontier —
// every inactive node with at least one usable in-edge from a
// base-active node — with two exposure counts per frontier node as the
// kernel's aux values: live (edges usable unboosted) and boost-only
// (edges usable only if the node is boosted). Boosting only adds usable
// edges, counts only grow, and activation is monotone in the counts, so
// a boosted world's active set always contains the base world's and
// boost sets evaluate incrementally from the cached counts.

import (
	"sort"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// Pool is a growable collection of boosted k-threshold percolation
// profiles for a fixed (graph, seed set): the simpool kernel under the
// k-threshold rule. Mutation (Extend) must be externally serialized
// against everything else; estimation and selection only read the pool
// and may run concurrently with each other.
type Pool struct {
	*simpool.Pool[*scratch, int32]
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
	k, err := simpool.New(simpool.Rule[*scratch, int32]{
		Name:     "kthresh",
		AuxWidth: 2, // live, boost-only exposure counts
		NewScratch: func() *scratch {
			return &scratch{Scratch: *simpool.NewScratch(n), cnt: make([]int32, n), bcnt: make([]int32, n)}
		},
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

// EstimateSamples runs sims pool-free boosted k-threshold replicates
// and returns the per-simulation boosted spread and boost delta
// samples: simpool.Pool.EstimateSamples on an empty pool for
// (g, seeds). This is the engine's tier-1 estimator for mode "kthresh".
func (m *Model) EstimateSamples(g *graph.Graph, seeds, boost []int32, sims int, seed uint64, workers int) (spread, delta []float64, err error) {
	p, err := m.NewPool(g, seeds, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	return p.EstimateSamples(boost, sims, seed)
}

// scratch extends the kernel scratch with exposure counts. Every node
// whose counts were written is on Touched, so reset clears them there.
type scratch struct {
	simpool.Scratch
	cnt  []int32 // usable exposures from active nodes, under evaluation
	bcnt []int32 // boost-only exposures (base-world capture only)
}

func (s *scratch) reset() {
	for _, v := range s.Touched {
		s.cnt[v] = 0
		s.bcnt[v] = 0
	}
	s.Scratch.Reset()
}

// cascade drains s.Queue: each newly active node u pushes its
// out-edges' exposures into inactive targets. An edge counts when its
// uniform falls below the base probability, or — for targets in the
// boost set (mask membership or the tentative candidate extra) — below
// the boosted probability. A target activates when its usable exposure
// count reaches the model threshold. With collect set (base-world
// capture), boost-only exposures of unboosted targets accumulate in
// bcnt for frontier extraction instead. Returns the number of
// activations (excluding nodes queued by the caller).
func (p *Pool) cascade(ps uint64, mask []bool, extra int32, collect bool, s *scratch) int {
	g := p.g
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
			uu := simpool.EdgeU(ps, u, t)
			if uu >= pp[i] {
				// Not live; usable only as a boost-only edge.
				boosted := (mask != nil && mask[t]) || t == extra
				if boosted {
					if uu >= pb[i] {
						continue
					}
				} else {
					if collect && uu < pb[i] {
						s.Touch(t)
						s.bcnt[t]++
					}
					continue
				}
			}
			s.Touch(t)
			s.cnt[t]++
			if s.cnt[t] >= p.m.thresh {
				s.Activate(t)
				activated++
			}
		}
	}
	s.Queue = s.Queue[:0]
	return activated
}

// run activates the seeds, then cascades under the boost mask to the
// fixed point, leaving the final state in s. It returns the active
// count.
func (p *Pool) run(ps uint64, mask []bool, collect bool, s *scratch) int {
	seeds := p.Seeds()
	for _, v := range seeds {
		s.Activate(v)
	}
	return len(seeds) + p.cascade(ps, mask, -1, collect, s)
}

// simulate is the rule's from-scratch simulation (simpool.Rule.Simulate).
func (p *Pool) simulate(ps uint64, mask []bool, s *scratch) int {
	n := p.run(ps, mask, false, s)
	s.reset()
	return n
}

// base captures one profile's base fixed point (simpool.Rule.Base): the
// active set and the frontier with its live and boost-only exposure
// counts.
func (p *Pool) base(ps uint64, sh *simpool.Shard[int32], s *scratch) {
	p.run(ps, nil, true, s)
	front := sh.Add(&s.Scratch)
	for _, v := range front {
		sh.Aux = append(sh.Aux, s.cnt[v])
	}
	for _, v := range front {
		sh.Aux = append(sh.Aux, s.bcnt[v])
	}
	s.reset()
}

// eval computes the marginal activations of boosting bset ∪ {extra} on
// profile pi (simpool.Rule.Eval), starting from the cached base fixed
// point. It installs the frontier's live counts; phase 1 folds each
// inactive boosted node's cached boost-only exposures into its count
// (the contributions of base-active in-neighbors, which the cascade
// will not replay) and activates those at threshold; phase 2 cascades
// from the activated nodes.
func (p *Pool) eval(pi int, bset []int32, mask []bool, extra int32, s *scratch) int {
	pr := p.Profile(pi)
	front := pr.Front
	live, boost := pr.Aux[:len(front)], pr.Aux[len(front):]
	s.Load(pr.Active)
	for j, v := range front {
		s.Touch(v)
		s.cnt[v] = live[j]
	}
	delta := 0
	install := func(b int32) {
		if s.Active[b] {
			return
		}
		j := sort.Search(len(front), func(i int) bool { return front[i] >= b })
		if j >= len(front) || front[j] != b {
			return
		}
		s.cnt[b] += boost[j]
		if s.cnt[b] >= p.m.thresh {
			s.Activate(b)
			delta++
		}
	}
	for _, b := range bset {
		install(b)
	}
	if extra >= 0 {
		install(extra)
	}
	delta += p.cascade(pr.Seed, mask, extra, false, s)
	s.reset()
	return delta
}
