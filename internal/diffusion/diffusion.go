// Package diffusion implements the influence boosting model of Lin, Chen
// and Lui (Definition 1): Independent Cascade diffusion where a boosted
// node v is influenced by a newly active in-neighbor u with probability
// p'(u,v) instead of p(u,v).
//
// The package provides single-run simulation, coupled base/boosted runs
// over a shared possible world (a large variance reduction when
// estimating the boost Δ_S(B) = σ_S(B) − σ_S(∅)), and parallel
// Monte-Carlo estimators. The coupled kernel (PairOnce) runs the base
// cascade first and extends it to the boosted one, drawing each edge's
// uniform at most once per world.
package diffusion

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// Simulator runs boosted-IC diffusions on one graph. It owns scratch
// buffers sized to the graph, so repeated simulations allocate nothing.
// A Simulator is not safe for concurrent use; create one per goroutine.
type Simulator struct {
	g *graph.Graph

	mark  []int32 // per-node visit epoch
	epoch int32   // kboost:epoch

	queue   []int32 // active nodes of the current run, in activation order
	pending []int32 // PairOnce: boosted targets of boost-only base edges
}

// NewSimulator returns a Simulator for g.
func NewSimulator(g *graph.Graph) *Simulator {
	return &Simulator{g: g, mark: make([]int32, g.N())}
}

// MaskFromSet returns an n-length boolean mask with mask[v]=true for
// each v in nodes.
func MaskFromSet(n int, nodes []int32) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

// SpreadOnce runs one diffusion from seeds with boost mask (nil means no
// boosted nodes) and returns the number of activated nodes. Edge
// outcomes are drawn from r.
func (s *Simulator) SpreadOnce(seeds []int32, boost []bool, r *rng.Source) int {
	s.begin(seeds)
	s.cascade(0, boost, r)
	return len(s.queue)
}

// PairOnce samples one possible world and returns the spread without
// boosting and the spread with the given boost mask (nil means none),
// both measured in that same world. In the world every edge is live
// (probability p), live-upon-boost (p' − p) or blocked; the boosted run
// follows live edges and live-upon-boost edges into boosted targets.
//
// The base cascade runs first and draws one uniform x per edge into a
// still-inactive target: x < p activates it, and p ≤ x < p' into a
// boosted target queues it as pending. The boosted world is the base
// set plus the cascade from the pending nodes, which draws only the
// out-edges of those newly boosted nodes (p' into boosted targets, p
// otherwise). The two cascades read disjoint edges, so each edge is
// drawn at most once and the joint law of (base, boosted) is that of
// the three-status world. Because the worlds are coupled, boosted−base
// is an unbiased, low-variance per-replicate estimate of the boost of
// influence.
func (s *Simulator) PairOnce(seeds []int32, boost []bool, r *rng.Source) (base, boosted int) {
	g := s.g
	s.begin(seeds)
	ep := s.epoch
	s.pending = s.pending[:0]
	for qi := 0; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			if s.mark[v] == ep {
				continue
			}
			x := r.Float64()
			if x < p[i] {
				s.mark[v] = ep
				s.queue = append(s.queue, v)
			} else if x < pb[i] && boost != nil && boost[v] {
				s.pending = append(s.pending, v)
			}
		}
	}
	base = len(s.queue)
	for _, v := range s.pending {
		if s.mark[v] != ep {
			s.mark[v] = ep
			s.queue = append(s.queue, v)
		}
	}
	s.cascade(base, boost, r)
	return base, len(s.queue)
}

// nextEpoch advances the visit stamp, clearing mark when the int32
// epoch wraps so stale stamps can never read as current.
// kboost:epoch-helper
func (s *Simulator) nextEpoch() {
	if s.epoch == math.MaxInt32 {
		clear(s.mark)
		s.epoch = 0
	}
	s.epoch++
}

// begin starts a run: a fresh visit epoch and a queue holding the
// distinct seeds, all active.
func (s *Simulator) begin(seeds []int32) {
	s.nextEpoch()
	s.queue = s.queue[:0]
	for _, v := range seeds {
		if s.mark[v] != s.epoch {
			s.mark[v] = s.epoch
			s.queue = append(s.queue, v)
		}
	}
}

// cascade runs the boosted-IC BFS over the queue from index qi on. Each
// out-edge of a dequeued node into a still-inactive target is drawn
// once, with p' into boosted targets and p otherwise.
func (s *Simulator) cascade(qi int, boost []bool, r *rng.Source) {
	g, ep := s.g, s.epoch
	for ; qi < len(s.queue); qi++ {
		u := s.queue[qi]
		to := g.OutTo(u)
		p := g.OutP(u)
		pb := g.OutPBoost(u)
		for i, v := range to {
			if s.mark[v] == ep {
				continue
			}
			prob := p[i]
			if boost != nil && boost[v] {
				prob = pb[i]
			}
			if r.Bernoulli(prob) {
				s.mark[v] = ep
				s.queue = append(s.queue, v)
			}
		}
	}
}

// Options configures a Monte-Carlo estimation.
type Options struct {
	Sims    int    // number of simulations (default 10000)
	Seed    uint64 // RNG seed (default 1)
	Workers int    // parallel workers (default GOMAXPROCS)
}

func (o Options) withDefaults() Options {
	if o.Sims <= 0 {
		o.Sims = 10000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers > o.Sims {
		o.Workers = o.Sims
	}
	return o
}

func validateNodes(g *graph.Graph, nodes []int32, what string) error {
	for _, v := range nodes {
		if v < 0 || int(v) >= g.N() {
			return fmt.Errorf("diffusion: %s node %d out of range [0,%d)", what, v, g.N())
		}
	}
	return nil
}

// validate range-checks the seed and boost lists of an estimate.
func validate(g *graph.Graph, seeds, boost []int32) error {
	if err := validateNodes(g, seeds, "seed"); err != nil {
		return err
	}
	return validateNodes(g, boost, "boost")
}

// EstimateSpread estimates σ_S(B): the expected number of nodes
// activated when seeding seeds and boosting the nodes in boost (which
// may be nil for the plain IC spread).
func EstimateSpread(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	if err := validate(g, seeds, boost); err != nil {
		return 0, err
	}
	opt = opt.withDefaults()
	mask := MaskFromSet(g.N(), boost)
	total, _ := parallelSum(g, opt, func(sim *Simulator, r *rng.Source) (int, int) {
		return sim.SpreadOnce(seeds, mask, r), 0
	})
	return total / float64(opt.Sims), nil
}

// EstimatePair estimates σ_S(B) and Δ_S(B) = σ_S(B) − σ_S(∅) from one
// set of coupled possible worlds: each PairOnce replicate contributes
// its boosted spread to σ̂ and boosted − base to Δ̂. Coupling gives Δ̂
// far lower variance than differencing two independent spread
// estimates, and σ̂ comes free with it.
func EstimatePair(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta float64, err error) {
	if err := validate(g, seeds, boost); err != nil {
		return 0, 0, err
	}
	opt = opt.withDefaults()
	mask := MaskFromSet(g.N(), boost)
	boosted, gain := parallelSum(g, opt, func(sim *Simulator, r *rng.Source) (int, int) {
		base, boosted := sim.PairOnce(seeds, mask, r)
		return boosted, boosted - base
	})
	return boosted / float64(opt.Sims), gain / float64(opt.Sims), nil
}

// EstimateBoost estimates Δ_S(B) = σ_S(B) − σ_S(∅): the Δ̂ leg of
// EstimatePair.
func EstimateBoost(g *graph.Graph, seeds, boost []int32, opt Options) (float64, error) {
	_, delta, err := EstimatePair(g, seeds, boost, opt)
	return delta, err
}

// parallelSum runs opt.Sims replicates of one across opt.Workers
// goroutines with independent RNG streams and returns the sums of the
// two counts each replicate reports.
func parallelSum(g *graph.Graph, opt Options, one func(*Simulator, *rng.Source) (int, int)) (float64, float64) {
	root := rng.New(opt.Seed)
	per := simSplit(opt.Sims, opt.Workers)
	results := make([][2]int, opt.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opt.Workers; w++ {
		r := root.Split()
		nSims := per[w]
		if nSims == 0 {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sim := NewSimulator(g)
			var sum [2]int
			for i := 0; i < nSims; i++ {
				a, b := one(sim, r)
				sum[0] += a
				sum[1] += b
			}
			results[w] = sum
		}(w)
	}
	wg.Wait()
	var total [2]int
	for _, v := range results {
		total[0] += v[0]
		total[1] += v[1]
	}
	return float64(total[0]), float64(total[1])
}

// simSplit divides sims as evenly as possible across workers.
func simSplit(sims, workers int) []int {
	per := make([]int, workers)
	base := sims / workers
	rem := sims % workers
	for i := range per {
		per[i] = base
		if i < rem {
			per[i]++
		}
	}
	return per
}
