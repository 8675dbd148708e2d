package engine

// This file holds the family-specific rules of the engine's one serving
// path. A cache entry holds a servedPool — a PRR pool or a simulation
// profile pool behind one interface — and each request resolves a
// poolPlan that says what covers it, how to build and grow the pool,
// and how to run selection on it. acquire, writePhase, readPhase and
// finishBoost (engine.go) are written once against these two
// interfaces.

import (
	"context"
	"time"

	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/prr"
)

// servedPool is what a cache entry holds.
type servedPool interface {
	// Generation identifies the pool contents for the result cache.
	Generation() uint64
	// MemoryEstimate is the pool's resident bytes.
	MemoryEstimate() int64
	// Norms are the tier-0 normalizers the prefilter ranks candidates
	// under (nil: raw edge probabilities).
	Norms() []float64
	// samples is the pool's PRR-graph or profile count.
	samples() int
	// budget is the generation budget k a PRR pool was built for; 0 for
	// simulation pools, which serve every k.
	budget() int
	// repair migrates the pool onto the patched graph in place,
	// resampling only what the delta touched. ok false means the pool
	// cannot (or should not) be repaired and is dropped instead.
	repair(g2 *graph.Graph, eff *graph.DeltaEffect, maxFrac float64) (touched int, ok bool, err error)
}

// prrPool is a PRR pool plus its sizing memo.
type prrPool struct {
	*prr.Pool
	// sized records the (K, ε, ℓ, MaxSamples) sizings already applied to
	// the pool. Re-running the IMM sizing re-derives its OPT lower bound
	// from the now-larger pool and can land on a slightly larger sample
	// target, so without this memo a literally identical repeat query
	// would still generate a few samples. A rebuild starts a new memo.
	sized map[string]bool // kboost:guarded-by poolEntry.mu
}

// Norms is nil: the PRR prefilter ranks on raw edge probabilities.
func (*prrPool) Norms() []float64 { return nil }

func (p *prrPool) samples() int { return p.Size() }
func (p *prrPool) budget() int  { return p.K() }

// repair resets the sizing memo: it was derived against the pre-patch
// graph, and re-running the sizing against the patched one lets the
// next query top the pool up if the patched graph demands more samples.
// kboost:holds poolEntry.mu
func (p *prrPool) repair(g2 *graph.Graph, eff *graph.DeltaEffect, maxFrac float64) (int, bool, error) {
	p.sized = make(map[string]bool)
	return p.Repair(g2, eff.DirtyIn, maxFrac)
}

// simPool is a simulation model's profile pool.
type simPool struct{ model.Pool }

func (p simPool) samples() int { return p.NumProfiles() }
func (p simPool) budget() int  { return 0 }

// repair migrates pools whose model implements model.Repairer; the
// others fall back to a drop and cold rebuild on every patch.
func (p simPool) repair(g2 *graph.Graph, eff *graph.DeltaEffect, maxFrac float64) (int, bool, error) {
	rep, ok := p.Pool.(model.Repairer)
	if !ok {
		return 0, false, nil
	}
	return rep.Repair(g2, eff.DirtyOut, eff.DirtyIn, maxFrac)
}

// poolPlan is one request's family-specific serving rules. Its pool
// arguments are always of the plan's own family: the mode tag in the
// cache key keeps the families apart.
type poolPlan interface {
	base() *planBase
	// covers reports whether a cached pool serves the request as is.
	covers(p servedPool) bool
	// build samples a fresh pool on the request's effective graph.
	build(ctx context.Context, g *graph.Graph) (servedPool, error)
	// grow brings a pool that does not cover the request up to it: in
	// place, reporting the added samples, or by a rebuild that returns
	// the fresh pool.
	grow(ctx context.Context, p servedPool) (fresh servedPool, added int, err error)
	// candCap is the candidate cap that keys unfiltered results.
	candCap(k int) int
	// choose runs selection on a covering pool for key's k, restricted
	// to cands when the key carries a prefilter cap.
	choose(ctx context.Context, p servedPool, key resultKey, cands []int32) (*core.Result, error)
}

// planBase is what both families' plans share: the request's effective
// graph, its canonical seed set and its mode's counters.
type planBase struct {
	rg    reqGraph
	seeds []int32
	ctr   *modeCounters
}

func (b *planBase) base() *planBase { return b }

func (b *planBase) init(g *graph.Graph, spec *modeSpec, seeds []int32, ctr *modeCounters) {
	b.rg.base, b.rg.content = g, spec.content
	b.seeds, b.ctr = seeds, ctr
}

// prrPlan serves "ic" and "lb": a pool covers the request when its
// budget is at least k and the request's sizing was applied to it.
type prrPlan struct {
	planBase
	opt     core.Options
	mode    prr.Mode
	sizeKey string
}

// kboost:holds poolEntry.mu
func (pl *prrPlan) covers(p servedPool) bool {
	pp := p.(*prrPool)
	return pp.K() >= pl.opt.K && pp.sized[pl.sizeKey]
}

func (pl *prrPlan) build(ctx context.Context, g *graph.Graph) (servedPool, error) {
	pool, err := core.BuildPoolContext(ctx, g, pl.seeds, pl.opt, pl.mode)
	if err != nil {
		return nil, err
	}
	return &prrPool{Pool: pool, sized: map[string]bool{pl.sizeKey: true}}, nil
}

// grow rebuilds for a larger budget — generation-time pruning depends
// on k, so growth cannot help there — and otherwise applies the
// request's sizing in place.
// kboost:holds poolEntry.mu
func (pl *prrPlan) grow(ctx context.Context, p servedPool) (servedPool, int, error) {
	pp := p.(*prrPool)
	if pp.K() < pl.opt.K {
		g, err := pl.rg.get()
		if err != nil {
			return nil, 0, err
		}
		fresh, err := pl.build(ctx, g)
		return fresh, 0, err
	}
	added, err := core.GrowPoolContext(ctx, pp.Pool, pl.opt)
	if err != nil {
		return nil, 0, err
	}
	pp.sized[pl.sizeKey] = true
	return nil, added, nil
}

// candCap is 0: PRR selection has no candidate cap.
func (pl *prrPlan) candCap(int) int { return 0 }

func (pl *prrPlan) choose(ctx context.Context, p servedPool, _ resultKey, cands []int32) (*core.Result, error) {
	opt := pl.opt
	opt.Candidates = cands
	return core.BoostFromPoolContext(ctx, p.(*prrPool).Pool, opt)
}

// simPlan serves the simulation modes: a pool covers the request when
// it holds at least sims profiles (any pool, when sims <= 0). The
// profile RNG seed is fixed at pool construction; a later query's seed
// does not re-sample a cached pool.
type simPlan struct {
	planBase
	model    model.Model
	sims     int
	seed     uint64
	workers  int
	maxCands int // the request's CandCap
}

func (pl *simPlan) covers(p servedPool) bool { return p.samples() >= pl.sims }

func (pl *simPlan) build(ctx context.Context, g *graph.Graph) (servedPool, error) {
	sims, seed := pl.sims, pl.seed
	if sims <= 0 {
		sims = defaultSimProfiles
	}
	if seed == 0 {
		seed = 1
	}
	pool, err := pl.model.NewPool(g, pl.seeds, seed, pl.workers)
	if err != nil {
		return nil, err
	}
	if err := pool.ExtendContext(ctx, sims); err != nil {
		return nil, err
	}
	return simPool{pool}, nil
}

// grow extends the pool in place. A failed extension merges nothing and
// restores the RNG state, so the cached pool is exactly as it was.
func (pl *simPlan) grow(ctx context.Context, p servedPool) (servedPool, int, error) {
	added := pl.sims - p.samples()
	return nil, added, p.(simPool).ExtendContext(ctx, pl.sims)
}

func (pl *simPlan) candCap(k int) int { return pl.model.CandidateCap(k, pl.maxCands) }

func (pl *simPlan) choose(ctx context.Context, p servedPool, key resultKey, cands []int32) (*core.Result, error) {
	pool := p.(simPool)
	start := time.Now()
	var chosen []int32
	var est float64
	var err error
	if key.pre > 0 {
		chosen, est, err = pool.GreedyBoostAmongContext(ctx, key.k, cands)
	} else {
		chosen, est, err = pool.GreedyBoostContext(ctx, key.k, key.cand)
	}
	if err != nil {
		return nil, err
	}
	return &core.Result{
		BoostSet:      chosen,
		EstBoost:      est,
		Samples:       pool.NumProfiles(),
		SelectionTime: time.Since(start),
	}, nil
}
