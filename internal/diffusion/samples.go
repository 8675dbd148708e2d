package diffusion

import (
	"sync"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// EstimateSamples runs opt.Sims coupled boosted-IC replicates and
// returns the per-simulation boosted spread and boost delta samples
// (delta is all zeros when boost is empty). Unlike EstimateSpread /
// EstimateBoost — which split one root stream per worker — each
// simulation here draws from its own stateless stream
// rng.StreamSeed(opt.Seed, simIndex), so the returned vectors are
// bit-identical for every worker count: the partitioning only decides
// who fills which slot. This is the engine's tier-1 estimator; the
// sample vectors feed stats.Summarize for confidence intervals, which
// the mean-only estimators above cannot provide.
func EstimateSamples(g *graph.Graph, seeds, boost []int32, opt Options) (spread, delta []float64, err error) {
	if err := validate(g, seeds, boost); err != nil {
		return nil, nil, err
	}
	opt = opt.withDefaults()
	mask := MaskFromSet(g.N(), boost)
	spread = make([]float64, opt.Sims)
	delta = make([]float64, opt.Sims)
	pair := len(boost) > 0

	var wg sync.WaitGroup
	counts := simSplit(opt.Sims, opt.Workers)
	lo := 0
	for _, count := range counts {
		if count == 0 {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sim := NewSimulator(g)
			var r rng.Source
			for i := lo; i < hi; i++ {
				r.ReseedStream(opt.Seed, uint64(i))
				if pair {
					base, boosted := sim.PairOnce(seeds, mask, &r)
					spread[i] = float64(boosted)
					delta[i] = float64(boosted - base)
				} else {
					spread[i] = float64(sim.SpreadOnce(seeds, mask, &r))
				}
			}
		}(lo, lo+count)
		lo += count
	}
	wg.Wait()
	return spread, delta, nil
}
