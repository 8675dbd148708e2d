package diffusion

import (
	"sync"

	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/rng"
)

// EstimateActivation estimates the per-node activation probability under
// seeds and boost. It returns a slice of length g.N().
func EstimateActivation(g *graph.Graph, seeds, boost []int32, opt Options) ([]float64, error) {
	if err := validate(g, seeds, boost); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	mask := MaskFromSet(g.N(), boost)

	counts := make([]int64, g.N())
	var mu sync.Mutex
	var wg sync.WaitGroup
	root := rng.New(opt.Seed)
	for _, nSims := range simSplit(opt.Sims, opt.Workers) {
		r := root.Split()
		if nSims == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := NewSimulator(g)
			local := make([]int64, g.N())
			for i := 0; i < nSims; i++ {
				sim.SpreadOnce(seeds, mask, r)
				// The run's queue holds exactly the nodes it activated.
				for _, v := range sim.queue {
					local[v]++
				}
			}
			mu.Lock()
			for v := range counts {
				counts[v] += local[v]
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	probs := make([]float64, g.N())
	for v := range probs {
		probs[v] = float64(counts[v]) / float64(opt.Sims)
	}
	return probs, nil
}
