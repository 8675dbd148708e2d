package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
)

// onlyEntry returns the engine's single cached pool entry.
func onlyEntry(t *testing.T, e *Engine) *poolEntry {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pools) != 1 {
		t.Fatalf("%d cached pools, want 1", len(e.pools))
	}
	for _, ent := range e.pools {
		return ent
	}
	return nil
}

// TestDowngradeReadsEmptiedEntry pins the lock-downgrade re-check in
// both serving paths. A boost's write phase builds the pool, unlocks,
// then takes the read lock for selection; a PATCH landing in between
// empties the entry (RepairGraph detaches it and repairEntry moves or
// drops its pool). The test builds an entry, patches the graph, and
// then runs the read phase (rlockPRRPool / rlockSimPool) on the emptied
// entry it still holds: the read phase must see the entry no longer
// covers the request and redo the write phase instead of handing
// selection a nil pool.
func TestDowngradeReadsEmptiedEntry(t *testing.T) {
	ctx := context.Background()
	for _, mode := range []string{"ic", "sir"} {
		t.Run(mode, func(t *testing.T) {
			e := newTestEngine(t, Options{})
			req := testRequest()
			req.Mode = mode
			if mode == "sir" {
				req.Sims = 300
			}
			if _, err := e.Boost(req); err != nil {
				t.Fatal(err)
			}
			ent := onlyEntry(t, e)
			g, version, err := e.snapshotFor("g")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RepairGraph("g", testDelta(t, g)); err != nil {
				t.Fatal(err)
			}
			ent.mu.RLock()
			emptied := ent.pool == nil && ent.sim == nil
			ent.mu.RUnlock()
			if !emptied {
				t.Fatal("the patch left the detached entry holding a pool")
			}

			spec, err := resolveSpec(req.Mode, model.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			rg := &reqGraph{base: g, content: spec.content}
			seeds := canonicalSeeds(req.Seeds)
			out := &BoostResult{GraphVersion: version}
			var res *BoostResult
			if spec.sim != nil {
				sc := e.simCtr(spec.name)
				hit, added, err := e.rlockSimPool(ctx, ent, spec, sc, req, rg, seeds, true, 0)
				if err != nil {
					t.Fatal(err)
				}
				if hit || added != req.Sims {
					t.Errorf("rebuilt pool reported hit=%v added=%d", hit, added)
				}
				res, err = e.finishBoostSim(ctx, ent, sc, out, req.K, spec.sim.CandidateCap(req.K, 0), 0, nil)
				ent.mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
			} else {
				opt := core.Options{K: req.K, Seed: req.Seed, Workers: req.Workers, MaxSamples: req.MaxSamples}.WithDefaults()
				sizeKey := fmt.Sprintf("%d|%g|%g|%d", opt.K, opt.Epsilon, opt.Ell, opt.MaxSamples)
				out.CacheHit = true // as the write phase of a warm growth leaves it
				if err := e.rlockPRRPool(ctx, ent, rg, seeds, opt, spec, sizeKey, out); err != nil {
					t.Fatal(err)
				}
				if out.CacheHit || out.NewSamples == 0 {
					t.Errorf("rebuilt pool reported CacheHit=%v NewSamples=%d", out.CacheHit, out.NewSamples)
				}
				res, err = e.finishBoost(ctx, ent, out, opt, 0)
				ent.mu.RUnlock()
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(res.BoostSet) == 0 {
				t.Fatalf("read phase on the emptied entry returned %+v", res)
			}
		})
	}
}

// TestDowngradeRaceStress races cold boosts against a loop of PATCHes,
// the interleaving that empties entries between a boost's write and
// read phases. Every boost must succeed. Short by design: the race
// detector and the deterministic test above carry the proof; this
// shakes the real scheduling.
func TestDowngradeRaceStress(t *testing.T) {
	for _, mode := range []string{"ic", "sir"} {
		t.Run(mode, func(t *testing.T) {
			e := newTestEngine(t, Options{})
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						req := testRequest()
						req.Mode = mode
						req.MaxSamples = 500
						req.Sims = 100
						// A fresh seed set every time: each boost is a cold build.
						req.Seeds = []int32{int32((2*i + w) % 60), int32((2*i + w + 30) % 60)}
						if _, err := e.Boost(req); err != nil {
							t.Errorf("worker %d boost %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			for i := 0; i < 60; i++ {
				p := 0.15 + 0.05*float64(i%2)
				d := &graph.EdgeDelta{Reweight: []graph.Edge{{From: 7, To: 8, P: p, PBoost: p + 0.2}}}
				if _, err := e.RepairGraph("g", d); err != nil {
					t.Errorf("patch %d: %v", i, err)
					break
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}
