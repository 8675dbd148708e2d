package engine

import (
	"context"
	"sync"
	"testing"

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

// downgradeModes covers both pool families, every mode of each.
var downgradeModes = []string{"ic", "lb", "lt", "sir", "kthresh"}

// TestDowngradeReadsEmptiedEntry pins the lock-downgrade re-check of the
// serving path. A boost's write phase builds the pool, unlocks, then
// takes the read lock for selection; a PATCH landing in between empties
// the entry (RepairGraph detaches it and repairEntry moves or drops its
// pool). The test builds an entry, patches the graph, and then runs the
// read phase on the emptied entry it still holds: the read phase must
// see the entry no longer covers the request and redo the write phase
// instead of handing selection a nil pool.
func TestDowngradeReadsEmptiedEntry(t *testing.T) {
	ctx := context.Background()
	for _, mode := range downgradeModes {
		t.Run(mode, func(t *testing.T) {
			e := newTestEngine(t, Options{})
			req := testRequest()
			req.Mode = mode
			req.Sims = 300
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
			emptied := ent.pool == nil
			ent.mu.RUnlock()
			if !emptied {
				t.Fatal("the patch left the detached entry holding a pool")
			}

			spec, err := resolveSpec(req.Mode, model.Params{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := e.boostPlan(spec, g, canonicalSeeds(req.Seeds), req)
			if err != nil {
				t.Fatal(err)
			}
			// CacheHit as the write phase of a warm growth leaves it.
			out := &BoostResult{GraphVersion: version, CacheHit: true}
			if err := e.readPhase(ctx, ent, pl, out); err != nil {
				t.Fatal(err)
			}
			if out.CacheHit || out.NewSamples == 0 {
				t.Errorf("rebuilt pool reported CacheHit=%v NewSamples=%d", out.CacheHit, out.NewSamples)
			}
			res, err := e.finishBoost(ctx, ent, pl, out, req.K, 0)
			ent.mu.RUnlock()
			if err != nil {
				t.Fatal(err)
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
	for _, mode := range downgradeModes {
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
