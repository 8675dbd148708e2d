package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/core"
	"github.com/kboost/kboost/internal/diffusion"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/prr"
	"github.com/kboost/kboost/internal/rrset"
)

// repairFrac is the engine's default repair fallback fraction; the
// harness repairs its pools under the same rule.
const repairFrac = 0.5

// tier1Sims is the engine's tier-1 simulation budget.
const tier1Sims = 256

// harness replays calls as direct timed calls into the layer packages.
// It keeps its own graphs and pools, mirroring what the engine holds:
// a pool the engine built or grew during the replay is built or grown
// here inside a span; a pool the engine already held from set-up is
// built here untimed the first time it is needed.
type harness struct {
	sz     sizes
	tr     *tracer
	graphs map[string]*graph.Graph
	prr    map[string]*prrEntry
	sim    map[string]model.Pool
	n      counts
}

type prrEntry struct {
	pool  *prr.Pool
	sized map[string]bool
}

// counts are the layer counters the replay accumulates.
type counts struct {
	prrSampled       int     // PRR graphs generated inside core.sampling spans
	prrSampleSecs    float64 // their span time
	builds, buildSum int     // PRR pool builds and their final sizes
	boostable, total int     // boostable / all PRR graphs over every selection
	ltAllocBytes     []float64
	repairedSketches int
	repairedProfiles int
	rrSets           int
	rrSecs           float64
}

func newHarness(cfg config, graphs map[string]*graph.Graph, tr *tracer) *harness {
	return &harness{sz: cfg.sz, tr: tr, graphs: graphs,
		prr: map[string]*prrEntry{}, sim: map[string]model.Pool{}}
}

func poolID(graphID, mode string, seeds []int32) string {
	return fmt.Sprintf("%s|%s|%v", graphID, mode, sortedCopy(seeds))
}

func (h *harness) replay(calls []record, results map[int64]engineResult) error {
	for _, r := range calls {
		res, ok := results[r.id]
		if !ok {
			continue // the engine replay failed this call; nothing to attribute
		}
		var err error
		switch c := r.c; {
		case c.boost != nil && isPRR(canonMode(c.boost.Mode)):
			err = h.boostPRR(r.id, c.boost, res.boost)
		case c.boost != nil:
			err = h.boostSim(r.id, c.boost, res.boost)
		case c.est != nil:
			err = h.estimate(r.id, c.est, res.est)
		case c.seeds != nil:
			err = h.seeds(r.id, c.seeds)
		default:
			err = h.patch(r.id, c.patch, c.delta)
		}
		if err != nil {
			return fmt.Errorf("layer replay of call %d: %w", r.id, err)
		}
	}
	return nil
}

func prrMode(m string) prr.Mode {
	if m == "lb" {
		return prr.ModeLB
	}
	return prr.ModeFull
}

func boostOptions(req *engine.BoostRequest) core.Options {
	return core.Options{K: req.K, Epsilon: req.Epsilon, Ell: req.Ell, Seed: req.Seed,
		Workers: runtime.GOMAXPROCS(0), MaxSamples: req.MaxSamples}.WithDefaults()
}

func (h *harness) boostPRR(id int64, req *engine.BoostRequest, res *engine.BoostResult) error {
	if res.ResultCached {
		return nil // the engine copied a cached answer; no layer ran
	}
	mode := canonMode(req.Mode)
	g := h.graphs[req.GraphID]
	opt := boostOptions(req)
	key := poolID(req.GraphID, mode, req.Seeds)
	sizeKey := fmt.Sprintf("%d|%g|%g|%d", opt.K, opt.Epsilon, opt.Ell, opt.MaxSamples)
	ent := h.prr[key]
	var err error
	switch {
	case !res.CacheHit: // cold build or k-rebuild
		var pool *prr.Pool
		d := h.tr.timed(id, "core.sampling", "engine", func() {
			pool, err = core.BuildPool(g, req.Seeds, opt, prrMode(mode))
		})
		if err != nil {
			return err
		}
		ent = &prrEntry{pool: pool, sized: map[string]bool{sizeKey: true}}
		h.prr[key] = ent
		h.n.prrSampled += pool.Size()
		h.n.prrSampleSecs += d.Seconds()
		h.n.builds++
		h.n.buildSum += pool.Size()
	case ent == nil: // held by the engine since set-up
		pre := opt
		pre.K = max(opt.K, h.sz.kMax)
		pool, err := core.BuildPool(g, req.Seeds, pre, prrMode(mode))
		if err != nil {
			return err
		}
		ent = &prrEntry{pool: pool, sized: map[string]bool{}}
		h.prr[key] = ent
		fallthrough
	default:
		if !ent.sized[sizeKey] {
			var added int
			d := h.tr.timed(id, "core.sampling", "engine", func() {
				added, err = core.GrowPool(ent.pool, opt)
			})
			if err != nil {
				return err
			}
			ent.sized[sizeKey] = true
			h.n.prrSampled += added
			h.n.prrSampleSecs += d.Seconds()
		}
	}

	// core.BoostFromPool's selection, one layer call at a time.
	pool := ent.pool
	var cands []int32
	if req.Prefilter > 0 {
		if c := approx.BoostCandidates(g, req.Seeds, req.Prefilter, nil); len(c) >= req.Prefilter {
			cands = c
		}
	}
	st := pool.Stats()
	h.n.boostable += st.Boostable
	h.n.total += st.Total
	h.tr.timed(id, "core.selection", "engine", func() {
		var bMu []int32
		h.tr.timed(id, "maxcover.select", "core.selection", func() {
			bMu, _ = pool.SelectAndCover(opt.K)
		})
		if pool.Mode() != prr.ModeFull {
			return
		}
		h.tr.timed(id, "prr.select", "core.selection", func() {
			if _, _, err = pool.SelectDeltaAmong(opt.K, cands); err == nil {
				_, err = pool.EstimateDelta(bMu)
			}
		})
	})
	return err
}

// simPool returns the harness pool for a simulation-mode request,
// building it inside an <mode>.extend span when the engine built or
// extended its own (timed is true), untimed otherwise.
func (h *harness) simPool(id int64, req *engine.BoostRequest, timed bool) (model.Model, model.Pool, error) {
	mode := canonMode(req.Mode)
	m, err := model.New(mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold})
	if err != nil {
		return nil, nil, err
	}
	key := poolID(req.GraphID, mode, req.Seeds)
	pool := h.sim[key]
	sims := req.Sims
	if sims <= 0 {
		sims = h.sz.sims[mode]
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	build := func() {
		if pool == nil {
			if pool, err = m.NewPool(h.graphs[req.GraphID], sortedCopy(req.Seeds), seed, runtime.GOMAXPROCS(0)); err != nil {
				return
			}
		}
		pool.Extend(sims)
	}
	switch {
	case timed:
		h.tr.timed(id, mode+".extend", "engine", build)
	case pool == nil:
		build()
	}
	if err != nil {
		return nil, nil, err
	}
	h.sim[key] = pool
	return m, pool, nil
}

func (h *harness) boostSim(id int64, req *engine.BoostRequest, res *engine.BoostResult) error {
	if res.ResultCached {
		return nil
	}
	mode := canonMode(req.Mode)
	m, pool, err := h.simPool(id, req, !res.CacheHit || res.NewSamples > 0)
	if err != nil {
		return err
	}
	var a0 uint64
	if mode == "lt" {
		a0 = allocBytes()
	}
	h.tr.timed(id, mode+".select", "engine", func() {
		if req.Prefilter > 0 {
			if c := approx.BoostCandidates(h.graphs[req.GraphID], req.Seeds, req.Prefilter, pool.Norms()); len(c) >= req.Prefilter {
				_, _, err = pool.GreedyBoostAmong(req.K, c)
				return
			}
		}
		_, _, err = pool.GreedyBoost(req.K, m.CandidateCap(req.K, req.CandCap))
	})
	if mode == "lt" {
		h.n.ltAllocBytes = append(h.n.ltAllocBytes, float64(allocBytes()-a0))
	}
	return err
}

func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *harness) estimate(id int64, req *engine.EstimateRequest, res *engine.EstimateResult) error {
	mode := canonMode(req.Mode)
	g := h.graphs[req.GraphID]
	var err error
	switch {
	case res.Tier == 0:
		var norm []float64
		if mode != "ic" {
			m, err := model.New(mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold})
			if err != nil {
				return err
			}
			norm, _ = m.Tier0Norms(g)
		}
		h.tr.timed(id, "approx.tier0", "engine", func() {
			if len(req.Boost) > 0 {
				approx.TwoHopBoost(g, req.Seeds, req.Boost, norm)
			} else {
				approx.TwoHopSpread(g, req.Seeds, nil, norm)
			}
		})
	case res.Tier == 1 && mode == "ic":
		h.tr.timed(id, "diffusion.tier1", "engine", func() {
			_, _, err = diffusion.EstimateSamples(g, req.Seeds, req.Boost,
				diffusion.Options{Sims: tier1Sims, Seed: req.Seed, Workers: runtime.GOMAXPROCS(0)})
		})
	case res.Tier == 1:
		m, merr := model.New(mode, model.Params{Recovery: req.Recovery, Threshold: req.Threshold})
		if merr != nil {
			return merr
		}
		h.tr.timed(id, mode+".tier1", "engine", func() {
			_, _, err = m.EstimateSamples(g, req.Seeds, req.Boost, tier1Sims, req.Seed, runtime.GOMAXPROCS(0))
		})
	case mode == "ic":
		opt := diffusion.Options{Sims: req.Sims, Seed: req.Seed, Workers: runtime.GOMAXPROCS(0)}
		h.tr.timed(id, "diffusion.mc", "engine", func() {
			if _, err = diffusion.EstimateSpread(g, req.Seeds, req.Boost, opt); err == nil && len(req.Boost) > 0 {
				_, err = diffusion.EstimateBoost(g, req.Seeds, req.Boost, opt)
			}
		})
	default:
		_, pool, perr := h.simPool(id, &engine.BoostRequest{GraphID: req.GraphID, Seeds: req.Seeds, Mode: mode,
			Recovery: req.Recovery, Threshold: req.Threshold, Seed: req.Seed, Sims: req.Sims}, !res.CacheHit)
		if perr != nil {
			return perr
		}
		h.tr.timed(id, mode+".estimate", "engine", func() {
			if _, err = pool.EstimateSpread(req.Boost); err == nil && len(req.Boost) > 0 {
				_, err = pool.EstimateBoost(req.Boost)
			}
		})
	}
	return err
}

func (h *harness) seeds(id int64, req *engine.SeedsRequest) error {
	var res rrset.Result
	var err error
	d := h.tr.timed(id, "rrset.select", "engine", func() {
		res, err = rrset.SelectSeeds(h.graphs[req.GraphID], req.K, rrset.Options{Epsilon: req.Epsilon, Ell: req.Ell,
			Seed: req.Seed, Workers: runtime.GOMAXPROCS(0), MaxSamples: req.MaxSamples})
	})
	h.n.rrSets += res.Samples
	h.n.rrSecs += d.Seconds()
	return err
}

// patch applies the delta and migrates every harness pool on the graph
// the way the engine does: PRR and LT pools repair (or are dropped past
// the fallback fraction); pools without a repairer are dropped.
func (h *harness) patch(id int64, graphID string, delta *graph.EdgeDelta) error {
	var g2 *graph.Graph
	var eff *graph.DeltaEffect
	var err error
	h.tr.timed(id, "graph.apply_delta", "engine", func() {
		g2, eff, err = h.graphs[graphID].ApplyDelta(delta)
	})
	if err != nil {
		return err
	}
	prefix := graphID + "|"
	for key, ent := range h.prr {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		var touched int
		var ok bool
		h.tr.timed(id, "prr.repair", "engine", func() {
			touched, ok, err = ent.pool.Repair(g2, eff.DirtyIn, repairFrac)
		})
		if err != nil {
			return err
		}
		if !ok {
			delete(h.prr, key)
			continue
		}
		ent.sized = map[string]bool{}
		h.n.repairedSketches += touched
	}
	for key, pool := range h.sim {
		if len(key) < len(prefix) || key[:len(prefix)] != prefix {
			continue
		}
		rep, can := pool.(model.Repairer)
		if !can {
			delete(h.sim, key)
			continue
		}
		var touched int
		var ok bool
		h.tr.timed(id, "lt.repair", "engine", func() {
			touched, ok, err = rep.Repair(g2, eff.DirtyOut, eff.DirtyIn, repairFrac)
		})
		if err != nil {
			return err
		}
		if !ok {
			delete(h.sim, key)
			continue
		}
		h.n.repairedProfiles += touched
	}
	h.graphs[graphID] = g2
	return nil
}
