package main

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"github.com/kboost/kboost/internal/approx"
	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
)

// Graph ids registered on every engine the benchmark prepares.
const (
	dense  = "flixster" // dense, supercritical stand-in: PRR pools and every warm mode
	sparse = "flickr"   // sparse stand-in: LT and SIR pools on live-patch
	probe  = "probe"    // small pool-free graph for the post-phase write probe
)

// authToken is the bearer token the benchmark's server accepts for PATCH.
const authToken = "perfbench"

// sizes fixes every dimension of the inputs: full() for a benchmark
// run, tiny() for the smoke tests.
type sizes struct {
	denseScale, sparseScale float64
	prrSets, simSets        int // prewarmed seed sets for PRR pools; simulation pools use the first simSets
	seedSize                int // nodes per seed set
	seedPool                int // seed sets are drawn from this many top-weight nodes
	kMax                    int // PRR pool generation budget; every PRR k stays <= kMax
	prrSamples              int // MaxSamples of every PRR pool
	sims                    map[string]int
	coldSims                map[string]int // cold-build's per-mode sim budgets
	tier2Sims               int            // IC tier-2 (fresh Monte-Carlo) estimate size
	gainSets                int            // boost sets scored for boost_gain
	gainSims                int
	patchFrac               float64 // share of a graph's edges one PATCH reweights
	probePatches            int     // PATCHes in the post-phase write probe
	writeEvery              int     // live-patch reader ops per write
}

func full() sizes {
	return sizes{
		denseScale: 0.005, sparseScale: 0.005,
		prrSets: 8, simSets: 2, seedSize: 8, seedPool: 64,
		kMax: 24, prrSamples: 2000,
		sims:      map[string]int{"lt": 400, "sir": 200, "kthresh": 200},
		coldSims:  map[string]int{"lt": 150, "sir": 60, "kthresh": 60},
		tier2Sims: 200,
		gainSets:  32, gainSims: 1000,
		probePatches: 60000, writeEvery: 4,
		patchFrac: 0.005,
	}
}

func tiny() sizes {
	return sizes{
		denseScale: 0.002, sparseScale: 0.001,
		prrSets: 1, simSets: 1, seedSize: 4, seedPool: 24,
		kMax: 8, prrSamples: 300,
		sims:      map[string]int{"lt": 60, "sir": 40, "kthresh": 40},
		coldSims:  map[string]int{"lt": 30, "sir": 20, "kthresh": 20},
		tier2Sims: 50,
		gainSets:  3, gainSims: 100,
		probePatches: 12, writeEvery: 2,
		patchFrac: 0.01,
	}
}

// seedSet is one prewarmed (graph, seeds) pair.
type seedSet struct {
	graph  string
	seeds  []int32
	maxPre int // longest prefilter shortlist that does not run dry
}

// scenario is a saved query: its request, run in set-up so the answer is
// result-cached, and the answer itself.
type scenario struct {
	req   engine.BoostRequest
	set   []int32
	first int // index in world.saved of the same pool's first saved query
}

// world is one prepared engine and everything the workloads draw on.
type world struct {
	sz     sizes
	wl     string
	eng    *engine.Engine
	graphs map[string]*graph.Graph
	sets   map[string][]seedSet   // graph -> prewarmed seed sets
	saved  []scenario             // warm-hit's result-cached queries
	tier1  engine.EstimateRequest // MaxError/MaxLatencyMS that IC calibration maps to tier 1
	deltas map[string][2]*graph.EdgeDelta
}

// engineOptions sizes the pool cache per workload: cold-build's LRU is
// kept small so it evicts; the others hold every prewarmed pool.
func engineOptions(wl string) engine.Options {
	if wl == "cold-build" {
		return engine.Options{MaxPools: 4}
	}
	return engine.Options{MaxPools: 64}
}

// baseGraphs generates the stand-ins. They do not depend on the
// workload seed, so every run measures the same graphs.
func baseGraphs(sz sizes) (map[string]*graph.Graph, error) {
	fx, err := dataset.Flixster.Generate(sz.denseScale, 2, 1)
	if err != nil {
		return nil, err
	}
	fl, err := dataset.Flickr.Generate(sz.sparseScale, 2, 1)
	if err != nil {
		return nil, err
	}
	// The probe graph is tiny so that the probe measures the write path
	// (decode, auth, apply, rekey, encode) rather than copying a large
	// CSR, and allocates too little for garbage collection to decide its
	// tail.
	pr, err := dataset.Digg.Generate(0.002, 2, 1)
	if err != nil {
		return nil, err
	}
	return map[string]*graph.Graph{dense: fx, sparse: fl, probe: pr}, nil
}

// drawSeeds picks size distinct nodes from the pool top-weight nodes.
func drawSeeds(r *rand.Rand, top []int32, size int) []int32 {
	perm := r.Perm(len(top))[:size]
	out := make([]int32, size)
	for i, j := range perm {
		out[i] = top[j]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// setup prepares a world for workload wl: graphs generated and
// registered, pools prewarmed, saved queries cached and tiers
// calibrated. The graphs and the prewarmed seed sets are the same for
// every workload seed, so set-up does the same work on every run and
// the seed varies only the request stream.
func setup(wl string, sz sizes) (*world, error) {
	gs, err := baseGraphs(sz)
	if err != nil {
		return nil, err
	}
	w := &world{sz: sz, wl: wl, eng: engine.New(engineOptions(wl)), graphs: gs,
		sets: map[string][]seedSet{}, deltas: map[string][2]*graph.EdgeDelta{}}
	for _, id := range []string{dense, sparse, probe} {
		if err := w.eng.RegisterGraph(id, gs[id]); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewPCG(1, 0x5e7))
	for _, id := range []string{dense, sparse} {
		top := dataset.InfluentialSeeds(gs[id], sz.seedPool)
		n := sz.prrSets
		if id == sparse {
			n = sz.simSets // the sparse graph holds simulation pools only
		}
		for i := 0; i < n; i++ {
			s := drawSeeds(r, top, sz.seedSize)
			w.sets[id] = append(w.sets[id], seedSet{graph: id, seeds: s,
				maxPre: len(approx.BoostCandidates(gs[id], s, gs[id].N(), nil))})
		}
	}
	if wl == "live-patch" {
		// Few pools per patched graph, so reads re-warm what a patch
		// dropped and the state a read meets stays alike across runs.
		w.sets[dense] = w.sets[dense][:sz.simSets]
	}
	switch wl {
	case "warm-hit", "what-if":
		for _, ss := range w.sets[dense] {
			for _, m := range modes {
				if isPRR(m) || w.simSet(ss) {
					if err := w.boost(w.poolReq(ss, m, sz.kMax)); err != nil {
						return nil, err
					}
				}
			}
		}
		if wl == "warm-hit" {
			err = w.saveScenarios()
		} else {
			err = w.calibrate()
		}
	case "live-patch":
		for _, ss := range w.sets[dense] {
			for _, m := range []string{"ic", "lb"} {
				if err := w.boost(w.poolReq(ss, m, sz.kMax)); err != nil {
					return nil, err
				}
			}
		}
		for _, ss := range w.sets[sparse] {
			for _, m := range []string{"lt", "sir"} {
				if err := w.boost(w.poolReq(ss, m, 4)); err != nil {
					return nil, err
				}
			}
		}
		for _, id := range []string{dense, sparse} {
			fwd, back, err := patchDeltas(gs[id], w.sets[id], sz.patchFrac)
			if err != nil {
				return nil, err
			}
			w.deltas[id] = [2]*graph.EdgeDelta{fwd, back}
		}
	}
	if err != nil {
		return nil, err
	}
	fwd, back, err := patchDeltas(gs[probe], nil, sz.patchFrac)
	if err != nil {
		return nil, err
	}
	w.deltas[probe] = [2]*graph.EdgeDelta{fwd, back}
	return w, nil
}

// modes are the five serving modes, in the order pools are prewarmed.
var modes = []string{"ic", "lb", "lt", "sir", "kthresh"}

func isPRR(mode string) bool { return mode == "ic" || mode == "lb" }

// simSet reports whether ss is one of its graph's first simSets seed
// sets, the ones that also hold simulation pools.
func (w *world) simSet(ss seedSet) bool {
	for _, s := range w.sets[ss.graph][:w.sz.simSets] {
		if fmt.Sprint(s.seeds) == fmt.Sprint(ss.seeds) {
			return true
		}
	}
	return false
}

// setsFor returns the prewarmed seed sets of graph id that hold mode m's pools.
func (w *world) setsFor(id, m string) []seedSet {
	if isPRR(m) {
		return w.sets[id]
	}
	return w.sets[id][:w.sz.simSets]
}

// poolReq is the request that builds (or hits) ss's pool in mode m.
func (w *world) poolReq(ss seedSet, m string, k int) engine.BoostRequest {
	req := engine.BoostRequest{GraphID: ss.graph, Seeds: ss.seeds, K: k, Mode: m, Seed: 1}
	if isPRR(m) {
		req.MaxSamples = w.sz.prrSamples
	} else {
		req.Sims = w.sz.sims[m]
	}
	return req
}

func (w *world) boost(req engine.BoostRequest) error {
	_, err := w.boostResult(req)
	return err
}

func (w *world) boostResult(req engine.BoostRequest) (*engine.BoostResult, error) {
	res, err := w.eng.Boost(req)
	if err != nil {
		return nil, fmt.Errorf("set-up boost %s/%s: %w", req.GraphID, req.Mode, err)
	}
	return res, nil
}

// saveScenarios runs warm-hit's saved queries once so that every timed
// boost is a result-cache hit: two budgets per prewarmed pool.
func (w *world) saveScenarios() error {
	for _, ss := range w.sets[dense] {
		for _, m := range modes {
			if !isPRR(m) && !w.simSet(ss) {
				continue
			}
			first := len(w.saved)
			for _, k := range w.scenarioKs(m) {
				req := w.poolReq(ss, m, k)
				res, err := w.boostResult(req)
				if err != nil {
					return err
				}
				w.saved = append(w.saved, scenario{req: req, set: res.BoostSet, first: first})
			}
		}
	}
	return nil
}

// prrKs are the PRR budgets boosts cycle through (nextPRRK) and the
// budgets warm-hit saves for every PRR pool, in the same order.
func (w *world) prrKs() []int {
	return []int{max(1, w.sz.kMax/6), max(1, w.sz.kMax/3), w.sz.kMax / 2, 2 * w.sz.kMax / 3}
}

func (w *world) scenarioKs(m string) []int {
	if isPRR(m) {
		return w.prrKs()
	}
	return []int{2, 4}
}

// calibrate runs the IC tier calibration on the dense graph, then finds
// knobs the calibrated profile serves at tier 1: the largest MaxError
// that maps to tier 1 when one exists (tier 0's calibrated error above
// it, tier 1's within it); otherwise an unreachable MaxError with the
// smallest latency cap that lets tier 1 through, which degrades the
// tier-2 choice to tier 1.
func (w *world) calibrate() error {
	ss := w.sets[dense][0]
	req := engine.EstimateRequest{GraphID: dense, Seeds: ss.seeds, Boost: w.graphTop(dense, 8, ss.seeds), MaxError: 0.01}
	if _, err := w.estimate(req); err != nil {
		return err
	}
	for _, e := range []float64{2, 1, 0.7, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1, 0.07, 0.05, 0.03, 0.02, 0.01} {
		req.MaxError = e
		res, err := w.estimate(req)
		if err != nil {
			return err
		}
		if res.Tier == 1 {
			w.tier1 = engine.EstimateRequest{MaxError: e}
			return nil
		}
	}
	req.MaxError = 1e-9
	for _, cap := range []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200} {
		req.MaxLatencyMS = cap
		res, err := w.estimate(req)
		if err != nil {
			return err
		}
		if res.Tier == 1 {
			w.tier1 = engine.EstimateRequest{MaxError: req.MaxError, MaxLatencyMS: cap}
			return nil
		}
	}
	return fmt.Errorf("set-up: no tier knobs map IC estimates on %s to tier 1", dense)
}

func (w *world) estimate(req engine.EstimateRequest) (engine.EstimateResult, error) {
	res, err := w.eng.Estimate(req)
	if err != nil {
		return res, fmt.Errorf("set-up estimate: %w", err)
	}
	return res, nil
}

// graphTop returns the k top-weight nodes of graph id that are not seeds.
func (w *world) graphTop(id string, k int, seeds []int32) []int32 {
	isSeed := map[int32]bool{}
	for _, s := range seeds {
		isSeed[s] = true
	}
	var out []int32
	for _, v := range dataset.InfluentialSeeds(w.graphs[id], k+len(seeds)) {
		if !isSeed[v] && len(out) < k {
			out = append(out, v)
		}
	}
	return out
}

// patchDeltas builds a forward/backward pair of reweight-only deltas
// over about frac of g's edges, skipping edges incident to a seed or a
// seed's out-neighbour (a delta there touches nearly every LT profile
// and would measure the fallback cliff, not the repair). Alternating
// the two keeps the graph's steady state.
func patchDeltas(g *graph.Graph, sets []seedSet, frac float64) (fwd, back *graph.EdgeDelta, err error) {
	hot := make([]bool, g.N())
	for _, ss := range sets {
		for _, s := range ss.seeds {
			hot[s] = true
			for _, v := range g.OutTo(s) {
				hot[v] = true
			}
		}
	}
	var cold []graph.Edge
	for _, e := range g.Edges() {
		if !hot[e.From] && !hot[e.To] {
			cold = append(cold, e)
		}
	}
	want := max(1, int(frac*float64(g.M())+0.5))
	if want > len(cold) {
		return nil, nil, fmt.Errorf("delta wants %d edges, only %d avoid the seed neighbourhoods", want, len(cold))
	}
	fwd, back = &graph.EdgeDelta{}, &graph.EdgeDelta{}
	for i := 0; i < want; i++ {
		e := cold[i*len(cold)/want]
		fwd.Reweight = append(fwd.Reweight, graph.Edge{From: e.From, To: e.To, P: e.P * 0.5, PBoost: e.PBoost * 0.5})
		back.Reweight = append(back.Reweight, e)
	}
	return fwd, back, nil
}
