package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"

	"github.com/kboost/kboost/internal/dataset"
	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
)

var workloads = []string{"warm-hit", "what-if", "cold-build", "live-patch"}

// call is one HTTP request of an op.
type call struct {
	boost *engine.BoostRequest
	est   *engine.EstimateRequest
	seeds *engine.SeedsRequest
	patch string // graph id of a PATCH; the delta to apply is delta
	delta *graph.EdgeDelta
}

func (c call) kind() string {
	switch {
	case c.boost != nil:
		return "boost"
	case c.est != nil:
		return "estimate"
	case c.seeds != nil:
		return "seeds"
	}
	return "patch"
}

// mode is the serving mode a call runs under ("seeds" and "patch" for
// the calls that have none).
func (c call) mode() string {
	switch {
	case c.boost != nil:
		return canonMode(c.boost.Mode)
	case c.est != nil:
		return canonMode(c.est.Mode)
	}
	return c.kind()
}

func canonMode(m string) string {
	if m == "" {
		return "ic"
	}
	return m
}

// op is one unit of closed-loop work: a first call, and for a boost the
// estimates of its answer that follow it (their Boost is filled in from
// the boost response).
type op struct {
	idx    int
	first  call
	follow []engine.EstimateRequest
}

// source hands out ops. Streams are generated in order under a lock, so
// op i is the same for the same seed however fast the clients drain it.
type source interface {
	next() (op, bool)
}

// stream is an unbounded seeded op sequence.
type stream struct {
	mu  sync.Mutex
	n   int
	gen func(i int) op
}

func (s *stream) next() (op, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.gen(s.n)
	o.idx = s.n
	s.n++
	return o, true
}

// list replays a fixed op sequence once.
type list struct {
	mu  sync.Mutex
	ops []op
	n   int
}

func (l *list) next() (op, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.n == len(l.ops) {
		return op{}, false
	}
	l.n++
	return l.ops[l.n-1], true
}

// generator draws one workload's ops. used records every (pool, key)
// what-if has asked and every seed set cold-build has named, so neither
// ever repeats one.
type generator struct {
	w    *world
	r    *rand.Rand
	used map[string]bool
	prr  int // PRR boosts drawn so far; their k cycles (nextPRRK)
}

// streams returns the reader stream and, on live-patch, the writer's.
func streams(w *world, seed uint64) (readers, writer source) {
	g := &generator{w: w, r: rand.New(rand.NewPCG(seed, 0x0b5)), used: map[string]bool{}}
	switch w.wl {
	case "warm-hit":
		readers = &stream{gen: g.warmHit}
	case "what-if":
		readers = &stream{gen: g.whatIf}
	case "cold-build":
		readers = &stream{gen: g.coldBuild}
	case "live-patch":
		readers = &stream{gen: g.livePatchRead}
		writer = &stream{gen: g.livePatchWrite}
	default:
		panic(fmt.Sprintf("unknown workload %q", w.wl))
	}
	return readers, writer
}

// pick draws an index by weight.
func (g *generator) pick(weights []int) int {
	total := 0
	for _, x := range weights {
		total += x
	}
	x := g.r.IntN(total)
	for i, wt := range weights {
		if x < wt {
			return i
		}
		x -= wt
	}
	return len(weights) - 1
}

// nextPRRIdx advances the cycle of PRR budgets and returns the next
// one's position in world.prrKs. Cycling gives the boost sets
// boost_gain scores the same k mix on every seed.
func (g *generator) nextPRRIdx() int {
	i := g.prr % len(g.w.prrKs())
	g.prr++
	return i
}

func (g *generator) nextPRRK() int { return g.w.prrKs()[g.nextPRRIdx()] }

// warmHit: 70% boosts repeating a saved (result-cached) query, 30%
// estimates of a saved answer forced to tier 0 by a tiny latency cap
// (modes ic and lt have a closed form).
func (g *generator) warmHit(int) op {
	sc := g.w.saved[g.r.IntN(len(g.w.saved))]
	if g.r.IntN(10) < 7 {
		if isPRR(sc.req.Mode) {
			sc = g.w.saved[sc.first+g.nextPRRIdx()] // same pool, budget from the cycle
		}
		req := sc.req
		return op{first: call{boost: &req}}
	}
	m := "ic"
	if !isPRR(sc.req.Mode) {
		m = "lt"
	}
	return op{first: call{est: &engine.EstimateRequest{GraphID: sc.req.GraphID, Seeds: sc.req.Seeds,
		Boost: sc.set, Mode: m, MaxLatencyMS: 0.001}}}
}

// whatIfWeights balance the modes' busy time: a simulation-mode
// selection costs ~100x a PRR one.
var whatIfWeights = []int{30, 24, 6, 6, 3} // ic, lb, lt, sir, kthresh

// whatIf: a boost on a prewarmed pool with a (k, cand_cap, prefilter)
// key never asked on that pool, then estimates of the answer — tier 0
// and IC tier 1 (max_error) after ic, tier 0 and a fresh IC Monte-Carlo
// after lb, and an estimate on the same simulation pool after
// lt/sir/kthresh.
func (g *generator) whatIf(int) op {
	for {
		m := modes[g.pick(whatIfWeights)]
		sets := g.w.setsFor(dense, m)
		ss := sets[g.r.IntN(len(sets))]
		req := g.w.poolReq(ss, m, 0)
		var key string
		if isPRR(m) {
			req.K = g.nextPRRK()
			if g.r.IntN(2) == 0 && ss.maxPre > req.K {
				req.Prefilter = req.K + g.r.IntN(ss.maxPre-req.K+1)
			}
			key = fmt.Sprintf("%s|%v|%d|%d", m, ss.seeds, req.K, req.Prefilter)
			if g.used[key] {
				g.prr-- // keep the k cycle in step
				continue
			}
		} else {
			req.K = 1 + g.r.IntN(4)
			req.CandCap = req.K + g.r.IntN(40)
			key = fmt.Sprintf("%s|%v|%d|%d", m, ss.seeds, req.K, req.CandCap)
			if g.used[key] {
				continue
			}
		}
		g.used[key] = true
		if !isPRR(m) {
			return op{first: call{boost: &req}, follow: []engine.EstimateRequest{{GraphID: dense, Seeds: ss.seeds, Mode: m}}}
		}
		// A PRR answer gets a tier-0 estimate first, so reads are not split
		// evenly between cheap and expensive calls: a median sitting on
		// that boundary would swing with the mix.
		tier0 := engine.EstimateRequest{GraphID: dense, Seeds: ss.seeds, MaxLatencyMS: 0.001}
		est := engine.EstimateRequest{GraphID: dense, Seeds: ss.seeds}
		if m == "ic" {
			est.MaxError, est.MaxLatencyMS = g.w.tier1.MaxError, g.w.tier1.MaxLatencyMS
		} else {
			est.Sims, est.Seed = g.w.sz.tier2Sims, uint64(1+g.r.IntN(1000))
		}
		return op{first: call{boost: &req}, follow: []engine.EstimateRequest{tier0, est}}
	}
}

var coldWeights = []int{30, 25, 15, 7, 8, 15} // ic, lb, lt, sir, kthresh, seeds

// coldBuild: every boost names a seed set never named before, so every
// boost builds a pool; IMM seed selections are mixed in.
func (g *generator) coldBuild(int) op {
	i := g.pick(coldWeights)
	if i == len(modes) {
		return op{first: call{seeds: &engine.SeedsRequest{GraphID: dense, K: g.w.sz.seedSize,
			Seed: uint64(1 + g.r.IntN(1<<20)), MaxSamples: g.w.sz.prrSamples}}}
	}
	m := modes[i]
	top := dataset.InfluentialSeeds(g.w.graphs[dense], g.w.sz.seedPool)
	var seeds []int32
	for {
		seeds = drawSeeds(g.r, top, g.w.sz.seedSize)
		key := fmt.Sprintf("%v", seeds)
		if !g.used[key] {
			g.used[key] = true
			break
		}
	}
	req := engine.BoostRequest{GraphID: dense, Seeds: seeds, Mode: m, Seed: 1}
	if isPRR(m) {
		req.K, req.MaxSamples = g.nextPRRK(), g.w.sz.prrSamples
	} else {
		req.K, req.Sims = 1+g.r.IntN(4), g.w.sz.coldSims[m]
	}
	return op{first: call{boost: &req}}
}

// livePatchRead: what-if-style reads on both patched graphs — PRR boosts
// on the dense graph, LT/SIR boosts plus an estimate on the same pool on
// the sparse one. No pool-free tier-0 estimates: a patch does not change
// their work, and as a quarter of the reads they put the read median on
// the gap between the sub-millisecond estimates and the boosts.
func (g *generator) livePatchRead(int) op {
	switch g.pick([]int{35, 40}) {
	case 0: // PRR boost on the dense graph
		// One budget for every read, so a pool is rebuilt only after a
		// patch drops it, never because a later read asks a larger k; the
		// keys still vary through the prefilter.
		ss := g.w.sets[dense][g.r.IntN(len(g.w.sets[dense]))]
		req := g.w.poolReq(ss, []string{"ic", "lb"}[g.r.IntN(2)], g.w.sz.kMax/2)
		if g.r.IntN(2) == 0 && ss.maxPre > req.K {
			req.Prefilter = req.K + g.r.IntN(ss.maxPre-req.K+1)
		}
		return op{first: call{boost: &req}}
	default: // LT or SIR boost on the sparse graph, then an estimate on its pool
		m := []string{"lt", "sir"}[g.r.IntN(2)]
		ss := g.w.sets[sparse][g.r.IntN(len(g.w.sets[sparse]))]
		req := g.w.poolReq(ss, m, 1+g.r.IntN(4))
		req.CandCap = req.K + g.r.IntN(40)
		return op{first: call{boost: &req},
			follow: []engine.EstimateRequest{{GraphID: sparse, Seeds: ss.seeds, Mode: m}}}
	}
}

// livePatchWrite patches the dense graph twice (its forward delta, then
// the inverse), then the sparse graph once, alternating the sparse
// graph's deltas the same way. Writes to the two graphs cost
// differently; an even split would put the write median on the boundary
// between them.
func (g *generator) livePatchWrite(i int) op {
	if r := i % 3; r < 2 {
		return op{first: call{patch: dense, delta: g.w.deltas[dense][r]}}
	}
	return op{first: call{patch: sparse, delta: g.w.deltas[sparse][(i/3)%2]}}
}

// gcEvery collects garbage before every n-th op it hands out, between
// two requests, so no request of a back-to-back probe pays for garbage
// earlier requests (or the timed phase) left behind. One client only.
type gcEvery struct {
	source
	n, i int
}

func (g *gcEvery) next() (op, bool) {
	if g.i%g.n == 0 {
		runtime.GC()
	}
	g.i++
	return g.source.next()
}

// probeOps are the post-phase write probe: n patches of the pool-free
// probe graph, alternating its forward and backward delta.
func probeOps(w *world, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{idx: i, first: call{patch: probe, delta: w.deltas[probe][i%2]}}
	}
	return ops
}

// sortedCopy returns s sorted.
func sortedCopy(s []int32) []int32 {
	out := append([]int32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
