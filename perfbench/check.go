package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"github.com/kboost/kboost/internal/engine"
)

// boostAnswer is the part of a /v1/boost response the checks read.
type boostAnswer struct {
	BoostSet     []int32 `json:"boost_set"`
	EstBoost     float64 `json:"est_boost"`
	CacheHit     bool    `json:"cache_hit"`
	ResultCached bool    `json:"result_cached"`
	NewSamples   int     `json:"new_prr_graphs"`
	GraphVersion uint64  `json:"graph_version"`
}

type seedsAnswer struct {
	Seeds        []int32 `json:"seeds"`
	EstInfluence float64 `json:"est_influence"`
}

// checker validates every answer of a phase. Its state is shared by the
// clients: the highest acknowledged patch version per graph, and on
// warm-hit the first body seen for each distinct request.
type checker struct {
	wl    string
	nodes map[string]int

	mu     sync.Mutex
	ack    map[string]uint64
	bodies map[string][]byte
}

func newChecker(w *world) *checker {
	c := &checker{wl: w.wl, nodes: map[string]int{}, ack: map[string]uint64{}, bodies: map[string][]byte{}}
	for id, g := range w.graphs {
		c.nodes[id] = g.N()
	}
	return c
}

// acked is the version a read of cl's graph must at least see: the last
// patch of that graph acknowledged before the read was sent.
func (c *checker) acked(cl call) uint64 {
	if cl.boost == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ack[cl.boost.GraphID]
}

// check validates one successful response. reqBody is the request's
// JSON (warm-hit compares bodies of identical requests); last is the
// calling client's highest seen version per graph.
func (c *checker) check(rec *record, reqBody, data []byte, ackedAtSend uint64, last map[string]uint64) error {
	cl := rec.c
	switch {
	case cl.boost != nil:
		var a boostAnswer
		if err := json.Unmarshal(data, &a); err != nil {
			return fmt.Errorf("boost: %w", err)
		}
		rec.boost = &a
		if err := checkBoostSet(a.BoostSet, cl.boost.K, c.nodes[cl.boost.GraphID], cl.boost.Seeds, !isPRR(cl.mode())); err != nil {
			return err
		}
		if err := checkFinite("est_boost", a.EstBoost); err != nil {
			return err
		}
		if a.GraphVersion < ackedAtSend {
			return fmt.Errorf("boost on %s saw version %d after patch version %d was acknowledged", cl.boost.GraphID, a.GraphVersion, ackedAtSend)
		}
		if a.GraphVersion < last[cl.boost.GraphID] {
			return fmt.Errorf("graph_version of %s went back from %d to %d", cl.boost.GraphID, last[cl.boost.GraphID], a.GraphVersion)
		}
		last[cl.boost.GraphID] = a.GraphVersion
		switch c.wl {
		case "warm-hit":
			if !a.ResultCached {
				return fmt.Errorf("warm-hit boost was not result-cached")
			}
		case "what-if":
			if a.ResultCached || a.NewSamples != 0 {
				return fmt.Errorf("what-if boost: result_cached=%v new samples %d, want a fresh selection on a warm pool", a.ResultCached, a.NewSamples)
			}
		case "cold-build":
			if a.CacheHit {
				return fmt.Errorf("cold-build boost hit a cached pool")
			}
		}
	case cl.est != nil:
		var e engine.EstimateResult
		if err := json.Unmarshal(data, &e); err != nil {
			return fmt.Errorf("estimate: %w", err)
		}
		if err := checkEstimate(e); err != nil {
			return err
		}
	case cl.seeds != nil:
		var s seedsAnswer
		if err := json.Unmarshal(data, &s); err != nil {
			return fmt.Errorf("seeds: %w", err)
		}
		if err := checkBoostSet(s.Seeds, cl.seeds.K, c.nodes[cl.seeds.GraphID], nil, false); err != nil {
			return fmt.Errorf("seeds: %w", err)
		}
		if err := checkFinite("est_influence", s.EstInfluence); err != nil {
			return err
		}
	default:
		var r engine.RepairResult
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("patch: %w", err)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if r.Version <= c.ack[cl.patch] {
			return fmt.Errorf("patch of %s returned version %d, not above %d", cl.patch, r.Version, c.ack[cl.patch])
		}
		c.ack[cl.patch] = r.Version
		return nil
	}
	if c.wl == "warm-hit" {
		c.mu.Lock()
		defer c.mu.Unlock()
		key := rec.c.kind() + string(reqBody)
		if prev, ok := c.bodies[key]; !ok {
			c.bodies[key] = data
		} else if !bytes.Equal(prev, data) {
			return fmt.Errorf("identical warm-hit %s requests returned different bodies", rec.c.kind())
		}
	}
	return nil
}

// checkBoostSet: k distinct in-range nodes, none of them a seed. The
// simulation modes' greedy documents an early stop once no candidate
// adds activations, so upTo accepts fewer than k there; the PRR modes
// pad to exactly k.
func checkBoostSet(set []int32, k, n int, seeds []int32, upTo bool) error {
	if len(set) > k || (!upTo && len(set) != k) {
		return fmt.Errorf("got %d nodes, want k=%d", len(set), k)
	}
	seen := make(map[int32]bool, len(set)+len(seeds))
	for _, s := range seeds {
		seen[s] = true
	}
	for _, v := range set {
		if v < 0 || int(v) >= n {
			return fmt.Errorf("node %d out of range [0,%d)", v, n)
		}
		if seen[v] {
			return fmt.Errorf("node %d repeated or a seed", v)
		}
		seen[v] = true
	}
	return nil
}

func checkFinite(name string, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		return fmt.Errorf("%s = %v, want finite and >= 0", name, x)
	}
	return nil
}

func checkEstimate(e engine.EstimateResult) error {
	if err := checkFinite("spread", e.Spread); err != nil {
		return err
	}
	return checkFinite("boost", e.Boost)
}

// invariants checks a phase's engine counter deltas against what the
// workload promises; each violated invariant is one message.
func invariants(wl string, p *phase) []string {
	b, a := p.before, p.after
	var bad []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	profiles := func(s engine.Stats) (n int64) {
		for _, m := range s.SimModes {
			n += m.Profiles
		}
		return n
	}
	boosts, patches := p.boosts, p.patches
	switch wl {
	case "warm-hit", "what-if":
		expect(a.PRRGenerated == b.PRRGenerated, "%s generated %d PRR graphs", wl, a.PRRGenerated-b.PRRGenerated)
		expect(profiles(a) == profiles(b), "%s generated %d simulation profiles", wl, profiles(a)-profiles(b))
		expect(a.PoolMisses == b.PoolMisses, "%s had %d pool misses", wl, a.PoolMisses-b.PoolMisses)
		if wl == "warm-hit" {
			expect(a.ResultHits-b.ResultHits == int64(boosts), "warm-hit: %d result hits for %d boosts", a.ResultHits-b.ResultHits, boosts)
		} else {
			expect(a.ResultHits == b.ResultHits, "what-if had %d result hits", a.ResultHits-b.ResultHits)
		}
	case "cold-build":
		expect(a.PoolHits == b.PoolHits, "cold-build had %d pool hits", a.PoolHits-b.PoolHits)
		expect(a.ResultHits == b.ResultHits, "cold-build had %d result hits", a.ResultHits-b.ResultHits)
	case "live-patch":
		expect(a.GraphPatches-b.GraphPatches == int64(patches), "live-patch: %d graph patches for %d acknowledged PATCHes", a.GraphPatches-b.GraphPatches, patches)
	}
	return bad
}
