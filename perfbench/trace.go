package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/rrset"
)

// span is one timed interval of one request. Spans of a request share
// its id; parent names the enclosing span ("" for the client's).
type span struct {
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(req int64, name, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(req int64, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(req, name, parent, start, end)
	return end.Sub(start)
}

// runTraced is the per-layer run. It prepares three identical worlds
// and plays the same requests four ways:
//
//	A: untraced over HTTP for a quarter of the run (the overhead baseline);
//	B: the ops A completed, again over HTTP, with client and server spans;
//	C: B's calls, in B's completion order, straight into the Engine
//	   (engine spans);
//	D: the same calls as direct timed calls into the layer packages, on
//	   the same graphs, pools and inputs (layer spans).
//
// Self time of a layer is its span minus its children's spans of the
// same request; the replays run one after another, not nested in time.
func runTraced(log io.Writer, cfg config) (*output, error) {
	var setups []float64
	prepare := func() (*world, error) {
		runtime.GC()
		t0 := time.Now()
		w, err := setup(cfg.workload, cfg.sz)
		setups = append(setups, time.Since(t0).Seconds())
		return w, err
	}
	clients := workers()

	wA, err := prepare()
	if err != nil {
		return nil, err
	}
	readers, writer := streams(wA, cfg.seed)
	dA := &loadGen{w: wA, clients: clients, chk: newChecker(wA), keep: true}
	pA, err := dA.run(readers, writer, time.Now().Add(cfg.dur/4))
	if err != nil {
		return nil, err
	}
	bad := invariants(cfg.workload, pA)
	wA, dA = nil, nil

	wB, err := prepare()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	dB := &loadGen{w: wB, clients: clients, tr: tr, chk: newChecker(wB), keep: true}
	var wlist source
	if writer != nil {
		wlist = &list{ops: pA.writerOps}
	}
	pB, err := dB.run(&list{ops: pA.ops}, wlist, time.Time{})
	if err != nil {
		return nil, err
	}
	bad = append(bad, invariants(cfg.workload, pB)...)
	wB, dB = nil, nil

	wC, err := prepare()
	if err != nil {
		return nil, err
	}
	var calls []record
	for _, r := range pB.records {
		if r.fail == "" {
			calls = append(calls, r)
		}
	}
	results := replayEngine(wC.eng, tr, calls)
	graphs := wC.graphs
	wC = nil
	runtime.GC()

	h := newHarness(cfg, graphs, tr)
	if err := h.replay(calls, results); err != nil {
		return nil, err
	}

	failed, attempted := pA.failed+pB.failed, pA.sent+pB.sent
	m := layerMetrics(pA, pB, tr, h, calls)
	path, err := dumpSpans(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := writeTable(log, cfg, m, path, setups, bad); err != nil {
		return nil, err
	}
	return &output{Correct: failed == 0 && len(bad) == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// engineResult is what the engine replay returned for one call.
type engineResult struct {
	boost  *engine.BoostResult
	est    *engine.EstimateResult
	repair *engine.RepairResult
	seeds  int // RR-sets sampled
}

// replayEngine issues calls straight into the engine, one span each.
func replayEngine(eng *engine.Engine, tr *tracer, calls []record) map[int64]engineResult {
	ctx := context.Background()
	out := make(map[int64]engineResult, len(calls))
	for _, r := range calls {
		var res engineResult
		var err error
		tr.timed(r.id, "engine", "server", func() {
			switch c := r.c; {
			case c.boost != nil:
				res.boost, err = eng.BoostContext(ctx, *c.boost)
			case c.est != nil:
				var e engine.EstimateResult
				e, err = eng.EstimateContext(ctx, *c.est)
				res.est = &e
			case c.seeds != nil:
				var s rrset.Result
				s, err = eng.SelectSeedsContext(ctx, *c.seeds)
				res.seeds = s.Samples
			default:
				var rr engine.RepairResult
				rr, err = eng.RepairGraphContext(ctx, c.patch, c.delta)
				res.repair = &rr
			}
		})
		if err == nil {
			out[r.id] = res
		}
	}
	return out
}

// dumpSpans writes every span as one JSON line and returns the path.
func dumpSpans(cfg config, tr *tracer) (string, error) {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
