package main

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/kboost/kboost/internal/engine"
)

func TestSummarizeTailRule(t *testing.T) {
	ms := make([]float64, 100)
	for i := range ms {
		ms[len(ms)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	st := summarize(ms)
	if st.N != 100 || st.P50 != 50.5 {
		t.Fatalf("n=%d p50=%v, want 100 and 50.5", st.N, st.P50)
	}
	// The highest percentile with 10 samples beyond it: the 11th largest.
	if st.Tail != 90 || st.TailPc != 90 || st.Beyond != 10 {
		t.Fatalf("tail=%v at p%v with %d beyond, want 90 at p90 with 10", st.Tail, st.TailPc, st.Beyond)
	}
	beyond := 0
	for _, x := range ms {
		if x > st.Tail {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	st = summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if st.Tail != 1 || math.Abs(st.TailPc-100.0/11) > 1e-9 {
		t.Fatalf("11 samples: tail=%v at p%v, want 1 at p%.3f", st.Tail, st.TailPc, 100.0/11)
	}
	// Too few samples for any percentile with 10 beyond: report the median.
	st = summarize([]float64{3, 1, 2})
	if st.Tail != 2 || st.P50 != 2 || st.Beyond != 1 {
		t.Fatalf("3 samples: %+v", st)
	}

	// The reported latencies are medians over chunks: a tenth of the
	// samples each, between minChunk and maxChunk.
	for _, tc := range []struct{ n, chunks, size int }{
		{50, 1, 50}, {500, 5, 100}, {1500, 10, 150}, {25000, 25, 1000},
	} {
		parts := readChunks(make([]float64, tc.n))
		if len(parts) != tc.chunks || len(parts[0]) != tc.size {
			t.Fatalf("%d samples cut into %d chunks of %d, want %d of %d", tc.n, len(parts), len(parts[0]), tc.chunks, tc.size)
		}
	}
	xs := make([]float64, 2*maxChunk*10)
	for i := range xs {
		xs[i] = float64(i % maxChunk)
	}
	if st := chunkSummary(readChunks(xs)); st.N != maxChunk || st.Beyond != tailBeyond || st.TailPc != 99 {
		t.Fatalf("chunk summary %+v", st)
	}
}

// opString renders an op's requests for comparison.
func opString(t *testing.T, o op) string {
	t.Helper()
	b, err := json.Marshal([]any{o.idx, o.first.boost, o.first.est, o.first.seeds, o.first.patch, o.first.delta, o.follow})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func drain(t *testing.T, src source, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		o, ok := src.next()
		if !ok {
			t.Fatal("stream ended")
		}
		out = append(out, opString(t, o))
	}
	return out
}

func TestStreamsDeterministic(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			gen := func(seed uint64) (readers, writers []string) {
				w, err := setup(wl, tiny())
				if err != nil {
					t.Fatal(err)
				}
				r, wr := streams(w, seed)
				readers = drain(t, r, 40)
				if wr != nil {
					writers = drain(t, wr, 8)
				}
				return readers, writers
			}
			r1, w1 := gen(7)
			r2, w2 := gen(7)
			if strings.Join(r1, "\n") != strings.Join(r2, "\n") || strings.Join(w1, "\n") != strings.Join(w2, "\n") {
				t.Fatal("the same seed gave different requests")
			}
			r3, _ := gen(8)
			if strings.Join(r1, "\n") == strings.Join(r3, "\n") {
				t.Fatal("seeds 7 and 8 gave identical requests")
			}
		})
	}
}

// TestCheckerRejectsCorrupted takes real answers from the real server
// and corrupts them one way at a time; every corruption must fail.
func TestCheckerRejectsCorrupted(t *testing.T) {
	w, err := setup("warm-hit", tiny())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(engine.NewServer(w.eng, engine.ServerOptions{}))
	defer srv.Close()
	post := func(path string, body any) []byte {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(string(buf)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s %v", path, resp.StatusCode, data, err)
		}
		return data
	}
	var sc scenario
	for _, s := range w.saved {
		if s.req.Mode == "ic" && len(s.set) >= 2 {
			sc = s
			break
		}
	}
	bcall := call{boost: &sc.req}
	good := post("/v1/boost", sc.req)
	check := func(c call, data []byte) error {
		chk := newChecker(w)
		rec := record{c: c}
		return chk.check(&rec, nil, data, 0, map[string]uint64{})
	}
	if err := check(bcall, good); err != nil {
		t.Fatalf("genuine boost answer rejected: %v", err)
	}
	var a map[string]any
	if err := json.Unmarshal(good, &a); err != nil {
		t.Fatal(err)
	}
	set := a["boost_set"].([]any)
	corrupt := func(name string, edit func(m map[string]any)) {
		m := map[string]any{}
		for k, v := range a {
			m[k] = v
		}
		m["boost_set"] = append([]any(nil), set...)
		edit(m)
		data, _ := json.Marshal(m)
		if err := check(bcall, data); err == nil {
			t.Errorf("%s: corrupted boost answer accepted", name)
		}
	}
	corrupt("short set", func(m map[string]any) { m["boost_set"] = set[1:] })
	corrupt("duplicate node", func(m map[string]any) { m["boost_set"].([]any)[1] = set[0] })
	corrupt("seed in set", func(m map[string]any) { m["boost_set"].([]any)[0] = float64(sc.req.Seeds[0]) })
	corrupt("node out of range", func(m map[string]any) { m["boost_set"].([]any)[0] = float64(w.graphs[dense].N()) })
	corrupt("negative estimate", func(m map[string]any) { m["est_boost"] = -1.0 })
	corrupt("not result-cached", func(m map[string]any) { delete(m, "result_cached") })

	ecall := call{est: &engine.EstimateRequest{GraphID: dense, Seeds: sc.req.Seeds, Boost: sc.set, MaxLatencyMS: 0.001}}
	est := post("/v1/estimate", ecall.est)
	if err := check(ecall, est); err != nil {
		t.Fatalf("genuine estimate rejected: %v", err)
	}
	if err := check(ecall, []byte(`{"spread": -3, "boost": 1, "tier": 0}`)); err == nil {
		t.Error("negative spread accepted")
	}

	// Identical warm-hit requests must return identical bodies.
	chk := newChecker(w)
	for i, data := range [][]byte{good, append([]byte(" "), good...)} {
		rec := record{c: bcall}
		err := chk.check(&rec, []byte("same request"), data, 0, map[string]uint64{})
		if (err != nil) != (i == 1) {
			t.Fatalf("body %d: err=%v", i, err)
		}
	}

	// A read must not see a graph version older than an acknowledged patch.
	rec := record{c: bcall}
	if err := newChecker(w).check(&rec, nil, good, 99, map[string]uint64{}); err == nil {
		t.Error("stale graph_version accepted")
	}
}

// TestSmoke runs every workload at the tiny size, untraced and traced,
// and checks the result line against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, wl := range workloads {
		t.Run(wl, func(t *testing.T) {
			cfg := config{workload: wl, seed: 5, dur: 400 * time.Millisecond, spansDir: t.TempDir(), sz: tiny()}
			out, err := run(io.Discard, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("untraced: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if got := keys(out.Metrics); strings.Join(got, ",") != strings.Join(spec.EndToEnd, ",") {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json lists %v", got, spec.EndToEnd)
			}
			for name, m := range out.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want positive", name, m.Value)
				}
			}
			cfg.traced = true
			out, err = run(io.Discard, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("traced: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
			}
			if got := keys(out.Metrics); strings.Join(got, ",") != strings.Join(spec.PerLayer, ",") {
				t.Fatalf("per-layer metrics %v, BENCHMARK.json lists %v", got, spec.PerLayer)
			}
			if _, err := os.Stat(cfg.spansDir); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPatchesBetweenReads runs live-patch with two readers and checks
// the write gate: PATCH w starts once exactly writeEvery*w reader ops
// have started, all of them completed, and no read overlaps a PATCH.
func TestPatchesBetweenReads(t *testing.T) {
	w, err := setup("live-patch", tiny())
	if err != nil {
		t.Fatal(err)
	}
	readers, writer := streams(w, 3)
	d := &loadGen{w: w, clients: 3, chk: newChecker(w), keep: true}
	p, err := d.run(readers, writer, time.Now().Add(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.patches == 0 {
		t.Fatalf("failed=%d patches=%d: %v", p.failed, p.patches, p.fails)
	}
	// Each reader op's first start and last end.
	type span struct{ start, end time.Time }
	ops := map[int]span{}
	for _, r := range p.records {
		if r.write() {
			continue
		}
		s, ok := ops[r.op]
		if !ok || r.start.Before(s.start) {
			s.start = r.start
		}
		if r.end.After(s.end) {
			s.end = r.end
		}
		ops[r.op] = s
	}
	for _, r := range p.records {
		if !r.write() {
			continue
		}
		before := 0
		for i, s := range ops {
			if s.start.Before(r.end) && s.end.After(r.start) {
				t.Fatalf("reader op %d overlaps PATCH %d", i, r.op)
			}
			if s.start.Before(r.start) {
				before++
			}
		}
		if want := (r.op + 1) * w.sz.writeEvery; before != want {
			t.Fatalf("PATCH %d started after %d reader ops, want %d", r.op, before, want)
		}
	}
}

type benchSpec struct {
	EndToEnd, PerLayer []string
}

// readSpec reads the metric names BENCHMARK.json declares, sorted.
func readSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	for _, m := range raw.EndToEnd {
		s.EndToEnd = append(s.EndToEnd, m.Name)
	}
	for _, m := range raw.PerLayer {
		s.PerLayer = append(s.PerLayer, m.Name)
	}
	sort.Strings(s.EndToEnd)
	sort.Strings(s.PerLayer)
	return s
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
