package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReplay = flag.Bool("update-replay", false, "rewrite testdata/replay.golden from the current engine")

// replayStep is one scripted HTTP request of the golden session.
type replayStep struct {
	method, path, body string
}

// replayScript drives every serving mode through one engine: cold
// builds, result-cache hits, a k-growth PRR rebuild, a sizing growth, a
// sims extension, lazy and tiered estimates, a PATCH that repairs some
// pools and drops others, the queries after it, and the final counters.
// Workers and seeds are fixed so every answer is deterministic.
var replayScript = []replayStep{
	// ic: cold, result hit, k-growth rebuild, sizing growth, prefilter.
	{"POST", "/v1/boost", `{"graph":"g","seeds":[40,0,20],"k":3,"seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":5,"seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":6000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":6000,"prefilter":10}`},
	// lb, and ic under a content modifier.
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lb","seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":3000,"content":{"virality":1.5,"credibility":0.8}}`},
	// lt: cold, sims extension, result hit, prefilter.
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lt","seed":5,"workers":2,"sims":400}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lt","seed":5,"workers":2,"sims":700}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lt","seed":5,"workers":2,"sims":700}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":2,"mode":"lt","seed":5,"workers":2,"sims":700,"prefilter":8}`},
	// sir and kthresh with their knobs; sir again under content.
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"sir","recovery":0.6,"seed":5,"workers":2,"sims":300}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"kthresh","threshold":2,"seed":5,"workers":2,"sims":300}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"sir","seed":5,"workers":2,"sims":300,"content":{"virality":1.2}}`},
	// Estimates: lazy sim reuse, knobless IC, max_error (calibrates), and
	// max_latency_ms on (graph, mode) pairs no calibration exists for.
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"lt","workers":2}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"kthresh","threshold":2,"workers":2}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"sims":2000,"seed":3,"workers":2}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"sims":2000,"seed":3,"workers":2,"max_error":0.5}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"sims":2000,"seed":3,"workers":2,"max_error":0.5}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"lt","seed":3,"workers":2,"max_latency_ms":1000}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"sir","recovery":0.6,"seed":3,"workers":2,"max_latency_ms":1000}`},
	// The patch repairs ic, lb and lt in place and drops sir, kthresh
	// and the content-derived pools.
	{"PATCH", "/v1/graphs/g/edges", `{"remove":[{"from":7,"to":8}],"reweight":[{"from":9,"to":10,"p":0.25,"p_boost":0.45}]}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lb","seed":11,"workers":2,"max_samples":3000}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"lt","seed":5,"workers":2,"sims":700}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"mode":"sir","recovery":0.6,"seed":5,"workers":2,"sims":300}`},
	{"POST", "/v1/boost", `{"graph":"g","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"max_samples":3000,"content":{"virality":1.5,"credibility":0.8}}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"lt","workers":2}`},
	{"POST", "/v1/estimate", `{"graph":"g","seeds":[0,20,40],"boost":[1,2,3],"mode":"kthresh","threshold":2,"workers":2,"sims":300}`},
	{"GET", "/v1/stats", ""},
}

// replayVolatile are the wall-clock fields zeroed before comparison.
var replayVolatile = []string{"sampling_ms", "selection_ms", "uptime_seconds"}

// TestGoldenReplay runs the scripted session through NewServer and
// compares every status and response body, byte for byte, against
// testdata/replay.golden. Run with -update-replay to rewrite the golden
// after an intended behaviour change.
func TestGoldenReplay(t *testing.T) {
	e := New(Options{Workers: 2, RepairFallbackFraction: 1})
	if err := e.RegisterGraph("g", testGraph(t)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(e, ServerOptions{MaxWorkers: 2, AuthToken: "replay"})
	var out bytes.Buffer
	for i, st := range replayScript {
		req := httptest.NewRequest(st.method, st.path, strings.NewReader(st.body))
		req.Header.Set("Authorization", "Bearer replay")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("step %d: decoding %q: %v", i, rec.Body.String(), err)
		}
		if rec.Code != http.StatusOK {
			t.Errorf("step %d: %s %s: status %d: %v", i, st.method, st.path, rec.Code, body["error"])
		}
		for _, f := range replayVolatile {
			if _, ok := body[f]; ok {
				body[f] = 0
			}
		}
		canon, err := json.MarshalIndent(body, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "### %d %s %s %s\n%d\n%s\n", i, st.method, st.path, st.body, rec.Code, canon)
	}

	golden := filepath.Join("testdata", "replay.golden")
	if *updateReplay {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-replay to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(wantLines); i++ {
			if got[i] != wantLines[i] {
				t.Fatalf("replay differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("replay differs from %s in length: %d lines, want %d", golden, len(got), len(wantLines))
	}
}
