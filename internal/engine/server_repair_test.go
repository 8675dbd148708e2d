package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/graph"
)

// newPatchServer starts an httptest server whose engine is also handed
// back, so tests can warm pools and read counters directly.
func newPatchServer(t *testing.T, opt ServerOptions) (*httptest.Server, *Engine) {
	t.Helper()
	if opt.AuthToken == "" {
		opt.AuthToken = testToken
	}
	// Fallback disabled: these tests exercise the patch/repair plumbing
	// end to end, and the small dense test graph would trip the
	// cost-weighted threshold at its default.
	e := New(Options{RepairFallbackFraction: 1})
	srv := httptest.NewServer(NewServer(e, opt))
	t.Cleanup(srv.Close)
	return srv, e
}

// deltaJSON renders d as the PATCH endpoint's JSON body.
func deltaJSON(t *testing.T, d *graph.EdgeDelta) []byte {
	t.Helper()
	j := edgeDeltaJSON{}
	for _, e := range d.Add {
		j.Add = append(j.Add, deltaEdgeJSON{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	for _, k := range d.Remove {
		j.Remove = append(j.Remove, deltaKeyJSON{From: k.From, To: k.To})
	}
	for _, e := range d.Reweight {
		j.Reweight = append(j.Reweight, deltaEdgeJSON{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	body, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// deltaBinary renders d in the KBD1 codec.
func deltaBinary(t *testing.T, d *graph.EdgeDelta) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteEdgeDelta(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGraphPatchEndToEnd: upload, warm both pool families, patch via
// JSON, prove the pools survived and serve the new version warm, patch
// again via the binary codec, and check the persisted snapshot tracked
// the patches.
func TestGraphPatchEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv, e := newPatchServer(t, ServerOptions{SnapshotDir: dir})

	g := testGraph(t)
	resp, body := doGraphReq(t, "POST", srv.URL+"/v1/graphs/prod", testToken, graphText(t, g))
	if resp.StatusCode != 201 {
		t.Fatalf("upload: %d %v", resp.StatusCode, body)
	}
	req := testRequest()
	req.GraphID = "prod"
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	ltReq := req
	ltReq.Mode = "lt"
	ltReq.Sims = 400
	if _, err := e.Boost(ltReq); err != nil {
		t.Fatal(err)
	}

	d := testDelta(t, g)
	resp, body = doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/prod/edges", testToken, deltaJSON(t, d))
	if resp.StatusCode != 200 {
		t.Fatalf("patch: %d %v", resp.StatusCode, body)
	}
	if body["version"] != float64(2) || body["pools_repaired"] != float64(2) {
		t.Fatalf("patch response: %v", body)
	}
	if body["added"] != float64(1) || body["removed"] != float64(1) || body["reweighted"] != float64(1) {
		t.Fatalf("patch delta shape: %v", body)
	}

	out, err := e.Boost(req)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || out.GraphVersion != 2 {
		t.Fatalf("post-patch boost: CacheHit=%v version=%d", out.CacheHit, out.GraphVersion)
	}
	st := e.Stats()
	if st.GraphPatches != 1 || st.RepairSkippedRebuilds != 2 {
		t.Fatalf("patch counters: %+v", st)
	}

	// Second patch through the binary codec.
	g2, _, err := g.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	d2 := testDelta(t, g2)
	resp, body = doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/prod/edges", testToken, deltaBinary(t, d2))
	if resp.StatusCode != 200 {
		t.Fatalf("binary patch: %d %v", resp.StatusCode, body)
	}
	if body["version"] != float64(3) {
		t.Fatalf("binary patch response: %v", body)
	}
	g3, _, err := g2.ApplyDelta(d2)
	if err != nil {
		t.Fatal(err)
	}

	// The persisted snapshot must be the patched graph: a rebooted
	// engine loads it at the patched edge count.
	e2 := New(Options{})
	if _, err := e2.LoadSnapshotDir(dir); err != nil {
		t.Fatal(err)
	}
	info, err := e2.GraphInfo("prod")
	if err != nil {
		t.Fatal(err)
	}
	if info.Edges != g3.M() || info.Nodes != g3.N() {
		t.Fatalf("persisted snapshot has %d nodes / %d edges, want %d / %d",
			info.Nodes, info.Edges, g3.N(), g3.M())
	}
}

// TestGraphPatchAuthAndErrors covers the endpoint's rejection paths.
func TestGraphPatchAuthAndErrors(t *testing.T) {
	srv, e := newPatchServer(t, ServerOptions{})
	g := testGraph(t)
	if err := e.RegisterGraph("prod", g); err != nil {
		t.Fatal(err)
	}
	d := testDelta(t, g)
	ok := deltaJSON(t, d)
	url := srv.URL + "/v1/graphs/prod/edges"

	if resp, _ := doGraphReq(t, "PATCH", url, "", ok); resp.StatusCode != 401 {
		t.Fatalf("missing token: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "PATCH", url, "wrong", ok); resp.StatusCode != 401 {
		t.Fatalf("bad token: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "POST", url, testToken, ok); resp.StatusCode != 405 {
		t.Fatalf("wrong method: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/nope/edges", testToken, ok); resp.StatusCode != 404 {
		t.Fatalf("unknown graph: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/b~d/edges", testToken, ok); resp.StatusCode != 400 {
		t.Fatalf("invalid name: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "PATCH", url, testToken, []byte("{nope")); resp.StatusCode != 400 {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	if resp, _ := doGraphReq(t, "PATCH", url, testToken, []byte(`{"frobnicate":1}`)); resp.StatusCode != 400 {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}
	bad := deltaJSON(t, &graph.EdgeDelta{Remove: []graph.EdgeKey{{From: 0, To: 0}}})
	if resp, _ := doGraphReq(t, "PATCH", url, testToken, bad); resp.StatusCode != 400 {
		t.Fatalf("invalid delta: %d", resp.StatusCode)
	}
	// A truncated binary delta must be a 400, not an install.
	trunc := deltaBinary(t, d)
	if resp, _ := doGraphReq(t, "PATCH", url, testToken, trunc[:len(trunc)-3]); resp.StatusCode != 400 {
		t.Fatalf("truncated binary delta accepted")
	}
	if v, _ := e.GraphVersion("prod"); v != 1 {
		t.Fatalf("failed patches bumped the version to %d", v)
	}

	// Disabled administration answers 403 before reading anything.
	srv2, e2 := newPatchServer(t, ServerOptions{AuthToken: ""})
	_ = e2
	if resp, _ := doGraphReq(t, "PATCH", srv2.URL+"/v1/graphs/prod/edges", "", ok); resp.StatusCode != 401 && resp.StatusCode != 403 {
		t.Fatalf("disabled admin: %d", resp.StatusCode)
	}
}

// TestGraphPatchStatsEndpoint: the five repair counters must surface in
// /v1/stats with their wire names.
func TestGraphPatchStatsEndpoint(t *testing.T) {
	srv, e := newPatchServer(t, ServerOptions{})
	g := testGraph(t)
	if err := e.RegisterGraph("prod", g); err != nil {
		t.Fatal(err)
	}
	req := testRequest()
	req.GraphID = "prod"
	if _, err := e.Boost(req); err != nil {
		t.Fatal(err)
	}
	resp, body := doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/prod/edges", testToken, deltaJSON(t, testDelta(t, g)))
	if resp.StatusCode != 200 {
		t.Fatalf("patch: %d %v", resp.StatusCode, body)
	}
	resp, stats := doGraphReq(t, "GET", srv.URL+"/v1/stats", "", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	for key, want := range map[string]float64{
		"graph_patches":            1,
		"repair_skipped_rebuilds":  1,
		"repair_fallback_rebuilds": 0,
		"repaired_profiles":        0,
	} {
		got, present := stats[key]
		if !present {
			t.Fatalf("stats missing %q: %v", key, stats)
		}
		if got != want {
			t.Fatalf("stats[%s] = %v, want %v", key, got, want)
		}
	}
	if rs, present := stats["repaired_sketches"]; !present || rs == float64(0) {
		t.Fatalf("repaired_sketches = %v (present=%v)", rs, present)
	}
	if fmt.Sprint(stats["graph_versions"]) == "" {
		t.Fatal("graph_versions missing")
	}
}

// TestShardPanicDuringRepair: a panic in a resampling shard while a
// PATCH repairs an lt pool must not take the server down. The repair
// returns the contained panic, the engine drops the pool instead of
// serving it half-repaired, and the next lt query rebuilds it cold on
// the patched graph.
func TestShardPanicDuringRepair(t *testing.T) {
	resetFaults(t)
	srv, _ := newPatchServer(t, ServerOptions{})
	g := testGraph(t)
	resp, body := doGraphReq(t, "POST", srv.URL+"/v1/graphs/prod", testToken, graphText(t, g))
	if resp.StatusCode != 201 {
		t.Fatalf("upload: %d %v", resp.StatusCode, body)
	}
	const boost = `{"graph":"prod","seeds":[0,20,40],"k":3,"seed":11,"workers":2,"mode":"lt","sims":400}`
	if resp, body := postJSON(t, srv.URL+"/v1/boost", boost); resp.StatusCode != 200 {
		t.Fatalf("warm-up boost: %d %v", resp.StatusCode, body)
	}

	faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: "panic", Count: 1})
	resp, body = doGraphReq(t, "PATCH", srv.URL+"/v1/graphs/prod/edges", testToken, deltaJSON(t, testDelta(t, g)))
	if faults.Enabled() {
		t.Fatal("the repair never reached a resampling shard")
	}
	if resp.StatusCode != 200 {
		t.Fatalf("patch: %d %v", resp.StatusCode, body)
	}
	if body["version"] != float64(2) || body["pools_repaired"] != float64(0) || body["pools_dropped"] != float64(1) {
		t.Fatalf("patch response %v, want version 2 with the lt pool dropped", body)
	}

	resp, body = postJSON(t, srv.URL+"/v1/boost", boost)
	if resp.StatusCode != 200 {
		t.Fatalf("boost after failed repair: %d %v", resp.StatusCode, body)
	}
	if body["cache_hit"] != false || body["graph_version"] != float64(2) || body["new_prr_graphs"] != float64(400) {
		t.Fatalf("boost after failed repair %v, want a cold rebuild of 400 profiles on version 2", body)
	}
	if code, _ := getStatus(t, srv.URL+"/v1/stats"); code != 200 {
		t.Fatalf("stats after failed repair: %d", code)
	}
}
