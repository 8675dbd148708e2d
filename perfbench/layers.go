package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit string
}

// layer groups a module's metrics with the prediction the benchmark
// records for them: which end-to-end metric each should move, and on
// which workload. The same table is in README.md.
type layer struct {
	name    string
	metrics []layerMetric
	moves   string
}

var layers = []layer{
	{"server", []layerMetric{{"server.self_ms", "ms"}, {"server.transport_ms", "ms"}, {"server.resp_bytes", "bytes"}, {"server.shed", "count"}},
		"latency_p50_ms, throughput_rps, cpu_ms_per_req on warm-hit"},
	{"engine", []layerMetric{{"engine.self_ms", "ms"}, {"engine.pool_hit_ratio", "ratio"}, {"engine.result_hit_ratio", "ratio"},
		{"engine.evictions", "count"}, {"engine.pool_mb", "MiB"}, {"engine.tier0_share", "ratio"}, {"engine.tier1_share", "ratio"},
		{"engine.tier2_share", "ratio"}, {"engine.repair_fallback_ratio", "ratio"}, {"engine.max_mode_busy_share", "ratio"}},
		"latency_p50_ms on warm-hit; mem_peak_mb, latency_p50_ms on cold-build; write_p50_ms, latency_tail_ms on live-patch"},
	{"core/imm", []layerMetric{{"core.sampling_ms", "ms"}, {"core.selection_ms", "ms"}, {"imm.samples_per_build", "count"}},
		"latency_p50_ms on cold-build (sampling) and what-if (selection)"},
	{"prr", []layerMetric{{"prr.gen_per_s", "1/s"}, {"prr.boostable_ratio", "ratio"}, {"prr.select_ms", "ms"},
		{"prr.repair_ms", "ms"}, {"prr.repaired_sketches", "count"}},
		"latency_p50_ms, throughput_rps on cold-build and what-if; write_p50_ms on live-patch"},
	{"maxcover", []layerMetric{{"maxcover.select_ms", "ms"}}, "throughput_rps on what-if"},
	{"lt", []layerMetric{{"lt.extend_ms", "ms"}, {"lt.select_ms", "ms"}, {"lt.select_alloc_mb", "MiB"}, {"lt.estimate_ms", "ms"},
		{"lt.repair_ms", "ms"}, {"lt.repaired_profiles", "count"}},
		"throughput_rps, latency_tail_ms, cpu_ms_per_req on what-if (select), cold-build (extend), live-patch (repair)"},
	{"sir/kthresh", []layerMetric{{"sir.select_ms", "ms"}, {"kthresh.select_ms", "ms"}, {"sir.extend_ms", "ms"}, {"kthresh.extend_ms", "ms"}},
		"throughput_rps on what-if; latency_tail_ms on live-patch (rebuild after drop)"},
	{"approx/diffusion", []layerMetric{{"approx.tier0_us", "us"}, {"diffusion.tier1_ms", "ms"}, {"diffusion.mc_ms", "ms"}},
		"latency_p50_ms on warm-hit (tier 0) and what-if (tiers 1 and 2)"},
	{"graph", []layerMetric{{"graph.apply_delta_ms", "ms"}}, "write_p50_ms on live-patch"},
	{"rrset", []layerMetric{{"rrset.select_ms", "ms"}, {"rrset.sets_per_s", "1/s"}}, "latency_p50_ms on cold-build"},
	{"runtime", []layerMetric{{"runtime.alloc_mb_per_req", "MiB"}, {"runtime.gc_cpu_frac", "ratio"}},
		"cpu_ms_per_req, latency_tail_ms on what-if"},
	{"tracing", []layerMetric{{"trace.overhead_p50_ms", "ms"}, {"trace.overhead_rps_pct", "%"}},
		"the cost of the client and server spans: traced minus untraced"},
}

// spanStats groups span durations (ms) by name.
func spanStats(tr *tracer) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], ms(s.dur()))
	}
	return out
}

// selfTimes returns, per request, each span's duration minus the
// durations of the same request's spans whose parent it is.
func selfTimes(tr *tracer, name string) []float64 {
	type key struct {
		req  int64
		name string
	}
	total := map[key]time.Duration{}
	children := map[key]time.Duration{}
	for _, s := range tr.spans {
		total[key{s.Req, s.Name}] += s.dur()
		if s.Parent != "" {
			children[key{s.Req, s.Parent}] += s.dur()
		}
	}
	var out []float64
	for k, d := range total {
		if k.name == name {
			out = append(out, ms(d-children[k]))
		}
	}
	return out
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics computes every per-layer metric; a layer the workload
// does not exercise reports 0.
func layerMetrics(pA, pB *phase, tr *tracer, h *harness, calls []record) map[string]metric {
	sp := spanStats(tr)
	v := map[string]float64{}
	meanSpan := func(name string) float64 { return mean(sp[name]) }

	v["server.self_ms"] = mean(selfTimes(tr, "server"))
	v["server.transport_ms"] = mean(selfTimes(tr, "client"))
	var bytes []float64
	for _, r := range pB.records {
		bytes = append(bytes, float64(r.bytes))
	}
	v["server.resp_bytes"] = mean(bytes)
	v["server.shed"] = float64(pA.after.RequestsShed - pA.before.RequestsShed + pB.after.RequestsShed - pB.before.RequestsShed)

	b, a := pB.before, pB.after
	v["engine.self_ms"] = mean(selfTimes(tr, "engine"))
	hits := a.PoolHits - b.PoolHits
	v["engine.pool_hit_ratio"] = ratio(hits, hits+a.PoolMisses-b.PoolMisses+a.PoolRebuilds-b.PoolRebuilds)
	v["engine.result_hit_ratio"] = ratio(a.ResultHits-b.ResultHits, a.BoostQueries-b.BoostQueries)
	v["engine.evictions"] = float64(a.Evictions - b.Evictions)
	v["engine.pool_mb"] = float64(a.PoolBytes) / (1 << 20)
	tiers := []int64{a.EstimateTier0 - b.EstimateTier0, a.EstimateTier1 - b.EstimateTier1, a.EstimateTier2 - b.EstimateTier2}
	for i, t := range tiers {
		v[fmt.Sprintf("engine.tier%d_share", i)] = ratio(t, tiers[0]+tiers[1]+tiers[2])
	}
	fb := a.RepairFallbackRebuilds - b.RepairFallbackRebuilds
	v["engine.repair_fallback_ratio"] = ratio(fb, fb+a.RepairSkippedRebuilds-b.RepairSkippedRebuilds)
	v["engine.max_mode_busy_share"] = maxModeShare(tr, calls)

	v["core.sampling_ms"] = meanSpan("core.sampling")
	v["core.selection_ms"] = meanSpan("core.selection")
	if h.n.builds > 0 {
		v["imm.samples_per_build"] = float64(h.n.buildSum) / float64(h.n.builds)
	}
	if h.n.prrSampleSecs > 0 {
		v["prr.gen_per_s"] = float64(h.n.prrSampled) / h.n.prrSampleSecs
	}
	v["prr.boostable_ratio"] = ratio(int64(h.n.boostable), int64(h.n.total))
	v["prr.select_ms"] = meanSpan("prr.select")
	v["prr.repair_ms"] = meanSpan("prr.repair")
	v["prr.repaired_sketches"] = float64(h.n.repairedSketches)
	v["maxcover.select_ms"] = meanSpan("maxcover.select")
	for _, m := range []string{"lt", "sir", "kthresh"} {
		v[m+".extend_ms"] = meanSpan(m + ".extend")
		v[m+".select_ms"] = meanSpan(m + ".select")
	}
	v["lt.select_alloc_mb"] = mean(h.n.ltAllocBytes) / (1 << 20)
	v["lt.estimate_ms"] = meanSpan("lt.estimate")
	v["lt.repair_ms"] = meanSpan("lt.repair")
	v["lt.repaired_profiles"] = float64(h.n.repairedProfiles)
	v["approx.tier0_us"] = meanSpan("approx.tier0") * 1000
	v["diffusion.tier1_ms"] = meanSpan("diffusion.tier1")
	v["diffusion.mc_ms"] = meanSpan("diffusion.mc")
	v["graph.apply_delta_ms"] = meanSpan("graph.apply_delta")
	v["rrset.select_ms"] = meanSpan("rrset.select")
	if h.n.rrSecs > 0 {
		v["rrset.sets_per_s"] = float64(h.n.rrSets) / h.n.rrSecs
	}

	done := max(len(flat(pA.reads))+len(flat(pA.writes)), 1)
	v["runtime.alloc_mb_per_req"] = float64(pA.allocBytes) / (1 << 20) / float64(done)
	v["runtime.gc_cpu_frac"] = pA.gcCPU

	v["trace.overhead_p50_ms"] = summarize(flat(pB.reads)).P50 - summarize(flat(pA.reads)).P50
	if rpsA := readRate(pA); rpsA > 0 {
		v["trace.overhead_rps_pct"] = 100 * (rpsA - readRate(pB)) / rpsA
	}

	out := map[string]metric{}
	for _, l := range layers {
		for _, m := range l.metrics {
			out[m.name] = metric{v[m.name], m.unit}
		}
	}
	return out
}

// readRate is completed reads per second over the window the reads
// spanned (a paced writer can keep a phase open after the reads end).
func readRate(p *phase) float64 {
	first, last := p.readSpan[0], p.readSpan[1]
	if !last.After(first) {
		return 0
	}
	return float64(len(flat(p.reads))) / last.Sub(first).Seconds()
}

// maxModeShare is the largest share of the engine replay's busy time
// one serving mode took (a call counts under its op's first mode, so an
// estimate following an lb boost counts as lb).
func maxModeShare(tr *tracer, calls []record) float64 {
	modeOf := map[int64]string{}
	for _, r := range calls {
		modeOf[r.id] = r.opMode
	}
	busy := map[string]float64{}
	var total float64
	for _, s := range tr.spans {
		if s.Name != "engine" {
			continue
		}
		d := ms(s.dur())
		busy[modeOf[s.Req]] += d
		total += d
	}
	var top float64
	for _, b := range busy {
		top = max(top, b)
	}
	if total == 0 {
		return 0
	}
	return top / total
}

// writeTable prints the per-layer table with the tracing overhead and
// the span dump's path.
func writeTable(log io.Writer, cfg config, m map[string]metric, spans string, setups []float64, bad []string) error {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 2, 2, ' ', 0)
	fmt.Fprintf(tw, "# per-layer metrics, workload %s, seed %d (span dump: %s)\n", cfg.workload, cfg.seed, spans)
	fmt.Fprintln(tw, "# layer\tmetric\tvalue\tunit\tshould move")
	for _, l := range layers {
		for i, lm := range l.metrics {
			moves := ""
			if i == 0 {
				moves = l.moves
			}
			fmt.Fprintf(tw, "# %s\t%s\t%.6g\t%s\t%s\n", l.name, lm.name, m[lm.name].Value, lm.unit, moves)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if _, err := io.WriteString(log, sb.String()); err != nil {
		return err
	}
	return writeLine(log, map[string]any{"traced_summary": map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "setup_runs_s": setups,
		"tracing_overhead_p50_ms":  m["trace.overhead_p50_ms"].Value,
		"tracing_overhead_rps_pct": m["trace.overhead_rps_pct"].Value,
		"invariant_violations":     bad,
	}})
}
