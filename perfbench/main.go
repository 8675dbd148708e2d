// Command perfbench is kboost's end-to-end serving benchmark: a
// single-process, closed-loop load generator that runs the real
// engine.Server on a loopback listener, sends seed-generated request
// streams from one client per CPU (each with one keep-alive
// connection), checks every answer, and prints the end-to-end metrics
// of one workload — or, with --trace 1, the per-layer breakdown. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	wl := flag.String("workload", "", "workload: warm-hit, what-if, cold-build or live-patch")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 10, "length of the measurement")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	spans := flag.String("spans", ".bench_build/spans", "directory the traced run writes its span dump to")
	flag.Parse()
	known := false
	for _, w := range workloads {
		known = known || w == *wl
	}
	if !known || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloads)
		os.Exit(2)
	}
	cfg := config{workload: *wl, seed: *seed, dur: time.Duration(*secs * float64(time.Second)),
		traced: *trace == 1, spansDir: *spans, sz: full()}
	out, err := run(os.Stdout, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	spansDir string
	sz       sizes
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line, the last line of standard output.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRuns is how many times a run at least prepares a world; setup_s
// is the median. A traced run uses three (untraced phase, traced phase,
// engine replay). An untraced run repeats set-up until the repetitions
// took setupMin in all (at most setupMax of them), so a set-up of a few
// milliseconds is still the median of many, and measures on the last.
const (
	setupRuns = 3
	setupMax  = 50
	setupMin  = time.Second
)

// run performs one benchmark run, writing the environment header and a
// summary line to log, and returns the result line.
func run(log io.Writer, cfg config) (*output, error) {
	env := environment(cfg)
	if err := writeLine(log, map[string]any{"env": env}); err != nil {
		return nil, err
	}
	if cfg.traced {
		return runTraced(log, cfg)
	}
	var w *world
	var setups []float64
	start := time.Now()
	for i := 0; i < setupRuns || (time.Since(start) < setupMin && i < setupMax); i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = setup(cfg.workload, cfg.sz); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	readers, writer := streams(w, cfg.seed)
	d := &loadGen{w: w, clients: workers(), chk: newChecker(w)}
	p, err := d.run(readers, writer, time.Now().Add(cfg.dur))
	if err != nil {
		return nil, err
	}
	bad := invariants(cfg.workload, p)

	// Workloads without writes in the timed phase get their write
	// latencies from a post-phase probe (see README.md).
	ws := chunkSummary(chunks(flat(p.writes), minChunk))
	writeSrc := "timed phase"
	attempted, failed, fails := p.sent, p.failed, p.fails
	if writer == nil {
		pd := &loadGen{w: w, clients: 1, chk: newChecker(w)}
		pp, err := pd.run(&gcEvery{source: &list{ops: probeOps(w, cfg.sz.probePatches)}, n: 500}, nil, time.Time{})
		if err != nil {
			return nil, err
		}
		ws, writeSrc = chunkSummary(chunks(flat(pp.writes), minChunk)), "post-phase probe of the "+probe+" graph"
		attempted, failed, fails = attempted+pp.sent, failed+pp.failed, append(fails, pp.fails...)
	}
	gain, err := boostGain(w, p.answers)
	if err != nil {
		bad = append(bad, err.Error())
	}

	rs := chunkSummary(readChunks(flat(p.reads)))
	rps, cpuPerReq := p.sliceRates()
	if err := writeLine(log, map[string]any{"summary": map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "clients": d.clients,
		"timed_s": p.dur.Seconds(), "sent": attempted, "succeeded": attempted - failed, "failed": failed,
		"slices": slices, "per_chunk_reads": rs, "per_chunk_writes": ws, "writes_from": writeSrc,
		"setup_runs_s": setups, "first_failures": fails, "invariant_violations": bad,
	}}); err != nil {
		return nil, err
	}
	return &output{
		Correct:   failed == 0 && len(bad) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":         {medianOf(setups), "s"},
			"throughput_rps":  {rps, "1/s"},
			"latency_p50_ms":  {rs.P50, "ms"},
			"latency_tail_ms": {rs.Tail, "ms"},
			"write_p50_ms":    {ws.P50, "ms"},
			"write_tail_ms":   {ws.Tail, "ms"},
			"cpu_ms_per_req":  {cpuPerReq, "ms"},
			"mem_peak_mb":     {float64(p.heapPeak) / (1 << 20), "MiB"},
			"boost_gain":      {gain, "nodes"},
		},
	}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeLine(w io.Writer, v any) error {
	return json.NewEncoder(w).Encode(v)
}
