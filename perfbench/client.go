package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"syscall"
	"time"

	"github.com/kboost/kboost/internal/engine"
	"github.com/kboost/kboost/internal/graph"
)

// reqHeader carries the benchmark's request id to the traced handler.
const reqHeader = "X-Perfbench-Req"

// callID numbers the calls of op idx: the first call, then its
// follow-ups. Writer ops are offset so ids never collide with readers'.
func callID(idx, call int, writer bool) int64 {
	id := int64(idx)*4 + int64(call)
	if writer {
		id += 1 << 40
	}
	return id
}

// record is one completed HTTP call.
type record struct {
	id         int64
	op         int
	opMode     string // mode of the op's first call
	c          call
	start, end time.Time
	bytes      int
	fail       string // "" when the call succeeded and its answer checked out
	boost      *boostAnswer
}

func (r record) write() bool { return r.c.patch != "" }

// answer is an IC or LB boost set, kept for the boost_gain evaluation.
type answer struct {
	op    int
	graph string
	seeds []int32
	set   []int32
}

// phase is what one timed phase measured.
type phase struct {
	sent, failed    int
	fails           []string          // the first few failure reasons
	reads, writes   [slices][]float32 // latencies (ms) of successful calls by time slice; slice 0 only without a deadline
	t0              time.Time
	sliceDur        time.Duration   // 0 without a deadline
	cpuAt           []time.Duration // process CPU at each slice boundary (deadline phases)
	boosts, patches int             // successful ones
	readSpan        [2]time.Time
	answers         []answer
	records         []record // completion order; kept only when the load generator keeps them
	ops             []op     // reader ops fully completed, completion order; ditto
	writerOps       []op
	dur             time.Duration
	cpu             time.Duration
	heapPeak        uint64
	allocBytes      uint64
	gcCPU           float64 // GC share of the process CPU
	before          engine.Stats
	after           engine.Stats
}

// sliceOf is the time slice a call completing at end belongs to; a call
// completing after the deadline counts in the last slice.
func (p *phase) sliceOf(end time.Time) int {
	if p.sliceDur == 0 {
		return 0
	}
	return min(int(end.Sub(p.t0)/p.sliceDur), slices-1)
}

// add folds one op's records into the phase.
func (p *phase) add(o op, recs []record, writer, keep bool, answerWindow int) {
	for _, r := range recs {
		p.sent++
		switch {
		case r.fail != "":
			p.failed++
			if len(p.fails) < 5 {
				p.fails = append(p.fails, r.fail)
			}
			continue
		case r.write():
			i := p.sliceOf(r.end)
			p.writes[i] = append(p.writes[i], float32(ms(r.end.Sub(r.start))))
			p.patches++
			continue
		}
		i := p.sliceOf(r.end)
		p.reads[i] = append(p.reads[i], float32(ms(r.end.Sub(r.start))))
		if p.readSpan[0].IsZero() || r.start.Before(p.readSpan[0]) {
			p.readSpan[0] = r.start
		}
		if r.end.After(p.readSpan[1]) {
			p.readSpan[1] = r.end
		}
		if r.boost != nil {
			p.boosts++
			if r.op < answerWindow && isPRR(r.c.mode()) {
				p.answers = append(p.answers, answer{op: r.op, graph: r.c.boost.GraphID, seeds: r.c.boost.Seeds, set: r.boost.BoostSet})
			}
		}
	}
	if !keep {
		return
	}
	p.records = append(p.records, recs...)
	if writer {
		p.writerOps = append(p.writerOps, o)
	} else {
		p.ops = append(p.ops, o)
	}
}

// runtime/metrics samples read around a phase.
var rtNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return float64(s.Value.Uint64())
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// loadGen runs closed-loop clients against w's engine behind the real
// HTTP server on a loopback listener.
type loadGen struct {
	w       *world
	clients int
	tr      *tracer // nil: untraced
	chk     *checker
	keep    bool // keep every record and op (traced runs replay them)
}

// run drains readers (and writer, on live-patch) until the deadline, or
// until both are exhausted when the deadline is zero.
func (d *loadGen) run(readers, writer source, deadline time.Time) (*phase, error) {
	var h http.Handler = engine.NewServer(d.w.eng, engine.ServerOptions{
		AuthToken:       authToken,
		MaxInFlightCold: engine.DefaultMaxInFlightCold(),
		MaxInFlightWarm: engine.DefaultMaxInFlightWarm(),
	})
	if d.tr != nil {
		h = tracedHandler{h: h, tr: d.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	p := &phase{before: d.w.eng.Stats()}
	if !deadline.IsZero() {
		// Preallocated, so the recording buffers keep the heap at a size
		// that does not grow with throughput (mem_peak_mb).
		for i := range p.reads {
			p.reads[i] = make([]float32, 0, 1<<17)
		}
	}
	var mu sync.Mutex
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		s := []metrics.Sample{{Name: rtNames[0]}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			mu.Lock()
			p.heapPeak = max(p.heapPeak, s[0].Value.Uint64())
			mu.Unlock()
			select {
			case <-stopSampler:
				return
			case <-t.C:
			}
		}
	}()

	// boost_gain scores the first gainSets PRR answers by op index; ops
	// complete nearly in index order, so a window of 64 per scored set
	// always holds them without keeping every answer of a long run.
	answerWindow := 64 * d.w.sz.gainSets
	rt0, cpu0, t0 := readRT(), cpuTime(), time.Now()
	p.t0 = t0
	slicerDone := make(chan struct{})
	if !deadline.IsZero() {
		p.sliceDur = deadline.Sub(t0) / slices
		// Read the process CPU at every slice boundary, so cpu_ms_per_req
		// can be a median over slices like the other timed metrics.
		p.cpuAt = []time.Duration{0}
		go func() {
			defer close(slicerDone)
			for i := 1; i < slices; i++ {
				time.Sleep(time.Until(t0.Add(deadline.Sub(t0) * time.Duration(i) / slices)))
				c := cpuTime() - cpu0
				mu.Lock()
				p.cpuAt = append(p.cpuAt, c)
				mu.Unlock()
			}
		}()
	} else {
		close(slicerDone)
	}
	// PATCH w is sent once reader ops 1..w*writeEvery have completed, and
	// reader op w*writeEvery+1 starts only once it is acknowledged: the
	// share of writes, and with it the work a read finds, does not depend
	// on how fast a run goes, and no read is in flight during a PATCH.
	// Reads overlapping a PATCH of their graph can hit an engine race
	// (BoostContext downgrades the entry lock; a repair in that gap
	// empties the pool it is about to select on, and the read fails with
	// a 500), so live-patch measures writes between reads, not beside them.
	started, inflight, written := 0, 0, 0
	readersLeft, writing := d.clients, writer != nil
	if writing {
		readersLeft--
	}
	gate := sync.NewCond(&mu)
	var wg sync.WaitGroup
	for c := 0; c < d.clients; c++ {
		src, isWriter := readers, false
		if writer != nil && c == 0 {
			src, isWriter = writer, true
		}
		cl := &client{d: d, base: base, writer: isWriter, last: map[string]uint64{},
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.http.CloseIdleConnections()
			defer func() {
				mu.Lock()
				if isWriter {
					writing = false
				} else {
					readersLeft--
				}
				gate.Broadcast()
				mu.Unlock()
			}()
			due := func() int { return (written + 1) * d.w.sz.writeEvery }
			for deadline.IsZero() || time.Now().Before(deadline) {
				mu.Lock()
				if isWriter {
					for (started < due() || inflight > 0) && readersLeft > 0 {
						gate.Wait()
					}
				} else {
					for writing && started >= due() {
						gate.Wait()
					}
				}
				if !deadline.IsZero() && !time.Now().Before(deadline) {
					mu.Unlock()
					return
				}
				o, ok := src.next()
				if !ok {
					mu.Unlock()
					return
				}
				if !isWriter {
					started++
					inflight++
				}
				mu.Unlock()
				recs := cl.runOp(o)
				mu.Lock()
				p.add(o, recs, isWriter, d.keep, answerWindow)
				if isWriter {
					written++
				} else {
					inflight--
				}
				gate.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-slicerDone
	p.dur, p.cpu = time.Since(t0), cpuTime()-cpu0
	if p.cpuAt != nil {
		p.cpuAt = append(p.cpuAt, p.cpu)
	}
	rt1 := readRT()
	close(stopSampler)
	<-samplerDone
	p.after = d.w.eng.Stats()
	p.allocBytes = rt1[1].Value.Uint64() - rt0[1].Value.Uint64()
	if tot := rtFloat(rt1[3]) - rtFloat(rt0[3]); tot > 0 {
		p.gcCPU = (rtFloat(rt1[2]) - rtFloat(rt0[2])) / tot
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}
	return p, nil
}

// tracedHandler records the server span of every request.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	if id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64); err == nil {
		t.tr.add(id, "server", "client", start, time.Now())
	}
}

// client is one closed-loop client with one keep-alive connection.
type client struct {
	d      *loadGen
	base   string
	writer bool
	http   *http.Client
	last   map[string]uint64 // highest graph_version this client has seen
}

// runOp issues o's calls in order and checks each answer.
func (c *client) runOp(o op) []record {
	first := c.do(o.idx, 0, o.first)
	recs := []record{first}
	if first.fail == "" && first.boost != nil {
		for i, est := range o.follow {
			est.Boost = first.boost.BoostSet
			recs = append(recs, c.do(o.idx, i+1, call{est: &est}))
		}
	}
	for i := range recs {
		recs[i].opMode = o.first.mode()
	}
	return recs
}

// deltaJSON is the PATCH body schema of /v1/graphs/{name}/edges.
type deltaJSON struct {
	Reweight []deltaEdge `json:"reweight"`
}

type deltaEdge struct {
	From   int32   `json:"from"`
	To     int32   `json:"to"`
	P      float64 `json:"p"`
	PBoost float64 `json:"p_boost"`
}

func deltaBody(d *graph.EdgeDelta) deltaJSON {
	out := deltaJSON{}
	for _, e := range d.Reweight {
		out.Reweight = append(out.Reweight, deltaEdge{From: e.From, To: e.To, P: e.P, PBoost: e.PBoost})
	}
	return out
}

func (c *client) do(idx, n int, cl call) record {
	rec := record{id: callID(idx, n, c.writer), op: idx, c: cl}
	method, path := http.MethodPost, ""
	var body any
	switch {
	case cl.boost != nil:
		path, body = "/v1/boost", cl.boost
	case cl.est != nil:
		path, body = "/v1/estimate", cl.est
	case cl.seeds != nil:
		path, body = "/v1/seeds", cl.seeds
	default:
		method, path, body = http.MethodPatch, "/v1/graphs/"+cl.patch+"/edges", deltaBody(cl.delta)
	}
	buf, err := json.Marshal(body)
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(buf))
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(rec.id, 10))
	if method == http.MethodPatch {
		req.Header.Set("Authorization", "Bearer "+authToken)
	}
	ackedAtSend := c.d.chk.acked(cl)
	rec.start = time.Now()
	resp, err := c.http.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rec.end = time.Now()
	if c.d.tr != nil {
		c.d.tr.add(rec.id, "client", "", rec.start, rec.end)
	}
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	rec.bytes = len(data)
	if resp.StatusCode != http.StatusOK {
		rec.fail = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return rec
	}
	if err := c.d.chk.check(&rec, buf, data, ackedAtSend, c.last); err != nil {
		rec.fail = err.Error()
	}
	return rec
}

// workers is the closed-loop client count: one per CPU, at least two so
// live-patch has a writer and a reader.
func workers() int { return max(2, runtime.NumCPU()) }

// sliceRates returns the medians over the phase's time slices of
// completed calls per second and of process CPU milliseconds per
// completed call.
func (p *phase) sliceRates() (rps, cpuPerReq float64) {
	var r, c []float64
	for i := range p.reads {
		n := len(p.reads[i]) + len(p.writes[i])
		d := p.sliceDur
		if i == slices-1 {
			d = p.dur - p.sliceDur*(slices-1)
		}
		r = append(r, float64(n)/d.Seconds())
		if n > 0 && len(p.cpuAt) == slices+1 {
			c = append(c, ms(p.cpuAt[i+1]-p.cpuAt[i])/float64(n))
		}
	}
	return medianOf(r), medianOf(c)
}
