package main

import (
	"math"
	"sort"
)

// latencyStats summarises one latency sample (milliseconds).
type latencyStats struct {
	N      int     `json:"n"`
	P50    float64 `json:"p50_ms"`
	Tail   float64 `json:"tail_ms"`
	TailPc float64 `json:"tail_percentile"`
	Beyond int     `json:"tail_samples_beyond"`
}

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// summarize reports the median and the tail: the value at the highest
// percentile that still has at least tailBeyond samples above it. For
// n sorted samples that is the (tailBeyond+1)-th largest, at percentile
// 100·(n−tailBeyond)/n. With tailBeyond samples or fewer there is no
// such percentile; the tail is then the median and Beyond says how many
// samples lie above it.
func summarize(ms []float64) latencyStats {
	n := len(ms)
	if n == 0 {
		return latencyStats{}
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	st := latencyStats{N: n, P50: median(s)}
	if n > tailBeyond {
		st.Tail, st.TailPc, st.Beyond = s[n-tailBeyond-1], 100*float64(n-tailBeyond)/float64(n), tailBeyond
	} else {
		st.Tail, st.TailPc, st.Beyond = st.P50, 50, n/2
	}
	return st
}

// median of sorted s.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// slices is how many equal time slices a timed phase is cut into for
// throughput and CPU per request, each reported as the median over the
// slices, so a burst of interference from outside the process moves one
// slice, not the result.
const slices = 10

// The latency metrics are medians over chunks of consecutive samples (in
// completion order) of each chunk's median and tail. A chunk of reads
// holds a tenth of them, at least minChunk and at most maxChunk: a busy
// workload is summarised over chunks of 1000, whose tail (the 11th
// largest) sits at p99, and a slow one still gets about ten chunks, so
// one burst of load from outside the process moves one chunk rather
// than the result. Writes are fewer and come in chunks of minChunk
// (tail at p90).
const (
	minChunk = 100
	maxChunk = 1000
)

// flat returns a phase's samples in completion order, slice by slice.
func flat(parts [slices][]float32) []float64 {
	var out []float64
	for _, part := range parts {
		for _, x := range part {
			out = append(out, float64(x))
		}
	}
	return out
}

// readChunks cuts read latencies into contiguous chunks of a tenth of
// them, clamped to [minChunk, maxChunk].
func readChunks(xs []float64) [][]float64 {
	return chunks(xs, min(max(len(xs)/10, minChunk), maxChunk))
}

// chunks cuts samples into contiguous chunks of near-equal size, about
// size each.
func chunks(xs []float64, size int) [][]float64 {
	k := max(1, len(xs)/size)
	parts := make([][]float64, k)
	for i, x := range xs {
		j := i * k / len(xs)
		parts[j] = append(parts[j], x)
	}
	return parts
}

// chunkSummary summarises each chunk and reports the median of the
// chunks' sizes, medians, tails and tail percentiles.
func chunkSummary(parts [][]float64) latencyStats {
	var n, p50, tail, pc, beyond []float64
	for _, part := range parts {
		if len(part) == 0 {
			continue
		}
		st := summarize(part)
		n, p50, tail = append(n, float64(st.N)), append(p50, st.P50), append(tail, st.Tail)
		pc, beyond = append(pc, st.TailPc), append(beyond, float64(st.Beyond))
	}
	if len(n) == 0 {
		return latencyStats{}
	}
	return latencyStats{N: int(medianOf(n)), P50: medianOf(p50), Tail: medianOf(tail),
		TailPc: medianOf(pc), Beyond: int(medianOf(beyond))}
}
