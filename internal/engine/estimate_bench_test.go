package engine

import (
	"testing"

	"github.com/kboost/kboost/internal/model"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// benchTierSetup registers a mid-size random graph (2k nodes / 12k
// edges full-size, 200 / 1.2k under -short) and returns the engine
// plus the estimate request shared by every tier benchmark, so the
// tier-0 / tier-1 / warm tier-2 numbers in BENCH_select.json are
// directly comparable.
func benchTierSetup(b *testing.B) (*Engine, EstimateRequest) {
	b.Helper()
	n, m := 2000, 12000
	if testing.Short() {
		n, m = 200, 1200
	}
	g := testutil.RandomGraph(rng.New(5), n, m, 0.3)
	e := New(Options{})
	if err := e.RegisterGraph("bench", g); err != nil {
		b.Fatal(err)
	}
	req := EstimateRequest{
		GraphID: "bench",
		Seeds:   []int32{1, 3, 5, 7, 11},
		Boost:   []int32{2, 4, 6},
		Seed:    9,
		Workers: 2,
	}
	return e, req
}

// BenchmarkEstimateTier0 measures the closed-form serve: a latency-
// capped request on an engine with no pools, answered straight off the
// CSR. The setup asserts the tier-0 contract (tier 0, zero pool bytes)
// once before timing.
func BenchmarkEstimateTier0(b *testing.B) {
	for _, mode := range []string{"ic", "lt"} {
		b.Run(mode, func(b *testing.B) {
			e, req := benchTierSetup(b)
			req.Mode = mode
			req.MaxLatencyMS = 1000
			res, err := e.Estimate(req)
			if err != nil {
				b.Fatal(err)
			}
			if res.Tier != 0 {
				b.Fatalf("served tier %d, want 0", res.Tier)
			}
			if st := e.Stats(); st.Pools != 0 || st.PoolBytes != 0 {
				b.Fatalf("tier 0 built pool state: %d pools, %d bytes", st.Pools, st.PoolBytes)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Estimate(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateTier1 measures the small-sample Monte-Carlo tier
// directly (tier routing depends on per-graph calibration, so the
// public knobs cannot target tier 1 deterministically).
func BenchmarkEstimateTier1(b *testing.B) {
	for _, mode := range []string{"ic", "lt"} {
		b.Run(mode, func(b *testing.B) {
			e, req := benchTierSetup(b)
			req.Mode = mode
			g, err := e.Graph("bench")
			if err != nil {
				b.Fatal(err)
			}
			spec, err := resolveSpec(mode, model.Params{}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.estimateTier1(req, g, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEstimateTier2IC measures the knobless IC evaluation with a
// boost set: fresh default-budget Monte-Carlo reporting σ̂ and Δ̂ from
// one set of coupled worlds. The setup asserts it is served at tier 2.
func BenchmarkEstimateTier2IC(b *testing.B) {
	e, req := benchTierSetup(b)
	req.Mode = "ic"
	res, err := e.Estimate(req)
	if err != nil {
		b.Fatal(err)
	}
	if res.Tier != 2 || res.Boost <= 0 {
		b.Fatalf("served tier %d with Δ̂ %v, want tier 2 and a positive Δ̂", res.Tier, res.Boost)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateTier2Warm measures the full evaluation on a warm
// LT profile pool — the baseline the tiered path undercuts. The pool
// is built outside the timer; every timed call must hit it.
func BenchmarkEstimateTier2Warm(b *testing.B) {
	e, req := benchTierSetup(b)
	req.Mode = "lt"
	req.Sims = 5000
	if testing.Short() {
		req.Sims = 200
	}
	if _, err := e.Estimate(req); err != nil { // builds the pool
		b.Fatal(err)
	}
	res, err := e.Estimate(req)
	if err != nil {
		b.Fatal(err)
	}
	if !res.CacheHit || res.Tier != 2 {
		b.Fatalf("warm repeat: cache_hit=%v tier=%d, want warm tier 2", res.CacheHit, res.Tier)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Estimate(req); err != nil {
			b.Fatal(err)
		}
	}
}
