// Package sir implements the boosted SIR (susceptible — infectious —
// recovered) diffusion model behind the generic model.Pool contract.
//
// Dynamics: an infectious node u attempts to transmit along each
// out-edge (u, v) once per round with probability p (the edge's base
// probability; p' = pBoost when v is boosted — boosting a node raises
// transmission on its in-edges, the same target-side semantics as the
// repo's boosted-IC model), and recovers after each round with
// probability γ (the recovery knob). A recovered node never transmits
// again; spread is the number of ever-infected nodes.
//
// The pooled implementation uses the standard percolation reduction:
// draw u's infectious duration d(u) ~ 1 + Geometric(γ) once per
// (profile, node), then edge (u, v) transmits iff a single uniform
// U(u, v) falls below the aggregate transmissibility
// q = 1 − (1 − p)^d(u). The ever-infected set is exactly the forward
// reachable set of the seeds over transmitting edges, so one profile is
// a static possible world — the same shape as the repo's LT threshold
// profiles — and boosting only relabels in-edges of boosted nodes from
// q to q' = 1 − (1 − p')^d(u) ≥ q under the *same* U: worlds are
// monotone-coupled, a boosted world's infected set always contains the
// base world's, and warm queries evaluate boost sets incrementally from
// the cached base reachability instead of resimulating.
//
// Durations and edge uniforms are pure hashes of (profile seed, node)
// and (profile seed, tail, head) — never a consumed RNG stream — so a
// world does not depend on traversal order, worker count, or the boost
// set under evaluation (common random numbers), and every pooled
// estimate is bit-exact regardless of parallelism. Hashing by node-id
// pair rather than edge index also keeps draws aligned between the CSR
// out- and in-views of the same edge.
package sir

import (
	"math"

	"github.com/kboost/kboost/internal/model/simpool"
)

// DefaultRecovery is the recovery probability selected by a zero knob.
const DefaultRecovery = 0.5

// maxDuration caps the sampled infectious duration. At the minimum
// meaningful recovery values the cap binds with probability < 1e-9 per
// node while keeping transmissibility evaluation O(1).
const maxDuration = 64

// Model holds the SIR parameters: the per-round recovery probability γ.
type Model struct {
	recovery float64
	// invLogS = 1 / ln(1 − γ), precomputed for duration sampling. The
	// γ = 1 endpoint yields -0 and the sampling arithmetic degenerates
	// to d = 1 exactly, so no special case is needed.
	invLogS float64
}

// New returns a Model with recovery probability γ; 0 selects
// DefaultRecovery. Callers validate γ ∈ (0, 1] (internal/model does for
// the engine path).
func New(recovery float64) *Model {
	if recovery == 0 {
		recovery = DefaultRecovery
	}
	return &Model{recovery: recovery, invLogS: 1 / math.Log(1-recovery)}
}

// Recovery returns the model's per-round recovery probability.
func (m *Model) Recovery() float64 { return m.recovery }

// durSalt separates the duration draw's hash domain from the edge
// uniforms'.
const durSalt = 0xd1342543de82ef95

// duration returns d(u) ∈ [1, maxDuration]: node u's infectious
// duration in the profile seeded by ps, sampled as
// 1 + Geometric(γ) by inversion from a hash uniform.
func (m *Model) duration(ps uint64, u int32) int {
	u01 := simpool.Hash01(ps ^ durSalt ^ (uint64(uint32(u))+1)*0x9e3779b97f4a7c15)
	d := 1 + int(math.Log(1-u01)*m.invLogS)
	if d > maxDuration {
		d = maxDuration
	}
	return d
}

// transQ returns the aggregate transmissibility 1 − (1 − p)^d of an
// edge with per-round probability p from a source infectious for d
// rounds, by loop multiplication (d averages 1/γ and is capped at
// maxDuration; math.Pow would be slower and needs cross-platform
// bit-exactness auditing).
func transQ(p float64, d int) float64 {
	if p <= 0 {
		return 0
	}
	s := 1 - p
	pr := s
	for i := 1; i < d; i++ {
		pr *= s
	}
	return 1 - pr
}
