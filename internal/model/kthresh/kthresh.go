// Package kthresh implements boosted k-threshold complex contagion
// behind the generic model.Pool contract.
//
// Dynamics: each edge (u, v) is independently "live" with its base
// probability p, or — when v is boosted — additionally usable with the
// boosted probability p' ≥ p under the same draw (the repo's standard
// target-side boost semantics and monotone coupling). A non-seed node
// activates once at least τ of its in-edges are both usable and
// originate at active nodes; τ is the model's threshold knob, uniform
// across nodes. τ = 1 degenerates to independent-cascade percolation;
// τ ≥ 2 is complex contagion — a single exposure never converts, which
// is why the engine's closed-form tier-0 estimator declines this model.
//
// Activation is a monotone closure (the least fixed point of the
// exposure-count rule), so a profile — one assignment of edge uniforms
// U(u, v) — is a static possible world evaluated by chaotic iteration:
// the final active set is independent of traversal order and worker
// count. Edge uniforms are pure hashes of (profile seed, tail, head),
// never a consumed RNG stream, so worlds are shared across boost sets
// (common random numbers) and every pooled estimate is bit-exact.
package kthresh

// DefaultThreshold is the activation threshold selected by a zero knob.
const DefaultThreshold = 2

// Model holds the k-threshold parameter τ.
type Model struct {
	thresh int32
}

// New returns a Model with activation threshold τ; 0 selects
// DefaultThreshold. Callers validate τ >= 1 (internal/model does for
// the engine path).
func New(threshold int) *Model {
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	return &Model{thresh: int32(threshold)}
}

// Threshold returns the model's activation threshold.
func (m *Model) Threshold() int { return int(m.thresh) }
