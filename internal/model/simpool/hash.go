package simpool

// mix64 is the splitmix64 finalizer: a bijective avalanche mix, the
// same hash core lt's threshold draw uses.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash01 maps a word to a uniform float64 in [0, 1). Rules draw every
// per-profile random quantity through it from the profile seed — never
// from a consumed RNG stream — so a world does not depend on traversal
// order, worker count, or the boost set under evaluation.
func Hash01(x uint64) float64 {
	return float64(mix64(x)>>11) * (1.0 / (1 << 53))
}

// EdgeU returns U(u, v) ∈ [0, 1): the uniform of edge (u, v) in the
// profile seeded by ps. Keyed by the node-id pair, not an edge index,
// so a rule's out-CSR cascade and in-CSR boost scan see the same draw
// for the same edge. Every simulation model shares it, so at parameters
// where their transmission rules coincide (SIR at recovery 1,
// k-threshold at threshold 1: plain IC percolation) their pools are
// bit-identical.
func EdgeU(ps uint64, u, v int32) float64 {
	return Hash01(ps ^ (uint64(uint32(u))+1)*0x9e3779b97f4a7c15 ^ (uint64(uint32(v))+1)*0x94d049bb133111eb)
}
