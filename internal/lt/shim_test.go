package lt

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// The package's tests predate the simpool kernel; these shims map the
// names they use onto the kernel's.

// boostCandidates is the kernel's candidate ranking under the default cap.
func boostCandidates(g *graph.Graph, seedMask []bool, k, candCap int) []int32 {
	return simpool.BoostCandidates(g, seedMask, simpool.CandidateCap(k, candCap))
}

// greedyBoostNaive is the kernel's full-resimulation greedy reference.
func (p *Pool) greedyBoostNaive(k, candCap int) ([]int32, float64, error) {
	return p.GreedyBoostNaive(k, candCap)
}

// estimateSpreadNaive is the kernel's full-resimulation estimate reference.
func (p *Pool) estimateSpreadNaive(boost []int32) float64 {
	return p.EstimateSpreadNaive(boost)
}

// profiles lists the pool's cached base worlds: seed, active set,
// frontier and frontier weights per profile.
func profiles(p *Pool) []simpool.Profile[float64] {
	out := make([]simpool.Profile[float64], p.NumProfiles())
	for pi := range out {
		out[pi] = p.Profile(pi)
	}
	return out
}

// frontierIndex lists the pool's frontier index: per node, the profiles
// whose base frontier holds it.
func frontierIndex(p *Pool) [][]int32 {
	out := make([][]int32, p.g.N())
	for v := range out {
		out[v] = p.FrontierProfiles(int32(v))
	}
	return out
}
