package kthresh

import (
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/model/simpool"
)

// The package's tests and benchmarks reach the kernel's naive
// references and candidate ranking under these names.

func (p *Pool) estimateSpreadNaive(boost []int32) float64 { return p.EstimateSpreadNaive(boost) }

func (p *Pool) greedyBoostNaive(k, candCap int) ([]int32, float64, error) {
	return p.GreedyBoostNaive(k, candCap)
}

func boostCandidates(g *graph.Graph, seedMask []bool, candCap int) []int32 {
	return simpool.BoostCandidates(g, seedMask, candCap)
}

func candidateCap(k, candCap int) int { return simpool.CandidateCap(k, candCap) }
