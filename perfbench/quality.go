package main

import (
	"fmt"
	"sort"

	"github.com/kboost/kboost/internal/diffusion"
)

// gainSeed fixes the Monte-Carlo worlds boost_gain scores every set on.
const gainSeed = 20170419

// boostGain is the mean boost Δ of the first gainSets IC/LB boost sets
// of the op stream (by op index, so the same sets are scored however
// fast a run went), each scored by an independent Monte-Carlo
// evaluation on the unpatched graph after the timed phase.
func boostGain(w *world, answers []answer) (float64, error) {
	if len(answers) == 0 {
		return 0, fmt.Errorf("boost_gain: no IC/LB boost answers to score")
	}
	s := append([]answer(nil), answers...)
	sort.Slice(s, func(i, j int) bool { return s[i].op < s[j].op })
	s = s[:min(len(s), w.sz.gainSets)]
	var total float64
	for _, a := range s {
		d, err := diffusion.EstimateBoost(w.graphs[a.graph], a.seeds, a.set,
			diffusion.Options{Sims: w.sz.gainSims, Seed: gainSeed, Workers: workers()})
		if err != nil {
			return 0, fmt.Errorf("boost_gain: %w", err)
		}
		total += d
	}
	return total / float64(len(s)), nil
}
