package simpool

import "math"

// Scratch is the per-worker evaluation state every rule shares: dense
// arrays addressed by node id plus logs of what an evaluation changed,
// so Reset is O(touched), not O(n). A rule that needs more per-node
// state (exposure counts, say) embeds Scratch in its own scratch type
// and clears its extra arrays over Touched before calling Reset.
type Scratch struct {
	Active []bool
	Queue  []int32 // activated nodes whose out-edges the cascade has yet to try

	// ActNode logs every activation since the last Reset, in order;
	// Touched logs the nodes Touch recorded since the last Reset, each
	// once. Base-world captures read the final active set from ActNode
	// and the frontier from Touched (see Shard.Add).
	ActNode []int32
	Touched []int32

	loaded []int32 // the base active set installed by Load
	stamp  []int32 // Touch dedup stamps
	epoch  int32   // kboost:epoch
}

// NewScratch returns a clean scratch for an n-node graph.
func NewScratch(n int) *Scratch {
	// Stamps start at 0, so the first epoch is 1.
	return &Scratch{Active: make([]bool, n), stamp: make([]int32, n), epoch: 1}
}

// Activate marks v active and queues it for the cascade.
func (s *Scratch) Activate(v int32) {
	s.Active[v] = true
	s.ActNode = append(s.ActNode, v)
	s.Queue = append(s.Queue, v)
}

// Touch logs v in Touched, once per evaluation.
func (s *Scratch) Touch(v int32) {
	if s.stamp[v] != s.epoch {
		s.stamp[v] = s.epoch
		s.Touched = append(s.Touched, v)
	}
}

// Load installs a profile's cached base active set. The nodes are not
// queued: their out-edges were already tried by the base world.
func (s *Scratch) Load(active []int32) {
	for _, u := range active {
		s.Active[u] = true
	}
	s.loaded = active
}

// Reset clears everything set since the last Reset and starts a new
// Touch epoch.
func (s *Scratch) Reset() {
	for _, v := range s.loaded {
		s.Active[v] = false
	}
	for _, v := range s.ActNode {
		s.Active[v] = false
	}
	s.loaded = nil
	s.ActNode = s.ActNode[:0]
	s.Touched = s.Touched[:0]
	s.Queue = s.Queue[:0]
	s.nextEpoch()
}

// nextEpoch advances the touch stamp, clearing the stamp array when
// the int32 epoch wraps so stale stamps can never read as current.
// kboost:epoch-helper
func (s *Scratch) nextEpoch() {
	if s.epoch == math.MaxInt32 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch++
}
