package simpool

// kernel exposes the embedded kernel scratch of a rule's scratch type:
// every rule scratch embeds Scratch, so the method is promoted to it.
func (s *Scratch) kernel() *Scratch { return s }

// StartEpochsAt makes every scratch p allocates from now on start at
// touch epoch e, with each node's stamp left at epoch 1 or 2 — the
// state of a scratch that touched every node in its first two epochs
// and has run e-2 evaluations since. A test can then drive the epoch
// across its int32 wrap within a few profiles: a wrap that did not
// clear the stamps would read the nodes not touched since as touched
// in the new epochs 1 and 2. Call it before p's first Extend.
func StartEpochsAt[S any, A Aux](p *Pool[S, A], e int32) {
	newScratch := p.scratch.New
	p.scratch.New = func() any {
		s := newScratch()
		k := s.(interface{ kernel() *Scratch }).kernel()
		k.epoch = e
		for v := range k.stamp {
			k.stamp[v] = int32(v%2) + 1
		}
		return s
	}
}
