// Package simpool is the pool kernel shared by the Monte-Carlo
// diffusion models (lt, model/sir, model/kthresh). A model is a kernel
// plus a transmission rule:
//
//   - The kernel owns everything that does not depend on how an edge
//     transmits: profile seeds and their sharded, cancelable, panic-safe
//     generation (Extend) and resampling onto a patched graph
//     (Resample); flat CSR storage of each profile's cached base world;
//     the frontier inverted index; batch estimation; the parallel
//     exhaustive greedy and its candidate ranking; the pool-free sample
//     estimator; memory accounting.
//   - The Rule owns the cascade: how a profile's base world is captured
//     (Base), how a boost set re-evaluates it incrementally (Eval), and
//     a from-scratch simulation (Simulate) for the naive references and
//     the sample estimator. A rule may replace the exhaustive greedy
//     with its own selection over the same cached views (Select: lt's
//     CELF).
//
// The kernel calls into the rule once per profile evaluation, never
// per edge, so the rules' cascade loops run on their own concrete
// scratch types.
//
// The kernel's contract, which every rule inherits: a profile is a
// static possible world keyed by a profile seed drawn serially from
// the pool's root RNG, so pool contents are a pure function of
// (seed, graph, seed set) independent of the worker count; boosting is
// monotone under each profile's shared draws, so a boost set can only
// change profiles whose base frontier holds one of its nodes; and every
// parallel phase sums integers, so estimates and selections are
// bit-exact across worker counts.
package simpool

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/graph"
	"github.com/kboost/kboost/internal/panicsafe"
	"github.com/kboost/kboost/internal/rng"
)

// cancelStride is the amortized cooperative-cancellation poll interval
// inside shard simulation loops (see internal/prr): one ctx check per
// 64 profiles.
const cancelStride = 64

// Aux is the element type of a rule's aux planes: int32 exposure counts
// (kthresh), float64 accumulated in-weights (lt).
type Aux interface{ int32 | float64 }

// Rule is one model's transmission rule over scratch type S, caching
// aux values of type A. Each function must leave its scratch clean
// (reset) on return.
type Rule[S any, A Aux] struct {
	// Name prefixes the kernel's error messages ("lt", "sir", "kthresh").
	Name string
	// AuxWidth is the number of values Base appends to Shard.Aux per
	// frontier node: state the rule caches beyond frontier membership
	// (0 when membership alone suffices). A profile's aux values are
	// plane-major: AuxWidth runs of one value per frontier node, each in
	// frontier order.
	AuxWidth int
	// NewScratch allocates one worker's evaluation scratch.
	NewScratch func() S
	// Base simulates the base world (B = ∅) of the profile seeded by ps
	// and records it with sh.Add, followed by AuxWidth values on sh.Aux
	// per frontier node Add returns.
	Base func(ps uint64, sh *Shard[A], s S)
	// Eval returns the activations that boosting bset ∪ {extra} adds to
	// the cached base world of profile pi (see Pool.Profile; extra < 0:
	// none; mask is bset's membership mask, and excludes extra).
	Eval func(pi int, bset []int32, mask []bool, extra int32, s S) int
	// Simulate runs the profile seeded by ps from scratch under the
	// boost mask (nil: the base world) and returns its active count.
	Simulate func(ps uint64, mask []bool, s S) int
	// Select, when set, replaces the kernel's exhaustive greedy: it
	// picks up to k nodes from cands (validated non-seed ids, on a
	// non-empty pool, k >= 1) and returns them in pick order with the
	// pooled Δ̂ of the chosen set. It must return exactly what
	// GreedyBoostNaive returns for the same candidates.
	Select func(ctx context.Context, k int, cands []int32) ([]int32, float64, error)
	// SelectParallelMin and EstimateParallelMin are the minimum number
	// of candidates per greedy round, and of affected profiles per
	// estimate, before the work fans out to the pool's workers.
	SelectParallelMin, EstimateParallelMin int
}

// Profile is one profile's cached base world, as views into the pool's
// flat storage (read-only).
type Profile[A Aux] struct {
	Seed   uint64  // seeds the profile's draws
	Active []int32 // base active set, sorted
	Front  []int32 // base frontier, sorted
	Aux    []A     // the rule's AuxWidth planes of len(Front) values
}

// Pool is a growable collection of profiles for a fixed (graph, seed
// set), evaluated under one Rule. Profiles are independent of the boost
// budget k, so one pool serves every query against its seed set.
// Mutation (Extend, Resample) must be externally serialized against
// everything else; estimation and selection only read the pool and may
// run concurrently with each other.
type Pool[S any, A Aux] struct {
	rule     Rule[S, A]
	g        *graph.Graph
	seeds    []int32 // sorted, deduplicated
	seedMask []bool
	workers  int
	root     *rng.Source

	// profileSeed[i] seeds profile i's draws. Seeds are drawn serially
	// from root, so pool contents are independent of the worker count.
	profileSeed []uint64

	// Base-world state per profile, stored flat (CSR-style): the active
	// set, and the frontier — the inactive nodes a boost could activate
	// directly — with the rule's aux values. Node lists are sorted per
	// profile so membership tests are binary searches. Offsets are
	// int32: 2^31 items would mean a pool ≥ 8 GiB, far past the engine's
	// byte budget.
	activeStart []int32
	activeItems []int32
	frontStart  []int32
	frontItems  []int32
	aux         []A // AuxWidth per frontItems entry, plane-major per profile

	// baseSum is Σ_i |active_i|: the base spread numerator.
	baseSum int64

	// idxStart/idxItems: node -> profiles whose base frontier contains
	// it. A boost set can only change profiles where at least one
	// boosted node sits in the base frontier (without a boosted
	// activation adjacent to the base world nothing cascades), so
	// estimates and greedy rounds iterate these posting lists instead of
	// all R profiles.
	idxStart []int32
	idxItems []int32

	// generation counts Extend and Resample calls that changed the
	// profiles; estimates and selections are pure functions of the pool
	// contents, so callers may cache results keyed by
	// (generation, query) and invalidate on change.
	generation uint64

	scratch sync.Pool // of S
}

// New creates an empty pool for (g, seeds) under rule r. seed
// determines every profile the pool will ever contain; workers <= 0
// means GOMAXPROCS. Pool contents do not depend on workers.
func New[S any, A Aux](r Rule[S, A], g *graph.Graph, seeds []int32, seed uint64, workers int) (*Pool[S, A], error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, v := range seeds {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("%s: seed %d out of range [0,%d)", r.Name, v, g.N())
		}
	}
	p := &Pool[S, A]{
		rule:        r,
		g:           g,
		seedMask:    make([]bool, g.N()),
		workers:     workers,
		root:        rng.New(seed),
		activeStart: []int32{0},
		frontStart:  []int32{0},
		idxStart:    make([]int32, g.N()+1),
	}
	for _, v := range seeds {
		if !p.seedMask[v] {
			p.seedMask[v] = true
			p.seeds = append(p.seeds, v)
		}
	}
	slices.Sort(p.seeds)
	p.scratch.New = func() any { return r.NewScratch() }
	return p, nil
}

// Graph returns the graph the pool's profiles were sampled on.
func (p *Pool[S, A]) Graph() *graph.Graph { return p.g }

// Seeds returns the pool's sorted, deduplicated seed set. The slice is
// owned by the pool (kboost:aliased-view); callers must not modify it.
func (p *Pool[S, A]) Seeds() []int32 { return p.seeds }

// SeedMask returns the seed set as a per-node mask. The slice is owned
// by the pool and never changes; callers must not modify it.
func (p *Pool[S, A]) SeedMask() []bool { return p.seedMask }

// Norms returns nil: sir and kthresh rank boost candidates on raw edge
// probabilities (no per-node normalization exists for them).
func (p *Pool[S, A]) Norms() []float64 { return nil }

// NumProfiles returns the number of sampled profiles.
func (p *Pool[S, A]) NumProfiles() int { return len(p.profileSeed) }

// Generation identifies the pool's contents: it increments on every
// Extend call that adds profiles and every Resample that succeeds.
func (p *Pool[S, A]) Generation() uint64 { return p.generation }

// BaseSpread returns the pooled estimate of the unboosted spread σ̂(∅),
// cached from the base worlds.
func (p *Pool[S, A]) BaseSpread() float64 {
	if len(p.profileSeed) == 0 {
		return 0
	}
	return float64(p.baseSum) / float64(len(p.profileSeed))
}

// MemoryEstimate returns the pool's resident bytes: the flat profile
// CSRs with the rule's aux values, the inverted index and the profile
// seeds — exact array lengths × element sizes, matching the accounting
// the other pool families report so the engine's byte-based eviction
// compares them fairly.
func (p *Pool[S, A]) MemoryEstimate() int64 {
	var a A
	bytes := int64(len(p.activeItems)+len(p.frontItems)+len(p.idxItems)) * 4
	bytes += int64(len(p.aux)) * int64(unsafe.Sizeof(a))
	bytes += int64(len(p.profileSeed)) * 8
	bytes += int64(len(p.activeStart)+len(p.frontStart)+len(p.idxStart)) * 4
	return bytes
}

func (p *Pool[S, A]) getScratch() S  { return p.scratch.Get().(S) }
func (p *Pool[S, A]) putScratch(s S) { p.scratch.Put(s) }

// Profile returns profile pi's cached base world.
func (p *Pool[S, A]) Profile(pi int) Profile[A] {
	lo, hi := p.frontStart[pi], p.frontStart[pi+1]
	w := int32(p.rule.AuxWidth)
	return Profile[A]{
		Seed:   p.profileSeed[pi],
		Active: p.activeItems[p.activeStart[pi]:p.activeStart[pi+1]],
		Front:  p.frontItems[lo:hi],
		Aux:    p.aux[lo*w : hi*w],
	}
}

// FrontierProfiles returns the profiles whose base frontier contains
// v, ascending. The slice aliases the pool's index
// (kboost:aliased-view); callers must not modify it.
func (p *Pool[S, A]) FrontierProfiles(v int32) []int32 {
	return p.idxItems[p.idxStart[v]:p.idxStart[v+1]]
}

// Shard is one worker's private base-world output: the base worlds of
// an ascending run of profiles, stored flat exactly like the pool's
// arrays (local CSR offsets starting at 0). Shards cover ascending
// profile ranges and are merged in range order with bulk copies, so
// pool contents stay independent of scheduling.
type Shard[A Aux] struct {
	activeStart []int32 // len = profiles+1
	activeItems []int32
	frontStart  []int32 // len = profiles+1
	frontItems  []int32
	// Aux holds the rule's AuxWidth planes per profile (see
	// Rule.AuxWidth).
	Aux []A
}

// Add appends one profile's base world from a finished base simulation
// in s: the active set (s.ActNode) and the frontier (the nodes of
// s.Touched still inactive), both sorted. It returns the frontier so
// the rule can append its aux planes in the same order.
func (sh *Shard[A]) Add(s *Scratch) []int32 {
	off := len(sh.activeItems)
	sh.activeItems = append(sh.activeItems, s.ActNode...)
	slices.Sort(sh.activeItems[off:])
	sh.activeStart = append(sh.activeStart, int32(len(sh.activeItems)))
	off = len(sh.frontItems)
	for _, v := range s.Touched {
		if !s.Active[v] {
			sh.frontItems = append(sh.frontItems, v)
		}
	}
	front := sh.frontItems[off:]
	slices.Sort(front)
	sh.frontStart = append(sh.frontStart, int32(len(sh.frontItems)))
	return front
}

// Extend grows the pool to at least target profiles. Growth is
// incremental: existing profiles and their cached state are untouched,
// only the shortfall is simulated (sharded across the pool's workers,
// merged in profile order), and the frontier index is merged in one
// pass.
func (p *Pool[S, A]) Extend(target int) {
	// Ctx-less compat form; without a cancelable ctx or armed faults the
	// context variant cannot fail.
	_ = p.ExtendContext(context.Background(), target)
}

// ExtendContext is Extend with cooperative cancellation and shard-worker
// panic containment. On any error — ctx canceled, injected fault, or a
// worker panic (returned as *panicsafe.Error) — no shard is merged and
// the pool rolls back to its exact pre-call state: the appended profile
// seeds are truncated and the root RNG restored, so a retried call
// draws the same seeds again and the final pool is bit-identical to one
// built without interruption.
func (p *Pool[S, A]) ExtendContext(ctx context.Context, target int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	need := target - len(p.profileSeed)
	if need <= 0 {
		return nil
	}
	from := len(p.profileSeed)
	savedRoot := *p.root // for rollback: Uint64 draws below advance it
	for i := 0; i < need; i++ {
		p.profileSeed = append(p.profileSeed, p.root.Uint64())
	}
	shards, _, err := p.runShards(ctx, from, nil, p.rule.Base)
	if err != nil {
		p.profileSeed = p.profileSeed[:from]
		*p.root = savedRoot
		return err
	}

	// Merge the shards in profile order: bulk-append the flat state,
	// shifting the local CSR offsets. Trailing workers get no profiles
	// when need is smaller than their chunk offset; their shards stay
	// zero-valued and are skipped.
	for w := range shards {
		sh := &shards[w]
		if len(sh.activeStart) == 0 {
			continue
		}
		activeBase := int32(len(p.activeItems))
		frontBase := int32(len(p.frontItems))
		p.activeItems = append(p.activeItems, sh.activeItems...)
		p.frontItems = append(p.frontItems, sh.frontItems...)
		p.aux = append(p.aux, sh.Aux...)
		for _, end := range sh.activeStart[1:] {
			p.activeStart = append(p.activeStart, activeBase+end)
		}
		for _, end := range sh.frontStart[1:] {
			p.frontStart = append(p.frontStart, frontBase+end)
		}
		p.baseSum += int64(len(sh.activeItems))
	}
	p.mergeIndex(from)
	p.generation++
	return nil
}

// runShards runs base over the profiles from.. — each one when want is
// nil, else those want marks — split into one contiguous chunk per
// worker, and returns the per-worker shards with the chunk length. It
// is the shard runner Extend and Resample share: cancelable, with
// injected faults and worker panics (as *panicsafe.Error) returned as
// errors. On error the shards are partial and must be discarded; the
// pool itself is never written.
func (p *Pool[S, A]) runShards(ctx context.Context, from int, want []bool, base func(uint64, *Shard[A], S)) ([]Shard[A], int, error) {
	n := len(p.profileSeed) - from
	shards := make([]Shard[A], p.workers)
	var wg sync.WaitGroup
	var stop atomic.Bool // flipped on first failure so sibling shards bail early
	errs := make([]error, p.workers)
	chunk := (n + p.workers - 1) / p.workers
	for w := 0; w < p.workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			err := panicsafe.Do(func() {
				if e := faults.CheckContext(ctx, faults.PoolBuildShard); e != nil {
					errs[w] = e
					stop.Store(true)
					return
				}
				s := p.getScratch()
				defer p.putScratch(s)
				sh := &shards[w]
				sh.activeStart = append(sh.activeStart, 0)
				sh.frontStart = append(sh.frontStart, 0)
				for i := lo; i < hi; i++ {
					if (i-lo)%cancelStride == 0 && (stop.Load() || ctx.Err() != nil) {
						errs[w] = ctx.Err()
						stop.Store(true)
						return
					}
					if want == nil || want[from+i] {
						base(p.profileSeed[from+i], sh, s)
					}
				}
			})
			if err != nil {
				errs[w] = err
				stop.Store(true)
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return shards, chunk, nil
}

// mergeIndex adds the frontiers of profiles from.. to the inverted
// index: count the batch contribution per node, then interleave old and
// new posting lists in one O(old+new) pass.
func (p *Pool[S, A]) mergeIndex(from int) {
	n := p.g.N()
	counts := make([]int32, n)
	for _, v := range p.frontItems[p.frontStart[from]:] {
		counts[v]++
	}
	newStart := make([]int32, n+1)
	for v := 0; v < n; v++ {
		newStart[v+1] = newStart[v] + (p.idxStart[v+1] - p.idxStart[v]) + counts[v]
	}
	newItems := make([]int32, newStart[n])
	next := counts // reuse as per-node write cursors
	for v := 0; v < n; v++ {
		old := p.idxItems[p.idxStart[v]:p.idxStart[v+1]]
		copy(newItems[newStart[v]:], old)
		next[v] = newStart[v] + int32(len(old))
	}
	for pi := from; pi < len(p.profileSeed); pi++ {
		for _, v := range p.frontItems[p.frontStart[pi]:p.frontStart[pi+1]] {
			newItems[next[v]] = int32(pi)
			next[v]++
		}
	}
	p.idxStart, p.idxItems = newStart, newItems
}
