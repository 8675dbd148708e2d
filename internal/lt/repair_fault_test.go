package lt

import (
	"errors"
	"fmt"
	"testing"

	"github.com/kboost/kboost/internal/faults"
	"github.com/kboost/kboost/internal/panicsafe"
	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestLTRepairShardFailureLeavesPool: a repair whose resampling shard
// panics or hits an injected error must return the error and leave the
// pool exactly as it was — graph, norms, profiles, index and
// generation — and a retry without the fault must still match a cold
// rebuild on the patched graph.
func TestLTRepairShardFailureLeavesPool(t *testing.T) {
	t.Cleanup(faults.Reset)
	for _, mode := range []string{"panic", "error"} {
		r := rng.New(17)
		g := testutil.RandomGraph(r, 25, 90, 0.5)
		seeds := []int32{0, 1}
		pool, err := NewPool(g, seeds, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(400)
		d := randomLTDelta(t, r, g, 2, 2, 2)
		g2, eff, err := g.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		gen, norm := pool.Generation(), pool.Norms()
		before := fmt.Sprint(profiles(pool), frontierIndex(pool))

		faults.Enable(faults.PoolBuildShard, faults.Fault{Mode: mode, Count: 1})
		_, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0)
		faults.Reset()
		var pe *panicsafe.Error
		if mode == "panic" && !errors.As(err, &pe) {
			t.Fatalf("%s: Repair returned %v, want a contained panic", mode, err)
		}
		if mode == "error" && !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("%s: Repair returned %v, want the injected error", mode, err)
		}
		if ok {
			t.Fatalf("%s: failed repair reported ok", mode)
		}
		if pool.Graph() != g || pool.g != g || &pool.Norms()[0] != &norm[0] || pool.Generation() != gen {
			t.Fatalf("%s: failed repair swapped the graph, norms or generation", mode)
		}
		if after := fmt.Sprint(profiles(pool), frontierIndex(pool)); after != before {
			t.Fatalf("%s: failed repair changed the profiles", mode)
		}

		if _, ok, err := pool.Repair(g2, eff.DirtyOut, eff.DirtyIn, 1.0); err != nil || !ok {
			t.Fatalf("%s: retry: ok=%v err=%v", mode, ok, err)
		}
		cold, err := NewPool(g2, seeds, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		cold.Extend(400)
		sameLTPoolBits(t, mode+" retry", pool, cold, 3)
	}
}
