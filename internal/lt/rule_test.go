package lt

import (
	"testing"

	"github.com/kboost/kboost/internal/rng"
	"github.com/kboost/kboost/internal/testutil"
)

// TestEvalExtraMatchesMask pins the rule's Eval contract for the
// tentative candidate: evaluating bset ∪ {extra} with extra passed
// separately (outside bset and the mask) must count exactly the
// activations of evaluating the same set with extra in both.
func TestEvalExtraMatchesMask(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 10; trial++ {
		n := 15 + r.Intn(20)
		g := testutil.RandomGraph(r, n, 2*n+r.Intn(3*n), 0.5)
		pool, err := NewPool(g, randomSeedSet(r, n), uint64(trial)+1, 1)
		if err != nil {
			t.Fatal(err)
		}
		pool.Extend(200)
		s := newScratch(n)
		mask := make([]bool, n)
		var bset []int32
		for v := int32(0); int(v) < n; v++ {
			if r.Intn(4) == 0 {
				mask[v] = true
				bset = append(bset, v)
			}
		}
		if len(bset) < 2 {
			continue
		}
		extra := bset[r.Intn(len(bset))]
		var rest []int32
		for _, v := range bset {
			if v != extra {
				rest = append(rest, v)
			}
		}
		mask[extra] = false
		restMask := append([]bool(nil), mask...)
		mask[extra] = true
		for pi := 0; pi < pool.NumProfiles(); pi++ {
			want := pool.eval(pi, bset, mask, -1, s)
			if got := pool.eval(pi, rest, restMask, extra, s); got != want {
				t.Fatalf("trial %d profile %d: eval with extra %d = %d, with %d in the mask = %d", trial, pi, extra, got, extra, want)
			}
		}
	}
}
