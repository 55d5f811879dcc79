package gbdt

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// adversary returns an input of length n on which the pdqsort in
// sort.Slice degrades: McIlroy's antiquicksort freezes values only as
// the sort compares them, so the frozen input makes every pivot a bad
// one. Since sortKeyed makes the same comparisons, it too runs
// breakPatterns and falls back to heapsort on it. Frozen values are
// the freeze count divided by tie (rounded down), so tie > 1 gives the
// heapsort fallback tied values to order.
func adversary(n, tie int) []float64 {
	gas := float64(n)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = gas
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	solid := 0
	candidate := 0
	freeze := func(i int) {
		vals[i] = float64(solid / tie)
		solid++
	}
	sort.Slice(idx, func(a, b int) bool {
		x, y := idx[a], idx[b]
		if vals[x] == gas && vals[y] == gas {
			if x == candidate {
				freeze(x)
			} else {
				freeze(y)
			}
		}
		if vals[x] == gas {
			candidate = x
		} else if vals[y] == gas {
			candidate = y
		}
		return vals[x] < vals[y]
	})
	return vals
}

// sortPatterns are the value sequences TestSortKeyedMatchesSortSlice
// sorts at each length: random values with many ties, sorted, reversed,
// all equal, few distinct values, and the antiquicksort adversary with
// and without ties.
var sortPatterns = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"tie-heavy", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(n/4+1)) / 8
		}
		return out
	}},
	{"sorted", func(_ *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i / 3)
		}
		return out
	}},
	{"reversed", func(_ *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}},
	{"all-equal", func(_ *rand.Rand, n int) []float64 {
		return make([]float64, n)
	}},
	{"few-distinct", func(rng *rand.Rand, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(rng.Intn(3)) / 3
		}
		return out
	}},
	{"adversary", func(_ *rand.Rand, n int) []float64 {
		return adversary(n, 1)
	}},
	{"adversary-ties", func(_ *rand.Rand, n int) []float64 {
		return adversary(n, 3)
	}},
}

// TestSortKeyedMatchesSortSlice pins the tie order the split search
// depends on: sortKeyed must leave the rows in exactly the order
// sort.Slice with the old comparator leaves the index slice, at every
// length from empty to well past the insertion-sort cutoff, on inputs
// that drive insertion sort, partialInsertionSort, partitionEqual,
// breakPatterns and the heapsort fallback.
func TestSortKeyedMatchesSortSlice(t *testing.T) {
	rng := mathx.NewRand(42)
	var lengths []int
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 100, 257, 500, 1000, 2049, 3000)
	for _, p := range sortPatterns {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/%d", p.name, n), func(t *testing.T) {
				seq := p.gen(rng, n)
				// Rows arrive in a shuffled order, as a node's arena
				// segment does; the k-th row presented holds seq[k], so
				// both sorts see the pattern itself.
				rows := rng.Perm(n)
				vals := make([]float64, n)
				for k, r := range rows {
					vals[r] = seq[k]
				}
				order := append([]int(nil), rows...)
				sort.Slice(order, func(a, c int) bool {
					return vals[order[a]] < vals[order[c]]
				})
				ps := make([]pair, n)
				for k, r := range rows {
					ps[k] = pair{v: vals[r], row: r}
				}
				sortKeyed(ps)
				for k := range ps {
					if ps[k].row != order[k] {
						t.Fatalf("position %d: sortKeyed row %d, sort.Slice row %d", k, ps[k].row, order[k])
					}
				}
			})
		}
	}
}
