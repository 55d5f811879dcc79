// This file is the Go toolchain's pattern-defeating quicksort
// (slices/zsortanyfunc.go, generated by sort/gen_sort_variants.go)
// specialised to split-search pairs, with the comparison a.v < b.v
// inlined. It is kept here, rather than calling sort.Slice, because the
// permutation it produces on tied values is part of every trained
// model's bits (DESIGN.md §9): pinning the code pins the tie order
// against toolchain upgrades. Each function makes the same comparisons
// and swaps, in the same order, as its sort.Slice counterpart
// (TestSortKeyedMatchesSortSlice).
//
// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style license:
//
// Copyright 2009 The Go Authors.
//
// Redistribution and use in source and binary forms, with or without
// modification, are permitted provided that the following conditions are
// met:
//
//   - Redistributions of source code must retain the above copyright
//     notice, this list of conditions and the following disclaimer.
//   - Redistributions in binary form must reproduce the above
//     copyright notice, this list of conditions and the following disclaimer
//     in the documentation and/or other materials provided with the
//     distribution.
//   - Neither the name of Google LLC nor the names of its
//     contributors may be used to endorse or promote products derived from
//     this software without specific prior written permission.
//
// THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
// "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
// LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
// A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
// OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
// SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
// LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
// DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
// THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
// (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
// OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

package gbdt

import "math/bits"

// pair is one row of a node's per-feature ordering: the row's value of
// the feature under search, and the row's index.
type pair struct {
	v   float64
	row int
}

// sortKeyed sorts data by ascending v, leaving tied pairs in exactly
// the order sort.Slice with the comparator data[i].v < data[j].v
// leaves them.
func sortKeyed(data []pair) {
	n := len(data)
	pdqsortKeyed(data, 0, n, bits.Len(uint(n)))
}

// insertionSortKeyed sorts data[a:b] using insertion sort.
func insertionSortKeyed(data []pair, a, b int) {
	for i := a + 1; i < b; i++ {
		for j := i; j > a && data[j].v < data[j-1].v; j-- {
			data[j], data[j-1] = data[j-1], data[j]
		}
	}
}

// siftDownKeyed implements the heap property on data[lo:hi].
// first is an offset into the array where the root of the heap lies.
func siftDownKeyed(data []pair, lo, hi, first int) {
	root := lo
	for {
		child := 2*root + 1
		if child >= hi {
			break
		}
		if child+1 < hi && data[first+child].v < data[first+child+1].v {
			child++
		}
		if !(data[first+root].v < data[first+child].v) {
			return
		}
		data[first+root], data[first+child] = data[first+child], data[first+root]
		root = child
	}
}

func heapSortKeyed(data []pair, a, b int) {
	first := a
	lo := 0
	hi := b - a

	// Build heap with greatest element at top.
	for i := (hi - 1) / 2; i >= 0; i-- {
		siftDownKeyed(data, i, hi, first)
	}

	// Pop elements, largest first, into end of data.
	for i := hi - 1; i >= 0; i-- {
		data[first], data[first+i] = data[first+i], data[first]
		siftDownKeyed(data, lo, i, first)
	}
}

// pdqsortKeyed sorts data[a:b].
// The algorithm based on pattern-defeating quicksort(pdqsort), but without the optimizations from BlockQuicksort.
// pdqsort paper: https://arxiv.org/pdf/2106.05123.pdf
// limit is the number of allowed bad (very unbalanced) pivots before falling back to heapsort.
func pdqsortKeyed(data []pair, a, b, limit int) {
	const maxInsertion = 12

	var (
		wasBalanced    = true // whether the last partitioning was reasonably balanced
		wasPartitioned = true // whether the slice was already partitioned
	)

	for {
		length := b - a

		if length <= maxInsertion {
			insertionSortKeyed(data, a, b)
			return
		}

		// Fall back to heapsort if too many bad choices were made.
		if limit == 0 {
			heapSortKeyed(data, a, b)
			return
		}

		// If the last partitioning was imbalanced, we need to breaking patterns.
		if !wasBalanced {
			breakPatternsKeyed(data, a, b)
			limit--
		}

		pivot, hint := choosePivotKeyed(data, a, b)
		if hint == decreasingHint {
			reverseRangeKeyed(data, a, b)
			// The chosen pivot was pivot-a elements after the start of the array.
			// After reversing it is pivot-a elements before the end of the array.
			pivot = (b - 1) - (pivot - a)
			hint = increasingHint
		}

		// The slice is likely already sorted.
		if wasBalanced && wasPartitioned && hint == increasingHint {
			if partialInsertionSortKeyed(data, a, b) {
				return
			}
		}

		// Probably the slice contains many duplicate elements, partition the slice into
		// elements equal to and elements greater than the pivot.
		if a > 0 && !(data[a-1].v < data[pivot].v) {
			mid := partitionEqualKeyed(data, a, b, pivot)
			a = mid
			continue
		}

		mid, alreadyPartitioned := partitionKeyed(data, a, b, pivot)
		wasPartitioned = alreadyPartitioned

		leftLen, rightLen := mid-a, b-mid
		balanceThreshold := length / 8
		if leftLen < rightLen {
			wasBalanced = leftLen >= balanceThreshold
			pdqsortKeyed(data, a, mid, limit)
			a = mid + 1
		} else {
			wasBalanced = rightLen >= balanceThreshold
			pdqsortKeyed(data, mid+1, b, limit)
			b = mid
		}
	}
}

// partitionKeyed does one quicksort partition.
// Let p = data[pivot]
// Moves elements in data[a:b] around, so that data[i]<p and data[j]>=p for i<newpivot and j>newpivot.
// On return, data[newpivot] = p
func partitionKeyed(data []pair, a, b, pivot int) (newpivot int, alreadyPartitioned bool) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for i <= j && data[i].v < data[a].v {
		i++
	}
	for i <= j && !(data[j].v < data[a].v) {
		j--
	}
	if i > j {
		data[j], data[a] = data[a], data[j]
		return j, true
	}
	data[i], data[j] = data[j], data[i]
	i++
	j--

	for {
		for i <= j && data[i].v < data[a].v {
			i++
		}
		for i <= j && !(data[j].v < data[a].v) {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	data[j], data[a] = data[a], data[j]
	return j, false
}

// partitionEqualKeyed partitions data[a:b] into elements equal to data[pivot] followed by elements greater than data[pivot].
// It assumed that data[a:b] does not contain elements smaller than the data[pivot].
func partitionEqualKeyed(data []pair, a, b, pivot int) (newpivot int) {
	data[a], data[pivot] = data[pivot], data[a]
	i, j := a+1, b-1 // i and j are inclusive of the elements remaining to be partitioned

	for {
		for i <= j && !(data[a].v < data[i].v) {
			i++
		}
		for i <= j && data[a].v < data[j].v {
			j--
		}
		if i > j {
			break
		}
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
	return i
}

// partialInsertionSortKeyed partially sorts a slice, returns true if the slice is sorted at the end.
func partialInsertionSortKeyed(data []pair, a, b int) bool {
	const (
		maxSteps         = 5  // maximum number of adjacent out-of-order pairs that will get shifted
		shortestShifting = 50 // don't shift any elements on short arrays
	)
	i := a + 1
	for j := 0; j < maxSteps; j++ {
		for i < b && !(data[i].v < data[i-1].v) {
			i++
		}

		if i == b {
			return true
		}

		if b-a < shortestShifting {
			return false
		}

		data[i], data[i-1] = data[i-1], data[i]

		// Shift the smaller one to the left.
		if i-a >= 2 {
			for j := i - 1; j >= 1; j-- {
				if !(data[j].v < data[j-1].v) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
		// Shift the greater one to the right.
		if b-i >= 2 {
			for j := i + 1; j < b; j++ {
				if !(data[j].v < data[j-1].v) {
					break
				}
				data[j], data[j-1] = data[j-1], data[j]
			}
		}
	}
	return false
}

// breakPatternsKeyed scatters some elements around in an attempt to break some patterns
// that might cause imbalanced partitions in quicksort.
func breakPatternsKeyed(data []pair, a, b int) {
	length := b - a
	if length >= 8 {
		random := xorshift(length)
		modulus := nextPowerOfTwo(length)

		for idx := a + (length/4)*2 - 1; idx <= a+(length/4)*2+1; idx++ {
			other := int(uint(random.Next()) & (modulus - 1))
			if other >= length {
				other -= length
			}
			data[idx], data[a+other] = data[a+other], data[idx]
		}
	}
}

// choosePivotKeyed chooses a pivot in data[a:b].
//
// [0,8): chooses a static pivot.
// [8,shortestNinther): uses the simple median-of-three method.
// [shortestNinther,∞): uses the Tukey ninther method.
func choosePivotKeyed(data []pair, a, b int) (pivot int, hint sortedHint) {
	const (
		shortestNinther = 50
		maxSwaps        = 4 * 3
	)

	l := b - a

	var (
		swaps int
		i     = a + l/4*1
		j     = a + l/4*2
		k     = a + l/4*3
	)

	if l >= 8 {
		if l >= shortestNinther {
			// Tukey ninther method, the idea came from Rust's implementation.
			i = medianAdjacentKeyed(data, i, &swaps)
			j = medianAdjacentKeyed(data, j, &swaps)
			k = medianAdjacentKeyed(data, k, &swaps)
		}
		// Find the median among i, j, k and stores it into j.
		j = medianKeyed(data, i, j, k, &swaps)
	}

	switch swaps {
	case 0:
		return j, increasingHint
	case maxSwaps:
		return j, decreasingHint
	default:
		return j, unknownHint
	}
}

// order2Keyed returns x,y where data[x] <= data[y], where x,y=a,b or x,y=b,a.
func order2Keyed(data []pair, a, b int, swaps *int) (int, int) {
	if data[b].v < data[a].v {
		*swaps++
		return b, a
	}
	return a, b
}

// medianKeyed returns x where data[x] is the median of data[a],data[b],data[c], where x is a, b, or c.
func medianKeyed(data []pair, a, b, c int, swaps *int) int {
	a, b = order2Keyed(data, a, b, swaps)
	b, c = order2Keyed(data, b, c, swaps)
	a, b = order2Keyed(data, a, b, swaps)
	return b
}

// medianAdjacentKeyed finds the median of data[a - 1], data[a], data[a + 1] and stores the index into a.
func medianAdjacentKeyed(data []pair, a int, swaps *int) int {
	return medianKeyed(data, a-1, a, a+1, swaps)
}

func reverseRangeKeyed(data []pair, a, b int) {
	i := a
	j := b - 1
	for i < j {
		data[i], data[j] = data[j], data[i]
		i++
		j--
	}
}

type sortedHint int // hint for pdqsort when choosing the pivot

const (
	unknownHint sortedHint = iota
	increasingHint
	decreasingHint
)

// xorshift paper: https://www.jstatsoft.org/article/view/v008i14/xorshift.pdf
type xorshift uint64

func (r *xorshift) Next() uint64 {
	*r ^= *r << 13
	*r ^= *r >> 7
	*r ^= *r << 17
	return uint64(*r)
}

func nextPowerOfTwo(length int) uint {
	return 1 << bits.Len(uint(length))
}
