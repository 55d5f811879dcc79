// Package gbdt implements gradient-boosted decision trees from scratch,
// the stand-in for XGBoost which the paper's CQC module uses to fuse crowd
// labels and questionnaire answers into a truthful label.
//
// The implementation follows the XGBoost formulation: each boosting round
// fits one regression tree per class to the first- and second-order
// gradients of the softmax cross-entropy objective, with exact greedy
// split finding, gain-based pruning (gamma), leaf-weight L2 regularisation
// (lambda), shrinkage, and optional row subsampling.
package gbdt

import (
	"fmt"
	"math"

	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// node is one tree node. Leaves have feature == -1.
type node struct {
	feature   int
	threshold float64
	left      int // index into tree.nodes
	right     int
	value     float64 // leaf weight
}

// tree is a regression tree over dense feature vectors.
type tree struct {
	nodes []node
}

// predict returns the leaf value for x.
func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := &t.nodes[i]
		if n.feature < 0 {
			return n.value
		}
		if x[n.feature] < n.threshold {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// splitCandidate is the best split found for a node (or one feature of a
// node during the parallel search).
type splitCandidate struct {
	feature   int
	threshold float64
	gain      float64
	// pos is the split position in the feature-sorted node ordering: the
	// left child takes the first pos indices.
	pos   int
	found bool
}

// buildScratch holds the reusable buffers of tree construction; one
// instance is shared across every tree of a training run, so split search
// allocates nothing per node.
type buildScratch struct {
	// workers caps the per-feature split-search fan-out.
	workers int
	// arena holds the node index sets, partitioned in place as the tree
	// grows.
	arena []int
	// pairs[f] is feature f's (value, row) ordering of the node under
	// search. After bestSplit returns, the winning feature's buffer holds
	// the node's rows in the order its children are cut from.
	pairs [][]pair
	// cands[f] is feature f's best split, merged in ascending feature
	// order after the parallel scan.
	cands []splitCandidate
}

func newBuildScratch(workers, numFeatures int) *buildScratch {
	return &buildScratch{
		workers: workers,
		pairs:   make([][]pair, numFeatures),
		cands:   make([]splitCandidate, numFeatures),
	}
}

// sorted fills feature f's pair buffer with the rows of idx and sorts it
// by value. The pinned sort (pdqsort.go) leaves tied values in the order
// sort.Slice over idx would, which fixes the gradient summation order of
// the scan and the children's arena order, hence the model's bits.
func (s *buildScratch) sorted(features [][]float64, idx []int, f int) []pair {
	if cap(s.pairs[f]) < len(idx) {
		s.pairs[f] = make([]pair, len(idx))
	}
	ps := s.pairs[f][:len(idx)]
	for k, i := range idx {
		ps[k] = pair{v: features[i][f], row: i}
	}
	sortKeyed(ps)
	return ps
}

// treeBuilder grows one tree on gradient/hessian targets.
type treeBuilder struct {
	features [][]float64 // row-major samples
	grad     []float64
	hess     []float64
	params   Params
	t        *tree
	// importance accumulates per-feature gain, reported by the classifier.
	importance []float64
	// scratch is shared across the trees of one training run.
	scratch *buildScratch
}

// build grows the tree from the given sample indices and returns it. idx
// is copied into the scratch arena, so the caller's slice is untouched.
func (b *treeBuilder) build(idx []int) *tree {
	b.t = &tree{}
	if b.scratch == nil {
		b.scratch = newBuildScratch(b.params.Workers, len(b.features[0]))
	}
	b.scratch.arena = append(b.scratch.arena[:0], idx...)
	b.grow(b.scratch.arena, 0)
	return b.t
}

// grow recursively expands a node; returns its index in the node arena.
func (b *treeBuilder) grow(idx []int, depth int) int {
	self := len(b.t.nodes)
	b.t.nodes = append(b.t.nodes, node{feature: -1})

	var g, h float64
	for _, i := range idx {
		g += b.grad[i]
		h += b.hess[i]
	}
	// Newton leaf weight with L2 regularisation.
	b.t.nodes[self].value = -g / (h + b.params.Lambda)

	if depth >= b.params.MaxDepth || len(idx) < 2*b.params.MinSamplesLeaf {
		return self
	}
	best := b.bestSplit(idx, g, h)
	if !best.found || best.gain <= b.params.Gamma {
		return self
	}
	b.importance[best.feature] += best.gain

	// Partition in place: the winning feature's sorted pairs are the
	// node's rows in split order, so writing them back over the node's
	// arena segment and slicing at the split position yields the
	// children without copying.
	for k, p := range b.scratch.pairs[best.feature][:len(idx)] {
		idx[k] = p.row
	}
	left := b.grow(idx[:best.pos], depth+1)
	right := b.grow(idx[best.pos:], depth+1)
	b.t.nodes[self].feature = best.feature
	b.t.nodes[self].threshold = best.threshold
	b.t.nodes[self].left = left
	b.t.nodes[self].right = right
	return self
}

// splitRowNs is the order-of-magnitude split-search cost per node row of
// one feature (fill, sort and scan), the per-node cost hint that keeps
// small nodes' searches on the caller's goroutine.
const splitRowNs = 20

// bestSplit performs exact greedy split finding, fanning the per-feature
// scans out across workers when the node is large enough to pay for it.
// Each feature's scan keeps its first maximum-gain position (strict
// improvement over ascending positions); the sequential merge keeps the
// first maximum over ascending features. The winner is therefore the
// first candidate in lexicographic (feature, position) order attaining
// the global maximum gain — exactly what a sequential flat scan selects
// — at any worker count.
func (b *treeBuilder) bestSplit(idx []int, gTotal, hTotal float64) splitCandidate {
	numFeatures := len(b.features[0])
	lam := b.params.Lambda
	parentScore := gTotal * gTotal / (hTotal + lam)
	s := b.scratch
	cands := s.cands[:numFeatures]
	grain := parallel.Grain{CostNs: splitRowNs * int64(len(idx))}
	parallel.ForGrain(s.workers, numFeatures, grain, func(f int) {
		ps := s.sorted(b.features, idx, f)
		best := splitCandidate{feature: f}
		var gl, hl float64
		for pos := 0; pos < len(ps)-1; pos++ {
			i := ps[pos].row
			gl += b.grad[i]
			hl += b.hess[i]
			v, next := ps[pos].v, ps[pos+1].v
			if v == next {
				continue // can't split between equal values
			}
			nl := pos + 1
			nr := len(ps) - nl
			if nl < b.params.MinSamplesLeaf || nr < b.params.MinSamplesLeaf {
				continue
			}
			gr := gTotal - gl
			hr := hTotal - hl
			gain := gl*gl/(hl+lam) + gr*gr/(hr+lam) - parentScore
			if !best.found || gain > best.gain {
				best.found = true
				best.threshold = (v + next) / 2
				best.gain = gain
				best.pos = nl
			}
		}
		cands[f] = best
	})
	var best splitCandidate
	for f := range cands {
		if cands[f].found && (!best.found || cands[f].gain > best.gain) {
			best = cands[f]
		}
	}
	return best
}

// validate sanity-checks a learned tree (used in tests).
func (t *tree) validate(numFeatures int) error {
	for i, n := range t.nodes {
		if n.feature >= numFeatures {
			return fmt.Errorf("gbdt: node %d references feature %d of %d", i, n.feature, numFeatures)
		}
		if n.feature >= 0 {
			if n.left <= i || n.right <= i || n.left >= len(t.nodes) || n.right >= len(t.nodes) {
				return fmt.Errorf("gbdt: node %d has invalid children %d/%d", i, n.left, n.right)
			}
		}
		if math.IsNaN(n.value) || math.IsInf(n.value, 0) {
			return fmt.Errorf("gbdt: node %d has non-finite value", i)
		}
	}
	return nil
}
