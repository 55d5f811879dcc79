// Package qss implements CrowdLearn's Query Set Selection module
// (Section IV-A): a query-by-committee active-learning scheme that decides
// which images to send to the crowd each sensing cycle.
//
// A committee of DDA experts votes on every unseen image; the weighted,
// normalised vote (Eq. 2) yields a committee entropy (Eq. 3) measuring how
// uncertain the AI is. Images are ranked by entropy and selected with an
// epsilon-greedy rule (Algorithm 1): with probability 1-ε take the most
// uncertain remaining image, with probability ε take a uniformly random
// remaining one. The exploration term is what catches the images on which
// every expert is confidently wrong (fakes), which pure uncertainty
// sampling would never query.
package qss

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// Committee is a set of weighted DDA experts (Definitions 4, 5, 7).
//
// Voting, entropy and classification are safe for concurrent use: the
// weight vector is copy-on-write (SetWeights installs a fresh slice under
// the mutex, readers snapshot the pointer), and all vote temporaries come
// from a scratch pool.
type Committee struct {
	experts []classifier.Expert

	// mu guards weights. MIC replaces the slice wholesale after each
	// sensing cycle while scoring goroutines read it; readers take a
	// pointer snapshot and never see a partially written vector.
	mu      sync.RWMutex
	weights []float64

	// scratch pools per-vote aggregation buffers so the entropy scoring
	// path allocates nothing per image.
	scratch sync.Pool
}

// voteScratch is one scorer's reusable buffers: agg aggregates the
// committee vote, tmp receives individual expert votes.
type voteScratch struct {
	agg, tmp []float64
}

// NewCommittee builds a committee with uniform expert weights.
func NewCommittee(experts ...classifier.Expert) (*Committee, error) {
	if len(experts) == 0 {
		return nil, errors.New("qss: committee needs at least one expert")
	}
	w := make([]float64, len(experts))
	mathx.Fill(w, 1/float64(len(experts)))
	return &Committee{experts: experts, weights: w}, nil
}

// Experts returns the committee members (shared slice; treat as
// read-only).
func (c *Committee) Experts() []classifier.Expert { return c.experts }

// Size returns the number of experts M.
func (c *Committee) Size() int { return len(c.experts) }

// Weights returns a copy of the current expert weights.
func (c *Committee) Weights() []float64 { return mathx.Clone(c.weightsRef()) }

// weightsRef snapshots the current weight slice. SetWeights never mutates
// an installed slice, so the snapshot is safe to read lock-free.
func (c *Committee) weightsRef() []float64 {
	c.mu.RLock()
	w := c.weights
	c.mu.RUnlock()
	return w
}

// SetWeights replaces the expert weights; they are renormalised to sum to
// one. The MIC module calls this after each sensing cycle. The new vector
// is installed copy-on-write, so concurrent voters see either the old or
// the new weights in full, never a mix.
func (c *Committee) SetWeights(w []float64) error {
	if len(w) != len(c.experts) {
		return fmt.Errorf("qss: %d weights for %d experts", len(w), len(c.experts))
	}
	for _, x := range w {
		if x < 0 {
			return errors.New("qss: weights must be non-negative")
		}
	}
	cp := mathx.Clone(w)
	mathx.Normalize(cp)
	c.mu.Lock()
	c.weights = cp
	c.mu.Unlock()
	return nil
}

// RestoreWeights installs a checkpointed weight vector verbatim, the
// restore counterpart of Weights. Unlike SetWeights it does not
// renormalise: renormalising an already normalised vector is not
// idempotent in float64 (the last bits can move), and a restored system
// must vote with exactly the weights of the one that wrote the
// checkpoint. The vector must hold one finite, non-negative weight per
// expert with a positive sum.
func (c *Committee) RestoreWeights(w []float64) error {
	if len(w) != len(c.experts) {
		return fmt.Errorf("qss: %d weights for %d experts", len(w), len(c.experts))
	}
	var sum float64
	for _, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("qss: restored weight %v is not a finite non-negative number", x)
		}
		sum += x
	}
	if !(sum > 0) || math.IsInf(sum, 0) {
		return fmt.Errorf("qss: restored weights sum to %v", sum)
	}
	cp := mathx.Clone(w)
	c.mu.Lock()
	c.weights = cp
	c.mu.Unlock()
	return nil
}

// scoreGrain is the chunking cost hint for per-image committee scoring
// (~microseconds per image: one pooled forward pass per member), so
// small per-cycle image windows collapse to the inline path instead of
// paying goroutine handoffs they cannot amortize.
var scoreGrain = parallel.Grain{CostNs: 4_000}

// MemberVotes returns each expert's raw vote distribution for the image.
func (c *Committee) MemberVotes(im *imagery.Image) [][]float64 {
	votes := make([][]float64, len(c.experts))
	for m, e := range c.experts {
		votes[m] = e.Predict(im)
	}
	return votes
}

// Vote computes the committee vote rho (Eq. 2): the weight-blended member
// distributions, normalised to a probability vector. The returned slice
// is freshly allocated; Vote is safe for concurrent use.
func (c *Committee) Vote(im *imagery.Image) []float64 {
	return c.VoteInto(im, make([]float64, imagery.NumLabels))
}

// VoteInto is Vote writing into dst (len == imagery.NumLabels). With
// experts that implement classifier.IntoPredictor the call allocates
// nothing.
func (c *Committee) VoteInto(im *imagery.Image, dst []float64) []float64 {
	sc := c.getScratch()
	c.voteInto(im, dst, sc.tmp)
	c.scratch.Put(sc)
	return dst
}

func (c *Committee) getScratch() *voteScratch {
	sc, _ := c.scratch.Get().(*voteScratch)
	if sc == nil {
		sc = &voteScratch{
			agg: make([]float64, imagery.NumLabels),
			tmp: make([]float64, imagery.NumLabels),
		}
	}
	return sc
}

// voteInto aggregates the weighted expert votes into dst, routing expert
// predictions through tmp.
func (c *Committee) voteInto(im *imagery.Image, dst, tmp []float64) {
	weights := c.weightsRef()
	mathx.Fill(dst, 0)
	for m, e := range c.experts {
		if weights[m] == 0 {
			continue
		}
		vote := tmp
		if ip, ok := e.(classifier.IntoPredictor); ok {
			ip.PredictInto(im, tmp)
		} else {
			vote = e.Predict(im)
		}
		mathx.AddScaled(dst, weights[m], vote)
	}
	mathx.Normalize(dst)
}

// Entropy computes the committee entropy H (Eq. 3, Definition 8) of the
// image: the Shannon entropy of the normalised committee vote.
// Allocation-free and safe for concurrent use.
func (c *Committee) Entropy(im *imagery.Image) float64 {
	sc := c.getScratch()
	c.voteInto(im, sc.agg, sc.tmp)
	h := mathx.Entropy(sc.agg)
	c.scratch.Put(sc)
	return h
}

// Classify returns the committee's final label for the image: the argmax
// of the committee vote. Allocation-free and safe for concurrent use.
func (c *Committee) Classify(im *imagery.Image) imagery.Label {
	sc := c.getScratch()
	c.voteInto(im, sc.agg, sc.tmp)
	label := imagery.Label(mathx.ArgMax(sc.agg))
	c.scratch.Put(sc)
	return label
}

// Selector implements the epsilon-greedy query set selection of
// Algorithm 1.
type Selector struct {
	// Epsilon is the exploration probability (paper's ε-greedy strategy).
	Epsilon float64
	// Workers caps the parallel entropy-scoring fan-out (0 = GOMAXPROCS,
	// 1 = sequential). Every score lands in its own index slot, so the
	// ranking — and therefore the ε-greedy selection, which must consume
	// the RNG stream in a fixed order — is identical at any value.
	Workers int
	rng     *rand.Rand
}

// NewSelector builds a selector. Epsilon must lie in [0, 1].
func NewSelector(epsilon float64, seed int64) (*Selector, error) {
	if epsilon < 0 || epsilon > 1 {
		return nil, fmt.Errorf("qss: epsilon %v outside [0, 1]", epsilon)
	}
	return &Selector{Epsilon: epsilon, rng: mathx.NewRand(seed)}, nil
}

// Select picks querySize image indices out of images following
// Algorithm 1: build the entropy-sorted list (high to low), then
// repeatedly pop the head with probability 1-ε or a uniformly random
// element with probability ε. Returns the selected indices in selection
// order. querySize larger than len(images) selects everything.
func (s *Selector) Select(c *Committee, images []*imagery.Image, querySize int) []int {
	if querySize <= 0 || len(images) == 0 {
		return nil
	}
	if querySize > len(images) {
		querySize = len(images)
	}
	list := make([]scoredImage, len(images))
	parallel.ForGrain(s.Workers, len(images), scoreGrain, func(i int) {
		list[i] = scoredImage{idx: i, entropy: c.Entropy(images[i])}
	})
	// Sort high-to-low entropy; ties break by index for determinism.
	sort.Slice(list, func(i, j int) bool {
		if list[i].entropy != list[j].entropy {
			return list[i].entropy > list[j].entropy
		}
		return list[i].idx < list[j].idx
	})

	out := make([]int, 0, querySize)
	for len(out) < querySize {
		pick := 0
		if mathx.Bernoulli(s.rng, s.Epsilon) {
			pick = s.rng.Intn(len(list))
		}
		out = append(out, list[pick].idx)
		list = append(list[:pick], list[pick+1:]...)
	}
	return out
}

// scoredImage pairs an image index with its committee entropy.
type scoredImage struct {
	idx     int
	entropy float64
}
