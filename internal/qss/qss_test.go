package qss

import (
	"math"
	"slices"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// stubExpert returns a fixed distribution per image based on a function.
type stubExpert struct {
	name string
	fn   func(im *imagery.Image) []float64
}

func (s *stubExpert) Name() string                        { return s.name }
func (s *stubExpert) Train([]classifier.Sample) error     { return nil }
func (s *stubExpert) Update([]classifier.Sample) error    { return nil }
func (s *stubExpert) Predict(im *imagery.Image) []float64 { return s.fn(im) }
func (s *stubExpert) PerImageCost() time.Duration         { return time.Second }

var _ classifier.Expert = (*stubExpert)(nil)

func constExpert(name string, dist []float64) *stubExpert {
	return &stubExpert{name: name, fn: func(*imagery.Image) []float64 { return mathx.Clone(dist) }}
}

func images(n int) []*imagery.Image {
	out := make([]*imagery.Image, n)
	for i := range out {
		out[i] = &imagery.Image{ID: i}
	}
	return out
}

func TestNewCommitteeValidation(t *testing.T) {
	if _, err := NewCommittee(); err == nil {
		t.Error("empty committee must be rejected")
	}
}

func TestCommitteeUniformInitialWeights(t *testing.T) {
	c, err := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	w := c.Weights()
	if w[0] != 0.5 || w[1] != 0.5 {
		t.Errorf("initial weights %v, want uniform", w)
	}
	if c.Size() != 2 {
		t.Errorf("Size = %d", c.Size())
	}
}

// TestRestoreWeightsVerbatim: a normalised vector on which
// renormalising is not a fixed point comes back from SetWeights with
// moved bits but from RestoreWeights exactly as given; invalid vectors
// are refused.
func TestRestoreWeightsVerbatim(t *testing.T) {
	c, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 1, 0}), constExpert("c", []float64{0, 0, 1}))
	rng := mathx.NewRand(1)
	var w []float64
	for w == nil {
		v := mathx.Normalized([]float64{rng.Float64(), rng.Float64(), rng.Float64() / 300})
		if again := mathx.Normalized(v); !slices.Equal(again, v) {
			w = v
		}
	}
	if err := c.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(c.Weights(), w) {
		t.Fatal("SetWeights kept a vector that renormalising moves; the probe proves nothing")
	}
	if err := c.RestoreWeights(w); err != nil {
		t.Fatal(err)
	}
	if got := c.Weights(); !slices.Equal(got, w) {
		t.Errorf("RestoreWeights installed %v, want %v verbatim", got, w)
	}
	for _, bad := range [][]float64{{0.5, 0.5}, {-0.1, 0.6, 0.5}, {math.NaN(), 0.5, 0.5}, {math.Inf(1), 0, 0}, {0, 0, 0}} {
		if err := c.RestoreWeights(bad); err == nil {
			t.Errorf("RestoreWeights(%v) must error", bad)
		}
	}
}

func TestCommitteeVoteEquation2(t *testing.T) {
	// Two experts with known distributions and weights 0.75/0.25:
	// rho = 0.75*[1,0,0] + 0.25*[0,1,0] = [0.75, 0.25, 0].
	c, err := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 1, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetWeights([]float64{0.75, 0.25}); err != nil {
		t.Fatal(err)
	}
	v := c.Vote(&imagery.Image{})
	want := []float64{0.75, 0.25, 0}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("Vote = %v, want %v", v, want)
		}
	}
	if got := c.Classify(&imagery.Image{}); got != imagery.NoDamage {
		t.Errorf("Classify = %v, want no-damage", got)
	}
}

func TestSetWeightsValidation(t *testing.T) {
	c, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}))
	if err := c.SetWeights([]float64{0.5, 0.5}); err == nil {
		t.Error("wrong weight count must error")
	}
	if err := c.SetWeights([]float64{-1}); err == nil {
		t.Error("negative weight must error")
	}
	// Weights renormalise.
	c2, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 1, 0}))
	if err := c2.SetWeights([]float64{2, 6}); err != nil {
		t.Fatal(err)
	}
	w := c2.Weights()
	if math.Abs(w[0]-0.25) > 1e-12 || math.Abs(w[1]-0.75) > 1e-12 {
		t.Errorf("weights %v, want [0.25 0.75]", w)
	}
}

func TestCommitteeEntropyExtremes(t *testing.T) {
	agree, _ := NewCommittee(
		constExpert("a", []float64{1, 0, 0}),
		constExpert("b", []float64{1, 0, 0}),
	)
	if h := agree.Entropy(&imagery.Image{}); h > 1e-9 {
		t.Errorf("agreeing committee entropy %v, want ~0", h)
	}
	disagree, _ := NewCommittee(
		constExpert("a", []float64{1, 0, 0}),
		constExpert("b", []float64{0, 1, 0}),
		constExpert("c", []float64{0, 0, 1}),
	)
	if h := disagree.Entropy(&imagery.Image{}); math.Abs(h-mathx.MaxEntropy(3)) > 1e-9 {
		t.Errorf("fully split committee entropy %v, want log 3", h)
	}
}

func TestMemberVotes(t *testing.T) {
	c, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 0, 1}))
	votes := c.MemberVotes(&imagery.Image{})
	if len(votes) != 2 || votes[0][0] != 1 || votes[1][2] != 1 {
		t.Errorf("member votes wrong: %v", votes)
	}
}

func TestZeroWeightExpertIgnored(t *testing.T) {
	c, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}), constExpert("b", []float64{0, 1, 0}))
	if err := c.SetWeights([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	v := c.Vote(&imagery.Image{})
	if v[0] != 1 {
		t.Errorf("zero-weight expert should not contribute: %v", v)
	}
}

func TestNewSelectorValidation(t *testing.T) {
	if _, err := NewSelector(-0.1, 1); err == nil {
		t.Error("negative epsilon must be rejected")
	}
	if _, err := NewSelector(1.1, 1); err == nil {
		t.Error("epsilon > 1 must be rejected")
	}
}

// entropyByID makes a committee whose entropy is a deterministic function
// of the image ID: higher ID -> higher entropy.
func entropyByID(n int) *Committee {
	e := &stubExpert{name: "byid", fn: func(im *imagery.Image) []float64 {
		// Blend between a certain and a uniform distribution by ID.
		alpha := float64(im.ID) / float64(n)
		d := []float64{1 - alpha + alpha/3, alpha / 3, alpha / 3}
		mathx.Normalize(d)
		return d
	}}
	c, err := NewCommittee(e)
	if err != nil {
		panic(err)
	}
	return c
}

func TestSelectGreedyPicksHighestEntropy(t *testing.T) {
	n := 20
	c := entropyByID(n)
	sel, err := NewSelector(0, 1) // pure exploitation
	if err != nil {
		t.Fatal(err)
	}
	picked := sel.Select(c, images(n), 5)
	want := []int{19, 18, 17, 16, 15}
	for i, idx := range picked {
		if idx != want[i] {
			t.Fatalf("greedy selection %v, want %v", picked, want)
		}
	}
}

func TestSelectEpsilonExplores(t *testing.T) {
	n := 50
	c := entropyByID(n)
	sel, err := NewSelector(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Run many selections; low-entropy images (low IDs) must be picked
	// sometimes.
	lowPicked := 0
	for trial := 0; trial < 200; trial++ {
		for _, idx := range sel.Select(c, images(n), 5) {
			if idx < n/2 {
				lowPicked++
			}
		}
	}
	if lowPicked == 0 {
		t.Error("epsilon-greedy never explored low-entropy images")
	}
	// But greedy behaviour must still dominate: the single highest-entropy
	// image should be selected in the clear majority of trials.
	topPicked := 0
	for trial := 0; trial < 200; trial++ {
		for _, idx := range sel.Select(c, images(n), 5) {
			if idx == n-1 {
				topPicked++
			}
		}
	}
	if topPicked < 120 {
		t.Errorf("top-entropy image selected only %d/200 times", topPicked)
	}
}

func TestSelectEdgeCases(t *testing.T) {
	c := entropyByID(5)
	sel, _ := NewSelector(0.1, 3)
	if got := sel.Select(c, nil, 3); got != nil {
		t.Error("empty image list should select nothing")
	}
	if got := sel.Select(c, images(5), 0); got != nil {
		t.Error("zero query size should select nothing")
	}
	// Query size beyond the pool selects everything exactly once.
	got := sel.Select(c, images(5), 99)
	if len(got) != 5 {
		t.Fatalf("oversized query selected %d images", len(got))
	}
	seen := make(map[int]bool)
	for _, idx := range got {
		if seen[idx] {
			t.Fatalf("duplicate selection %d", idx)
		}
		seen[idx] = true
	}
}

func TestSelectNoDuplicates(t *testing.T) {
	c := entropyByID(30)
	sel, _ := NewSelector(0.5, 4)
	for trial := 0; trial < 50; trial++ {
		picked := sel.Select(c, images(30), 10)
		seen := make(map[int]bool)
		for _, idx := range picked {
			if seen[idx] {
				t.Fatalf("duplicate index %d in %v", idx, picked)
			}
			seen[idx] = true
		}
	}
}

func TestSelectDeterministicForSeed(t *testing.T) {
	c := entropyByID(30)
	a, _ := NewSelector(0.4, 7)
	b, _ := NewSelector(0.4, 7)
	for trial := 0; trial < 10; trial++ {
		pa := a.Select(c, images(30), 8)
		pb := b.Select(c, images(30), 8)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("same-seed selectors must agree")
			}
		}
	}
}

// standardCommittee builds the paper's three-expert committee, each
// expert fitted on the dataset's training split.
func standardCommittee(tb testing.TB, ds *imagery.Dataset) *Committee {
	tb.Helper()
	experts := classifier.StandardCommittee(imagery.DefaultDims, 1)
	samples := classifier.SamplesFromImages(ds.Train)
	for _, e := range experts {
		if err := e.Train(samples); err != nil {
			tb.Fatal(err)
		}
	}
	committee, err := NewCommittee(experts...)
	if err != nil {
		tb.Fatal(err)
	}
	return committee
}

// Integration: on a real trained committee, epsilon-greedy must surface
// both low-res (high entropy) and at least occasionally fake (low entropy)
// images — the two failure categories of Section IV-D.
func TestSelectSurfacesBothFailureCategories(t *testing.T) {
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	committee := standardCommittee(t, ds)
	sel, err := NewSelector(0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := ds.Test
	lowResPicked, fakePicked := 0, 0
	for trial := 0; trial < 40; trial++ {
		for _, idx := range sel.Select(committee, pool, 40) {
			switch pool[idx].Failure {
			case imagery.FailureLowRes:
				lowResPicked++
			case imagery.FailureFake:
				fakePicked++
			}
		}
	}
	if lowResPicked == 0 {
		t.Error("entropy ranking never selected a low-res image")
	}
	if fakePicked == 0 {
		t.Error("epsilon exploration never selected a fake image")
	}
	// Low-res images should be over-represented relative to their 8%
	// share of the pool, since they carry the highest entropy.
	totalPicked := 40 * 40
	if frac := float64(lowResPicked) / float64(totalPicked); frac < 0.10 {
		t.Errorf("low-res fraction of selections %.3f; uncertainty sampling not working", frac)
	}
}
