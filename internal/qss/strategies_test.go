package qss

import (
	"math"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
)

func TestStrategyNames(t *testing.T) {
	want := []string{"entropy", "margin", "least-confidence", "disagreement"}
	got := Strategies()
	if len(got) != len(want) {
		t.Fatalf("strategies %d, want %d", len(got), len(want))
	}
	for i, s := range got {
		if s.Name() != want[i] {
			t.Errorf("strategy %d name %q, want %q", i, s.Name(), want[i])
		}
	}
}

func TestEntropyStrategyMatchesCommitteeEntropy(t *testing.T) {
	c := entropyByID(10)
	im := &imagery.Image{ID: 7}
	if got, want := (EntropyStrategy{}).Score(c, im), c.Entropy(im); got != want {
		t.Errorf("entropy strategy %v, want %v", got, want)
	}
}

func TestMarginStrategyOrdering(t *testing.T) {
	// Confident committee: big margin => low (very negative) score.
	confident, _ := NewCommittee(constExpert("a", []float64{0.9, 0.05, 0.05}))
	ambiguous, _ := NewCommittee(constExpert("a", []float64{0.45, 0.45, 0.1}))
	im := &imagery.Image{}
	s := MarginStrategy{}
	if s.Score(confident, im) >= s.Score(ambiguous, im) {
		t.Error("ambiguous vote must outrank confident vote under margin")
	}
	// Exact value: -(0.45 - 0.45) = 0.
	if got := s.Score(ambiguous, im); math.Abs(got-0) > 1e-12 {
		t.Errorf("tied top-two margin score %v, want 0", got)
	}
}

func TestLeastConfidenceOrdering(t *testing.T) {
	confident, _ := NewCommittee(constExpert("a", []float64{0.95, 0.03, 0.02}))
	unsure, _ := NewCommittee(constExpert("a", []float64{0.4, 0.3, 0.3}))
	im := &imagery.Image{}
	s := LeastConfidenceStrategy{}
	if s.Score(confident, im) >= s.Score(unsure, im) {
		t.Error("unsure vote must outrank confident vote under least-confidence")
	}
	if got := s.Score(confident, im); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("least-confidence score %v, want 0.05", got)
	}
}

func TestDisagreementStrategy(t *testing.T) {
	// Members agreeing perfectly: zero disagreement even though the
	// shared vote is uncertain.
	agree, _ := NewCommittee(
		constExpert("a", []float64{0.4, 0.3, 0.3}),
		constExpert("b", []float64{0.4, 0.3, 0.3}),
	)
	split, _ := NewCommittee(
		constExpert("a", []float64{0.9, 0.05, 0.05}),
		constExpert("b", []float64{0.05, 0.9, 0.05}),
	)
	im := &imagery.Image{}
	s := DisagreementStrategy{}
	if got := s.Score(agree, im); got > 1e-9 {
		t.Errorf("agreeing committee disagreement %v, want ~0", got)
	}
	if s.Score(split, im) <= s.Score(agree, im) {
		t.Error("split committee must outrank agreeing committee")
	}
	// Single-member committee has no pairs.
	solo, _ := NewCommittee(constExpert("a", []float64{1, 0, 0}))
	if got := s.Score(solo, im); got != 0 {
		t.Errorf("single-member disagreement %v, want 0", got)
	}
}

func TestNewStrategySelectorValidation(t *testing.T) {
	if _, err := NewStrategySelector(nil, 0.1, 1); err == nil {
		t.Error("nil strategy must be rejected")
	}
	if _, err := NewStrategySelector(EntropyStrategy{}, -0.1, 1); err == nil {
		t.Error("negative epsilon must be rejected")
	}
	if _, err := NewStrategySelector(EntropyStrategy{}, 1.1, 1); err == nil {
		t.Error("epsilon above 1 must be rejected")
	}
}

func TestStrategySelectorGreedyTop(t *testing.T) {
	n := 15
	c := entropyByID(n)
	sel, err := NewStrategySelector(EntropyStrategy{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	picked := sel.Select(c, images(n), 3)
	want := []int{14, 13, 12}
	for i := range want {
		if picked[i] != want[i] {
			t.Fatalf("selection %v, want %v", picked, want)
		}
	}
}

func TestStrategySelectorEdgeCases(t *testing.T) {
	c := entropyByID(5)
	sel, _ := NewStrategySelector(MarginStrategy{}, 0.2, 2)
	if sel.Select(c, nil, 3) != nil {
		t.Error("empty pool must select nothing")
	}
	if sel.Select(c, images(5), 0) != nil {
		t.Error("zero query size must select nothing")
	}
	got := sel.Select(c, images(5), 50)
	if len(got) != 5 {
		t.Errorf("oversized query selected %d", len(got))
	}
}

// On a real trained committee, every strategy must over-select low-res
// (genuinely uncertain) images relative to their base rate — they differ
// in *how* they rank uncertainty, not whether they find it.
func TestStrategiesSurfaceUncertainImages(t *testing.T) {
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	committee := standardCommittee(t, ds)
	lowResRate := float64(imagery.CountByFailure(ds.Test)[imagery.FailureLowRes]) / float64(len(ds.Test))
	for _, strat := range Strategies() {
		sel, err := NewStrategySelector(strat, 0, int64(100))
		if err != nil {
			t.Fatal(err)
		}
		picked := sel.Select(committee, ds.Test, 40)
		lowRes := 0
		for _, idx := range picked {
			if ds.Test[idx].Failure == imagery.FailureLowRes {
				lowRes++
			}
		}
		frac := float64(lowRes) / float64(len(picked))
		if frac <= lowResRate {
			t.Errorf("%s selected low-res at %.3f, base rate %.3f — not surfacing uncertainty",
				strat.Name(), frac, lowResRate)
		}
	}
}
