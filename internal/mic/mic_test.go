package mic

import (
	"math"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/qss"
)

// fixedExpert always predicts the same distribution and records Update
// calls.
type fixedExpert struct {
	name    string
	dist    []float64
	updates int
}

func (f *fixedExpert) Name() string                     { return f.name }
func (f *fixedExpert) Train([]classifier.Sample) error  { return nil }
func (f *fixedExpert) Update([]classifier.Sample) error { f.updates++; return nil }
func (f *fixedExpert) Predict(*imagery.Image) []float64 { return mathx.Clone(f.dist) }
func (f *fixedExpert) PerImageCost() time.Duration      { return time.Second }

var _ classifier.Expert = (*fixedExpert)(nil)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{LearningRate: 0}); err == nil {
		t.Error("zero learning rate must be rejected")
	}
	if _, err := New(Config{LearningRate: -3}); err == nil {
		t.Error("negative learning rate must be rejected")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func twoExpertCommittee(t *testing.T, good, bad []float64) (*qss.Committee, *fixedExpert, *fixedExpert) {
	t.Helper()
	g := &fixedExpert{name: "good", dist: good}
	b := &fixedExpert{name: "bad", dist: bad}
	c, err := qss.NewCommittee(g, b)
	if err != nil {
		t.Fatal(err)
	}
	return c, g, b
}

func TestExpertLossesOrdering(t *testing.T) {
	cal, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Truth says class 0; "good" agrees, "bad" is confidently wrong.
	c, _, _ := twoExpertCommittee(t, []float64{0.9, 0.05, 0.05}, []float64{0.05, 0.9, 0.05})
	images := []*imagery.Image{{}, {}}
	truths := [][]float64{{0.9, 0.05, 0.05}, {0.85, 0.1, 0.05}}
	losses, err := cal.ExpertLosses(c, images, truths)
	if err != nil {
		t.Fatal(err)
	}
	if losses[0] >= losses[1] {
		t.Errorf("agreeing expert loss %.3f must be below disagreeing %.3f", losses[0], losses[1])
	}
	for _, l := range losses {
		if l < 0 || l >= 1 {
			t.Errorf("loss %v outside [0, 1)", l)
		}
	}
}

func TestExpertLossesValidation(t *testing.T) {
	cal, _ := New(DefaultConfig())
	c, _, _ := twoExpertCommittee(t, []float64{1, 0, 0}, []float64{0, 1, 0})
	if _, err := cal.ExpertLosses(c, []*imagery.Image{{}}, nil); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := cal.ExpertLosses(c, []*imagery.Image{{}}, [][]float64{{1, 0}}); err == nil {
		t.Error("bad truth dimension must error")
	}
	losses, err := cal.ExpertLosses(c, nil, nil)
	if err != nil || losses[0] != 0 {
		t.Error("empty query set must give zero losses")
	}
}

func TestUpdateWeightsShiftsTowardAccurateExpert(t *testing.T) {
	cal, _ := New(DefaultConfig())
	c, _, _ := twoExpertCommittee(t, []float64{0.9, 0.05, 0.05}, []float64{0.05, 0.9, 0.05})
	images := []*imagery.Image{{}, {}, {}}
	truths := [][]float64{{0.9, 0.05, 0.05}, {0.9, 0.05, 0.05}, {0.8, 0.15, 0.05}}
	w, err := cal.UpdateWeights(c, images, truths)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] <= w[1] {
		t.Errorf("accurate expert weight %.3f must exceed inaccurate %.3f", w[0], w[1])
	}
	if math.Abs(mathx.Sum(w)-1) > 1e-9 {
		t.Errorf("weights must renormalise, sum %v", mathx.Sum(w))
	}
	// Repeated updates compound: weight gap must widen.
	for i := 0; i < 5; i++ {
		if w, err = cal.UpdateWeights(c, images, truths); err != nil {
			t.Fatal(err)
		}
	}
	if w[0] < 0.9 {
		t.Errorf("after repeated feedback the accurate expert should dominate, got %v", w)
	}
}

func TestUpdateWeightsEmptyQuerySetNoop(t *testing.T) {
	cal, _ := New(DefaultConfig())
	c, _, _ := twoExpertCommittee(t, []float64{1, 0, 0}, []float64{0, 1, 0})
	before := c.Weights()
	after, err := cal.UpdateWeights(c, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("empty query set must leave weights untouched")
		}
	}
}

func TestRetrainSamples(t *testing.T) {
	images := []*imagery.Image{{ID: 1}, {ID: 2}}
	truths := [][]float64{{2, 1, 1}, {0, 0, 1}} // first needs normalising
	samples, err := RetrainSamples(images, truths)
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Image.ID != 1 {
		t.Error("sample image mismatch")
	}
	if math.Abs(samples[0].Target[0]-0.5) > 1e-9 {
		t.Errorf("target not normalised: %v", samples[0].Target)
	}
	if _, err := RetrainSamples(images, truths[:1]); err == nil {
		t.Error("length mismatch must error")
	}
	if _, err := RetrainSamples([]*imagery.Image{nil}, [][]float64{{1, 0, 0}}); err == nil {
		t.Error("nil image must error")
	}
	if _, err := RetrainSamples([]*imagery.Image{{}}, [][]float64{{1}}); err == nil {
		t.Error("bad truth dim must error")
	}
}

func TestRetrainCallsEveryExpert(t *testing.T) {
	cal, _ := New(DefaultConfig())
	c, g, b := twoExpertCommittee(t, []float64{1, 0, 0}, []float64{0, 1, 0})
	samples := []classifier.Sample{{Image: &imagery.Image{}, Target: []float64{1, 0, 0}}}
	if err := cal.Retrain(c, samples); err != nil {
		t.Fatal(err)
	}
	if g.updates != 1 || b.updates != 1 {
		t.Errorf("updates: good=%d bad=%d, want 1/1", g.updates, b.updates)
	}
	// Empty sample set is a no-op.
	if err := cal.Retrain(c, nil); err != nil {
		t.Fatal(err)
	}
	if g.updates != 1 {
		t.Error("empty retrain must not call Update")
	}
}

func TestCalibrateEndToEnd(t *testing.T) {
	cal, _ := New(DefaultConfig())
	c, g, b := twoExpertCommittee(t, []float64{0.9, 0.05, 0.05}, []float64{0.05, 0.9, 0.05})
	images := []*imagery.Image{{}, {}}
	truths := [][]float64{{0.9, 0.05, 0.05}, {0.9, 0.05, 0.05}}
	if err := cal.Calibrate(c, images, truths); err != nil {
		t.Fatal(err)
	}
	w := c.Weights()
	if w[0] <= w[1] {
		t.Errorf("calibrate must shift weight toward the accurate expert: %v", w)
	}
	if g.updates != 1 || b.updates != 1 {
		t.Errorf("calibrate must retrain both experts: %d/%d", g.updates, b.updates)
	}
}

// Integration: calibration on real trained experts over real crowd truths
// must raise committee accuracy on deceptive images via weight shifts and
// never crash across repeated cycles.
func TestCalibrateWithRealExperts(t *testing.T) {
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	experts := classifier.StandardCommittee(imagery.DefaultDims, 1)
	for _, e := range experts {
		if err := e.Train(classifier.SamplesFromImages(ds.Train)); err != nil {
			t.Fatal(err)
		}
	}
	committee, err := qss.NewCommittee(experts...)
	if err != nil {
		t.Fatal(err)
	}
	cal, _ := New(DefaultConfig())
	// Feed ground truth as "crowd truth" over several cycles.
	for cycle := 0; cycle < 3; cycle++ {
		batch := ds.Test[cycle*10 : (cycle+1)*10]
		truths := make([][]float64, len(batch))
		for i, im := range batch {
			truths[i] = mathx.OneHot(imagery.NumLabels, int(im.TrueLabel))
		}
		if err := cal.Calibrate(committee, batch, truths); err != nil {
			t.Fatal(err)
		}
	}
	w := committee.Weights()
	if math.Abs(mathx.Sum(w)-1) > 1e-9 {
		t.Errorf("weights must stay normalised: %v", w)
	}
	for _, x := range w {
		if x < 0 || x > 1 {
			t.Errorf("weight %v outside [0,1]", x)
		}
	}
}
