package neural

import (
	"math"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		in, cls int
		mutate  func(*Config)
	}{
		{"zero input", 0, 3, nil},
		{"one class", 4, 1, nil},
		{"zero lr", 4, 3, func(c *Config) { c.LearningRate = 0 }},
		{"negative epochs", 4, 3, func(c *Config) { c.Epochs = -1 }},
		{"zero hidden width", 4, 3, func(c *Config) { c.Hidden = []int{0} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tt.mutate != nil {
				tt.mutate(&cfg)
			}
			if _, err := New(tt.in, tt.cls, cfg); err == nil {
				t.Errorf("config %q should be rejected", tt.name)
			}
		})
	}
}

func TestPredictIsDistribution(t *testing.T) {
	n := MustNew(5, 3, DefaultConfig())
	p := n.Predict([]float64{1, -1, 0.5, 2, -0.3})
	if len(p) != 3 {
		t.Fatalf("prediction length %d, want 3", len(p))
	}
	sum := 0.0
	for _, x := range p {
		if x < 0 || x > 1 {
			t.Fatalf("probability %v out of range", x)
		}
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("prediction sums to %v", sum)
	}
}

func TestPredictPanicsOnWrongDim(t *testing.T) {
	n := MustNew(5, 3, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim should panic")
		}
	}()
	n.Predict([]float64{1, 2})
}

func TestTrainRejectsBadExamples(t *testing.T) {
	n := MustNew(2, 2, DefaultConfig())
	if _, err := n.Train(nil); err == nil {
		t.Error("empty training set must error")
	}
	if _, err := n.Train([]Example{{Features: []float64{1}, Target: []float64{1, 0}}}); err == nil {
		t.Error("wrong feature dim must error")
	}
	if _, err := n.Train([]Example{{Features: []float64{1, 2}, Target: []float64{1}}}); err == nil {
		t.Error("wrong target dim must error")
	}
}

// syntheticClusters builds a linearly separable 3-class problem.
func syntheticClusters(seed int64, n int) []Example {
	rng := mathx.NewRand(seed)
	centers := [][]float64{{2, 0, 0, 0}, {0, 2, 0, 0}, {0, 0, 2, 0}}
	examples := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		c := i % 3
		f := mathx.Clone(centers[c])
		mathx.AddGaussianNoise(rng, f, 0.4)
		examples = append(examples, Example{Features: f, Target: mathx.OneHot(3, c)})
	}
	return examples
}

func TestTrainLearnsClusters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 80
	n := MustNew(4, 3, cfg)
	train := syntheticClusters(1, 300)
	loss, err := n.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.4 {
		t.Errorf("final training loss %v too high", loss)
	}
	test := syntheticClusters(2, 300)
	correct := 0
	for _, ex := range test {
		if mathx.ArgMax(n.Predict(ex.Features)) == mathx.ArgMax(ex.Target) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(test)); acc < 0.9 {
		t.Errorf("held-out accuracy %.3f, want >= 0.9", acc)
	}
}

func TestTrainLossDecreases(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 5
	n := MustNew(4, 3, cfg)
	train := syntheticClusters(3, 150)
	first, err := n.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	// Continue training: loss should not regress dramatically.
	second, err := n.Train(train)
	if err != nil {
		t.Fatal(err)
	}
	if second > first {
		t.Errorf("continued training increased loss: %v -> %v", first, second)
	}
}

func TestIncrementalTraining(t *testing.T) {
	// The MIC retraining pathway calls Train repeatedly with augmented
	// data; verify weights persist across calls (accuracy keeps improving
	// relative to a fresh network trained fewer epochs).
	cfg := DefaultConfig()
	cfg.Epochs = 2
	n := MustNew(4, 3, cfg)
	train := syntheticClusters(4, 300)
	var lastLoss float64
	for i := 0; i < 10; i++ {
		loss, err := n.Train(train)
		if err != nil {
			t.Fatal(err)
		}
		lastLoss = loss
	}
	if lastLoss > 0.5 {
		t.Errorf("20 cumulative epochs should fit clusters, loss=%v", lastLoss)
	}
}

func TestCloneIndependence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 10
	n := MustNew(4, 3, cfg)
	x := []float64{1, 0, 0, 0}
	before := n.Predict(x)

	cp := n.Clone()
	// Train only the clone; the original must be unchanged.
	if _, err := cp.Train(syntheticClusters(5, 150)); err != nil {
		t.Fatal(err)
	}
	after := n.Predict(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("training a clone mutated the original network")
		}
	}
	// The clone must have actually changed.
	cloned := cp.Predict(x)
	same := true
	for i := range before {
		if before[i] != cloned[i] {
			same = false
		}
	}
	if same {
		t.Fatal("clone did not learn")
	}
}

func TestDeterministicTraining(t *testing.T) {
	build := func() []float64 {
		cfg := DefaultConfig()
		cfg.Epochs = 15
		n := MustNew(4, 3, cfg)
		if _, err := n.Train(syntheticClusters(6, 120)); err != nil {
			t.Fatal(err)
		}
		return n.Predict([]float64{0.5, 0.5, 0, 0})
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identically seeded training must be bit-identical")
		}
	}
}

// TestTrainScratchReuseKeepsResults: networks of one shape share
// training scratch, so a network must train to the same weights whether
// its Train call gets a new scratch set or one that another network
// left dirty (larger shuffle buffer, stale stages and gradients).
func TestTrainScratchReuseKeepsResults(t *testing.T) {
	train := func(afterOther bool) []float64 {
		cfg := DefaultConfig()
		cfg.Epochs = 4
		if afterOther {
			other := cfg
			other.Seed = 99
			o := MustNew(4, 3, other)
			if _, err := o.Train(syntheticClusters(11, 300)); err != nil {
				t.Fatal(err)
			}
		}
		n := MustNew(4, 3, cfg)
		if _, err := n.Train(syntheticClusters(6, 90)); err != nil {
			t.Fatal(err)
		}
		return n.Predict([]float64{0.5, 0.5, 0, 0})
	}
	alone, reused := train(false), train(true)
	for i := range alone {
		if math.Float64bits(alone[i]) != math.Float64bits(reused[i]) {
			t.Fatalf("prediction %d: %v on the set another network left, %v trained alone", i, reused[i], alone[i])
		}
	}
}

func TestSoftTargets(t *testing.T) {
	// Training toward a soft 50/50 target should produce predictions near
	// 50/50 on that input.
	cfg := DefaultConfig()
	cfg.Epochs = 200
	cfg.Hidden = nil // logistic regression is enough
	n := MustNew(2, 2, cfg)
	ex := []Example{{Features: []float64{1, 1}, Target: []float64{0.5, 0.5}}}
	if _, err := n.Train(ex); err != nil {
		t.Fatal(err)
	}
	p := n.Predict([]float64{1, 1})
	if math.Abs(p[0]-0.5) > 0.05 {
		t.Errorf("soft-target training gave %v, want ~[0.5 0.5]", p)
	}
}

func TestPredictIntoReuse(t *testing.T) {
	n := MustNew(3, 3, DefaultConfig())
	dst := make([]float64, 3)
	out := n.PredictInto([]float64{1, 2, 3}, dst)
	if &out[0] != &dst[0] {
		t.Fatal("PredictInto must reuse dst")
	}
}

func TestNumParameters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hidden = []int{10}
	n := MustNew(4, 3, cfg)
	// (4*10 + 10) + (10*3 + 3) = 50 + 33 = 83.
	if got := n.NumParameters(); got != 83 {
		t.Errorf("NumParameters = %d, want 83", got)
	}
}

// TestActivations drives each activation through a one-unit layer with
// unit weight and zero bias: forward must apply it, backward must scale
// the delta by its derivative at the activated output.
func TestActivations(t *testing.T) {
	probe := func(act Activation, z float64) (y, dydz float64) {
		l := &layer{in: 1, out: 1, act: act, w: []float64{1}, b: []float64{0}}
		out, nd := []float64{0}, []float64{0}
		l.forward([]float64{z}, out)
		l.backward([]float64{1}, nd, out, act)
		return out[0], nd[0]
	}
	if y, d := probe(ReLU, -1); y != 0 || d != 0 {
		t.Errorf("ReLU(-1) = %v, derivative %v; want 0, 0", y, d)
	}
	if y, d := probe(ReLU, 2); y != 2 || d != 1 {
		t.Errorf("ReLU(2) = %v, derivative %v; want 2, 1", y, d)
	}
	y, d := probe(Tanh, 0.5)
	if math.Abs(y-math.Tanh(0.5)) > 1e-12 || math.Abs(d-(1-y*y)) > 1e-12 {
		t.Errorf("Tanh(0.5) = %v, derivative %v", y, d)
	}
	if y, d := probe(Identity, 3); y != 3 || d != 1 {
		t.Errorf("Identity(3) = %v, derivative %v; want 3, 1", y, d)
	}
}
