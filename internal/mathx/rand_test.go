package mathx

import (
	"math"
	"testing"
)

func TestNewRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	base := NewRand(1)
	child := Split(base)
	// Drawing from the child must not change what an identically seeded
	// parent produces after its own split.
	base2 := NewRand(1)
	child2 := Split(base2)
	for i := 0; i < 10; i++ {
		child.Float64()
	}
	if base.Int63() != base2.Int63() {
		t.Fatal("child draws must not perturb the parent stream")
	}
	_ = child2
}

func TestGaussianVectorMoments(t *testing.T) {
	rng := NewRand(3)
	v := GaussianVector(rng, 20000, 2.0, 0.5)
	if m := Mean(v); math.Abs(m-2.0) > 0.02 {
		t.Errorf("sample mean %v too far from 2.0", m)
	}
	if s := StdDev(v); math.Abs(s-0.5) > 0.02 {
		t.Errorf("sample std %v too far from 0.5", s)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	rng := NewRand(4)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	freq := float64(hits) / float64(n)
	if math.Abs(freq-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency %v", freq)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	rng := NewRand(5)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[Categorical(rng, w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight arm sampled %d times", counts[1])
	}
	f0 := float64(counts[0]) / float64(n)
	if math.Abs(f0-0.25) > 0.02 {
		t.Errorf("arm0 frequency %v, want ~0.25", f0)
	}
}

func TestCategoricalPanicsOnZeroWeights(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Categorical with no positive weight should panic")
		}
	}()
	Categorical(NewRand(1), []float64{0, 0})
}

func TestExponentialMean(t *testing.T) {
	rng := NewRand(6)
	var s float64
	n := 50000
	for i := 0; i < n; i++ {
		x := Exponential(rng, 4.0)
		if x < 0 {
			t.Fatal("exponential draw must be non-negative")
		}
		s += x
	}
	if m := s / float64(n); math.Abs(m-4.0) > 0.1 {
		t.Errorf("exponential sample mean %v, want ~4", m)
	}
	if Exponential(rng, 0) != 0 {
		t.Error("Exponential with non-positive mean must be 0")
	}
}

func TestBetaMoments(t *testing.T) {
	rng := NewRand(7)
	a, b := 8.0, 2.0
	var s float64
	n := 30000
	for i := 0; i < n; i++ {
		x := Beta(rng, a, b)
		if x < 0 || x > 1 {
			t.Fatalf("Beta draw %v outside [0,1]", x)
		}
		s += x
	}
	if m := s / float64(n); math.Abs(m-0.8) > 0.01 {
		t.Errorf("Beta(8,2) sample mean %v, want ~0.8", m)
	}
}

func TestGammaMean(t *testing.T) {
	rng := NewRand(8)
	for _, shape := range []float64{0.5, 1, 2.5, 7} {
		var s float64
		n := 30000
		for i := 0; i < n; i++ {
			s += Gamma(rng, shape)
		}
		if m := s / float64(n); math.Abs(m-shape) > 0.1*shape+0.05 {
			t.Errorf("Gamma(%v) sample mean %v", shape, m)
		}
	}
	if Gamma(rng, 0) != 0 {
		t.Error("Gamma with non-positive shape must be 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := NewRand(9)
	for i := 0; i < 1000; i++ {
		if LogNormal(rng, 1, 0.5) <= 0 {
			t.Fatal("LogNormal draws must be positive")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	rng := NewRand(10)
	p := Perm(rng, 50)
	seen := make([]bool, 50)
	for _, i := range p {
		if i < 0 || i >= 50 || seen[i] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[i] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	rng := NewRand(11)
	idx := []int{1, 2, 3, 4, 5}
	sum := 0
	Shuffle(rng, idx)
	for _, v := range idx {
		sum += v
	}
	if sum != 15 {
		t.Fatalf("Shuffle lost elements: %v", idx)
	}
}

// TestPermIntoMatchesPerm: PermInto draws exactly what rand.Perm draws,
// whether it grows the buffer or reuses it, and leaves the counted
// stream at the same position.
func TestPermIntoMatchesPerm(t *testing.T) {
	ref, refSrc := NewCountedRand(9)
	got, gotSrc := NewCountedRand(9)
	var buf []int
	for _, n := range []int{0, 1, 7, 400, 400, 12, 401} {
		want := ref.Perm(n)
		buf = PermInto(got, buf, n)
		if len(buf) != n {
			t.Fatalf("n=%d: len %d", n, len(buf))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("n=%d: PermInto differs from Perm at %d", n, i)
			}
		}
		if gotSrc.Pos() != refSrc.Pos() {
			t.Fatalf("n=%d: stream at %d draws, Perm left it at %d", n, gotSrc.Pos(), refSrc.Pos())
		}
	}
}
