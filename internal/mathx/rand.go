package mathx

import (
	"math"
	"math/rand"
)

// NewRand returns a deterministic generator for the given seed. Every
// stochastic component in the repository receives its generator through
// dependency injection so experiments are exactly reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives an independent generator from rng. Components that fan out
// work (one generator per worker, per classifier, per cycle) split rather
// than share so that changing the draw count in one component does not
// perturb another component's stream.
func Split(rng *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(rng.Int63()))
}

// GaussianVector fills a length-n vector with N(mean, std^2) draws.
func GaussianVector(rng *rand.Rand, n int, mean, std float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = mean + std*rng.NormFloat64()
	}
	return v
}

// AddGaussianNoise perturbs v in place with independent N(0, std^2) noise.
func AddGaussianNoise(rng *rand.Rand, v []float64, std float64) {
	for i := range v {
		v[i] += std * rng.NormFloat64()
	}
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weight vector w. It panics if all weights are zero or
// negative.
func Categorical(rng *rand.Rand, w []float64) int {
	total := 0.0
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	if total <= 0 {
		panic("mathx: Categorical requires a positive weight")
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, x := range w {
		if x <= 0 {
			continue
		}
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// Exponential samples from the exponential distribution with the given
// mean. The crowd simulator uses it for inter-arrival and service times.
func Exponential(rng *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return rng.ExpFloat64() * mean
}

// LogNormal samples a log-normal variate given the mean and standard
// deviation of the underlying normal. Crowd response delays are heavy
// tailed, which log-normal captures better than exponential alone.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

// Beta samples from the Beta(a, b) distribution via two gamma draws.
// Worker reliabilities in the crowd model follow Beta distributions.
func Beta(rng *rand.Rand, a, b float64) float64 {
	x := Gamma(rng, a)
	y := Gamma(rng, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Gamma samples from the Gamma(shape, 1) distribution using the
// Marsaglia–Tsang method, with the standard shape<1 boost.
func Gamma(rng *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return Gamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Shuffle permutes idx in place.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// Perm returns a random permutation of [0, n).
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// PermInto is rng.Perm(n) written into buf, grown if its capacity is
// below n: the same Intn(i+1) draws in the same order, so the result
// and the stream position afterwards match rng.Perm exactly. Hot loops
// use it to reuse one permutation buffer across calls.
func PermInto(rng *rand.Rand, buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	m := buf[:n]
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
