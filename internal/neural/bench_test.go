package neural

import (
	"math/rand"
	"testing"
)

func BenchmarkPredict(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Epochs = 5
	n := MustNew(32, 3, cfg)
	if _, err := n.Train(syntheticClustersDim(1, 200, 32)); err != nil {
		b.Fatal(err)
	}
	x := syntheticClustersDim(2, 1, 32)[0].Features
	dst := make([]float64, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PredictInto(x, dst)
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	examples := syntheticClustersDim(3, 560, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		n := MustNew(32, 3, cfg)
		b.StartTimer()
		if _, err := n.Train(examples); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccumulate times the gradient fold of one 16-example
// minibatch on the ddm expert's shape, with half of every delta row
// zero, as behind dead ReLU units.
func BenchmarkAccumulate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Hidden = []int{48, 24}
	n := MustNew(16, 3, cfg)
	rng := rand.New(rand.NewSource(1))
	stages := make([]exampleStage, cfg.BatchSize)
	for p := range stages {
		stages[p] = n.newExampleStage()
		stages[p].acts[0] = make([]float64, n.inDim)
		for _, a := range stages[p].acts {
			for i := range a {
				a[i] = rng.NormFloat64()
			}
		}
		for _, d := range stages[p].deltas {
			for i := range d {
				if rng.Intn(2) == 0 {
					d[i] = rng.NormFloat64()
				}
			}
		}
	}
	ts := n.takeTrainScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.accumulate(ts, stages)
	}
}

// syntheticClustersDim generalises the test helper to arbitrary dims.
func syntheticClustersDim(seed int64, n, dim int) []Example {
	base := syntheticClusters(seed, n)
	out := make([]Example, len(base))
	for i, ex := range base {
		f := make([]float64, dim)
		copy(f, ex.Features)
		out[i] = Example{Features: f, Target: ex.Target}
	}
	return out
}
