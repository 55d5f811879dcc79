package neural

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

func parallelTrainingSet(n int) []Example {
	rng := mathx.NewRand(99)
	out := make([]Example, n)
	for i := range out {
		x := make([]float64, 6)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		k := i % 3
		x[k] += 2
		out[i] = Example{Features: x, Target: mathx.OneHot(3, k)}
	}
	return out
}

// TestTrainBitIdenticalAcrossWorkers is the package-level equivalence
// contract: with a fixed seed, training produces byte-identical serialised
// state at any worker count, because per-example gradients merge in
// example-index order.
func TestTrainBitIdenticalAcrossWorkers(t *testing.T) {
	examples := parallelTrainingSet(48)
	train := func(workers int) []byte {
		cfg := DefaultConfig()
		cfg.Hidden = []int{12, 8}
		cfg.Epochs = 6
		cfg.Workers = workers
		n := MustNew(6, 3, cfg)
		if _, err := n.Train(examples); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := n.Save(&buf); err != nil {
			t.Fatalf("workers=%d: save: %v", workers, err)
		}
		return buf.Bytes()
	}
	want := train(1)
	for _, workers := range []int{2, 8} {
		if got := train(workers); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: serialised network differs from sequential", workers)
		}
	}
}

// TestPredictConcurrent exercises the pooled inference scratch: many
// goroutines share one network under -race and must all see the same
// distribution.
func TestPredictConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 3
	n := MustNew(6, 3, cfg)
	if _, err := n.Train(parallelTrainingSet(30)); err != nil {
		t.Fatal(err)
	}
	probe := []float64{1, -0.5, 0.25, 2, 0, -1}
	want := n.Predict(probe)
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 3)
			for r := 0; r < 50; r++ {
				n.PredictInto(probe, dst)
				for i := range dst {
					if dst[i] != want[i] {
						errs <- fmt.Sprintf("concurrent predict diverged at class %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestTrainConcurrentSameShape: networks of one shape share one store
// of idle training scratch, so networks of that shape training at once
// on different goroutines must each get a set of their own and end with
// the weights they reach when trained one after another.
func TestTrainConcurrentSameShape(t *testing.T) {
	const nets = 4
	train := func(i int) ([]byte, error) {
		cfg := DefaultConfig()
		cfg.Epochs = 3
		cfg.Seed = int64(i + 1)
		n := MustNew(6, 3, cfg)
		if _, err := n.Train(parallelTrainingSet(40 + 20*i)); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := n.Save(&buf)
		return buf.Bytes(), err
	}
	want := make([][]byte, nets)
	for i := range want {
		var err error
		if want[i], err = train(i); err != nil {
			t.Fatal(err)
		}
	}
	got := make([][]byte, nets)
	errs := make([]error, nets)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = train(i)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("network %d: concurrent training diverged from sequential", i)
		}
	}
}

// TestStateIgnoresWorkers: serialised model state must not depend on the
// execution parallelism configured at train time.
func TestStateIgnoresWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 8
	n := MustNew(4, 2, cfg)
	if got := n.State().Config.Workers; got != 0 {
		t.Fatalf("State carried Workers=%d, want 0", got)
	}
}
