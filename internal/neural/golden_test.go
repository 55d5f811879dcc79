package neural

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// goldenShapes are the committee's three network shapes (ddm, vgg16,
// bovw in internal/classifier) with the SHA-256 of every parameter,
// momentum buffer, RNG position and per-pass loss after a bootstrap fit
// plus goldenPasses MIC-style retrains. The hashes were captured from
// the straightforward triple loops the kernels replaced; any change to
// the floating-point operations, or to their order, changes them.
var goldenShapes = []struct {
	name   string
	in     int
	hidden []int
	seed   int64
	want   string
}{
	{"ddm", 16, []int{48, 24}, 11, "d52abd471a4c0b97e3ceb30ad29de475fc0cacd028dd3972b0c689c855e25354"},
	{"vgg16", 32, []int{40, 16}, 12, "e260a2f2604176a77045a37e8432065a19ca0454e5b3724869eafbd5d825f2f7"},
	{"bovw", 24, []int{16}, 13, "74a28639f7d98c671d85d17eb0117051ef417fede2593398cc4d11cb79758a54"},
}

const (
	goldenPasses   = 20
	goldenExamples = 400
)

// goldenData builds n examples of dimension dim: three shifted Gaussian
// clusters whose targets mix one-hot rows (exact zeros) with soft crowd
// distributions, the shape of MIC's retraining memory.
func goldenData(seed int64, n, dim int) []Example {
	rng := mathx.NewRand(seed)
	out := make([]Example, n)
	for i := range out {
		k := rng.Intn(3)
		x := make([]float64, dim)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		x[k%dim] += 2
		var target []float64
		if i%3 == 0 {
			target = mathx.OneHot(3, k)
		} else {
			target = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			target[k] += 2
			target = mathx.Normalized(target)
		}
		out[i] = Example{Features: x, Target: target}
	}
	return out
}

func hashFloats(h hash.Hash, xs []float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// goldenRun fits one shape the way the committee does (full training,
// then goldenPasses incremental passes of 8 epochs at lr/4 over a
// sliding 400-example window) and returns the hex SHA-256 of the run.
func goldenRun(t *testing.T, in int, hidden []int, seed int64, workers int) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hidden = hidden
	cfg.Seed = seed
	cfg.Epochs = 20
	cfg.Workers = workers
	n := MustNew(in, 3, cfg)
	pool := goldenData(seed+100, goldenExamples+goldenPasses*10, in)
	h := sha256.New()
	loss, err := n.Train(pool[:200])
	if err != nil {
		t.Fatal(err)
	}
	hashFloats(h, []float64{loss})
	for pass := 0; pass < goldenPasses; pass++ {
		window := pool[pass*10 : pass*10+goldenExamples]
		loss, err := n.TrainWithWorkers(window, 8, cfg.LearningRate/4, workers)
		if err != nil {
			t.Fatal(err)
		}
		hashFloats(h, []float64{loss})
	}
	for _, l := range n.layers {
		hashFloats(h, l.w)
		hashFloats(h, l.b)
		hashFloats(h, l.vw)
		hashFloats(h, l.vb)
	}
	var pos [8]byte
	binary.LittleEndian.PutUint64(pos[:], n.rngSrc.Pos())
	h.Write(pos[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestRetrainBitIdenticalGolden pins the training kernels' arithmetic:
// the three committee shapes must reproduce hashes captured before the
// kernels were blocked and reordered, at one and two workers.
func TestRetrainBitIdenticalGolden(t *testing.T) {
	for _, s := range goldenShapes {
		for _, workers := range []int{1, 2} {
			got := goldenRun(t, s.in, s.hidden, s.seed, workers)
			if got != s.want {
				t.Errorf("%s workers=%d: hash %s, want %s", s.name, workers, got, s.want)
			}
		}
	}
}
