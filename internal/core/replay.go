package core

import (
	"math/rand"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// replayBuffer assembles retraining batches that mix newly crowd-labelled
// samples with draws from the original training pool. Fine-tuning a
// neural expert on five crowd samples per cycle catastrophically forgets
// the original task; interleaving replayed training data is the standard
// remedy and is what keeps the model-retraining strategy of MIC a net
// positive. (The paper retrains "using the newly obtained labels" without
// elaborating; a real deployment would hit exactly this failure, so the
// buffer is part of the faithful system rather than an optimisation.)
type replayBuffer struct {
	pool     []classifier.Sample
	acquired []classifier.Sample
	rng      *rand.Rand
	rngSrc   *mathx.CountingSource
	// maxAcquired caps the crowd-sample memory; oldest samples are
	// dropped first.
	maxAcquired int
	// minPoolDraw is the minimum number of pool samples mixed into each
	// batch regardless of how few crowd samples have accumulated.
	minPoolDraw int
	// order is batch's reused permutation buffer.
	order []int
}

func newReplayBuffer(pool []classifier.Sample, seed int64) *replayBuffer {
	rng, src := mathx.NewCountedRand(seed)
	return &replayBuffer{
		pool:        pool,
		rng:         rng,
		rngSrc:      src,
		maxAcquired: 200,
		minPoolDraw: 40,
	}
}

// snapshot captures the buffer's checkpointable state: the acquired
// crowd samples and the draw position of the batch-shuffle stream.
func (b *replayBuffer) snapshot() (acquired []classifier.Sample, rngPos uint64) {
	return append([]classifier.Sample(nil), b.acquired...), b.rngSrc.Pos()
}

// restore re-installs a snapshot into a freshly constructed same-seed
// buffer so future batches are byte-identical to the original's.
func (b *replayBuffer) restore(acquired []classifier.Sample, rngPos uint64) {
	b.acquired = append([]classifier.Sample(nil), acquired...)
	if len(b.acquired) > b.maxAcquired {
		b.acquired = b.acquired[len(b.acquired)-b.maxAcquired:]
	}
	if rngPos > b.rngSrc.Pos() {
		b.rngSrc.Skip(rngPos - b.rngSrc.Pos())
	}
}

// add appends newly acquired crowd-labelled samples.
func (b *replayBuffer) add(samples []classifier.Sample) {
	b.acquired = append(b.acquired, samples...)
	if len(b.acquired) > b.maxAcquired {
		b.acquired = b.acquired[len(b.acquired)-b.maxAcquired:]
	}
}

// batch returns the acquired samples plus a random draw from the training
// pool at least as large as the acquired set.
func (b *replayBuffer) batch() []classifier.Sample {
	draw := len(b.acquired)
	if draw < b.minPoolDraw {
		draw = b.minPoolDraw
	}
	if draw > len(b.pool) {
		draw = len(b.pool)
	}
	out := make([]classifier.Sample, 0, len(b.acquired)+draw)
	out = append(out, b.acquired...)
	b.order = mathx.PermInto(b.rng, b.order, len(b.pool))
	for _, idx := range b.order[:draw] {
		out = append(out, b.pool[idx])
	}
	return out
}
