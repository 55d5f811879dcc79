// Package neural implements a from-scratch feed-forward neural network —
// the stand-in for the paper's deep CNN stack (VGG16 fine-tuning etc.),
// which is unavailable in an offline stdlib-only environment.
//
// The network supports dense layers with ReLU or Tanh activations, a
// softmax cross-entropy output, minibatch stochastic gradient descent with
// momentum and L2 weight decay, and deterministic initialisation from an
// injected seed. That is everything the DDA experts need: they consume
// fixed-length feature views produced by internal/imagery rather than raw
// pixels, so the convolutional front-end of a real CNN is unnecessary.
package neural

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations. The output layer always uses Identity followed by
// an implicit softmax in the loss.
const (
	ReLU Activation = iota + 1
	Tanh
	Identity
)

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	in, out int
	act     Activation
	// w is row-major [out][in]; b is [out].
	w, b []float64
	// vw/vb are the momentum buffers.
	vw, vb []float64
}

func newLayer(rng interface{ NormFloat64() float64 }, in, out int, act Activation) *layer {
	l := &layer{
		in:  in,
		out: out,
		act: act,
		w:   make([]float64, in*out),
		b:   make([]float64, out),
		vw:  make([]float64, in*out),
		vb:  make([]float64, out),
	}
	// He initialisation, appropriate for ReLU and fine for Tanh at these
	// sizes.
	std := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * std
	}
	return l
}

// forward computes the activated outputs out = act(W·in + b).
//
// Every output element is computed exactly as the plain loop would:
// s = 0; s += w[o][i]*in[i] for i in order; z = b[o] + s (DESIGN §9).
// Blocking four output rows per pass over in only gives the CPU four
// independent accumulation chains and reuses each in[i] load four times.
func (l *layer) forward(in, out []float64) {
	n := l.in
	in = in[:n]
	out = out[:l.out]
	o := 0
	for ; o+4 <= l.out; o += 4 {
		r0 := l.w[o*n:][:len(in)]
		r1 := l.w[(o+1)*n:][:len(in)]
		r2 := l.w[(o+2)*n:][:len(in)]
		r3 := l.w[(o+3)*n:][:len(in)]
		var s0, s1, s2, s3 float64
		for i, x := range in {
			s0 += r0[i] * x
			s1 += r1[i] * x
			s2 += r2[i] * x
			s3 += r3[i] * x
		}
		out[o] = l.b[o] + s0
		out[o+1] = l.b[o+1] + s1
		out[o+2] = l.b[o+2] + s2
		out[o+3] = l.b[o+3] + s3
	}
	for ; o < l.out; o++ {
		out[o] = l.b[o] + mathx.Dot(l.w[o*n:][:n], in)
	}
	switch l.act {
	case ReLU:
		for o, z := range out {
			out[o] = relu(z)
		}
	case Tanh:
		for o, z := range out {
			out[o] = math.Tanh(z)
		}
	case Identity:
	default:
		panic(fmt.Sprintf("neural: unknown activation %d", int(l.act)))
	}
}

// backward writes the delta of this layer's input into newDelta given
// the output delta: newDelta[i] = (sum_o delta[o]*w[o][i]) * prev'(in[i]),
// where prev is the activation that produced the input and inAct its
// values.
//
// The sum runs row by row so w is read contiguously, yet each
// newDelta[i] still sees s = 0; s += delta[o]*w[o][i] for o in order
// before the derivative multiply (DESIGN §9). The multiply is never
// skipped, not even for a dead ReLU unit: x*0 keeps x's sign and NaN*0
// stays NaN, exactly as in the plain loop.
func (l *layer) backward(delta, newDelta, inAct []float64, prev Activation) {
	n := l.in
	newDelta = newDelta[:n]
	inAct = inAct[:n]
	clear(newDelta)
	o := 0
	for ; o+4 <= l.out; o += 4 {
		d0, d1, d2, d3 := delta[o], delta[o+1], delta[o+2], delta[o+3]
		r0 := l.w[o*n:][:len(newDelta)]
		r1 := l.w[(o+1)*n:][:len(newDelta)]
		r2 := l.w[(o+2)*n:][:len(newDelta)]
		r3 := l.w[(o+3)*n:][:len(newDelta)]
		for i, s := range newDelta {
			s += d0 * r0[i]
			s += d1 * r1[i]
			s += d2 * r2[i]
			s += d3 * r3[i]
			newDelta[i] = s
		}
	}
	for ; o < l.out; o++ {
		d := delta[o]
		row := l.w[o*n:][:len(newDelta)]
		for i, w := range row {
			newDelta[i] += d * w
		}
	}
	switch prev {
	case ReLU:
		for i, y := range inAct {
			newDelta[i] *= reluGrad(y)
		}
	case Tanh:
		for i, y := range inAct {
			newDelta[i] *= 1 - y*y
		}
	case Identity: // x*1 == x
	default:
		panic(fmt.Sprintf("neural: unknown activation %d", int(prev)))
	}
}

// Config parameterises training.
type Config struct {
	// Hidden lists the hidden-layer widths, e.g. []int{32, 16}.
	Hidden []int
	// HiddenActivation applies to every hidden layer (default ReLU).
	HiddenActivation Activation
	// LearningRate is the SGD step size.
	LearningRate float64
	// Momentum is the classical momentum coefficient.
	Momentum float64
	// WeightDecay is the L2 regularisation coefficient.
	WeightDecay float64
	// Epochs is the number of full passes per Train call.
	Epochs int
	// BatchSize is the minibatch size (default 16).
	BatchSize int
	// Seed drives weight initialisation and minibatch shuffling.
	Seed int64
	// Workers caps the goroutines used for data-parallel gradient
	// accumulation within each minibatch (0 = GOMAXPROCS, 1 = exact
	// sequential execution). Any value yields bit-identical weights:
	// per-example gradient contributions are staged in per-example
	// buffers and merged into the accumulators in example-index order,
	// so no floating-point addition is ever reordered.
	Workers int
}

// DefaultConfig returns sensible training hyperparameters for the expert
// models in this repository.
func DefaultConfig() Config {
	return Config{
		Hidden:           []int{32},
		HiddenActivation: ReLU,
		LearningRate:     0.05,
		Momentum:         0.9,
		WeightDecay:      1e-4,
		Epochs:           60,
		BatchSize:        16,
		Seed:             1,
	}
}

// Network is a feed-forward classifier with a softmax output.
type Network struct {
	cfg    Config
	layers []*layer
	rng    *rand.Rand
	// rngSrc counts draws on the seeded stream behind rng, making the
	// shuffle position checkpointable (State.RNGDraws).
	rngSrc  *mathx.CountingSource
	inDim   int
	classes int
	// inferScratch pools per-call forward buffers, making Predict and
	// PredictInto safe for concurrent use: committee voting fans
	// inference out across goroutines.
	inferScratch sync.Pool
	// shape keys the idle training scratch this network can reuse
	// (idleTrainScratch): input width, hidden widths, classes.
	shape string
}

// New constructs a network mapping inDim features to classes outputs.
func New(inDim, classes int, cfg Config) (*Network, error) {
	if inDim <= 0 || classes < 2 {
		return nil, fmt.Errorf("neural: invalid shape in=%d classes=%d", inDim, classes)
	}
	if cfg.LearningRate <= 0 {
		return nil, errors.New("neural: learning rate must be positive")
	}
	if cfg.Epochs < 0 {
		return nil, errors.New("neural: epochs must be non-negative")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.HiddenActivation == 0 {
		cfg.HiddenActivation = ReLU
	}
	rng, src := mathx.NewCountedRand(cfg.Seed)
	n := &Network{cfg: cfg, rng: rng, rngSrc: src, inDim: inDim, classes: classes}

	prev := inDim
	for _, h := range cfg.Hidden {
		if h <= 0 {
			return nil, fmt.Errorf("neural: hidden width must be positive, got %d", h)
		}
		n.layers = append(n.layers, newLayer(rng, prev, h, cfg.HiddenActivation))
		prev = h
	}
	n.layers = append(n.layers, newLayer(rng, prev, classes, Identity))
	n.shape = fmt.Sprint(inDim, cfg.Hidden, classes)
	return n, nil
}

// MustNew is New but panics on error; for static known-good configs.
func MustNew(inDim, classes int, cfg Config) *Network {
	n, err := New(inDim, classes, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// InputDim returns the expected feature dimensionality.
func (n *Network) InputDim() int { return n.inDim }

// Classes returns the number of output classes.
func (n *Network) Classes() int { return n.classes }

// Predict returns the softmax class distribution for x. The returned slice
// is freshly allocated and safe for the caller to retain. Predict is safe
// for concurrent use.
func (n *Network) Predict(x []float64) []float64 {
	return n.PredictInto(x, make([]float64, n.classes))
}

// PredictInto is Predict writing into dst (len == classes). Safe for
// concurrent use; internal forward buffers come from a pool.
func (n *Network) PredictInto(x, dst []float64) []float64 {
	s, _ := n.inferScratch.Get().(*[][]float64)
	if s == nil {
		s = n.newForwardScratch()
	}
	mathx.Softmax(n.forwardInto(x, *s), dst)
	n.inferScratch.Put(s)
	return dst
}

// newForwardScratch allocates one set of per-layer activation buffers.
// The pointer indirection keeps sync.Pool round-trips allocation-free.
func (n *Network) newForwardScratch() *[][]float64 {
	s := make([][]float64, len(n.layers))
	for i, l := range n.layers {
		s[i] = make([]float64, l.out)
	}
	return &s
}

// forwardInto runs inference through the given scratch buffers, returning
// the final logits (aliasing the last scratch buffer).
func (n *Network) forwardInto(x []float64, scratch [][]float64) []float64 {
	if len(x) != n.inDim {
		panic(fmt.Sprintf("neural: input dim %d, want %d", len(x), n.inDim))
	}
	in := x
	for i, l := range n.layers {
		l.forward(in, scratch[i])
		in = scratch[i]
	}
	return in
}

// Example is one training sample.
type Example struct {
	Features []float64
	// Target is a class distribution; use mathx.OneHot for hard labels.
	// Soft targets let MIC retrain on the crowd's aggregated label
	// distribution rather than a collapsed argmax.
	Target []float64
}

// Train runs cfg.Epochs of minibatch SGD over the examples and returns the
// mean cross-entropy of the final epoch. It is safe to call repeatedly;
// each call continues from the current weights (the retraining pathway in
// MIC relies on this).
func (n *Network) Train(examples []Example) (float64, error) {
	if len(examples) == 0 {
		return 0, errors.New("neural: no training examples")
	}
	for i, ex := range examples {
		if len(ex.Features) != n.inDim {
			return 0, fmt.Errorf("neural: example %d has dim %d, want %d", i, len(ex.Features), n.inDim)
		}
		if len(ex.Target) != n.classes {
			return 0, fmt.Errorf("neural: example %d target dim %d, want %d", i, len(ex.Target), n.classes)
		}
	}
	ts := n.takeTrainScratch()
	defer idleTrainScratch.put(n.shape, ts)
	var lastLoss float64
	for epoch := 0; epoch < n.cfg.Epochs; epoch++ {
		order := mathx.PermInto(n.rng, ts.order, len(examples))
		ts.order = order
		var epochLoss float64
		for start := 0; start < len(order); start += n.cfg.BatchSize {
			end := start + n.cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			epochLoss += n.trainBatch(ts, examples, order[start:end])
		}
		lastLoss = epochLoss / float64(len(examples))
	}
	return lastLoss, nil
}

// TrainWith is Train with the epoch count and learning rate overridden
// for this call only; non-positive values keep the configured defaults.
// MIC's incremental retraining uses this for short, gentle fine-tuning
// passes that continue from the current weights.
func (n *Network) TrainWith(examples []Example, epochs int, learningRate float64) (float64, error) {
	saved := n.cfg
	if epochs > 0 {
		n.cfg.Epochs = epochs
	}
	if learningRate > 0 {
		n.cfg.LearningRate = learningRate
	}
	loss, err := n.Train(examples)
	n.cfg = saved
	return loss, err
}

// TrainWithWorkers is TrainWith with the worker count also overridden
// for this call only; non-positive workers keeps the configured value.
// MIC's expert-level retrain fan-out uses workers=1 here so the three
// concurrent expert retrains do not multiply into per-example
// oversubscription underneath.
func (n *Network) TrainWithWorkers(examples []Example, epochs int, learningRate float64, workers int) (float64, error) {
	saved := n.cfg
	if epochs > 0 {
		n.cfg.Epochs = epochs
	}
	if learningRate > 0 {
		n.cfg.LearningRate = learningRate
	}
	if workers > 0 {
		n.cfg.Workers = workers
	}
	loss, err := n.Train(examples)
	n.cfg = saved
	return loss, err
}

// layerGrads accumulates one layer's gradients over a minibatch.
type layerGrads struct{ gw, gb []float64 }

// exampleStage holds one example's staged forward/backward results, so
// a minibatch's backprop passes can run in any order or concurrently
// before their gradient contributions merge in example-index order.
type exampleStage struct {
	// acts[0] aliases the example features; acts[li+1] is layer li's
	// activated output.
	acts [][]float64
	// deltas[li] is the output delta of layer li.
	deltas [][]float64
	probs  []float64
	loss   float64
}

// trainScratch is every reusable buffer of the training loop; after the
// first batch a Train call allocates nothing per batch, and a Train call
// that finds an idle set (idleTrainScratch) allocates nothing at all.
type trainScratch struct {
	gs []layerGrads
	// staged[p] is batch position p's staging area.
	staged []exampleStage
	// order is the epoch's shuffled example order, drawn with
	// mathx.PermInto so the checkpointed stream position
	// (State.RNGDraws) advances exactly as with rand.Perm.
	order []int
	// dt holds one layer's minibatch deltas batch-major; nz and nzd
	// are one output row's compacted batch positions with a nonzero
	// delta and those deltas (accumulate). All grow to the largest
	// batch seen.
	dt  []float64
	nz  []int
	nzd []float64
}

func (n *Network) newExampleStage() exampleStage {
	st := exampleStage{
		acts:   make([][]float64, len(n.layers)+1),
		deltas: make([][]float64, len(n.layers)),
		probs:  make([]float64, n.classes),
	}
	for i, l := range n.layers {
		st.acts[i+1] = make([]float64, l.out)
		st.deltas[i] = make([]float64, l.out)
	}
	return st
}

// idleTrainScratch holds the training scratch no Train call is using,
// by network shape. A Train call takes a set and puts it back when it
// returns, so consecutive retrains allocate nothing, networks of one
// shape share sets, and an idle network holds only its weights. The
// store keeps as many sets per shape as Train calls on that shape ever
// ran at once. Every buffer is overwritten before it is read, so which
// set a call gets cannot change its result.
var idleTrainScratch = scratchStore{idle: map[string][]*trainScratch{}}

type scratchStore struct {
	mu   sync.Mutex
	idle map[string][]*trainScratch
}

func (s *scratchStore) take(shape string) *trainScratch {
	s.mu.Lock()
	defer s.mu.Unlock()
	sets := s.idle[shape]
	if len(sets) == 0 {
		return nil
	}
	ts := sets[len(sets)-1]
	s.idle[shape] = sets[:len(sets)-1]
	return ts
}

func (s *scratchStore) put(shape string, ts *trainScratch) {
	s.mu.Lock()
	s.idle[shape] = append(s.idle[shape], ts)
	s.mu.Unlock()
}

// takeTrainScratch returns an idle scratch set of this network's shape,
// or a new one.
func (n *Network) takeTrainScratch() *trainScratch {
	if ts := idleTrainScratch.take(n.shape); ts != nil {
		return ts
	}
	ts := &trainScratch{gs: make([]layerGrads, len(n.layers))}
	for i, l := range n.layers {
		ts.gs[i] = layerGrads{gw: make([]float64, len(l.w)), gb: make([]float64, len(l.b))}
	}
	return ts
}

// backprop runs one example's forward and backward pass into the stage,
// leaving activations and per-layer deltas behind and recording the loss.
// It reads only immutable state (weights, config), so distinct stages may
// run concurrently.
func (n *Network) backprop(ex Example, st *exampleStage) {
	st.acts[0] = ex.Features
	in := ex.Features
	for li, l := range n.layers {
		l.forward(in, st.acts[li+1])
		in = st.acts[li+1]
	}
	mathx.Softmax(st.acts[len(n.layers)], st.probs)
	st.loss = mathx.CrossEntropy(ex.Target, st.probs)

	// delta for softmax + cross-entropy: p - t.
	last := st.deltas[len(n.layers)-1]
	for c := 0; c < n.classes; c++ {
		last[c] = st.probs[c] - ex.Target[c]
	}
	for li := len(n.layers) - 1; li >= 1; li-- {
		n.layers[li].backward(st.deltas[li], st.deltas[li-1], st.acts[li], n.layers[li-1].act)
	}
}

// accumulate folds the staged examples of one minibatch into the
// gradient accumulators ts.gs. Each accumulator element receives exactly
// the additions of a per-example loop over the batch in example-index
// order — gb[o] += d, gw[o][i] += d*v[i], with examples whose d == 0
// skipped, which matters for signed-zero bit patterns (DESIGN §9).
//
// Per layer, the batch's deltas are first copied batch-major into ts.dt,
// so the examples contributing to output row o sit contiguously. For
// each row, a branch-free pass compacts the examples with d != 0 (NaN
// included, ±0 excluded) into ts.nz and ts.nzd: the sign pattern of a
// row's deltas is near random, so a skip branch would mispredict often.
// The compacted examples are then folded four per pass over the weight
// row, so each gradient element is loaded and stored once per four
// examples instead of once per example.
func (n *Network) accumulate(ts *trainScratch, stages []exampleStage) {
	b := len(stages)
	if len(ts.nz) < b {
		ts.nz = make([]int, b)
		ts.nzd = make([]float64, b)
	}
	nz, nzd := ts.nz[:b], ts.nzd[:b]
	for li, l := range n.layers {
		if len(ts.dt) < b*l.out {
			ts.dt = make([]float64, b*l.out)
		}
		dt := ts.dt[:b*l.out]
		for p := range stages {
			for o, d := range stages[p].deltas[li][:l.out] {
				dt[o*b+p] = d
			}
		}
		gb := ts.gs[li].gb
		for o := 0; o < l.out; o++ {
			k := compactNonzero(dt[o*b:(o+1)*b], nz, nzd)
			row := ts.gs[li].gw[o*l.in : (o+1)*l.in]
			j := 0
			for ; j+4 <= k; j += 4 {
				d0, d1, d2, d3 := nzd[j], nzd[j+1], nzd[j+2], nzd[j+3]
				gb[o] += d0
				gb[o] += d1
				gb[o] += d2
				gb[o] += d3
				v0 := stages[nz[j]].acts[li][:len(row)]
				v1 := stages[nz[j+1]].acts[li][:len(row)]
				v2 := stages[nz[j+2]].acts[li][:len(row)]
				v3 := stages[nz[j+3]].acts[li][:len(row)]
				for i, g := range row {
					g += d0 * v0[i]
					g += d1 * v1[i]
					g += d2 * v2[i]
					g += d3 * v3[i]
					row[i] = g
				}
			}
			for ; j < k; j++ {
				d, v := nzd[j], stages[nz[j]].acts[li][:len(row)]
				gb[o] += d
				for i := range row {
					row[i] += d * v[i]
				}
			}
		}
	}
}

// compactNonzero writes the positions p of col's nonzero values, in
// order, to nz and the values to nzd, and returns their count. Every
// position is written and the count advanced by 0 or 1, so the pass
// takes no data-dependent branch.
func compactNonzero(col []float64, nz []int, nzd []float64) int {
	nz, nzd = nz[:len(col)], nzd[:len(col)]
	k := 0
	for p, d := range col {
		nz[k], nzd[k] = p, d
		k += b2i(d != 0)
	}
	return k
}

// relu and reluGrad are the ReLU activation and its derivative, without
// a branch: the sign of a unit's pre-activation is close to random, so
// a branch on it mispredicts about half the time. relu clears every bit
// of a negative z, giving +0 as `if z < 0 { z = 0 }` does; -0 and NaN
// compare false and pass through unchanged. reluGrad selects the bits of
// 1 or +0, the same g the branch picked (DESIGN §9).
func relu(z float64) float64 {
	return math.Float64frombits(math.Float64bits(z) &^ mask(z < 0))
}

func reluGrad(y float64) float64 {
	const oneBits = 0x3ff0000000000000 // math.Float64bits(1)
	return math.Float64frombits(oneBits & mask(y > 0))
}

// mask is all ones when b holds and zero otherwise; b2i is 1 or 0. The
// compiler turns both conditional assignments into conditional moves,
// so the kernels that use them take no data-dependent branch.
func mask(b bool) uint64 {
	var m uint64
	if b {
		m = ^uint64(0)
	}
	return m
}

func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// trainGrain is the chunking cost hint for per-example backprop: one
// forward+backward pass over the MLP shapes in this repository is tens
// of microseconds, so default-sized minibatches only fan out when a
// handoff actually pays for itself.
var trainGrain = parallel.Grain{CostNs: 25_000}

// trainBatch accumulates gradients over one minibatch and applies one
// optimizer update. Returns the summed cross-entropy over the batch.
// With cfg.Workers and the batch shape resolving to more than one
// grain-effective worker, per-example passes run concurrently and merge
// deterministically; the result is bit-identical at any worker count.
func (n *Network) trainBatch(ts *trainScratch, examples []Example, idx []int) float64 {
	gs := ts.gs
	for li := range gs {
		clear(gs[li].gw)
		clear(gs[li].gb)
	}

	for len(ts.staged) < len(idx) {
		ts.staged = append(ts.staged, n.newExampleStage())
	}
	stages := ts.staged[:len(idx)]
	if w, _ := trainGrain.Effective(n.cfg.Workers, len(idx)); w > 1 {
		parallel.ForGrain(n.cfg.Workers, len(idx), trainGrain, func(p int) {
			n.backprop(examples[idx[p]], &stages[p])
		})
	} else {
		for p, ei := range idx {
			n.backprop(examples[ei], &stages[p])
		}
	}
	var totalLoss float64
	for p := range stages { // deterministic merge: fixed example order
		totalLoss += stages[p].loss
	}
	n.accumulate(ts, stages)

	// SGD-with-momentum update with L2 decay, averaged over the batch.
	scale := 1 / float64(len(idx))
	lr, mom, wd := n.cfg.LearningRate, n.cfg.Momentum, n.cfg.WeightDecay
	for li, l := range n.layers {
		ws, gw, vw := l.w, gs[li].gw[:len(l.w)], l.vw[:len(l.w)]
		for i, w := range ws {
			g := gw[i]*scale + wd*w
			vw[i] = mom*vw[i] - lr*g
			ws[i] = w + vw[i]
		}
		bs, gb, vb := l.b, gs[li].gb[:len(l.b)], l.vb[:len(l.b)]
		for i, b := range bs {
			g := gb[i] * scale
			vb[i] = mom*vb[i] - lr*g
			bs[i] = b + vb[i]
		}
	}
	return totalLoss
}

// Clone returns a copy of the network with its own weights and momentum
// buffers, for gradient checks that probe perturbed weights. The clone
// shares the original's RNG stream: training either one advances the
// other's shuffle stream, so a clone must not train at the same time as
// its original.
func (n *Network) Clone() *Network {
	cp := &Network{
		cfg:     n.cfg,
		rng:     n.rng, // deliberately shared: clone continues the stream
		rngSrc:  n.rngSrc,
		inDim:   n.inDim,
		classes: n.classes,
		shape:   n.shape,
	}
	cp.layers = make([]*layer, len(n.layers))
	for i, l := range n.layers {
		cp.layers[i] = &layer{
			in:  l.in,
			out: l.out,
			act: l.act,
			w:   mathx.Clone(l.w),
			b:   mathx.Clone(l.b),
			vw:  mathx.Clone(l.vw),
			vb:  mathx.Clone(l.vb),
		}
	}
	return cp
}

// NumParameters returns the total number of trainable parameters.
func (n *Network) NumParameters() int {
	total := 0
	for _, l := range n.layers {
		total += len(l.w) + len(l.b)
	}
	return total
}
