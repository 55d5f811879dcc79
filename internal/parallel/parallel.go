// Package parallel is the deterministic fork-join substrate under every
// hot loop of the reproduction: committee scoring in QSS, split search
// and gradient updates in GBDT training, per-example backpropagation in
// the neural substrate, and whole-campaign fan-out in the experiment
// runners.
//
// The package makes one promise the callers lean on everywhere:
// *scheduling never influences results*. Work items are identified by
// index, every output slot is owned by exactly one index, and any
// cross-item reduction is performed by the caller in fixed index order
// after the loop returns. Under that discipline a loop produces
// bit-identical results at any worker count — Workers=1 runs inline on
// the calling goroutine with zero scheduling overhead, Workers=N merely
// finishes sooner. There are no atomic float accumulations and no
// worker-order merges anywhere in this repository.
//
// Scheduling is segmented work stealing: the index space is split into
// one contiguous segment per worker, each with its own atomic cursor.
// A worker drains its own segment in chunk-sized claims and only then
// steals from other segments, so under light contention every worker
// processes a near-equal contiguous share (cache locality on
// slice-shaped data) while skewed item costs (tree depths, expert
// sizes) still rebalance through stealing. Worker goroutines are
// spawned per call; the loops this package serves are coarse enough
// (microseconds to minutes per item) that pool reuse would buy nothing
// measurable.
//
// Chunk sizes are governed by Grain, a caller-supplied cost hint: a
// chunk must be large enough to amortize the cross-goroutine handoff it
// costs, a worker is added only for a full chunk, and a loop whose
// total work cannot fill two such chunks collapses to the inline
// sequential path. Callers that know an item's order-of-magnitude cost
// pass it; the zero Grain preserves the historical n/(workers·4)
// chunking.
//
// The *Obs loop variants accept an Observer that receives per-chunk
// scheduling events — the measurement hook internal/prof builds its
// per-worker utilization profiles on. Observation is strictly passive:
// this package reads no clock and an observer cannot influence
// scheduling, so observed and unobserved loops produce identical
// results.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count configuration value: n > 0 is used as
// given, anything else (the zero value of every Workers field in this
// repository) means runtime.GOMAXPROCS(0). Callers that must distinguish
// "explicitly sequential" from "default" therefore use 1, not 0.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// amortizeNs is the scheduling budget one chunk must pay for: the
// order-of-magnitude cost of handing a work unit to another goroutine
// (spawn share, cursor contention, cache warm-up) with a wide safety
// margin. A chunk is sized so its useful work is ≥ this budget, which
// is what turned the committed workers=4 RunCycle regression around:
// ten-image voting loops at ~4µs/item no longer fan out at all.
const amortizeNs = 100_000

// Grain is a caller-supplied cost hint governing how a loop is cut into
// chunks. The zero value preserves the historical policy (four chunks
// per worker, minimum one item).
type Grain struct {
	// MinChunk is the smallest index range worth handing to another
	// goroutine, for callers that know their natural batch shape
	// (e.g. one expert retrain, one minibatch). 0 means no floor.
	MinChunk int
	// CostNs is the order-of-magnitude cost of one item in
	// nanoseconds. When set, chunks are sized to ceil(amortize/cost)
	// items so every handoff is paid for. 0 means unknown.
	CostNs int64
}

// Effective resolves the shape a grained loop will actually run with:
// the effective worker count and chunk size after applying the cost
// policy. w == 1 means the loop will run inline on the caller's
// goroutine. Callers with separate sequential code paths (e.g. the
// neural trainer's staged-vs-sequential split) use this to pick a path
// consistent with what the For* functions would do.
func (g Grain) Effective(workers, n int) (w, chunk int) {
	if n <= 0 {
		return 1, 0
	}
	w = Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		return 1, n
	}
	// Historical default: four chunks per worker balances locality
	// against cost skew.
	chunk = n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	if g.MinChunk > chunk {
		chunk = g.MinChunk
	}
	if g.CostNs > 0 {
		if need := int((amortizeNs + g.CostNs - 1) / g.CostNs); need > chunk {
			chunk = need
		}
	}
	if chunk >= n {
		return 1, n
	}
	// A worker is worth adding only for a full chunk: a short tail chunk
	// cannot pay for the handoff that would hand it to another
	// goroutine, so it stays with a worker that already runs.
	if eff := n / chunk; eff < w {
		w = eff
	}
	if w <= 1 {
		return 1, n
	}
	return w, chunk
}

// Observer receives scheduling events from one observed loop, the hook
// the profiling layer (internal/prof) uses to attribute busy and idle
// time per worker without this package ever reading a clock itself.
//
// Event contract: LoopStart is delivered on the calling goroutine before
// any worker runs, announcing the *effective* worker count and chunk
// size after grain policy (an inline-collapsed loop reports workers=1,
// chunk=n); ChunkStart/ChunkEnd pairs then arrive per contiguous index
// range, each pair on the goroutine of the worker slot it names (slots
// are disjoint, so per-slot state needs no locking); LoopEnd is
// delivered on the calling goroutine after every worker has joined.
// Observers must not mutate loop state — observation never influences
// scheduling or results.
type Observer interface {
	// LoopStart announces the resolved worker count, item count and
	// chunk size of the loop about to run.
	LoopStart(workers, n, chunk int)
	// ChunkStart marks worker picking up indices [lo, hi).
	ChunkStart(worker, lo, hi int)
	// ChunkEnd marks worker finishing indices [lo, hi).
	ChunkEnd(worker, lo, hi int)
	// LoopEnd marks the join of every worker.
	LoopEnd()
}

// For runs fn(i) for every i in [0, n), distributing indices across up to
// `workers` goroutines (resolved via Workers). fn must not touch state
// shared with other indices except through its own output slot; under
// that contract the result is independent of the worker count. A resolved
// worker count of 1 — or n < 2 — executes inline on the caller's
// goroutine in index order with no goroutines spawned.
func For(workers, n int, fn func(i int)) {
	ForWorkerGrainObs(workers, n, Grain{}, nil, func(_, i int) { fn(i) })
}

// ForObs is For with an optional scheduling observer; a nil observer is
// exactly For.
func ForObs(workers, n int, o Observer, fn func(i int)) {
	ForWorkerGrainObs(workers, n, Grain{}, o, func(_, i int) { fn(i) })
}

// ForGrain is For with a chunking cost hint.
func ForGrain(workers, n int, g Grain, fn func(i int)) {
	ForWorkerGrainObs(workers, n, g, nil, func(_, i int) { fn(i) })
}

// ForGrainObs is For with a chunking cost hint and an optional
// scheduling observer.
func ForGrainObs(workers, n int, g Grain, o Observer, fn func(i int)) {
	ForWorkerGrainObs(workers, n, g, o, func(_, i int) { fn(i) })
}

// ForWorker is For where fn also receives the worker slot w in
// [0, resolved workers) running the index — the hook for per-worker
// scratch buffers (split-search orderings, softmax temporaries,
// backpropagation activations). Slot 0 is the calling goroutine whenever
// execution is inline.
//
// A panic inside fn is re-raised on the calling goroutine after all
// workers stop (first panicking worker wins; with multiple simultaneous
// panics the surviving value is scheduling-dependent, but by then the
// process is crashing anyway).
func ForWorker(workers, n int, fn func(worker, i int)) {
	ForWorkerGrainObs(workers, n, Grain{}, nil, fn)
}

// ForWorkerObs is ForWorker with an optional scheduling observer. A nil
// observer costs one predictable branch per chunk; a non-nil observer
// receives the event stream documented on Observer. Observation is
// read-only: results are bit-identical with and without one.
func ForWorkerObs(workers, n int, o Observer, fn func(worker, i int)) {
	ForWorkerGrainObs(workers, n, Grain{}, o, fn)
}

// segCursor is one segment's claim cursor, padded to a cache line so
// workers draining their own segments do not false-share.
type segCursor struct {
	claimed atomic.Int64
	_       [56]byte
}

// ForWorkerGrainObs is the full-generality loop: per-worker slots, a
// chunking cost hint and an optional observer. All other loop variants
// delegate here.
//
// Scheduling: the index space [0, n) is cut into one contiguous segment
// per effective worker. Each worker drains its own segment in
// chunk-sized claims off the segment's atomic cursor, then steals from
// the other segments in ring order. The segment start keeps chunk
// distribution near-even when item costs are uniform (every worker owns
// ~n/w contiguous indices) while stealing preserves the load balancing
// the single shared cursor used to provide — without its failure mode,
// where the caller's slot 0 drained the whole cursor before spawned
// goroutines were scheduled at all.
func ForWorkerGrainObs(workers, n int, g Grain, o Observer, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w, chunk := g.Effective(workers, n)
	if w <= 1 {
		if o != nil {
			o.LoopStart(1, n, n)
			o.ChunkStart(0, 0, n)
		}
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		if o != nil {
			o.ChunkEnd(0, 0, n)
			o.LoopEnd()
		}
		return
	}

	if o != nil {
		o.LoopStart(w, n, chunk)
	}
	segs := make([]segCursor, w)
	var (
		wg    sync.WaitGroup
		once  sync.Once
		fault any
	)
	// claim takes the next chunk of segment s, clamped to the segment
	// bounds. Segment s owns [s·n/w, (s+1)·n/w); cursors are monotonic
	// so an exhausted segment stays exhausted.
	claim := func(s int) (lo, hi int, ok bool) {
		base, end := s*n/w, (s+1)*n/w
		off := int(segs[s].claimed.Add(int64(chunk))) - chunk
		lo = base + off
		if lo >= end {
			return 0, 0, false
		}
		hi = lo + chunk
		if hi > end {
			hi = end
		}
		return lo, hi, true
	}
	body := func(slot int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				once.Do(func() { fault = r })
			}
		}()
		cur, misses := slot, 0
		for misses < w {
			lo, hi, ok := claim(cur)
			if !ok {
				cur++
				if cur == w {
					cur = 0
				}
				misses++
				continue
			}
			misses = 0
			if o != nil {
				o.ChunkStart(slot, lo, hi)
			}
			for i := lo; i < hi; i++ {
				fn(slot, i)
			}
			if o != nil {
				o.ChunkEnd(slot, lo, hi)
			}
		}
	}
	wg.Add(w)
	for slot := 1; slot < w; slot++ {
		go body(slot)
	}
	// Give spawned workers a chance to reach their own segments before
	// slot 0 starts; without this yield a single-P runtime let the
	// caller drain essentially every chunk (5112/5120 observed).
	runtime.Gosched()
	body(0) // the caller is worker slot 0
	wg.Wait()
	if o != nil {
		o.LoopEnd()
	}
	if fault != nil {
		panic(fault)
	}
}

// Detach runs fn on its own goroutine and returns a join function.
// Calling join blocks until fn completes and returns fn's error; a
// panic inside fn is captured and re-raised on the joining goroutine,
// so a detached failure can never escape unsupervised. join may be
// called more than once; every call reports the same outcome.
//
// This is the single-task complement to the fork-join loops above —
// the seam core's pipelined campaign runner uses to overlap one
// cycle's durable commit with the next cycle's compute.
func Detach(fn func() error) (join func() error) {
	done := make(chan struct{})
	var (
		err   error
		fault any
	)
	go func() {
		defer close(done)
		defer func() {
			if r := recover(); r != nil {
				fault = r
			}
		}()
		err = fn()
	}()
	return func() error {
		<-done
		if fault != nil {
			panic(fault)
		}
		return err
	}
}

// Map runs fn(i) for every i in [0, n) and returns the results in index
// order. The ordered output slice is the deterministic merge: no matter
// which worker computed an element, out[i] is fn(i).
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// ForErr runs fn(i) for every i in [0, n) and returns the error of the
// lowest failing index — the same error a sequential loop that collects
// all failures would report first, so error selection is deterministic
// at any worker count. All indices run even when an early one fails;
// the fan-outs this serves (campaign arms, committee experts) are small
// and their work is side-effect-free on failure.
func ForErr(workers, n int, fn func(i int) error) error {
	return ForErrGrainObs(workers, n, Grain{}, nil, fn)
}

// ForErrObs is ForErr with an optional scheduling observer; a nil
// observer is exactly ForErr.
func ForErrObs(workers, n int, o Observer, fn func(i int) error) error {
	return ForErrGrainObs(workers, n, Grain{}, o, fn)
}

// ForErrGrainObs is ForErr with a chunking cost hint and an optional
// scheduling observer.
func ForErrGrainObs(workers, n int, g Grain, o Observer, fn func(i int) error) error {
	errs := make([]error, n)
	ForGrainObs(workers, n, g, o, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
