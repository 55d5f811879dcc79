package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolve(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			hits := make([]int32, n)
			For(workers, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForWorkerSlotsInRange(t *testing.T) {
	const workers, n = 4, 200
	var bad atomic.Int32
	ForWorker(workers, n, func(w, i int) {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d calls saw an out-of-range worker slot", bad.Load())
	}
}

func TestForSequentialOrderAtOneWorker(t *testing.T) {
	var order []int
	For(1, 50, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("Workers=1 must run in index order; position %d got %d", i, v)
		}
	}
}

func TestMapOrderedAtAnyWorkerCount(t *testing.T) {
	want := Map(1, 123, func(i int) int { return i * i })
	for _, workers := range []int{2, 5, 16} {
		got := Map(workers, 123, func(i int) int { return i * i })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	errAt := func(fail ...int) func(i int) error {
		set := map[int]bool{}
		for _, f := range fail {
			set[f] = true
		}
		return func(i int) error {
			if set[i] {
				return fmt.Errorf("fail@%d", i)
			}
			return nil
		}
	}
	for _, workers := range []int{1, 4, 13} {
		if err := ForErr(workers, 40, errAt()); err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		err := ForErr(workers, 40, errAt(31, 7, 22))
		if err == nil || err.Error() != "fail@7" {
			t.Fatalf("workers=%d: got %v, want fail@7", workers, err)
		}
	}
}

func TestForPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			For(workers, 100, func(i int) {
				if i == 42 {
					panic(errors.New("boom"))
				}
			})
		}()
	}
}

// TestDeterministicReductionShape documents the discipline every caller
// follows: parallel stage writes per-index slots, the reduction runs
// sequentially in index order afterwards. The float sum here is
// bit-identical across worker counts because the additions happen in the
// same order regardless of scheduling.
func TestDeterministicReductionShape(t *testing.T) {
	n := 10_000
	reduce := func(workers int) float64 {
		parts := Map(workers, n, func(i int) float64 { return 1.0 / float64(i+1) })
		var sum float64
		for _, p := range parts { // fixed index order
			sum += p
		}
		return sum
	}
	want := reduce(1)
	for _, workers := range []int{2, 3, 8} {
		if got := reduce(workers); got != want {
			t.Fatalf("workers=%d: sum %x differs from sequential %x", workers, got, want)
		}
	}
}

// recordingObserver captures the scheduling event stream for inspection.
// Per-slot counters rely on the Observer contract (disjoint slots, loop
// start/end on the caller's goroutine) rather than atomics, so the race
// detector also validates that contract.
type recordingObserver struct {
	workers, n, chunk int
	loopStarts        int
	loopEnds          int
	starts, ends      []int   // chunk events per worker slot
	covered           []int32 // per-index coverage from ChunkStart ranges
	open              []int   // currently open chunks per slot
}

func (r *recordingObserver) LoopStart(workers, n, chunk int) {
	r.loopStarts++
	r.workers, r.n, r.chunk = workers, n, chunk
	r.starts = make([]int, workers)
	r.ends = make([]int, workers)
	r.open = make([]int, workers)
	r.covered = make([]int32, n)
}

func (r *recordingObserver) ChunkStart(worker, lo, hi int) {
	r.starts[worker]++
	r.open[worker]++
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&r.covered[i], 1)
	}
}

func (r *recordingObserver) ChunkEnd(worker, lo, hi int) {
	r.ends[worker]++
	r.open[worker]--
}

func (r *recordingObserver) LoopEnd() { r.loopEnds++ }

func TestForObsEventStreamCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 2, 9, 100} {
			rec := &recordingObserver{}
			var ran atomic.Int32
			ForObs(workers, n, rec, func(i int) { ran.Add(1) })
			if int(ran.Load()) != n {
				t.Fatalf("workers=%d n=%d: fn ran %d times", workers, n, ran.Load())
			}
			if rec.loopStarts != 1 || rec.loopEnds != 1 {
				t.Fatalf("workers=%d n=%d: loop events %d/%d, want 1/1", workers, n, rec.loopStarts, rec.loopEnds)
			}
			if rec.workers < 1 || rec.workers > Workers(workers) || rec.workers > n {
				t.Fatalf("workers=%d n=%d: reported worker count %d out of range", workers, n, rec.workers)
			}
			for i, c := range rec.covered {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered by %d chunks", workers, n, i, c)
				}
			}
			for w := 0; w < rec.workers; w++ {
				if rec.starts[w] != rec.ends[w] {
					t.Fatalf("workers=%d n=%d: slot %d has %d starts but %d ends", workers, n, w, rec.starts[w], rec.ends[w])
				}
				if rec.open[w] != 0 {
					t.Fatalf("workers=%d n=%d: slot %d left %d chunks open", workers, n, w, rec.open[w])
				}
			}
		}
	}
}

// TestForObsZeroItemsEmitsNothing: the n=0 early return must not fire
// loop events (there is no loop to profile).
func TestForObsZeroItemsEmitsNothing(t *testing.T) {
	rec := &recordingObserver{}
	ForObs(4, 0, rec, func(int) { t.Fatal("fn ran for n=0") })
	if rec.loopStarts != 0 || rec.loopEnds != 0 {
		t.Fatalf("n=0 emitted loop events %d/%d", rec.loopStarts, rec.loopEnds)
	}
}

// TestForObsIdenticalResults: observation must not perturb outputs.
func TestForObsIdenticalResults(t *testing.T) {
	want := Map(4, 257, func(i int) float64 { return 1.0 / float64(i+1) })
	got := make([]float64, 257)
	ForObs(4, 257, &recordingObserver{}, func(i int) { got[i] = 1.0 / float64(i+1) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("observed loop diverged at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestForErrObsPreservesErrorSelection(t *testing.T) {
	rec := &recordingObserver{}
	err := ForErrObs(4, 40, rec, func(i int) error {
		if i == 7 || i == 31 {
			return fmt.Errorf("fail@%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail@7" {
		t.Fatalf("got %v, want fail@7", err)
	}
	if rec.loopEnds != 1 {
		t.Fatalf("loop end events = %d", rec.loopEnds)
	}
}

func TestGrainEffective(t *testing.T) {
	cases := []struct {
		name      string
		g         Grain
		workers   int
		n         int
		wantW     int
		wantChunk int
	}{
		{"zero grain keeps historical chunking", Grain{}, 4, 100, 4, 6},
		{"cheap cost hint below default is ignored", Grain{CostNs: 50_000}, 4, 100, 4, 6},
		{"min chunk floor reduces workers", Grain{MinChunk: 50}, 4, 100, 2, 50},
		{"expensive handoff collapses tiny loop inline", Grain{CostNs: 4_000}, 4, 10, 1, 10},
		{"cost hint grows chunk", Grain{CostNs: 1_000}, 4, 1000, 4, 100},
		{"short tail chunk earns no worker", Grain{CostNs: 10_000}, 2, 12, 1, 12},
		{"two full chunks earn two workers", Grain{CostNs: 20_000}, 2, 12, 2, 5},
		{"single worker always inline", Grain{}, 1, 100, 1, 100},
		{"empty loop", Grain{}, 4, 0, 1, 0},
		{"one item", Grain{CostNs: 1}, 4, 1, 1, 1},
	}
	for _, tc := range cases {
		w, chunk := tc.g.Effective(tc.workers, tc.n)
		if w != tc.wantW || chunk != tc.wantChunk {
			t.Errorf("%s: Effective(%d, %d) = (%d, %d), want (%d, %d)",
				tc.name, tc.workers, tc.n, w, chunk, tc.wantW, tc.wantChunk)
		}
	}
}

// TestGrainInlineCollapseObserved: a loop whose items are too cheap to
// amortize a handoff must run inline and report itself as one worker,
// one chunk — the signal internal/prof counts as an inline collapse.
func TestGrainInlineCollapseObserved(t *testing.T) {
	rec := &recordingObserver{}
	var order []int
	ForGrainObs(8, 10, Grain{CostNs: 4_000}, rec, func(i int) { order = append(order, i) })
	if rec.workers != 1 || rec.chunk != 10 {
		t.Fatalf("reported workers=%d chunk=%d, want 1/10 (inline collapse)", rec.workers, rec.chunk)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("inline collapse must run in index order; position %d got %d", i, v)
		}
	}
}

// TestGrainCoversEveryIndexOnce: grained scheduling must preserve the
// exactly-once coverage contract at every worker count and hint shape.
func TestGrainCoversEveryIndexOnce(t *testing.T) {
	grains := []Grain{{}, {MinChunk: 7}, {CostNs: 500}, {MinChunk: 3, CostNs: 25_000}}
	for _, g := range grains {
		for _, workers := range []int{1, 2, 4, 16} {
			for _, n := range []int{0, 1, 5, 64, 1000} {
				hits := make([]int32, n)
				ForGrain(workers, n, g, func(i int) { atomic.AddInt32(&hits[i], 1) })
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("grain=%+v workers=%d n=%d: index %d hit %d times", g, workers, n, i, h)
					}
				}
			}
		}
	}
}

// distObserver counts items per worker slot. Per-slot writes need no
// locking: the Observer contract delivers each slot's events on one
// goroutine.
type distObserver struct {
	items [64]int
}

func (d *distObserver) LoopStart(workers, n, chunk int) {}
func (d *distObserver) ChunkStart(worker, lo, hi int)   { d.items[worker] += hi - lo }
func (d *distObserver) ChunkEnd(worker, lo, hi int)     {}
func (d *distObserver) LoopEnd()                        {}

// TestChunkDistributionNearEven is the regression test for the
// chunk-starvation bug: with the old single shared cursor, slot 0 (the
// calling goroutine) claimed essentially every chunk before spawned
// workers were scheduled — the profiler measured 5112/5120 items on one
// worker. Segmented cursors give each worker its own contiguous share,
// so for item counts ≫ workers every slot must process a meaningful
// fraction even on an oversubscribed machine.
func TestChunkDistributionNearEven(t *testing.T) {
	const workers, n = 4, 4096
	// Pin a single P so interleaving is decided by the Go scheduler's
	// run queue, not by OS thread timeslices: with GOMAXPROCS > cores,
	// millisecond-scale OS slices let one worker drain and steal most
	// segments before the others' threads ever run, making the
	// distribution a coin flip. One P plus the per-item yield below
	// gives fair round-robin on any host — and the starved-worker bug
	// this guards against was a single-P phenomenon in the first place.
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	rec := &distObserver{}
	ForWorkerObs(workers, n, rec, func(_, i int) {
		// Yield so all workers interleave even on the single P.
		runtime.Gosched()
	})

	total := 0
	for slot := 0; slot < workers; slot++ {
		total += rec.items[slot]
	}
	if total != n {
		t.Fatalf("items accounted = %d, want %d", total, n)
	}
	// Each slot owns a ~n/w segment that others only steal after
	// draining their own, so every slot must get a real share and no
	// slot may monopolize the loop.
	min := n / (8 * workers)
	for slot := 0; slot < workers; slot++ {
		if rec.items[slot] < min {
			t.Errorf("slot %d processed %d items, want >= %d (starved)", slot, rec.items[slot], min)
		}
	}
	if rec.items[0] > n/2 {
		t.Errorf("slot 0 processed %d/%d items: caller monopolized the cursor", rec.items[0], n)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sink atomic.Int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				For(workers, 64, func(j int) {
					if j == 63 {
						sink.Add(1)
					}
				})
			}
		})
	}
}
