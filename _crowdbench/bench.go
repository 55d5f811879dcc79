package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/service"
)

// workload is one traffic pattern the benchmark drives through the
// serving stack. The rates and latency limits are absolute: they are
// never scaled from a measured capacity, so a faster pipeline is
// offered exactly the same load.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second; 0 runs
	// a closed loop with one client.
	rate float64
	// limit is the latency limit goodput counts against.
	limit time.Duration
	// admission turns the overload ladder on.
	admission bool
	// campaigns is the number of campaign tags requests rotate through.
	campaigns int
	// restart serves from a crash image of an earlier process's state.
	restart bool
}

var workloads = []workload{
	{name: "crowd-cycle", limit: 100 * time.Millisecond},
	{name: "overload-shed", rate: 60, limit: 250 * time.Millisecond, admission: true, campaigns: 4},
	{name: "restart-recover", limit: 100 * time.Millisecond, restart: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options sizes one run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// bringUps is how many times an untraced run brings the stack up;
	// setup_s is the median.
	bringUps int
	// warmup is the number of crowd-answered cycles served before
	// timing starts: 40 cycles of 5 crowd labels fill the 200-sample
	// retraining memory, after which cycle time stops climbing.
	warmup int
	// probe is the number of requests every bring-up answers first;
	// their responses must match byte for byte across bring-ups.
	probe int
	// prepCycles and prepCheckpointEvery shape restart-recover's crash
	// image: the earlier process checkpoints every prepCheckpointEvery
	// cycles and crashes after prepCycles, leaving the cycles past the
	// newest checkpoint to replay. reference is how many more cycles
	// that process serves uninterrupted, the responses every recovered
	// stack must reproduce.
	prepCycles, prepCheckpointEvery, reference int
	// dir holds state directories (removed after the run) and the
	// traced run's span file.
	dir string
}

func defaultOptions() options {
	return options{
		seed:                1,
		seconds:             36,
		bringUps:            3,
		warmup:              40,
		probe:               4,
		prepCycles:          56,
		prepCheckpointEvery: 32,
		reference:           16,
		dir:                 ".bench_build",
	}
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// bench is one run of one workload.
type bench struct {
	w     workload
	opt   options
	epoch time.Time
	work  string

	setups    []*stack
	totals    counts
	problems  []string
	metrics   []metric
	crash     string
	reference []result
	// probe holds the first bring-up's probe answers.
	probe []result
}

// instance is one running stack and everything it answered.
type instance struct {
	*stack
	stream  *stream
	first   int // index of the stack's first cycle
	t       tally
	results []result
	resps   []*service.Response
}

func (b *bench) fail(format string, args ...any) {
	if len(b.problems) < maxProblems {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) report(name string, value float64, unit string) {
	b.metrics = append(b.metrics, metric{name: name, value: value, unit: unit})
}

func (b *bench) since() time.Duration { return time.Since(b.epoch) }

// runWorkload makes one run. An error means the harness could not run
// the workload at all; failed checks land in b.problems.
func runWorkload(w workload, opt options) (*bench, error) {
	b := &bench{w: w, opt: opt, epoch: time.Now()}
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(opt.dir, "work-")
	if err != nil {
		return nil, err
	}
	b.work = work
	defer os.RemoveAll(work)
	if w.restart {
		if err := b.prepareCrash(); err != nil {
			return nil, err
		}
	}
	if opt.trace {
		err = b.tracedRun()
	} else {
		err = b.untracedRun()
	}
	return b, err
}

// bringUp starts stack number i, traced when rec is set, and answers
// its probe requests.
func (b *bench) bringUp(i int, rec *recorder) (*instance, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("stack%d", i))
	first := 0
	if b.crash != "" {
		if err := copyDir(b.crash, dir); err != nil {
			return nil, err
		}
		first = b.opt.prepCycles
	}
	st, err := startStack(stackConfig{
		dir:             dir,
		checkpointEvery: daemonCheckpointEvery,
		admission:       b.w.admission,
		rec:             rec,
	})
	if err != nil {
		return nil, err
	}
	b.setups = append(b.setups, st)
	if st.report.NextCycle != first {
		b.fail("stack %d recovered to cycle %d, want %d", i, st.report.NextCycle, first)
	}
	in := &instance{
		stack:  st,
		stream: streamAt(b.opt.seed, st.lab.Dataset.Test, b.w.campaigns, first),
		first:  first,
		t:      tally{refusable: b.w.admission},
	}
	probe := b.serve(in, closedLoop(in.handler, b.epoch, in.stream, 0, b.opt.probe))
	want := b.probe
	if b.crash != "" {
		want = b.reference
	} else if b.probe == nil {
		b.probe = probe
	}
	if at := samePrefix(probe, want); at >= 0 {
		b.fail("bring-up %d: response to request %d differs from the reference", i, probe[at].req.seq)
	}
	return in, nil
}

// serve checks answered requests and records them on the instance.
func (b *bench) serve(in *instance, res []result) []result {
	for _, r := range res {
		in.resps = append(in.resps, in.t.add(r))
	}
	in.results = append(in.results, res...)
	return res
}

// close stops an instance and folds its checks into the run's.
func (b *bench) close(in *instance) {
	if err := in.stop(); err != nil {
		b.fail("stop: %v", err)
	}
	b.totals = b.totals.plus(in.t.counts)
	for _, p := range in.t.problems {
		b.fail("%s", p)
	}
	if err := checkConsecutive(in.t.fullIndexes, in.first); err != nil {
		b.fail("%v", err)
	}
}

// warm serves closed-loop requests until the system has answered
// opt.warmup cycles with crowd labels, and returns that count.
func (b *bench) warm(in *instance) int {
	done := func() int {
		n := in.t.full
		if b.crash != "" {
			n += b.opt.prepCycles
		}
		return n
	}
	for done() < b.opt.warmup && in.t.failed+in.t.refused == 0 {
		b.serve(in, closedLoop(in.handler, b.epoch, in.stream, 0, 1))
	}
	return done()
}

// phase is one timed stretch of the workload on an instance.
type phase struct {
	results  []result
	resps    []*service.Response
	counts   counts
	elapsed  time.Duration
	lateness []time.Duration
}

// measure runs the workload on an instance for dur.
func (b *bench) measure(in *instance, dur time.Duration, open bool) phase {
	before := in.t.counts
	from := len(in.results)
	start := b.since()
	var p phase
	var res []result
	if open {
		res, p.lateness = openLoop(in.handler, b.epoch, in.stream, b.w.rate, start, dur)
	} else {
		res = closedLoop(in.handler, b.epoch, in.stream, start+dur, 0)
		// A closed-loop client is due to send as soon as the previous
		// answer arrives; its lateness is the generator's own overhead.
		prev := start
		for _, r := range res {
			p.lateness = append(p.lateness, r.sent-prev)
			prev = r.done
		}
	}
	b.serve(in, res)
	p.results = in.results[from:]
	p.resps = in.resps[from:]
	p.counts = in.t.counts.minus(before)
	for _, r := range res {
		p.elapsed = max(p.elapsed, r.done-start)
	}
	return p
}

func (b *bench) seconds(share float64) time.Duration {
	return time.Duration(share * b.opt.seconds * float64(time.Second))
}

// prepareCrash builds restart-recover's crash image, untimed: an
// earlier process serves prepCycles cycles, checkpointing every
// prepCheckpointEvery, and its state directory is copied as a crash at
// that point would leave it (every served cycle is already in the
// fsynced log). The process then serves reference more cycles without
// interruption; their responses are what recovered stacks must return.
func (b *bench) prepareCrash() error {
	dir := filepath.Join(b.work, "prep")
	st, err := startStack(stackConfig{dir: dir, checkpointEvery: b.opt.prepCheckpointEvery})
	if err != nil {
		return err
	}
	in := &instance{stack: st, stream: streamAt(b.opt.seed, st.lab.Dataset.Test, b.w.campaigns, 0)}
	b.serve(in, closedLoop(in.handler, b.epoch, in.stream, 0, b.opt.prepCycles))
	b.crash = filepath.Join(b.work, "crash")
	if err := copyDir(dir, b.crash); err != nil {
		return errors.Join(err, st.stop())
	}
	b.reference = b.serve(in, closedLoop(in.handler, b.epoch, in.stream, 0, b.opt.reference))
	b.close(in)
	return nil
}

// untracedRun measures the end-to-end metrics: bring the stack up
// opt.bringUps times, warm the last one up, then time the workload.
func (b *bench) untracedRun() error {
	var in *instance
	for i := 0; i < b.opt.bringUps; i++ {
		var err error
		if in, err = b.bringUp(i, nil); err != nil {
			return err
		}
		if i < b.opt.bringUps-1 {
			b.close(in)
		}
	}
	warmed := b.warm(in)
	runtime.GC()
	heap := startHeapSampler()
	p := b.measure(in, b.seconds(1), b.w.rate > 0)
	peak := heap.finish()
	b.close(in)
	if b.crash != "" && len(in.results) < len(b.reference) {
		b.fail("served %d requests after recovery, fewer than the %d reference responses", len(in.results), len(b.reference))
	} else if at := samePrefix(in.results, b.reference); at >= 0 {
		b.fail("request %d after recovery differs from the uninterrupted reference", in.results[at].req.seq)
	}
	b.checkLateness(p)

	var lat []float64
	within := 0
	for i, r := range p.results {
		if p.resps[i] == nil {
			continue // refused or failed
		}
		lat = append(lat, ms(r.latency()))
		if r.latency() <= b.w.limit {
			within++
		}
	}
	ok := p.counts.full + p.counts.shed
	b.report("setup_s", b.setupMedian(func(s *stack) time.Duration { return s.setup }).Seconds(), "s")
	b.report("assess_p50_ms", percentile(lat, 0.50), "ms")
	b.report("assess_p75_ms", percentile(lat, 0.75), "ms")
	b.report("throughput_rps", float64(ok)/p.elapsed.Seconds(), "1/s")
	b.report("goodput_rps", float64(within)/p.elapsed.Seconds(), "1/s")
	b.report("full_cycle_ratio", float64(p.counts.full)/float64(max(p.counts.attempted, 1)), "ratio")
	b.report("label_accuracy", float64(p.counts.correct)/float64(max(p.counts.labels, 1)), "ratio")
	b.report("heap_peak_mb", peak/(1<<20), "MB")
	fmt.Printf("# %s: warm-up %d crowd-answered cycles; timed %d requests (%d full, %d shed, %d refused, %d failed) in %.2fs; GOMAXPROCS %d\n",
		b.w.name, warmed, p.counts.attempted, p.counts.full, p.counts.shed, p.counts.refused, p.counts.failed,
		p.elapsed.Seconds(), runtime.GOMAXPROCS(0))
	// The upper percentiles are printed, not reported: on a shared host
	// their run-to-run spread follows the host's CPU steal, and for the
	// closed loops it exceeds any usable bound.
	fmt.Printf("# %s: latency p90 %.3fms, p99 %.3fms over %d answers\n",
		b.w.name, percentile(lat, 0.90), percentile(lat, 0.99), len(lat))
	return nil
}

// lateLimit is how late the open-loop generator may send before the
// run is invalid: past it, the offered load is no longer the fixed
// rate the workload names.
const lateLimit = 50 * time.Millisecond

// checkLateness prints how late the generator sent, marks the run
// invalid when it fell behind its schedule, and returns the p99
// lateness in milliseconds.
func (b *bench) checkLateness(p phase) float64 {
	if len(p.lateness) == 0 {
		return 0
	}
	late := make([]float64, len(p.lateness))
	for i, d := range p.lateness {
		late[i] = ms(d)
	}
	p99 := percentile(late, 0.99)
	fmt.Printf("# generator lateness: p50 %.3fms p99 %.3fms max %.3fms over %d sends\n",
		median(late), p99, percentile(late, 1), len(late))
	if p99 > ms(lateLimit) {
		b.fail("open-loop generator fell behind: p99 lateness %.1fms exceeds %v", p99, lateLimit)
	}
	return p99
}

func (b *bench) setupMedian(f func(*stack) time.Duration) time.Duration {
	xs := make([]float64, len(b.setups))
	for i, s := range b.setups {
		xs[i] = float64(f(s))
	}
	return time.Duration(median(xs))
}

// heapSampler samples live heap bytes every 5ms and keeps the peak of
// each one-second window.
type heapSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		for {
			metrics.Read(sample)
			w := int(time.Since(start) / time.Second)
			for len(h.peaks) <= w {
				h.peaks = append(h.peaks, 0)
			}
			h.peaks[w] = max(h.peaks[w], float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the median of its one-second
// peaks: the heap's peak in a typical second, which a single garbage
// collection landing late does not decide.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.peaks)
}

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return fmt.Errorf("copy %s: %w", src, err)
	}
	return out.Close()
}
