package main

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/store"
)

// profiledStages are the cycle stages whose loops the stage profiler
// records.
var profiledStages = []string{core.SpanCommitteeVote, core.SpanQSSSelect, core.SpanMICRetrain}

// degradedProbes is how many degraded-tier answers a traced run times
// directly when its workload never sheds.
const degradedProbes = 20

// tracedRun measures the per-layer metrics. Its share of opt.seconds
// goes 30% to the workload on an untraced stack (the baseline for the
// tracing overhead and for the passivity check), 30% to the workload
// on a traced stack, then 20% each to a closed loop on the traced
// stack at GOMAXPROCS 1 and at the process's own GOMAXPROCS, for the
// stages' parallel speedup.
func (b *bench) tracedRun() error {
	open := b.w.rate > 0
	u, err := b.bringUp(0, nil)
	if err != nil {
		return err
	}
	b.warm(u)
	untimed := len(u.results)
	allocs := allocatedBytes()
	p1 := b.measure(u, b.seconds(0.3), open)
	allocs = allocatedBytes() - allocs
	b.close(u)

	rec := newRecorder(b.epoch)
	t, err := b.bringUp(1, rec)
	if err != nil {
		return err
	}
	warmed := b.warm(t)
	admBefore := t.svc.Stats().Admission
	walBytes, walRecords := walCounters(t.registry)
	p2 := b.measure(t, b.seconds(0.3), open)
	admAfter := t.svc.Stats().Admission
	walBytes2, walRecords2 := walCounters(t.registry)
	acquired, err := replayAcquired(t.sys)
	if err != nil {
		return err
	}

	procs := runtime.GOMAXPROCS(1)
	p3 := b.measure(t, b.seconds(0.2), false)
	runtime.GOMAXPROCS(procs)
	profBefore := t.profiler.Snapshot()
	p4 := b.measure(t, b.seconds(0.2), false)
	profAfter := t.profiler.Snapshot()
	if p2.counts.shed == 0 {
		b.probeDegraded(t)
	}
	b.close(t)

	// Tracing must stay passive: the traced stack answers the same
	// requests byte for byte. Open-loop answers depend on timing, so
	// only the closed-loop warm-up is compared there.
	if open {
		if at := samePrefix(u.results[:untimed], t.results[:untimed]); at >= 0 {
			b.fail("traced response to request %d differs from the untraced one", u.results[at].req.seq)
		}
	} else if at := samePrefix(u.results, t.results); at >= 0 {
		b.fail("traced response to request %d differs from the untraced one", u.results[at].req.seq)
	}

	traces := make(map[int]*obs.CycleTrace)
	for _, tr := range t.tracer.Recent(0) {
		traces[tr.Cycle] = tr
	}
	a := attribute(p2, rec, traces, b.epoch)
	if err := b.writeSpans(a); err != nil {
		return err
	}
	b.checkAttribution(a)
	b.printLayers(a)
	lateness := b.checkLateness(p2)

	cycles, platform, commits := rec.snapshot()
	var degraded, commitMs []float64
	for _, c := range cycles {
		if c.degraded {
			degraded = append(degraded, ms(c.dur()))
		}
	}
	inPhase := make(map[int]bool)
	for _, r := range p2.resps {
		if r != nil && !r.Shed {
			inPhase[r.CycleIndex] = true
		}
	}
	for _, c := range commits {
		if inPhase[c.cycle] {
			commitMs = append(commitMs, ms(c.dur()))
		}
	}
	queries := 0
	for _, c := range platform {
		if inPhase[c.cycle] {
			queries += c.n
		}
	}

	b.report("lab.build_ms", ms(b.setupMedian(func(s *stack) time.Duration { return s.labBuild })), "ms")
	b.report("core.bootstrap_ms", ms(b.setupMedian(func(s *stack) time.Duration { return s.bootstrap })), "ms")
	b.report("core.cycle_p50_ms", percentile(a.dur[spanCycle], 0.5), "ms")
	b.report("core.cycle_p99_ms", percentile(a.dur[spanCycle], 0.99), "ms")
	b.report("core.cycle_self_ms", mean(a.self[spanCycle]), "ms")
	b.report("core.degraded_ms", median(degraded), "ms")
	for _, l := range []string{"qss.vote", "qss.select", "bandit.price", "crowd.submit"} {
		b.report(l+"_ms", median(a.dur[l]), "ms")
	}
	b.report("crowd.queries", float64(queries)/math.Max(float64(len(inPhase)), 1), "count")
	b.report("cqc.aggregate_ms", median(a.dur["cqc.aggregate"]), "ms")
	b.report("mic.weights_ms", median(a.dur["mic.weights"]), "ms")
	retrain := median(a.dur["mic.retrain"])
	samples := float64(retrainBatch(acquired, len(t.lab.Dataset.Train)))
	b.report("mic.retrain_p50_ms", retrain, "ms")
	b.report("mic.retrain_p99_ms", percentile(a.dur["mic.retrain"], 0.99), "ms")
	b.report("mic.retrain_samples", samples, "count")
	b.report("mic.retrain_samples_per_s", samples/(retrain/1000), "1/s")
	for _, stage := range profiledStages {
		b.report("parallel.util."+stage, utilization(profBefore, profAfter, stage), "ratio")
	}
	for _, stage := range profiledStages {
		one, all := stageMedian(p3, traces, stage), stageMedian(p4, traces, stage)
		b.report("parallel.speedup."+stage, one/all, "ratio")
	}
	b.report("store.commit_p50_ms", median(commitMs), "ms")
	b.report("store.commit_p99_ms", percentile(commitMs, 0.99), "ms")
	b.report("store.wal_bytes_per_cycle", (walBytes2-walBytes)/math.Max(walRecords2-walRecords, 1), "bytes")
	b.report("store.recover_ms", ms(t.recoverDur), "ms")
	b.report("store.replayed_cycles", float64(t.report.CyclesReplayed), "count")
	b.report("service.http_ms", median(a.self[spanRequest]), "ms")
	b.report("service.queue_wait_p50_ms", median(a.dur[spanQueueWait]), "ms")
	b.report("service.queue_wait_p99_ms", percentile(a.dur[spanQueueWait], 0.99), "ms")
	var adm [4]float64
	if admBefore != nil && admAfter != nil {
		adm = [4]float64{float64(admAfter.Admitted - admBefore.Admitted), float64(admAfter.Degraded - admBefore.Degraded),
			float64(admAfter.Rejected - admBefore.Rejected), float64(admAfter.Limit)}
	}
	b.report("admission.admitted", adm[0], "count")
	b.report("admission.degraded", adm[1], "count")
	b.report("admission.rejected", adm[2], "count")
	b.report("admission.limit_final", adm[3], "count")
	b.report("requests.succeeded", float64(p2.counts.full+p2.counts.shed), "count")
	b.report("requests.shed", float64(p2.counts.shed), "count")
	b.report("requests.refused", float64(p2.counts.refused), "count")
	b.report("alloc_bytes_per_request", float64(allocs)/float64(max(p1.counts.attempted, 1)), "bytes")
	b.report("trace.overhead_ratio", rps(p1)/rps(p2), "ratio")
	b.report("warmup_cycles", float64(warmed), "count")
	b.report("loadgen.lateness_p99_ms", lateness, "ms")
	return nil
}

// checkAttribution fails the run when the span trees do not account for
// the requests: every answer must join its worker-side spans, the self
// times must add up to the request latency within 5%, and the named
// stages must cover at least 95% of each cycle.
func (b *bench) checkAttribution(a *attribution) {
	if a.unjoined > 0 {
		b.fail("%d answers could not be joined to their worker-side spans", a.unjoined)
	}
	r := float64(a.selfTotal) / float64(a.requestTotal)
	fmt.Printf("# per-layer self times add up to %.4f of request latency\n", r)
	if math.Abs(r-1) > 0.05 {
		b.fail("per-layer self times add up to %.3f of request latency, outside ±5%%", r)
	}
	if a.cycleTotal > 0 {
		if r := float64(a.cycleSelf) / float64(a.cycleTotal); r >= 0.05 {
			b.fail("%.1f%% of cycle time lies outside every stage span (limit 5%%)", 100*r)
		}
	}
}

// printLayers prints the mean self time of every layer over the traced
// phase's requests and its share of request latency.
func (b *bench) printLayers(a *attribution) {
	n := float64(len(a.dur[spanRequest]))
	names := make([]string, 0, len(a.self))
	for name := range a.self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s layer self time per request (%d requests, mean request %.3fms):\n", b.w.name, int(n), ms(a.requestTotal)/n)
	for _, name := range names {
		var sum float64
		for _, v := range a.self[name] {
			sum += v
		}
		fmt.Printf("#   %-20s %9.3f ms  %6.2f%%\n", name, sum/n, 100*sum/ms(a.requestTotal))
	}
}

// writeSpans writes every span of the traced phase, one JSON object a
// line, to <dir>/traces/<workload>-seed<seed>.jsonl.
func (b *bench) writeSpans(a *attribution) error {
	dir := filepath.Join(b.opt.dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.opt.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range a.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeDegraded times the degraded tier directly on a stack whose
// workload never sheds, so core.degraded_ms is measured on every
// workload.
func (b *bench) probeDegraded(in *instance) {
	d, ok := in.scheme.(core.DegradedAssessor)
	if !ok {
		return
	}
	next := in.first + in.t.full
	for i := 0; i < degradedProbes; i++ {
		r := in.stream.take()
		if _, err := d.AssessDegraded(core.CycleInput{Index: next, Context: r.context, Images: r.images}); err != nil {
			b.fail("degraded probe: %v", err)
			return
		}
	}
}

// walCounters reads the journal's appended-bytes and record counters.
func walCounters(reg *obs.Registry) (bytes, records float64) {
	return reg.Counter(store.MetricWALBytes).Value(), reg.Counter(store.MetricWALRecords).Value()
}

// replayState mirrors the retraining-memory field of the system's
// checkpoint; gob decodes only the fields whose names match.
type replayState struct {
	ReplayAcquired []classifier.Sample
}

// replayAcquired reads how many crowd-labelled samples the system's
// retraining memory holds, from its checkpoint.
func replayAcquired(sys *core.CrowdLearn) (int, error) {
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		return 0, err
	}
	var st replayState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		return 0, fmt.Errorf("decode checkpoint: %w", err)
	}
	return len(st.ReplayAcquired), nil
}

// retrainBatch is the size of one retraining batch for a memory of
// acquired crowd samples: the acquired samples plus an equal draw from
// the training pool, at least 40 and at most the pool (the replay rule
// of internal/core).
func retrainBatch(acquired, pool int) int {
	return acquired + min(max(acquired, 40), pool)
}

// utilization is a profiled stage's busy share of its paid-for worker
// time between two profiler snapshots.
func utilization(before, after []prof.StageTotals, stage string) float64 {
	find := func(ts []prof.StageTotals) prof.StageTotals {
		for _, t := range ts {
			if t.Stage == stage {
				return t
			}
		}
		return prof.StageTotals{}
	}
	a, b := find(after), find(before)
	busy, idle := a.Busy-b.Busy, a.Idle-b.Idle
	if busy+idle <= 0 {
		return 0
	}
	return float64(busy) / float64(busy+idle)
}

// stageMedian is the median wall time of one stage over a phase's full
// cycles.
func stageMedian(p phase, traces map[int]*obs.CycleTrace, stage string) float64 {
	var xs []float64
	for _, r := range p.resps {
		if r == nil || r.Shed || traces[r.CycleIndex] == nil {
			continue
		}
		for _, sp := range traces[r.CycleIndex].Root.Children {
			if sp.Name == stage {
				xs = append(xs, ms(sp.Wall))
			}
		}
	}
	return median(xs)
}

// rps is a phase's answered-request throughput.
func rps(p phase) float64 {
	return float64(p.counts.full+p.counts.shed) / p.elapsed.Seconds()
}
