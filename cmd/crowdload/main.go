// Command crowdload is the overload harness for the assessment service,
// run on the real pipeline. Each of its two arms brings up the stack
// crowdlearnd runs with -state-dir (lab, core.CrowdLearn, a WAL journal
// fsynced every cycle, the supervised campaign worker and its HTTP
// handler) on a loopback listener: one behind the production admission
// ladder, one with the plain unbounded queue. It warms the stack with 40
// crowd-answered cycles, measures that stack's closed-loop saturation,
// and drives it through an open-loop arrival ramp (0.5×, 1×, 1.5×, 2×
// of its own saturation) of 10-image /assess batches rotating through
// four campaign tags.
//
// Per step it records offered load, completions, shed (degraded)
// responses, 429 rejections, errors, p50/p99 latency, throughput and
// goodput: in-SLO responses per second, the SLO being 15× the arm's
// measured service time (1/saturation). AI-only shed responses count —
// a usable label within the deadline is the point of degrading instead
// of queueing. The headline is goodputRatio, goodput at 2× over peak
// goodput: the ladder keeps it near 1, the unbounded queue collapses it.
//
// Writing with -o appends the run to a trajectory document
// (internal/trajectory). With -gate the committed document's admission
// arm must hold a ratio >= 0.8, the fresh admission arm too, and the
// fresh baseline arm must collapse to <= 0.5 — proving the controller,
// not the machine, holds goodput up. The fresh record is written first
// either way so CI can upload it on failure.
//
// Usage:
//
//	crowdload -o BENCH_service.json                                  # regenerate (make load-json)
//	crowdload -gate BENCH_service.json -o artefacts/load-latest.json # CI gate (make load-gate)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/service"
	"github.com/crowdlearn/crowdlearn/internal/stats"
	"github.com/crowdlearn/crowdlearn/internal/store"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
	"github.com/crowdlearn/crowdlearn/internal/trajectory"
)

const (
	schema = "crowdlearn-load/3"
	// schemaV2 records carry one saturation probe for both arms; they
	// stay readable as history.
	schemaV2 = "crowdlearn-load/2"
	retain   = 12 // history records kept

	batchSize     = 10 // the paper's sensing-cycle size
	campaigns     = 4  // distinct fair-share buckets
	step          = 2 * time.Second
	clientTimeout = 2 * time.Second
	sloFactor     = 15 // SLO = sloFactor × measured service time
	probeClients  = 4
	probeWindow   = 800 * time.Millisecond
	// warmCycles crowd-answered closed-loop cycles run on every stack
	// before it is measured, as the benchmark harness's warm-up does: a
	// freshly recovered stack's MIC replay pool is nearly empty, so its
	// first cycles retrain on less data and outrun steady state.
	warmCycles = 40

	// The gate: admission keeps >= minGoodputRatio of its peak goodput
	// at 2× saturation, the baseline <= maxBaselineRatio.
	minGoodputRatio  = 0.8
	maxBaselineRatio = 0.5

	checkpointEvery = 8 // crowdlearnd's -checkpoint-every default
	// The lab's default IPD budget ($20 over 40 rounds) runs out after
	// about 45 cycles; keep its $0.50-per-round pace over a horizon no
	// run reaches, so every full cycle queries the crowd.
	budgetHorizon  = 100_000
	budgetPerRound = 20.0 / 40.0
)

// multipliers is the open-loop ramp; the gate reads the 2× step.
var multipliers = []float64{0.5, 1, 1.5, 2}

// StepRecord is one ramp step's client-side measurement.
type StepRecord struct {
	Multiplier float64 `json:"multiplier"` // offered load / saturation
	OfferedRPS float64 `json:"offeredRps"`
	Offered    int     `json:"offered"`   // requests launched
	Completed  int     `json:"completed"` // 200 full-cycle answers
	Degraded   int     `json:"degraded"`  // 200 shed (AI-only) answers
	Rejected   int     `json:"rejected"`  // 429s
	// Errors counts transport failures, statuses other than 200 and 429,
	// and 200s that do not decode into one assessment per image.
	Errors int `json:"errors"`
	Late   int `json:"late"` // answers that missed the SLO
	// P50Ms / P99Ms are latency quantiles over answers and 429s.
	P50Ms         float64 `json:"p50Ms"`
	P99Ms         float64 `json:"p99Ms"`
	ThroughputRPS float64 `json:"throughputRps"` // answers per second
	GoodputRPS    float64 `json:"goodputRps"`    // in-SLO answers per second
}

// ArmReport is one stack configuration's run through the ramp.
type ArmReport struct {
	Name      string `json:"name"` // "admission" or "baseline"
	Admission bool   `json:"admission"`
	// SaturationRPS is the arm's warmed stack's closed-loop capacity,
	// which its ramp multiplies.
	SaturationRPS  float64      `json:"saturationRps"`
	ServiceTimeMs  float64      `json:"serviceTimeMs"` // 1/SaturationRPS
	SLOMs          float64      `json:"sloMs"`         // sloFactor × ServiceTimeMs
	Steps          []StepRecord `json:"steps"`
	PeakGoodputRPS float64      `json:"peakGoodputRps"`
	GoodputAt2xRPS float64      `json:"goodputAt2xRps"`
	// GoodputRatio is GoodputAt2xRPS / PeakGoodputRPS, what the gate reads.
	GoodputRatio float64 `json:"goodputRatio"`
	// Controller is the admission arm's final controller snapshot.
	Controller *admission.Snapshot `json:"controller,omitempty"`
}

// Report is one recorded harness run.
type Report struct {
	RecordedAt string      `json:"recordedAt,omitempty"` // RFC 3339 UTC
	Goos       string      `json:"goos"`
	Goarch     string      `json:"goarch"`
	NumCPU     int         `json:"numCpu"`
	GoMaxProcs int         `json:"goMaxProcs"`
	BatchSize  int         `json:"batchSize"`
	Arms       []ArmReport `json:"arms"`
}

func main() {
	out := flag.String("o", "", "write the trajectory document to this path (append-with-history)")
	gate := flag.String("gate", "", "gate against this committed trajectory: exit non-zero when the property fails")
	flag.Parse()
	if err := run(*out, *gate); err != nil {
		fmt.Fprintln(os.Stderr, "crowdload:", err)
		os.Exit(1)
	}
}

func run(out, gate string) error {
	// The committed document must itself show the property: the
	// trajectory is the proof, the fresh run the check that it still
	// reproduces.
	if gate != "" {
		if err := gateCommitted(gate); err != nil {
			return err
		}
	}
	client := &http.Client{
		Timeout:   clientTimeout,
		Transport: &http.Transport{MaxIdleConns: 4096, MaxIdleConnsPerHost: 4096},
	}
	rep := &Report{
		RecordedAt: time.Now().UTC().Format(time.RFC3339),
		Goos:       runtime.GOOS,
		Goarch:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		BatchSize:  batchSize,
	}
	for _, name := range []string{"admission", "baseline"} {
		ar, err := runArm(name, client)
		if err != nil {
			return fmt.Errorf("arm %s: %w", name, err)
		}
		rep.Arms = append(rep.Arms, *ar)
		fmt.Printf("arm %-9s peak %.0f req/s, at 2x %.0f req/s, ratio %.2f\n",
			name, ar.PeakGoodputRPS, ar.GoodputAt2xRPS, ar.GoodputRatio)
	}

	if out != "" {
		prev, err := trajectory.Read(out, schema, schemaV2)
		if err != nil {
			return err
		}
		doc, err := trajectory.Append(prev, schema, rep, retain)
		if err != nil {
			return err
		}
		data, err := doc.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	if gate != "" {
		return gateRecord("fresh", rep, true)
	}
	return nil
}

// runArm stands up one warmed stack, measures its saturation and
// drives the full ramp against it, scaled by that saturation.
func runArm(name string, client *http.Client) (_ *ArmReport, err error) {
	ar := &ArmReport{Name: name, Admission: name == "admission"}
	st, err := startStack(client, ar.Admission)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, st.stop()) }()
	saturation, err := st.measureSaturation(client)
	if err != nil {
		return nil, fmt.Errorf("saturation probe: %w", err)
	}
	serviceTime := time.Duration(float64(time.Second) / saturation)
	slo := sloFactor * serviceTime
	ar.SaturationRPS = saturation
	ar.ServiceTimeMs = float64(serviceTime) / float64(time.Millisecond)
	ar.SLOMs = float64(slo) / float64(time.Millisecond)
	fmt.Printf("arm %-9s saturation %.0f req/s (service time %v, SLO %v)\n", name, saturation, serviceTime, slo)
	for _, m := range multipliers {
		rec := runStep(st.url, client, st.bodies, m, m*saturation, step, slo)
		ar.Steps = append(ar.Steps, rec)
		ar.PeakGoodputRPS = max(ar.PeakGoodputRPS, rec.GoodputRPS)
		if m == 2 {
			ar.GoodputAt2xRPS = rec.GoodputRPS
		}
	}
	if ar.PeakGoodputRPS > 0 {
		ar.GoodputRatio = ar.GoodputAt2xRPS / ar.PeakGoodputRPS
	}
	if ar.Admission {
		ar.Controller = st.svc.Stats().Admission
	}
	return ar, nil
}

// stack is one serving stack on a loopback listener, its durable state
// in a temporary directory.
type stack struct {
	svc    *service.Service
	url    string
	bodies [][]byte // the POST /assess bodies the load draws from
	stop   func() error
}

// startStack brings the stack up the way crowdlearnd -state-dir does:
// build the lab, open the (empty) state directory and recover a system
// on it — which trains the bootstrap model — then start the service,
// serve its handler and warm it up through client.
func startStack(client *http.Client, withAdmission bool) (_ *stack, err error) {
	dir, err := os.MkdirTemp("", "crowdload-")
	if err != nil {
		return nil, err
	}
	undo := []func() error{func() error { return os.RemoveAll(dir) }}
	stop := func() error {
		var errs []error
		for i := len(undo) - 1; i >= 0; i-- {
			errs = append(errs, undo[i]())
		}
		return errors.Join(errs...)
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, stop())
		}
	}()

	cfg := experiments.DefaultConfig()
	cfg.Campaign.Cycles = budgetHorizon
	cfg.BudgetDollars = budgetPerRound * budgetHorizon
	lab, err := experiments.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	logger, registry := slog.New(slog.NewTextHandler(io.Discard, nil)), obs.NewRegistry()
	d, err := store.OpenSystem(store.Options{Dir: dir, RetainCheckpoints: store.DefaultRetainCheckpoints}, checkpointEvery,
		func(j core.CycleJournal) (*core.CrowdLearn, error) {
			return lab.NewSystemWith(func(c *core.Config) { c.Metrics, c.Journal = registry, j })
		},
		store.RecoverOptions{
			TrainSamples:   classifier.SamplesFromImages(lab.Dataset.Train),
			Registry:       lab.Dataset.Test,
			ResyncPlatform: true,
			Logger:         logger,
			Metrics:        registry,
		})
	if err != nil {
		return nil, err
	}
	undo = append(undo, d.Store.Close)

	opts := []service.Option{service.WithMetrics(registry),
		service.WithStartCycle(d.Report.NextCycle), service.WithCheckpointAge(d.Journal.CheckpointAge)}
	if withAdmission {
		opts = append(opts, service.WithAdmission(admission.Config{}))
	}
	svc, err := service.New(d.Sys, opts...)
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	undo = append(undo, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return svc.Shutdown(ctx)
	})
	h, err := service.NewHandler(svc, lab.Dataset.Test)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h}
	supervise.Go("crowdload.http", nil, func() { srv.Serve(ln) })
	undo = append(undo, srv.Close)

	// Consecutive 10-image batches of the test split, campaign tag and
	// temporal context in rotation.
	test := lab.Dataset.Test
	bodies := make([][]byte, len(test)/batchSize)
	for i := range bodies {
		req := service.AssessRequest{
			Context:  crowd.Contexts()[i%crowd.NumContexts].String(),
			Campaign: fmt.Sprintf("c%02d", i%campaigns),
		}
		for _, im := range test[i*batchSize : (i+1)*batchSize] {
			req.ImageIDs = append(req.ImageIDs, im.ID)
		}
		if bodies[i], err = json.Marshal(req); err != nil {
			return nil, err
		}
	}
	st := &stack{svc: svc, url: "http://" + ln.Addr().String(), bodies: bodies, stop: stop}
	if err := st.warm(client); err != nil {
		return nil, err
	}
	return st, nil
}

// warm serves closed-loop requests, one at a time, until warmCycles of
// them came back as full cycles with crowd labels.
func (st *stack) warm(client *http.Client) error {
	answered := 0
	for i := 0; answered < warmCycles; i++ {
		if i == 2*warmCycles {
			return fmt.Errorf("warm-up: %d of %d requests crowd-answered, want %d", answered, i, warmCycles)
		}
		o := fire(client, st.url, st.bodies[i%len(st.bodies)])
		if o.err != nil {
			return fmt.Errorf("warm-up: %w", o.err)
		}
		if o.crowd {
			answered++
		}
	}
	return nil
}

// measureSaturation runs a short closed loop against the warmed stack
// to find the single-worker drain rate its ramp multipliers scale. Only
// full cycles count: behind the admission ladder the probe's queue can
// trip the degrade tier, whose answers take the worker almost no time.
func (st *stack) measureSaturation(client *http.Client) (float64, error) {
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(probeWindow)
	for w := 0; w < probeClients; w++ {
		wg.Add(1)
		supervise.Go(fmt.Sprintf("crowdload.probe.%d", w), nil, func() {
			defer wg.Done()
			for i := w; time.Now().Before(deadline); i += probeClients {
				if o := fire(client, st.url, st.bodies[i%len(st.bodies)]); o.err == nil && o.status == http.StatusOK && !o.shed {
					completed.Add(1)
				}
			}
		})
	}
	wg.Wait()
	if completed.Load() == 0 {
		return 0, errors.New("no completions in probe window")
	}
	return float64(completed.Load()) / time.Since(start).Seconds(), nil
}

// outcome is one request's client-side observation.
type outcome struct {
	status  int
	shed    bool
	crowd   bool // a full cycle that queried the crowd
	latency time.Duration
	err     error
}

// fire posts one /assess batch. A 200 whose body does not decode into
// one assessment per image is an error, not an answer.
func fire(client *http.Client, url string, body []byte) outcome {
	started := time.Now()
	resp, err := client.Post(url+"/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err, latency: time.Since(started)}
	}
	defer resp.Body.Close()
	o := outcome{status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var answer service.Response
		if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
			o.err = fmt.Errorf("decode /assess answer: %w", err)
		} else if len(answer.Assessments) != batchSize {
			o.err = fmt.Errorf("%d assessments for a %d-image batch", len(answer.Assessments), batchSize)
		}
		o.shed = answer.Shed
		o.crowd = o.err == nil && !answer.Shed && len(answer.QueriedImageIDs) > 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	o.latency = time.Since(started)
	return o
}

// runStep drives one open-loop arrival step: rate req/s for dur,
// arrivals scheduled on an absolute timeline (no coordinated omission —
// a slow server does not slow the arrival process down).
func runStep(url string, client *http.Client, bodies [][]byte, multiplier, rate float64, dur, slo time.Duration) StepRecord {
	n := max(int(rate*dur.Seconds()), 1)
	interval := time.Duration(float64(dur) / float64(n))
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		latencies []float64
		rec       = StepRecord{Multiplier: multiplier, OfferedRPS: rate, Offered: n}
	)
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			<-time.After(d)
		}
		wg.Add(1)
		supervise.Go(fmt.Sprintf("crowdload.client.%d", i), nil, func() {
			defer wg.Done()
			o := fire(client, url, bodies[i%len(bodies)])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case o.err != nil:
				rec.Errors++
				return
			case o.status == http.StatusOK:
				if o.shed {
					rec.Degraded++
				} else {
					rec.Completed++
				}
				if o.latency > slo {
					rec.Late++
				}
			case o.status == http.StatusTooManyRequests:
				rec.Rejected++
			default:
				rec.Errors++
			}
			latencies = append(latencies, float64(o.latency)/float64(time.Millisecond))
		})
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rec.P50Ms = stats.Quantile(latencies, 0.50)
		rec.P99Ms = stats.Quantile(latencies, 0.99)
	}
	served := rec.Completed + rec.Degraded
	rec.ThroughputRPS = float64(served) / elapsed
	rec.GoodputRPS = float64(served-rec.Late) / elapsed
	return rec
}

// gateCommitted holds the committed document's current record to the
// admission half of the property.
func gateCommitted(path string) error {
	doc, err := trajectory.Read(path, schema, schemaV2)
	if err == nil && doc == nil {
		err = fmt.Errorf("%s does not exist", path)
	}
	if err != nil {
		return err
	}
	var rep Report
	if err := json.Unmarshal(doc.Current, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := gateRecord("committed", &rep, false); err != nil {
		return fmt.Errorf("%w\n%s no longer shows the property; regenerate it with make load-json on a quiet machine", err, path)
	}
	return nil
}

// gateRecord checks one record: the admission arm's goodput ratio at
// least minGoodputRatio and, withBaseline, the baseline arm's at most
// maxBaselineRatio.
func gateRecord(label string, rep *Report, withBaseline bool) error {
	names := []string{"admission"}
	if withBaseline {
		names = append(names, "baseline")
	}
	var checks []trajectory.Check
	for _, name := range names {
		i := slices.IndexFunc(rep.Arms, func(a ArmReport) bool { return a.Name == name })
		if i < 0 {
			return fmt.Errorf("%s record has no %s arm", label, name)
		}
		c := trajectory.Check{Name: fmt.Sprintf("%s %s goodput ratio at 2x", label, name),
			Value: rep.Arms[i].GoodputRatio, Limit: minGoodputRatio, Better: trajectory.Higher}
		if name == "baseline" {
			c.Limit, c.Better = maxBaselineRatio, trajectory.Lower
		}
		checks = append(checks, c)
	}
	if err := trajectory.Gate(checks); err != nil {
		return err
	}
	for _, c := range checks {
		fmt.Println("GATE OK:", c)
	}
	return nil
}
