package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/service"
	"github.com/crowdlearn/crowdlearn/internal/store"
)

// Serving-stack settings, the crowdlearnd defaults.
const (
	queueDepth     = 16
	requestTimeout = 30 * time.Second
	// daemonCheckpointEvery is crowdlearnd's -checkpoint-every default.
	daemonCheckpointEvery = 8
	// traceCapacity keeps every cycle trace of a traced run.
	traceCapacity = 1 << 15
)

// Budget sizing. The lab's default IPD budget ($20 over a 40-round
// horizon) runs out after roughly 45 cycles; every later cycle fails
// bandit.ErrBudgetExhausted and returns AI-only labels in about half a
// millisecond, so a timed run on the default lab measures mostly
// skipped cycles. The benchmark keeps the default pace of $0.50 per
// round but stretches the horizon far past any run, so no timed cycle
// can exhaust the budget; the harness still fails a run in which a
// full cycle comes back without crowd queries.
const (
	budgetHorizon  = 100_000
	budgetPerRound = 20.0 / 40.0
)

// stackConfig selects one bring-up of the serving stack.
type stackConfig struct {
	// dir is the durable state directory (created if absent).
	dir string
	// checkpointEvery is the journal's checkpoint cadence in cycles.
	checkpointEvery int
	// admission enables the overload ladder (crowdlearnd
	// -admission-target with the controller's default target).
	admission bool
	// rec, when set, attaches the tracer, the stage profiler and the
	// harness's layer wrappers, which record their calls into it.
	rec *recorder
}

// stack is one running instance of the crowdlearnd serving stack: lab,
// bootstrapped system, durable store and journal, service worker and
// HTTP handler.
type stack struct {
	lab      *experiments.Env
	sys      *core.CrowdLearn
	store    *store.Store
	svc      *service.Service
	scheme   core.Scheme // what the service drives: sys, or its timing wrapper
	handler  http.Handler
	registry *obs.Registry
	tracer   *obs.Tracer
	profiler *prof.Profiler
	report   *store.RecoveryReport

	// Bring-up timings: lab build, system bootstrap, store recovery,
	// and the whole bring-up up to the point the stack accepts its
	// first request.
	labBuild, bootstrap, recoverDur, setup time.Duration
}

// labConfig is crowdlearnd's lab (seed 1, every default) with the IPD
// budget sized to the run.
func labConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Campaign.Cycles = budgetHorizon
	cfg.BudgetDollars = budgetPerRound * budgetHorizon
	return cfg
}

var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// startStack brings the serving stack up the way crowdlearnd does with
// -state-dir: build the lab, bootstrap the system with its journal,
// recover whatever the state directory holds, then start the service
// and its HTTP handler.
func startStack(cfg stackConfig) (_ *stack, err error) {
	began := time.Now()
	s := &stack{registry: obs.NewRegistry()}
	lab, err := experiments.NewEnv(labConfig())
	if err != nil {
		return nil, fmt.Errorf("lab build: %w", err)
	}
	s.lab = lab
	s.labBuild = time.Since(began)

	st, err := store.Open(store.Options{Dir: cfg.dir, RetainCheckpoints: store.DefaultRetainCheckpoints})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s.store = st
	defer func() {
		if err != nil {
			st.Close()
		}
	}()
	journal := store.NewJournal(st, cfg.checkpointEvery,
		func(w io.Writer) error { return s.sys.SaveState(w) }, quietLogger, s.registry)
	journal.SetSnapshot(func() (func(io.Writer) error, error) {
		sn, err := s.sys.SnapshotState()
		if err != nil {
			return nil, err
		}
		return sn.Encode, nil
	})

	var platform core.CrowdPlatform = lab.NewPlatform()
	var cycleJournal core.CycleJournal = journal
	if cfg.rec != nil {
		s.tracer = obs.NewTracer(traceCapacity)
		s.tracer.SetSampler(prof.AllocSampler{})
		s.profiler = prof.New(s.registry)
		platform = &timedPlatform{inner: platform, rec: cfg.rec}
		cycleJournal = &timedJournal{inner: journal, rec: cfg.rec}
	}
	bootStart := time.Now()
	s.sys, err = lab.NewSystemOn(platform, func(c *core.Config) {
		c.Metrics = s.registry
		c.Tracer = s.tracer
		c.Profiler = s.profiler
		c.Journal = cycleJournal
	})
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	s.bootstrap = time.Since(bootStart)

	recStart := time.Now()
	s.report, err = st.Recover(s.sys, store.RecoverOptions{
		TrainSamples:   classifier.SamplesFromImages(lab.Dataset.Train),
		Registry:       lab.Dataset.Test,
		ResyncPlatform: true,
		Logger:         quietLogger,
		Metrics:        s.registry,
	})
	if err != nil {
		return nil, fmt.Errorf("state recovery: %w", err)
	}
	s.recoverDur = time.Since(recStart)
	journal.NoteRecovered(s.report)

	opts := []service.Option{
		service.WithMetrics(s.registry),
		service.WithTracer(s.tracer),
		service.WithQueueDepth(queueDepth),
		service.WithRequestTimeout(requestTimeout),
		service.WithStartCycle(s.report.NextCycle),
		service.WithCheckpointAge(journal.CheckpointAge),
	}
	if cfg.admission {
		opts = append(opts, service.WithAdmission(admission.Config{}))
	}
	s.scheme = s.sys
	if cfg.rec != nil {
		s.scheme = &timedScheme{inner: s.sys, rec: cfg.rec}
	}
	s.svc, err = service.New(s.scheme, opts...)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.svc.Start()
	s.handler, err = service.NewHandler(s.svc, lab.Dataset.Test)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("handler: %w", err), s.svc.Shutdown(context.Background()))
	}
	s.setup = time.Since(began)
	return s, nil
}

// stop drains the service worker and closes the store without writing
// a shutdown checkpoint: the state directory is left as a crash would
// leave it.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	return errors.Join(s.svc.Shutdown(ctx), s.store.Close())
}
