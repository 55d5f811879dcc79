// Command crowdlearnd runs CrowdLearn as a long-lived damage-assessment
// service with an HTTP/JSON API.
//
// On startup it builds the evaluation lab (synthetic dataset + pilot
// study), registers the test split as the assessable image universe and
// starts the supervised campaign runtime (DESIGN.md §13): every
// campaign is an isolated failure domain with its own CrowdLearn
// system, circuit breaker, restart policy and, under -state-dir,
// durable store. By default one campaign, "default", runs and the
// unprefixed routes are aliases for it:
//
//	POST /assess   {"context":"morning","imageIds":[12,57]}
//	GET  /stats
//	GET  /trace    recent cycle span trees as JSON
//	GET  /healthz  503 once the campaign is quarantined
//	GET  /         HTML dashboard
//
// The campaign-scoped routes serve every campaign, and /metrics and
// /images the whole process:
//
//	POST /campaigns                {"id":"hurricane-x"}
//	GET  /campaigns                fleet health and stats; 503 once any campaign is quarantined
//	GET  /campaigns/{id}
//	POST /campaigns/{id}/assess    {"context":"morning","imageIds":[12]}
//	POST /campaigns/{id}/pause     (and /resume, /archive)
//	GET  /metrics                  Prometheus text exposition
//	GET  /images
//
// Usage:
//
//	crowdlearnd [-addr :8080] [-seed 1] [-workers 0] [-log-level info]
//	            [-queue-depth 16] [-request-timeout 30s]
//	            [-state-dir dir] [-checkpoint-every 8] [-checkpoint-retain 3]
//	            [-campaigns 0] [-stall-timeout 2m]
//	            [-debug-addr 127.0.0.1:6060] [-version]
//
// -campaigns N (N > 0) starts campaigns c00..cNN instead of "default";
// the unprefixed routes then answer 404. Only "default" reports into
// the process's metrics registry, tracer and stage profiler, whose
// series are unlabeled; the supervisor's labeled families cover every
// campaign.
//
// -debug-addr opens a second, operator-facing listener with the
// profiling surface (DESIGN.md §12): /debug/pprof/* (net/http/pprof),
// /debug/runtime (runtime/metrics as JSON), /debug/prof (the stage
// profiler's per-worker utilization totals) and a /metrics mirror. Bind
// it to loopback — pprof exposes heap contents. -version prints the
// build identity (also exported as the crowdlearn_build_info gauge) and
// exits.
//
// -queue-depth bounds each campaign's assessment queue: when it is full,
// an assess answers 429 with a Retry-After header instead of queueing
// without limit. -request-timeout caps one assessment end to end (queue
// wait plus cycle processing). -stall-timeout arms the per-campaign
// watchdog: a sensing cycle that makes no progress within it is
// abandoned and the campaign restarts from its last checkpoint. Zero
// disables each guard.
//
// -state-dir enables durable crash-safe persistence (DESIGN.md §10):
// every committed cycle is appended to a write-ahead log, a checkpoint is
// written every -checkpoint-every cycles (rotated, keeping
// -checkpoint-retain generations), and on startup the previous process's
// state — expert weights, bandit budget, CQC model — is recovered from
// disk instead of re-bootstrapped: the bootstrap training runs only when
// no checkpoint restores. "default" keeps its state in the directory
// itself, every other campaign in a subdirectory named after it.
// /healthz and /campaigns report the last-checkpoint age, /stats the
// recovery outcome.
//
// The process shuts down gracefully on SIGINT/SIGTERM: the listener
// drains (in-flight assessments complete and answer), every campaign's
// queued requests are rejected deterministically, its worker exits and,
// with -state-dir, writes a final checkpoint.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	crowdlearn "github.com/crowdlearn/crowdlearn"
	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/service"
	"github.com/crowdlearn/crowdlearn/internal/store"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		slog.Error("crowdlearnd failed", slog.Any("err", err))
		os.Exit(1)
	}
}

// onListen, when non-nil, receives the main listener's bound address —
// the test seam that lets the graceful-shutdown regression test drive a
// :0 daemon.
var onListen func(net.Addr)

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("crowdlearnd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	seed := fs.Int64("seed", 1, "master seed")
	logLevel := fs.String("log-level", "info", "log level: debug, info, warn or error")
	traceCap := fs.Int("trace-capacity", obs.DefaultTraceCapacity, "cycle traces retained for GET /trace")
	workers := fs.Int("workers", 0, "goroutine fan-out for committee voting and model training (0 = GOMAXPROCS, 1 = sequential); assessments are bit-identical at any value")
	queueDepth := fs.Int("queue-depth", 16, "bounded per-campaign assessment queue; full queue answers 429 (0 = unbounded)")
	admissionTarget := fs.Duration("admission-target", 0, "adaptive overload control: queue-delay target for the admission ladder — sustained waits above it degrade requests to AI-only labels before rejecting (0 = disabled)")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-assessment timeout, queue wait included (0 = none)")
	stateDir := fs.String("state-dir", "", "durable state directory: checkpoints + write-ahead cycle log; recovery runs on startup (empty = no persistence)")
	checkpointEvery := fs.Int("checkpoint-every", 8, "write a checkpoint every N committed cycles (0 = only on shutdown; requires -state-dir)")
	checkpointRetain := fs.Int("checkpoint-retain", store.DefaultRetainCheckpoints, "checkpoint generations kept by rotation")
	campaigns := fs.Int("campaigns", 0, "start N campaigns c00..cNN instead of the single campaign \"default\"")
	stallTimeout := fs.Duration("stall-timeout", 2*time.Minute, "per-campaign cycle watchdog; a stalled cycle restarts the campaign (0 = disabled)")
	debugAddr := fs.String("debug-addr", "", "serve pprof, runtime-metrics and stage-profiler debug endpoints on this address (bind to loopback; empty = disabled)")
	showVersion := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		_, err := fmt.Fprintln(stdout, prof.ReadBuildInfo().String())
		return err
	}
	if *queueDepth < 0 {
		return fmt.Errorf("invalid -queue-depth %d: must be non-negative", *queueDepth)
	}
	if *requestTimeout < 0 {
		return fmt.Errorf("invalid -request-timeout %v: must be non-negative", *requestTimeout)
	}
	if *checkpointEvery < 0 {
		return fmt.Errorf("invalid -checkpoint-every %d: must be non-negative", *checkpointEvery)
	}
	if *checkpointRetain < 1 {
		return fmt.Errorf("invalid -checkpoint-retain %d: must be at least 1", *checkpointRetain)
	}
	if *campaigns < 0 {
		return fmt.Errorf("invalid -campaigns %d: must be non-negative", *campaigns)
	}
	if *stallTimeout < 0 {
		return fmt.Errorf("invalid -stall-timeout %v: must be non-negative", *stallTimeout)
	}
	if *admissionTarget < 0 {
		return fmt.Errorf("invalid -admission-target %v: must be non-negative", *admissionTarget)
	}
	if *stateDir == "" {
		explicit := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-every" || f.Name == "checkpoint-retain" {
				explicit = "-" + f.Name
			}
		})
		if explicit != "" {
			return fmt.Errorf("%s requires -state-dir", explicit)
		}
	}
	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		return fmt.Errorf("invalid -log-level %q: %w", *logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)

	// Claim both listeners before the expensive lab build so a bad
	// address fails fast; handlers are attached once the serving stack
	// exists.
	var debugLn net.Listener
	if *debugAddr != "" {
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("invalid -debug-addr %q: %w", *debugAddr, err)
		}
		debugLn = ln
		defer ln.Close()
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	defer ln.Close()
	if onListen != nil {
		onListen(ln.Addr())
	}

	cfg := crowdlearn.DefaultLabConfig()
	cfg.Seed = *seed
	cfg.Workers = *workers
	logger.Info("starting",
		slog.String("addr", *addr),
		slog.Int64("seed", *seed),
		slog.Int("workers", *workers),
		slog.String("logLevel", *logLevel),
		slog.Int("traceCapacity", *traceCap),
		slog.Int("queueDepth", *queueDepth),
		slog.Int("campaigns", *campaigns),
		slog.Duration("requestTimeout", *requestTimeout))
	logger.Info("building lab", slog.Int64("seed", *seed))
	started := time.Now()
	lab, err := crowdlearn.NewLab(cfg)
	if err != nil {
		return err
	}
	logger.Info("lab ready",
		slog.Int("trainImages", len(lab.Dataset.Train)),
		slog.Int("assessableImages", len(lab.Dataset.Test)),
		slog.Duration("elapsed", time.Since(started)))

	registry := obs.NewRegistry()
	tracer := obs.NewTracer(*traceCap)
	tracer.SetSampler(prof.AllocSampler{})
	profiler := prof.New(registry)
	buildInfo := prof.RegisterBuildInfo(registry)
	logger.Info("build", slog.String("version", buildInfo.String()))

	var debugServer *http.Server
	if debugLn != nil {
		debugServer = &http.Server{
			Handler:           prof.DebugMux(registry, profiler),
			ReadHeaderTimeout: 5 * time.Second,
		}
		supervise.Go("daemon.debug-server", logger, func() {
			logger.Info("debug endpoints", slog.String("addr", debugLn.Addr().String()))
			if err := debugServer.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug serve", slog.Any("err", err))
			}
		})
		defer debugServer.Close()
	}

	supOpts := supervise.Options{
		Logger:         logger,
		Metrics:        registry,
		StallTimeout:   *stallTimeout,
		QueueDepth:     *queueDepth,
		RequestTimeout: *requestTimeout,
	}
	if *admissionTarget > 0 {
		supOpts.Admission = &admission.Config{Target: *admissionTarget}
	}
	sup := supervise.New(supOpts)
	trainSamples := classifier.SamplesFromImages(lab.Dataset.Train)
	factory := func(id string) (supervise.Spec, error) {
		// Campaign state directories nest under -state-dir beside the
		// default campaign's files, whose names all hold a dot; a dot
		// also rules out "." and "..".
		if strings.ContainsAny(id, "/\\. \t") {
			return supervise.Spec{}, fmt.Errorf("invalid campaign id %q: no separators, dots or spaces", id)
		}
		// Only the default campaign reports into the process registry,
		// tracer and profiler: their series are unlabeled and would
		// clobber across campaigns. The supervisor's labeled families
		// cover the fleet view.
		observed := id == supervise.DefaultCampaign
		spec := supervise.Spec{
			ID: id,
			// Each epoch builds a fresh scheme on its own platform; the
			// supervisor's breaker wraps the platform so a sustained
			// crowd outage degrades this campaign to AI-only labels
			// without touching its siblings.
			Build: func(bc supervise.BuildContext) (core.Scheme, error) {
				sys, err := lab.NewSystemOn(bc.WrapPlatform(lab.NewPlatform()), func(cfg *core.Config) {
					cfg.Journal = bc.Journal
					if observed {
						cfg.Metrics, cfg.Tracer, cfg.Profiler = registry, tracer, profiler
					}
				})
				if err != nil || bc.Journal != nil {
					// A durable campaign's recovery trains the bootstrap
					// model only when no checkpoint restores it.
					return sys, err
				}
				// Nothing can restore the model, so train it now rather
				// than on the first request.
				began := time.Now()
				if err := sys.EnsureBootstrapped(); err != nil {
					return nil, err
				}
				logger.Info("bootstrap training complete", slog.String("campaign", id), slog.Duration("elapsed", time.Since(began)))
				return sys, nil
			},
		}
		if *stateDir != "" {
			// The default campaign owns the state directory itself, so a
			// single-campaign deployment's directory layout is unchanged.
			spec.StateDir = *stateDir
			if !observed {
				spec.StateDir = filepath.Join(*stateDir, id)
			}
			spec.CheckpointEvery = *checkpointEvery
			spec.RetainCheckpoints = *checkpointRetain
			spec.TrainSamples = trainSamples
			spec.Registry = lab.Dataset.Test
		}
		return spec, nil
	}
	ids := []string{supervise.DefaultCampaign}
	if *campaigns > 0 {
		ids = ids[:0]
		for i := 0; i < *campaigns; i++ {
			ids = append(ids, fmt.Sprintf("c%02d", i))
		}
	}
	for _, id := range ids {
		spec, err := factory(id)
		if err != nil {
			return err
		}
		if _, err := sup.Create(spec); err != nil {
			return errors.Join(err, sup.Shutdown(context.Background()))
		}
		logger.Info("campaign ready", slog.String("campaign", id), slog.Duration("elapsed", time.Since(started)))
	}

	handler, err := service.NewCampaignHandler(sup, lab.Dataset.Test, factory,
		service.WithMetrics(registry), service.WithTracer(tracer),
		service.WithBuildInfo(buildInfo), service.WithLogger(logger))
	if err != nil {
		return err
	}
	server := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	if err := serveUntilSignal(server, ln, logger, sup.Shutdown); err != nil {
		return err
	}
	for _, h := range sup.Health() {
		logger.Info("campaign shutdown",
			slog.String("campaign", h.ID),
			slog.String("state", h.State),
			slog.Int("cyclesRun", h.Stats.CyclesRun),
			slog.Int("imagesAssessed", h.Stats.ImagesAssessed),
			slog.Float64("spentDollars", h.Stats.TotalSpent),
			slog.Int("restarts", h.TotalRestarts))
	}
	return nil
}

// serveUntilSignal serves ln until SIGINT/SIGTERM (or a listener
// error), then runs the graceful shutdown sequence.
func serveUntilSignal(server *http.Server, ln net.Listener, logger *slog.Logger, drain func(context.Context) error) error {
	// Catch signals before serving, so no client can see the daemon up
	// while a SIGTERM would still kill it without the graceful sequence.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	errCh := make(chan error, 1)
	supervise.Go("daemon.http-server", logger, func() {
		logger.Info("serving", slog.String("addr", ln.Addr().String()))
		if err := server.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	})
	select {
	case sig := <-sigCh:
		logger.Info("shutting down", slog.String("signal", sig.String()))
	case err := <-errCh:
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	}
	return shutdownSequence(server.Shutdown, drain, logger, 15*time.Second)
}

// shutdownSequence drains the HTTP server (in-flight assessments
// complete and answer), then stops the campaign workers, each of which
// writes its final checkpoint only once it has drained — so a worker
// that fails to drain never checkpoints a torn cycle. An HTTP drain
// failure is reported but never skips the worker drain.
func shutdownSequence(httpShutdown, drain func(context.Context) error, logger *slog.Logger, timeout time.Duration) error {
	httpCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	httpErr := httpShutdown(httpCtx)
	if httpErr != nil {
		logger.Warn("http shutdown incomplete; draining worker anyway", slog.Any("err", httpErr))
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := drain(drainCtx); err != nil {
		return err
	}
	if httpErr != nil {
		return fmt.Errorf("http shutdown: %w", httpErr)
	}
	return nil
}
