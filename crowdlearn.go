// Package crowdlearn is the public API of the CrowdLearn reproduction: a
// crowd-AI hybrid system for deep-learning-based disaster damage
// assessment (Zhang et al., ICDCS 2019).
//
// The package re-exports the stable surface of the internal packages:
//
//   - the synthetic disaster-imagery substrate (Dataset, Image, Label);
//   - the simulated crowdsourcing platform (Platform, PilotData);
//   - the CrowdLearn system itself (System) and the paper's baseline
//     schemes, all runnable through the sensing-cycle campaign protocol;
//   - the experiment runners that regenerate every table and figure of
//     the paper's evaluation section.
//
// Quick start:
//
//	lab, err := crowdlearn.NewLab(crowdlearn.DefaultLabConfig())
//	// handle err
//	sys, err := lab.NewSystem()
//	// handle err
//	result, err := crowdlearn.RunCampaign(sys, lab.Dataset.Test, crowdlearn.DefaultCampaignConfig())
//
// See examples/ for complete programs and cmd/crowdlearn for the CLI that
// regenerates the paper's tables and figures.
package crowdlearn

import (
	"io"
	"log/slog"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/eval"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
	"github.com/crowdlearn/crowdlearn/internal/faults"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/store"
)

// Re-exported imagery types: the dataset substrate.
type (
	// Dataset is a generated corpus with train/test splits.
	Dataset = imagery.Dataset
	// DatasetConfig parameterises dataset generation.
	DatasetConfig = imagery.Config
	// Image is one synthetic social-media disaster report.
	Image = imagery.Image
	// Label is a damage-severity class.
	Label = imagery.Label
	// FailureMode classifies why AI experts fail on an image.
	FailureMode = imagery.FailureMode
)

// Damage severity classes.
const (
	NoDamage       = imagery.NoDamage
	ModerateDamage = imagery.ModerateDamage
	SevereDamage   = imagery.SevereDamage
	// NumLabels is the number of severity classes.
	NumLabels = imagery.NumLabels
)

// Re-exported crowd types: the simulated MTurk platform.
type (
	// Platform is the simulated crowdsourcing marketplace.
	Platform = crowd.Platform
	// PlatformConfig parameterises the platform.
	PlatformConfig = crowd.Config
	// PilotData is the pilot-study record used to characterise the
	// black-box platform.
	PilotData = crowd.PilotData
	// TemporalContext is the time-of-day regime of a query.
	TemporalContext = crowd.TemporalContext
	// Cents is a monetary incentive.
	Cents = crowd.Cents
)

// Temporal contexts.
const (
	Morning   = crowd.Morning
	Afternoon = crowd.Afternoon
	Evening   = crowd.Evening
	Midnight  = crowd.Midnight
)

// Re-exported core types: the system and campaign protocol.
type (
	// System is the closed-loop CrowdLearn system (QSS + IPD + CQC + MIC).
	System = core.CrowdLearn
	// CrowdPlatform is the crowd-marketplace interface the System posts
	// through — satisfied by Platform and by FaultInjector, so fault
	// injection composes with every scheme.
	CrowdPlatform = core.CrowdPlatform
	// RecoveryConfig parameterises the closed loop's crowd-failure
	// handling: HIT deadlines, budget-aware requery with incentive
	// backoff, and graceful degradation to AI labels. The zero value
	// disables recovery.
	RecoveryConfig = core.RecoveryConfig
	// SystemConfig assembles a System.
	SystemConfig = core.Config
	// Scheme is any damage-assessment system runnable through campaigns.
	Scheme = core.Scheme
	// CycleInput is one sensing cycle's workload.
	CycleInput = core.CycleInput
	// CycleOutput is a scheme's assessment of one cycle.
	CycleOutput = core.CycleOutput
	// CampaignConfig drives the 40x10 evaluation protocol.
	CampaignConfig = core.CampaignConfig
	// CampaignResult aggregates a campaign run.
	CampaignResult = core.CampaignResult
	// Metrics holds accuracy / precision / recall / F1.
	Metrics = eval.Metrics
	// Sample is one training sample (image + target distribution); used
	// by System.RestoreState to re-seed the retraining replay pool.
	Sample = classifier.Sample
)

// Re-exported observability types: the zero-dependency metrics registry
// and cycle tracer (see DESIGN.md "Observability"). Attach them through
// SystemConfig.Metrics / SystemConfig.Tracer (or Lab.NewSystemWith) and
// CampaignConfig.Tracer.
type (
	// MetricsRegistry collects counters, gauges and histograms and renders
	// them in Prometheus text exposition format.
	MetricsRegistry = obs.Registry
	// Tracer records one span tree per sensing cycle in a bounded ring.
	Tracer = obs.Tracer
	// CycleTrace is one cycle's span tree.
	CycleTrace = obs.CycleTrace
	// Span is one named stage of a cycle.
	Span = obs.Span
	// StageStat aggregates span durations by stage name.
	StageStat = obs.StageStat
	// Profiler records per-worker utilization of the sensing loop's
	// parallel stages and exports crowdlearn_parallel_* metrics. Attach
	// through SystemConfig.Profiler.
	Profiler = prof.Profiler
	// LoopProfile is one profiled parallel loop's utilization record,
	// attached to stage spans as the "parallel" attribute.
	LoopProfile = prof.LoopProfile
	// StageTotals is the profiler's per-stage roll-up.
	StageTotals = prof.StageTotals
	// AllocSampler attributes heap-allocation deltas to spans when
	// attached via Tracer.SetSampler (runtime/metrics-backed; safe and
	// cheap at every span boundary).
	AllocSampler = prof.AllocSampler
)

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds a cycle tracer retaining the most recent capacity
// traces (capacity <= 0 selects obs.DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// NewProfiler builds a parallel-stage profiler exporting to reg (nil
// keeps stage totals without exporting metrics).
func NewProfiler(reg *MetricsRegistry) *Profiler { return prof.New(reg) }

// AggregateStages totals spans by stage name across the given traces —
// the per-stage roll-up behind reports and benchmark extras.
func AggregateStages(traces []*CycleTrace) map[string]StageStat {
	return obs.AggregateStages(traces)
}

// SamplesFromImages builds hard-labelled training samples from ground
// truth — the argument System.RestoreState expects for its replay pool.
func SamplesFromImages(images []*Image) []Sample {
	return classifier.SamplesFromImages(images)
}

// Lab is the assembled evaluation environment: dataset, platform
// configuration and pilot study, ready to build systems and run
// experiments.
type Lab = experiments.Env

// LabConfig parameterises the Lab.
type LabConfig = experiments.Config

// DefaultLabConfig reproduces the paper's evaluation setup: 960 images
// (560 train / 400 test), a 240-worker platform, the 7-level x 4-context
// pilot study, and the 40x10 campaign protocol.
func DefaultLabConfig() LabConfig { return experiments.DefaultConfig() }

// NewLab generates the dataset and runs the pilot study.
func NewLab(cfg LabConfig) (*Lab, error) { return experiments.NewEnv(cfg) }

// GenerateDataset builds a synthetic disaster-image corpus.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) { return imagery.Generate(cfg) }

// DefaultDatasetConfig mirrors the paper's 960-image corpus shape.
func DefaultDatasetConfig() DatasetConfig { return imagery.DefaultConfig() }

// NewPlatform builds a simulated crowdsourcing platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return crowd.NewPlatform(cfg) }

// DefaultPlatformConfig mirrors the paper's MTurk setup (5 assignments
// per query).
func DefaultPlatformConfig() PlatformConfig { return crowd.DefaultConfig() }

// DefaultSystemConfig mirrors the paper's CrowdLearn configuration.
func DefaultSystemConfig() SystemConfig { return core.DefaultConfig() }

// NewSystem assembles a CrowdLearn system against a crowd platform —
// the simulated marketplace itself, or a FaultInjector wrapping it. Call
// Bootstrap on the result before running cycles.
func NewSystem(cfg SystemConfig, platform CrowdPlatform) (*System, error) {
	return core.New(cfg, platform)
}

// DefaultRecoveryConfig is the resilience tuning used by the faults
// experiment: 30-minute HIT deadlines, quorum 3, two requery waves at
// 1.5x incentive backoff capped at 20 cents.
func DefaultRecoveryConfig() RecoveryConfig { return core.DefaultRecoveryConfig() }

// Re-exported fault-injection types (see internal/faults): a
// deterministic, seedable adversary for the crowd platform.
type (
	// FaultConfig parameterises the injector; the zero value injects
	// nothing and is a bit-for-bit no-op.
	FaultConfig = faults.Config
	// FaultInjector wraps a CrowdPlatform with deterministic failure
	// injection: abandonment, delay spikes, duplicates, stale replays,
	// dropout bursts and platform outages.
	FaultInjector = faults.Injector
	// FaultCounts tallies injected faults by kind.
	FaultCounts = faults.Counts
)

// NewFaultInjector wraps a crowd platform with deterministic fault
// injection.
func NewFaultInjector(inner CrowdPlatform, cfg FaultConfig) (*FaultInjector, error) {
	return faults.New(inner, cfg)
}

// DefaultCampaignConfig mirrors the paper's 40-cycle protocol.
func DefaultCampaignConfig() CampaignConfig { return core.DefaultCampaignConfig() }

// RunCampaign drives a scheme through the sensing-cycle protocol. A
// System's durable commits (WAL append, fsync, periodic checkpoint)
// overlap the next cycle's compute when its journal can detach them;
// results, records and journal bytes are byte-identical to running the
// cycles one by one (DESIGN.md §9).
func RunCampaign(scheme Scheme, test []*Image, cfg CampaignConfig) (*CampaignResult, error) {
	return core.RunCampaign(scheme, test, cfg)
}

// ComputeMetrics derives Table II-style metrics from parallel label
// slices.
func ComputeMetrics(truths, preds []Label) (Metrics, error) {
	return eval.Compute(truths, preds)
}

// Re-exported durable-persistence types (see internal/store and
// DESIGN.md §10): crash-safe checkpoint files plus a write-ahead cycle
// log, with deterministic restart recovery.
type (
	// StateStore is one durable state directory: rotating checksummed
	// checkpoints and the append-only cycle log.
	StateStore = store.Store
	// StateStoreOptions configures OpenStateStore.
	StateStoreOptions = store.Options
	// StateJournal adapts a StateStore to SystemConfig.Journal: it
	// appends every committed cycle to the log and checkpoints on a
	// cycle cadence.
	StateJournal = store.Journal
	// CycleJournal is the hook a System calls after each committed
	// cycle (SystemConfig.Journal).
	CycleJournal = core.CycleJournal
	// RecoverOptions parameterises StateStore.Recover.
	RecoverOptions = store.RecoverOptions
	// RecoveryReport describes what Recover restored, skipped,
	// truncated and replayed.
	RecoveryReport = store.RecoveryReport
	// StoreFaultConfig seeds deterministic persistence faults (torn
	// writes, failed renames, torn log appends) for crash-safety tests.
	StoreFaultConfig = store.FaultConfig
)

// OpenStateStore opens (creating if needed) a durable state directory,
// truncating any torn write-ahead-log tail left by a crash.
func OpenStateStore(opts StateStoreOptions) (*StateStore, error) { return store.Open(opts) }

// NewStateJournal wires a StateStore behind SystemConfig.Journal:
// every committed cycle is appended durably, and every `every` cycles
// (0 = never) a checkpoint is written via save — normally the system's
// SaveState. logger and metrics may be nil.
func NewStateJournal(st *StateStore, every int, save func(w io.Writer) error, logger *slog.Logger, metrics *MetricsRegistry) *StateJournal {
	return store.NewJournal(st, every, save, logger, metrics)
}
