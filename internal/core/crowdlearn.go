package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/bandit"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/cqc"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mic"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/qss"
	"github.com/crowdlearn/crowdlearn/internal/simclock"
)

// Config assembles the full CrowdLearn system.
type Config struct {
	// Dims are the feature-view dimensionalities of the dataset.
	Dims imagery.Dims
	// Seed derives all component seeds.
	Seed int64
	// Epsilon is QSS's exploration probability in [0, 1]. Zero disables
	// exploration (the QSS ablation); DefaultConfig uses 0.2.
	Epsilon float64
	// Strategy is the QSS exploitation score; nil uses the paper's
	// committee entropy. Alternatives (margin, least-confidence,
	// disagreement) exist for the selection-strategy ablation.
	Strategy qss.Strategy
	// QuerySize is the number of images sent to the crowd per cycle
	// (paper: 5 of 10).
	QuerySize int
	// Workers caps the goroutine fan-out of every parallel stage in the
	// sensing loop — committee voting, QSS scoring, GBDT split search and
	// neural minibatch gradients (0 = GOMAXPROCS, 1 = exact sequential
	// execution). Outputs are bit-identical at any value; the knob trades
	// wall-clock time only. Component-level settings (CQC.GBDT.Workers,
	// MIC.Workers) that are explicitly non-zero take precedence.
	Workers int
	// Bandit configures the IPD policy; its TotalRounds/QueriesPerRound
	// must match the campaign.
	Bandit bandit.Config
	// CQC configures quality control.
	CQC cqc.Config
	// MIC configures calibration.
	MIC mic.Config
	// Recovery configures closed-loop resilience: per-query HIT deadlines,
	// budget-aware requery with exponential incentive backoff, and graceful
	// degradation to AI labels when the crowd never answers. The zero value
	// disables recovery entirely and preserves the exact pre-recovery cycle
	// behaviour (DESIGN.md §8).
	Recovery RecoveryConfig
	// CommitteeOverheadPerImage is the extra simulated compute per image
	// for running QSS/IPD/CQC/MIC on top of the (parallel) committee —
	// calibrated so Table III's CrowdLearn algorithm delay is reproduced.
	CommitteeOverheadPerImage time.Duration
	// DisableWeightUpdate freezes expert weights at uniform — the MIC
	// weight-adaptation ablation (DESIGN.md §5).
	DisableWeightUpdate bool
	// DisableRetraining turns off the model-retraining strategy.
	DisableRetraining bool
	// DisableOffloading turns off the crowd-offloading strategy.
	DisableOffloading bool
	// Metrics, when non-nil, receives cycle-level counters, gauges and
	// delay histograms (metric names in obs.go). Nil disables metric
	// emission at the cost of one nil check per call site.
	Metrics *obs.Registry
	// Tracer, when non-nil, records one span tree per sensing cycle
	// covering every pipeline stage. Nil disables tracing.
	Tracer *obs.Tracer
	// Profiler, when non-nil, records per-worker utilization of the
	// cycle's parallel stages (committee voting, QSS scoring, MIC
	// retraining) and annotates the corresponding spans with busy time
	// and a per-worker breakdown. Profiling is passive: cycle outputs
	// are bit-identical with and without it. Nil disables profiling.
	Profiler *prof.Profiler
	// Journal, when non-nil, receives one JournalCycle record after each
	// cycle's state mutations have been applied, in the cycle's commit
	// (before RunCycle returns). A journal append error fails the
	// cycle: callers must not treat a cycle as committed unless its
	// record is durable. Replayed cycles (ReplayCycle) are not
	// re-journaled.
	Journal CycleJournal
}

// DefaultConfig mirrors the paper's main experiment configuration.
func DefaultConfig() Config {
	return Config{
		Dims:                      imagery.DefaultDims,
		Seed:                      1,
		Epsilon:                   0.2,
		QuerySize:                 5,
		Bandit:                    bandit.DefaultConfig(),
		CQC:                       cqc.DefaultConfig(),
		MIC:                       mic.DefaultConfig(),
		CommitteeOverheadPerImage: 305 * time.Millisecond,
	}
}

// ErrCycleNotDurable marks a cycle whose in-memory state mutations were
// applied but whose journal record could not be appended: the work
// happened, yet a crash would lose it. The supervised runtime
// (internal/supervise) treats this as a restart trigger — tearing the
// campaign down to its last durable state and re-running the cycle —
// rather than acknowledging an assessment the write-ahead log cannot
// replay.
var ErrCycleNotDurable = errors.New("cycle applied but journal append failed")

// CrowdLearn is the closed-loop crowd-AI hybrid system (Figure 4).
type CrowdLearn struct {
	cfg        Config
	committee  *qss.Committee
	selector   *qss.StrategySelector
	policy     *bandit.UCBALP
	quality    *cqc.CQC
	calibrator *mic.Calibrator
	platform   CrowdPlatform

	maxMemberCost time.Duration
	// bootMu guards the deferred bootstrap: pending holds the inputs
	// Bootstrap recorded until the training runs or a restored
	// checkpoint makes it unnecessary; bootErr is the training's result,
	// returned to every later caller.
	bootMu       sync.Mutex
	pending      *bootstrapInputs
	bootErr      error
	bootstrapped bool
	replay       *replayBuffer
	// replaying is set while ReplayCycle re-executes a journaled cycle;
	// it suppresses journal emission for the replayed cycle.
	replaying bool
}

var _ Scheme = (*CrowdLearn)(nil)

// New assembles a CrowdLearn system against the given crowdsourcing
// platform (the simulated crowd.Platform or a fault-injecting wrapper).
// Call Bootstrap before the first RunCycle.
func New(cfg Config, platform CrowdPlatform) (*CrowdLearn, error) {
	if platform == nil {
		return nil, errors.New("core: nil platform")
	}
	if err := cfg.Recovery.Validate(); err != nil {
		return nil, err
	}
	if cfg.QuerySize < 0 {
		return nil, errors.New("core: QuerySize must be non-negative")
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		return nil, errors.New("core: Epsilon must be in [0, 1]")
	}
	committee, err := qss.NewCommittee(classifier.StandardCommitteeWith(cfg.Dims, cfg.Seed,
		classifier.Options{Workers: cfg.Workers})...)
	if err != nil {
		return nil, err
	}
	if cfg.Strategy == nil {
		cfg.Strategy = qss.EntropyStrategy{}
	}
	selector, err := qss.NewStrategySelector(cfg.Strategy, cfg.Epsilon, cfg.Seed+101)
	if err != nil {
		return nil, err
	}
	selector.Workers = cfg.Workers
	// System-wide worker count flows into the components unless a component
	// was configured with its own explicit value.
	if cfg.CQC.GBDT.Workers == 0 {
		cfg.CQC.GBDT.Workers = cfg.Workers
	}
	if cfg.MIC.Workers == 0 {
		cfg.MIC.Workers = cfg.Workers
	}
	cfg.Bandit.Seed = cfg.Seed + 202
	cfg.Bandit.QueriesPerRound = max(cfg.QuerySize, 1)
	policy, err := bandit.NewUCBALP(cfg.Bandit)
	if err != nil {
		return nil, err
	}
	calibrator, err := mic.New(cfg.MIC)
	if err != nil {
		return nil, err
	}
	cl := &CrowdLearn{
		cfg:        cfg,
		committee:  committee,
		selector:   selector,
		policy:     policy,
		quality:    cqc.New(cfg.CQC),
		calibrator: calibrator,
		platform:   platform,
	}
	for _, e := range committee.Experts() {
		if c := e.PerImageCost(); c > cl.maxMemberCost {
			cl.maxMemberCost = c
		}
	}
	registerHelp(cfg.Metrics)
	return cl, nil
}

// Committee exposes the underlying committee (read-mostly; used by
// experiments to inspect expert weights). It runs a pending bootstrap
// first.
func (cl *CrowdLearn) Committee() *qss.Committee {
	cl.settle()
	return cl.committee
}

// Policy exposes the IPD policy for budget inspection. It runs a
// pending bootstrap first.
func (cl *CrowdLearn) Policy() *bandit.UCBALP {
	cl.settle()
	return cl.policy
}

// bootstrapInputs are the arguments of a Bootstrap whose training has
// not run yet.
type bootstrapInputs struct {
	train []*imagery.Image
	pilot *crowd.PilotData
}

// ErrBootstrapPending is returned by SnapshotState and SaveState while
// Bootstrap's training is still deferred: the untrained model is not
// the state a checkpoint should carry. Call EnsureBootstrapped first.
var ErrBootstrapPending = errors.New("core: bootstrap training has not run; call EnsureBootstrapped before checkpointing")

// Bootstrap prepares the system exactly as Section V-B prescribes for the
// training split: train the committee experts on golden labels, train CQC
// on the pilot-study responses, and warm-start the IPD bandit from the
// pilot delays.
//
// The training is deferred. Bootstrap validates and records its inputs;
// the training runs once, at the first call that needs a trained model:
// BeginCycle, RunCycle, AssessDegraded, ReplayCycle, the Committee,
// Policy, ExpertWeights and RemainingBudget accessors, or
// EnsureBootstrapped. Restoring a checkpoint written by a bootstrapped
// system cancels it, because the checkpoint carries every byte the
// training produces — a restarted service does not train a model that
// recovery would overwrite.
func (cl *CrowdLearn) Bootstrap(train []*imagery.Image, pilot *crowd.PilotData) error {
	if len(train) == 0 {
		return errors.New("core: empty training set")
	}
	cl.bootMu.Lock()
	defer cl.bootMu.Unlock()
	cl.pending = &bootstrapInputs{train: train, pilot: pilot}
	cl.bootErr = nil
	return nil
}

// BootstrapPending reports whether a Bootstrap's training is still
// deferred.
func (cl *CrowdLearn) BootstrapPending() bool {
	cl.bootMu.Lock()
	defer cl.bootMu.Unlock()
	return cl.pending != nil
}

// EnsureBootstrapped runs the training a Bootstrap deferred, if it has
// not run yet, and returns its error. Concurrent callers train once:
// the rest wait for the first and share its result. A system with
// nothing pending returns the last training's error (nil if none ran).
func (cl *CrowdLearn) EnsureBootstrapped() error {
	cl.bootMu.Lock()
	defer cl.bootMu.Unlock()
	if p := cl.pending; p != nil {
		cl.pending = nil
		cl.bootErr = cl.train(p.train, p.pilot)
	}
	return cl.bootErr
}

// settle runs a pending bootstrap for an accessor that cannot return
// its error; a failed training surfaces from the next cycle instead.
func (cl *CrowdLearn) settle() { _ = cl.EnsureBootstrapped() }

// bootGrain pins the bootstrap fan-out at one training unit per work
// unit: a full expert or CQC fit is the coarsest unit in the system.
var bootGrain = parallel.Grain{MinChunk: 1, CostNs: 1_000_000_000}

// bootOrder lists the bootstrap's training units in scheduling order,
// by index into the error slots (the committee's experts in committee
// order, then CQC at slot len(experts)). Experts go longest first by
// PerImageCost, which follows network size as training time does: ddm,
// vgg16, bovw. CQC goes second. Single-threaded on the default lab the
// fits take ~135 (ddm), ~100 (CQC), ~120 (vgg16) and ~35 ms (bovw), so
// two workers get the segments {ddm, CQC} and {vgg16, bovw}, near the
// best two-way split, and stealing evens out what the estimates miss.
func bootOrder(experts []classifier.Expert, withCQC bool) []int {
	order := make([]int, len(experts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return experts[order[a]].PerImageCost() > experts[order[b]].PerImageCost()
	})
	if withCQC {
		order = slices.Insert(order, 1, len(experts))
	}
	return order
}

// train is the bootstrap training itself: the committee's experts and
// CQC are independent units (disjoint state, each with its own seeded
// stream), so they run as one fan-out of coarse units. When that
// fan-out resolves above one worker every unit trains sequentially
// inside, so the two levels of parallelism do not multiply. The
// replay buffer and the bandit warm start follow, in their old order.
// Errors come back in the sequential order: experts in committee
// order, then CQC.
func (cl *CrowdLearn) train(train []*imagery.Image, pilot *crowd.PilotData) error {
	trainSamples := classifier.SamplesFromImages(train)
	experts := cl.committee.Experts()
	order := bootOrder(experts, pilot != nil)
	inner := 0
	if w, _ := bootGrain.Effective(cl.cfg.Workers, len(order)); w > 1 {
		inner = 1
	}
	classifier.SetInnerWorkers(experts, inner)
	errs := make([]error, len(experts)+1)
	parallel.ForGrain(cl.cfg.Workers, len(order), bootGrain, func(u int) {
		slot := order[u]
		if slot < len(experts) {
			if err := experts[slot].Train(trainSamples); err != nil {
				errs[slot] = fmt.Errorf("core: train %s: %w", experts[slot].Name(), err)
			}
			return
		}
		errs[slot] = cl.quality.TrainWithWorkers(pilot.AllResults(), inner)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	cl.replay = newReplayBuffer(trainSamples, cl.cfg.Seed+303)
	if pilot != nil {
		cl.policy.WarmStart(pilot)
	}
	cl.bootstrapped = true
	return nil
}

// Name implements Scheme.
func (cl *CrowdLearn) Name() string { return "crowdlearn" }

// RunCycle implements Scheme: the full closed loop of Figure 4.
//
//	(1) the committee votes on every image (committee entropy computed by
//	    QSS); (2) QSS selects the query set and IPD prices it; (3) the
//	    crowd answers and CQC distils truthful labels; (4) MIC updates
//	    expert weights, retrains the experts, and the truthful labels
//	    replace the AI's on the queried images (crowd offloading).
//
// RunCycle is BeginCycle followed by the commit's Run on this
// goroutine: compute and durability in one synchronous step (a journal
// failure surfaces as ErrCycleNotDurable).
func (cl *CrowdLearn) RunCycle(in CycleInput) (CycleOutput, error) {
	out, commit, err := cl.BeginCycle(in)
	if err != nil {
		return out, err
	}
	return out, commit.Run()
}

// CycleCommit is the durability phase of one sensing cycle, split off
// by BeginCycle. Run performs the journal write and returns nil only
// once the cycle is durable; a failure wraps ErrCycleNotDurable.
//
// The cycle trace stays open until Run finishes, so the journal.append
// span is recorded on it and the recorded cycle interval covers compute
// plus commit — that is what lets crowdprof see cycle N's span overlap
// cycle N+1's when the commit is detached. The tracer supports
// concurrently open cycles, RunCampaign's epoch-merge barrier keeps at
// most one commit in flight, and the compute chain never touches an
// older cycle's trace, so a detached Run is the trace's sole remaining
// writer.
type CycleCommit struct {
	cl    *CrowdLearn
	ct    *obs.CycleTrace
	index int
	// durable is the journal write still to do: the closure a
	// DetachedCycleJournal returned from its capture phase, or a plain
	// journal's CycleCommitted.
	durable  func() error
	detached bool
}

// Detached reports whether Run is safe to call concurrently with the
// next cycle's compute phase: true when the journal implements
// DetachedCycleJournal, whose capture phase has already copied
// everything the write needs from live state. A plain CycleJournal may
// read live state, so its commit must Run on the caller's goroutine
// before the next BeginCycle.
func (c *CycleCommit) Detached() bool { return c != nil && c.detached }

// Run completes the commit. Nil-safe: a cycle without a journal has
// nothing to commit and Run returns nil.
func (c *CycleCommit) Run() error {
	if c == nil {
		return nil
	}
	jsp := c.ct.Span(SpanJournalAppend)
	if err := c.durable(); err != nil {
		// The in-memory mutations stand but the cycle is not durable;
		// surface that so the caller does not acknowledge work the
		// journal cannot replay.
		jsp.Fail(err)
		return c.cl.notDurable(c.ct, c.index, err)
	}
	jsp.End()
	c.ct.End()
	return nil
}

// BeginCycle runs the compute phase of one sensing cycle — everything
// RunCycle does except making the cycle durable — and returns the
// output plus the pending commit (nil without a journal). RunCampaign
// overlaps a detached commit with the next cycle's compute; a
// DetachedCycleJournal's capture phase runs here, so the commit carries
// only the encode/append/fsync/checkpoint work.
//
// The in-memory model mutations always stand once BeginCycle returns
// nil, and the cycle's metrics are published then, whatever becomes of
// the commit: a cycle whose commit fails counts in both
// crowdlearn_cycles_total and crowdlearn_cycle_errors_total, for every
// kind of journal. Callers must not acknowledge the cycle until Run
// returns nil.
func (cl *CrowdLearn) BeginCycle(in CycleInput) (CycleOutput, *CycleCommit, error) {
	if err := in.Validate(); err != nil {
		return CycleOutput{}, nil, err
	}
	if err := cl.readyErr(); err != nil {
		return CycleOutput{}, nil, err
	}
	ct := cl.cfg.Tracer.Begin(in.Index, in.Context.String())
	for _, a := range in.Attrs {
		ct.SetAttr(a.Key, a.Value)
	}
	// With a journal attached, wrap the platform so every crowd
	// interaction of this cycle is captured for the durable record.
	var recorder *recordingPlatform
	if cl.cfg.Journal != nil && !cl.replaying {
		recorder = &recordingPlatform{inner: cl.platform}
		cl.platform = recorder
	}
	out, err := cl.runCycle(in, ct)
	if recorder != nil {
		cl.platform = recorder.inner
	}
	if err != nil {
		return out, nil, cl.failCycle(ct, err)
	}
	cl.observeCycle(in, out)
	if recorder == nil {
		ct.End()
		return out, nil, nil
	}
	rec := JournalCycle{
		Index:       in.Index,
		Context:     in.Context,
		ImageIDs:    imageIDs(in.Images),
		Submissions: recorder.subs,
	}
	commit := &CycleCommit{cl: cl, ct: ct, index: in.Index}
	if dj, ok := cl.cfg.Journal.(DetachedCycleJournal); ok {
		durable, jerr := dj.CycleCommittedDetached(rec)
		if jerr != nil {
			return out, nil, cl.notDurable(ct, in.Index, jerr)
		}
		commit.durable, commit.detached = durable, true
	} else {
		journal := cl.cfg.Journal
		commit.durable = func() error { return journal.CycleCommitted(rec) }
	}
	return out, commit, nil
}

// failCycle ends a failed cycle's trace and counts the failure.
func (cl *CrowdLearn) failCycle(ct *obs.CycleTrace, err error) error {
	ct.Fail(err)
	ct.End()
	cl.cfg.Metrics.Counter(MetricCycleErrors).Inc()
	return err
}

// notDurable fails a cycle whose journal commit failed.
func (cl *CrowdLearn) notDurable(ct *obs.CycleTrace, index int, jerr error) error {
	return cl.failCycle(ct, fmt.Errorf("core: cycle %d: %w: %w", index, ErrCycleNotDurable, jerr))
}

// readyErr runs a pending bootstrap and reports whether the system has
// a trained model to assess with.
func (cl *CrowdLearn) readyErr() error {
	if err := cl.EnsureBootstrapped(); err != nil {
		return fmt.Errorf("core: bootstrap: %w", err)
	}
	if !cl.bootstrapped {
		return errors.New("core: CrowdLearn not bootstrapped")
	}
	return nil
}

var _ DegradedAssessor = (*CrowdLearn)(nil)

// AssessDegraded implements DegradedAssessor: the overload-shedding
// fast path. It answers from the committee's current weighted vote
// alone — no crowd round-trip, no QSS/IPD/CQC/MIC, no learning. It
// must not mutate any system state, consume a cycle index, draw from a
// seeded RNG stream, or write the journal: a degraded burst leaves the
// campaign's committed cycle sequence and its replay byte-identical.
func (cl *CrowdLearn) AssessDegraded(in CycleInput) (CycleOutput, error) {
	if err := in.Validate(); err != nil {
		return CycleOutput{}, err
	}
	if err := cl.readyErr(); err != nil {
		return CycleOutput{}, err
	}
	out := CycleOutput{
		Distributions: make([][]float64, len(in.Images)),
		Degraded:      make([]int, len(in.Images)),
	}
	for i, im := range in.Images {
		out.Distributions[i] = cl.committee.VoteInto(im, make([]float64, imagery.NumLabels))
		out.Degraded[i] = i
	}
	out.AlgorithmDelay = time.Duration(len(in.Images)) * (cl.maxMemberCost + cl.cfg.CommitteeOverheadPerImage)
	return out, nil
}

// voteGrain is the chunking cost hint for per-image committee voting:
// one pooled forward pass per member is ~microseconds per image, so the
// small per-cycle image windows collapse to the inline path instead of
// fanning out work units too fine to amortize a goroutine handoff.
var voteGrain = parallel.Grain{CostNs: 4_000}

// runCycle is the cycle body; ct may be nil (every span call no-ops).
func (cl *CrowdLearn) runCycle(in CycleInput, ct *obs.CycleTrace) (CycleOutput, error) {
	out := CycleOutput{Distributions: make([][]float64, len(in.Images))}
	// (1) Committee vote per image. The committee runs its members in
	// parallel, so the compute cost per image is the slowest member plus
	// the CrowdLearn module overhead (Table III cost model).
	sp := ct.Span(SpanCommitteeVote)
	sp.SetAttr("workers", parallel.Workers(cl.cfg.Workers))
	rec := cl.cfg.Profiler.Loop(SpanCommitteeVote)
	parallel.ForGrainObs(cl.cfg.Workers, len(in.Images), voteGrain, rec.Obs(), func(i int) {
		out.Distributions[i] = cl.committee.VoteInto(in.Images[i], make([]float64, imagery.NumLabels))
	})
	rec.Annotate(sp)
	out.AlgorithmDelay = time.Duration(len(in.Images)) * (cl.maxMemberCost + cl.cfg.CommitteeOverheadPerImage)
	sp.SetSimulated(out.AlgorithmDelay)
	sp.End()

	if cl.cfg.QuerySize == 0 || !cl.quality.Trained() {
		// Pure-AI degenerate mode (Figure 9's 0% point).
		return out, nil
	}

	// (2) QSS selects the query set; IPD prices it.
	sp = ct.Span(SpanQSSSelect)
	sp.SetAttr("workers", parallel.Workers(cl.cfg.Workers))
	rec = cl.cfg.Profiler.Loop(SpanQSSSelect)
	queried := cl.selector.SelectObs(cl.committee, in.Images, cl.cfg.QuerySize, rec.Obs())
	rec.Annotate(sp)
	sp.End()

	sp = ct.Span(SpanIPDPrice)
	incentive, err := cl.policy.SelectIncentive(in.Context)
	if errors.Is(err, bandit.ErrBudgetExhausted) {
		// No budget left: fall back to AI-only for the rest of the run.
		sp.Fail(err)
		cl.cfg.Metrics.Counter(MetricBudgetExhausted).Inc()
		return out, nil
	}
	if err != nil {
		sp.Fail(err)
		return CycleOutput{}, err
	}
	sp.End()

	queries := make([]crowd.Query, len(queried))
	for qi, idx := range queried {
		queries[qi] = crowd.Query{Image: in.Images[idx], Incentive: incentive}
	}

	// (3) The crowd answers; CQC distils truthful label distributions.
	sp = ct.Span(SpanCrowdSubmit)
	var results []crowd.QueryResult
	if cl.cfg.Recovery.Enabled() {
		rec, err := cl.submitWithRecovery(ct, in.Context, queries, incentive)
		out.Requeries = rec.requeries
		out.RefundedDollars = rec.refunded
		out.LateResponses = rec.late
		out.Outages = rec.outages
		if err != nil {
			sp.Fail(err)
			return CycleOutput{}, err
		}
		// Keep only answered queries in the closed loop; degraded images
		// stand on the committee's AI label and MIC skips them.
		answered := make([]int, len(rec.answered))
		results = make([]crowd.QueryResult, len(rec.answered))
		for i, pos := range rec.answered {
			answered[i] = queried[pos]
			results[i] = rec.results[pos]
		}
		for _, pos := range rec.degraded {
			out.Degraded = append(out.Degraded, queried[pos])
		}
		queried = answered
		out.Queried = queried
		out.Incentive = incentive
		out.SpentDollars = rec.spent
		out.CrowdDelay = rec.crowdDelay
		sp.SetSimulated(out.CrowdDelay)
		sp.End()
		if len(queried) == 0 {
			// Nothing usable came back: the whole cycle degrades to AI
			// labels rather than failing.
			return out, nil
		}
	} else {
		results, err = cl.platform.Submit(simclock.New(), in.Context, queries)
		if errors.Is(err, crowd.ErrUnavailable) {
			// Platform outage with recovery disabled: degrade the cycle
			// to AI labels instead of wedging the campaign.
			sp.Fail(err)
			out.Degraded = queried
			out.Outages = 1
			return out, nil
		}
		if err != nil {
			sp.Fail(err)
			return CycleOutput{}, err
		}
		out.Queried = queried
		out.Incentive = incentive
		out.SpentDollars = incentive.Dollars() * float64(len(queries))
		out.CrowdDelay = crowd.MeanCompletionDelay(results)
		sp.SetSimulated(out.CrowdDelay)
		sp.End()
		cl.policy.Observe(in.Context, incentive, out.CrowdDelay, len(queries))
	}

	sp = ct.Span(SpanCQCAggregate)
	truths, err := cl.quality.Aggregate(results)
	if err != nil {
		sp.Fail(err)
		return CycleOutput{}, err
	}
	sp.End()

	// (4) MIC: weight update, retraining, crowd offloading.
	queriedImages := make([]*imagery.Image, len(queried))
	for qi, idx := range queried {
		queriedImages[qi] = in.Images[idx]
	}
	if !cl.cfg.DisableWeightUpdate {
		sp = ct.Span(SpanMICWeights)
		if _, err := cl.calibrator.UpdateWeights(cl.committee, queriedImages, truths); err != nil {
			sp.Fail(err)
			return CycleOutput{}, err
		}
		sp.End()
	}
	if !cl.cfg.DisableRetraining {
		sp = ct.Span(SpanMICRetrain)
		sp.SetAttr("workers", parallel.Workers(cl.cfg.MIC.Workers))
		samples, err := mic.RetrainSamples(queriedImages, truths)
		if err != nil {
			sp.Fail(err)
			return CycleOutput{}, err
		}
		// Interleave replayed training data so the incremental pass does
		// not catastrophically forget the original task.
		cl.replay.add(samples)
		rec = cl.cfg.Profiler.Loop(SpanMICRetrain)
		if err := cl.calibrator.RetrainObs(cl.committee, cl.replay.batch(), rec.Obs()); err != nil {
			rec.Annotate(sp)
			sp.Fail(err)
			return CycleOutput{}, err
		}
		rec.Annotate(sp)
		sp.End()
	}
	if !cl.cfg.DisableOffloading {
		for qi, idx := range queried {
			out.Distributions[idx] = truths[qi]
		}
	}
	return out, nil
}
