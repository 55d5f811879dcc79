package supervise

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/store"
)

// RestartPolicy is the deterministic seeded exponential-backoff-with-
// jitter restart schedule of one campaign.
type RestartPolicy struct {
	// MaxRestarts is the restart budget: once a campaign has restarted
	// this many times without an operator Resume resetting the count,
	// the next failure quarantines it (default 5).
	MaxRestarts int
	// Base is the first restart delay (default 250ms).
	Base time.Duration
	// Factor multiplies the delay per consecutive restart (default 2).
	Factor float64
	// Max caps the delay (default 30s).
	Max time.Duration
	// Jitter scales each delay by a seeded factor in ((1-Jitter), 1]
	// so campaigns that fail together do not restart in lockstep
	// (default 0.2).
	Jitter float64
	// Seed drives the jitter stream.
	Seed int64
}

// withDefaults fills unset knobs.
func (p RestartPolicy) withDefaults() RestartPolicy {
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 5
	}
	if p.Base == 0 {
		p.Base = 250 * time.Millisecond
	}
	if p.Factor == 0 {
		p.Factor = 2
	}
	if p.Max == 0 {
		p.Max = 30 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	return p
}

// BuildContext carries the per-epoch hooks a Spec.Build callback must
// wire into the scheme it assembles: the campaign's circuit breaker
// around the crowd platform, and the campaign's durable journal into
// core.Config.Journal.
type BuildContext struct {
	// WrapPlatform applies the campaign's circuit breaker; pass the
	// assembled (possibly fault-injected) platform through it before
	// handing it to the scheme.
	WrapPlatform func(core.CrowdPlatform) core.CrowdPlatform
	// Journal is the campaign's cycle journal, nil for campaigns
	// without a StateDir. Wire it into core.Config.Journal.
	Journal core.CycleJournal
}

// BuildFunc assembles a freshly bootstrapped scheme for one campaign
// epoch. It is called at Create and again on every restart: each epoch
// gets a brand-new scheme and platform so no state — learned weights,
// RNG positions, half-applied mutations — leaks across a failure; the
// recovery path then replays the journal to bring the fresh scheme to
// the last durable state.
type BuildFunc func(bc BuildContext) (core.Scheme, error)

// Spec declares one campaign.
type Spec struct {
	// ID names the campaign in the API, metrics and logs.
	ID string
	// Build assembles the campaign's scheme; see BuildFunc.
	Build BuildFunc
	// StateDir, when non-empty, enables durable crash-safe persistence
	// (internal/store) and restart-from-checkpoint. The DefaultCampaign's
	// store reports into Options.Metrics; other campaigns' stores stay
	// detached, since the store's unlabeled series would clobber. The built scheme
	// must then be a *core.CrowdLearn. Empty runs the campaign without
	// durability: a restart rebuilds from bootstrap and the cycle index
	// keeps counting from where the failed epoch left it.
	StateDir string
	// StartCycle is the first cycle index of a campaign without a
	// StateDir, for a scheme whose durable state the caller recovered
	// itself (a durable campaign resumes at its recovered NextCycle).
	StartCycle int
	// CheckpointEvery is the checkpoint cadence in committed cycles
	// (0 = only at shutdown/archive).
	CheckpointEvery int
	// RetainCheckpoints is the rotation depth
	// (0 = store.DefaultRetainCheckpoints).
	RetainCheckpoints int
	// StoreFaults seeds persistence fault injection (chaos tests).
	StoreFaults store.FaultConfig
	// TrainSamples and Registry parameterise recovery: the bootstrap
	// training samples and the image universe journaled cycles resolve
	// their IDs against.
	TrainSamples []classifier.Sample
	Registry     []*imagery.Image
	// Restart overrides the supervisor's default restart policy.
	Restart *RestartPolicy
	// Breaker overrides the supervisor's default breaker config.
	Breaker *BreakerConfig
}

// AssessResult is one completed sensing cycle.
type AssessResult struct {
	// Campaign is the owning campaign's ID.
	Campaign string `json:"campaign"`
	// Cycle is the committed cycle index — or, for a Shed result, the
	// next uncommitted index, repeated without being consumed.
	Cycle int `json:"cycle"`
	// Images are the request's images, in input order.
	Images []*imagery.Image `json:"-"`
	// Output is the scheme's assessment.
	Output core.CycleOutput `json:"-"`
	// Shed marks a result served on the admission controller's degrade
	// tier: AI-only labels, no committed sensing cycle, no journal write.
	Shed bool `json:"shed,omitempty"`
}

// CampaignStats is one campaign's lifetime accounting: served per
// campaign by GET /campaigns and, for the DefaultCampaign, by GET /stats.
type CampaignStats struct {
	CyclesRun int `json:"cyclesRun"`
	// ImagesAssessed counts images of full cycles and shed answers.
	ImagesAssessed  int     `json:"imagesAssessed"`
	CrowdQueries    int     `json:"crowdQueries"`
	TotalSpent      float64 `json:"totalSpentDollars"`
	MeanCrowdDelayS float64 `json:"meanCrowdDelaySeconds"`
	// DegradedCycles counts cycles in which at least one image fell back
	// to its AI label after crowd failures; DegradedImages those images.
	DegradedCycles int `json:"degradedCycles"`
	DegradedImages int `json:"degradedImages"`
	// Requeries counts HIT reposts; RefundedDollars the refunds for
	// unanswered posts.
	Requeries       int     `json:"crowdRequeries"`
	RefundedDollars float64 `json:"refundedDollars"`
	// BudgetRemaining and ExpertWeights snapshot an Observable scheme
	// after every committed cycle; nil for other schemes.
	BudgetRemaining *float64           `json:"budgetRemainingDollars,omitempty"`
	ExpertWeights   map[string]float64 `json:"expertWeights,omitempty"`
	// ShedResponses counts requests served on the admission degrade
	// tier (AI-only labels, no committed cycle).
	ShedResponses int `json:"shedResponses,omitempty"`
	CycleErrors   int `json:"cycleErrors"`
	Stalls        int `json:"stalls"`
}

// Observable is the optional telemetry surface a scheme may implement
// (core.CrowdLearn does). The worker snapshots it after every committed
// cycle, when no cycle of the epoch is running, so implementations need
// no locking against concurrent RunCycle calls.
type Observable interface {
	ExpertWeights() map[string]float64
	RemainingBudget() float64
}

// RecentResults is how many of its latest answers a campaign keeps for
// the dashboard and the degraded health status.
const RecentResults = 20

// CampaignHealth is one campaign's health snapshot, served by /healthz.
type CampaignHealth struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Mode is the degradation-ladder position: "full", "ai-only"
	// (breaker open), "paused" or "quarantined".
	Mode string `json:"mode"`
	// Restarts is the count since the last budget reset; Budget the
	// quarantine threshold; TotalRestarts the lifetime count.
	Restarts      int    `json:"restarts"`
	Budget        int    `json:"restartBudget"`
	TotalRestarts int    `json:"totalRestarts"`
	LastError     string `json:"lastError,omitempty"`
	// NextCycle is the index the next sensing cycle will use.
	NextCycle int  `json:"nextCycle"`
	Durable   bool `json:"durable"`
	// LastCheckpointAgeSeconds is the time since the durable store's last
	// checkpoint; nil before the first one and for campaigns without one.
	LastCheckpointAgeSeconds *float64 `json:"lastCheckpointAgeSeconds,omitempty"`
	// Queued counts requests waiting in the campaign's queue.
	Queued int `json:"queued"`
	// Stats carries lifetime cycle accounting.
	Stats CampaignStats `json:"stats"`
	// Breaker is nil when the campaign runs without one.
	Breaker *BreakerHealth `json:"breaker,omitempty"`
	// Recovery reports how the current epoch's state was reconstructed
	// (durable campaigns only).
	Recovery *store.RecoveryReport `json:"recovery,omitempty"`
}

type campaignReq struct {
	Request
	// ctx is the caller's context; the worker checks it after dequeue
	// so a request whose caller vanished while queued skips its cycle.
	ctx   context.Context
	reply chan campaignReply
	// ticket tracks the request through the fleet-wide admission
	// controller (nil without Options.Admission). Once the request is
	// queued the worker owns it: Dequeued, then exactly one of Done
	// (a cycle or degraded answer ran) or Abandon (it never did).
	ticket *admission.Ticket
	// degraded routes the cycle to the scheme's AI-only fast path.
	degraded bool
}

type campaignReply struct {
	res AssessResult
	err error
}

type ctlOp int

const (
	ctlPause ctlOp = iota
	ctlResume
	ctlArchive
	ctlSnapshot
)

type ctlReq struct {
	op    ctlOp
	reply chan ctlReply
}

type ctlReply struct {
	err   error
	state []byte // ctlSnapshot: SaveState bytes
}

// Campaign is one supervised failure domain: a worker goroutine, an
// epoch of runtime resources (scheme, store, journal, breaker), and the
// restart bookkeeping that decides when failures turn into quarantine.
type Campaign struct {
	spec    Spec
	sup     *Supervisor
	restart RestartPolicy
	brkCfg  BreakerConfig
	backoff *mathx.Backoff // restart delays; survives epochs

	requests chan campaignReq
	ctl      chan ctlReq
	kick     chan error
	stop     chan struct{}
	done     chan struct{}

	// Everything below is worker-owned; the mutex exists only so
	// health/state snapshots from other goroutines read consistent
	// values.
	state     State
	restarts  int // since the last budget reset
	total     int // lifetime
	lastErr   error
	nextCycle int
	stats     CampaignStats
	recovery  *store.RecoveryReport
	// crowdDelay and delayedCycles feed stats.MeanCrowdDelayS.
	crowdDelay    time.Duration
	delayedCycles int
	recent        []AssessResult // newest last, at most RecentResults

	// Current epoch's resources.
	sys     core.Scheme
	durable *core.CrowdLearn // sys when the campaign persists state
	st      *store.Store
	journal *store.Journal
	breaker *Breaker
}

// ID returns the campaign's identifier.
func (c *Campaign) ID() string { return c.spec.ID }

// State returns the lifecycle state.
func (c *Campaign) State() State {
	c.sup.mu.Lock()
	defer c.sup.mu.Unlock()
	return c.state
}

// setState transitions the lifecycle state and emits the one-hot gauge.
func (c *Campaign) setState(to State, cause error) {
	c.sup.mu.Lock()
	from := c.state
	c.state = to
	c.lastErr = cause
	c.sup.mu.Unlock()
	for _, s := range States() {
		v := 0.0
		if s == to {
			v = 1
		}
		c.sup.metrics.Gauge(MetricCampaignState, "campaign", c.spec.ID, "state", s.String()).Set(v)
	}
	if to == StateQuarantined {
		c.sup.metrics.Counter(MetricCampaignQuarantines, "campaign", c.spec.ID).Inc()
	}
	if from != to {
		c.sup.logger.Info("campaign state",
			slog.String("campaign", c.spec.ID),
			slog.String("from", from.String()),
			slog.String("to", to.String()),
			slog.Any("cause", cause))
	}
}

// health snapshots the campaign.
func (c *Campaign) health() CampaignHealth {
	c.sup.mu.Lock()
	h := CampaignHealth{
		ID:            c.spec.ID,
		State:         c.state.String(),
		Mode:          "full",
		Restarts:      c.restarts,
		Budget:        c.restart.MaxRestarts,
		TotalRestarts: c.total,
		NextCycle:     c.nextCycle,
		Durable:       c.spec.StateDir != "",
		Queued:        len(c.requests),
		Stats:         c.stats,
		Recovery:      c.recovery,
	}
	if c.lastErr != nil {
		h.LastError = c.lastErr.Error()
	}
	br, journal := c.breaker, c.journal
	state := c.state
	c.sup.mu.Unlock()
	if journal != nil {
		if age, ok := journal.CheckpointAge(); ok {
			secs := age.Seconds()
			h.LastCheckpointAgeSeconds = &secs
		}
	}
	if br != nil {
		bh := br.Health()
		h.Breaker = &bh
		if bh.State != BreakerClosed.String() {
			h.Mode = "ai-only"
		}
	}
	switch state {
	case StatePaused:
		h.Mode = "paused"
	case StateQuarantined:
		h.Mode = "quarantined"
	case StateArchived:
		h.Mode = "archived"
	case StateRestarting:
		h.Mode = "restarting"
	}
	return h
}

// guardPanics converts a panic in epoch-assembly user code (the Build
// callback, recovery replay through the live platform) into an error so
// a panicking rebuild consumes a restart instead of killing the worker
// goroutine — the resources a caller is blocked on.
func guardPanics[T any](stage string, fn func() (T, error)) (out T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %s: %v", ErrCyclePanicked, stage, p)
		}
	}()
	return fn()
}

// buildEpoch assembles a fresh scheme and, for a durable campaign,
// opens the state directory and recovers the last durable state
// through store.OpenSystem. On any error the store is closed and no
// epoch resources are retained.
func (c *Campaign) buildEpoch() error {
	bc := BuildContext{WrapPlatform: func(p core.CrowdPlatform) core.CrowdPlatform { return p }}
	var br *Breaker
	if !c.brkCfg.Disabled {
		br = NewBreaker(c.brkCfg, c.spec.ID, c.sup)
		bc.WrapPlatform = br.Wrap
	}
	var (
		sys core.Scheme
		d   = &store.Durable{}
		err error
	)
	if c.spec.StateDir == "" {
		if sys, err = guardPanics("build", func() (core.Scheme, error) { return c.spec.Build(bc) }); err != nil {
			return fmt.Errorf("supervise: build campaign %s: %w", c.spec.ID, err)
		}
	} else {
		// stage names the step an error came from. The outer panic guard
		// labels a panic in recovery replay through the live platform;
		// the inner one has already labelled a panic in Build.
		stage := "open"
		var metrics *obs.Registry
		if c.spec.ID == DefaultCampaign {
			metrics = c.sup.metrics
		}
		d, err = guardPanics("recovery", func() (*store.Durable, error) {
			return store.OpenSystem(store.Options{
				Dir:               c.spec.StateDir,
				RetainCheckpoints: c.spec.RetainCheckpoints,
				Faults:            c.spec.StoreFaults,
			}, c.spec.CheckpointEvery, func(j core.CycleJournal) (*core.CrowdLearn, error) {
				stage, bc.Journal = "build", j
				sys, err := guardPanics("build", func() (core.Scheme, error) { return c.spec.Build(bc) })
				if err != nil {
					return nil, err
				}
				cl, ok := sys.(*core.CrowdLearn)
				if !ok {
					return nil, fmt.Errorf("StateDir requires a *core.CrowdLearn scheme, got %T", sys)
				}
				stage = "recover"
				return cl, nil
			}, store.RecoverOptions{
				TrainSamples:   c.spec.TrainSamples,
				Registry:       c.spec.Registry,
				ResyncPlatform: true,
				Logger:         c.sup.logger,
				Metrics:        metrics,
			})
		})
		if err != nil {
			return fmt.Errorf("supervise: %s campaign %s: %w", stage, c.spec.ID, err)
		}
		sys = d.Sys
	}
	weights, budget := telemetry(sys)
	c.sup.mu.Lock()
	c.sys = sys
	c.durable = d.Sys
	c.st = d.Store
	c.journal = d.Journal
	c.breaker = br
	if d.Report != nil {
		c.recovery = d.Report
		c.nextCycle = d.Report.NextCycle
	}
	c.stats.ExpertWeights, c.stats.BudgetRemaining = weights, budget
	c.sup.mu.Unlock()
	return nil
}

// telemetry reads an Observable scheme's weights and budget (nil for
// other schemes) while no cycle of it runs. Reading a core.CrowdLearn
// whose bootstrap training is still deferred runs the training.
func telemetry(sys core.Scheme) (map[string]float64, *float64) {
	o, ok := sys.(Observable)
	if !ok {
		return nil, nil
	}
	budget := o.RemainingBudget()
	return o.ExpertWeights(), &budget
}

// teardownEpoch fences the current epoch: optionally write a final
// checkpoint, then close the store so any straggling goroutine from
// this epoch (a released stall, an abandoned cycle) fails its appends
// instead of writing into state the next epoch owns.
func (c *Campaign) teardownEpoch(checkpoint bool) {
	c.sup.mu.Lock()
	st, journal := c.st, c.journal
	c.sys, c.durable, c.st, c.journal, c.breaker = nil, nil, nil, nil, nil
	c.sup.mu.Unlock()
	if journal != nil && checkpoint {
		if err := journal.Checkpoint(); err != nil {
			c.sup.logger.Warn("final checkpoint failed",
				slog.String("campaign", c.spec.ID), slog.Any("err", err))
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			c.sup.logger.Warn("store close",
				slog.String("campaign", c.spec.ID), slog.Any("err", err))
		}
	}
}

// loop is the campaign worker. It runs until supervisor shutdown; an
// archived campaign's worker keeps draining requests with ErrArchived.
func (c *Campaign) loop() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			c.drain(errStopping)
			if s := c.State(); s == StateRunning || s == StatePaused || s == StateRestarting {
				c.teardownEpoch(s != StateRestarting)
			}
			return
		case ctl := <-c.ctl:
			ctl.reply <- c.handleCtl(ctl.op)
		case req := <-c.requests:
			c.handleAssess(req)
		}
	}
}

// errStopping answers requests still queued at shutdown. It is marked
// retryable: shutdown typically precedes a restart or a failover, so a
// well-behaved client resubmits elsewhere.
var errStopping = admission.MarkRetryable(fmt.Errorf("%w: draining queued requests", ErrShutdown))

// drain rejects every queued request so callers return deterministically.
// None of them ran, so their admission tickets are abandoned rather than
// completed: a completion would feed the drain-rate estimate a cycle
// that never happened and shorten the Retry-After hint.
func (c *Campaign) drain(err error) {
	for {
		select {
		case req := <-c.requests:
			req.ticket.Abandon(c.sup.nowd())
			req.reply <- campaignReply{err: err}
		default:
			return
		}
	}
}

// stateErr maps a non-serving state to its sentinel (nil when serving).
func stateErr(s State) error {
	switch s {
	case StatePaused:
		return ErrPaused
	case StateQuarantined:
		return ErrQuarantined
	case StateArchived:
		return ErrArchived
	default:
		return nil
	}
}

// handleCtl executes one lifecycle operation on the worker goroutine,
// so epoch resources are never mutated concurrently with a cycle.
func (c *Campaign) handleCtl(op ctlOp) ctlReply {
	state := c.State()
	switch op {
	case ctlPause:
		if state != StateRunning {
			return ctlReply{err: fmt.Errorf("%w: pause from %s", ErrInvalidTransition, state)}
		}
		c.setState(StatePaused, nil)
		return ctlReply{}
	case ctlResume:
		switch state {
		case StatePaused:
			c.setState(StateRunning, nil)
			return ctlReply{}
		case StateQuarantined:
			// The operator vouches for the campaign: reset the restart
			// budget and rebuild from the last durable state.
			c.sup.mu.Lock()
			c.restarts = 0
			c.sup.mu.Unlock()
			c.backoff.Reset()
			if err := c.buildEpoch(); err != nil {
				c.setState(StateQuarantined, err)
				return ctlReply{err: err}
			}
			c.setState(StateRunning, nil)
			return ctlReply{}
		default:
			return ctlReply{err: fmt.Errorf("%w: resume from %s", ErrInvalidTransition, state)}
		}
	case ctlArchive:
		if state == StateArchived {
			return ctlReply{err: ErrArchived}
		}
		// A final checkpoint only makes sense from a healthy epoch;
		// quarantined state is already fenced on disk.
		c.teardownEpoch(state == StateRunning || state == StatePaused)
		c.setState(StateArchived, nil)
		c.drain(ErrArchived)
		return ctlReply{}
	case ctlSnapshot:
		c.sup.mu.Lock()
		durable := c.durable
		c.sup.mu.Unlock()
		if durable == nil {
			return ctlReply{err: fmt.Errorf("supervise: campaign %s: no durable system to snapshot", c.spec.ID)}
		}
		var buf bytes.Buffer
		if err := durable.SaveState(&buf); err != nil {
			return ctlReply{err: err}
		}
		return ctlReply{state: buf.Bytes()}
	default:
		return ctlReply{err: fmt.Errorf("supervise: unknown control op %d", op)}
	}
}

// handleAssess serves one queued request: a full sensing cycle or,
// on the admission degrade tier, the scheme's AI-only fast path. A
// request that can no longer run — the campaign is stopping or not
// serving, or its caller has gone — is answered without a cycle.
func (c *Campaign) handleAssess(req campaignReq) {
	wait := req.ticket.Dequeued(c.sup.nowd())
	if c.sup.admit != nil {
		c.sup.metrics.Histogram(MetricQueueWait, obs.DefBuckets).Observe(wait.Seconds())
	}
	if err := c.refusal(req); err != nil {
		req.ticket.Abandon(c.sup.nowd())
		req.reply <- campaignReply{err: err}
		return
	}
	res, err := c.serve(req, wait)
	req.ticket.Done(c.sup.nowd(), err == nil)
	if c.sup.admit != nil {
		c.sup.metrics.Gauge(MetricAdmissionLimit).Set(float64(c.sup.admit.Snapshot().Limit))
	}
	// Restart before replying: when the error reaches the caller the
	// campaign is already rebuilt (or quarantined), so an immediate
	// retry lands on a recovered epoch instead of racing the restart.
	if restartable(err) {
		c.restartLoop(err)
	}
	req.reply <- campaignReply{res: res, err: err}
}

// refusal is why a dequeued request must not run (nil when it may).
func (c *Campaign) refusal(req campaignReq) error {
	select {
	case <-c.stop:
		return errStopping
	default:
	}
	if err := stateErr(c.State()); err != nil {
		return err
	}
	if err := req.ctx.Err(); err != nil {
		// The caller vanished while queued; skip the cycle instead of
		// computing a reply nobody reads.
		c.sup.metrics.Counter(MetricRequestsAbandoned).Inc()
		return err
	}
	return nil
}

// serve runs the request's cycle and records its accounting. A degraded
// answer comes from the scheme's AI-only fast path: no crowd round-trip,
// no learning, no committed cycle index, no journal write, so the
// campaign's durable cycle sequence and its replay stay byte-identical
// through a shed burst. A scheme without a fast path runs a full cycle
// instead (work conservation). Panics in either path become errors.
func (c *Campaign) serve(req campaignReq, wait time.Duration) (AssessResult, error) {
	c.sup.mu.Lock()
	cycle := c.nextCycle
	sys := c.sys
	c.sup.mu.Unlock()
	in := core.CycleInput{Index: cycle, Context: req.Context, Images: req.Images}
	if req.ticket != nil {
		in.Attrs = []core.TraceAttr{
			{Key: "campaign", Value: c.spec.ID},
			{Key: "queueWaitMs", Value: wait.Milliseconds()},
		}
		if req.Tag != "" {
			in.Attrs = append(in.Attrs, core.TraceAttr{Key: "tag", Value: req.Tag})
		}
	}
	deg, shed := sys.(core.DegradedAssessor)
	shed = shed && req.degraded
	started := time.Now()
	var (
		out core.CycleOutput
		err error
	)
	if shed {
		out, err = guardPanics("degraded-assess", func() (core.CycleOutput, error) {
			return deg.AssessDegraded(in)
		})
	} else {
		out, err = c.runGuarded(sys, in)
	}
	c.sup.metrics.Histogram(MetricAssessDuration, obs.DefBuckets).Observe(time.Since(started).Seconds())
	if err != nil {
		c.noteError(err)
		return AssessResult{}, err
	}
	res := AssessResult{Campaign: c.spec.ID, Cycle: cycle, Images: req.Images, Output: out, Shed: shed}
	c.note(res, sys)
	return res, nil
}

// restartable reports whether a cycle failure warrants tearing the
// epoch down: recovered panics, watchdog stalls, and cycles whose
// journal append failed (applied in memory but not durable — the
// restart re-runs them from the last durable state). Ordinary cycle
// errors (validation, budget exhaustion surfaced as errors, hard
// platform faults) are returned to the caller without a restart.
func restartable(err error) bool {
	return errors.Is(err, ErrCyclePanicked) ||
		errors.Is(err, ErrCycleStalled) ||
		errors.Is(err, core.ErrCycleNotDurable)
}

// runGuarded executes one cycle in a nested goroutine so a panicking
// or stalled scheme cannot take the worker down with it. The watchdog
// (Options.StallTimeout) and the operator kick channel both abort the
// wait; the abandoned cycle goroutine finishes into a buffered channel
// and its epoch is fenced by the subsequent restart.
func (c *Campaign) runGuarded(sys core.Scheme, in core.CycleInput) (core.CycleOutput, error) {
	type result struct {
		out core.CycleOutput
		err error
	}
	ch := make(chan result, 1)
	// A kick queued while no cycle was in flight aborts this one;
	// that is the documented contract of Kick.
	Go(fmt.Sprintf("campaign.%s.cycle", c.spec.ID), c.sup.logger, func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- result{err: fmt.Errorf("%w: %v", ErrCyclePanicked, p)}
			}
		}()
		out, err := sys.RunCycle(in)
		ch <- result{out, err}
	})
	var watch <-chan time.Time
	if c.sup.stallTimeout > 0 {
		watch = c.sup.after(c.sup.stallTimeout)
	}
	select {
	case r := <-ch:
		return r.out, r.err
	case <-watch:
		return core.CycleOutput{}, fmt.Errorf("%w: cycle %d made no progress within %v",
			ErrCycleStalled, in.Index, c.sup.stallTimeout)
	case kerr := <-c.kick:
		return core.CycleOutput{}, fmt.Errorf("%w: cycle %d: %v", ErrCycleStalled, in.Index, kerr)
	}
}

// note records a served answer's accounting: a committed cycle, or a
// shed answer that commits nothing.
func (c *Campaign) note(res AssessResult, sys core.Scheme) {
	var weights map[string]float64
	var budget *float64
	result := "shed"
	if !res.Shed {
		weights, budget = telemetry(sys)
		result = "ok"
	}
	out := res.Output
	c.sup.mu.Lock()
	c.stats.ImagesAssessed += len(res.Images)
	if res.Shed {
		c.stats.ShedResponses++
	} else {
		c.nextCycle = res.Cycle + 1
		c.stats.CyclesRun++
		c.stats.CrowdQueries += len(out.Queried)
		c.stats.TotalSpent += out.SpentDollars
		c.stats.Requeries += out.Requeries
		c.stats.RefundedDollars += out.RefundedDollars
		if len(out.Degraded) > 0 {
			c.stats.DegradedCycles++
			c.stats.DegradedImages += len(out.Degraded)
		}
		if len(out.Queried) > 0 {
			c.crowdDelay += out.CrowdDelay
			c.delayedCycles++
			c.stats.MeanCrowdDelayS = (c.crowdDelay / time.Duration(c.delayedCycles)).Seconds()
		}
		if weights != nil {
			c.stats.ExpertWeights, c.stats.BudgetRemaining = weights, budget
		}
	}
	c.recent = append(c.recent, res)
	if len(c.recent) > RecentResults {
		c.recent = c.recent[len(c.recent)-RecentResults:]
	}
	c.sup.mu.Unlock()
	c.sup.metrics.Counter(MetricCampaignCycles, "campaign", c.spec.ID, "result", result).Inc()
}

// noteError records a failed request's accounting.
func (c *Campaign) noteError(err error) {
	stalled := errors.Is(err, ErrCycleStalled)
	c.sup.mu.Lock()
	c.stats.CycleErrors++
	if stalled {
		c.stats.Stalls++
	}
	c.sup.mu.Unlock()
	c.sup.metrics.Counter(MetricCampaignCycles, "campaign", c.spec.ID, "result", "error").Inc()
	c.sup.metrics.Counter(MetricAssessErrors).Inc()
	if stalled {
		c.sup.metrics.Counter(MetricCampaignStalls, "campaign", c.spec.ID).Inc()
	}
	if errors.Is(err, ErrCyclePanicked) {
		c.sup.metrics.Counter(MetricPanicsRecovered).Inc()
	}
}

// restartLoop drives the restart policy after a restartable failure:
// back off (seeded, jittered), fence the failed epoch, rebuild and
// recover. Rebuild failures consume further restarts; an exhausted
// budget quarantines the campaign.
func (c *Campaign) restartLoop(cause error) {
	c.setState(StateRestarting, cause)
	for {
		c.sup.mu.Lock()
		exhausted := c.restarts >= c.restart.MaxRestarts
		if !exhausted {
			c.restarts++
			c.total++
		}
		c.sup.mu.Unlock()
		if exhausted {
			c.teardownEpoch(false)
			c.setState(StateQuarantined, cause)
			c.drain(ErrQuarantined)
			c.sup.logger.Error("campaign quarantined: restart budget exhausted",
				slog.String("campaign", c.spec.ID),
				slog.Int("budget", c.restart.MaxRestarts),
				slog.Any("cause", cause))
			return
		}
		c.sup.metrics.Counter(MetricCampaignRestarts, "campaign", c.spec.ID).Inc()
		delay := c.backoff.Next()
		c.sup.logger.Warn("campaign restarting",
			slog.String("campaign", c.spec.ID),
			slog.Int("restart", c.backoff.Attempt()),
			slog.Duration("backoff", delay),
			slog.Any("cause", cause))
		c.sup.sleep(delay)
		c.teardownEpoch(false)
		if err := c.buildEpoch(); err != nil {
			cause = err
			c.sup.logger.Error("campaign rebuild failed",
				slog.String("campaign", c.spec.ID), slog.Any("err", err))
			continue
		}
		c.setState(StateRunning, nil)
		return
	}
}
