package supervise

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/obs"
)

// Options configures a Supervisor.
type Options struct {
	// Logger receives lifecycle and failure events (nil = slog.Default).
	Logger *slog.Logger
	// Metrics receives the labeled campaign/breaker families (nil OK).
	Metrics *obs.Registry
	// Restart is the default restart policy; Spec.Restart overrides per
	// campaign.
	Restart RestartPolicy
	// Breaker is the default breaker config; Spec.Breaker overrides per
	// campaign.
	Breaker BreakerConfig
	// StallTimeout arms a watchdog per sensing cycle: a cycle that has
	// not returned within it is abandoned as ErrCycleStalled and the
	// campaign restarts. 0 disables the watchdog (tests drive stalls
	// deterministically through Kick instead).
	StallTimeout time.Duration
	// QueueDepth bounds each campaign's request queue; a full queue
	// rejects with a retryable ErrBusy. 0 leaves the queue unbounded:
	// callers wait until the worker takes their request.
	QueueDepth int
	// RequestTimeout caps one Assess call end to end, queue wait plus
	// cycle; an expired call fails with context.DeadlineExceeded, and a
	// request whose caller has gone is skipped at dequeue. 0 disables
	// the cap.
	RequestTimeout time.Duration
	// Sleep and After are seams over time.Sleep / time.After so the
	// chaos suite runs restart storms without wall-clock waits.
	Sleep func(time.Duration)
	After func(time.Duration) <-chan time.Time
	// Admission, when non-nil, enables adaptive overload control across
	// the whole fleet: one shared admission.Controller decides every
	// Assess, with fair-share buckets keyed by Request.Tag, or by the
	// campaign ID for an untagged request.
	// Shed requests degrade to the scheme's AI-only fast path
	// (core.DegradedAssessor) or reject with a retryable ErrBusy carrying
	// a drain-rate-derived Retry-After.
	Admission *admission.Config
}

// Supervisor hosts campaigns as isolated failure domains.
type Supervisor struct {
	logger         *slog.Logger
	metrics        *obs.Registry
	restart        RestartPolicy
	brkCfg         BreakerConfig
	stallTimeout   time.Duration
	queueDepth     int
	requestTimeout time.Duration
	sleep          func(time.Duration)
	after          func(time.Duration) <-chan time.Time
	// admit is the fleet-wide overload controller (nil when disabled);
	// epoch anchors the monotonic offsets fed to its clockless API.
	admit *admission.Controller
	epoch time.Time

	mu        sync.Mutex
	campaigns map[string]*Campaign
	shutdown  bool
}

// New builds a Supervisor.
func New(opts Options) *Supervisor {
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	if opts.QueueDepth < 0 {
		opts.QueueDepth = 0
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	if opts.After == nil {
		opts.After = time.After
	}
	registerHelp(opts.Metrics)
	s := &Supervisor{
		logger:         opts.Logger,
		metrics:        opts.Metrics,
		restart:        opts.Restart.withDefaults(),
		brkCfg:         opts.Breaker.withDefaults(),
		stallTimeout:   opts.StallTimeout,
		queueDepth:     opts.QueueDepth,
		requestTimeout: opts.RequestTimeout,
		sleep:          opts.Sleep,
		after:          opts.After,
		epoch:          time.Now(),
		campaigns:      make(map[string]*Campaign),
	}
	if opts.Admission != nil {
		s.admit = admission.NewController(*opts.Admission)
	}
	return s
}

// nowd is the monotonic offset fed to the clockless admission controller.
func (s *Supervisor) nowd() time.Duration { return time.Since(s.epoch) }

// Admission snapshots the fleet-wide overload controller (nil when
// admission control is disabled) for the /stats surface.
func (s *Supervisor) Admission() *admission.Snapshot {
	if s.admit == nil {
		return nil
	}
	snap := s.admit.Snapshot()
	return &snap
}

// seedFor derives a stable per-campaign seed from its ID so campaigns
// created with zero-seeded policies still jitter independently — and
// identically across process restarts.
func seedFor(id string, salt uint64) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return int64((h.Sum64() ^ salt) &^ (1 << 63))
}

// Create registers a campaign, assembles its first epoch synchronously
// (so configuration errors surface to the caller) and starts its
// worker.
func (s *Supervisor) Create(spec Spec) (*Campaign, error) {
	if spec.ID == "" {
		return nil, fmt.Errorf("supervise: campaign id must be non-empty")
	}
	if spec.Build == nil {
		return nil, fmt.Errorf("supervise: campaign %s: Build must be non-nil", spec.ID)
	}
	if spec.StartCycle < 0 {
		return nil, fmt.Errorf("supervise: campaign %s: StartCycle %d must be non-negative", spec.ID, spec.StartCycle)
	}
	restart := s.restart
	if spec.Restart != nil {
		restart = spec.Restart.withDefaults()
	}
	if restart.Seed == 0 {
		restart.Seed = seedFor(spec.ID, 0x9e3779b97f4a7c15)
	}
	brkCfg := s.brkCfg
	if spec.Breaker != nil {
		brkCfg = spec.Breaker.withDefaults()
	}
	if brkCfg.Seed == 0 {
		brkCfg.Seed = seedFor(spec.ID, 0xc2b2ae3d27d4eb4f)
	}
	c := &Campaign{
		spec:     spec,
		sup:      s,
		restart:  restart,
		brkCfg:   brkCfg,
		backoff:  mathx.NewBackoff(restart.Base, restart.Factor, restart.Max, restart.Jitter, restart.Seed),
		requests: make(chan campaignReq, s.queueDepth),
		ctl:      make(chan ctlReq),
		kick:     make(chan error, 1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		state:    StateRunning,
		// A durable campaign's recovery overrides this.
		nextCycle: spec.StartCycle,
	}

	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	if _, ok := s.campaigns[spec.ID]; ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrDuplicateID, spec.ID)
	}
	// Reserve the ID before the (slow) epoch build so concurrent
	// Creates of the same ID cannot race past the check.
	s.campaigns[spec.ID] = c
	s.mu.Unlock()

	if err := c.buildEpoch(); err != nil {
		s.mu.Lock()
		delete(s.campaigns, spec.ID)
		s.mu.Unlock()
		return nil, err
	}
	c.setState(StateRunning, nil)
	Go(fmt.Sprintf("campaign.%s.worker", spec.ID), s.logger, c.loop)
	return c, nil
}

// get looks a campaign up.
func (s *Supervisor) get(id string) (*Campaign, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownCampaign, id)
	}
	return c, nil
}

// Request is one batch of imagery to assess.
type Request struct {
	// Context is the temporal context the batch arrives under.
	Context crowd.TemporalContext
	// Images are the batch's images.
	Images []*imagery.Image
	// Tag is the admission fair-share key: tagged requests share a
	// bucket per tag across the fleet, untagged ones their campaign's.
	// Ignored without Options.Admission.
	Tag string
}

// Assess queues one sensing cycle on a campaign and waits for its
// result. A full bounded queue fails fast with a retryable ErrBusy; a
// paused, quarantined or archived campaign rejects with its state's
// sentinel. With Options.Admission set, the fleet-wide overload
// controller may degrade the cycle to AI-only labels (AssessResult.Shed)
// or reject it with a retryable ErrBusy carrying a drain-rate-derived
// Retry-After. With Options.RequestTimeout set, the whole call is
// bounded by it.
func (s *Supervisor) Assess(ctx context.Context, id string, req Request) (AssessResult, error) {
	c, err := s.get(id)
	if err != nil {
		return AssessResult{}, err
	}
	// Fail fast before queueing: the worker re-checks on dequeue, but a
	// paused campaign's queue would otherwise absorb requests silently.
	if serr := stateErr(c.State()); serr != nil {
		return AssessResult{}, serr
	}
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	cr := campaignReq{Request: req, ctx: ctx, reply: make(chan campaignReply, 1)}
	if s.admit != nil {
		key := req.Tag
		if key == "" {
			key = id
		}
		dec, ticket := s.admit.Decide(s.nowd(), key)
		s.metrics.Counter(MetricAdmissionDecisions, "decision", dec.Outcome.String()).Inc()
		if dec.Outcome == admission.Reject {
			return AssessResult{}, admission.MarkRetryableAfter(
				fmt.Errorf("%w: %s (admission: %s)", ErrBusy, id, dec.Reason), dec.RetryAfter)
		}
		cr.ticket = ticket
		cr.degraded = ticket.Degraded()
	}
	if err := s.enqueue(ctx, c, cr); err != nil {
		cr.ticket.Abandon(s.nowd())
		return AssessResult{}, err
	}
	// Queued: the worker owns the ticket from here. Leaving early on ctx
	// is safe because the worker checks the caller's context on dequeue.
	select {
	case reply := <-cr.reply:
		return reply.res, reply.err
	case <-c.done:
		// Worker gone. Its replies are buffered, so prefer one that
		// raced the close; without one the request was never dequeued.
		select {
		case reply := <-cr.reply:
			return reply.res, reply.err
		default:
			cr.ticket.Abandon(s.nowd())
			return AssessResult{}, admission.MarkRetryable(
				fmt.Errorf("%w: campaign %s worker exited", ErrShutdown, id))
		}
	case <-ctx.Done():
		return AssessResult{}, ctx.Err()
	}
}

// enqueue hands cr to the campaign's worker: at once or a retryable
// ErrBusy with a bounded queue, blocking until the worker takes it
// without one. A request queued as the campaign stops is refused at
// dequeue or drained.
func (s *Supervisor) enqueue(ctx context.Context, c *Campaign, cr campaignReq) error {
	if s.queueDepth > 0 {
		select {
		case c.requests <- cr:
			return nil
		default:
			s.metrics.Counter(MetricQueueRejected).Inc()
			after := time.Second
			if s.admit != nil {
				after = s.admit.RetryAfter(s.nowd())
			}
			return admission.MarkRetryableAfter(fmt.Errorf("%w: %s", ErrBusy, c.spec.ID), after)
		}
	}
	select {
	case c.requests <- cr:
		return nil
	case <-c.done:
		return admission.MarkRetryable(ErrShutdown)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recent returns a campaign's latest answers, newest last (at most
// RecentResults).
func (s *Supervisor) Recent(id string) ([]AssessResult, error) {
	c, err := s.get(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AssessResult(nil), c.recent...), nil
}

// ctl round-trips one lifecycle operation through the campaign worker.
func (s *Supervisor) ctl(id string, op ctlOp) (ctlReply, error) {
	c, err := s.get(id)
	if err != nil {
		return ctlReply{}, err
	}
	req := ctlReq{op: op, reply: make(chan ctlReply, 1)}
	select {
	case c.ctl <- req:
	case <-c.done:
		return ctlReply{}, ErrShutdown
	}
	select {
	case reply := <-req.reply:
		return reply, reply.err
	case <-c.done:
		return ctlReply{}, ErrShutdown
	}
}

// Pause suspends a running campaign; its state stays warm and durable.
func (s *Supervisor) Pause(id string) error {
	_, err := s.ctl(id, ctlPause)
	return err
}

// Resume un-pauses a campaign; resuming a quarantined campaign resets
// its restart budget and rebuilds it from the last durable state.
func (s *Supervisor) Resume(id string) error {
	_, err := s.ctl(id, ctlResume)
	return err
}

// Archive retires a campaign after a final checkpoint. Terminal.
func (s *Supervisor) Archive(id string) error {
	_, err := s.ctl(id, ctlArchive)
	return err
}

// StateBytes serializes a durable campaign's in-memory state — the same
// bytes SaveState would checkpoint — for equivalence assertions.
func (s *Supervisor) StateBytes(id string) ([]byte, error) {
	reply, err := s.ctl(id, ctlSnapshot)
	if err != nil {
		return nil, err
	}
	return reply.state, nil
}

// Kick aborts the campaign's in-flight sensing cycle (or, if none is in
// flight, the next one) as ErrCycleStalled, triggering the restart
// path. It is the operator's — and the chaos suite's — deterministic
// handle on the stalled-cycle failure mode; the wall-clock watchdog
// (Options.StallTimeout) covers production. Non-blocking: a second kick
// while one is pending is a no-op.
func (s *Supervisor) Kick(id, reason string) error {
	c, err := s.get(id)
	if err != nil {
		return err
	}
	select {
	case c.kick <- fmt.Errorf("operator kick: %s", reason):
	default:
	}
	return nil
}

// Health snapshots every campaign, sorted by ID.
func (s *Supervisor) Health() []CampaignHealth {
	s.mu.Lock()
	cs := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].spec.ID < cs[j].spec.ID })
	out := make([]CampaignHealth, len(cs))
	for i, c := range cs {
		out[i] = c.health()
	}
	return out
}

// CampaignHealth snapshots one campaign.
func (s *Supervisor) CampaignHealth(id string) (CampaignHealth, error) {
	c, err := s.get(id)
	if err != nil {
		return CampaignHealth{}, err
	}
	return c.health(), nil
}

// Shutdown stops every campaign worker, letting in-flight cycles finish
// and writing each running campaign's final checkpoint. It returns the
// first context error if ctx expires before the workers drain.
func (s *Supervisor) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	cs := make([]*Campaign, 0, len(s.campaigns))
	for _, c := range s.campaigns {
		cs = append(cs, c)
	}
	s.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].spec.ID < cs[j].spec.ID })
	for _, c := range cs {
		close(c.stop)
	}
	var err error
	for _, c := range cs {
		select {
		case <-c.done:
		case <-ctx.Done():
			if err == nil {
				err = fmt.Errorf("supervise: shutdown: campaign %s still draining: %w", c.spec.ID, ctx.Err())
			}
		}
	}
	return err
}

// breakerTransition implements metricsSink: counts the edge and
// re-emits the one-hot breaker state gauge.
func (s *Supervisor) breakerTransition(campaign string, from, to BreakerState) {
	if from != to {
		s.metrics.Counter(MetricBreakerTransitions,
			"campaign", campaign, "from", from.String(), "to", to.String()).Inc()
	}
	for _, st := range BreakerStates() {
		v := 0.0
		if st == to {
			v = 1
		}
		s.metrics.Gauge(MetricBreakerState, "campaign", campaign, "state", st.String()).Set(v)
	}
}

// breakerRejection implements metricsSink.
func (s *Supervisor) breakerRejection(campaign string) {
	s.metrics.Counter(MetricBreakerRejections, "campaign", campaign).Inc()
}

// breakerProbe implements metricsSink.
func (s *Supervisor) breakerProbe(campaign string, ok bool) {
	result := "fail"
	if ok {
		result = "ok"
	}
	s.metrics.Counter(MetricBreakerProbes, "campaign", campaign, "result", result).Inc()
}
