// Package service wraps a damage-assessment scheme (CrowdLearn or any
// baseline) as a long-running service: the deployment shape the paper's
// DDA application actually has, where imagery batches arrive continuously
// and emergency-response consumers read assessments as they are produced.
//
// The Service owns a single worker goroutine so sensing cycles execute
// strictly sequentially (the closed loop is stateful: expert weights,
// bandit budget and retraining all carry across cycles). Concurrent
// Assess callers are serialised through a request channel; lifecycle
// follows the Start/Shutdown pattern with no fire-and-forget goroutines.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/store"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// Assessment is one image's final verdict.
type Assessment struct {
	// ImageID identifies the assessed image.
	ImageID int `json:"imageId"`
	// Label is the assigned damage severity.
	Label imagery.Label `json:"label"`
	// LabelName is the human-readable severity.
	LabelName string `json:"labelName"`
	// Confidence is the probability mass behind the label.
	Confidence float64 `json:"confidence"`
	// Source is "crowd" when the label came from crowd offloading and
	// "ai" otherwise.
	Source string `json:"source"`
}

// Request is one batch of imagery to assess.
type Request struct {
	// Context is the temporal context the batch arrives under.
	Context crowd.TemporalContext
	// Images are the batch's images.
	Images []*imagery.Image
	// Campaign identifies the submitting campaign for the admission
	// controller's fair-share accounting ("" shares a default bucket).
	// Ignored without WithAdmission.
	Campaign string
}

// Response is the outcome of one sensing cycle.
type Response struct {
	// CycleIndex is the service-assigned sequential cycle number.
	CycleIndex int `json:"cycleIndex"`
	// Assessments holds one verdict per input image, in input order.
	Assessments []Assessment `json:"assessments"`
	// AlgorithmDelaySeconds is the simulated compute time.
	AlgorithmDelaySeconds float64 `json:"algorithmDelaySeconds"`
	// CrowdDelaySeconds is the crowd completion delay (0 if no queries).
	CrowdDelaySeconds float64 `json:"crowdDelaySeconds"`
	// SpentDollars is the cycle's crowdsourcing spend (net of refunds).
	SpentDollars float64 `json:"spentDollars"`
	// QueriedImageIDs lists images that were sent to the crowd.
	QueriedImageIDs []int `json:"queriedImageIds"`
	// DegradedImageIDs lists images whose crowd query expired unanswered
	// and fell back to the AI label (recovery-enabled schemes only).
	DegradedImageIDs []int `json:"degradedImageIds,omitempty"`
	// Requeries counts HIT reposts the recovery policy performed.
	Requeries int `json:"requeries,omitempty"`
	// RefundedDollars is the incentive money refunded this cycle.
	RefundedDollars float64 `json:"refundedDollars,omitempty"`
	// Shed marks a response served on the admission controller's degrade
	// tier: AI-only labels, no crowd round-trip, no committed sensing
	// cycle (CycleIndex repeats the next uncommitted index).
	Shed bool `json:"shed,omitempty"`
}

// Stats summarises the service's lifetime activity.
type Stats struct {
	CyclesRun       int     `json:"cyclesRun"`
	ImagesAssessed  int     `json:"imagesAssessed"`
	CrowdQueries    int     `json:"crowdQueries"`
	TotalSpent      float64 `json:"totalSpentDollars"`
	MeanCrowdDelayS float64 `json:"meanCrowdDelaySeconds"`
	// DegradedCycles counts cycles in which at least one image fell back
	// to its AI label after crowd failures.
	DegradedCycles int `json:"degradedCycles"`
	// DegradedImages counts images that fell back to AI labels.
	DegradedImages int `json:"degradedImages"`
	// Requeries counts HIT reposts across all cycles.
	Requeries int `json:"crowdRequeries"`
	// RefundedDollars totals refunds for unanswered posts.
	RefundedDollars float64 `json:"refundedDollars"`
	// BudgetRemaining is the IPD policy's unspent budget in dollars; nil
	// when the scheme does not expose budget telemetry.
	BudgetRemaining *float64 `json:"budgetRemainingDollars,omitempty"`
	// ExpertWeights maps committee expert names to their current weights;
	// nil when the scheme does not expose them.
	ExpertWeights map[string]float64 `json:"expertWeights,omitempty"`
	// ShedResponses counts requests served on the admission degrade tier
	// (AI-only labels instead of a full sensing cycle).
	ShedResponses int `json:"shedResponses,omitempty"`
	// Admission is the overload controller's live state (WithAdmission);
	// nil when admission control is disabled.
	Admission *admission.Snapshot `json:"admission,omitempty"`
	// Recovery describes the startup state recovery (WithRecovery);
	// nil when the service runs without a durable store.
	Recovery *store.RecoveryReport `json:"recovery,omitempty"`
	// Build identifies the serving binary (WithBuildInfo); nil when the
	// daemon did not attach build identity.
	Build *prof.BuildInfo `json:"build,omitempty"`
}

// Observable is the optional telemetry surface a scheme may implement
// (core.CrowdLearn does). The service snapshots it on the worker
// goroutine after every cycle, so implementations need no internal
// locking against concurrent RunCycle calls.
type Observable interface {
	ExpertWeights() map[string]float64
	RemainingBudget() float64
}

// Service runs a scheme as a sequential assessment worker.
type Service struct {
	scheme     core.Scheme
	observable Observable // scheme's telemetry surface, nil if absent
	registry   *obs.Registry
	tracer     *obs.Tracer

	// admit, when non-nil, is the adaptive overload controller every
	// Assess call consults before enqueueing (WithAdmission). degrader is
	// the scheme's AI-only fast path for the Degrade tier (nil when the
	// scheme offers none — degrade-tier requests then run full cycles).
	// epoch anchors the monotonic offsets fed to the clockless controller.
	admit    *admission.Controller
	admitCfg *admission.Config
	degrader core.DegradedAssessor
	epoch    time.Time

	requests       chan assessRequest
	stop           chan struct{}
	done           chan struct{}
	queueDepth     int
	requestTimeout time.Duration

	startOnce sync.Once
	stopOnce  sync.Once
	started   bool

	mu         sync.Mutex
	nextCycle  int
	stats      Stats
	delayTotal time.Duration
	delayed    int
	recent     []Response

	// checkpointAge, when non-nil, lets /healthz report the time since
	// the persistence layer's last checkpoint (WithCheckpointAge).
	checkpointAge func() (time.Duration, bool)
}

// recentCapacity bounds the in-memory response history used by the
// dashboard.
const recentCapacity = 20

type assessRequest struct {
	req   Request
	reply chan assessReply
	// ctx is the caller's context; the worker checks it after dequeue so
	// a request whose caller vanished while queued is abandoned instead
	// of burning a sensing cycle on a reply nobody reads.
	ctx context.Context
	// ticket tracks the request through the admission controller (nil
	// without WithAdmission). Once enqueued the worker owns its
	// Done/Abandon; on failed enqueues the Assess caller abandons it.
	ticket *admission.Ticket
	// degraded routes the request to the scheme's AI-only fast path.
	degraded bool
}

type assessReply struct {
	resp Response
	err  error
}

// ErrNotRunning is returned by Assess before Start or after Shutdown.
var ErrNotRunning = errors.New("service: not running")

// ErrQueueFull is returned by Assess when the service was built with
// WithQueueDepth and the bounded queue is at capacity — the backpressure
// signal the HTTP layer maps to 429 with a Retry-After header.
var ErrQueueFull = errors.New("service: request queue full")

// ErrOverloaded is returned by Assess when the admission controller
// sheds the request outright (WithAdmission, Reject tier). The error is
// marked retryable and carries a Retry-After hint derived from the
// measured drain rate; the HTTP layer maps it to 429.
var ErrOverloaded = errors.New("service: overloaded, shedding load")

// Metric names emitted by the assessment worker when a registry is
// attached with WithMetrics.
const (
	// MetricAssessDuration is a histogram of wall-clock sensing-cycle
	// processing time in seconds.
	MetricAssessDuration = "crowdlearn_assess_duration_seconds"
	// MetricAssessErrors counts failed assessment requests.
	MetricAssessErrors = "crowdlearn_assess_errors_total"
	// MetricQueueRejected counts requests rejected by backpressure.
	MetricQueueRejected = "crowdlearn_queue_rejected_total"
	// MetricPanicsRecovered counts panics recovered from sensing cycles
	// and HTTP handlers.
	MetricPanicsRecovered = "crowdlearn_panics_recovered_total"
	// MetricAdmissionDecisions counts admission ladder outcomes, labeled
	// decision=admit|degrade|reject.
	MetricAdmissionDecisions = "crowdlearn_admission_decisions_total"
	// MetricRequestsAbandoned counts dequeued requests whose caller's
	// context had already expired, skipped without running a cycle.
	MetricRequestsAbandoned = "crowdlearn_requests_abandoned_total"
	// MetricAdmissionLimit gauges the AIMD loop's current adaptive
	// concurrency limit.
	MetricAdmissionLimit = "crowdlearn_admission_limit"
	// MetricQueueWait is a histogram of request queue wait in seconds —
	// the signal the CoDel admission detector steers on.
	MetricQueueWait = "crowdlearn_queue_wait_seconds"
)

// Option customises a Service.
type Option func(*Service)

// WithMetrics attaches a metrics registry: the worker records
// per-request latency histograms and error counters into it, and the
// HTTP layer exposes it at GET /metrics.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Service) { s.registry = r }
}

// WithTracer attaches the cycle tracer the HTTP layer serves at
// GET /trace. Point it at the same tracer as the scheme's
// core.Config.Tracer so cycle span trees and responses line up.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Service) { s.tracer = tr }
}

// WithQueueDepth bounds the request queue at n and makes Assess reject
// with ErrQueueFull instead of blocking when it is at capacity. The
// default (unset, or n <= 0) keeps the original unbounded-blocking
// behaviour: callers wait until the worker accepts their request.
func WithQueueDepth(n int) Option {
	return func(s *Service) { s.queueDepth = n }
}

// WithRequestTimeout caps how long one Assess call may take end to end
// (queue wait plus cycle processing); expired requests fail with
// context.DeadlineExceeded. Zero (the default) disables the cap.
func WithRequestTimeout(d time.Duration) Option {
	return func(s *Service) { s.requestTimeout = d }
}

// WithAdmission enables adaptive overload control: every Assess call
// consults an admission.Controller that targets queue delay
// (CoDel-style), adapts the concurrency limit to observed latency
// (AIMD), and enforces per-campaign fair shares while shedding. Shed
// requests degrade to AI-only labels when the scheme implements
// core.DegradedAssessor, and are rejected with ErrOverloaded plus a
// drain-rate-derived Retry-After past the hard cap. The zero Config
// uses production defaults.
func WithAdmission(cfg admission.Config) Option {
	return func(s *Service) {
		c := cfg
		s.admitCfg = &c
	}
}

// WithStartCycle sets the index of the first sensing cycle, so a
// service resumed from recovered state continues the cycle sequence
// (and the bandit's round pacing) where the previous process stopped.
func WithStartCycle(n int) Option {
	return func(s *Service) {
		if n > 0 {
			s.nextCycle = n
		}
	}
}

// WithRecovery publishes the startup recovery outcome in /stats.
func WithRecovery(rs *store.RecoveryReport) Option {
	return func(s *Service) { s.stats.Recovery = rs }
}

// WithBuildInfo publishes the binary's build identity in /stats and the
// /healthz body, pairing scraped metrics (crowdlearn_build_info) with
// the JSON surfaces operators actually read during an incident.
func WithBuildInfo(bi prof.BuildInfo) Option {
	return func(s *Service) { s.stats.Build = &bi }
}

// WithCheckpointAge wires the persistence layer's last-checkpoint age
// into /healthz; the callback reports ok=false until a checkpoint
// exists.
func WithCheckpointAge(age func() (time.Duration, bool)) Option {
	return func(s *Service) { s.checkpointAge = age }
}

// New wraps a scheme. The scheme must already be bootstrapped; a
// core.CrowdLearn whose training is still deferred runs it here, when
// New reads its weights and budget.
func New(scheme core.Scheme, opts ...Option) (*Service, error) {
	if scheme == nil {
		return nil, errors.New("service: nil scheme")
	}
	s := &Service{
		scheme: scheme,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		epoch:  time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.admitCfg != nil {
		s.admit = admission.NewController(*s.admitCfg)
		if d, ok := scheme.(core.DegradedAssessor); ok {
			s.degrader = d
		}
	}
	if s.queueDepth < 0 {
		return nil, fmt.Errorf("service: queue depth %d must be non-negative", s.queueDepth)
	}
	if s.requestTimeout < 0 {
		return nil, fmt.Errorf("service: request timeout %v must be non-negative", s.requestTimeout)
	}
	s.requests = make(chan assessRequest, s.queueDepth)
	if o, ok := scheme.(Observable); ok {
		s.observable = o
		// Seed the pre-first-cycle snapshot so /stats shows the
		// bootstrapped weights and full budget immediately.
		s.stats.ExpertWeights = o.ExpertWeights()
		budget := o.RemainingBudget()
		s.stats.BudgetRemaining = &budget
	}
	if s.registry != nil {
		s.registry.Help(MetricAssessDuration, "Wall-clock sensing-cycle processing time in seconds.")
		s.registry.Help(MetricAssessErrors, "Assessment requests that failed.")
		s.registry.Help(MetricQueueRejected, "Assessment requests rejected by backpressure.")
		s.registry.Help(MetricPanicsRecovered, "Panics recovered from cycles and HTTP handlers.")
		s.registry.Help(MetricRequestsAbandoned, "Dequeued requests skipped because their caller's context had expired.")
		if s.admit != nil {
			s.registry.Help(MetricAdmissionDecisions, "Admission ladder outcomes by decision (admit/degrade/reject).")
			s.registry.Help(MetricAdmissionLimit, "Current AIMD adaptive concurrency limit.")
			s.registry.Help(MetricQueueWait, "Request queue wait in seconds (the CoDel admission signal).")
		}
	}
	return s, nil
}

// now is the monotonic offset since service construction — the time
// value fed to the clockless admission controller.
func (s *Service) now() time.Duration { return time.Since(s.epoch) }

// Registry returns the attached metrics registry (nil when disabled).
func (s *Service) Registry() *obs.Registry { return s.registry }

// Tracer returns the attached cycle tracer (nil when disabled).
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Start launches the worker goroutine. Calling Start twice is a no-op.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.started = true
		// run() installs its own recovery; supervise.Go only names the
		// goroutine and catches what the worker's own recover misses.
		supervise.Go("service.worker", nil, s.run)
	})
}

// Shutdown signals the worker to stop and waits for it to exit. The
// context bounds the wait. The in-flight cycle completes; every queued
// request is drained and deterministically fails with ErrNotRunning.
func (s *Service) Shutdown(ctx context.Context) error {
	if !s.started {
		return nil
	}
	s.stopOnce.Do(func() { close(s.stop) })
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// run is the worker loop.
func (s *Service) run() {
	defer close(s.done)
	for {
		select {
		case <-s.stop:
			s.drain()
			return
		case req := <-s.requests:
			wait := req.ticket.Dequeued(s.now())
			if s.admit != nil {
				s.registry.Histogram(MetricQueueWait, obs.DefBuckets).Observe(wait.Seconds())
			}
			if req.ctx != nil && req.ctx.Err() != nil {
				// The caller vanished while queued; skip the cycle
				// instead of computing a reply nobody reads.
				s.registry.Counter(MetricRequestsAbandoned).Inc()
				req.ticket.Abandon(s.now())
				req.reply <- assessReply{err: req.ctx.Err()}
				continue
			}
			resp, err := s.process(req, wait)
			req.ticket.Done(s.now(), err == nil)
			if s.admit != nil {
				s.registry.Gauge(MetricAdmissionLimit).Set(float64(s.admit.Snapshot().Limit))
			}
			req.reply <- assessReply{resp: resp, err: err}
		}
	}
}

// drain rejects every request still queued at shutdown so their Assess
// callers return deterministically instead of waiting on a dead worker.
// The error is marked retryable: shutdown typically precedes a restart
// or a failover, so a well-behaved client resubmits elsewhere. Requests
// that race their enqueue past the closed stop channel are caught by
// Assess's done-guard instead.
func (s *Service) drain() {
	for {
		select {
		case req := <-s.requests:
			req.ticket.Abandon(s.now())
			req.reply <- assessReply{err: admission.MarkRetryable(
				fmt.Errorf("service: draining at shutdown: %w", ErrNotRunning))}
		default:
			return
		}
	}
}

// Assess submits a batch and waits for its assessment. Safe for
// concurrent use; batches are processed strictly in arrival order. With
// WithQueueDepth set, a full queue rejects immediately with ErrQueueFull;
// with WithRequestTimeout set, the whole call is bounded by that timeout.
// With WithAdmission set, the overload controller may degrade the
// request to AI-only labels (Response.Shed) or reject it with a
// retryable ErrOverloaded carrying a Retry-After hint.
func (s *Service) Assess(ctx context.Context, req Request) (Response, error) {
	if !s.started {
		return Response{}, ErrNotRunning
	}
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	ar := assessRequest{req: req, ctx: ctx, reply: make(chan assessReply, 1)}
	if s.admit != nil {
		dec, ticket := s.admit.Decide(s.now(), req.Campaign)
		s.registry.Counter(MetricAdmissionDecisions, "decision", dec.Outcome.String()).Inc()
		if dec.Outcome == admission.Reject {
			return Response{}, admission.MarkRetryableAfter(
				fmt.Errorf("%w (%s)", ErrOverloaded, dec.Reason), dec.RetryAfter)
		}
		ar.ticket = ticket
		// Degrade only routes to the fast path when the scheme has one;
		// otherwise the tier collapses to Admit (work conservation).
		ar.degraded = ticket.Degraded() && s.degrader != nil
	}
	if s.queueDepth > 0 {
		select {
		case s.requests <- ar:
		case <-s.stop:
			ar.ticket.Abandon(s.now())
			return Response{}, admission.MarkRetryable(ErrNotRunning)
		case <-ctx.Done():
			ar.ticket.Abandon(s.now())
			return Response{}, ctx.Err()
		default:
			s.registry.Counter(MetricQueueRejected).Inc()
			ar.ticket.Abandon(s.now())
			return Response{}, s.markQueueFull()
		}
	} else {
		select {
		case s.requests <- ar:
		case <-s.stop:
			ar.ticket.Abandon(s.now())
			return Response{}, admission.MarkRetryable(ErrNotRunning)
		case <-ctx.Done():
			ar.ticket.Abandon(s.now())
			return Response{}, ctx.Err()
		}
	}
	// Enqueued: the worker owns the ticket from here (Dequeued plus
	// Done/Abandon); leaving early on ctx or done is safe because the
	// worker checks req.ctx after dequeue and drain() covers shutdown.
	select {
	case rep := <-ar.reply:
		return rep.resp, rep.err
	case <-s.done:
		// The worker exited. It may have replied (or drained us) in the
		// same instant, so prefer a waiting reply over ErrNotRunning.
		select {
		case rep := <-ar.reply:
			return rep.resp, rep.err
		default:
			ar.ticket.Abandon(s.now())
			return Response{}, admission.MarkRetryable(ErrNotRunning)
		}
	case <-ctx.Done():
		return Response{}, ctx.Err()
	}
}

// markQueueFull wraps ErrQueueFull as retryable with the best available
// Retry-After: the admission controller's backlog-drain estimate, or
// the historical static 1s without one.
func (s *Service) markQueueFull() error {
	after := time.Second
	if s.admit != nil {
		after = s.admit.RetryAfter(s.now())
	}
	return admission.MarkRetryableAfter(ErrQueueFull, after)
}

// cycleAttrs labels the cycle trace with the serving-layer context an
// admission-controlled request carries: its queue wait and campaign.
func cycleAttrs(req Request, wait time.Duration) []core.TraceAttr {
	attrs := []core.TraceAttr{{Key: "queueWaitMs", Value: wait.Milliseconds()}}
	if req.Campaign != "" {
		attrs = append(attrs, core.TraceAttr{Key: "campaign", Value: req.Campaign})
	}
	return attrs
}

// process serves one request on the worker goroutine: a full sensing
// cycle, or for a degrade-tier request the scheme's AI-only fast path
// (core.DegradedAssessor) — no crowd round-trip, no learning, and no
// committed cycle: the shed answer repeats the next uncommitted cycle
// index without consuming it, mutates no scheme state and writes no
// journal, so a degraded burst leaves the durable cycle sequence and
// its replay byte-identical. A panicking scheme is recovered into an
// error so one poisoned cycle cannot kill the worker and wedge every
// future request.
func (s *Service) process(ar assessRequest, wait time.Duration) (resp Response, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.registry.Counter(MetricPanicsRecovered).Inc()
			s.registry.Counter(MetricAssessErrors).Inc()
			stage := "sensing cycle"
			if ar.degraded {
				stage = "degraded assessment"
			}
			resp, err = Response{}, fmt.Errorf("service: recovered panic in %s: %v", stage, r)
		}
	}()
	req := ar.req
	s.mu.Lock()
	cycle := s.nextCycle
	s.mu.Unlock()

	in := core.CycleInput{
		Index:   cycle,
		Context: req.Context,
		Images:  req.Images,
	}
	started := time.Now()
	var out core.CycleOutput
	if ar.degraded {
		out, err = s.degrader.AssessDegraded(in)
	} else {
		if s.admit != nil {
			in.Attrs = cycleAttrs(req, wait)
		}
		out, err = s.scheme.RunCycle(in)
	}
	s.registry.Histogram(MetricAssessDuration, obs.DefBuckets).Observe(time.Since(started).Seconds())
	if err != nil {
		s.registry.Counter(MetricAssessErrors).Inc()
		return Response{}, err
	}
	resp = newResponse(cycle, req.Images, out, ar.degraded)

	s.mu.Lock()
	s.stats.ImagesAssessed += len(req.Images)
	if ar.degraded {
		s.stats.ShedResponses++
	} else {
		s.noteCycle(out)
	}
	s.recent = append(s.recent, resp)
	if len(s.recent) > recentCapacity {
		s.recent = s.recent[len(s.recent)-recentCapacity:]
	}
	s.mu.Unlock()
	return resp, nil
}

// noteCycle records a committed cycle's accounting. Callers hold s.mu.
func (s *Service) noteCycle(out core.CycleOutput) {
	s.nextCycle++
	s.stats.CyclesRun++
	s.stats.CrowdQueries += len(out.Queried)
	s.stats.TotalSpent += out.SpentDollars
	s.stats.Requeries += out.Requeries
	s.stats.RefundedDollars += out.RefundedDollars
	if len(out.Degraded) > 0 {
		s.stats.DegradedCycles++
		s.stats.DegradedImages += len(out.Degraded)
	}
	if len(out.Queried) > 0 {
		s.delayTotal += out.CrowdDelay
		s.delayed++
	}
	if s.delayed > 0 {
		s.stats.MeanCrowdDelayS = (s.delayTotal / time.Duration(s.delayed)).Seconds()
	}
	if s.observable != nil {
		// Fresh map per snapshot: previously returned Stats copies stay
		// valid and race-free.
		s.stats.ExpertWeights = s.observable.ExpertWeights()
		budget := s.observable.RemainingBudget()
		s.stats.BudgetRemaining = &budget
	}
}

// newResponse renders one assessment in the POST /assess JSON shape:
// a committed sensing cycle, or with shed set an answer from the
// admission degrade tier, whose cycle index is the next uncommitted one.
// images are the request's images, in input order. Both HTTP faces and
// the shed tier answer through it, so clients parse one shape.
func newResponse(cycle int, images []*imagery.Image, out core.CycleOutput, shed bool) Response {
	resp := Response{
		CycleIndex:            cycle,
		Assessments:           make([]Assessment, len(images)),
		AlgorithmDelaySeconds: out.AlgorithmDelay.Seconds(),
		CrowdDelaySeconds:     out.CrowdDelay.Seconds(),
		SpentDollars:          out.SpentDollars,
		QueriedImageIDs:       imageIDsAt(images, out.Queried),
		Requeries:             out.Requeries,
		RefundedDollars:       out.RefundedDollars,
		Shed:                  shed,
	}
	if len(out.Degraded) > 0 {
		resp.DegradedImageIDs = imageIDsAt(images, out.Degraded)
	}
	labels := out.Labels()
	for i, im := range images {
		resp.Assessments[i] = Assessment{
			ImageID:    im.ID,
			Label:      labels[i],
			LabelName:  labels[i].String(),
			Confidence: out.Distributions[i][labels[i]],
			Source:     "ai",
		}
	}
	for _, idx := range out.Queried {
		resp.Assessments[idx].Source = "crowd"
	}
	return resp
}

// imageIDsAt maps positions in images to image IDs; never nil, so an
// empty list renders as [].
func imageIDsAt(images []*imagery.Image, at []int) []int {
	ids := make([]int, len(at))
	for i, idx := range at {
		ids[i] = images[idx].ID
	}
	return ids
}

// Degraded reports whether any response in the recent window fell back
// to AI labels after crowd failures — the service is still serving, but
// its crowd channel is impaired. Surfaced as status "degraded" (HTTP 200)
// on /healthz.
func (s *Service) Degraded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recent {
		if len(r.DegradedImageIDs) > 0 {
			return true
		}
	}
	return false
}

// Recent returns the most recent responses, newest last (bounded copy).
func (s *Service) Recent() []Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Response, len(s.recent))
	copy(out, s.recent)
	return out
}

// Stats returns a snapshot of lifetime statistics.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	if s.admit != nil {
		snap := s.admit.Snapshot()
		st.Admission = &snap
	}
	return st
}
