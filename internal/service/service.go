// Package service is the HTTP/JSON face of the supervised campaign
// runtime (internal/supervise) — the deployment shape the paper's DDA
// application actually has, where imagery batches arrive continuously
// and emergency-response consumers read assessments as they are
// produced. One Handler serves every campaign under /campaigns/{id}/...
// and the DefaultCampaign under the unprefixed routes.
//
// Service is a one-campaign supervisor around a scheme its caller has
// already built and recovered: New, Start and Shutdown wrap
// supervise.New, Create and Shutdown for the DefaultCampaign.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/core"
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

// Stats is the GET /stats body: the DefaultCampaign's lifetime
// accounting plus the fleet's admission state.
type Stats struct {
	supervise.CampaignStats
	// Admission is the overload controller's live state; nil when
	// admission control is disabled.
	Admission *admission.Snapshot `json:"admission,omitempty"`
	// Recovery describes the campaign's startup state recovery; nil
	// when it runs without a durable store.
	Recovery *store.RecoveryReport `json:"recovery,omitempty"`
	// Build identifies the serving binary (WithBuildInfo); nil when the
	// daemon did not attach build identity.
	Build *prof.BuildInfo `json:"build,omitempty"`
}

// Service runs a pre-built scheme as the DefaultCampaign of a
// one-campaign supervisor.
type Service struct {
	cfg  config
	sup  *supervise.Supervisor
	spec supervise.Spec
}

// config is what the Options set: the runtime settings New hands the
// supervisor, and the serving-surface settings a Handler reads.
type config struct {
	registry       *obs.Registry
	tracer         *obs.Tracer
	logger         *slog.Logger
	build          *prof.BuildInfo
	checkpointAge  func() (time.Duration, bool)
	queueDepth     int
	requestTimeout time.Duration
	admission      *admission.Config
	startCycle     int
}

// Option customises a Service or a Handler. WithQueueDepth,
// WithRequestTimeout, WithAdmission and WithStartCycle configure the
// runtime and take effect in New only.
type Option func(*config)

// WithMetrics attaches a metrics registry: the runtime records request
// latency histograms and error counters into it, and the HTTP layer
// exposes it at GET /metrics.
func WithMetrics(r *obs.Registry) Option {
	return func(c *config) { c.registry = r }
}

// WithTracer attaches the cycle tracer the HTTP layer serves at
// GET /trace. Point it at the DefaultCampaign scheme's
// core.Config.Tracer so cycle span trees and responses line up.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.tracer = tr }
}

// WithLogger attaches a structured logger; request handling errors
// (status >= 500) are logged at error level, the rest of the request
// stream at debug level.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// WithBuildInfo publishes the binary's build identity in /stats and the
// /healthz body, pairing scraped metrics (crowdlearn_build_info) with
// the JSON surfaces operators actually read during an incident.
func WithBuildInfo(bi prof.BuildInfo) Option {
	return func(c *config) { c.build = &bi }
}

// WithCheckpointAge wires the persistence layer's last-checkpoint age
// into /healthz for a scheme whose store the caller manages; the
// callback reports ok=false until a checkpoint exists.
func WithCheckpointAge(age func() (time.Duration, bool)) Option {
	return func(c *config) { c.checkpointAge = age }
}

// WithQueueDepth bounds the request queue at n: a full queue rejects
// with a retryable supervise.ErrBusy (HTTP 429) instead of blocking.
// The default, 0, keeps callers waiting until the worker takes their
// request.
func WithQueueDepth(n int) Option {
	return func(c *config) { c.queueDepth = n }
}

// WithRequestTimeout caps how long one assessment may take end to end
// (queue wait plus cycle processing); expired requests fail with
// context.DeadlineExceeded. Zero (the default) disables the cap.
func WithRequestTimeout(d time.Duration) Option {
	return func(c *config) { c.requestTimeout = d }
}

// WithAdmission enables adaptive overload control (DESIGN.md §14):
// shed requests degrade to AI-only labels when the scheme implements
// core.DegradedAssessor, and are rejected with a retryable
// supervise.ErrBusy plus a drain-rate-derived Retry-After past the
// hard cap. The zero Config uses production defaults.
func WithAdmission(cfg admission.Config) Option {
	return func(c *config) { c.admission = &cfg }
}

// WithStartCycle sets the index of the first sensing cycle, so a
// service resumed from recovered state continues the cycle sequence
// where the previous process stopped.
func WithStartCycle(n int) Option {
	return func(c *config) { c.startCycle = n }
}

// New wraps a scheme its caller has already built; a core.CrowdLearn
// whose bootstrap training is still deferred runs it in Start. A
// panicking cycle restarts the campaign like any supervised one: after
// the backoff Build hands back the same scheme, the request answers
// supervise.ErrCyclePanicked and the campaign serves on, until the
// restart budget quarantines it. No stall watchdog is armed: abandoning
// a stalled cycle would let the next one run on the same scheme at once.
func New(scheme core.Scheme, opts ...Option) (*Service, error) {
	if scheme == nil {
		return nil, errors.New("service: nil scheme")
	}
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.queueDepth < 0 {
		return nil, fmt.Errorf("service: queue depth %d must be non-negative", cfg.queueDepth)
	}
	if cfg.requestTimeout < 0 {
		return nil, fmt.Errorf("service: request timeout %v must be non-negative", cfg.requestTimeout)
	}
	sup := supervise.New(supervise.Options{
		Logger:         cfg.logger,
		Metrics:        cfg.registry,
		QueueDepth:     cfg.queueDepth,
		RequestTimeout: cfg.requestTimeout,
		Admission:      cfg.admission,
		// Build returns the caller's scheme, whose platform is already
		// assembled, so there is nothing for a breaker to wrap.
		Breaker: supervise.BreakerConfig{Disabled: true},
	})
	spec := supervise.Spec{
		ID:         supervise.DefaultCampaign,
		StartCycle: cfg.startCycle,
		Build:      func(supervise.BuildContext) (core.Scheme, error) { return scheme, nil },
	}
	return &Service{cfg: cfg, sup: sup, spec: spec}, nil
}

// Start creates the campaign and starts its worker. Calling Start
// twice, or after Shutdown, fails.
func (s *Service) Start() error {
	_, err := s.sup.Create(s.spec)
	return err
}

// Shutdown stops the worker and waits for it to exit. The context
// bounds the wait. The in-flight cycle completes; every queued request
// is drained and fails with a retryable supervise.ErrShutdown.
func (s *Service) Shutdown(ctx context.Context) error {
	return s.sup.Shutdown(ctx)
}

// Stats returns a snapshot of lifetime statistics (zero before Start).
func (s *Service) Stats() Stats {
	c, _ := s.sup.CampaignHealth(supervise.DefaultCampaign)
	return newStats(s.sup, c, s.cfg.build)
}

// newResponse renders one answer in the POST /assess JSON shape: a
// committed sensing cycle, or a shed answer from the admission degrade
// tier, whose cycle index is the next uncommitted one. Every assess
// route and the dashboard render through it, so clients parse one shape.
func newResponse(res supervise.AssessResult) Response {
	cycle, images, out, shed := res.Cycle, res.Images, res.Output, res.Shed
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
