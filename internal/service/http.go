package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// Handler exposes a supervise.Supervisor over HTTP/JSON. The
// unprefixed routes serve the supervise.DefaultCampaign and answer 404
// without one:
//
//	POST /assess   {"context":"morning","imageIds":[1,2,3]} -> Response
//	GET  /stats    -> Stats (includes expert weights + remaining budget)
//	GET  /trace    -> recent cycle span trees as JSON (when tracing attached)
//	GET  /healthz  -> 200 while the campaign serves, 503 once quarantined
//	GET  /         -> HTML dashboard
//
// The fleet routes (campaigns.go) serve every campaign, and two routes
// serve the whole process:
//
//	GET  /metrics  -> Prometheus text exposition (when metrics attached)
//	GET  /images   -> the assessable image IDs
//
// Clients reference images by ID against a registry supplied at
// construction (the test split of the generated dataset, in the shipped
// daemon). In a real deployment the registry would be an ingestion store
// of crawled social-media images.
type Handler struct {
	cfg     config
	images  map[int]*imagery.Image
	mux     *http.ServeMux
	sup     *supervise.Supervisor
	factory SpecFactory
}

var _ http.Handler = (*Handler)(nil)

// HTTP-layer metric names, emitted when the handler carries a registry.
const (
	// MetricHTTPRequests counts requests by path and status code.
	MetricHTTPRequests = "crowdlearn_http_requests_total"
	// MetricHTTPDuration is a request-latency histogram by path.
	MetricHTTPDuration = "crowdlearn_http_request_duration_seconds"
)

// NewHandler builds the HTTP face of svc with the given image registry.
// It serves svc's metrics, tracer and checkpoint age; opts add to them.
func NewHandler(svc *Service, registry []*imagery.Image, opts ...Option) (*Handler, error) {
	if svc == nil {
		return nil, errors.New("service: nil service")
	}
	return newHandler(svc.sup, registry, nil, svc.cfg, opts)
}

// NewCampaignHandler builds the HTTP face of sup. The image registry
// resolves request image IDs; factory serves POST /campaigns (nil
// disables creation over the API with 403).
func NewCampaignHandler(sup *supervise.Supervisor, registry []*imagery.Image, factory SpecFactory, opts ...Option) (*Handler, error) {
	if sup == nil {
		return nil, errors.New("service: nil supervisor")
	}
	return newHandler(sup, registry, factory, config{}, opts)
}

func newHandler(sup *supervise.Supervisor, registry []*imagery.Image, factory SpecFactory, cfg config, opts []Option) (*Handler, error) {
	for _, opt := range opts {
		opt(&cfg)
	}
	h := &Handler{cfg: cfg, images: make(map[int]*imagery.Image, len(registry)), mux: http.NewServeMux(), sup: sup, factory: factory}
	for _, im := range registry {
		if im == nil {
			return nil, errors.New("service: nil image in registry")
		}
		h.images[im.ID] = im
	}
	h.mux.HandleFunc("/assess", only(http.MethodPost, func(w http.ResponseWriter, r *http.Request) {
		h.assess(w, r, supervise.DefaultCampaign)
	}))
	h.mux.HandleFunc("/stats", only(http.MethodGet, h.handleStats))
	h.mux.HandleFunc("/metrics", only(http.MethodGet, h.handleMetrics))
	h.mux.HandleFunc("/trace", only(http.MethodGet, h.handleTrace))
	h.mux.HandleFunc("/healthz", h.handleHealth)
	h.mux.HandleFunc("/images", only(http.MethodGet, h.handleImages))
	h.mux.HandleFunc("/", h.handleDashboard)
	h.routeCampaigns()
	return h, nil
}

// only answers 405 with a JSON error to any method but the given one.
func only(method string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: method + " required"})
			return
		}
		next(w, r)
	}
}

// statusRecorder captures the response code for metrics and logging.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.wroteHeader = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wroteHeader = true // implicit 200 on first write
	return r.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler, wrapping the mux with request
// accounting — a per-path latency histogram, a path+code counter,
// structured logs — and panic recovery: a panicking handler answers 500
// instead of tearing down the connection (and, under net/http's default
// behaviour, only that connection: the middleware makes the failure
// observable rather than silent).
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	started := time.Now()
	func() {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			h.cfg.registry.Counter(supervise.MetricPanicsRecovered).Inc()
			if h.cfg.logger != nil {
				h.cfg.logger.Error("panic in handler", slog.String("path", r.URL.Path), slog.Any("panic", p))
			}
			if !rec.wroteHeader {
				writeJSON(rec, http.StatusInternalServerError, errorBody{Error: "internal error"})
			} else {
				rec.status = http.StatusInternalServerError
			}
		}()
		h.mux.ServeHTTP(rec, r)
	}()
	elapsed := time.Since(started)

	// Label with the registered pattern, not the raw URL, to bound
	// series cardinality (all dashboard paths collapse to "/").
	path := r.URL.Path
	if _, pattern := h.mux.Handler(r); pattern != "" {
		path = pattern
	}
	if h.cfg.registry != nil {
		h.cfg.registry.Histogram(MetricHTTPDuration, obs.DefBuckets, "path", path).Observe(elapsed.Seconds())
		h.cfg.registry.Counter(MetricHTTPRequests, "path", path, "code", strconv.Itoa(rec.status)).Inc()
	}
	if h.cfg.logger != nil {
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed),
		}
		switch {
		case rec.status == http.StatusGatewayTimeout:
			// The configured request timeout cut the assessment off:
			// an overload outcome, not a server fault.
			h.cfg.logger.Warn("request timed out", attrs...)
		case rec.status >= http.StatusInternalServerError:
			h.cfg.logger.Error("request failed", attrs...)
		default:
			h.cfg.logger.Debug("request", attrs...)
		}
	}
}

// AssessRequest is the JSON body of POST /assess.
type AssessRequest struct {
	// Context is the temporal context name: "morning", "afternoon",
	// "evening" or "midnight".
	Context string `json:"context"`
	// ImageIDs reference registered images.
	ImageIDs []int `json:"imageIds"`
	// Campaign optionally tags the request for the admission
	// controller's fair-share accounting (supervise.Request.Tag); it
	// does not select the campaign that serves it.
	Campaign string `json:"campaign,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors after the header is written can only be logged by
	// the caller's middleware; the body is best-effort at that point.
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a backpressure error's Retry-After hint as
// whole seconds, rounded up with a floor of 1 — the historical static
// value when no hint is attached.
func retryAfterSeconds(err error) string {
	after, ok := admission.RetryAfterHint(err)
	if !ok || after < time.Second {
		return "1"
	}
	return strconv.Itoa(int((after + time.Second - 1) / time.Second))
}

func parseContext(name string) (crowd.TemporalContext, error) {
	for _, ctx := range crowd.Contexts() {
		if ctx.String() == name {
			return ctx, nil
		}
	}
	return 0, fmt.Errorf("unknown context %q (want morning/afternoon/evening/midnight)", name)
}

// decodeAssess decodes and validates a POST /assess body and resolves
// its image IDs. On failure it has written the 400 or 404 answer and
// returns false.
func (h *Handler) decodeAssess(w http.ResponseWriter, r *http.Request) (supervise.Request, bool) {
	var body AssessRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid JSON: %v", err)})
		return supervise.Request{}, false
	}
	ctx, err := parseContext(body.Context)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return supervise.Request{}, false
	}
	if len(body.ImageIDs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "imageIds must be non-empty"})
		return supervise.Request{}, false
	}
	images := make([]*imagery.Image, len(body.ImageIDs))
	for i, id := range body.ImageIDs {
		im, ok := h.images[id]
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown image id %d", id)})
			return supervise.Request{}, false
		}
		images[i] = im
	}
	return supervise.Request{Context: ctx, Images: images, Tag: body.Campaign}, true
}

// assess serves one POST /assess or /campaigns/{id}/assess on campaign
// id.
func (h *Handler) assess(w http.ResponseWriter, r *http.Request, id string) {
	req, ok := h.decodeAssess(w, r)
	if !ok {
		return
	}
	res, err := h.sup.Assess(r.Context(), id, req)
	if err != nil {
		writeSupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, newResponse(res))
}

// defaultHealth resolves the DefaultCampaign for the unprefixed routes;
// without it, it has answered 404 and returns false.
func (h *Handler) defaultHealth(w http.ResponseWriter) (supervise.CampaignHealth, bool) {
	c, err := h.sup.CampaignHealth(supervise.DefaultCampaign)
	if err != nil {
		writeSupError(w, err)
		return c, false
	}
	return c, true
}

// newStats assembles the GET /stats body for one campaign's health.
func newStats(sup *supervise.Supervisor, c supervise.CampaignHealth, build *prof.BuildInfo) Stats {
	return Stats{CampaignStats: c.Stats, Admission: sup.Admission(), Recovery: c.Recovery, Build: build}
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	if c, ok := h.defaultHealth(w); ok {
		writeJSON(w, http.StatusOK, newStats(h.sup, c, h.cfg.build))
	}
}

// handleMetrics serves the Prometheus text exposition of the attached
// registry.
func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if h.cfg.registry == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "metrics not enabled"})
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	w.WriteHeader(http.StatusOK)
	if err := h.cfg.registry.WritePrometheus(w); err != nil && h.cfg.logger != nil {
		h.cfg.logger.Error("metrics write", slog.Any("err", err))
	}
}

// TraceResponse is the JSON body of GET /trace.
type TraceResponse struct {
	// Traces holds the most recent cycle span trees, newest first.
	Traces []*obs.CycleTrace `json:"traces"`
}

// handleTrace serves the N most recent cycle span trees
// (GET /trace?n=10; n defaults to 10, capped by the tracer's ring).
func (h *Handler) handleTrace(w http.ResponseWriter, r *http.Request) {
	if _, ok := h.defaultHealth(w); !ok {
		return
	}
	tr := h.cfg.tracer
	if tr == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "tracing not enabled"})
		return
	}
	n := 10
	if raw := r.URL.Query().Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed <= 0 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid n %q", raw)})
			return
		}
		n = parsed
	}
	writeJSON(w, http.StatusOK, TraceResponse{Traces: tr.Recent(n)})
}

// handleImages lists the assessable image IDs so clients can discover the
// registry without out-of-band knowledge.
func (h *Handler) handleImages(w http.ResponseWriter, r *http.Request) {
	ids := make([]int, 0, len(h.images))
	for id := range h.images {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	writeJSON(w, http.StatusOK, map[string]any{"imageIds": ids, "count": len(ids)})
}

// handleHealth reports the DefaultCampaign's health: 200 while it
// serves — status "degraded" when a recent answer fell back to AI
// labels, so operators look while load balancers keep it — and 503 once
// it is quarantined.
func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	c, ok := h.defaultHealth(w)
	if !ok {
		return
	}
	recent, err := h.sup.Recent(supervise.DefaultCampaign)
	if err != nil {
		writeSupError(w, err)
		return
	}
	body := map[string]any{"status": "ok"}
	status := http.StatusOK
	switch {
	case c.State == supervise.StateQuarantined.String():
		body["status"], status = c.State, http.StatusServiceUnavailable
	case recentlyDegraded(recent):
		body["status"] = "degraded"
	}
	if b := h.cfg.build; b != nil {
		body["version"] = b.String()
	}
	switch {
	case h.cfg.checkpointAge != nil:
		body["lastCheckpointAgeSeconds"] = nil
		if age, ok := h.cfg.checkpointAge(); ok {
			body["lastCheckpointAgeSeconds"] = age.Seconds()
		}
	case c.Durable:
		body["lastCheckpointAgeSeconds"] = c.LastCheckpointAgeSeconds
	}
	writeJSON(w, status, body)
}

// recentlyDegraded reports whether any recent answer fell back to AI
// labels after crowd failures, or was shed to them: the campaign still
// serves, but its crowd channel is impaired or it is overloaded.
func recentlyDegraded(recent []supervise.AssessResult) bool {
	for _, res := range recent {
		if len(res.Output.Degraded) > 0 {
			return true
		}
	}
	return false
}
