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
)

// frontDoor is what both HTTP faces share: the image registry request
// IDs resolve against, the route mux behind one accounting and
// panic-recovery middleware, the POST /assess body decoder, and the
// /images and /metrics endpoints.
type frontDoor struct {
	images   map[int]*imagery.Image
	mux      *http.ServeMux
	registry *obs.Registry
	logger   *slog.Logger
}

func newFrontDoor(registry []*imagery.Image) (frontDoor, error) {
	f := frontDoor{images: make(map[int]*imagery.Image, len(registry)), mux: http.NewServeMux()}
	for _, im := range registry {
		if im == nil {
			return frontDoor{}, errors.New("service: nil image in registry")
		}
		f.images[im.ID] = im
	}
	return f, nil
}

// Handler exposes a Service over HTTP/JSON:
//
//	POST /assess   {"context":"morning","imageIds":[1,2,3]} -> Response
//	GET  /stats    -> Stats (includes expert weights + remaining budget)
//	GET  /metrics  -> Prometheus text exposition (when metrics attached)
//	GET  /trace    -> recent cycle span trees as JSON (when tracing attached)
//	GET  /healthz  -> 200 once the service is running
//
// Clients reference images by ID against a registry supplied at
// construction (the test split of the generated dataset, in the shipped
// daemon). In a real deployment the registry would be an ingestion store
// of crawled social-media images.
type Handler struct {
	frontDoor
	svc *Service
}

var _ http.Handler = (*Handler)(nil)

// HTTP-layer metric names, emitted when the service carries a registry.
const (
	// MetricHTTPRequests counts requests by path and status code.
	MetricHTTPRequests = "crowdlearn_http_requests_total"
	// MetricHTTPDuration is a request-latency histogram by path.
	MetricHTTPDuration = "crowdlearn_http_request_duration_seconds"
)

// HandlerOption customises a Handler.
type HandlerOption func(*Handler)

// WithLogger attaches a structured logger; request handling errors
// (status >= 500) are logged at error level, the rest of the request
// stream at debug level.
func WithLogger(l *slog.Logger) HandlerOption {
	return func(h *Handler) { h.logger = l }
}

// NewHandler builds the HTTP facade over svc with the given image
// registry. Metrics and tracing endpoints activate automatically when
// the service was built with WithMetrics / WithTracer.
func NewHandler(svc *Service, registry []*imagery.Image, opts ...HandlerOption) (*Handler, error) {
	if svc == nil {
		return nil, errors.New("service: nil service")
	}
	fd, err := newFrontDoor(registry)
	if err != nil {
		return nil, err
	}
	fd.registry = svc.Registry()
	h := &Handler{frontDoor: fd, svc: svc}
	for _, opt := range opts {
		opt(h)
	}
	h.mux.HandleFunc("/assess", only(http.MethodPost, h.handleAssess))
	h.mux.HandleFunc("/stats", only(http.MethodGet, h.handleStats))
	h.mux.HandleFunc("/metrics", only(http.MethodGet, h.handleMetrics))
	h.mux.HandleFunc("/trace", only(http.MethodGet, h.handleTrace))
	h.mux.HandleFunc("/healthz", h.handleHealth)
	h.mux.HandleFunc("/images", only(http.MethodGet, h.handleImages))
	h.mux.HandleFunc("/", h.handleDashboard)
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
func (f *frontDoor) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	started := time.Now()
	func() {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			f.registry.Counter(MetricPanicsRecovered).Inc()
			if f.logger != nil {
				f.logger.Error("panic in handler", slog.String("path", r.URL.Path), slog.Any("panic", p))
			}
			if !rec.wroteHeader {
				writeJSON(rec, http.StatusInternalServerError, errorBody{Error: "internal error"})
			} else {
				rec.status = http.StatusInternalServerError
			}
		}()
		f.mux.ServeHTTP(rec, r)
	}()
	elapsed := time.Since(started)

	// Label with the registered pattern, not the raw URL, to bound
	// series cardinality (all dashboard paths collapse to "/").
	path := r.URL.Path
	if _, pattern := f.mux.Handler(r); pattern != "" {
		path = pattern
	}
	if f.registry != nil {
		f.registry.Histogram(MetricHTTPDuration, obs.DefBuckets, "path", path).Observe(elapsed.Seconds())
		f.registry.Counter(MetricHTTPRequests, "path", path, "code", strconv.Itoa(rec.status)).Inc()
	}
	if f.logger != nil {
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Duration("elapsed", elapsed),
		}
		if rec.status >= http.StatusInternalServerError {
			f.logger.Error("request failed", attrs...)
		} else {
			f.logger.Debug("request", attrs...)
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
	// Campaign optionally identifies the submitting campaign for the
	// admission controller's fair-share accounting.
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
func (f *frontDoor) decodeAssess(w http.ResponseWriter, r *http.Request) (Request, bool) {
	var body AssessRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid JSON: %v", err)})
		return Request{}, false
	}
	ctx, err := parseContext(body.Context)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return Request{}, false
	}
	if len(body.ImageIDs) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "imageIds must be non-empty"})
		return Request{}, false
	}
	images := make([]*imagery.Image, len(body.ImageIDs))
	for i, id := range body.ImageIDs {
		im, ok := f.images[id]
		if !ok {
			writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("unknown image id %d", id)})
			return Request{}, false
		}
		images[i] = im
	}
	return Request{Context: ctx, Images: images, Campaign: body.Campaign}, true
}

func (h *Handler) handleAssess(w http.ResponseWriter, r *http.Request) {
	req, ok := h.decodeAssess(w, r)
	if !ok {
		return
	}
	resp, err := h.svc.Assess(r.Context(), req)
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrOverloaded) {
		w.Header().Set("Retry-After", retryAfterSeconds(err))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	}
	if errors.Is(err, ErrNotRunning) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.svc.Stats())
}

// handleMetrics serves the Prometheus text exposition of the attached
// registry.
func (f *frontDoor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if f.registry == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "metrics not enabled"})
		return
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	w.WriteHeader(http.StatusOK)
	if err := f.registry.WritePrometheus(w); err != nil && f.logger != nil {
		f.logger.Error("metrics write", slog.Any("err", err))
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
	tr := h.svc.Tracer()
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
func (f *frontDoor) handleImages(w http.ResponseWriter, r *http.Request) {
	ids := make([]int, 0, len(f.images))
	for id := range f.images {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	writeJSON(w, http.StatusOK, map[string]any{"imageIds": ids, "count": len(ids)})
}

func (h *Handler) handleHealth(w http.ResponseWriter, r *http.Request) {
	if !h.svc.started {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "not started"})
		return
	}
	// Degraded is still 200: the service is serving (on AI labels), so
	// load balancers must not eject it — but operators should look.
	body := map[string]any{"status": "ok"}
	if h.svc.Degraded() {
		body["status"] = "degraded"
	}
	if b := h.svc.stats.Build; b != nil {
		body["version"] = b.String()
	}
	if h.svc.checkpointAge != nil {
		if age, ok := h.svc.checkpointAge(); ok {
			body["lastCheckpointAgeSeconds"] = age.Seconds()
		} else {
			body["lastCheckpointAgeSeconds"] = nil
		}
	}
	writeJSON(w, http.StatusOK, body)
}
