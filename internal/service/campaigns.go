package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// SpecFactory assembles the supervise.Spec for a campaign created over
// the API. The daemon supplies it so campaign creation reuses the
// process's shared laboratory (dataset, pilot crowd) while the HTTP
// layer stays ignorant of scheme assembly.
type SpecFactory func(id string) (supervise.Spec, error)

// CampaignHandler exposes a supervise.Supervisor over HTTP/JSON — the
// multi-campaign face of the daemon, one failure domain per disaster
// campaign:
//
//	POST /campaigns                     {"id":"hurricane-x"} -> health
//	GET  /campaigns                     -> {"campaigns":[health...]}
//	GET  /campaigns/{id}                -> health
//	POST /campaigns/{id}/assess         {"context":"morning","imageIds":[...]} -> Response
//	POST /campaigns/{id}/pause          -> health
//	POST /campaigns/{id}/resume         -> health (resets a quarantine)
//	POST /campaigns/{id}/archive        -> health (terminal)
//	GET  /healthz                       -> 200 while no campaign is quarantined
//	GET  /stats                         -> {"campaigns":[health...]}
//	GET  /metrics                       -> Prometheus text exposition
//
// Supervision sentinels map onto transport codes: a full queue is 429
// with Retry-After, lifecycle-state rejections (paused, quarantined,
// archived, invalid transitions, duplicate IDs) are 409, unknown
// campaigns 404, and shutdown 503.
type CampaignHandler struct {
	frontDoor
	sup     *supervise.Supervisor
	factory SpecFactory
}

var _ http.Handler = (*CampaignHandler)(nil)

// CampaignHandlerOption customises a CampaignHandler.
type CampaignHandlerOption func(*CampaignHandler)

// WithCampaignLogger attaches a structured logger.
func WithCampaignLogger(l *slog.Logger) CampaignHandlerOption {
	return func(h *CampaignHandler) { h.logger = l }
}

// WithCampaignMetrics attaches the registry served at GET /metrics —
// normally the same one the supervisor's labeled families land in.
func WithCampaignMetrics(r *obs.Registry) CampaignHandlerOption {
	return func(h *CampaignHandler) { h.registry = r }
}

// NewCampaignHandler builds the HTTP facade over sup. The image
// registry resolves request image IDs; factory serves POST /campaigns
// (nil disables creation over the API with 403).
func NewCampaignHandler(sup *supervise.Supervisor, registry []*imagery.Image, factory SpecFactory, opts ...CampaignHandlerOption) (*CampaignHandler, error) {
	if sup == nil {
		return nil, errors.New("service: nil supervisor")
	}
	fd, err := newFrontDoor(registry)
	if err != nil {
		return nil, err
	}
	h := &CampaignHandler{frontDoor: fd, sup: sup, factory: factory}
	for _, opt := range opts {
		opt(h)
	}
	h.mux.HandleFunc("POST /campaigns", h.handleCreate)
	h.mux.HandleFunc("GET /campaigns", h.handleList)
	h.mux.HandleFunc("GET /campaigns/{id}", h.handleGet)
	h.mux.HandleFunc("POST /campaigns/{id}/assess", h.handleCampaignAssess)
	h.mux.HandleFunc("POST /campaigns/{id}/pause", h.handleLifecycle(sup.Pause))
	h.mux.HandleFunc("POST /campaigns/{id}/resume", h.handleLifecycle(sup.Resume))
	h.mux.HandleFunc("POST /campaigns/{id}/archive", h.handleLifecycle(sup.Archive))
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /stats", h.handleStats)
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /images", h.handleImages)
	return h, nil
}

// writeSupError maps supervision sentinels to transport codes.
func writeSupError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, supervise.ErrUnknownCampaign):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
	case errors.Is(err, supervise.ErrBusy):
		// Dynamic Retry-After: the admission controller's backlog-drain
		// estimate rides the error as a hint ("1" without one).
		w.Header().Set("Retry-After", retryAfterSeconds(err))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, supervise.ErrPaused),
		errors.Is(err, supervise.ErrQuarantined),
		errors.Is(err, supervise.ErrArchived),
		errors.Is(err, supervise.ErrInvalidTransition),
		errors.Is(err, supervise.ErrDuplicateID):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
	case errors.Is(err, supervise.ErrShutdown):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// CreateCampaignRequest is the JSON body of POST /campaigns.
type CreateCampaignRequest struct {
	ID string `json:"id"`
}

func (h *CampaignHandler) handleCreate(w http.ResponseWriter, r *http.Request) {
	if h.factory == nil {
		writeJSON(w, http.StatusForbidden, errorBody{Error: "campaign creation over the API is disabled"})
		return
	}
	var req CreateCampaignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid JSON: %v", err)})
		return
	}
	if req.ID == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "id must be non-empty"})
		return
	}
	spec, err := h.factory(req.ID)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	if _, err := h.sup.Create(spec); err != nil {
		writeSupError(w, err)
		return
	}
	health, err := h.sup.CampaignHealth(req.ID)
	if err != nil {
		writeSupError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, health)
}

// CampaignListResponse is the JSON body of GET /campaigns and /stats.
type CampaignListResponse struct {
	Campaigns []supervise.CampaignHealth `json:"campaigns"`
	// Admission is the fleet overload controller's live state; nil when
	// admission control is disabled.
	Admission *admission.Snapshot `json:"admission,omitempty"`
}

func (h *CampaignHandler) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CampaignListResponse{Campaigns: h.sup.Health()})
}

func (h *CampaignHandler) handleGet(w http.ResponseWriter, r *http.Request) {
	health, err := h.sup.CampaignHealth(r.PathValue("id"))
	if err != nil {
		writeSupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, health)
}

func (h *CampaignHandler) handleLifecycle(op func(string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := op(id); err != nil {
			writeSupError(w, err)
			return
		}
		health, err := h.sup.CampaignHealth(id)
		if err != nil {
			writeSupError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, health)
	}
}

func (h *CampaignHandler) handleCampaignAssess(w http.ResponseWriter, r *http.Request) {
	req, ok := h.decodeAssess(w, r)
	if !ok {
		return
	}
	res, err := h.sup.Assess(r.Context(), r.PathValue("id"), req.Context, req.Images)
	if err != nil {
		writeSupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, newResponse(res.Cycle, req.Images, res.Output, res.Shed))
}

// handleHealthz reports fleet health: 200 while every campaign is
// serving or deliberately paused, 503 once any campaign is quarantined
// — the operator-attention signal — with the per-campaign detail either
// way.
func (h *CampaignHandler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := h.sup.Health()
	quarantined := make([]string, 0)
	for _, c := range health {
		if c.State == "quarantined" {
			quarantined = append(quarantined, c.ID)
		}
	}
	body := map[string]any{"status": "ok", "campaigns": health}
	status := http.StatusOK
	if len(quarantined) > 0 {
		body["status"] = "quarantined"
		body["quarantined"] = quarantined
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, body)
}

func (h *CampaignHandler) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, CampaignListResponse{
		Campaigns: h.sup.Health(),
		Admission: h.sup.Admission(),
	})
}
