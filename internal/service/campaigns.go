package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// SpecFactory assembles the supervise.Spec for a campaign created over
// the API. The daemon supplies it so campaign creation reuses the
// process's shared laboratory (dataset, pilot crowd) while the HTTP
// layer stays ignorant of scheme assembly.
type SpecFactory func(id string) (supervise.Spec, error)

// routeCampaigns registers the fleet routes, one failure domain per
// disaster campaign:
//
//	POST /campaigns                     {"id":"hurricane-x"} -> health
//	GET  /campaigns                     -> CampaignListResponse; 503 once any campaign is quarantined
//	GET  /campaigns/{id}                -> health
//	POST /campaigns/{id}/assess         {"context":"morning","imageIds":[...]} -> Response
//	POST /campaigns/{id}/pause          -> health
//	POST /campaigns/{id}/resume         -> health (resets a quarantine)
//	POST /campaigns/{id}/archive        -> health (terminal)
//
// Supervision sentinels map onto transport codes: a full queue or an
// admission rejection is 429 with Retry-After, lifecycle-state
// rejections (paused, quarantined, archived, invalid transitions,
// duplicate IDs) are 409, unknown campaigns 404, and shutdown 503.
func (h *Handler) routeCampaigns() {
	h.mux.HandleFunc("POST /campaigns", h.handleCreate)
	h.mux.HandleFunc("GET /campaigns", h.handleList)
	h.mux.HandleFunc("GET /campaigns/{id}", h.handleGet)
	h.mux.HandleFunc("POST /campaigns/{id}/assess", func(w http.ResponseWriter, r *http.Request) {
		h.assess(w, r, r.PathValue("id"))
	})
	h.mux.HandleFunc("POST /campaigns/{id}/pause", h.handleLifecycle(h.sup.Pause))
	h.mux.HandleFunc("POST /campaigns/{id}/resume", h.handleLifecycle(h.sup.Resume))
	h.mux.HandleFunc("POST /campaigns/{id}/archive", h.handleLifecycle(h.sup.Archive))
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
	case errors.Is(err, context.DeadlineExceeded):
		writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// CreateCampaignRequest is the JSON body of POST /campaigns.
type CreateCampaignRequest struct {
	ID string `json:"id"`
}

func (h *Handler) handleCreate(w http.ResponseWriter, r *http.Request) {
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

// CampaignListResponse is the JSON body of GET /campaigns, the fleet's
// health and stats.
type CampaignListResponse struct {
	// Status is "ok", or "quarantined" (HTTP 503) while any campaign is
	// quarantined — the operator-attention signal — naming them in
	// Quarantined.
	Status      string                     `json:"status"`
	Quarantined []string                   `json:"quarantined,omitempty"`
	Campaigns   []supervise.CampaignHealth `json:"campaigns"`
	// Admission is the fleet overload controller's live state; nil when
	// admission control is disabled.
	Admission *admission.Snapshot `json:"admission,omitempty"`
}

func (h *Handler) handleList(w http.ResponseWriter, r *http.Request) {
	resp := CampaignListResponse{Status: "ok", Campaigns: h.sup.Health(), Admission: h.sup.Admission()}
	status := http.StatusOK
	for _, c := range resp.Campaigns {
		if c.State == supervise.StateQuarantined.String() {
			resp.Quarantined = append(resp.Quarantined, c.ID)
		}
	}
	if len(resp.Quarantined) > 0 {
		resp.Status, status = "quarantined", http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (h *Handler) handleGet(w http.ResponseWriter, r *http.Request) {
	health, err := h.sup.CampaignHealth(r.PathValue("id"))
	if err != nil {
		writeSupError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, health)
}

func (h *Handler) handleLifecycle(op func(string) error) http.HandlerFunc {
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
