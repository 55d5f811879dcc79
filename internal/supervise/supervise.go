// Package supervise is the supervised campaign runtime: it hosts N
// assessment campaigns as isolated failure domains inside one process.
// Each campaign owns a worker goroutine, its own durable state
// directory (internal/store) and its own circuit-broken crowd platform;
// a panic, stall or journal failure in one campaign restarts that
// campaign from its last checkpoint via the byte-identical recovery
// path while every other campaign keeps cycling.
//
// The runtime implements a degradation ladder rather than a binary
// up/down:
//
//	full        — cycles run the closed loop, crowd queries flow
//	ai-only     — the circuit breaker is open; cycles complete on the
//	              committee's AI labels while the platform recovers
//	paused      — an operator suspended the campaign; requests are
//	              rejected deterministically, state stays warm
//	quarantined — the restart budget is exhausted; the campaign is
//	              fenced (store closed) until an operator resumes it
//
// Restarts follow a deterministic seeded exponential-backoff-with-
// jitter policy (internal/mathx); the breaker schedules its recovery
// probes off the same curve. Both are clockless in the sense that no
// decision reads the wall clock: the breaker advances a call-counter
// clock, and restart delays are data, produced by a seeded stream and
// executed by an injectable sleeper.
package supervise

import (
	"errors"
	"log/slog"
)

// DefaultCampaign is the campaign a single-campaign deployment runs:
// the one the unprefixed HTTP routes serve, and the one whose unlabeled
// core and store series may go to the process registry.
const DefaultCampaign = "default"

// State is a campaign's lifecycle state.
type State int

const (
	// StateRunning: the worker accepts and processes assessments.
	StateRunning State = iota
	// StatePaused: an operator suspended the campaign; assessments are
	// rejected with ErrPaused until Resume.
	StatePaused
	// StateRestarting: the campaign is tearing down a failed epoch and
	// rebuilding from its last durable state.
	StateRestarting
	// StateQuarantined: the restart budget is exhausted; the campaign
	// is fenced until an operator Resume resets the budget.
	StateQuarantined
	// StateArchived: the campaign was retired after a final checkpoint;
	// terminal.
	StateArchived
)

// String returns the lowercase state name used in health JSON, metric
// labels and logs.
func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateRestarting:
		return "restarting"
	case StateQuarantined:
		return "quarantined"
	case StateArchived:
		return "archived"
	default:
		return "unknown"
	}
}

// States lists every lifecycle state, for one-hot metric emission.
func States() []State {
	return []State{StateRunning, StatePaused, StateRestarting, StateQuarantined, StateArchived}
}

// Sentinel errors of the campaign lifecycle and failure detection.
var (
	// ErrUnknownCampaign: no campaign with that ID exists.
	ErrUnknownCampaign = errors.New("supervise: unknown campaign")
	// ErrDuplicateID: Create was given an ID already in use.
	ErrDuplicateID = errors.New("supervise: duplicate campaign id")
	// ErrPaused: the campaign is paused; resume it to assess.
	ErrPaused = errors.New("supervise: campaign paused")
	// ErrQuarantined: the campaign exhausted its restart budget and is
	// fenced; resume it to reset the budget and rebuild.
	ErrQuarantined = errors.New("supervise: campaign quarantined")
	// ErrArchived: the campaign was retired; terminal.
	ErrArchived = errors.New("supervise: campaign archived")
	// ErrBusy: the campaign's bounded request queue is full — the
	// backpressure signal the HTTP layer maps to 429.
	ErrBusy = errors.New("supervise: campaign queue full")
	// ErrShutdown: the supervisor is shutting down.
	ErrShutdown = errors.New("supervise: shut down")
	// ErrCyclePanicked marks a sensing cycle that panicked; the
	// supervisor recovers the panic and restarts the campaign.
	ErrCyclePanicked = errors.New("supervise: cycle panicked")
	// ErrCycleStalled marks a sensing cycle aborted by the watchdog (or
	// an operator Kick); the supervisor restarts the campaign.
	ErrCycleStalled = errors.New("supervise: cycle stalled")
	// ErrInvalidTransition: the requested lifecycle change is not legal
	// from the campaign's current state.
	ErrInvalidTransition = errors.New("supervise: invalid lifecycle transition")
)

// Go spawns fn on a named goroutine with last-resort panic recovery: a
// panic is logged with the goroutine's name instead of crashing the
// process. It is the repository's blessed spawn point — crowdlint's
// no-naked-goroutine rule forbids raw `go` statements outside
// internal/parallel and this package — so every long-lived goroutine
// has a name, an owner and a recovery story. Code whose panics must
// propagate to a supervisor (campaign cycle bodies) installs its own
// recover inside fn; this wrapper only catches what nothing else did.
func Go(name string, logger *slog.Logger, fn func()) {
	go func() {
		defer func() {
			if p := recover(); p != nil {
				if logger == nil {
					logger = slog.Default()
				}
				logger.Error("goroutine panicked",
					slog.String("goroutine", name), slog.Any("panic", p))
			}
		}()
		fn()
	}()
}
