package supervise

import "github.com/crowdlearn/crowdlearn/internal/obs"

// Metric names emitted by the supervised runtime. Everything carries a
// "campaign" label so one scrape separates the failure domains; the
// persistence layer's own unlabeled gauges (checkpoint age, WAL bytes)
// are deliberately not emitted per campaign because they would clobber
// each other — the per-campaign truth lives here and in /healthz.
const (
	// MetricCampaignState is a one-hot gauge family over the lifecycle
	// states (labels: campaign, state).
	MetricCampaignState = "crowdlearn_campaign_state"
	// MetricCampaignRestarts counts supervised restarts (label:
	// campaign).
	MetricCampaignRestarts = "crowdlearn_campaign_restarts_total"
	// MetricCampaignCycles counts sensing cycles by result (labels:
	// campaign, result = "ok" | "error" | "shed" — shed cycles served
	// AI-only labels on the admission degrade tier).
	MetricCampaignCycles = "crowdlearn_campaign_cycles_total"
	// MetricCampaignStalls counts cycles aborted by the watchdog or an
	// operator kick (label: campaign).
	MetricCampaignStalls = "crowdlearn_campaign_stalls_total"
	// MetricCampaignQuarantines counts entries into the quarantined
	// state (label: campaign).
	MetricCampaignQuarantines = "crowdlearn_campaign_quarantines_total"
	// MetricBreakerState is a one-hot gauge family over the breaker
	// states (labels: campaign, state = "closed" | "open" | "half-open").
	MetricBreakerState = "crowdlearn_breaker_state"
	// MetricBreakerTransitions counts breaker state transitions
	// (labels: campaign, from, to).
	MetricBreakerTransitions = "crowdlearn_breaker_transitions_total"
	// MetricBreakerRejections counts crowd submissions fast-failed by
	// an open breaker (label: campaign).
	MetricBreakerRejections = "crowdlearn_breaker_rejections_total"
	// MetricBreakerProbes counts half-open recovery probes by result
	// (labels: campaign, result = "ok" | "fail").
	MetricBreakerProbes = "crowdlearn_breaker_probes_total"
	// MetricAssessDuration is a histogram of wall-clock processing time
	// in seconds of every served request, full cycle or degrade tier.
	MetricAssessDuration = "crowdlearn_assess_duration_seconds"
	// MetricAssessErrors counts requests whose cycle failed.
	MetricAssessErrors = "crowdlearn_assess_errors_total"
	// MetricQueueRejected counts requests rejected by a full bounded
	// queue (Options.QueueDepth).
	MetricQueueRejected = "crowdlearn_queue_rejected_total"
	// MetricPanicsRecovered counts panics recovered from cycles (and,
	// in the HTTP layer, from handlers).
	MetricPanicsRecovered = "crowdlearn_panics_recovered_total"
	// MetricRequestsAbandoned counts dequeued requests whose caller's
	// context had already expired, skipped without running a cycle.
	MetricRequestsAbandoned = "crowdlearn_requests_abandoned_total"
	// MetricAdmissionDecisions counts fleet admission-ladder outcomes
	// (label: decision = "admit" | "degrade" | "reject").
	MetricAdmissionDecisions = "crowdlearn_admission_decisions_total"
	// MetricAdmissionLimit gauges the AIMD loop's current adaptive
	// concurrency limit.
	MetricAdmissionLimit = "crowdlearn_admission_limit"
	// MetricQueueWait is a histogram of request queue wait in seconds —
	// the signal the CoDel admission detector steers on.
	MetricQueueWait = "crowdlearn_queue_wait_seconds"
)

// registerHelp attaches HELP text for the runtime's metrics. Safe on a
// nil registry.
func registerHelp(r *obs.Registry) {
	r.Help(MetricCampaignState, "One-hot lifecycle state per campaign.")
	r.Help(MetricCampaignRestarts, "Supervised campaign restarts.")
	r.Help(MetricCampaignCycles, "Sensing cycles per campaign by result.")
	r.Help(MetricCampaignStalls, "Cycles aborted by the stall watchdog or an operator kick.")
	r.Help(MetricCampaignQuarantines, "Campaign entries into the quarantined state.")
	r.Help(MetricBreakerState, "One-hot circuit-breaker state per campaign.")
	r.Help(MetricBreakerTransitions, "Circuit-breaker state transitions.")
	r.Help(MetricBreakerRejections, "Crowd submissions fast-failed by an open breaker.")
	r.Help(MetricBreakerProbes, "Half-open recovery probes by result.")
	r.Help(MetricAssessDuration, "Wall-clock request processing time in seconds.")
	r.Help(MetricAssessErrors, "Assessment requests whose cycle failed.")
	r.Help(MetricQueueRejected, "Assessment requests rejected by a full queue.")
	r.Help(MetricPanicsRecovered, "Panics recovered from cycles and HTTP handlers.")
	r.Help(MetricRequestsAbandoned, "Dequeued requests skipped because their caller's context had expired.")
	r.Help(MetricAdmissionDecisions, "Admission ladder outcomes by decision (admit/degrade/reject).")
	r.Help(MetricAdmissionLimit, "Current AIMD adaptive concurrency limit.")
	r.Help(MetricQueueWait, "Request queue wait in seconds (the CoDel admission signal).")
}
