package core

import (
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// Metric names emitted by CrowdLearn.RunCycle when Config.Metrics is
// set. Documented in README.md §Observability.
const (
	// MetricCycles counts completed sensing cycles.
	MetricCycles = "crowdlearn_cycles_total"
	// MetricCycleErrors counts cycles that returned an error.
	MetricCycleErrors = "crowdlearn_cycle_errors_total"
	// MetricImages counts images assessed across cycles.
	MetricImages = "crowdlearn_images_assessed_total"
	// MetricQueries counts crowd queries issued.
	MetricQueries = "crowdlearn_crowd_queries_total"
	// MetricSpend totals crowdsourcing spend in dollars.
	MetricSpend = "crowdlearn_spend_dollars_total"
	// MetricBudgetRemaining gauges the IPD policy's unspent budget.
	MetricBudgetRemaining = "crowdlearn_budget_remaining_dollars"
	// MetricBudgetExhausted counts cycles skipped for lack of budget.
	MetricBudgetExhausted = "crowdlearn_budget_exhausted_total"
	// MetricIncentive gauges the most recent per-query incentive (cents).
	MetricIncentive = "crowdlearn_incentive_cents"
	// MetricExpertWeight gauges each committee expert's weight
	// (label: expert).
	MetricExpertWeight = "crowdlearn_expert_weight"
	// MetricAlgorithmDelay is a histogram of per-cycle simulated compute
	// delay in seconds.
	MetricAlgorithmDelay = "crowdlearn_algorithm_delay_seconds"
	// MetricCrowdDelay is a histogram of per-cycle simulated crowd
	// completion delay in seconds (cycles that posted queries only).
	MetricCrowdDelay = "crowdlearn_crowd_delay_seconds"
	// MetricRequeries counts HIT reposts performed by the recovery policy.
	MetricRequeries = "crowdlearn_crowd_requeries_total"
	// MetricRefunded totals incentive dollars returned to the budget for
	// posts that expired unanswered.
	MetricRefunded = "crowdlearn_refunded_dollars_total"
	// MetricDegradedImages counts images that fell back to AI labels
	// because their crowd query never produced a usable response.
	MetricDegradedImages = "crowdlearn_degraded_images_total"
	// MetricDegradedCycles counts cycles with at least one degraded image.
	MetricDegradedCycles = "crowdlearn_degraded_cycles_total"
	// MetricLateResponses counts responses discarded past the deadline.
	MetricLateResponses = "crowdlearn_late_responses_total"
	// MetricOutages counts crowd posts rejected by a platform outage.
	MetricOutages = "crowdlearn_crowd_outages_total"
	// MetricParallelWorkers gauges the effective worker count of the
	// sensing loop's parallel stages (Config.Workers resolved against
	// GOMAXPROCS).
	MetricParallelWorkers = "crowdlearn_parallel_workers"
)

// Span names recorded per sensing cycle when Config.Tracer is set — one
// per pipeline stage of Figure 4, children of the obs.SpanCycle root.
const (
	// SpanCommitteeVote is the committee voting over the cycle's images.
	SpanCommitteeVote = "committee.vote"
	// SpanQSSSelect is QSS's epsilon-greedy query-set selection.
	SpanQSSSelect = "qss.select"
	// SpanIPDPrice is IPD's incentive selection (UCB-ALP).
	SpanIPDPrice = "ipd.price"
	// SpanCrowdSubmit is the crowd round trip; its simulated duration is
	// the mean crowd completion delay.
	SpanCrowdSubmit = "crowd.submit"
	// SpanCQCAggregate is CQC truthful-label aggregation.
	SpanCQCAggregate = "cqc.aggregate"
	// SpanMICWeights is MIC's exponential-weights expert update.
	SpanMICWeights = "mic.weights"
	// SpanMICRetrain is MIC's incremental expert retraining.
	SpanMICRetrain = "mic.retrain"
	// SpanCrowdRequery is one recovery wave reposting expired HITs; its
	// simulated duration is the deadline the wave waited out.
	SpanCrowdRequery = "crowd.requery"
	// SpanJournalAppend is the durable journal append that commits the
	// cycle — the fsync-bound tail of every journaled cycle.
	SpanJournalAppend = "journal.append"
)

// delayBuckets cover simulated delays from sub-second committee compute
// to tens-of-minutes crowd rounds (0.5s .. ~17min, doubling).
var delayBuckets = obs.ExponentialBuckets(0.5, 2, 12)

// registerHelp attaches HELP text so scrapes are self-describing. Safe
// on a nil registry.
func registerHelp(r *obs.Registry) {
	r.Help(MetricCycles, "Sensing cycles completed.")
	r.Help(MetricCycleErrors, "Sensing cycles that failed.")
	r.Help(MetricImages, "Images assessed across all cycles.")
	r.Help(MetricQueries, "Crowd queries issued.")
	r.Help(MetricSpend, "Cumulative crowdsourcing spend in dollars.")
	r.Help(MetricBudgetRemaining, "IPD budget remaining in dollars.")
	r.Help(MetricBudgetExhausted, "Cycles that fell back to AI-only because the budget ran out.")
	r.Help(MetricIncentive, "Most recent per-query incentive in cents.")
	r.Help(MetricExpertWeight, "Committee expert weight (sums to 1 across experts).")
	r.Help(MetricAlgorithmDelay, "Per-cycle simulated compute delay in seconds.")
	r.Help(MetricCrowdDelay, "Per-cycle simulated crowd completion delay in seconds.")
	r.Help(MetricRequeries, "HIT reposts performed by the recovery policy.")
	r.Help(MetricRefunded, "Incentive dollars refunded for posts that expired unanswered.")
	r.Help(MetricDegradedImages, "Images that fell back to AI labels after crowd failures.")
	r.Help(MetricDegradedCycles, "Cycles with at least one degraded image.")
	r.Help(MetricLateResponses, "Crowd responses discarded for missing the deadline.")
	r.Help(MetricOutages, "Crowd posts rejected by a platform outage.")
	r.Help(MetricParallelWorkers, "Effective worker count of the parallel sensing-loop stages.")
}

// observeCycle publishes one successful cycle's telemetry. Nil-safe: a
// nil registry makes every call below a no-op.
func (cl *CrowdLearn) observeCycle(in CycleInput, out CycleOutput) {
	r := cl.cfg.Metrics
	if r == nil {
		return
	}
	r.Counter(MetricCycles).Inc()
	r.Gauge(MetricParallelWorkers).Set(float64(parallel.Workers(cl.cfg.Workers)))
	r.Counter(MetricImages).Add(float64(len(in.Images)))
	r.Counter(MetricQueries).Add(float64(len(out.Queried)))
	r.Counter(MetricSpend).Add(out.SpentDollars)
	r.Gauge(MetricBudgetRemaining).Set(cl.policy.RemainingBudget())
	if len(out.Queried) > 0 {
		r.Gauge(MetricIncentive).Set(float64(out.Incentive))
	}
	weights := cl.committee.Weights()
	for i, e := range cl.committee.Experts() {
		r.Gauge(MetricExpertWeight, "expert", e.Name()).Set(weights[i])
	}
	r.Histogram(MetricAlgorithmDelay, delayBuckets).Observe(out.AlgorithmDelay.Seconds())
	if len(out.Queried) > 0 {
		r.Histogram(MetricCrowdDelay, delayBuckets).Observe(out.CrowdDelay.Seconds())
	}
	// Resilience counters are emitted only when non-zero so the fault-free
	// exposition stays identical to the pre-recovery output.
	if out.Requeries > 0 {
		r.Counter(MetricRequeries).Add(float64(out.Requeries))
	}
	if out.RefundedDollars > 0 {
		r.Counter(MetricRefunded).Add(out.RefundedDollars)
	}
	if len(out.Degraded) > 0 {
		r.Counter(MetricDegradedImages).Add(float64(len(out.Degraded)))
		r.Counter(MetricDegradedCycles).Inc()
	}
	if out.LateResponses > 0 {
		r.Counter(MetricLateResponses).Add(float64(out.LateResponses))
	}
	if out.Outages > 0 {
		r.Counter(MetricOutages).Add(float64(out.Outages))
	}
}

// ExpertWeights returns the committee's current weights keyed by expert
// name, running a pending bootstrap first. Callers must not invoke it
// concurrently with RunCycle (the service layer snapshots it on the
// worker goroutine).
func (cl *CrowdLearn) ExpertWeights() map[string]float64 {
	cl.settle()
	weights := cl.committee.Weights()
	out := make(map[string]float64, len(weights))
	for i, e := range cl.committee.Experts() {
		out[e.Name()] = weights[i]
	}
	return out
}

// RemainingBudget returns the IPD policy's unspent budget in dollars,
// running a pending bootstrap first.
func (cl *CrowdLearn) RemainingBudget() float64 {
	cl.settle()
	return cl.policy.RemainingBudget()
}
