// Package core assembles CrowdLearn's four modules (QSS, IPD, CQC, MIC)
// into the closed-loop sensing-cycle system of Figure 4, implements the
// paper's hybrid human-AI baselines (Hybrid-Para, Hybrid-AL), and provides
// the campaign runner that drives any scheme through the 40-sensing-cycle
// evaluation protocol of Section V.
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
)

// CycleInput is one sensing cycle's workload (Definition 1): a batch of
// unseen images arriving under a temporal context.
type CycleInput struct {
	// Index is the zero-based cycle number.
	Index int
	// Context is the temporal context the cycle runs under.
	Context crowd.TemporalContext
	// Images are the cycle's unseen data samples.
	Images []*imagery.Image
	// Attrs are observational key/values the scheme attaches to the
	// cycle trace's root span (the serving layer's campaign label and
	// admission queue wait). Purely diagnostic: they never influence the
	// cycle's computation and are not journaled, so replay is unaffected.
	Attrs []TraceAttr
}

// TraceAttr is one key/value destined for the cycle trace's root span.
// An ordered slice rather than a map so trace assembly never iterates
// an unordered map.
type TraceAttr struct {
	Key   string
	Value any
}

// Validate checks the input.
func (in CycleInput) Validate() error {
	if !in.Context.Valid() {
		return fmt.Errorf("core: invalid context %d", int(in.Context))
	}
	if len(in.Images) == 0 {
		return errors.New("core: cycle has no images")
	}
	for i, im := range in.Images {
		if im == nil {
			return fmt.Errorf("core: image %d is nil", i)
		}
	}
	return nil
}

// CycleOutput is a scheme's assessment of one cycle.
type CycleOutput struct {
	// Distributions holds the final label distribution per input image.
	Distributions [][]float64
	// AlgorithmDelay is the simulated compute time the scheme spent.
	AlgorithmDelay time.Duration
	// CrowdDelay is the mean crowd completion delay over this cycle's
	// queries (zero for AI-only schemes and for cycles with no queries).
	CrowdDelay time.Duration
	// Queried lists the indices of images sent to the crowd this cycle.
	Queried []int
	// Incentive is the per-query incentive paid this cycle (zero if no
	// queries were posted).
	Incentive crowd.Cents
	// SpentDollars is the crowdsourcing spend of this cycle, net of
	// refunds for posts that expired unanswered.
	SpentDollars float64
	// Requeries counts HIT reposts performed by the recovery policy this
	// cycle (zero when recovery is disabled).
	Requeries int
	// RefundedDollars is the incentive money returned to the budget for
	// posts that expired with no responses this cycle.
	RefundedDollars float64
	// Degraded lists indices of images whose crowd query never produced a
	// usable response; their Distributions entries fall back to the
	// weighted ensemble's AI verdict and MIC skips them.
	Degraded []int
	// LateResponses counts responses discarded for missing the recovery
	// deadline.
	LateResponses int
	// Outages counts crowd posts rejected because the platform was down.
	Outages int
}

// Labels collapses the output distributions to hard labels.
func (out CycleOutput) Labels() []imagery.Label {
	labels := make([]imagery.Label, len(out.Distributions))
	for i, d := range out.Distributions {
		best, bestP := 0, d[0]
		for l := 1; l < len(d); l++ {
			if d[l] > bestP {
				best, bestP = l, d[l]
			}
		}
		labels[i] = imagery.Label(best)
	}
	return labels
}

// Scheme is a damage-assessment system under evaluation: it consumes one
// sensing cycle's images and produces label distributions plus delay and
// cost accounting. All of Table II's rows implement this interface.
type Scheme interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// RunCycle processes one sensing cycle.
	RunCycle(in CycleInput) (CycleOutput, error)
}

// DegradedAssessor is the optional fast path a scheme may offer the
// serving layer's overload-shedding ladder: assess one batch from the
// AI models alone — no crowd round-trip, no learning, no committed
// cycle index, no journal write — so a shed request still returns
// usable labels at a fraction of a full sensing cycle's cost. Every
// returned image index must appear in CycleOutput.Degraded, mirroring
// the crowd-failure fallback of CycleOutput (the PR 2 degradation
// semantics: the distribution is the weighted ensemble's AI verdict).
//
// Implementations must be safe to call from the same goroutine that
// calls RunCycle (the campaign worker serialises both) and must not
// mutate scheme state, so a degraded burst leaves replay byte-identical.
type DegradedAssessor interface {
	AssessDegraded(in CycleInput) (CycleOutput, error)
}

// AIOnly wraps a single expert (VGG16, BoVW, DDM or Ensemble) as a
// crowd-free scheme — the paper's AI-only baselines.
type AIOnly struct {
	expert classifier.Expert
}

var _ Scheme = (*AIOnly)(nil)

// NewAIOnly builds the scheme. The expert must already be trained.
func NewAIOnly(expert classifier.Expert) (*AIOnly, error) {
	if expert == nil {
		return nil, errors.New("core: nil expert")
	}
	return &AIOnly{expert: expert}, nil
}

// Name implements Scheme.
func (a *AIOnly) Name() string { return a.expert.Name() }

// RunCycle implements Scheme.
func (a *AIOnly) RunCycle(in CycleInput) (CycleOutput, error) {
	if err := in.Validate(); err != nil {
		return CycleOutput{}, err
	}
	out := CycleOutput{Distributions: make([][]float64, len(in.Images))}
	for i, im := range in.Images {
		out.Distributions[i] = a.expert.Predict(im)
	}
	out.AlgorithmDelay = time.Duration(len(in.Images)) * a.expert.PerImageCost()
	return out, nil
}

var _ DegradedAssessor = (*AIOnly)(nil)

// AssessDegraded implements DegradedAssessor. An AI-only scheme's
// degraded tier is its normal cycle (there is no crowd to skip), with
// every image marked Degraded so the serving layer's accounting sees
// the shed.
func (a *AIOnly) AssessDegraded(in CycleInput) (CycleOutput, error) {
	out, err := a.RunCycle(in)
	if err != nil {
		return out, err
	}
	out.Degraded = make([]int, len(in.Images))
	for i := range in.Images {
		out.Degraded[i] = i
	}
	return out, nil
}
