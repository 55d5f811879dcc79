package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// CampaignConfig drives a scheme through the paper's evaluation protocol:
// 40 sensing cycles of 10 test images each, 10 cycles per temporal
// context (Section V-B).
type CampaignConfig struct {
	// Cycles is the number of sensing cycles (paper: 40).
	Cycles int
	// ImagesPerCycle is the batch size per cycle (paper: 10).
	ImagesPerCycle int
	// StartCycle offsets every cycle index (and with it the default
	// context schedule): a campaign resumed after crash recovery
	// continues the index sequence where the previous process stopped,
	// which the write-ahead cycle log requires. Images are still
	// consumed from the start of the test slice.
	StartCycle int
	// ContextOf maps a cycle index to its temporal context; nil uses a
	// round-robin schedule (cycle mod 4), which gives the paper's 10
	// cycles per context over 40 cycles while keeping the context stream
	// stationary — the regime the contextual bandit's adaptive LP is
	// designed for.
	ContextOf func(cycle int) crowd.TemporalContext
	// Tracer, when non-nil, is where the campaign collects the per-cycle
	// span trees the scheme emits. Point it at the same tracer as the
	// scheme's core.Config.Tracer (with capacity >= Cycles) and
	// RunCampaign snapshots the traces into CampaignResult.Traces.
	Tracer *obs.Tracer
}

// DefaultCampaignConfig mirrors the paper: 40 cycles x 10 images.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{Cycles: 40, ImagesPerCycle: 10}
}

// Validate checks the configuration against the available test set size.
func (c CampaignConfig) Validate(testSize int) error {
	if c.Cycles <= 0 {
		return errors.New("core: Cycles must be positive")
	}
	if c.ImagesPerCycle <= 0 {
		return errors.New("core: ImagesPerCycle must be positive")
	}
	if c.StartCycle < 0 {
		return errors.New("core: StartCycle must be non-negative")
	}
	if need := c.Cycles * c.ImagesPerCycle; need > testSize {
		return fmt.Errorf("core: campaign needs %d images but test set has %d", need, testSize)
	}
	return nil
}

// contextOf resolves the context schedule.
func (c CampaignConfig) contextOf(cycle int) crowd.TemporalContext {
	if c.ContextOf != nil {
		return c.ContextOf(cycle)
	}
	return crowd.TemporalContext(cycle % crowd.NumContexts)
}

// CycleRecord pairs a cycle's input with the scheme's output.
type CycleRecord struct {
	Input  CycleInput
	Output CycleOutput
}

// CampaignResult aggregates a full run.
type CampaignResult struct {
	SchemeName string
	Records    []CycleRecord
	// Traces holds the per-cycle span trees in chronological order when
	// CampaignConfig.Tracer was set (nil otherwise).
	Traces []*obs.CycleTrace
}

// cycleBeginner is a scheme whose cycle splits into a compute phase and
// a commit (*CrowdLearn, through BeginCycle).
type cycleBeginner interface {
	BeginCycle(in CycleInput) (CycleOutput, *CycleCommit, error)
}

// RunCampaign drives the scheme through the test images under the
// campaign schedule. Images are consumed in order, ImagesPerCycle at a
// time, emulating the unseen data arriving during each sensing cycle.
//
// A scheme with BeginCycle runs each cycle's compute phase through it.
// A detached commit (journal encode, WAL append, fsync, periodic
// checkpoint write) runs on its own goroutine while the next cycle's
// compute already executes; a commit that cannot detach runs before the
// next cycle. The compute chain itself stays strictly sequential —
// every cycle's QSS/IPD/CQC/MIC step reads state the previous cycle
// wrote, so overlapping compute would break the bit-identity contract
// — which makes commit work the only overlap that preserves DESIGN §9
// determinism. The epoch-merge barrier: cycle N's commit is joined
// before cycle N+1's commit may start (the WAL stays in index order,
// at most one commit is ever in flight) and a durability failure
// aborts the campaign, wrapping ErrCycleNotDurable, before any later
// cycle is acknowledged. Results, records and journal bytes are
// byte-identical to calling RunCycle cycle by cycle, at any worker
// count. Every other scheme runs each cycle through RunCycle.
func RunCampaign(scheme Scheme, test []*imagery.Image, cfg CampaignConfig) (*CampaignResult, error) {
	if scheme == nil {
		return nil, errors.New("core: nil scheme")
	}
	if err := cfg.Validate(len(test)); err != nil {
		return nil, err
	}
	result := &CampaignResult{SchemeName: scheme.Name(), Records: make([]CycleRecord, 0, cfg.Cycles)}
	begin, split := scheme.(cycleBeginner)
	var (
		joinPrev func() error // pending detached commit of the previous cycle
		prevIdx  int
	)
	settle := func() error {
		if joinPrev == nil {
			return nil
		}
		err := joinPrev()
		joinPrev = nil
		if err != nil {
			return fmt.Errorf("core: %s cycle %d: %w", scheme.Name(), prevIdx, err)
		}
		return nil
	}
	// A panic out of a cycle must not leak the in-flight commit
	// goroutine: join it during the unwind so the journal is quiescent
	// by the time any recover() observes the panic.
	defer func() {
		if joinPrev != nil {
			_ = joinPrev()
		}
	}()
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		idx := cfg.StartCycle + cycle
		in := CycleInput{
			Index:   idx,
			Context: cfg.contextOf(idx),
			Images:  test[cycle*cfg.ImagesPerCycle : (cycle+1)*cfg.ImagesPerCycle],
		}
		var (
			out    CycleOutput
			commit *CycleCommit
			err    error
		)
		if split {
			out, commit, err = begin.BeginCycle(in)
		} else {
			out, err = scheme.RunCycle(in)
		}
		// Epoch-merge barrier: the previous commit must land before this
		// cycle's commit may start, and its failure surfaces first — it
		// is the earlier cycle.
		if jerr := settle(); jerr != nil {
			return nil, jerr
		}
		if err != nil {
			return nil, fmt.Errorf("core: %s cycle %d: %w", scheme.Name(), idx, err)
		}
		if len(out.Distributions) != len(in.Images) {
			return nil, fmt.Errorf("core: %s cycle %d returned %d distributions for %d images",
				scheme.Name(), idx, len(out.Distributions), len(in.Images))
		}
		if commit.Detached() {
			joinPrev = parallel.Detach(commit.Run)
			prevIdx = idx
		} else if cerr := commit.Run(); cerr != nil {
			return nil, fmt.Errorf("core: %s cycle %d: %w", scheme.Name(), idx, cerr)
		}
		result.Records = append(result.Records, CycleRecord{Input: in, Output: out})
	}
	if jerr := settle(); jerr != nil {
		return nil, jerr
	}
	if cfg.Tracer != nil {
		traces := cfg.Tracer.Recent(cfg.Cycles)
		// Recent is newest first; campaigns read chronologically.
		for i, j := 0, len(traces)-1; i < j; i, j = i+1, j-1 {
			traces[i], traces[j] = traces[j], traces[i]
		}
		result.Traces = traces
	}
	return result, nil
}

// StageStats totals the collected traces by stage name (wall-clock and
// simulated durations per span); empty when no tracer was configured.
func (r *CampaignResult) StageStats() map[string]obs.StageStat {
	return obs.AggregateStages(r.Traces)
}

// TrueLabels returns the ground-truth labels of every image in campaign
// order.
func (r *CampaignResult) TrueLabels() []imagery.Label {
	var out []imagery.Label
	for _, rec := range r.Records {
		for _, im := range rec.Input.Images {
			out = append(out, im.TrueLabel)
		}
	}
	return out
}

// PredictedLabels returns the scheme's hard labels in campaign order.
func (r *CampaignResult) PredictedLabels() []imagery.Label {
	var out []imagery.Label
	for _, rec := range r.Records {
		out = append(out, rec.Output.Labels()...)
	}
	return out
}

// Distributions returns the scheme's label distributions in campaign
// order.
func (r *CampaignResult) Distributions() [][]float64 {
	var out [][]float64
	for _, rec := range r.Records {
		out = append(out, rec.Output.Distributions...)
	}
	return out
}

// MeanAlgorithmDelay averages the per-cycle simulated compute delay.
func (r *CampaignResult) MeanAlgorithmDelay() time.Duration {
	if len(r.Records) == 0 {
		return 0
	}
	var total time.Duration
	for _, rec := range r.Records {
		total += rec.Output.AlgorithmDelay
	}
	return total / time.Duration(len(r.Records))
}

// MeanCrowdDelay averages the per-cycle crowd delay over cycles that
// actually posted queries; returns 0 if none did.
func (r *CampaignResult) MeanCrowdDelay() time.Duration {
	var total time.Duration
	n := 0
	for _, rec := range r.Records {
		if len(rec.Output.Queried) > 0 {
			total += rec.Output.CrowdDelay
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// CrowdDelayByContext averages crowd delay per temporal context.
func (r *CampaignResult) CrowdDelayByContext() map[crowd.TemporalContext]time.Duration {
	totals := make(map[crowd.TemporalContext]time.Duration, crowd.NumContexts)
	counts := make(map[crowd.TemporalContext]int, crowd.NumContexts)
	for _, rec := range r.Records {
		if len(rec.Output.Queried) > 0 {
			totals[rec.Input.Context] += rec.Output.CrowdDelay
			counts[rec.Input.Context]++
		}
	}
	out := make(map[crowd.TemporalContext]time.Duration, len(totals))
	for ctx, total := range totals {
		out[ctx] = total / time.Duration(counts[ctx])
	}
	return out
}

// TotalSpend sums the crowdsourcing dollars across cycles.
func (r *CampaignResult) TotalSpend() float64 {
	var total float64
	for _, rec := range r.Records {
		total += rec.Output.SpentDollars
	}
	return total
}

// QueriedCount sums the number of crowd queries across cycles.
func (r *CampaignResult) QueriedCount() int {
	n := 0
	for _, rec := range r.Records {
		n += len(rec.Output.Queried)
	}
	return n
}
