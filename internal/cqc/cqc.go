// Package cqc implements CrowdLearn's Crowd Quality Control module
// (Section IV-C): a supervised truth classifier that fuses the workers'
// labels *and* their fixed-form questionnaire answers into a truthful
// label for each query.
//
// The paper trains XGBoost on pilot-study data where golden labels are
// known; this package trains the from-scratch gradient-boosted trees of
// internal/gbdt on exactly the same signal. The questionnaire features are
// what let CQC beat voting-style baselines: a majority that answers
// "severe damage" loses to questionnaire evidence that the image is fake.
//
// CQC satisfies the truth.Aggregator interface so Table I can compare it
// against Voting, TD-EM and Filtering through one code path.
package cqc

import (
	"errors"
	"fmt"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/gbdt"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/truth"
)

// Config parameterises the CQC module.
type Config struct {
	// GBDT holds the boosted-tree hyperparameters.
	GBDT gbdt.Params
	// UseQuestionnaire controls whether questionnaire-derived features are
	// included. Disabling it is the labels-only ablation in DESIGN.md §5;
	// the paper's CQC always uses them.
	UseQuestionnaire bool
}

// DefaultConfig returns the standard CQC configuration.
func DefaultConfig() Config {
	return Config{GBDT: gbdt.DefaultParams(), UseQuestionnaire: true}
}

// CQC is the quality-control model. Construct with New, then Train on
// pilot data with golden labels before calling Aggregate.
type CQC struct {
	cfg   Config
	model *gbdt.Classifier
}

var _ truth.Aggregator = (*CQC)(nil)

// New builds an untrained CQC module.
func New(cfg Config) *CQC {
	return &CQC{cfg: cfg}
}

// Name implements truth.Aggregator.
func (c *CQC) Name() string {
	if !c.cfg.UseQuestionnaire {
		return "cqc-labels-only"
	}
	return "cqc"
}

// Trained reports whether Train has completed successfully.
func (c *CQC) Trained() bool { return c.model != nil }

// NumFeatures returns the dimensionality of the response feature vector.
func (c *CQC) NumFeatures() int {
	if c.cfg.UseQuestionnaire {
		return 12
	}
	return 6
}

// Featurize converts one query's crowd responses into the CQC feature
// vector:
//
//	[0..2]  vote fraction per damage class
//	[3]     majority margin (top fraction minus runner-up fraction)
//	[4]     vote entropy, normalised by log(#classes)
//	[5]     response count (scaled)
//	[6]     fraction answering "image is fake"          (questionnaire)
//	[7]     fraction answering "shows road damage"       |
//	[8]     fraction answering "shows building damage"   |
//	[9]     fraction answering "shows people affected"   |
//	[10]    fraction answering "image is legible"        |
//	[11]    incentive level in dollars                  (questionnaire)
func (c *CQC) Featurize(qr crowd.QueryResult) []float64 {
	votes := make([]float64, imagery.NumLabels)
	var fake, road, building, people, legible float64
	n := float64(len(qr.Responses))
	for _, r := range qr.Responses {
		if r.Label.Valid() {
			votes[r.Label]++
		}
		if r.Questionnaire.IsFake {
			fake++
		}
		if r.Questionnaire.ShowsRoadDamage {
			road++
		}
		if r.Questionnaire.ShowsBuildingDamage {
			building++
		}
		if r.Questionnaire.ShowsPeopleAffected {
			people++
		}
		if r.Questionnaire.IsLegible {
			legible++
		}
	}
	fractions := mathx.Normalized(votes)
	top, second := topTwo(fractions)
	features := make([]float64, 0, c.NumFeatures())
	features = append(features, fractions...)
	features = append(features,
		top-second,
		mathx.Entropy(fractions)/mathx.MaxEntropy(imagery.NumLabels),
		n/10,
	)
	if c.cfg.UseQuestionnaire {
		if n == 0 {
			n = 1
		}
		features = append(features,
			fake/n, road/n, building/n, people/n, legible/n,
			qr.Query.Incentive.Dollars(),
		)
	}
	return features
}

func topTwo(fractions []float64) (top, second float64) {
	for _, f := range fractions {
		switch {
		case f > top:
			top, second = f, top
		case f > second:
			second = f
		}
	}
	return top, second
}

// Train fits the truth classifier on query results whose images carry
// golden ground-truth labels — the pilot-study phase of the paper.
func (c *CQC) Train(results []crowd.QueryResult) error {
	return c.TrainWithWorkers(results, 0)
}

// TrainWithWorkers is Train with the boosted trees' worker count
// overridden for this call when workers > 0: a caller that already runs
// the training as one unit of its own fan-out passes 1. The model is
// bit-identical at any worker count.
func (c *CQC) TrainWithWorkers(results []crowd.QueryResult, workers int) error {
	if len(results) == 0 {
		return errors.New("cqc: no training results")
	}
	features := make([][]float64, len(results))
	labels := make([]int, len(results))
	for i, qr := range results {
		if qr.Query.Image == nil {
			return fmt.Errorf("cqc: training result %d has nil image", i)
		}
		features[i] = c.Featurize(qr)
		labels[i] = int(qr.Query.Image.TrueLabel)
	}
	params := c.cfg.GBDT
	if workers > 0 {
		params.Workers = workers
	}
	model, err := gbdt.Train(features, labels, imagery.NumLabels, params)
	if err != nil {
		return fmt.Errorf("cqc: %w", err)
	}
	c.model = model
	return nil
}

// Aggregate implements truth.Aggregator: one truthful label distribution
// per query result.
func (c *CQC) Aggregate(results []crowd.QueryResult) ([][]float64, error) {
	if c.model == nil {
		return nil, errors.New("cqc: model not trained; call Train with pilot data first")
	}
	if len(results) == 0 {
		return nil, errors.New("cqc: no query results to aggregate")
	}
	out := make([][]float64, len(results))
	for i, qr := range results {
		out[i] = c.model.Predict(c.Featurize(qr))
	}
	return out, nil
}

// FeatureImportance exposes the trained model's per-feature gain shares,
// in Featurize order. Returns nil when untrained.
func (c *CQC) FeatureImportance() []float64 {
	if c.model == nil {
		return nil
	}
	return c.model.FeatureImportance()
}
