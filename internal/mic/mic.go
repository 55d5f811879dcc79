// Package mic implements CrowdLearn's Machine Intelligence Calibration
// module (Section IV-D): the three complementary strategies that feed the
// crowd's truthful labels back into the AI side each sensing cycle.
//
//  1. Dynamic expert-weight update: each expert's loss is the normalised
//     symmetric KL divergence between its vote distribution and the
//     crowd's truthful label distribution over the queried images
//     (Eq. 5); weights follow the classical exponential-weights rule.
//  2. Model retraining: the crowd's label distributions become soft
//     training targets for an incremental fine-tuning pass on every
//     expert, addressing the insufficient-training-data failure mode.
//  3. Crowd offloading: for the queried images themselves, the crowd's
//     label replaces the AI's in the current cycle, addressing the
//     innate-model-flaw failure mode (confidently wrong on fakes). The
//     replacement is performed by the core sensing-cycle runner; this
//     package provides the sample construction shared by both paths.
//
// Note on Eq. 5 as printed: the paper sums 1 - delta(KL_sym(...)), which
// is maximised when expert and crowd agree — an agreement score rather
// than a loss. We implement the evidently intended quantity,
// loss_m = mean_i delta(KL_sym(...)) in [0, 1], which is equivalent up to
// the sign convention consumed by the exponential update.
package mic

import (
	"errors"
	"fmt"
	"math"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
	"github.com/crowdlearn/crowdlearn/internal/qss"
)

// Config parameterises the calibrator.
type Config struct {
	// LearningRate is the eta of the exponential-weights update
	// (default 2): w_m <- w_m * exp(-eta * loss_m).
	LearningRate float64
	// Workers caps the fan-out of Retrain across committee members
	// (0 = GOMAXPROCS, 1 = sequential). Experts hold disjoint state, so
	// the calibrated committee is identical at any value.
	Workers int
}

// DefaultConfig returns standard calibration hyperparameters.
func DefaultConfig() Config {
	return Config{LearningRate: 2.0}
}

// Calibrator applies MIC's strategies to a committee.
type Calibrator struct {
	cfg Config
}

// New builds a calibrator. (The retraining pass length is owned by each
// expert's own incremental-update schedule, not by MIC.)
func New(cfg Config) (*Calibrator, error) {
	if cfg.LearningRate <= 0 {
		return nil, errors.New("mic: LearningRate must be positive")
	}
	return &Calibrator{cfg: cfg}, nil
}

// ExpertLosses computes each committee member's loss over the queried
// images: the mean bounded symmetric KL divergence between the member's
// vote and the crowd truth distribution (Eq. 5 with the loss sign
// convention; see the package comment).
func (c *Calibrator) ExpertLosses(committee *qss.Committee, images []*imagery.Image, truths [][]float64) ([]float64, error) {
	if len(images) != len(truths) {
		return nil, fmt.Errorf("mic: %d images but %d truth distributions", len(images), len(truths))
	}
	losses := make([]float64, committee.Size())
	if len(images) == 0 {
		return losses, nil
	}
	for i, im := range images {
		if len(truths[i]) != imagery.NumLabels {
			return nil, fmt.Errorf("mic: truth %d has dim %d, want %d", i, len(truths[i]), imagery.NumLabels)
		}
		votes := committee.MemberVotes(im)
		for m, vote := range votes {
			losses[m] += mathx.BoundedDivergence(mathx.SymmetricKL(vote, truths[i]))
		}
	}
	mathx.Scale(losses, 1/float64(len(images)))
	return losses, nil
}

// UpdateWeights applies the exponential-weights rule to the committee
// using the losses over the queried images, and returns the new weights.
// An empty query set leaves the weights untouched.
func (c *Calibrator) UpdateWeights(committee *qss.Committee, images []*imagery.Image, truths [][]float64) ([]float64, error) {
	if len(images) == 0 {
		return committee.Weights(), nil
	}
	losses, err := c.ExpertLosses(committee, images, truths)
	if err != nil {
		return nil, err
	}
	w := committee.Weights()
	for m := range w {
		w[m] *= math.Exp(-c.cfg.LearningRate * losses[m])
	}
	if err := committee.SetWeights(w); err != nil {
		return nil, err
	}
	return committee.Weights(), nil
}

// RetrainSamples converts crowd truths into training samples with soft
// targets for the model-retraining strategy.
func RetrainSamples(images []*imagery.Image, truths [][]float64) ([]classifier.Sample, error) {
	if len(images) != len(truths) {
		return nil, fmt.Errorf("mic: %d images but %d truth distributions", len(images), len(truths))
	}
	samples := make([]classifier.Sample, len(images))
	for i, im := range images {
		if im == nil {
			return nil, fmt.Errorf("mic: image %d is nil", i)
		}
		if len(truths[i]) != imagery.NumLabels {
			return nil, fmt.Errorf("mic: truth %d has dim %d, want %d", i, len(truths[i]), imagery.NumLabels)
		}
		samples[i] = classifier.Sample{Image: im, Target: mathx.Normalized(truths[i])}
	}
	return samples, nil
}

// Retrain runs the incremental retraining strategy: every committee
// member receives a short update pass on the crowd-labelled samples,
// fanning out across members. An empty sample set is a no-op. The
// lowest-index error matches what a sequential member loop would return
// first.
func (c *Calibrator) Retrain(committee *qss.Committee, samples []classifier.Sample) error {
	return c.RetrainObs(committee, samples, nil)
}

// retrainGrain pins the retrain fan-out at one expert per work unit:
// an expert retrain is the coarsest unit in the whole cycle (hundreds
// of milliseconds), so every handoff is worth paying for and chunks
// must never batch two experts onto one worker while another idles.
var retrainGrain = parallel.Grain{MinChunk: 1, CostNs: 1_000_000_000}

// RetrainObs is Retrain with an optional scheduling observer on the
// per-member fan-out (the profiling hook); a nil observer is exactly
// Retrain. Observation is passive and cannot change results or error
// selection.
//
// Parallelism is expert-granular: with cfg.Workers resolving above one,
// each member's update pass runs as one coarse unit on its own worker
// and the inner per-example gradient parallelism of every tunable
// expert is forced to sequential, so three concurrent retrains cannot
// multiply into per-example oversubscription. Experts hold disjoint
// state and each expert's pass is internally sequential either way, so
// the calibrated committee is bit-identical at any worker count.
func (c *Calibrator) RetrainObs(committee *qss.Committee, samples []classifier.Sample, o parallel.Observer) error {
	if len(samples) == 0 {
		return nil
	}
	experts := committee.Experts()
	inner := 0
	if w, _ := retrainGrain.Effective(c.cfg.Workers, len(experts)); w > 1 {
		inner = 1
	}
	classifier.SetInnerWorkers(experts, inner)
	return parallel.ForErrGrainObs(c.cfg.Workers, len(experts), retrainGrain, o, func(m int) error {
		if err := experts[m].Update(samples); err != nil {
			return fmt.Errorf("mic: retrain %s: %w", experts[m].Name(), err)
		}
		return nil
	})
}

// Calibrate performs the full MIC step for one sensing cycle: weight
// update followed by retraining. Crowd offloading — replacing the AI's
// labels on the queried images — is the caller's responsibility because it
// touches the cycle's output assembly, not the models.
func (c *Calibrator) Calibrate(committee *qss.Committee, images []*imagery.Image, truths [][]float64) error {
	if _, err := c.UpdateWeights(committee, images, truths); err != nil {
		return err
	}
	samples, err := RetrainSamples(images, truths)
	if err != nil {
		return err
	}
	return c.Retrain(committee, samples)
}
