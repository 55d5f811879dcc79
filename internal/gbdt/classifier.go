package gbdt

import (
	"errors"
	"fmt"
	"math"

	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// Params configures boosting.
type Params struct {
	// Rounds is the number of boosting iterations (trees per class).
	Rounds int
	// MaxDepth limits tree depth (root = depth 0).
	MaxDepth int
	// MinSamplesLeaf is the minimum samples per leaf.
	MinSamplesLeaf int
	// LearningRate is the shrinkage applied to each tree's output.
	LearningRate float64
	// Lambda is the L2 regularisation on leaf weights.
	Lambda float64
	// Gamma is the minimum gain required to split.
	Gamma float64
	// Subsample is the row-sampling fraction per round (1 = no sampling).
	Subsample float64
	// EarlyStoppingRounds stops boosting when the validation log-loss has
	// not improved for this many consecutive rounds (0 disables early
	// stopping). Requires validation data via TrainValidated.
	EarlyStoppingRounds int
	// ValidationFraction is the share of training rows Train holds out
	// for early stopping when EarlyStoppingRounds > 0 and no explicit
	// validation set is supplied (default 0.15).
	ValidationFraction float64
	// Seed drives subsampling and the validation split.
	Seed int64
	// Workers caps the goroutines used for the per-feature split search
	// and the per-sample gradient/score updates (0 = GOMAXPROCS,
	// 1 = exact sequential execution). The trained model is bit-identical
	// at any value: per-feature split candidates merge in ascending
	// feature order and per-sample results land in per-index slots, so no
	// floating-point computation is ever reordered.
	Workers int
}

// DefaultParams mirrors common XGBoost defaults scaled to the small
// CQC training sets in this repository.
func DefaultParams() Params {
	return Params{
		Rounds:         60,
		MaxDepth:       4,
		MinSamplesLeaf: 2,
		LearningRate:   0.15,
		Lambda:         1.0,
		Gamma:          0.0,
		Subsample:      0.9,
		Seed:           1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Rounds <= 0 {
		return errors.New("gbdt: Rounds must be positive")
	}
	if p.MaxDepth <= 0 {
		return errors.New("gbdt: MaxDepth must be positive")
	}
	if p.MinSamplesLeaf <= 0 {
		return errors.New("gbdt: MinSamplesLeaf must be positive")
	}
	if p.LearningRate <= 0 || p.LearningRate > 1 {
		return errors.New("gbdt: LearningRate must be in (0, 1]")
	}
	if p.Lambda < 0 || p.Gamma < 0 {
		return errors.New("gbdt: Lambda and Gamma must be non-negative")
	}
	if p.Subsample <= 0 || p.Subsample > 1 {
		return errors.New("gbdt: Subsample must be in (0, 1]")
	}
	if p.EarlyStoppingRounds < 0 {
		return errors.New("gbdt: EarlyStoppingRounds must be non-negative")
	}
	if p.ValidationFraction < 0 || p.ValidationFraction >= 1 {
		return errors.New("gbdt: ValidationFraction must be in [0, 1)")
	}
	return nil
}

// Classifier is a trained multiclass boosted-tree model.
type Classifier struct {
	params      Params
	numClasses  int
	numFeatures int
	// trees[round][class]
	trees      [][]*tree
	importance []float64
	baseScore  []float64
}

// Train fits a classifier on dense features and integer class labels in
// [0, numClasses). When EarlyStoppingRounds > 0, a ValidationFraction
// share of the rows is held out automatically and boosting stops once the
// validation log-loss stalls.
func Train(features [][]float64, labels []int, numClasses int, params Params) (*Classifier, error) {
	if err := validateInputs(features, labels, numClasses, params); err != nil {
		return nil, err
	}
	if params.EarlyStoppingRounds > 0 {
		frac := params.ValidationFraction
		if frac == 0 {
			frac = 0.15
		}
		rng := mathx.NewRand(params.Seed + 1)
		perm := rng.Perm(len(features))
		cut := int(frac * float64(len(features)))
		if cut < 1 || len(features)-cut < 2 {
			return nil, errors.New("gbdt: too few rows for the validation split")
		}
		valF := make([][]float64, 0, cut)
		valL := make([]int, 0, cut)
		trF := make([][]float64, 0, len(features)-cut)
		trL := make([]int, 0, len(features)-cut)
		for i, idx := range perm {
			if i < cut {
				valF = append(valF, features[idx])
				valL = append(valL, labels[idx])
			} else {
				trF = append(trF, features[idx])
				trL = append(trL, labels[idx])
			}
		}
		return trainCore(trF, trL, valF, valL, numClasses, params)
	}
	return trainCore(features, labels, nil, nil, numClasses, params)
}

// TrainValidated fits with an explicit validation set for early stopping.
func TrainValidated(features [][]float64, labels []int, valFeatures [][]float64, valLabels []int, numClasses int, params Params) (*Classifier, error) {
	if err := validateInputs(features, labels, numClasses, params); err != nil {
		return nil, err
	}
	if len(valFeatures) == 0 || len(valFeatures) != len(valLabels) {
		return nil, errors.New("gbdt: validation set empty or mismatched")
	}
	return trainCore(features, labels, valFeatures, valLabels, numClasses, params)
}

func validateInputs(features [][]float64, labels []int, numClasses int, params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	if len(features) == 0 {
		return errors.New("gbdt: no training samples")
	}
	if len(features) != len(labels) {
		return fmt.Errorf("gbdt: %d feature rows but %d labels", len(features), len(labels))
	}
	if numClasses < 2 {
		return errors.New("gbdt: need at least 2 classes")
	}
	numFeatures := len(features[0])
	for i, row := range features {
		if len(row) != numFeatures {
			return fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), numFeatures)
		}
	}
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			return fmt.Errorf("gbdt: label %d out of range at row %d", y, i)
		}
	}
	return nil
}

// Per-sample cost hints for the boosting loops: one softmax gradient
// (~50ns at three classes) and one tree descent (~10ns). At CQC's
// pilot size (hundreds of rows) every such loop runs inline; only
// training sets of thousands of rows fan out.
var (
	gradGrain    = parallel.Grain{CostNs: 50}
	predictGrain = parallel.Grain{CostNs: 10}
)

// trainCore runs the boosting loop, optionally early-stopping on the
// validation log-loss.
func trainCore(features [][]float64, labels []int, valFeatures [][]float64, valLabels []int, numClasses int, params Params) (*Classifier, error) {
	n := len(features)
	numFeatures := len(features[0])
	c := &Classifier{
		params:      params,
		numClasses:  numClasses,
		numFeatures: numFeatures,
		importance:  make([]float64, numFeatures),
		baseScore:   make([]float64, numClasses),
	}
	rng := mathx.NewRand(params.Seed)

	// Raw scores per sample per class, updated additively each round.
	scores := make([][]float64, n)
	for i := range scores {
		scores[i] = make([]float64, numClasses)
	}
	probs := make([]float64, numClasses)
	grad := make([]float64, n)
	hess := make([]float64, n)

	// Parallel execution state: per-worker softmax scratch for the
	// gradient loop, and one shared tree-building scratch. Every parallel
	// loop writes per-index slots only, so the trained model is
	// bit-identical at any worker count.
	workers := parallel.Workers(params.Workers)
	probsW := make([][]float64, workers)
	for w := range probsW {
		probsW[w] = make([]float64, numClasses)
	}
	scratch := newBuildScratch(params.Workers, numFeatures)
	valGrain := parallel.Grain{CostNs: predictGrain.CostNs * int64(numClasses)}

	// Validation state for early stopping.
	earlyStopping := params.EarlyStoppingRounds > 0 && len(valFeatures) > 0
	var valScores [][]float64
	if earlyStopping {
		valScores = make([][]float64, len(valFeatures))
		for i := range valScores {
			valScores[i] = make([]float64, numClasses)
		}
	}
	bestLoss := math.Inf(1)
	bestRound := -1
	stale := 0

	for round := 0; round < params.Rounds; round++ {
		// Row subsample for this round.
		var idx []int
		if params.Subsample < 1 {
			idx = idx[:0]
			for i := 0; i < n; i++ {
				if rng.Float64() < params.Subsample {
					idx = append(idx, i)
				}
			}
			if len(idx) < 2*params.MinSamplesLeaf {
				idx = allIndices(n)
			}
		} else {
			idx = allIndices(n)
		}

		roundTrees := make([]*tree, numClasses)
		for k := 0; k < numClasses; k++ {
			// Softmax gradients: g = p_k - y_k, h = p_k (1 - p_k). Each
			// sample owns its grad/hess slot; the softmax scratch is
			// per-worker.
			parallel.ForWorkerGrainObs(params.Workers, n, gradGrain, nil, func(w, i int) {
				probs := probsW[w]
				mathx.Softmax(scores[i], probs)
				p := probs[k]
				y := 0.0
				if labels[i] == k {
					y = 1.0
				}
				grad[i] = p - y
				hess[i] = p * (1 - p)
				if hess[i] < 1e-9 {
					hess[i] = 1e-9
				}
			})
			b := &treeBuilder{
				features:   features,
				grad:       grad,
				hess:       hess,
				params:     params,
				importance: c.importance,
				scratch:    scratch,
			}
			tr := b.build(idx)
			roundTrees[k] = tr
			// Apply shrinkage-scaled updates to all samples.
			parallel.ForGrain(params.Workers, n, predictGrain, func(i int) {
				scores[i][k] += params.LearningRate * tr.predict(features[i])
			})
		}
		c.trees = append(c.trees, roundTrees)

		if earlyStopping {
			parallel.ForGrain(params.Workers, len(valFeatures), valGrain, func(vi int) {
				for k, tr := range roundTrees {
					valScores[vi][k] += params.LearningRate * tr.predict(valFeatures[vi])
				}
			})
			loss := logLoss(valScores, valLabels, probs)
			if loss < bestLoss-1e-9 {
				bestLoss = loss
				bestRound = round
				stale = 0
			} else {
				stale++
				if stale >= params.EarlyStoppingRounds {
					break
				}
			}
		}
	}
	if earlyStopping && bestRound >= 0 {
		// Truncate to the best round observed.
		c.trees = c.trees[:bestRound+1]
	}
	return c, nil
}

// logLoss computes the mean negative log-likelihood of the labels under
// the softmax of the raw scores, reusing probs as scratch.
func logLoss(scores [][]float64, labels []int, probs []float64) float64 {
	var total float64
	for i, s := range scores {
		mathx.Softmax(s, probs)
		p := probs[labels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(p)
	}
	return total / float64(len(scores))
}

func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Predict returns the softmax class distribution for x.
func (c *Classifier) Predict(x []float64) []float64 {
	if len(x) != c.numFeatures {
		panic(fmt.Sprintf("gbdt: input dim %d, want %d", len(x), c.numFeatures))
	}
	scores := mathx.Clone(c.baseScore)
	for _, roundTrees := range c.trees {
		for k, tr := range roundTrees {
			scores[k] += c.params.LearningRate * tr.predict(x)
		}
	}
	return mathx.Softmax(scores, scores)
}

// PredictClass returns the argmax class for x.
func (c *Classifier) PredictClass(x []float64) int {
	return mathx.ArgMax(c.Predict(x))
}

// NumClasses returns the number of classes the model was trained with.
func (c *Classifier) NumClasses() int { return c.numClasses }

// NumFeatures returns the expected feature dimensionality.
func (c *Classifier) NumFeatures() int { return c.numFeatures }

// NumTrees returns the total number of trees across rounds and classes.
func (c *Classifier) NumTrees() int {
	total := 0
	for _, r := range c.trees {
		total += len(r)
	}
	return total
}

// FeatureImportance returns per-feature accumulated split gain, normalised
// to sum to one (all zeros if no splits were made).
func (c *Classifier) FeatureImportance() []float64 {
	out := mathx.Clone(c.importance)
	if s := mathx.Sum(out); s > 0 {
		mathx.Scale(out, 1/s)
	}
	return out
}
