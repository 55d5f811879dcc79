// Package classifier implements the AI side of the DDA application: the
// three expert models the paper uses as its committee (VGG16, BoVW, DDM)
// plus the boosting Ensemble baseline.
//
// The real systems are deep CNNs over raw pixels; here each expert is a
// from-scratch MLP (internal/neural) over one of the synthetic feature
// views produced by internal/imagery:
//
//   - VGG16 reads the "deep" view (CNN embedding analogue);
//   - BoVW reads the "handcrafted" view (SIFT/HOG histogram analogue),
//     which has the narrowest class separation, making BoVW the weakest
//     expert as in Table II;
//   - DDM reads the "localization" view (Grad-CAM heatmap analogue), the
//     widest separation, making DDM the strongest AI-only expert.
//
// Because deceptive images carry features of their *apparent* rather than
// true class, every expert inherits the paper's innate failure modes: they
// are confidently wrong on fakes/close-ups/implicit images and uncertain
// on low-resolution ones. Per-image inference costs model the Table III
// algorithm delays.
package classifier

import (
	"errors"
	"fmt"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/neural"
)

// Sample is one training sample: an image with a target label
// distribution. Hard ground-truth labels use a one-hot target; the MIC
// retraining pathway feeds soft crowd distributions.
type Sample struct {
	Image  *imagery.Image
	Target []float64
}

// SamplesFromImages builds hard-labelled samples from ground truth.
func SamplesFromImages(images []*imagery.Image) []Sample {
	out := make([]Sample, len(images))
	for i, im := range images {
		out[i] = Sample{Image: im, Target: mathx.OneHot(imagery.NumLabels, int(im.TrueLabel))}
	}
	return out
}

// IntoPredictor is implemented by experts whose Predict can write into a
// caller-provided buffer; the committee voting loop uses it to keep the
// per-image scoring path allocation-free.
type IntoPredictor interface {
	// PredictInto writes the expert's label distribution for the image
	// into dst (len == imagery.NumLabels) and returns dst.
	PredictInto(im *imagery.Image, dst []float64) []float64
}

// Expert is a DDA algorithm usable as a committee member (Definition 5).
type Expert interface {
	// Name identifies the expert in experiment output.
	Name() string
	// Train fits the expert from scratch on the samples.
	Train(samples []Sample) error
	// Update performs a short incremental training pass — the model
	// retraining strategy of MIC, which folds in newly crowd-labelled
	// samples each sensing cycle without a full refit.
	Update(samples []Sample) error
	// Predict returns the expert's label distribution for the image — its
	// "expert vote" (Definition 6).
	Predict(im *imagery.Image) []float64
	// PerImageCost is the simulated inference cost per image, modelling
	// the GPU time of the real systems (Table III).
	PerImageCost() time.Duration
}

// WorkerTuner is implemented by experts whose Train and Update passes
// can have their internal gradient parallelism re-tuned after
// construction. Callers that fan out one goroutine per expert (bootstrap
// training in core, retraining in MIC) use it to force inner training to
// sequential, so expert-level and per-example parallelism do not
// multiply into oversubscription.
type WorkerTuner interface {
	// SetInnerWorkers caps the per-minibatch parallelism of subsequent
	// Train and Update calls (1 = sequential, 0 = restore the configured
	// value). Results are bit-identical at any setting.
	SetInnerWorkers(n int)
}

// SetInnerWorkers applies SetInnerWorkers(n) to every expert that
// implements WorkerTuner.
func SetInnerWorkers(experts []Expert, n int) {
	for _, e := range experts {
		if tuner, ok := e.(WorkerTuner); ok {
			tuner.SetInnerWorkers(n)
		}
	}
}

// mlpExpert is the shared implementation behind VGG16, BoVW and DDM.
type mlpExpert struct {
	name      string
	view      imagery.View
	net       *neural.Network
	netCfg    neural.Config
	updateCfg neural.Config
	// innerWorkers, when positive, overrides the configured worker
	// count of Train and Update passes (see WorkerTuner).
	innerWorkers int
	inDim        int
	cost         time.Duration
}

var (
	_ Expert        = (*mlpExpert)(nil)
	_ IntoPredictor = (*mlpExpert)(nil)
	_ WorkerTuner   = (*mlpExpert)(nil)
)

// Options tunes expert construction.
type Options struct {
	// Seed drives weight initialisation; distinct experts should use
	// distinct seeds so the committee is diverse.
	Seed int64
	// Epochs overrides the full-training epoch count (0 = default).
	Epochs int
	// Workers caps the per-minibatch gradient parallelism inside the
	// expert's network (0 = GOMAXPROCS, 1 = sequential); results are
	// bit-identical at any value.
	Workers int
}

// NewVGG16 builds the CNN-with-fine-tuning expert of Nguyen et al.,
// reading the deep feature view.
func NewVGG16(dims imagery.Dims, opts Options) Expert {
	return newMLPExpert("vgg16", imagery.DeepView, dims.Deep, []int{40, 16},
		4783*time.Millisecond, opts)
}

// NewBoVW builds the bag-of-visual-words expert of Bosch et al., reading
// the handcrafted feature view. A smaller network over a noisier view:
// the weakest committee member, as in the paper.
func NewBoVW(dims imagery.Dims, opts Options) Expert {
	return newMLPExpert("bovw", imagery.HandcraftedView, dims.Handcrafted, []int{16},
		3755*time.Millisecond, opts)
}

// NewDDM builds the damage-detection-map expert of Li et al. (CNN +
// Grad-CAM), reading the localization view — the strongest AI-only model.
func NewDDM(dims imagery.Dims, opts Options) Expert {
	return newMLPExpert("ddm", imagery.LocalizationView, dims.Localization, []int{48, 24},
		5257*time.Millisecond, opts)
}

func newMLPExpert(name string, view imagery.View, inDim int, hidden []int, cost time.Duration, opts Options) *mlpExpert {
	cfg := neural.DefaultConfig()
	cfg.Hidden = hidden
	cfg.Seed = opts.Seed
	cfg.Workers = opts.Workers
	if opts.Epochs > 0 {
		cfg.Epochs = opts.Epochs
	}
	updateCfg := cfg
	// Incremental updates are short, gentle passes.
	updateCfg.Epochs = 8
	updateCfg.LearningRate = cfg.LearningRate / 4

	return &mlpExpert{
		name:      name,
		view:      view,
		netCfg:    cfg,
		updateCfg: updateCfg,
		inDim:     inDim,
		cost:      cost,
	}
}

// Name implements Expert.
func (e *mlpExpert) Name() string { return e.name }

// PerImageCost implements Expert.
func (e *mlpExpert) PerImageCost() time.Duration { return e.cost }

func (e *mlpExpert) examples(samples []Sample) ([]neural.Example, error) {
	if len(samples) == 0 {
		return nil, errors.New("classifier: no training samples")
	}
	out := make([]neural.Example, len(samples))
	for i, s := range samples {
		if s.Image == nil {
			return nil, fmt.Errorf("classifier: sample %d has nil image", i)
		}
		if len(s.Target) != imagery.NumLabels {
			return nil, fmt.Errorf("classifier: sample %d target dim %d, want %d", i, len(s.Target), imagery.NumLabels)
		}
		out[i] = neural.Example{Features: s.Image.Features(e.view), Target: s.Target}
	}
	return out, nil
}

// Train implements Expert.
func (e *mlpExpert) Train(samples []Sample) error {
	examples, err := e.examples(samples)
	if err != nil {
		return err
	}
	net, err := neural.New(e.inDim, imagery.NumLabels, e.netCfg)
	if err != nil {
		return err
	}
	if _, err := net.TrainWithWorkers(examples, 0, 0, e.innerWorkers); err != nil {
		return err
	}
	e.net = net
	return nil
}

// Update implements Expert.
func (e *mlpExpert) Update(samples []Sample) error {
	if e.net == nil {
		return fmt.Errorf("classifier: %s must be trained before Update", e.name)
	}
	examples, err := e.examples(samples)
	if err != nil {
		return err
	}
	// A short, gentle fine-tuning pass that continues from the current
	// weights — not a full refit.
	if _, err := e.net.TrainWithWorkers(examples, e.updateCfg.Epochs, e.updateCfg.LearningRate, e.innerWorkers); err != nil {
		return err
	}
	return nil
}

// SetInnerWorkers implements WorkerTuner.
func (e *mlpExpert) SetInnerWorkers(n int) { e.innerWorkers = n }

// Predict implements Expert.
func (e *mlpExpert) Predict(im *imagery.Image) []float64 {
	return e.PredictInto(im, make([]float64, imagery.NumLabels))
}

// PredictInto implements IntoPredictor. Safe for concurrent use: the
// underlying network pools its forward buffers.
func (e *mlpExpert) PredictInto(im *imagery.Image, dst []float64) []float64 {
	if e.net == nil {
		// Untrained experts abstain with a uniform vote rather than
		// crashing mid-cycle.
		mathx.Fill(dst, 1/float64(imagery.NumLabels))
		return dst
	}
	return e.net.PredictInto(im.Features(e.view), dst)
}
