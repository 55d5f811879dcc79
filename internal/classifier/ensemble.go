package classifier

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

// Ensemble aggregates the three AI experts with confidence-rated boosting
// weights (Schapire & Singer), the paper's AI-only Ensemble baseline.
//
// Training fits every member, then computes each member's weighted
// training error and assigns the classic boosting weight
// alpha_m = log((1 - err_m) / err_m); prediction is the alpha-weighted sum
// of member vote distributions, renormalised. The simulated per-image cost
// reflects that the ensemble evaluates members sequentially with partial
// early-exit, matching the Table III delay ordering.
type Ensemble struct {
	members []Expert
	alphas  []float64
	cost    time.Duration
	// workers caps the fan-out across members in Train/Update/reweight
	// (0 = GOMAXPROCS, 1 = sequential); members own disjoint state so
	// results are identical at any value.
	workers int
	// tmp pools member-vote buffers for the allocation-free PredictInto
	// path.
	tmp sync.Pool
}

var (
	_ Expert        = (*Ensemble)(nil)
	_ IntoPredictor = (*Ensemble)(nil)
)

// NewEnsemble builds the boosting aggregation of the given members. The
// standard paper configuration passes VGG16, BoVW and DDM.
func NewEnsemble(members ...Expert) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, errors.New("classifier: ensemble needs at least one member")
	}
	return &Ensemble{
		members: members,
		alphas:  make([]float64, len(members)),
		cost:    8582 * time.Millisecond,
	}, nil
}

// Name implements Expert.
func (e *Ensemble) Name() string { return "ensemble" }

// PerImageCost implements Expert.
func (e *Ensemble) PerImageCost() time.Duration { return e.cost }

// Members exposes the underlying experts (read-only use).
func (e *Ensemble) Members() []Expert { return e.members }

// SetWorkers caps the member-level training fan-out (0 = GOMAXPROCS,
// 1 = sequential).
func (e *Ensemble) SetWorkers(n int) { e.workers = n }

// Alphas returns a copy of the boosting weights.
func (e *Ensemble) Alphas() []float64 { return mathx.Clone(e.alphas) }

// Train implements Expert: fit all members, then set boosting weights
// from their training error.
func (e *Ensemble) Train(samples []Sample) error {
	if len(samples) == 0 {
		return errors.New("classifier: no training samples")
	}
	// Members hold disjoint state; the lowest-index error matches what a
	// sequential loop would return first.
	err := parallel.ForErr(e.workers, len(e.members), func(i int) error {
		if err := e.members[i].Train(samples); err != nil {
			return fmt.Errorf("ensemble member %s: %w", e.members[i].Name(), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.reweight(samples)
	return nil
}

// Update implements Expert: incremental pass on all members followed by
// reweighting.
func (e *Ensemble) Update(samples []Sample) error {
	if len(samples) == 0 {
		return errors.New("classifier: no update samples")
	}
	err := parallel.ForErr(e.workers, len(e.members), func(i int) error {
		if err := e.members[i].Update(samples); err != nil {
			return fmt.Errorf("ensemble member %s: %w", e.members[i].Name(), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.reweight(samples)
	return nil
}

// reweight computes confidence-rated boosting weights from member errors
// on the given samples. Each member owns its alpha slot, so members are
// evaluated concurrently without affecting the result.
func (e *Ensemble) reweight(samples []Sample) {
	const floor = 0.01 // keep alphas finite for perfect/terrible members
	parallel.For(e.workers, len(e.members), func(i int) {
		m := e.members[i]
		vote := make([]float64, imagery.NumLabels)
		wrong := 0
		for _, s := range samples {
			if mathx.ArgMax(predictInto(m, s.Image, vote)) != mathx.ArgMax(s.Target) {
				wrong++
			}
		}
		err := mathx.Clamp(float64(wrong)/float64(len(samples)), floor, 1-floor)
		e.alphas[i] = math.Log((1 - err) / err)
		if e.alphas[i] < 0 {
			// A worse-than-chance member contributes nothing rather than
			// being inverted; inverting distributions is not meaningful
			// for multiclass vote aggregation.
			e.alphas[i] = 0
		}
	})
}

// predictInto routes through IntoPredictor when the expert supports it,
// falling back to the allocating Predict.
func predictInto(m Expert, im *imagery.Image, dst []float64) []float64 {
	if ip, ok := m.(IntoPredictor); ok {
		return ip.PredictInto(im, dst)
	}
	return m.Predict(im)
}

// Predict implements Expert.
func (e *Ensemble) Predict(im *imagery.Image) []float64 {
	return e.PredictInto(im, make([]float64, imagery.NumLabels))
}

// PredictInto implements IntoPredictor: the alpha-weighted vote written
// into dst, with the member-vote temporary drawn from a pool so repeated
// scoring allocates nothing.
func (e *Ensemble) PredictInto(im *imagery.Image, dst []float64) []float64 {
	vp, _ := e.tmp.Get().(*[]float64)
	if vp == nil {
		b := make([]float64, imagery.NumLabels)
		vp = &b
	}
	vote := *vp
	mathx.Fill(dst, 0)
	anyWeight := false
	for i, m := range e.members {
		if e.alphas[i] <= 0 {
			continue
		}
		anyWeight = true
		mathx.AddScaled(dst, e.alphas[i], predictInto(m, im, vote))
	}
	e.tmp.Put(vp)
	if !anyWeight {
		// Untrained or fully down-weighted: uniform abstention.
		mathx.Fill(dst, 1/float64(imagery.NumLabels))
		return dst
	}
	mathx.Normalize(dst)
	return dst
}

// StandardCommittee builds the paper's committee — VGG16, BoVW and DDM —
// with distinct seeds derived from the given base seed.
func StandardCommittee(dims imagery.Dims, seed int64) []Expert {
	return StandardCommitteeWith(dims, seed, Options{})
}

// StandardCommitteeWith is StandardCommittee with the shared options
// (epochs, workers) applied to every member; the per-member seed still
// varies so the committee stays diverse.
func StandardCommitteeWith(dims imagery.Dims, seed int64, opts Options) []Expert {
	o := opts
	o.Seed = seed
	vgg := NewVGG16(dims, o)
	o.Seed = seed + 1
	bovw := NewBoVW(dims, o)
	o.Seed = seed + 2
	ddm := NewDDM(dims, o)
	return []Expert{vgg, bovw, ddm}
}
