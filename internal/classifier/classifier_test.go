package classifier

import (
	"math"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

func dataset(t *testing.T) *imagery.Dataset {
	t.Helper()
	ds, err := imagery.Generate(imagery.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func accuracyOn(e Expert, images []*imagery.Image) float64 {
	correct := 0
	for _, im := range images {
		if imagery.Label(mathx.ArgMax(e.Predict(im))) == im.TrueLabel {
			correct++
		}
	}
	return float64(correct) / float64(len(images))
}

func trainAll(t *testing.T, ds *imagery.Dataset) (vgg, bovw, ddm Expert) {
	t.Helper()
	samples := SamplesFromImages(ds.Train)
	vgg = NewVGG16(imagery.DefaultDims, Options{Seed: 1})
	bovw = NewBoVW(imagery.DefaultDims, Options{Seed: 2})
	ddm = NewDDM(imagery.DefaultDims, Options{Seed: 3})
	for _, e := range []Expert{vgg, bovw, ddm} {
		if err := e.Train(samples); err != nil {
			t.Fatalf("train %s: %v", e.Name(), err)
		}
	}
	return vgg, bovw, ddm
}

// Table II band check: each AI-only expert should land in the paper's
// accuracy neighbourhood, with BoVW clearly the weakest and DDM at least
// as strong as VGG16.
func TestExpertAccuracyBands(t *testing.T) {
	ds := dataset(t)
	vgg, bovw, ddm := trainAll(t, ds)
	accV := accuracyOn(vgg, ds.Test)
	accB := accuracyOn(bovw, ds.Test)
	accD := accuracyOn(ddm, ds.Test)
	t.Logf("test accuracy: vgg16=%.3f bovw=%.3f ddm=%.3f", accV, accB, accD)

	if accV < 0.65 || accV > 0.90 {
		t.Errorf("vgg16 accuracy %.3f outside [0.65, 0.90] (paper: 0.770)", accV)
	}
	if accB < 0.55 || accB > 0.82 {
		t.Errorf("bovw accuracy %.3f outside [0.55, 0.82] (paper: 0.670)", accB)
	}
	if accD < 0.68 || accD > 0.92 {
		t.Errorf("ddm accuracy %.3f outside [0.68, 0.92] (paper: 0.807)", accD)
	}
	if accB >= accD {
		t.Errorf("bovw (%.3f) should be weaker than ddm (%.3f)", accB, accD)
	}
}

// The innate failure property: experts must be (a) mostly wrong on
// deceptive images and (b) confidently so — that is what makes pure
// entropy-based query selection insufficient and motivates epsilon-greedy.
func TestExpertsFailOnDeceptiveImages(t *testing.T) {
	ds := dataset(t)
	vgg, _, ddm := trainAll(t, ds)

	var deceptive []*imagery.Image
	for _, im := range ds.Test {
		if im.Failure.Deceptive() {
			deceptive = append(deceptive, im)
		}
	}
	if len(deceptive) < 10 {
		t.Fatalf("only %d deceptive test images", len(deceptive))
	}
	for _, e := range []Expert{vgg, ddm} {
		acc := accuracyOn(e, deceptive)
		if acc > 0.35 {
			t.Errorf("%s accuracy on deceptive images %.3f; should fail badly", e.Name(), acc)
		}
		// Confidence check: mean entropy on deceptive images should be low
		// relative to maximum (they are *confidently* wrong).
		var meanH float64
		for _, im := range deceptive {
			meanH += mathx.Entropy(e.Predict(im))
		}
		meanH /= float64(len(deceptive))
		if meanH > 0.8*mathx.MaxEntropy(imagery.NumLabels) {
			t.Errorf("%s is too uncertain on deceptive images (H=%.3f); deception should look clean", e.Name(), meanH)
		}
	}
}

// Low-resolution images must induce high committee uncertainty — the
// failure mode entropy-based selection *does* catch.
func TestExpertsUncertainOnLowRes(t *testing.T) {
	ds := dataset(t)
	vgg, _, _ := trainAll(t, ds)
	var lowRes, clean []*imagery.Image
	for _, im := range ds.Test {
		switch im.Failure {
		case imagery.FailureLowRes:
			lowRes = append(lowRes, im)
		case imagery.FailureNone:
			clean = append(clean, im)
		}
	}
	meanEntropy := func(ims []*imagery.Image) float64 {
		var h float64
		for _, im := range ims {
			h += mathx.Entropy(vgg.Predict(im))
		}
		return h / float64(len(ims))
	}
	if hLow, hClean := meanEntropy(lowRes), meanEntropy(clean); hLow <= hClean {
		t.Errorf("low-res entropy %.3f should exceed clean entropy %.3f", hLow, hClean)
	}
}

func TestPredictIsDistribution(t *testing.T) {
	ds := dataset(t)
	vgg, _, _ := trainAll(t, ds)
	for _, im := range ds.Test[:25] {
		p := vgg.Predict(im)
		if math.Abs(mathx.Sum(p)-1) > 1e-9 {
			t.Fatalf("prediction sums to %v", mathx.Sum(p))
		}
	}
}

func TestUntrainedExpertAbstainsUniformly(t *testing.T) {
	ds := dataset(t)
	e := NewVGG16(imagery.DefaultDims, Options{Seed: 1})
	p := e.Predict(ds.Test[0])
	for _, x := range p {
		if math.Abs(x-1.0/3.0) > 1e-9 {
			t.Fatalf("untrained prediction %v, want uniform", p)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	e := NewVGG16(imagery.DefaultDims, Options{Seed: 1})
	if err := e.Train(nil); err == nil {
		t.Error("empty training set must error")
	}
	if err := e.Train([]Sample{{Image: nil, Target: []float64{1, 0, 0}}}); err == nil {
		t.Error("nil image must error")
	}
	ds := dataset(t)
	if err := e.Train([]Sample{{Image: ds.Train[0], Target: []float64{1}}}); err == nil {
		t.Error("bad target dim must error")
	}
	if err := e.Update(SamplesFromImages(ds.Train[:5])); err == nil {
		t.Error("Update before Train must error")
	}
}

func TestUpdateImprovesOnNewDistribution(t *testing.T) {
	ds := dataset(t)
	samples := SamplesFromImages(ds.Train)
	e := NewVGG16(imagery.DefaultDims, Options{Seed: 1, Epochs: 30})
	if err := e.Train(samples); err != nil {
		t.Fatal(err)
	}
	before := accuracyOn(e, ds.Test)
	// Update with correctly labelled test images (the best case for the
	// retraining strategy) must not wreck accuracy and should usually
	// help.
	if err := e.Update(SamplesFromImages(ds.Test[:100])); err != nil {
		t.Fatal(err)
	}
	after := accuracyOn(e, ds.Test)
	if after < before-0.05 {
		t.Errorf("update degraded accuracy badly: %.3f -> %.3f", before, after)
	}
}

func TestPerImageCosts(t *testing.T) {
	// Table III ordering: bovw < vgg16 < ddm < ensemble.
	vgg := NewVGG16(imagery.DefaultDims, Options{})
	bovw := NewBoVW(imagery.DefaultDims, Options{})
	ddm := NewDDM(imagery.DefaultDims, Options{})
	ens, err := NewEnsemble(vgg, bovw, ddm)
	if err != nil {
		t.Fatal(err)
	}
	if !(bovw.PerImageCost() < vgg.PerImageCost() &&
		vgg.PerImageCost() < ddm.PerImageCost() &&
		ddm.PerImageCost() < ens.PerImageCost()) {
		t.Errorf("cost ordering wrong: bovw=%v vgg=%v ddm=%v ens=%v",
			bovw.PerImageCost(), vgg.PerImageCost(), ddm.PerImageCost(), ens.PerImageCost())
	}
}

func TestEnsembleBeatsWeakestMember(t *testing.T) {
	ds := dataset(t)
	members := StandardCommittee(imagery.DefaultDims, 1)
	ens, err := NewEnsemble(members...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Train(SamplesFromImages(ds.Train)); err != nil {
		t.Fatal(err)
	}
	accEns := accuracyOn(ens, ds.Test)
	accBovw := accuracyOn(members[1], ds.Test)
	t.Logf("ensemble=%.3f bovw=%.3f", accEns, accBovw)
	if accEns <= accBovw {
		t.Errorf("ensemble (%.3f) should beat its weakest member (%.3f)", accEns, accBovw)
	}
	if accEns < 0.70 || accEns > 0.93 {
		t.Errorf("ensemble accuracy %.3f outside [0.70, 0.93] (paper: 0.815)", accEns)
	}
	alphas := ens.Alphas()
	if len(alphas) != 3 {
		t.Fatalf("alphas length %d", len(alphas))
	}
	// Every member beats chance on training data, so every alpha must be
	// strictly positive. (Relative order depends on training error, which
	// does not always track held-out strength.)
	for i, a := range alphas {
		if a <= 0 {
			t.Errorf("alpha[%d] = %.3f, want > 0", i, a)
		}
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(); err == nil {
		t.Error("empty ensemble must be rejected")
	}
	ens, err := NewEnsemble(NewVGG16(imagery.DefaultDims, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Train(nil); err == nil {
		t.Error("ensemble train with no samples must error")
	}
	if err := ens.Update(nil); err == nil {
		t.Error("ensemble update with no samples must error")
	}
}

func TestEnsembleUntrainedUniform(t *testing.T) {
	ds := dataset(t)
	ens, err := NewEnsemble(StandardCommittee(imagery.DefaultDims, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	p := ens.Predict(ds.Test[0])
	for _, x := range p {
		if math.Abs(x-1.0/3.0) > 1e-9 {
			t.Fatalf("untrained ensemble prediction %v, want uniform", p)
		}
	}
}

func TestStandardCommittee(t *testing.T) {
	c := StandardCommittee(imagery.DefaultDims, 7)
	if len(c) != 3 {
		t.Fatalf("committee size %d, want 3", len(c))
	}
	names := map[string]bool{}
	for _, e := range c {
		names[e.Name()] = true
	}
	for _, want := range []string{"vgg16", "bovw", "ddm"} {
		if !names[want] {
			t.Errorf("committee missing %s", want)
		}
	}
}

func TestSamplesFromImages(t *testing.T) {
	ds := dataset(t)
	samples := SamplesFromImages(ds.Train[:3])
	for i, s := range samples {
		if s.Image != ds.Train[i] {
			t.Fatal("sample image mismatch")
		}
		if mathx.ArgMax(s.Target) != int(s.Image.TrueLabel) {
			t.Fatal("one-hot target mismatch")
		}
	}
}
