package core

import (
	"sync"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/bandit"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/eval"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
)

// fixture holds the expensive shared test environment: dataset, platform,
// pilot study. Built once per test binary.
type fixture struct {
	ds    *imagery.Dataset
	pilot *crowd.PilotData
}

var (
	fixtureOnce sync.Once
	shared      fixture
)

func sharedFixture(t testing.TB) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		ds, err := imagery.Generate(imagery.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		platform := crowd.MustNewPlatform(crowd.DefaultConfig())
		pilot, err := crowd.RunPilot(platform, ds.Train, crowd.DefaultPilotConfig())
		if err != nil {
			t.Fatal(err)
		}
		shared = fixture{ds: ds, pilot: pilot}
	})
	return shared
}

// freshPlatform returns an isolated platform so schemes don't share
// worker RNG state across tests.
func freshPlatform() *crowd.Platform {
	return crowd.MustNewPlatform(crowd.DefaultConfig())
}

func newBootstrappedCrowdLearn(t testing.TB, f fixture) *CrowdLearn {
	t.Helper()
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestAIOnlyScheme(t *testing.T) {
	f := sharedFixture(t)
	expert := classifier.NewVGG16(imagery.DefaultDims, classifier.Options{Seed: 1})
	if err := expert.Train(classifier.SamplesFromImages(f.ds.Train)); err != nil {
		t.Fatal(err)
	}
	scheme, err := NewAIOnly(expert)
	if err != nil {
		t.Fatal(err)
	}
	if scheme.Name() != "vgg16" {
		t.Errorf("name %q", scheme.Name())
	}
	in := CycleInput{Context: crowd.Morning, Images: f.ds.Test[:10]}
	out, err := scheme.RunCycle(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Distributions) != 10 {
		t.Fatalf("got %d distributions", len(out.Distributions))
	}
	if out.CrowdDelay != 0 || len(out.Queried) != 0 || out.SpentDollars != 0 {
		t.Error("AI-only scheme must not touch the crowd")
	}
	wantDelay := 10 * expert.PerImageCost()
	if out.AlgorithmDelay != wantDelay {
		t.Errorf("algorithm delay %v, want %v", out.AlgorithmDelay, wantDelay)
	}
	if _, err := NewAIOnly(nil); err == nil {
		t.Error("nil expert must be rejected")
	}
}

func TestCycleInputValidation(t *testing.T) {
	f := sharedFixture(t)
	if err := (CycleInput{Context: crowd.TemporalContext(9), Images: f.ds.Test[:1]}).Validate(); err == nil {
		t.Error("invalid context must be rejected")
	}
	if err := (CycleInput{Context: crowd.Morning}).Validate(); err == nil {
		t.Error("empty image batch must be rejected")
	}
	if err := (CycleInput{Context: crowd.Morning, Images: []*imagery.Image{nil}}).Validate(); err == nil {
		t.Error("nil image must be rejected")
	}
}

func TestCrowdLearnRequiresBootstrap(t *testing.T) {
	f := sharedFixture(t)
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunCycle(CycleInput{Context: crowd.Morning, Images: f.ds.Test[:5]}); err == nil {
		t.Error("RunCycle before Bootstrap must error")
	}
	// Validation is not deferred with the training.
	if err := cl.Bootstrap(nil, f.pilot); err == nil {
		t.Error("Bootstrap with empty training set must error")
	}
	if cl.BootstrapPending() {
		t.Error("a rejected Bootstrap must leave nothing pending")
	}
}

func TestCrowdLearnCycleMechanics(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)
	in := CycleInput{Index: 0, Context: crowd.Evening, Images: f.ds.Test[:10]}
	out, err := cl.RunCycle(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Distributions) != 10 {
		t.Fatalf("distributions %d", len(out.Distributions))
	}
	if len(out.Queried) != 5 {
		t.Errorf("queried %d images, want 5", len(out.Queried))
	}
	if out.Incentive <= 0 {
		t.Error("incentive must be positive")
	}
	if out.CrowdDelay <= 0 {
		t.Error("crowd delay must be positive when queries were posted")
	}
	if out.SpentDollars != out.Incentive.Dollars()*5 {
		t.Errorf("spend %v inconsistent with incentive %v", out.SpentDollars, out.Incentive)
	}
	// Table III cost model: 10 images x (max member cost + overhead)
	// = 10 x (5.257 + 0.305) = 55.62s.
	want := 10 * (5257 + 305) * time.Millisecond
	if out.AlgorithmDelay != want {
		t.Errorf("algorithm delay %v, want %v", out.AlgorithmDelay, want)
	}
}

func TestCrowdLearnZeroQuerySizeIsAIOnly(t *testing.T) {
	f := sharedFixture(t)
	cfg := DefaultConfig()
	cfg.QuerySize = 0
	cl, err := New(cfg, freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		t.Fatal(err)
	}
	out, err := cl.RunCycle(CycleInput{Context: crowd.Morning, Images: f.ds.Test[:10]})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Queried) != 0 || out.SpentDollars != 0 {
		t.Error("query size 0 must not touch the crowd")
	}
}

func TestCrowdLearnBudgetExhaustionFallsBack(t *testing.T) {
	f := sharedFixture(t)
	cfg := DefaultConfig()
	cfg.Bandit.BudgetDollars = 0.05 // one 1-cent query round at most
	cl, err := New(cfg, freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		t.Fatal(err)
	}
	queriedTotal := 0
	for cycle := 0; cycle < 5; cycle++ {
		out, err := cl.RunCycle(CycleInput{Index: cycle, Context: crowd.Midnight, Images: f.ds.Test[cycle*10 : cycle*10+10]})
		if err != nil {
			t.Fatal(err)
		}
		queriedTotal += len(out.Queried)
	}
	if queriedTotal > 5 {
		t.Errorf("budget of $0.05 allowed %d queries", queriedTotal)
	}
}

func buildHybridPara(t *testing.T, f fixture, querySize int) *HybridPara {
	t.Helper()
	members := classifier.StandardCommittee(imagery.DefaultDims, 11)
	ens, err := classifier.NewEnsemble(members...)
	if err != nil {
		t.Fatal(err)
	}
	if err := ens.Train(classifier.SamplesFromImages(f.ds.Train)); err != nil {
		t.Fatal(err)
	}
	policy, err := bandit.NewFixed(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridPara(ens, policy, freshPlatform(), querySize, 3)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHybridParaCycle(t *testing.T) {
	f := sharedFixture(t)
	h := buildHybridPara(t, f, 5)
	out, err := h.RunCycle(CycleInput{Context: crowd.Afternoon, Images: f.ds.Test[:10]})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Queried) != 5 {
		t.Errorf("queried %d, want 5", len(out.Queried))
	}
	if out.Incentive != 10 {
		t.Errorf("fixed policy incentive %v, want 10c", out.Incentive)
	}
	if h.Name() != "hybrid-para" {
		t.Errorf("name %q", h.Name())
	}
}

func TestHybridALRetrains(t *testing.T) {
	f := sharedFixture(t)
	expert := classifier.NewDDM(imagery.DefaultDims, classifier.Options{Seed: 21})
	if err := expert.Train(classifier.SamplesFromImages(f.ds.Train)); err != nil {
		t.Fatal(err)
	}
	policy, err := bandit.NewFixed(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHybridAL(expert, policy, freshPlatform(), 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	in := CycleInput{Context: crowd.Evening, Images: f.ds.Test[:10]}
	before := expert.Predict(f.ds.Test[0])
	out, err := h.RunCycle(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Queried) != 5 {
		t.Errorf("queried %d, want 5", len(out.Queried))
	}
	after := expert.Predict(f.ds.Test[0])
	same := true
	for i := range before {
		if before[i] != after[i] {
			same = false
		}
	}
	if same {
		t.Error("hybrid-al cycle must retrain the expert")
	}
	if h.Name() != "hybrid-al" {
		t.Errorf("name %q", h.Name())
	}
}

func TestHybridConstructorsValidate(t *testing.T) {
	policy, _ := bandit.NewFixed(5, 10)
	expert := classifier.NewVGG16(imagery.DefaultDims, classifier.Options{})
	if _, err := NewHybridPara(nil, policy, freshPlatform(), 5, 1); err == nil {
		t.Error("nil expert must be rejected")
	}
	if _, err := NewHybridPara(expert, nil, freshPlatform(), 5, 1); err == nil {
		t.Error("nil policy must be rejected")
	}
	if _, err := NewHybridPara(expert, policy, nil, 5, 1); err == nil {
		t.Error("nil platform must be rejected")
	}
	if _, err := NewHybridPara(expert, policy, freshPlatform(), -1, 1); err == nil {
		t.Error("negative query size must be rejected")
	}
	if _, err := NewHybridAL(nil, policy, freshPlatform(), 5, 1); err == nil {
		t.Error("hybrid-al nil expert must be rejected")
	}
	if _, err := NewHybridAL(expert, policy, freshPlatform(), -2, 1); err == nil {
		t.Error("hybrid-al negative query size must be rejected")
	}
}

func TestCampaignConfigValidation(t *testing.T) {
	cfg := DefaultCampaignConfig()
	if err := cfg.Validate(400); err != nil {
		t.Errorf("default config vs 400 test images: %v", err)
	}
	if err := cfg.Validate(100); err == nil {
		t.Error("too-small test set must be rejected")
	}
	if err := (CampaignConfig{Cycles: 0, ImagesPerCycle: 1}).Validate(10); err == nil {
		t.Error("zero cycles must be rejected")
	}
	if err := (CampaignConfig{Cycles: 1, ImagesPerCycle: 0}).Validate(10); err == nil {
		t.Error("zero images per cycle must be rejected")
	}
}

func TestCampaignContextSchedule(t *testing.T) {
	cfg := DefaultCampaignConfig()
	// Round-robin schedule: 10 cycles per context over 40 cycles.
	wants := map[int]crowd.TemporalContext{
		0: crowd.Morning, 4: crowd.Morning,
		1: crowd.Afternoon, 39: crowd.Midnight,
		2: crowd.Evening, 3: crowd.Midnight,
	}
	for cycle, want := range wants {
		if got := cfg.contextOf(cycle); got != want {
			t.Errorf("cycle %d context %v, want %v", cycle, got, want)
		}
	}
	counts := make(map[crowd.TemporalContext]int)
	for cycle := 0; cycle < cfg.Cycles; cycle++ {
		counts[cfg.contextOf(cycle)]++
	}
	for _, ctx := range crowd.Contexts() {
		if counts[ctx] != 10 {
			t.Errorf("context %v scheduled %d cycles, want 10", ctx, counts[ctx])
		}
	}
}

// Full campaign smoke test reproducing the headline result direction:
// CrowdLearn must beat the strongest AI-only expert on F1 over the 40x10
// protocol, and its crowd delay must be positive but bounded.
func TestCampaignCrowdLearnBeatsAIOnly(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)

	ddm := classifier.NewDDM(imagery.DefaultDims, classifier.Options{Seed: 31})
	if err := ddm.Train(classifier.SamplesFromImages(f.ds.Train)); err != nil {
		t.Fatal(err)
	}
	aiOnly, err := NewAIOnly(ddm)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultCampaignConfig()
	clRes, err := RunCampaign(cl, f.ds.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aiRes, err := RunCampaign(aiOnly, f.ds.Test, cfg)
	if err != nil {
		t.Fatal(err)
	}

	clMetrics, err := eval.Compute(clRes.TrueLabels(), clRes.PredictedLabels())
	if err != nil {
		t.Fatal(err)
	}
	aiMetrics, err := eval.Compute(aiRes.TrueLabels(), aiRes.PredictedLabels())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("crowdlearn F1=%.3f acc=%.3f | ddm F1=%.3f acc=%.3f",
		clMetrics.F1, clMetrics.Accuracy, aiMetrics.F1, aiMetrics.Accuracy)
	if clMetrics.F1 <= aiMetrics.F1 {
		t.Errorf("CrowdLearn F1 %.3f must beat DDM %.3f", clMetrics.F1, aiMetrics.F1)
	}
	if clMetrics.Accuracy < 0.80 {
		t.Errorf("CrowdLearn accuracy %.3f below the paper's ~0.88 neighbourhood", clMetrics.Accuracy)
	}

	if clRes.MeanCrowdDelay() <= 0 {
		t.Error("CrowdLearn crowd delay must be positive")
	}
	if clRes.MeanCrowdDelay() > 20*time.Minute {
		t.Errorf("CrowdLearn crowd delay %v implausibly high", clRes.MeanCrowdDelay())
	}
	if aiRes.MeanCrowdDelay() != 0 {
		t.Error("AI-only crowd delay must be zero")
	}
	if clRes.QueriedCount() != 40*5 {
		t.Errorf("queried %d images, want 200", clRes.QueriedCount())
	}
	if spend := clRes.TotalSpend(); spend <= 0 || spend > DefaultConfig().Bandit.BudgetDollars+1e-9 {
		t.Errorf("total spend %v outside (0, budget]", spend)
	}
	byCtx := clRes.CrowdDelayByContext()
	if len(byCtx) != crowd.NumContexts {
		t.Errorf("crowd delay recorded for %d contexts, want %d", len(byCtx), crowd.NumContexts)
	}
}

func TestRunCampaignValidation(t *testing.T) {
	f := sharedFixture(t)
	if _, err := RunCampaign(nil, f.ds.Test, DefaultCampaignConfig()); err == nil {
		t.Error("nil scheme must be rejected")
	}
}
