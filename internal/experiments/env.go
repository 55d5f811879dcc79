// Package experiments contains one runner per table and figure of the
// paper's evaluation (Section V), plus the ablation studies called out in
// DESIGN.md. Each runner returns a typed result that renders the same
// rows/series the paper reports; the CLI (cmd/crowdlearn) and the
// benchmark harness (bench_test.go) both drive these runners.
package experiments

import (
	"fmt"

	"github.com/crowdlearn/crowdlearn/internal/bandit"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
)

// Config parameterises the whole evaluation environment.
type Config struct {
	// Seed drives every stochastic component.
	Seed int64
	// Dataset configures the synthetic Ecuador-earthquake-shaped corpus.
	Dataset imagery.Config
	// Platform configures the simulated MTurk.
	Platform crowd.Config
	// Pilot configures the pilot study.
	Pilot crowd.PilotConfig
	// Campaign configures the 40x10 sensing-cycle protocol.
	Campaign core.CampaignConfig
	// QuerySize is the per-cycle crowd query count for hybrid schemes
	// (paper: 5).
	QuerySize int
	// BudgetDollars is the crowdsourcing budget per scheme (paper default
	// experiments run at 20 USD: 10 cents/query average).
	BudgetDollars float64
	// Workers caps the goroutine fan-out of the evaluation: campaign arms
	// and fault scenarios run concurrently, and the value flows into every
	// assembled system as core.Config.Workers (0 = GOMAXPROCS,
	// 1 = sequential). Every result is bit-identical at any value.
	Workers int
}

// DefaultConfig reproduces the paper's evaluation setup.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Dataset:       imagery.DefaultConfig(),
		Platform:      crowd.DefaultConfig(),
		Pilot:         crowd.DefaultPilotConfig(),
		Campaign:      core.DefaultCampaignConfig(),
		QuerySize:     5,
		BudgetDollars: 20,
	}
}

// Env is the shared laboratory: the dataset and the pilot study are
// expensive to build and identical across experiments, so they are
// constructed once and reused. Platforms are created fresh per scheme so
// no scheme perturbs another's random stream.
type Env struct {
	Cfg     Config
	Dataset *imagery.Dataset
	Pilot   *crowd.PilotData
}

// NewEnv generates the dataset and runs the pilot study.
func NewEnv(cfg Config) (*Env, error) {
	cfg.Dataset.Seed = cfg.Seed
	ds, err := imagery.Generate(cfg.Dataset)
	if err != nil {
		return nil, fmt.Errorf("experiments: dataset: %w", err)
	}
	platform, err := crowd.NewPlatform(platformConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("experiments: platform: %w", err)
	}
	pilot, err := crowd.RunPilot(platform, ds.Train, cfg.Pilot)
	if err != nil {
		return nil, fmt.Errorf("experiments: pilot: %w", err)
	}
	return &Env{Cfg: cfg, Dataset: ds, Pilot: pilot}, nil
}

func platformConfig(cfg Config) crowd.Config {
	pc := cfg.Platform
	pc.Seed = cfg.Seed + 7
	return pc
}

// NewPlatform builds a fresh platform with the environment's
// configuration; every scheme under comparison gets its own.
func (e *Env) NewPlatform() *crowd.Platform {
	return crowd.MustNewPlatform(platformConfig(e.Cfg))
}

// banditConfig derives the IPD bandit configuration for a given query
// size and budget.
func (e *Env) banditConfig(querySize int, budget float64) bandit.Config {
	bc := bandit.DefaultConfig()
	bc.BudgetDollars = budget
	bc.TotalRounds = e.Cfg.Campaign.Cycles
	bc.QueriesPerRound = querySize
	if bc.QueriesPerRound < 1 {
		bc.QueriesPerRound = 1
	}
	bc.Seed = e.Cfg.Seed + 11
	return bc
}

// NewSystem assembles a bootstrapped CrowdLearn system with the
// environment's configured query size and budget — the one-call path for
// library users who want the paper's default deployment. Its bootstrap
// training is deferred to first use (core.CrowdLearn.Bootstrap), so a
// system that store.Recover restores from a checkpoint never trains.
func (e *Env) NewSystem() (*core.CrowdLearn, error) {
	return e.newCrowdLearn(e.Cfg.QuerySize, e.Cfg.BudgetDollars, nil)
}

// NewSystemWith is NewSystem with a configuration hook applied before
// assembly — the injection point for observability (core.Config.Metrics,
// core.Config.Tracer) and other per-deployment overrides.
func (e *Env) NewSystemWith(mutate func(*core.Config)) (*core.CrowdLearn, error) {
	return e.newCrowdLearn(e.Cfg.QuerySize, e.Cfg.BudgetDollars, mutate)
}

// NewSystemOn is NewSystemWith against a caller-supplied crowd platform —
// the injection point for fault-wrapped platforms (internal/faults).
func (e *Env) NewSystemOn(platform core.CrowdPlatform, mutate func(*core.Config)) (*core.CrowdLearn, error) {
	return e.newCrowdLearnOn(platform, e.Cfg.QuerySize, e.Cfg.BudgetDollars, mutate)
}

// newCrowdLearn assembles a bootstrapped CrowdLearn scheme on a fresh
// platform.
func (e *Env) newCrowdLearn(querySize int, budget float64, mutate func(*core.Config)) (*core.CrowdLearn, error) {
	return e.newCrowdLearnOn(e.NewPlatform(), querySize, budget, mutate)
}

// newCrowdLearnOn assembles a bootstrapped CrowdLearn scheme on the given
// platform.
func (e *Env) newCrowdLearnOn(platform core.CrowdPlatform, querySize int, budget float64, mutate func(*core.Config)) (*core.CrowdLearn, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = e.Cfg.Seed
	cfg.Dims = e.Cfg.Dataset.Dims
	cfg.QuerySize = querySize
	cfg.Workers = e.Cfg.Workers
	cfg.Bandit = e.banditConfig(querySize, budget)
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := core.New(cfg, platform)
	if err != nil {
		return nil, err
	}
	if err := cl.Bootstrap(e.Dataset.Train, e.Pilot); err != nil {
		return nil, err
	}
	return cl, nil
}

// trainedExpert builds and trains one of the AI-only experts by name.
func (e *Env) trainedExpert(name string, seedOffset int64) (classifier.Expert, error) {
	opts := classifier.Options{Seed: e.Cfg.Seed + seedOffset, Workers: e.Cfg.Workers}
	dims := e.Cfg.Dataset.Dims
	var expert classifier.Expert
	switch name {
	case "vgg16":
		expert = classifier.NewVGG16(dims, opts)
	case "bovw":
		expert = classifier.NewBoVW(dims, opts)
	case "ddm":
		expert = classifier.NewDDM(dims, opts)
	case "ensemble":
		ens, err := classifier.NewEnsemble(classifier.StandardCommitteeWith(dims, e.Cfg.Seed+seedOffset,
			classifier.Options{Workers: e.Cfg.Workers})...)
		if err != nil {
			return nil, err
		}
		ens.SetWorkers(e.Cfg.Workers)
		expert = ens
	default:
		return nil, fmt.Errorf("experiments: unknown expert %q", name)
	}
	if err := expert.Train(classifier.SamplesFromImages(e.Dataset.Train)); err != nil {
		return nil, err
	}
	return expert, nil
}

// fixedMaxPolicy builds the paper's fixed-incentive baseline policy for
// the given query volume and budget.
func (e *Env) fixedMaxPolicy(querySize int, budget float64) (*bandit.Fixed, error) {
	return bandit.NewFixedMax(e.banditConfig(querySize, budget))
}
