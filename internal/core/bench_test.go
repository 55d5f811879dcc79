package core

import (
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/obs"
)

// benchSystem builds a bootstrapped CrowdLearn whose budget and round
// horizon are effectively unbounded, so every benchmark iteration
// exercises the full five-stage pipeline rather than drifting into the
// budget-exhausted AI-only path.
func benchSystem(b *testing.B, mutate func(*Config)) (*CrowdLearn, fixture) {
	f := sharedFixture(b)
	cfg := DefaultConfig()
	cfg.Bandit.BudgetDollars = 1e9
	cfg.Bandit.TotalRounds = 1 << 30
	if mutate != nil {
		mutate(&cfg)
	}
	cl, err := New(cfg, freshPlatform())
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		b.Fatal(err)
	}
	return cl, f
}

func runCycleBench(b *testing.B, cl *CrowdLearn, f fixture) {
	b.Helper()
	n := len(f.ds.Test) / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := CycleInput{
			Index:   i,
			Context: crowd.TemporalContext(i % crowd.NumContexts),
			Images:  f.ds.Test[(i%n)*10 : (i%n+1)*10],
		}
		if _, err := cl.RunCycle(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCycle measures the uninstrumented closed loop: Metrics
// and Tracer both nil, so instrumentation costs only nil checks.
// Compare against BenchmarkRunCycleObserved for the overhead of full
// observability.
func BenchmarkRunCycle(b *testing.B) {
	cl, f := benchSystem(b, nil)
	runCycleBench(b, cl, f)
}

// BenchmarkRunCycleObserved runs the same loop with a live registry and
// tracer attached.
func BenchmarkRunCycleObserved(b *testing.B) {
	cl, f := benchSystem(b, func(cfg *Config) {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(64)
	})
	runCycleBench(b, cl, f)
}

// BenchmarkBootstrap measures a cold start's training: New, Bootstrap
// and the deferred training EnsureBootstrapped runs — the three expert
// fits and the CQC fit on the shared fixture.
func BenchmarkBootstrap(b *testing.B) {
	f := sharedFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := New(DefaultConfig(), freshPlatform())
		if err != nil {
			b.Fatal(err)
		}
		if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
			b.Fatal(err)
		}
		if err := cl.EnsureBootstrapped(); err != nil {
			b.Fatal(err)
		}
	}
}
