package crowdlearn

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (Section V). Each benchmark's measured unit is one
// full regeneration of the artefact from the shared lab environment:
//
//	go test -bench=. -benchmem
//
// The lab (dataset generation + pilot study) is built once outside the
// timed region. Run a single artefact with e.g. -bench=BenchmarkTable2.

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/parallel"
)

var (
	benchOnce sync.Once
	benchLab  *Lab
	benchErr  error
)

func lab(b *testing.B) *Lab {
	b.Helper()
	benchOnce.Do(func() {
		benchLab, benchErr = NewLab(DefaultLabConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// BenchmarkFig5PilotDelay regenerates Figure 5 (crowd response time vs
// incentive per temporal context).
func BenchmarkFig5PilotDelay(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig5(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6PilotQuality regenerates Figure 6 (label quality vs
// incentive with Wilcoxon tests).
func BenchmarkFig6PilotQuality(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig6(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1CQC regenerates Table I (aggregated label accuracy of
// CQC vs Voting, TD-EM, Filtering).
func BenchmarkTable1CQC(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTable1(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Accuracy regenerates Table II (classification metrics
// for all seven schemes) via a full campaign set.
func BenchmarkTable2Accuracy(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := RunCampaignSet(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := set.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ROC regenerates Figure 7 (macro-average ROC curves).
func BenchmarkFig7ROC(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := RunCampaignSet(env)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := set.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Delay regenerates Table III (algorithm + crowd delay per
// sensing cycle).
func BenchmarkTable3Delay(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := RunCampaignSet(env)
		if err != nil {
			b.Fatal(err)
		}
		_ = set.Table3()
	}
}

// BenchmarkFig8IncentivePolicies regenerates Figure 8 (crowd delay per
// temporal context for IPD vs fixed vs random incentives).
func BenchmarkFig8IncentivePolicies(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig8(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9QuerySetSize regenerates Figure 9 (query-set size vs F1).
func BenchmarkFig9QuerySetSize(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFig9(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10BudgetF1 regenerates Figure 10 (budget vs F1); the sweep
// also yields Figure 11.
func BenchmarkFig10BudgetF1(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBudgetSweep(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11BudgetDelay regenerates Figure 11 (budget vs crowd
// delay). It shares the sweep with Figure 10 but is kept as a separate
// target so every paper artefact has a named benchmark.
func BenchmarkFig11BudgetDelay(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunBudgetSweep(env)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CrowdDelay) == 0 {
			b.Fatal("budget sweep produced no delays")
		}
	}
}

// BenchmarkAblationMIC runs the CrowdLearn design-choice ablations
// (DESIGN.md §5): exploration, expert weights, retraining, offloading.
func BenchmarkAblationMIC(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunAblations(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCQCQuestionnaire runs the CQC questionnaire ablation.
func BenchmarkAblationCQCQuestionnaire(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCQCAblation(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationContextBlindBandit runs the IPD context ablation.
func BenchmarkAblationContextBlindBandit(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBanditAblation(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationQSSStrategies runs a full campaign per QSS selection
// strategy (entropy / margin / least-confidence / disagreement).
func BenchmarkAblationQSSStrategies(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunStrategyComparison(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpamRobustness runs the failure-injection sweep: quality
// control vs spammer fractions.
func BenchmarkSpamRobustness(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSpamRobustness(env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunCycleParallel measures one full sensing cycle of the
// assembled system (committee vote, QSS, IPD, crowd, CQC, MIC) at fixed
// worker counts, with the stage profiler and cycle tracer attached.
// Outputs are bit-identical across sub-benchmarks — only wall-clock
// changes — so the ratio of the workers=1 to workers=N ns/op is the
// parallel speedup on this machine; `make bench-json` records it in
// BENCH_parallel.json along with the per-stage extras reported below
// (stage wall, per-stage busy/idle and utilization), which attribute
// any multi-worker slowdown to the responsible stage.
//
// Set CROWDLEARN_TRACE_OUT=path to additionally dump each sub-
// benchmark's recorded cycle traces as path.workersN.json, readable
// with `go run ./cmd/crowdprof -i path.workersN.json`.
func BenchmarkRunCycleParallel(b *testing.B) {
	traceOut := os.Getenv("CROWDLEARN_TRACE_OUT")
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			env := lab(b)
			tracer := NewTracer(512)
			tracer.SetSampler(AllocSampler{})
			profiler := NewProfiler(nil)
			sys, err := env.NewSystemWith(func(cfg *SystemConfig) {
				cfg.Workers = workers
				cfg.Tracer = tracer
				cfg.Profiler = profiler
			})
			if err != nil {
				b.Fatal(err)
			}
			// The system defers its bootstrap training to first use;
			// train it here so the timed loop measures cycles only.
			if err := sys.EnsureBootstrapped(); err != nil {
				b.Fatal(err)
			}
			contexts := []TemporalContext{Morning, Afternoon, Evening, Midnight}
			test := env.Dataset.Test
			perCycle := 10
			windows := len(test) / perCycle
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := i % windows
				in := CycleInput{
					Index:   i,
					Context: contexts[i%len(contexts)],
					Images:  test[w*perCycle : (w+1)*perCycle],
				}
				if _, err := sys.RunCycle(in); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Per-stage attribution as benchmark extras: wall per op from
			// the trace ring (bounded — normalise by traced cycles, not
			// b.N), busy/idle/utilization from the profiler's running
			// totals across every cycle.
			traces := tracer.Recent(0)
			if n := len(traces); n > 0 {
				for stage, st := range AggregateStages(traces) {
					b.ReportMetric(float64(st.Wall.Nanoseconds())/float64(n), stage+":wall-ns/op")
				}
			}
			for _, st := range profiler.Snapshot() {
				if st.Loops == 0 {
					continue
				}
				b.ReportMetric(float64(st.Busy.Nanoseconds())/float64(st.Loops), st.Stage+":busy-ns/op")
				b.ReportMetric(float64(st.Idle.Nanoseconds())/float64(st.Loops), st.Stage+":idle-ns/op")
				b.ReportMetric(st.Utilization(), st.Stage+":util")
			}
			if traceOut != "" {
				path := fmt.Sprintf("%s.workers%d.json", strings.TrimSuffix(traceOut, ".json"), workers)
				data, err := json.Marshal(traces)
				if err != nil {
					b.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunCyclePipelined measures one journaled sensing cycle in
// sequential and pipelined commit modes against a real durable store
// (per-cycle WAL fsync, periodic snapshot-then-encode checkpoints).
// mode=sequential commits each cycle synchronously (RunCycle);
// mode=pipelined overlaps cycle N's commit with cycle N+1's compute
// through BeginCycle and a detached commit — RunCampaign's loop for a
// System whose journal detaches. Outputs and journal bytes are
// bit-identical across modes, so the sequential/pipelined ns/op ratio
// is the commit-overlap speedup; `make bench-json` records it in
// BENCH_parallel.json. Unlike
// worker fan-out, this gain does not need multiple cores — the overlap
// hides IO wait, not compute.
func BenchmarkRunCyclePipelined(b *testing.B) {
	for _, mode := range []string{"sequential", "pipelined"} {
		b.Run("mode="+mode, func(b *testing.B) {
			env := lab(b)
			// Recovering the empty directory trains the bootstrap model
			// before the timer starts.
			d, err := OpenDurableSystem(StateStoreOptions{Dir: b.TempDir()}, 4,
				func(j CycleJournal) (*System, error) {
					return env.NewSystemWith(func(cfg *SystemConfig) { cfg.Journal = j })
				},
				RecoverOptions{
					TrainSamples: SamplesFromImages(env.Dataset.Train),
					Registry:     env.Dataset.Test,
					Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
				})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Store.Close()
			sys := d.Sys
			contexts := []TemporalContext{Morning, Afternoon, Evening, Midnight}
			test := env.Dataset.Test
			perCycle := 10
			windows := len(test) / perCycle
			var join func() error
			settle := func() {
				if join == nil {
					return
				}
				if err := join(); err != nil {
					b.Fatal(err)
				}
				join = nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := i % windows
				in := CycleInput{
					Index:   i,
					Context: contexts[i%len(contexts)],
					Images:  test[w*perCycle : (w+1)*perCycle],
				}
				if mode == "sequential" {
					if _, err := sys.RunCycle(in); err != nil {
						b.Fatal(err)
					}
					continue
				}
				_, commit, err := sys.BeginCycle(in)
				settle() // epoch-merge barrier: previous commit lands first
				if err != nil {
					b.Fatal(err)
				}
				if commit.Detached() {
					join = parallel.Detach(commit.Run)
				} else if err := commit.Run(); err != nil {
					b.Fatal(err)
				}
			}
			settle()
			b.StopTimer()
		})
	}
}

// BenchmarkChurnRobustness runs the worker-turnover sweep.
func BenchmarkChurnRobustness(b *testing.B) {
	env := lab(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunChurnRobustness(env); err != nil {
			b.Fatal(err)
		}
	}
}
