// Command crowdbench is the repository benchmark: it drives the serving
// stack crowdlearnd runs — lab, bootstrapped CrowdLearn system, durable
// store with its write-ahead journal, assessment service and the HTTP
// /assess handler — with generated 10-image batches, checks every
// answer, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics) as the last line of its output:
//
//	{"correct": true, "attempted": 1234, "failed": 0, "metrics": {"assess_p50_ms": {"value": 31.2, "unit": "ms"}, ...}}
//
// Usage, from the repository root (run.sh builds the harness first):
//
//	bash _crowdbench/run.sh --workload crowd-cycle --seed 1 --seconds 36 --trace 0
//	bash _crowdbench/run.sh --workload all --seconds 36
//
// Workloads:
//
//   - crowd-cycle: one closed-loop client, persistence on. Isolates the
//     service time of a full crowd-AI sensing cycle.
//   - overload-shed: open loop at a fixed 60 requests/s with the
//     admission ladder on and four campaign tags; queue wait, admission
//     and the AI-only degraded tier carry most requests.
//   - restart-recover: an earlier process's state directory, crashed
//     with two dozen logged cycles past its newest checkpoint, is
//     recovered at every bring-up; then a closed loop runs.
//
// The harness lives in a directory whose name starts with an
// underscore, with a go.mod of its own, so `go build ./...`, `go test
// ./...` and the repository's lint pass over the main module leave it
// out. Run its tests with `go test` from this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// output is the result line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("crowdbench", flag.ContinueOnError)
	opt := defaultOptions()
	name := fs.String("workload", "crowd-cycle", "workload to run, or all")
	fs.Int64Var(&opt.seed, "seed", opt.seed, "seed of the generated request sequence")
	fs.Float64Var(&opt.seconds, "seconds", opt.seconds, "seconds of timed load per run")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace = *traceFlag == 1
	if (*traceFlag != 0 && *traceFlag != 1) || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "crowdbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := findWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "crowdbench: unknown workload %q\n", *name)
		return 2
	}

	out := output{Correct: true, Metrics: make(map[string]metricJSON)}
	for _, w := range selected {
		b, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "crowdbench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Printf("# %s: attempted %d, succeeded %d (shed %d), refused %d, failed %d\n",
			w.name, b.totals.attempted, b.totals.full+b.totals.shed, b.totals.shed, b.totals.refused, b.totals.failed)
		for _, m := range b.metrics {
			fmt.Printf("%-16s %-32s %14.4f %s\n", w.name, m.name, m.value, m.unit)
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				b.fail("metric %s has no finite value", m.name)
				v = 0
			}
			out.Metrics[key] = metricJSON{Value: v, Unit: m.unit}
		}
		for _, p := range b.problems {
			fmt.Printf("# CHECK FAILED (%s): %s\n", w.name, p)
		}
		out.Correct = out.Correct && len(b.problems) == 0
		out.Attempted += b.totals.attempted
		out.Failed += b.totals.failed
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "crowdbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		fmt.Fprintln(os.Stderr, "crowdbench: output checks failed")
		return 1
	}
	return 0
}
