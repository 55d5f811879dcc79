// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON record and maintains the repo's benchmark
// trajectory. It reads the benchmark output on stdin and writes one JSON
// document describing the machine (goos/goarch/cpu), every benchmark
// result, the parallel speedup of each `workers=N` sub-benchmark
// relative to workers=1, and — when the benchmarks report per-stage
// extras (stage:wall-ns/op etc., as BenchmarkRunCycleParallel does) — a
// per-stage attribution ranking which pipeline stage the multi-worker
// slowdown comes from.
//
// Writing with -o is append-with-history (internal/trajectory): the
// previous document's current record is pushed onto a bounded history,
// so the committed BENCH_*.json carries the performance trajectory, not
// just the latest point.
//
// With -gate the run doubles as a CI regression gate: each fresh result
// is paired with the baseline document's result of the same name at the
// same GOMAXPROCS, and the process exits non-zero when ns/op grows more
// than 20% or allocs/op more than 10%. The output document is still
// written first, so CI can upload it as an artifact even on failure.
//
// Usage:
//
//	go test -bench BenchmarkRunCycleParallel -benchmem -run xxx . | benchjson -o BENCH_parallel.json
//	go test -bench ... | benchjson -gate BENCH_parallel.json -o artefacts/bench-latest.json
//
// The committed BENCH_parallel.json is regenerated with `make bench-json`
// and gated in CI with `make bench-gate`.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/trajectory"
)

const (
	schema = "crowdlearn-bench/2"
	retain = 12 // history records kept
	// The -gate limits, in percent over the baseline.
	maxNsRegressPct     = 20
	maxAllocsRegressPct = 10
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -cpu suffix, e.g. "BenchmarkRunCycleParallel/workers=4-8".
	Name string `json:"name"`
	// GoMaxProcs is the GOMAXPROCS the benchmark ran at, parsed from
	// the -N suffix go test appends to the name (1 when absent). A
	// workers=4 result at goMaxProcs 1 measures scheduling overhead,
	// not parallelism — gates must read this before judging speedups.
	GoMaxProcs int `json:"goMaxProcs"`
	// Workers is the scheme worker count from the /workers=N sub-label
	// (0 when the benchmark carries none).
	Workers int `json:"workers,omitempty"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp is the reported B/op (-benchmem only).
	BytesPerOp *float64 `json:"bytesPerOp,omitempty"`
	// AllocsPerOp is the reported allocs/op (-benchmem only).
	AllocsPerOp *float64 `json:"allocsPerOp,omitempty"`
	// Extra holds any custom ReportMetric units.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is one recorded benchmark run.
type Report struct {
	// RecordedAt stamps the record (RFC 3339 UTC) so the trajectory's
	// history reads as a timeline.
	RecordedAt string `json:"recordedAt,omitempty"`
	// Goos/Goarch/CPU/Pkg echo the go test header lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Benchmarks are the parsed results in input order.
	Benchmarks []Result `json:"benchmarks"`
	// Speedups maps each benchmark family with workers=N sub-benchmarks
	// to the ns/op ratio of workers=1 over workers=N, and each family
	// with mode=X sub-benchmarks to the ratio of mode=sequential over
	// mode=X. A family is keyed per GOMAXPROCS the way go test names
	// it: "BenchmarkRunCycleParallel" at 1, "BenchmarkRunCycleParallel-2"
	// at 2.
	Speedups map[string]map[string]float64 `json:"speedups,omitempty"`
	// Attribution ranks, per workers=N family (keyed as Speedups), the
	// pipeline stages by their contribution to the multi-worker
	// slowdown, derived from the per-stage extras the instrumented
	// benchmarks report.
	Attribution map[string][]StageDelta `json:"attribution,omitempty"`
}

// StageDelta is one pipeline stage's multi-worker behaviour within a
// benchmark family, keyed by the workers label ("1", "2", ...). A
// positive SlowdownNs means the stage runs slower per op at some worker
// count than at workers=1 — the quantitative attribution of a parallel
// regression to its stage.
type StageDelta struct {
	// Stage is the pipeline stage name, e.g. "committee.vote".
	Stage string `json:"stage"`
	// WallNsPerOp is the stage's per-op wall time by worker count.
	WallNsPerOp map[string]float64 `json:"wallNsPerOp"`
	// SlowdownNs is the worst per-op wall increase over workers=1
	// across the other worker counts (0 when the stage never slows).
	SlowdownNs float64 `json:"slowdownNsPerOp"`
	// BusyNsPerOp / IdleNsPerOp are the profiled loop's per-op worker
	// busy and idle time by worker count (profiled stages only).
	BusyNsPerOp map[string]float64 `json:"busyNsPerOp,omitempty"`
	IdleNsPerOp map[string]float64 `json:"idleNsPerOp,omitempty"`
	// Utilization is busy/(workers*wall) by worker count.
	Utilization map[string]float64 `json:"utilization,omitempty"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.+)$`)

// parse consumes `go test -bench` output and builds the report.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	headers := map[string]*string{"goos": &rep.Goos, "goarch": &rep.Goarch, "cpu": &rep.CPU, "pkg": &rep.Pkg}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		// Header lines repeat per package when several `go test` runs are
		// concatenated; the first occurrence wins.
		if key, val, _ := strings.Cut(line, ":"); headers[key] != nil {
			if *headers[key] == "" {
				*headers[key] = strings.TrimSpace(val)
			}
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchjson: iterations in %q: %w", line, err)
		}
		res := Result{Name: m[1], Iterations: iters, GoMaxProcs: 1}
		if pm := cpuSuffix.FindStringSubmatch(m[1]); pm != nil {
			if procs, err := strconv.Atoi(strings.TrimPrefix(pm[0], "-")); err == nil && procs > 0 {
				res.GoMaxProcs = procs
			}
		}
		if wm := workersLabel.FindStringSubmatch(m[1]); wm != nil {
			res.Workers, _ = strconv.Atoi(wm[1])
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: value in %q: %w", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = &v
			case "allocs/op":
				res.AllocsPerOp = &v
			default:
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[unit] = v
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Speedups = speedups(rep.Benchmarks)
	rep.Attribution = attribution(rep.Benchmarks)
	return rep, nil
}

// The name patterns capture the family, the sub-benchmark label and the
// -N GOMAXPROCS suffix; family plus suffix keys a speedup family, so
// runs at different GOMAXPROCS never share one.
var (
	workersName = regexp.MustCompile(`^(Benchmark\S+)/workers=(\d+)(-\d+)?$`)
	// workersLabel finds a workers sub-label anywhere in a benchmark
	// name, including under further sub-benchmark path segments.
	workersLabel = regexp.MustCompile(`/workers=(\d+)`)
	// modeName matches execution-mode sub-benchmarks; mode=sequential
	// is the speedup baseline for its family.
	modeName = regexp.MustCompile(`^(Benchmark\S+)/mode=([A-Za-z]+)(-\d+)?$`)
)

// speedups derives the workers=1 / workers=N ns/op ratio per benchmark
// family that exposes workers sub-benchmarks, and the
// mode=sequential / mode=X ratio per family exposing mode
// sub-benchmarks (e.g. BenchmarkRunCyclePipelined's
// sequential-vs-pipelined pair).
func speedups(results []Result) map[string]map[string]float64 {
	type entry struct{ workers, ns float64 }
	families := make(map[string][]entry)
	for _, r := range results {
		m := workersName.FindStringSubmatch(r.Name)
		if m == nil || r.NsPerOp <= 0 {
			continue
		}
		w, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		families[m[1]+m[3]] = append(families[m[1]+m[3]], entry{workers: w, ns: r.NsPerOp})
	}
	out := make(map[string]map[string]float64)
	for fam, entries := range families {
		var base float64
		for _, e := range entries {
			if e.workers == 1 {
				base = e.ns
			}
		}
		if base == 0 {
			continue
		}
		ratios := make(map[string]float64, len(entries))
		for _, e := range entries {
			ratios[strconv.Itoa(int(e.workers))] = base / e.ns
		}
		out[fam] = ratios
	}
	modes := make(map[string]map[string]float64)
	for _, r := range results {
		m := modeName.FindStringSubmatch(r.Name)
		if m == nil || r.NsPerOp <= 0 {
			continue
		}
		fam := m[1] + m[3]
		if modes[fam] == nil {
			modes[fam] = make(map[string]float64)
		}
		modes[fam][m[2]] = r.NsPerOp
	}
	for fam, byMode := range modes {
		base, ok := byMode["sequential"]
		if !ok || base <= 0 {
			continue
		}
		ratios := out[fam]
		if ratios == nil {
			ratios = make(map[string]float64, len(byMode))
			out[fam] = ratios
		}
		for mode, ns := range byMode {
			ratios[mode] = base / ns
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// stageExtra matches the per-stage extras the instrumented benchmarks
// report via b.ReportMetric: "<stage>:wall-ns/op" and friends.
var stageExtra = regexp.MustCompile(`^(.+):(wall-ns/op|busy-ns/op|idle-ns/op|util)$`)

// attribution derives the per-stage slowdown ranking for every workers=N
// family whose sub-benchmarks carry stage extras. Stages sort by worst
// slowdown over workers=1 first — the top entry names the stage a
// multi-worker regression comes from.
func attribution(results []Result) map[string][]StageDelta {
	type stageKey struct{ fam, stage string }
	deltas := make(map[stageKey]*StageDelta)
	for _, r := range results {
		m := workersName.FindStringSubmatch(r.Name)
		if m == nil || len(r.Extra) == 0 {
			continue
		}
		fam, workers := m[1]+m[3], m[2]
		for unit, v := range r.Extra {
			em := stageExtra.FindStringSubmatch(unit)
			if em == nil {
				continue
			}
			key := stageKey{fam, em[1]}
			sd, ok := deltas[key]
			if !ok {
				sd = &StageDelta{Stage: em[1], WallNsPerOp: make(map[string]float64)}
				deltas[key] = sd
			}
			set := func(dst *map[string]float64) {
				if *dst == nil {
					*dst = make(map[string]float64)
				}
				(*dst)[workers] = v
			}
			switch em[2] {
			case "wall-ns/op":
				sd.WallNsPerOp[workers] = v
			case "busy-ns/op":
				set(&sd.BusyNsPerOp)
			case "idle-ns/op":
				set(&sd.IdleNsPerOp)
			case "util":
				set(&sd.Utilization)
			}
		}
	}
	out := make(map[string][]StageDelta)
	for key, sd := range deltas {
		base, hasBase := sd.WallNsPerOp["1"]
		if hasBase {
			for workers, ns := range sd.WallNsPerOp {
				if workers != "1" && ns-base > sd.SlowdownNs {
					sd.SlowdownNs = ns - base
				}
			}
		}
		out[key.fam] = append(out[key.fam], *sd)
	}
	for fam := range out {
		sort.Slice(out[fam], func(a, b int) bool {
			if out[fam][a].SlowdownNs != out[fam][b].SlowdownNs {
				return out[fam][a].SlowdownNs > out[fam][b].SlowdownNs
			}
			return out[fam][a].Stage < out[fam][b].Stage
		})
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// cpuSuffix is the -N GOMAXPROCS suffix go test appends to benchmark
// names run at GOMAXPROCS > 1.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// gateCompare pairs the fresh report's benchmarks with the baseline's
// and returns one check per paired metric: ns/op may grow at most
// maxNsPct percent, allocs/op at most maxAllocsPct. Pairing is by full
// name, which carries the -N suffix, so a result is judged only against
// the baseline run at the same GOMAXPROCS. Benchmarks present on only
// one side are skipped: the gate checks trajectories, not coverage.
func gateCompare(base, cur *Report, maxNsPct, maxAllocsPct float64) []trajectory.Check {
	baseline := make(map[string]Result, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Name] = b
	}
	var checks []trajectory.Check
	for _, b := range cur.Benchmarks {
		bl, ok := baseline[b.Name]
		if !ok {
			continue
		}
		if bl.NsPerOp > 0 {
			checks = append(checks, trajectory.Check{
				Name:  fmt.Sprintf("%s ns/op (baseline %.4g +%g%%)", b.Name, bl.NsPerOp, maxNsPct),
				Value: b.NsPerOp, Limit: bl.NsPerOp * (1 + maxNsPct/100), Better: trajectory.Lower})
		}
		if bl.AllocsPerOp != nil && b.AllocsPerOp != nil {
			checks = append(checks, trajectory.Check{
				Name:  fmt.Sprintf("%s allocs/op (baseline %.4g +%g%%)", b.Name, *bl.AllocsPerOp, maxAllocsPct),
				Value: *b.AllocsPerOp, Limit: *bl.AllocsPerOp * (1 + maxAllocsPct/100), Better: trajectory.Lower})
		}
	}
	return checks
}

// checkMinSpeedups turns a comma-separated list of "Family:label:min"
// floors into checks against the report's speedups at the largest
// GOMAXPROCS the run used. The floors are only meaningful on a
// multi-core runner: when every parsed benchmark ran at GOMAXPROCS=1,
// each is skipped with a printed notice instead of failing, so
// single-core CI runners do not produce false regressions (one P runs
// one goroutine at a time, so the expected ratio is ~1.0 at best). A
// malformed entry or a floor on a speedup the run did not record is an
// error.
func checkMinSpeedups(rep *Report, spec string) ([]trajectory.Check, error) {
	maxProcs := 1
	for _, b := range rep.Benchmarks {
		maxProcs = max(maxProcs, b.GoMaxProcs)
	}
	suffix := ""
	if maxProcs > 1 {
		suffix = fmt.Sprintf("-%d", maxProcs)
	}
	var checks []trajectory.Check
	var errs []error
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("invalid -min-speedup entry %q (want Family:label:min)", entry)
		}
		min, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, fmt.Errorf("invalid -min-speedup threshold in %q: %w", entry, err)
		}
		if maxProcs <= 1 {
			fmt.Fprintf(os.Stderr, "benchjson: min-speedup %s SKIPPED: run executed at GOMAXPROCS=1 (single-core runner cannot demonstrate parallel speedup)\n", entry)
			continue
		}
		fam := parts[0] + suffix
		got, ok := rep.Speedups[fam][parts[1]]
		if !ok {
			errs = append(errs, fmt.Errorf("min-speedup %s: no speedup recorded for label %q", fam, parts[1]))
			continue
		}
		checks = append(checks, trajectory.Check{
			Name: fmt.Sprintf("%s[%s] speedup", fam, parts[1]), Value: got, Limit: min, Better: trajectory.Higher})
	}
	return checks, errors.Join(errs...)
}

func main() {
	if err := run(os.Args[1:], os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "", "output file (default stdout); an existing trajectory there is extended, its current record moving into history")
	gate := fs.String("gate", "", "baseline trajectory to compare against; regressions beyond the limits fail the run after the output is written")
	minSpeedup := fs.String("min-speedup", "", "comma-separated Family:label:min entries asserted against the run's computed speedups at its largest GOMAXPROCS, e.g. BenchmarkRunCycleParallel:4:1.0; skipped with a notice when the run executed at GOMAXPROCS=1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rep, err := parse(in)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found on stdin")
	}
	rep.RecordedAt = time.Now().UTC().Format(time.RFC3339)

	checks, gateErr := checkMinSpeedups(rep, *minSpeedup)
	floors := len(checks)
	var baseline *trajectory.Document
	if *gate != "" {
		if baseline, err = trajectory.Read(*gate, schema); err != nil {
			return err
		}
		if baseline == nil {
			return fmt.Errorf("gate baseline %s does not exist", *gate)
		}
		var base Report
		if err := json.Unmarshal(baseline.Current, &base); err != nil {
			return fmt.Errorf("gate baseline %s: %w", *gate, err)
		}
		checks = append(checks, gateCompare(&base, rep, maxNsRegressPct, maxAllocsRegressPct)...)
	}
	gateErr = errors.Join(gateErr, trajectory.Gate(checks))
	if gateErr == nil && len(checks) > 0 {
		for _, c := range checks[:floors] {
			fmt.Fprintln(os.Stderr, "benchjson: GATE OK:", c)
		}
		fmt.Fprintf(os.Stderr, "benchjson: gate passed, %d check(s) within limits\n", len(checks))
	}

	// Append-with-history: the previous document at -o seeds the
	// history; with a fresh -o (a CI artifact) the gate baseline does,
	// so the artifact still carries the trajectory it was judged
	// against.
	prev := baseline
	if *out != "" {
		doc, err := trajectory.Read(*out, schema)
		if err != nil {
			return err
		}
		if doc != nil {
			prev = doc
		}
	}
	doc, err := trajectory.Append(prev, schema, rep, retain)
	if err != nil {
		return err
	}
	data, err := doc.Marshal()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	return errors.Join(err, gateErr)
}
