package main

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/trajectory"
)

const sample = `goos: linux
goarch: amd64
pkg: github.com/crowdlearn/crowdlearn
cpu: Intel(R) Xeon(R)
BenchmarkRunCycleParallel/workers=1-8         	       5	 240000000 ns/op	  1024 B/op	      12 allocs/op
BenchmarkRunCycleParallel/workers=2-8         	      10	 126000000 ns/op	  1100 B/op	      14 allocs/op
BenchmarkRunCycleParallel/workers=4-8         	      18	  66000000 ns/op	  1200 B/op	      16 allocs/op
BenchmarkCommitteeVote-8                      	  200000	      6654 ns/op	      11 B/op	       0 allocs/op
PASS
ok  	github.com/crowdlearn/crowdlearn	12.345s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Intel(R) Xeon(R)" {
		t.Errorf("header = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	if len(rep.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkRunCycleParallel/workers=1-8" || b0.Iterations != 5 {
		t.Errorf("first benchmark = %+v", b0)
	}
	if b0.NsPerOp != 240000000 || *b0.BytesPerOp != 1024 || *b0.AllocsPerOp != 12 {
		t.Errorf("first benchmark units = %+v", b0)
	}
	vote := rep.Benchmarks[3]
	if *vote.AllocsPerOp != 0 {
		t.Errorf("vote allocs = %v, want 0", *vote.AllocsPerOp)
	}
	if b0.GoMaxProcs != 8 || b0.Workers != 1 {
		t.Errorf("first benchmark goMaxProcs/workers = %d/%d, want 8/1", b0.GoMaxProcs, b0.Workers)
	}
	if b4 := rep.Benchmarks[2]; b4.Workers != 4 {
		t.Errorf("workers=4 benchmark parsed workers %d", b4.Workers)
	}
	if vote.Workers != 0 || vote.GoMaxProcs != 8 {
		t.Errorf("vote goMaxProcs/workers = %d/%d, want 8/0", vote.GoMaxProcs, vote.Workers)
	}
}

// samplePipelined carries mode sub-benchmarks without a -cpu suffix,
// as a GOMAXPROCS=1 runner emits them.
const samplePipelined = `goos: linux
BenchmarkRunCyclePipelined/mode=sequential 30 200000000 ns/op
BenchmarkRunCyclePipelined/mode=pipelined 30 160000000 ns/op
PASS
`

func TestModeSpeedups(t *testing.T) {
	rep, err := parse(strings.NewReader(samplePipelined))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks[0].GoMaxProcs != 1 {
		t.Errorf("suffix-free benchmark goMaxProcs = %d, want 1", rep.Benchmarks[0].GoMaxProcs)
	}
	fam, ok := rep.Speedups["BenchmarkRunCyclePipelined"]
	if !ok {
		t.Fatalf("no mode speedup family: %+v", rep.Speedups)
	}
	want := map[string]float64{"sequential": 1.0, "pipelined": 200.0 / 160.0}
	for k, v := range want {
		if got := fam[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("speedup[%s] = %v, want %v", k, got, v)
		}
	}
}

// minSpeedupGate runs the -min-speedup floors through the gate rule.
func minSpeedupGate(rep *Report, spec string) error {
	checks, err := checkMinSpeedups(rep, spec)
	if err != nil {
		return err
	}
	return trajectory.Gate(checks)
}

func TestMinSpeedupGate(t *testing.T) {
	multi, err := parse(strings.NewReader(sample)) // -8 suffix: multi-core run
	if err != nil {
		t.Fatal(err)
	}
	if err := minSpeedupGate(multi, "BenchmarkRunCycleParallel:4:1.0"); err != nil {
		t.Errorf("3.6x speedup failed a 1.0x floor: %v", err)
	}
	if err := minSpeedupGate(multi, "BenchmarkRunCycleParallel:4:5.0"); err == nil {
		t.Error("3.6x speedup passed a 5.0x floor")
	}
	if err := minSpeedupGate(multi, "BenchmarkRunCycleParallel:16:1.0"); err == nil {
		t.Error("missing label passed the gate")
	}
	if err := minSpeedupGate(multi, "garbage"); err == nil {
		t.Error("malformed entry accepted")
	}
	// A GOMAXPROCS=1 run skips the assertion instead of failing.
	single, err := parse(strings.NewReader(samplePipelined))
	if err != nil {
		t.Fatal(err)
	}
	if err := minSpeedupGate(single, "BenchmarkRunCyclePipelined:pipelined:99"); err != nil {
		t.Errorf("single-core run must skip, got %v", err)
	}
}

func TestSpeedups(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	fam, ok := rep.Speedups["BenchmarkRunCycleParallel-8"]
	if !ok {
		t.Fatalf("no speedup family: %+v", rep.Speedups)
	}
	want := map[string]float64{"1": 1.0, "2": 240.0 / 126.0, "4": 240.0 / 66.0}
	for k, v := range want {
		if got := fam[k]; math.Abs(got-v) > 1e-9 {
			t.Errorf("speedup[%s] = %v, want %v", k, got, v)
		}
	}
	if len(rep.Speedups) != 1 {
		t.Error("non-workers benchmark must not produce a speedup family")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n")); err == nil {
		t.Error("empty bench output must be rejected")
	}
}

// sampleWithStages carries the per-stage extras BenchmarkRunCycleParallel
// reports: the committee.vote stage slows down at workers=4 while
// qss.select does not.
const sampleWithStages = `goos: linux
BenchmarkRunCycleParallel/workers=1-8 5 240000000 ns/op 100000 committee.vote:wall-ns/op 90000 committee.vote:busy-ns/op 0 committee.vote:idle-ns/op 0.95 committee.vote:util 50000 qss.select:wall-ns/op
BenchmarkRunCycleParallel/workers=4-8 5 400000000 ns/op 180000 committee.vote:wall-ns/op 95000 committee.vote:busy-ns/op 620000 committee.vote:idle-ns/op 0.13 committee.vote:util 48000 qss.select:wall-ns/op
PASS
`

func TestAttributionRanksSlowestStageFirst(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleWithStages))
	if err != nil {
		t.Fatal(err)
	}
	stages, ok := rep.Attribution["BenchmarkRunCycleParallel-8"]
	if !ok {
		t.Fatalf("no attribution family: %+v", rep.Attribution)
	}
	if len(stages) != 2 {
		t.Fatalf("attributed %d stages, want 2", len(stages))
	}
	top := stages[0]
	if top.Stage != "committee.vote" {
		t.Errorf("top slowdown stage = %s, want committee.vote", top.Stage)
	}
	if want := 80000.0; math.Abs(top.SlowdownNs-want) != 0 {
		t.Errorf("slowdown = %v, want %v", top.SlowdownNs, want)
	}
	if top.Utilization["4"] != 0.13 || top.IdleNsPerOp["4"] != 620000 {
		t.Errorf("per-workers extras missing: %+v", top)
	}
	if stages[1].Stage != "qss.select" || stages[1].SlowdownNs != 0 {
		t.Errorf("non-regressing stage = %+v, want qss.select with 0 slowdown", stages[1])
	}
}

// writeRun drives run() with -o into dir and returns the written
// document and its decoded current record.
func writeRun(t *testing.T, args []string, input, path string) (*trajectory.Document, *Report, error) {
	t.Helper()
	err := run(append(args, "-o", path), strings.NewReader(input))
	doc, rerr := trajectory.Read(path, schema)
	if rerr != nil {
		t.Fatalf("output at %s is not a trajectory: %v", path, rerr)
	}
	if doc == nil {
		return nil, nil, err
	}
	var cur Report
	if derr := json.Unmarshal(doc.Current, &cur); derr != nil {
		t.Fatalf("current record at %s: %v", path, derr)
	}
	return doc, &cur, err
}

func TestTrajectoryAppendsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	doc, cur, err := writeRun(t, nil, sample, path)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != schema || len(doc.History) != 0 {
		t.Fatalf("first write = schema %q, %d history entries", doc.Schema, len(doc.History))
	}
	if cur.RecordedAt == "" {
		t.Error("current record missing recordedAt stamp")
	}
	doc, cur, err = writeRun(t, nil, sampleWithStages, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.History) != 1 {
		t.Fatalf("second write kept %d history entries, want 1", len(doc.History))
	}
	var first Report
	if err := json.Unmarshal(doc.History[0], &first); err != nil {
		t.Fatal(err)
	}
	if len(first.Benchmarks) != 4 {
		t.Errorf("history entry has %d benchmarks, want the first run's 4", len(first.Benchmarks))
	}
	if len(cur.Benchmarks) != 2 {
		t.Errorf("current has %d benchmarks, want the second run's 2", len(cur.Benchmarks))
	}
}

func TestTrajectoryRetainBoundsHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	for i := 0; i < retain+3; i++ {
		if _, _, err := writeRun(t, nil, sample, path); err != nil {
			t.Fatal(err)
		}
	}
	doc, _, _ := writeRun(t, nil, sample, path)
	if len(doc.History) != retain {
		t.Errorf("kept %d history entries, want %d", len(doc.History), retain)
	}
}

// gateSample regresses workers=1 ns/op by 25% and workers=4 allocs/op
// by 50% against `sample`; workers=2 stays flat.
const gateSample = `goos: linux
BenchmarkRunCycleParallel/workers=1-8 5 300000000 ns/op 1024 B/op 12 allocs/op
BenchmarkRunCycleParallel/workers=2-8 10 126000000 ns/op 1100 B/op 14 allocs/op
BenchmarkRunCycleParallel/workers=4-8 18 66000000 ns/op 1200 B/op 24 allocs/op
PASS
`

// failedChecks returns the checks the gate rule fails.
func failedChecks(checks []trajectory.Check) []trajectory.Check {
	var out []trajectory.Check
	for _, c := range checks {
		if c.Failed() {
			out = append(out, c)
		}
	}
	return out
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	_, base, err := writeRun(t, nil, sample, baseline)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(gateSample))
	if err != nil {
		t.Fatal(err)
	}
	failed := failedChecks(gateCompare(base, cur, maxNsRegressPct, maxAllocsRegressPct))
	if len(failed) != 2 {
		t.Fatalf("gateCompare failed %d checks, want 2: %v", len(failed), failed)
	}
	if c := failed[0].Name; !strings.Contains(c, "workers=1-8 ns/op") {
		t.Errorf("first failure is %q, want workers=1 ns/op", c)
	}
	if c := failed[1].Name; !strings.Contains(c, "workers=4-8 allocs/op") {
		t.Errorf("second failure is %q, want workers=4 allocs/op", c)
	}

	// End to end: the gate run fails but still writes the artifact with
	// the baseline seeding its history.
	artifact := filepath.Join(dir, "latest.json")
	doc, _, err := writeRun(t, []string{"-gate", baseline}, gateSample, artifact)
	if err == nil || !strings.Contains(err.Error(), "GATE FAIL: BenchmarkRunCycleParallel/workers=1-8 ns/op") {
		t.Errorf("gate run = %v, want a workers=1 ns/op failure", err)
	}
	if doc == nil || len(doc.History) != 1 {
		t.Fatalf("failing gate must still write the artifact with baseline history, got %+v", doc)
	}
}

// sampleTwoProcs is a `-cpu 1,2` run: every benchmark twice, without a
// suffix at GOMAXPROCS 1 and with -2 at GOMAXPROCS 2.
const sampleTwoProcs = `goos: linux
BenchmarkRunCycleParallel/workers=1 300 2000000 ns/op 80 allocs/op
BenchmarkRunCycleParallel/workers=4 300 2100000 ns/op 80 allocs/op
BenchmarkRunCycleParallel/workers=1-2 300 2000000 ns/op 80 allocs/op
BenchmarkRunCycleParallel/workers=4-2 300 1000000 ns/op 80 allocs/op
PASS
`

// TestGatePairsByGoMaxProcs pins that a -cpu 1,2 run is judged and
// grouped per GOMAXPROCS: an unchanged rerun passes the gate, and each
// GOMAXPROCS keeps its own speedup family.
func TestGatePairsByGoMaxProcs(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	_, base, err := writeRun(t, nil, sampleTwoProcs, baseline)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parse(strings.NewReader(sampleTwoProcs))
	if err != nil {
		t.Fatal(err)
	}
	checks := gateCompare(base, cur, maxNsRegressPct, maxAllocsRegressPct)
	if len(checks) != 8 {
		t.Errorf("paired %d checks, want 8 (4 rows x ns/op, allocs/op)", len(checks))
	}
	if failed := failedChecks(checks); len(failed) != 0 {
		t.Errorf("unchanged rerun failed the gate: %v", failed)
	}

	want := map[string]map[string]float64{
		"BenchmarkRunCycleParallel":   {"1": 1, "4": 2.0 / 2.1},
		"BenchmarkRunCycleParallel-2": {"1": 1, "4": 2},
	}
	if len(cur.Speedups) != len(want) {
		t.Fatalf("speedup families = %v, want one per GOMAXPROCS", cur.Speedups)
	}
	for fam, ratios := range want {
		for label, v := range ratios {
			if got := cur.Speedups[fam][label]; math.Abs(got-v) > 1e-9 {
				t.Errorf("speedups[%s][%s] = %v, want %v", fam, label, got, v)
			}
		}
	}
	// The floor reads the largest GOMAXPROCS: 2x there, 0.95x at 1.
	if err := minSpeedupGate(cur, "BenchmarkRunCycleParallel:4:1.5"); err != nil {
		t.Errorf("2x speedup at GOMAXPROCS 2 failed a 1.5x floor: %v", err)
	}
	if err := run([]string{"-gate", baseline, "-min-speedup", "BenchmarkRunCycleParallel:4:1.5"},
		strings.NewReader(sampleTwoProcs)); err != nil {
		t.Errorf("unchanged -cpu 1,2 rerun failed end to end: %v", err)
	}
}

func TestGatePassesWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "BENCH.json")
	_, base, err := writeRun(t, nil, sample, baseline)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := writeRun(t, []string{"-gate", baseline}, sample, filepath.Join(dir, "latest.json")); err != nil {
		t.Fatalf("identical results must pass the gate: %v", err)
	}
	// Loose limits tolerate the regressed sample.
	cur, err := parse(strings.NewReader(gateSample))
	if err != nil {
		t.Fatal(err)
	}
	if err := trajectory.Gate(gateCompare(base, cur, 50, 120)); err != nil {
		t.Fatalf("limits must be tunable: %v", err)
	}
	if err := run([]string{"-gate", filepath.Join(dir, "absent.json")}, strings.NewReader(sample)); err == nil {
		t.Error("missing gate baseline must error")
	}
}
