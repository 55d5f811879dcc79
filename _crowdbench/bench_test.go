package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/service"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.99, 3.97}, {1, 4},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 1, Start: 15, End: 20},
		{ID: 3, Parent: 0, Start: 50, End: 90},
	}
	want := []time.Duration{30, 25, 5, 40}
	self := selfTimes(spans)
	var sum time.Duration
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d self = %v, want %v", i, self[i], want[i])
		}
		sum += self[i]
	}
	if sum != spans[0].dur() {
		t.Errorf("self times of a well-nested tree sum to %v, want the root's %v", sum, spans[0].dur())
	}
}

func TestSelfTimesOverlapAndEscape(t *testing.T) {
	// Children 1 and 2 overlap; child 3 runs past its parent's end.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},
		{ID: 3, Parent: 0, Start: 90, End: 120},
	}
	self := selfTimes(spans)
	// The root is covered by [10,60] and [90,100]: 60 of its 100.
	if self[0] != 40 {
		t.Errorf("root self = %v, want 40", self[0])
	}
	var sum time.Duration
	for _, s := range self {
		sum += s
	}
	if sum <= spans[0].dur() {
		t.Errorf("overlapping and escaping children sum to %v, want more than the root's %v", sum, spans[0].dur())
	}
}

func TestCheckResponseBudgetGuard(t *testing.T) {
	images := []*imagery.Image{{ID: 7, TrueLabel: imagery.NoDamage}, {ID: 9, TrueLabel: imagery.SevereDamage}}
	req := request{images: images}
	answer := func(source string) service.Assessment {
		return service.Assessment{Label: imagery.NoDamage, LabelName: imagery.NoDamage.String(), Confidence: 0.8, Source: source}
	}
	full := &service.Response{QueriedImageIDs: []int{9}, Assessments: []service.Assessment{answer("ai"), answer("crowd")}}
	full.Assessments[0].ImageID, full.Assessments[1].ImageID = 7, 9
	if err := checkResponse(req, full); err != nil {
		t.Fatalf("valid full cycle rejected: %v", err)
	}
	aiOnly := &service.Response{Assessments: []service.Assessment{answer("ai"), answer("ai")}}
	aiOnly.Assessments[0].ImageID, aiOnly.Assessments[1].ImageID = 7, 9
	if err := checkResponse(req, aiOnly); err == nil {
		t.Error("a full cycle without crowd queries passed the budget guard")
	}
	aiOnly.Shed, aiOnly.DegradedImageIDs = true, []int{7, 9}
	if err := checkResponse(req, aiOnly); err != nil {
		t.Errorf("valid shed answer rejected: %v", err)
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWorkloadsMatchBenchmarkFile keeps BENCHMARK.json's workload list
// and the fixed rates and limits its lines state in step with the
// harness.
func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		fw := f.Workloads[i]
		if fw.Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, fw.Name, w.name)
		}
		if limit := fmt.Sprintf("limit %d ms", w.limit.Milliseconds()); !strings.Contains(fw.Why, limit) {
			t.Errorf("%s: BENCHMARK.json does not state the %s", w.name, limit)
		}
		if rate := strconv.FormatFloat(w.rate, 'f', -1, 64) + " req/s"; w.rate > 0 && !strings.Contains(fw.Why, rate) {
			t.Errorf("%s: BENCHMARK.json does not state the %s rate", w.name, rate)
		}
	}
}

// smokeOptions sizes a brief run: two bring-ups so the cross-bring-up
// check runs, the full warm-up, and a short crash image.
func smokeOptions(t *testing.T, trace bool) options {
	opt := defaultOptions()
	opt.seconds = 1
	opt.trace = trace
	opt.bringUps = 2
	opt.probe = 2
	opt.prepCycles = 44
	opt.prepCheckpointEvery = 32
	opt.reference = 4
	opt.dir = t.TempDir()
	return opt
}

// TestSmoke runs every workload briefly, untraced and traced, and
// requires every check to pass and every metric BENCHMARK.json names
// to be reported with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("brings the serving stack up a dozen times")
	}
	f := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			b, err := runWorkload(w, smokeOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			for _, p := range b.problems {
				t.Errorf("%s trace=%v: %s", w.name, trace, p)
			}
			if b.totals.attempted == 0 || b.totals.failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", w.name, trace, b.totals.attempted, b.totals.failed)
			}
			got := make(map[string]metric)
			for _, m := range b.metrics {
				got[m.name] = m
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: reported %d metrics, BENCHMARK.json names %d", w.name, trace, len(got), len(want))
			}
			for _, m := range want {
				g, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not reported", w.name, trace, m.Name)
				case g.unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, g.unit, m.Unit)
				case math.IsNaN(g.value) || math.IsInf(g.value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, g.value)
				}
			}
		}
	}
}
