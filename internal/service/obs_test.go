package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// clFixture builds the expensive full CrowdLearn environment (dataset +
// pilot study) once for the observability endpoint tests.
var (
	clOnce  sync.Once
	clDS    *imagery.Dataset
	clPilot *crowd.PilotData
	clErr   error
)

func crowdLearnFixture(t *testing.T) (*imagery.Dataset, *crowd.PilotData) {
	t.Helper()
	clOnce.Do(func() {
		clDS, clErr = imagery.Generate(imagery.DefaultConfig())
		if clErr != nil {
			return
		}
		platform := crowd.MustNewPlatform(crowd.DefaultConfig())
		clPilot, clErr = crowd.RunPilot(platform, clDS.Train, crowd.DefaultPilotConfig())
	})
	if clErr != nil {
		t.Fatal(clErr)
	}
	return clDS, clPilot
}

// startObservedCrowdLearn wires a bootstrapped CrowdLearn system,
// registry and tracer into a running service + handler.
func startObservedCrowdLearn(t *testing.T) (*Handler, *obs.Registry, *obs.Tracer, *imagery.Dataset) {
	t.Helper()
	ds, pilot := crowdLearnFixture(t)
	registry := obs.NewRegistry()
	tracer := obs.NewTracer(32)
	cfg := core.DefaultConfig()
	cfg.Metrics = registry
	cfg.Tracer = tracer
	cl, err := core.New(cfg, crowd.MustNewPlatform(crowd.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(ds.Train, pilot); err != nil {
		t.Fatal(err)
	}
	svc, err := New(cl, WithMetrics(registry), WithTracer(tracer))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	handler, err := NewHandler(svc, ds.Test, WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err != nil {
		t.Fatal(err)
	}
	return handler, registry, tracer, ds
}

func assessIDs(t *testing.T, h *Handler, ids []int) {
	t.Helper()
	body, _ := json.Marshal(AssessRequest{Context: "morning", ImageIDs: ids})
	req := httptest.NewRequest(http.MethodPost, "/assess", bytes.NewReader(body))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("assess status %d: %s", rr.Code, rr.Body.String())
	}
}

// parseExposition is the minimal Prometheus text-format checker: every
// non-comment line must be `series value` with a float value, and every
// TYPE comment must name a known kind.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram", "untyped":
			default:
				t.Fatalf("unknown metric type in %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

func scrape(t *testing.T, h *Handler) (string, map[string]float64) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("content type %q", ct)
	}
	text := rr.Body.String()
	return text, parseExposition(t, text)
}

func TestMetricsEndpointExposition(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	assessIDs(t, h, []int{ds.Test[0].ID, ds.Test[1].ID, ds.Test[2].ID})

	text, samples := parseExpositionAfterScrape(t, h)
	// Counters the acceptance criteria name: cycles, images, queries.
	for _, name := range []string{
		core.MetricCycles, core.MetricImages, core.MetricQueries,
	} {
		if samples[name] <= 0 {
			t.Errorf("counter %s = %v, want > 0", name, samples[name])
		}
	}
	// Gauges: budget remaining and one weight per expert.
	if v, ok := samples[core.MetricBudgetRemaining]; !ok || v <= 0 {
		t.Errorf("budget gauge %v (present=%v)", v, ok)
	}
	weightSeries := 0
	for series := range samples {
		if strings.HasPrefix(series, core.MetricExpertWeight+"{expert=") {
			weightSeries++
		}
	}
	if weightSeries == 0 {
		t.Error("no expert weight gauges exposed")
	}
	// Request-latency histogram is present with sum/count.
	if _, ok := samples[supervise.MetricAssessDuration+"_count"]; !ok {
		t.Errorf("assess latency histogram missing:\n%s", text)
	}
	if !strings.Contains(text, MetricHTTPDuration+"_bucket{path=\"/assess\"") {
		t.Error("http latency histogram missing /assess series")
	}
}

// parseExpositionAfterScrape scrapes twice so the first scrape's own
// request accounting is visible, then parses.
func parseExpositionAfterScrape(t *testing.T, h *Handler) (string, map[string]float64) {
	t.Helper()
	scrape(t, h)
	return scrape(t, h)
}

func TestMetricsHistogramBucketsMonotone(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	for i := 0; i < 3; i++ {
		assessIDs(t, h, []int{ds.Test[3*i].ID, ds.Test[3*i+1].ID, ds.Test[3*i+2].ID})
	}
	text, _ := scrape(t, h)
	// Collect cumulative bucket counts per histogram series prefix in
	// order of appearance; each must be non-decreasing and end at +Inf.
	var prev float64
	var prevSeries string
	sc := bufio.NewScanner(strings.NewReader(text))
	checked := 0
	for sc.Scan() {
		line := sc.Text()
		cut := strings.Index(line, "_bucket{")
		if cut < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:cut]
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if series != prevSeries {
			prevSeries, prev = series, 0
		}
		if v < prev {
			t.Errorf("bucket counts not cumulative in %q: %v < %v", line, v, prev)
		}
		prev = v
		checked++
	}
	if checked == 0 {
		t.Fatal("no histogram buckets found in exposition")
	}
}

func TestConcurrentScrapesAndAssessments(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			assessIDs(t, h, []int{ds.Test[10+2*w].ID, ds.Test[11+2*w].ID})
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("scrape status %d", rr.Code)
					return
				}
				rr = httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/trace?n=5", nil))
				if rr.Code != http.StatusOK {
					t.Errorf("trace status %d", rr.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTraceEndpointCoversPipelineStages(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	assessIDs(t, h, []int{
		ds.Test[0].ID, ds.Test[1].ID, ds.Test[2].ID, ds.Test[3].ID, ds.Test[4].ID,
		ds.Test[5].ID, ds.Test[6].ID, ds.Test[7].ID, ds.Test[8].ID, ds.Test[9].ID,
	})
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/trace", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("trace status %d: %s", rr.Code, rr.Body.String())
	}
	var resp TraceResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(resp.Traces) == 0 {
		t.Fatal("no traces returned")
	}
	tr := resp.Traces[0]
	if tr.Root == nil || tr.Root.Name != obs.SpanCycle {
		t.Fatalf("trace root %+v", tr.Root)
	}
	seen := make(map[string]bool)
	for _, sp := range tr.Root.Children {
		seen[sp.Name] = true
	}
	// All five pipeline stages of a queried cycle (MIC contributes two
	// spans; either satisfies the MIC stage, both should be present).
	for _, stage := range []string{
		core.SpanCommitteeVote, core.SpanQSSSelect, core.SpanIPDPrice,
		core.SpanCrowdSubmit, core.SpanCQCAggregate,
		core.SpanMICWeights, core.SpanMICRetrain,
	} {
		if !seen[stage] {
			t.Errorf("stage %q missing from trace (have %v)", stage, seen)
		}
	}
}

func TestTraceEndpointLimitAndValidation(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	for i := 0; i < 3; i++ {
		assessIDs(t, h, []int{ds.Test[20+i].ID})
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/trace?n=2", nil))
	var resp TraceResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Traces) != 2 {
		t.Errorf("n=2 returned %d traces", len(resp.Traces))
	}
	// Newest first.
	if len(resp.Traces) == 2 && resp.Traces[0].Cycle < resp.Traces[1].Cycle {
		t.Error("traces not newest-first")
	}
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/trace?n=bogus", nil))
	if rr.Code != http.StatusBadRequest {
		t.Errorf("bogus n status %d", rr.Code)
	}
}

func TestStatsExposeWeightsAndBudget(t *testing.T) {
	h, _, _, ds := startObservedCrowdLearn(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var before Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}
	if before.BudgetRemaining == nil || *before.BudgetRemaining <= 0 {
		t.Fatalf("bootstrapped budget missing from stats: %+v", before)
	}
	if len(before.ExpertWeights) == 0 {
		t.Fatal("bootstrapped expert weights missing from stats")
	}
	assessIDs(t, h, []int{ds.Test[30].ID, ds.Test[31].ID, ds.Test[32].ID,
		ds.Test[33].ID, ds.Test[34].ID, ds.Test[35].ID})
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var after Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.BudgetRemaining == nil || *after.BudgetRemaining >= *before.BudgetRemaining {
		t.Errorf("budget did not decrease: %v -> %v", *before.BudgetRemaining, after.BudgetRemaining)
	}
}

func TestDashboardShowsWeightsAndBudget(t *testing.T) {
	h, _, _, _ := startObservedCrowdLearn(t)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("dashboard status %d", rr.Code)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "budget remaining (USD)") {
		t.Error("dashboard missing budget row")
	}
	if !strings.Contains(body, "Expert weights") {
		t.Error("dashboard missing expert weights table")
	}
}

// TestStatsAndHealthCarryBuildInfo verifies WithBuildInfo surfaces the
// binary identity on both JSON surfaces: /stats carries the structured
// record, /healthz the human-readable version line.
func TestStatsAndHealthCarryBuildInfo(t *testing.T) {
	scheme, ds := fixture(t)
	bi := prof.BuildInfo{Version: "v1.2.3-test", GoVersion: "go1.22", Revision: "abcdef123456ffff"}
	svc, err := New(scheme, WithBuildInfo(bi))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	h, err := NewHandler(svc, ds.Test)
	if err != nil {
		t.Fatal(err)
	}

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Build == nil || *st.Build != bi {
		t.Errorf("stats build info = %+v, want %+v", st.Build, bi)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	version, _ := health["version"].(string)
	if want := bi.String(); version != want {
		t.Errorf("healthz version = %q, want %q", version, want)
	}

	// Without the option both surfaces omit the identity.
	plain, _ := startService(t)
	if raw, _ := json.Marshal(plain.Stats()); strings.Contains(string(raw), "\"build\"") {
		t.Errorf("stats without WithBuildInfo should omit build: %s", raw)
	}
}

func TestObsEndpointsDisabledWithoutWiring(t *testing.T) {
	// The plain AI-only fixture service has no registry or tracer.
	svc, ds := startService(t)
	h, err := NewHandler(svc, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/trace"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusNotFound {
			t.Errorf("%s without wiring: status %d, want 404", path, rr.Code)
		}
	}
	// Stats must omit the optional telemetry fields for plain schemes.
	raw, _ := json.Marshal(svc.Stats())
	if strings.Contains(string(raw), "expertWeights") {
		t.Errorf("AI-only stats should omit expertWeights: %s", raw)
	}
}
