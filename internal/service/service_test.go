package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// fixture builds a trained AI-only scheme (cheap) plus the dataset once.
var (
	fxOnce   sync.Once
	fxScheme core.Scheme
	fxDS     *imagery.Dataset
	fxErr    error
)

func fixture(t *testing.T) (core.Scheme, *imagery.Dataset) {
	t.Helper()
	fxOnce.Do(func() {
		fxDS, fxErr = imagery.Generate(imagery.DefaultConfig())
		if fxErr != nil {
			return
		}
		expert := classifier.NewVGG16(imagery.DefaultDims, classifier.Options{Seed: 1, Epochs: 25})
		if fxErr = expert.Train(classifier.SamplesFromImages(fxDS.Train)); fxErr != nil {
			return
		}
		fxScheme, fxErr = core.NewAIOnly(expert)
	})
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fxScheme, fxDS
}

// assess runs one request on svc's campaign and renders it as
// POST /assess does.
func assess(ctx context.Context, svc *Service, req supervise.Request) (Response, error) {
	res, err := svc.sup.Assess(ctx, supervise.DefaultCampaign, req)
	if err != nil {
		return Response{}, err
	}
	return newResponse(res), nil
}

// queued is the number of requests waiting in svc's campaign queue.
func queued(t *testing.T, svc *Service) int {
	t.Helper()
	h, err := svc.sup.CampaignHealth(supervise.DefaultCampaign)
	if err != nil {
		t.Fatal(err)
	}
	return h.Queued
}

func startService(t *testing.T) (*Service, *imagery.Dataset) {
	t.Helper()
	scheme, ds := fixture(t)
	svc, err := New(scheme)
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
	return svc, ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil scheme must be rejected")
	}
}

func TestAssessBeforeStart(t *testing.T) {
	scheme, ds := fixture(t)
	svc, err := New(scheme)
	if err != nil {
		t.Fatal(err)
	}
	_, err = assess(context.Background(), svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:2]})
	if !errors.Is(err, supervise.ErrUnknownCampaign) {
		t.Errorf("Assess before Start = %v, want ErrUnknownCampaign", err)
	}
}

func TestAssessBasic(t *testing.T) {
	svc, ds := startService(t)
	resp, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Evening, Images: ds.Test[:5]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CycleIndex != 0 {
		t.Errorf("first cycle index %d, want 0", resp.CycleIndex)
	}
	if len(resp.Assessments) != 5 {
		t.Fatalf("assessments %d, want 5", len(resp.Assessments))
	}
	for i, a := range resp.Assessments {
		if a.ImageID != ds.Test[i].ID {
			t.Errorf("assessment %d image id %d, want %d", i, a.ImageID, ds.Test[i].ID)
		}
		if !a.Label.Valid() {
			t.Errorf("invalid label %v", a.Label)
		}
		if a.Confidence <= 0 || a.Confidence > 1 {
			t.Errorf("confidence %v out of range", a.Confidence)
		}
		if a.Source != "ai" {
			t.Errorf("AI-only scheme source %q, want ai", a.Source)
		}
	}
	if resp.AlgorithmDelaySeconds <= 0 {
		t.Error("algorithm delay must be positive")
	}
}

func TestCycleIndicesSequentialUnderConcurrency(t *testing.T) {
	svc, ds := startService(t)
	const callers = 8
	var wg sync.WaitGroup
	indices := make(chan int, callers)
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := assess(context.Background(), svc, supervise.Request{
				Context: crowd.Morning,
				Images:  ds.Test[i*5 : i*5+5],
			})
			if err != nil {
				t.Errorf("assess: %v", err)
				return
			}
			indices <- resp.CycleIndex
		}()
	}
	wg.Wait()
	close(indices)
	seen := make(map[int]bool)
	for idx := range indices {
		if seen[idx] {
			t.Fatalf("duplicate cycle index %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != callers {
		t.Fatalf("got %d distinct indices, want %d", len(seen), callers)
	}
}

func TestStatsAccumulate(t *testing.T) {
	svc, ds := startService(t)
	for i := 0; i < 3; i++ {
		if _, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Midnight, Images: ds.Test[:4]}); err != nil {
			t.Fatal(err)
		}
	}
	stats := svc.Stats()
	if stats.CyclesRun != 3 {
		t.Errorf("CyclesRun %d, want 3", stats.CyclesRun)
	}
	if stats.ImagesAssessed != 12 {
		t.Errorf("ImagesAssessed %d, want 12", stats.ImagesAssessed)
	}
}

func TestShutdownStopsAssess(t *testing.T) {
	scheme, ds := fixture(t)
	svc, err := New(scheme)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The stopped-service error keeps the sentinel and is marked
	// retryable: shutdown usually precedes a restart or failover.
	if _, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:1]}); !errors.Is(err, supervise.ErrShutdown) {
		t.Errorf("Assess after Shutdown = %v, want ErrShutdown", err)
	}
	// Double shutdown is safe.
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("second Shutdown: %v", err)
	}
}

func TestAssessContextCancellation(t *testing.T) {
	svc, ds := startService(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := assess(ctx, svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:1]})
	if err == nil {
		t.Error("cancelled context should be able to abort Assess")
	}
}

func TestInvalidCycleInputSurfacesError(t *testing.T) {
	svc, _ := startService(t)
	if _, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Morning}); err == nil {
		t.Error("empty image batch must surface the scheme's validation error")
	}
}

// --- HTTP layer ---

func startHTTP(t *testing.T) (*httptest.Server, *imagery.Dataset) {
	t.Helper()
	svc, ds := startService(t)
	h, err := NewHandler(svc, ds.Test)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, ds
}

func TestHTTPAssess(t *testing.T) {
	srv, ds := startHTTP(t)
	body, _ := json.Marshal(AssessRequest{
		Context:  "evening",
		ImageIDs: []int{ds.Test[0].ID, ds.Test[1].ID},
	})
	resp, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Assessments) != 2 {
		t.Fatalf("assessments %d, want 2", len(out.Assessments))
	}
	if out.Assessments[0].LabelName == "" {
		t.Error("label name missing from JSON response")
	}
}

func TestHTTPAssessErrors(t *testing.T) {
	srv, ds := startHTTP(t)
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{bad json`); code != http.StatusBadRequest {
		t.Errorf("bad json status %d", code)
	}
	if code := post(`{"context":"noon","imageIds":[1]}`); code != http.StatusBadRequest {
		t.Errorf("bad context status %d", code)
	}
	if code := post(`{"context":"morning","imageIds":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty ids status %d", code)
	}
	if code := post(`{"context":"morning","imageIds":[999999]}`); code != http.StatusNotFound {
		t.Errorf("unknown id status %d", code)
	}
	// GET on /assess is rejected.
	resp, err := http.Get(srv.URL + "/assess")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /assess status %d", resp.StatusCode)
	}
	_ = ds
}

func TestHTTPStatsAndHealth(t *testing.T) {
	srv, ds := startHTTP(t)
	// Drive one cycle so stats are non-zero.
	body, _ := json.Marshal(AssessRequest{Context: "morning", ImageIDs: []int{ds.Test[0].ID}})
	resp, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.CyclesRun < 1 {
		t.Errorf("stats cycles %d, want >= 1", stats.CyclesRun)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", hresp.StatusCode)
	}
}

func TestHTTPImagesDiscovery(t *testing.T) {
	srv, ds := startHTTP(t)
	resp, err := http.Get(srv.URL + "/images")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		ImageIDs []int `json:"imageIds"`
		Count    int   `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != len(ds.Test) {
		t.Errorf("count %d, want %d", out.Count, len(ds.Test))
	}
	// The discovered IDs must be assessable.
	body, _ := json.Marshal(AssessRequest{Context: "midnight", ImageIDs: out.ImageIDs[:3]})
	aresp, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if aresp.StatusCode != http.StatusOK {
		t.Errorf("assess via discovered ids status %d", aresp.StatusCode)
	}
}

func TestHTTPDashboard(t *testing.T) {
	srv, ds := startHTTP(t)
	// Before any cycles: empty-state message.
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard status %d", resp.StatusCode)
	}
	if !strings.Contains(body, "CrowdLearn assessment service") {
		t.Error("dashboard missing title")
	}
	if !strings.Contains(body, "No cycles yet") {
		t.Error("dashboard missing empty state")
	}

	// Drive a cycle, then the dashboard shows it.
	reqBody, _ := json.Marshal(AssessRequest{Context: "evening", ImageIDs: []int{ds.Test[0].ID, ds.Test[1].ID}})
	post, err := http.Post(srv.URL+"/assess", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if !strings.Contains(body, "Recent cycles") || strings.Contains(body, "No cycles yet") {
		t.Error("dashboard did not show the completed cycle")
	}
	// Unknown paths under / are 404, not dashboard.
	nf, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", nf.StatusCode)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestServiceRecentRingBuffer(t *testing.T) {
	svc, ds := startService(t)
	for i := 0; i < supervise.RecentResults+5; i++ {
		if _, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:1]}); err != nil {
			t.Fatal(err)
		}
	}
	recent, err := svc.sup.Recent(supervise.DefaultCampaign)
	if err != nil {
		t.Fatal(err)
	}
	if len(recent) != supervise.RecentResults {
		t.Fatalf("recent length %d, want %d", len(recent), supervise.RecentResults)
	}
	// Newest last; indices must be the final cycles.
	if recent[len(recent)-1].Cycle != supervise.RecentResults+4 {
		t.Errorf("last recent cycle %d, want %d", recent[len(recent)-1].Cycle, supervise.RecentResults+4)
	}
}

func TestShutdownLeavesNoGoroutines(t *testing.T) {
	scheme, ds := fixture(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		svc, err := New(scheme)
		if err != nil {
			t.Fatal(err)
		}
		svc.Start()
		if _, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:2]}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := svc.Shutdown(ctx); err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
	}
	// Allow the runtime to reap exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after five start/shutdown cycles", before, after)
	}
}

func TestNewHandlerValidation(t *testing.T) {
	if _, err := NewHandler(nil, nil); err == nil {
		t.Error("nil service must be rejected")
	}
	scheme, _ := fixture(t)
	svc, err := New(scheme)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewHandler(svc, []*imagery.Image{nil}); err == nil {
		t.Error("nil image in registry must be rejected")
	}
}
