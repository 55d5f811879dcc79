package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// flakyScheme is a cheap campaign scheme for HTTP-layer tests: valid
// uniform-ish distributions, with an optional scripted panic budget so
// quarantine paths are reachable without a real trained classifier.
type flakyScheme struct {
	panics *int // remaining scripted panics (shared across epochs)
}

func (f *flakyScheme) Name() string { return "flaky" }

func (f *flakyScheme) RunCycle(in core.CycleInput) (core.CycleOutput, error) {
	if f.panics != nil && *f.panics > 0 {
		*f.panics--
		panic("scripted campaign panic")
	}
	dists := make([][]float64, len(in.Images))
	for i := range dists {
		dists[i] = []float64{0.5, 0.3, 0.2}
	}
	return core.CycleOutput{Distributions: dists, AlgorithmDelay: time.Second}, nil
}

func campaignFixture(t *testing.T, panics map[string]*int) (*httptest.Server, []*imagery.Image) {
	t.Helper()
	registry := make([]*imagery.Image, 8)
	for i := range registry {
		registry[i] = &imagery.Image{ID: 100 + i}
	}
	metrics := obs.NewRegistry()
	sup := supervise.New(supervise.Options{
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics: metrics,
		Restart: supervise.RestartPolicy{MaxRestarts: 1},
		Sleep:   func(time.Duration) {},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sup.Shutdown(ctx)
	})
	factory := func(id string) (supervise.Spec, error) {
		if strings.Contains(id, "/") {
			return supervise.Spec{}, fmt.Errorf("invalid campaign id %q", id)
		}
		return supervise.Spec{
			ID: id,
			Build: func(supervise.BuildContext) (core.Scheme, error) {
				return &flakyScheme{panics: panics[id]}, nil
			},
		}, nil
	}
	h, err := NewCampaignHandler(sup, registry, factory, WithMetrics(metrics))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, registry
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestCampaignHTTPLifecycle(t *testing.T) {
	srv, registry := campaignFixture(t, nil)

	// Image discovery works before any campaign exists: the registry is
	// shared, so clients can find assessable IDs first.
	resp0, data0 := getJSON(t, srv.URL+"/images")
	if resp0.StatusCode != http.StatusOK {
		t.Fatalf("images: %d %s", resp0.StatusCode, data0)
	}
	var imgs struct {
		ImageIDs []int `json:"imageIds"`
		Count    int   `json:"count"`
	}
	if err := json.Unmarshal(data0, &imgs); err != nil {
		t.Fatal(err)
	}
	if imgs.Count != len(registry) || len(imgs.ImageIDs) != len(registry) || imgs.ImageIDs[0] != registry[0].ID {
		t.Fatalf("images = %+v, want the %d registry IDs", imgs, len(registry))
	}

	// Create two campaigns.
	for _, id := range []string{"alpha", "beta"} {
		resp, data := postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: id})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, data)
		}
	}
	// Duplicate IDs conflict.
	if resp, _ := postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: "alpha"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	// The list shows both, sorted.
	resp, data := getJSON(t, srv.URL+"/campaigns")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list CampaignListResponse
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Campaigns) != 2 || list.Campaigns[0].ID != "alpha" || list.Campaigns[1].ID != "beta" {
		t.Fatalf("list = %+v", list.Campaigns)
	}

	// Assess against one campaign; the other's cycle counter is untouched.
	assessBody := AssessRequest{Context: "morning", ImageIDs: []int{registry[0].ID, registry[1].ID}}
	resp, data = postJSON(t, srv.URL+"/campaigns/alpha/assess", assessBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assess: %d %s", resp.StatusCode, data)
	}
	var ar Response
	if err := json.Unmarshal(data, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.CycleIndex != 0 || len(ar.Assessments) != 2 || ar.Assessments[0].ImageID != registry[0].ID {
		t.Fatalf("assess response = %+v", ar)
	}
	resp, data = getJSON(t, srv.URL+"/campaigns/beta")
	var betaHealth supervise.CampaignHealth
	if err := json.Unmarshal(data, &betaHealth); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || betaHealth.NextCycle != 0 {
		t.Fatalf("beta health: %d %+v", resp.StatusCode, betaHealth)
	}

	// Pause rejects assessment with 409; resume restores it.
	if resp, _ := postJSON(t, srv.URL+"/campaigns/alpha/pause", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns/alpha/assess", assessBody); resp.StatusCode != http.StatusConflict {
		t.Fatalf("assess while paused: %d, want 409", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns/alpha/resume", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d", resp.StatusCode)
	}
	resp, data = postJSON(t, srv.URL+"/campaigns/alpha/assess", assessBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assess after resume: %d %s", resp.StatusCode, data)
	}

	// Archive is terminal.
	if resp, _ := postJSON(t, srv.URL+"/campaigns/beta/archive", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("archive: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns/beta/assess", assessBody); resp.StatusCode != http.StatusConflict {
		t.Fatalf("assess archived: %d, want 409", resp.StatusCode)
	}

	// Unknown campaigns 404.
	if resp, _ := getJSON(t, srv.URL+"/campaigns/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d, want 404", resp.StatusCode)
	}
}

func TestCampaignHTTPValidation(t *testing.T) {
	srv, registry := campaignFixture(t, nil)
	if resp, _ := postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty id: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: "a/b"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("factory rejection: %d, want 400", resp.StatusCode)
	}
	postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: "c"})
	if resp, _ := postJSON(t, srv.URL+"/campaigns/c/assess", AssessRequest{Context: "noon", ImageIDs: []int{registry[0].ID}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad context: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns/c/assess", AssessRequest{Context: "morning"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("no images: %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/campaigns/c/assess", AssessRequest{Context: "morning", ImageIDs: []int{9999}}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown image: %d, want 404", resp.StatusCode)
	}
}

// TestCampaignHTTPQuarantineHealthz drives a campaign into quarantine
// over the API and checks the fleet surfaces: GET /campaigns flips to 503
// naming the quarantined campaign, per-campaign health carries the
// restart accounting, metrics expose the labeled families, and an
// operator resume over the API brings the campaign back.
func TestCampaignHTTPQuarantineHealthz(t *testing.T) {
	panics := 5 // outlives the restart budget of 1
	srv, registry := campaignFixture(t, map[string]*int{"sick": &panics})
	postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: "sick"})
	postJSON(t, srv.URL+"/campaigns", CreateCampaignRequest{ID: "well"})

	assessBody := AssessRequest{Context: "evening", ImageIDs: []int{registry[0].ID}}
	// First assess panics, restarts (budget 1), rebuilds; second panic
	// exhausts the budget and quarantines.
	for i := 0; i < 2; i++ {
		if resp, data := postJSON(t, srv.URL+"/campaigns/sick/assess", assessBody); resp.StatusCode == http.StatusOK {
			t.Fatalf("assess %d unexpectedly fine: %s", i, data)
		}
	}
	resp, data := getJSON(t, srv.URL+"/campaigns")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fleet health with quarantined campaign: %d, want 503", resp.StatusCode)
	}
	var hz struct {
		Status      string   `json:"status"`
		Quarantined []string `json:"quarantined"`
	}
	if err := json.Unmarshal(data, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "quarantined" || len(hz.Quarantined) != 1 || hz.Quarantined[0] != "sick" {
		t.Fatalf("fleet health body = %s", data)
	}
	// The healthy sibling still serves.
	if resp, data := postJSON(t, srv.URL+"/campaigns/well/assess", assessBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("sibling assess: %d %s", resp.StatusCode, data)
	}
	// Quarantine and restarts are visible in the exported metrics.
	resp, data = getJSON(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(data)
	if !strings.Contains(text, supervise.MetricCampaignQuarantines+`{campaign="sick"} 1`) {
		t.Errorf("quarantine counter missing from metrics")
	}
	if !strings.Contains(text, supervise.MetricCampaignRestarts+`{campaign="sick"}`) {
		t.Errorf("restart counter missing from metrics")
	}
	// Operator resume over the API resets the budget; the scripted
	// panics are spent, so the campaign serves again.
	panics = 0
	if resp, data := postJSON(t, srv.URL+"/campaigns/sick/resume", struct{}{}); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %d %s", resp.StatusCode, data)
	}
	if resp, data := postJSON(t, srv.URL+"/campaigns/sick/assess", assessBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("assess after resume: %d %s", resp.StatusCode, data)
	}
	if resp, _ := getJSON(t, srv.URL+"/campaigns"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet health after resume: %d, want 200", resp.StatusCode)
	}
}
