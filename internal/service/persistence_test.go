package service

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// TestStartCycleOffsetsIndices: a service resumed after recovery
// continues the cycle-index sequence where the crashed process stopped.
func TestStartCycleOffsetsIndices(t *testing.T) {
	scheme, ds := fixture(t)
	svc, err := New(scheme, WithStartCycle(17))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	resp, err := assess(context.Background(), svc, supervise.Request{Context: crowd.Morning, Images: ds.Test[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CycleIndex != 17 {
		t.Errorf("first cycle after recovery got index %d, want 17", resp.CycleIndex)
	}
}

// TestHealthzReportsCheckpointAge: with persistence wired, /healthz
// carries the seconds since the last checkpoint (null until one is
// written), so operators can alert on stalled checkpointing.
func TestHealthzReportsCheckpointAge(t *testing.T) {
	scheme, ds := fixture(t)
	age := time.Duration(0)
	have := false
	svc, err := New(scheme, WithCheckpointAge(func() (time.Duration, bool) { return age, have }))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	}()
	h, err := NewHandler(svc, ds.Test[:10])
	if err != nil {
		t.Fatal(err)
	}

	get := func() map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/healthz = %d", rec.Code)
		}
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body
	}

	body := get()
	if v, present := body["lastCheckpointAgeSeconds"]; !present || v != nil {
		t.Errorf("before any checkpoint, lastCheckpointAgeSeconds = %v", v)
	}
	age, have = 90*time.Second, true
	if v := get()["lastCheckpointAgeSeconds"]; v != 90.0 {
		t.Errorf("lastCheckpointAgeSeconds = %v, want 90", v)
	}
}

// TestStatsExposeRecovery: a durable default campaign publishes its
// startup recovery report on /stats, so a resumed deployment is
// distinguishable from a fresh one.
func TestStatsExposeRecovery(t *testing.T) {
	ds, pilot := crowdLearnFixture(t)
	sup := supervise.New(supervise.Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = sup.Shutdown(ctx)
	})
	if _, err := sup.Create(supervise.Spec{
		ID:           supervise.DefaultCampaign,
		StateDir:     t.TempDir(),
		TrainSamples: classifier.SamplesFromImages(ds.Train),
		Registry:     ds.Test,
		Build: func(bc supervise.BuildContext) (core.Scheme, error) {
			cfg := core.DefaultConfig()
			cfg.Journal = bc.Journal
			cl, err := core.New(cfg, bc.WrapPlatform(crowd.MustNewPlatform(crowd.DefaultConfig())))
			if err != nil {
				return nil, err
			}
			return cl, cl.Bootstrap(ds.Train, pilot)
		},
	}); err != nil {
		t.Fatal(err)
	}
	h, err := NewCampaignHandler(sup, ds.Test[:10], nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var stats Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Recovery == nil || stats.Recovery.Outcome == "" || stats.Recovery.NextCycle != 0 {
		t.Errorf("stats recovery = %+v", stats.Recovery)
	}

	// A campaign without a durable store leaves the field absent.
	scheme, _ := fixture(t)
	plain, err := New(scheme)
	if err != nil {
		t.Fatal(err)
	}
	plain.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		plain.Shutdown(ctx)
	}()
	h2, err := NewHandler(plain, ds.Test[:10])
	if err != nil {
		t.Fatal(err)
	}
	rec2 := httptest.NewRecorder()
	h2.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var raw map[string]any
	if err := json.Unmarshal(rec2.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["recovery"]; present {
		t.Error("recovery key present without a durable store")
	}
}
