package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// fixedScheme answers every full cycle over three images with one fixed
// output that exercises every Response field, and every shed request
// with one fixed AI-only output. Its first full cycle signals entered
// and holds until release is closed, so a second request arriving
// meanwhile lands on the admission degrade tier.
type fixedScheme struct {
	entered chan struct{}
	release chan struct{}
}

func newFixedScheme() *fixedScheme {
	return &fixedScheme{entered: make(chan struct{}, 1), release: make(chan struct{})}
}

func (f *fixedScheme) Name() string { return "fixed" }

func (f *fixedScheme) RunCycle(core.CycleInput) (core.CycleOutput, error) {
	select {
	case f.entered <- struct{}{}:
	default:
	}
	<-f.release
	return core.CycleOutput{
		Distributions:   [][]float64{{0.1, 0.7, 0.2}, {0.6, 0.3, 0.1}, {0.2, 0.2, 0.6}},
		Queried:         []int{1},
		Degraded:        []int{2},
		AlgorithmDelay:  1500 * time.Millisecond,
		CrowdDelay:      90 * time.Second,
		SpentDollars:    0.3,
		Requeries:       1,
		RefundedDollars: 0.05,
	}, nil
}

func (f *fixedScheme) AssessDegraded(core.CycleInput) (core.CycleOutput, error) {
	return core.CycleOutput{
		Distributions:  [][]float64{{0.5, 0.3, 0.2}, {0.1, 0.1, 0.8}, {0.3, 0.4, 0.3}},
		Degraded:       []int{0, 1, 2},
		AlgorithmDelay: 900 * time.Millisecond,
	}, nil
}

// tightAdmission admits one request at a time, degrades the second and
// rejects past two.
func tightAdmission() admission.Config {
	return admission.Config{MinLimit: 1, MaxLimit: 2, InitialLimit: 1}
}

// fullAndShed posts two assessments at url: the first holds the
// scheme's cycle until the second has been admitted to the degrade
// tier (inflight reaches 2). It returns both response bodies.
func fullAndShed(t *testing.T, url string, scheme *fixedScheme, inflight func() int, body AssessRequest) (full, shed []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		code int
		body []byte
		err  error
	}
	// post runs on its own goroutine, so it reports errors instead of
	// failing the test.
	post := func() answer {
		resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
		if err != nil {
			return answer{err: err}
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return answer{code: resp.StatusCode, body: data, err: err}
	}
	fullCh, shedCh := make(chan answer, 1), make(chan answer, 1)
	go func() { fullCh <- post() }()
	<-scheme.entered
	go func() { shedCh <- post() }()
	deadline := time.Now().Add(5 * time.Second)
	for inflight() != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := inflight(); got != 2 {
		t.Fatalf("inflight %d, want 2", got)
	}
	close(scheme.release)
	f, s := <-fullCh, <-shedCh
	if f.err != nil || s.err != nil {
		t.Fatalf("post: %v / %v", f.err, s.err)
	}
	if f.code != http.StatusOK || s.code != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s / %s", f.code, s.code, f.body, s.body)
	}
	return f.body, s.body
}

// TestAssessBodiesIdenticalAcrossFrontDoors: for the same full and
// shed cycle outputs, the single-service POST /assess and the campaign
// POST /campaigns/{id}/assess answer byte-identical bodies. A shed
// answer lists no queried images as [] in both.
func TestAssessBodiesIdenticalAcrossFrontDoors(t *testing.T) {
	registry := []*imagery.Image{{ID: 400}, {ID: 401}, {ID: 402}}
	body := AssessRequest{Context: "evening", ImageIDs: []int{402, 400, 401}}

	single := newFixedScheme()
	svc, err := New(single, WithAdmission(tightAdmission()))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	h, err := NewHandler(svc, registry)
	if err != nil {
		t.Fatal(err)
	}
	singleSrv := httptest.NewServer(h)
	t.Cleanup(singleSrv.Close)
	singleFull, singleShed := fullAndShed(t, singleSrv.URL+"/assess", single,
		func() int { return svc.Stats().Admission.Inflight }, body)

	fleet := newFixedScheme()
	adm := tightAdmission()
	sup := supervise.New(supervise.Options{
		Logger:    slog.New(slog.NewTextHandler(io.Discard, nil)),
		Metrics:   obs.NewRegistry(),
		Admission: &adm,
		Sleep:     func(time.Duration) {},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sup.Shutdown(ctx)
	})
	factory := func(id string) (supervise.Spec, error) {
		return supervise.Spec{ID: id, Build: func(supervise.BuildContext) (core.Scheme, error) { return fleet, nil }}, nil
	}
	ch, err := NewCampaignHandler(sup, registry, factory)
	if err != nil {
		t.Fatal(err)
	}
	fleetSrv := httptest.NewServer(ch)
	t.Cleanup(fleetSrv.Close)
	if resp, data := postJSON(t, fleetSrv.URL+"/campaigns", CreateCampaignRequest{ID: "quake"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	fleetFull, fleetShed := fullAndShed(t, fleetSrv.URL+"/campaigns/quake/assess", fleet,
		func() int { return sup.Admission().Inflight }, body)

	if string(singleFull) != string(fleetFull) {
		t.Errorf("full-cycle bodies differ:\nservice:  %s\ncampaign: %s", singleFull, fleetFull)
	}
	if string(singleShed) != string(fleetShed) {
		t.Errorf("shed bodies differ:\nservice:  %s\ncampaign: %s", singleShed, fleetShed)
	}
	for _, want := range []string{`"queriedImageIds":[]`, `"degradedImageIds":[402,400,401]`, `"shed":true`} {
		if !strings.Contains(string(singleShed), want) {
			t.Errorf("shed body lacks %s: %s", want, singleShed)
		}
	}
	for _, want := range []string{`"cycleIndex":0`, `"queriedImageIds":[400]`, `"degradedImageIds":[401]`, `"imageId":400,"label":0,"labelName":"no-damage","confidence":0.6,"source":"crowd"`} {
		if !strings.Contains(string(singleFull), want) {
			t.Errorf("full body lacks %s: %s", want, singleFull)
		}
	}
}
