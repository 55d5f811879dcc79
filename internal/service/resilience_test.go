package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// stubScheme is a controllable scheme for resilience tests: it can block
// until released, panic on demand, report degraded images, and count
// full-cycle vs shed-tier executions for double-send assertions.
type stubScheme struct {
	block    chan struct{} // when non-nil, RunCycle waits for a receive
	entered  chan struct{} // when non-nil, RunCycle signals entry
	panics   int32         // remaining cycles that panic
	degraded bool          // mark every input image degraded
	cycles   int32         // atomic: RunCycle executions
	sheds    int32         // atomic: AssessDegraded executions
}

func (s *stubScheme) Name() string { return "stub" }

func (s *stubScheme) RunCycle(in core.CycleInput) (core.CycleOutput, error) {
	atomic.AddInt32(&s.cycles, 1)
	if s.entered != nil {
		s.entered <- struct{}{}
	}
	if s.block != nil {
		<-s.block
	}
	if s.panics > 0 {
		s.panics--
		panic("stub scheme poisoned cycle")
	}
	out := core.CycleOutput{Distributions: make([][]float64, len(in.Images))}
	for i := range out.Distributions {
		out.Distributions[i] = make([]float64, imagery.NumLabels)
		out.Distributions[i][0] = 1
	}
	if s.degraded {
		for i := range in.Images {
			out.Degraded = append(out.Degraded, i)
		}
	}
	return out, nil
}

// AssessDegraded is the stub's AI-only shed tier.
func (s *stubScheme) AssessDegraded(in core.CycleInput) (core.CycleOutput, error) {
	atomic.AddInt32(&s.sheds, 1)
	out := core.CycleOutput{
		Distributions: make([][]float64, len(in.Images)),
		Degraded:      make([]int, len(in.Images)),
	}
	for i := range out.Distributions {
		out.Distributions[i] = make([]float64, imagery.NumLabels)
		out.Distributions[i][0] = 1
		out.Degraded[i] = i
	}
	return out, nil
}

// degradedNow reports whether svc's recent answers flip /healthz to
// "degraded".
func degradedNow(t *testing.T, svc *Service) bool {
	t.Helper()
	recent, err := svc.sup.Recent(supervise.DefaultCampaign)
	if err != nil {
		t.Fatal(err)
	}
	return recentlyDegraded(recent)
}

func oneImageRequest(ds *imagery.Dataset) supervise.Request {
	return supervise.Request{Context: crowd.Morning, Images: ds.Test[:1]}
}

func TestOptionValidation(t *testing.T) {
	if _, err := New(&stubScheme{}, WithQueueDepth(-1)); err == nil {
		t.Error("negative queue depth accepted")
	}
	if _, err := New(&stubScheme{}, WithRequestTimeout(-time.Second)); err == nil {
		t.Error("negative request timeout accepted")
	}
}

// TestQueueFullBackpressure: with a bounded queue, a busy worker plus a
// full queue rejects immediately with ErrBusy and counts it.
func TestQueueFullBackpressure(t *testing.T) {
	_, ds := fixture(t)
	// entered has room for the second held cycle's signal, which
	// arrives after the test stops receiving.
	scheme := &stubScheme{block: make(chan struct{}), entered: make(chan struct{}, 1)}
	reg := obs.NewRegistry()
	svc, err := New(scheme, WithQueueDepth(1), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	results := make(chan error, 2)
	go func() { // occupies the worker
		_, err := assess(context.Background(), svc, oneImageRequest(ds))
		results <- err
	}()
	// Wait until the worker is inside the first request's cycle, then
	// park a second one in the queue slot.
	<-scheme.entered
	deadline := time.Now().Add(5 * time.Second)
	go func() {
		_, err := assess(context.Background(), svc, oneImageRequest(ds))
		results <- err
	}()
	for queued(t, svc) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	if _, err := assess(context.Background(), svc, oneImageRequest(ds)); !errors.Is(err, supervise.ErrBusy) {
		t.Fatalf("third concurrent request: err %v, want ErrBusy", err)
	}
	if got := reg.Counter(supervise.MetricQueueRejected).Value(); got != 1 {
		t.Errorf("rejected counter %v, want 1", got)
	}

	close(scheme.block) // release both held cycles
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Errorf("held request %d failed: %v", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRequestTimeout: WithRequestTimeout bounds the whole Assess call.
func TestRequestTimeout(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{})}
	svc, err := New(scheme, WithRequestTimeout(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	if _, err := assess(context.Background(), svc, oneImageRequest(ds)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v, want DeadlineExceeded", err)
	}
	close(scheme.block) // the worker finishes into the buffered reply
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPanicRecovered: one poisoned cycle fails its own request but
// does not kill the worker; the next request succeeds.
func TestWorkerPanicRecovered(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{panics: 1}
	reg := obs.NewRegistry()
	svc, err := New(scheme, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	_, err = assess(context.Background(), svc, oneImageRequest(ds))
	if !errors.Is(err, supervise.ErrCyclePanicked) {
		t.Fatalf("err %v, want ErrCyclePanicked", err)
	}
	if got := reg.Counter(supervise.MetricPanicsRecovered).Value(); got != 1 {
		t.Errorf("panic counter %v, want 1", got)
	}
	if _, err := assess(context.Background(), svc, oneImageRequest(ds)); err != nil {
		t.Fatalf("request after panic failed: %v", err)
	}
}

// TestShutdownUnderLoad: with many concurrent callers racing Shutdown,
// every Assess returns deterministically — success or ErrShutdown —
// queued requests are drained, and the worker exits. Run with -race.
func TestShutdownUnderLoad(t *testing.T) {
	_, ds := fixture(t)
	svc, err := New(&stubScheme{})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	const callers = 32
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := assess(context.Background(), svc, oneImageRequest(ds))
			if err == nil && len(resp.Assessments) != 1 {
				errs <- errors.New("successful response without assessments")
				return
			}
			errs <- err
		}()
	}
	time.Sleep(time.Millisecond) // let some requests start
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	var ok, rejected int
	for err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, supervise.ErrShutdown):
			rejected++
		default:
			t.Errorf("unexpected outcome: %v", err)
		}
	}
	if ok+rejected != callers {
		t.Errorf("accounted %d of %d callers", ok+rejected, callers)
	}
	// Post-shutdown requests always reject.
	if _, err := assess(context.Background(), svc, oneImageRequest(ds)); !errors.Is(err, supervise.ErrShutdown) {
		t.Errorf("post-shutdown err %v, want ErrShutdown", err)
	}
}

// TestDegradedHealthAndStats: degraded cycles flip /healthz to status
// "degraded" (still 200) and surface in /stats and the response payload.
func TestDegradedHealthAndStats(t *testing.T) {
	_, ds := fixture(t)
	svc, err := New(&stubScheme{degraded: true})
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	h, err := NewHandler(svc, ds.Test[:4])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if degradedNow(t, svc) {
		t.Fatal("degraded before any cycle ran")
	}
	resp, err := assess(context.Background(), svc, oneImageRequest(ds))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.DegradedImageIDs) != 1 {
		t.Fatalf("degraded IDs %v, want one", resp.DegradedImageIDs)
	}
	if !degradedNow(t, svc) {
		t.Fatal("service not degraded after a degraded cycle")
	}

	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, hr)
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200 (degraded is still serving)", hr.StatusCode)
	}
	if !strings.Contains(body, "degraded") {
		t.Errorf("healthz body %q lacks degraded status", body)
	}

	stats := svc.Stats()
	if stats.DegradedCycles != 1 || stats.DegradedImages != 1 {
		t.Errorf("stats %+v, want 1 degraded cycle / 1 degraded image", stats)
	}
}

// TestHTTPPanicMiddleware: a panicking handler answers 500 and is
// counted, instead of tearing the connection down.
func TestHTTPPanicMiddleware(t *testing.T) {
	_, ds := fixture(t)
	reg := obs.NewRegistry()
	svc, err := New(&stubScheme{}, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandler(svc, ds.Test[:1])
	if err != nil {
		t.Fatal(err)
	}
	h.mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	srv := httptest.NewServer(h)
	defer srv.Close()

	hr, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, hr)
	if hr.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", hr.StatusCode)
	}
	if got := reg.Counter(supervise.MetricPanicsRecovered).Value(); got != 1 {
		t.Errorf("panic counter %v, want 1", got)
	}
}

// TestHTTPQueueFullMapsTo429: backpressure surfaces as 429 with a
// Retry-After header.
func TestHTTPQueueFullMapsTo429(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{})}
	svc, err := New(scheme, WithQueueDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h, err := NewHandler(svc, ds.Test[:4])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func() *http.Response {
		body := strings.NewReader(`{"context":"morning","imageIds":[` + strconv.Itoa(ds.Test[0].ID) + `]}`)
		hr, err := http.Post(srv.URL+"/assess", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		return hr
	}
	done := make(chan *http.Response, 2)
	go func() { done <- post() }() // occupies the worker
	deadline := time.Now().Add(5 * time.Second)
	for queued(t, svc) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	go func() { done <- post() }() // parks in the queue slot
	for queued(t, svc) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	hr := post()
	readAll(t, hr)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", hr.StatusCode)
	}
	if hr.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(scheme.block)
	for i := 0; i < 2; i++ {
		readAll(t, <-done)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionLadderShedsAndRejects: with the controller saturated, a
// request lands on the degrade tier (AI-only labels, no committed
// cycle) and one past the hard cap is rejected with a retryable
// ErrBusy carrying a Retry-After hint.
func TestAdmissionLadderShedsAndRejects(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{}), entered: make(chan struct{})}
	reg := obs.NewRegistry()
	svc, err := New(scheme,
		WithMetrics(reg),
		WithAdmission(admission.Config{MinLimit: 1, MaxLimit: 2, InitialLimit: 1}))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	type result struct {
		resp Response
		err  error
	}
	results := make(chan result, 2)
	submit := func() {
		resp, err := assess(context.Background(), svc, oneImageRequest(ds))
		results <- result{resp, err}
	}

	go submit()      // admitted: occupies the worker inside RunCycle
	<-scheme.entered // worker is provably inside the blocked cycle
	go submit()      // inflight >= limit: lands on the degrade tier
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Admission.Inflight != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := svc.Stats().Admission.Inflight; got != 2 {
		t.Fatalf("inflight %d, want 2", got)
	}

	// Third arrival is past MaxLimit: rejected, retryable, with a hint.
	_, err = assess(context.Background(), svc, oneImageRequest(ds))
	if !errors.Is(err, supervise.ErrBusy) {
		t.Fatalf("saturated Assess err %v, want ErrBusy", err)
	}
	if !admission.IsRetryable(err) {
		t.Error("rejection not marked retryable")
	}
	if after, ok := admission.RetryAfterHint(err); !ok || after < time.Second {
		t.Errorf("Retry-After hint %v ok=%v, want >= 1s", after, ok)
	}

	close(scheme.block)
	var full, shed *result
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("held request failed: %v", r.err)
		}
		if r.resp.Shed {
			shed = &r
		} else {
			full = &r
		}
	}
	if full == nil || shed == nil {
		t.Fatal("expected one full-cycle and one shed response")
	}
	if got := shed.resp.Assessments[0].Source; got != "ai" {
		t.Errorf("shed response source %q, want ai", got)
	}
	if len(shed.resp.DegradedImageIDs) != 1 {
		t.Errorf("shed response degraded IDs %v, want one", shed.resp.DegradedImageIDs)
	}
	// The shed response repeated the next uncommitted index instead of
	// consuming a cycle: exactly one cycle committed, one shed served.
	stats := svc.Stats()
	if stats.CyclesRun != 1 || stats.ShedResponses != 1 {
		t.Errorf("cyclesRun=%d shedResponses=%d, want 1/1", stats.CyclesRun, stats.ShedResponses)
	}
	if got := atomic.LoadInt32(&scheme.sheds); got != 1 {
		t.Errorf("AssessDegraded ran %d times, want 1", got)
	}
	snap := stats.Admission
	if snap.Admitted != 1 || snap.Degraded != 1 || snap.Rejected != 1 {
		t.Errorf("snapshot admitted=%d degraded=%d rejected=%d, want 1/1/1",
			snap.Admitted, snap.Degraded, snap.Rejected)
	}
	if got := reg.Counter(supervise.MetricAdmissionDecisions, "decision", "reject").Value(); got != 1 {
		t.Errorf("reject decision counter %v, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionFairShareByTag: the fleet of one keys admission fair
// share by the request's campaign tag. Under pressure, a tag that has
// spent its share is rejected while a tag with share left is still
// served on the degrade tier. (TestAdmissionLadderShedsAndRejects sends
// untagged requests, which share one bucket, so it cannot show this.)
func TestAdmissionFairShareByTag(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{}), entered: make(chan struct{})}
	svc, err := New(scheme, WithAdmission(admission.Config{
		MinLimit: 1, MaxLimit: 8, InitialLimit: 1,
		// One token per tag, refilled far slower than the test runs.
		CampaignRate: 0.001, CampaignBurst: 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	tagged := func(tag string) supervise.Request {
		req := oneImageRequest(ds)
		req.Tag = tag
		return req
	}
	type result struct {
		resp Response
		err  error
	}
	submit := func(tag string, out chan<- result) {
		resp, err := assess(context.Background(), svc, tagged(tag))
		out <- result{resp, err}
	}

	held := make(chan result, 1)
	go submit("heavy", held) // spends heavy's token; the worker holds it
	<-scheme.entered

	_, err = assess(context.Background(), svc, tagged("heavy"))
	if !errors.Is(err, supervise.ErrBusy) || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("heavy tag over its share: err %v, want ErrBusy (limit)", err)
	}
	light := make(chan result, 1)
	go submit("light", light)
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().Admission.Inflight != 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(scheme.block)
	if r := <-held; r.err != nil || r.resp.Shed {
		t.Errorf("held heavy request: shed=%v err=%v, want a full cycle", r.resp.Shed, r.err)
	}
	if r := <-light; r.err != nil || !r.resp.Shed {
		t.Errorf("light tag under pressure: shed=%v err=%v, want a degraded answer", r.resp.Shed, r.err)
	}
	if snap := svc.Stats().Admission; snap.Rejected != 1 || snap.Degraded != 1 {
		t.Errorf("snapshot rejected=%d degraded=%d, want 1/1", snap.Rejected, snap.Degraded)
	}
}

// TestRetryAfterSecondsRendering: the 429 Retry-After header is derived
// from the error's drain-rate hint — integer seconds, rounded up, with
// a 1s floor for unhinted or sub-second values.
func TestRetryAfterSecondsRendering(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{errors.New("no hint"), "1"},
		{admission.MarkRetryableAfter(errors.New("sub-second"), 200*time.Millisecond), "1"},
		{admission.MarkRetryableAfter(errors.New("rounds up"), 6500*time.Millisecond), "7"},
		{admission.MarkRetryableAfter(errors.New("exact"), 3*time.Second), "3"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.err); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestHTTPOverloadRetryAfter: an admission rejection surfaces over HTTP
// as 429 with a Retry-After derived from the controller's drain
// estimate (a parseable positive integer, not a hardcoded constant).
func TestHTTPOverloadRetryAfter(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{}), entered: make(chan struct{})}
	svc, err := New(scheme,
		WithAdmission(admission.Config{MinLimit: 1, MaxLimit: 1, InitialLimit: 1}))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()
	h, err := NewHandler(svc, ds.Test[:4])
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func() *http.Response {
		body := strings.NewReader(`{"context":"morning","imageIds":[` + strconv.Itoa(ds.Test[0].ID) + `]}`)
		hr, err := http.Post(srv.URL+"/assess", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		return hr
	}
	done := make(chan *http.Response, 1)
	go func() { done <- post() }() // occupies the worker
	<-scheme.entered

	hr := post()
	readAll(t, hr)
	if hr.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", hr.StatusCode)
	}
	secs, err := strconv.Atoi(hr.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want integer seconds >= 1", hr.Header.Get("Retry-After"))
	}

	close(scheme.block)
	readAll(t, <-done)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownRetryRace: retrying clients racing Shutdown — including
// requests drained out of the queue by the exiting worker — always
// terminate, every failure is classified retryable, and the number of
// scheme executions equals the number of successful replies (no request
// is ever served twice or dropped after being served). Run with -race.
func TestShutdownRetryRace(t *testing.T) {
	_, ds := fixture(t)
	scheme := &stubScheme{block: make(chan struct{})}
	svc, err := New(scheme, WithQueueDepth(8), WithAdmission(admission.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	svc.Start()

	const clients = 24
	var wg sync.WaitGroup
	var successes int32
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			p := admission.RetryPolicy{Seed: seed, Sleep: func(time.Duration) {}}
			err := p.Do(context.Background(), func(ctx context.Context) error {
				_, err := assess(ctx, svc, oneImageRequest(ds))
				return err
			})
			if err == nil {
				atomic.AddInt32(&successes, 1)
			}
			errs <- err
		}(int64(i))
	}

	// Hold the worker until requests are provably parked in the queue, so
	// Shutdown's drain path is exercised, then release the cycle.
	deadline := time.Now().Add(5 * time.Second)
	for queued(t, svc) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- svc.Shutdown(ctx) }()
	close(scheme.block)
	if err := <-shutdownErr; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)

	for err := range errs {
		if err != nil && !admission.IsRetryable(err) {
			t.Errorf("non-retryable failure under shutdown: %v", err)
		}
	}
	served := atomic.LoadInt32(&scheme.cycles) + atomic.LoadInt32(&scheme.sheds)
	if served != atomic.LoadInt32(&successes) {
		t.Errorf("scheme served %d requests but %d callers succeeded (double-send or dropped reply)",
			served, atomic.LoadInt32(&successes))
	}
}
