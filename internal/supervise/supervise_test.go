package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"testing"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/simclock"
)

// script is failure-injection state shared across a campaign's epochs:
// the Build closure hands every fresh scheme the same script, so
// "panic on the next cycle" style directives survive restarts.
type script struct {
	mu       sync.Mutex
	panics   int // panic on the next N cycles
	errs     int // fail (plain error) on the next N cycles
	notDur   int // fail with core.ErrCycleNotDurable on the next N cycles
	block    chan struct{}
	blocking int // block on script.block for the next N cycles
	cycles   int // total cycles attempted across epochs
}

type fakeScheme struct {
	s *script
}

func (f *fakeScheme) Name() string { return "fake" }

func (f *fakeScheme) RunCycle(in core.CycleInput) (core.CycleOutput, error) {
	f.s.mu.Lock()
	f.s.cycles++
	switch {
	case f.s.panics > 0:
		f.s.panics--
		f.s.mu.Unlock()
		panic("scripted panic")
	case f.s.errs > 0:
		f.s.errs--
		f.s.mu.Unlock()
		return core.CycleOutput{}, errors.New("scripted cycle error")
	case f.s.notDur > 0:
		f.s.notDur--
		f.s.mu.Unlock()
		return core.CycleOutput{}, fmt.Errorf("fake: %w: scripted", core.ErrCycleNotDurable)
	case f.s.blocking > 0:
		f.s.blocking--
		block := f.s.block
		f.s.mu.Unlock()
		<-block
		return core.CycleOutput{}, errors.New("fake: released from scripted stall")
	default:
		f.s.mu.Unlock()
		return core.CycleOutput{Distributions: make([][]float64, len(in.Images))}, nil
	}
}

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestSupervisor(t *testing.T, mutate func(*Options)) *Supervisor {
	t.Helper()
	opts := Options{
		Logger: quietLogger(),
		Sleep:  func(time.Duration) {}, // restart storms must not wall-clock wait
	}
	if mutate != nil {
		mutate(&opts)
	}
	sup := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = sup.Shutdown(ctx)
	})
	return sup
}

func createFake(t *testing.T, sup *Supervisor, id string, s *script, mutate func(*Spec)) *Campaign {
	t.Helper()
	spec := Spec{
		ID:    id,
		Build: func(BuildContext) (core.Scheme, error) { return &fakeScheme{s: s}, nil },
	}
	if mutate != nil {
		mutate(&spec)
	}
	c, err := sup.Create(spec)
	if err != nil {
		t.Fatalf("Create(%s): %v", id, err)
	}
	return c
}

func assess(sup *Supervisor, id string) (AssessResult, error) {
	return sup.Assess(context.Background(), id, Request{Context: crowd.TemporalContext(0), Images: []*imagery.Image{{}}})
}

func TestCreateValidation(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	if _, err := sup.Create(Spec{Build: func(BuildContext) (core.Scheme, error) { return nil, nil }}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := sup.Create(Spec{ID: "x"}); err == nil {
		t.Fatal("nil Build accepted")
	}
	s := &script{}
	createFake(t, sup, "dup", s, nil)
	if _, err := sup.Create(Spec{ID: "dup", Build: func(BuildContext) (core.Scheme, error) { return &fakeScheme{s: s}, nil }}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate ID: got %v, want ErrDuplicateID", err)
	}
	if _, err := sup.Create(Spec{ID: "badbuild", Build: func(BuildContext) (core.Scheme, error) {
		return nil, errors.New("no dataset")
	}}); err == nil {
		t.Fatal("failing Build accepted")
	} else if _, gerr := sup.Campaign("badbuild"); !errors.Is(gerr, ErrUnknownCampaign) {
		t.Fatalf("failed Create left campaign registered: %v", gerr)
	}
}

func TestAssessAndStats(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", &script{}, nil)
	for i := 0; i < 3; i++ {
		res, err := assess(sup, "c1")
		if err != nil {
			t.Fatalf("assess %d: %v", i, err)
		}
		if res.Cycle != i {
			t.Fatalf("cycle index: got %d, want %d", res.Cycle, i)
		}
		if res.Campaign != "c1" {
			t.Fatalf("campaign label: got %q", res.Campaign)
		}
	}
	h, err := sup.CampaignHealth("c1")
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats.CyclesRun != 3 || h.NextCycle != 3 || h.Stats.ImagesAssessed != 3 {
		t.Fatalf("health stats: %+v", h)
	}
	if h.State != "running" || h.Mode != "full" || h.Durable {
		t.Fatalf("health shape: %+v", h)
	}
	if _, err := assess(sup, "nope"); !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign: got %v", err)
	}
}

func TestPauseResumeArchive(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", &script{}, nil)
	if err := sup.Pause("c1"); err != nil {
		t.Fatalf("pause: %v", err)
	}
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrPaused) {
		t.Fatalf("assess while paused: got %v", err)
	}
	if err := sup.Pause("c1"); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("double pause: got %v", err)
	}
	if err := sup.Resume("c1"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := sup.Resume("c1"); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("resume while running: got %v", err)
	}
	if _, err := assess(sup, "c1"); err != nil {
		t.Fatalf("assess after resume: %v", err)
	}
	if err := sup.Archive("c1"); err != nil {
		t.Fatalf("archive: %v", err)
	}
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrArchived) {
		t.Fatalf("assess after archive: got %v", err)
	}
	if err := sup.Archive("c1"); !errors.Is(err, ErrArchived) {
		t.Fatalf("double archive: got %v", err)
	}
	if err := sup.Resume("c1"); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("resume archived: got %v", err)
	}
	if h, _ := sup.CampaignHealth("c1"); h.State != "archived" || h.Mode != "archived" {
		t.Fatalf("archived health: %+v", h)
	}
}

func TestPanicRestartsCampaign(t *testing.T) {
	s := &script{panics: 1}
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", s, nil)
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrCyclePanicked) {
		t.Fatalf("panicked cycle: got %v, want ErrCyclePanicked", err)
	}
	// The campaign restarted in place; the retried index is reused.
	res, err := assess(sup, "c1")
	if err != nil {
		t.Fatalf("assess after restart: %v", err)
	}
	if res.Cycle != 0 {
		t.Fatalf("retried cycle index: got %d, want 0", res.Cycle)
	}
	h, _ := sup.CampaignHealth("c1")
	if h.Restarts != 1 || h.TotalRestarts != 1 || h.Stats.CycleErrors != 1 {
		t.Fatalf("restart accounting: %+v", h)
	}
}

func TestNotDurableTriggersRestart(t *testing.T) {
	s := &script{notDur: 1}
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", s, nil)
	if _, err := assess(sup, "c1"); !errors.Is(err, core.ErrCycleNotDurable) {
		t.Fatalf("got %v, want ErrCycleNotDurable", err)
	}
	if h, _ := sup.CampaignHealth("c1"); h.Restarts != 1 {
		t.Fatalf("journal failure did not restart: %+v", h)
	}
}

func TestPlainCycleErrorDoesNotRestart(t *testing.T) {
	s := &script{errs: 1}
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", s, nil)
	if _, err := assess(sup, "c1"); err == nil {
		t.Fatal("scripted error lost")
	}
	h, _ := sup.CampaignHealth("c1")
	if h.Restarts != 0 || h.State != "running" {
		t.Fatalf("ordinary error restarted the campaign: %+v", h)
	}
	if _, err := assess(sup, "c1"); err != nil {
		t.Fatalf("campaign did not keep serving: %v", err)
	}
}

func TestQuarantineAndOperatorResume(t *testing.T) {
	budget := 2
	s := &script{panics: 100}
	sibling := &script{}
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "sick", s, func(sp *Spec) {
		sp.Restart = &RestartPolicy{MaxRestarts: budget}
	})
	createFake(t, sup, "healthy", sibling, nil)

	// Each panicking cycle consumes one restart; the failure after the
	// budget is exhausted quarantines.
	for i := 0; i < budget+1; i++ {
		if _, err := assess(sup, "sick"); !errors.Is(err, ErrCyclePanicked) {
			t.Fatalf("assess %d: got %v", i, err)
		}
	}
	h, _ := sup.CampaignHealth("sick")
	if h.State != "quarantined" || h.Mode != "quarantined" {
		t.Fatalf("not quarantined: %+v", h)
	}
	if h.Restarts != budget {
		t.Fatalf("restart count exceeded budget: %+v", h)
	}
	if h.LastError == "" {
		t.Fatalf("quarantine lost its cause: %+v", h)
	}
	if _, err := assess(sup, "sick"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("assess while quarantined: got %v", err)
	}
	if sup.Healthy() {
		t.Fatal("supervisor healthy with a quarantined campaign")
	}

	// Isolation: the sibling campaign never noticed.
	if _, err := assess(sup, "healthy"); err != nil {
		t.Fatalf("sibling assess: %v", err)
	}
	if hh, _ := sup.CampaignHealth("healthy"); hh.Restarts != 0 || hh.State != "running" {
		t.Fatalf("failure leaked into sibling: %+v", hh)
	}

	// Operator resume resets the budget and rebuilds.
	s.mu.Lock()
	s.panics = 0
	s.mu.Unlock()
	if err := sup.Resume("sick"); err != nil {
		t.Fatalf("resume from quarantine: %v", err)
	}
	if _, err := assess(sup, "sick"); err != nil {
		t.Fatalf("assess after resume: %v", err)
	}
	h, _ = sup.CampaignHealth("sick")
	if h.State != "running" || h.Restarts != 0 {
		t.Fatalf("resume did not reset budget: %+v", h)
	}
	if !sup.Healthy() {
		t.Fatal("supervisor unhealthy after resume")
	}
}

func TestKickAbortsInFlightCycle(t *testing.T) {
	s := &script{block: make(chan struct{}), blocking: 1}
	sup := newTestSupervisor(t, nil)
	createFake(t, sup, "c1", s, nil)
	errc := make(chan error, 1)
	go func() {
		_, err := assess(sup, "c1")
		errc <- err
	}()
	// Wait for the cycle to actually block, then kick it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		started := s.cycles > 0
		s.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cycle never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.Kick("c1", "stuck in test"); err != nil {
		t.Fatalf("kick: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrCycleStalled) {
		t.Fatalf("kicked cycle: got %v, want ErrCycleStalled", err)
	}
	close(s.block) // release the abandoned goroutine
	if _, err := assess(sup, "c1"); err != nil {
		t.Fatalf("assess after kick restart: %v", err)
	}
	h, _ := sup.CampaignHealth("c1")
	if h.Stats.Stalls != 1 || h.Restarts != 1 {
		t.Fatalf("stall accounting: %+v", h)
	}
}

func TestWatchdogAbortsStalledCycle(t *testing.T) {
	s := &script{block: make(chan struct{}), blocking: 1}
	sup := newTestSupervisor(t, func(o *Options) {
		o.StallTimeout = 5 * time.Millisecond
	})
	createFake(t, sup, "c1", s, nil)
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrCycleStalled) {
		t.Fatalf("stalled cycle: got %v, want ErrCycleStalled", err)
	}
	close(s.block)
	if _, err := assess(sup, "c1"); err != nil {
		t.Fatalf("assess after watchdog restart: %v", err)
	}
}

func TestBusyQueue(t *testing.T) {
	s := &script{block: make(chan struct{}), blocking: 1}
	sup := newTestSupervisor(t, func(o *Options) { o.QueueDepth = 1 })
	c := createFake(t, sup, "c1", s, nil)
	first := make(chan error, 1)
	go func() {
		_, err := assess(sup, "c1")
		first <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		started := s.cycles > 0
		s.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cycle never started")
		}
		time.Sleep(time.Millisecond)
	}
	// Worker busy on the blocked cycle: one request fits the queue, the
	// next must fail fast. Wait for the queued request to land so the
	// busy probe cannot steal the slot and block on its reply.
	second := make(chan error, 1)
	go func() {
		_, err := assess(sup, "c1")
		second <- err
	}()
	for len(c.requests) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrBusy) {
		t.Fatalf("full queue: got %v, want ErrBusy", err)
	}
	close(s.block)
	if err := <-first; err == nil {
		t.Fatal("blocked cycle reported success after release")
	}
	if err := <-second; err != nil {
		t.Fatalf("queued request failed after release: %v", err)
	}
}

// TestShutdownDrainAbandonsTickets: requests drained at shutdown never
// ran a cycle, so the admission controller counts them abandoned, not
// completed, and the drain-rate estimate behind Retry-After keeps the
// pace of the cycles that did run instead of shrinking toward zero.
func TestShutdownDrainAbandonsTickets(t *testing.T) {
	s := &script{block: make(chan struct{})}
	sup := New(Options{
		Logger:     quietLogger(),
		Sleep:      func(time.Duration) {},
		QueueDepth: 8,
		Admission:  &admission.Config{},
	})
	c := createFake(t, sup, "c1", s, nil)
	// Completions a gap apart set the estimate; Retry-After clamps to at
	// least 1s, so the gap must exceed it to be visible.
	const gap = 1100 * time.Millisecond
	for i := 0; i < 2; i++ {
		if i > 0 {
			time.Sleep(gap)
		}
		if _, err := assess(sup, "c1"); err != nil {
			t.Fatal(err)
		}
	}
	before := sup.Admission()
	if before.RetryAfterSeconds < gap.Seconds() {
		t.Fatalf("Retry-After %vs after completions %v apart", before.RetryAfterSeconds, gap)
	}

	// Hold the worker in a third cycle and queue requests behind it.
	s.mu.Lock()
	s.blocking = 1
	s.mu.Unlock()
	const queued = 4
	errs := make(chan error, queued+1)
	send := func() {
		_, err := assess(sup, "c1")
		errs <- err
	}
	go send()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		started := s.cycles == 3
		s.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("third cycle never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < queued; i++ {
		go send()
	}
	for len(c.requests) < queued {
		if time.Now().After(deadline) {
			t.Fatal("requests never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// The held cycle ends a gap after the last one, so it keeps the
	// estimate; the queued requests must not move it.
	time.Sleep(gap)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- sup.Shutdown(ctx) }()
	for stopping := false; !stopping; {
		select {
		case <-c.stop:
			stopping = true
		case <-time.After(time.Millisecond):
		}
	}
	close(s.block)
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	drained := 0
	for i := 0; i < queued+1; i++ {
		if err := <-errs; errors.Is(err, ErrShutdown) {
			drained++
		}
	}
	after := sup.Admission()
	if drained != queued || after.Abandoned != before.Abandoned+queued {
		t.Errorf("drained %d, abandoned %d -> %d; want %d of each", drained, before.Abandoned, after.Abandoned, queued)
	}
	if after.Inflight != 0 {
		t.Errorf("inflight %d after shutdown, want 0", after.Inflight)
	}
	if after.RetryAfterSeconds < before.RetryAfterSeconds {
		t.Errorf("Retry-After fell from %vs to %vs across the drain", before.RetryAfterSeconds, after.RetryAfterSeconds)
	}
}

func TestShutdownDrains(t *testing.T) {
	sup := New(Options{Logger: quietLogger(), Sleep: func(time.Duration) {}})
	createFake(t, sup, "c1", &script{}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sup.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := sup.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	if _, err := assess(sup, "c1"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("assess after shutdown: got %v", err)
	}
	if _, err := sup.Create(Spec{ID: "late", Build: func(BuildContext) (core.Scheme, error) {
		return &fakeScheme{s: &script{}}, nil
	}}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("create after shutdown: got %v", err)
	}
}

func TestHealthSortedAndIDs(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	for _, id := range []string{"zeta", "alpha", "mid"} {
		createFake(t, sup, id, &script{}, nil)
	}
	hs := sup.Health()
	if len(hs) != 3 || hs[0].ID != "alpha" || hs[1].ID != "mid" || hs[2].ID != "zeta" {
		t.Fatalf("health order: %+v", hs)
	}
	ids := sup.IDs()
	if len(ids) != 3 || ids[0] != "alpha" || ids[2] != "zeta" {
		t.Fatalf("IDs order: %v", ids)
	}
}

// ---- breaker state machine ----

type fakePlatform struct {
	mu      sync.Mutex
	fail    int // next N submissions are outages
	calls   int
	hardErr error // when set, returned instead of an outage
}

func (p *fakePlatform) Submit(_ *simclock.Clock, _ crowd.TemporalContext, queries []crowd.Query) ([]crowd.QueryResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.hardErr != nil {
		return nil, p.hardErr
	}
	if p.fail > 0 {
		p.fail--
		return nil, fmt.Errorf("fake platform: %w", crowd.ErrUnavailable)
	}
	return make([]crowd.QueryResult, len(queries)), nil
}

func (p *fakePlatform) Spent() float64 { return 0 }

func submitN(t *testing.T, p core.CrowdPlatform, n int) []error {
	t.Helper()
	errs := make([]error, 0, n)
	for i := 0; i < n; i++ {
		_, err := p.Submit(nil, crowd.TemporalContext(0), []crowd.Query{{}})
		errs = append(errs, err)
	}
	return errs
}

func TestBreakerTripsAndRecovers(t *testing.T) {
	inner := &fakePlatform{fail: 4}
	// CallAdvance 10m against ProbeBase 30m with jitter 0.2: the open
	// interval lands in (24m, 30m], so exactly two rejected submissions
	// precede the probe.
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Seed: 1}, "t", nil)
	p := b.Wrap(inner)

	for i, err := range submitN(t, p, 3) {
		if !errors.Is(err, crowd.ErrUnavailable) {
			t.Fatalf("outage %d: got %v", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold outages: %v", b.State())
	}
	before := inner.calls
	for i, err := range submitN(t, p, 2) {
		if !errors.Is(err, crowd.ErrUnavailable) {
			t.Fatalf("rejection %d: got %v", i, err)
		}
	}
	if inner.calls != before {
		t.Fatalf("open breaker touched the platform: %d calls", inner.calls-before)
	}
	// Next submission is the probe; the platform has one failure left,
	// so it fails and the breaker reopens with a longer interval.
	if errs := submitN(t, p, 1); !errors.Is(errs[0], crowd.ErrUnavailable) {
		t.Fatalf("probe: got %v", errs[0])
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe: %v", b.State())
	}
	// The platform is healthy now; keep submitting until the next probe
	// goes through and closes the breaker.
	closed := false
	for i := 0; i < 12 && !closed; i++ {
		errs := submitN(t, p, 1)
		closed = errs[0] == nil
	}
	if !closed || b.State() != BreakerClosed {
		t.Fatalf("breaker did not close after recovery: state=%v", b.State())
	}
	h := b.Health()
	if h.Opens != 2 || h.Probes != 2 || h.Rejections < 3 {
		t.Fatalf("breaker accounting: %+v", h)
	}
	// Healthy breaker is transparent again.
	if errs := submitN(t, p, 2); errs[0] != nil || errs[1] != nil {
		t.Fatalf("closed breaker failed healthy submissions: %v", errs)
	}
}

func TestBreakerDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []string {
		inner := &fakePlatform{fail: 10}
		b := NewBreaker(BreakerConfig{Seed: seed}, "t", nil)
		p := b.Wrap(inner)
		states := make([]string, 0, 24)
		for i := 0; i < 24; i++ {
			_, _ = p.Submit(nil, crowd.TemporalContext(0), []crowd.Query{{}})
			states = append(states, b.State().String())
		}
		return states
	}
	a, bb := run(7), run(7)
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("same seed diverged at call %d: %s vs %s", i, a[i], bb[i])
		}
	}
}

func TestBreakerHardErrorsAreNeutral(t *testing.T) {
	inner := &fakePlatform{hardErr: errors.New("malformed query")}
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Seed: 3}, "t", nil)
	p := b.Wrap(inner)
	for _, err := range submitN(t, p, 6) {
		if err == nil || errors.Is(err, crowd.ErrUnavailable) {
			t.Fatalf("hard error mangled: %v", err)
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("hard errors tripped the breaker: %v", b.State())
	}
}

func TestBreakerOutageStreakResetOnSuccess(t *testing.T) {
	inner := &fakePlatform{fail: 2}
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Seed: 5}, "t", nil)
	p := b.Wrap(inner)
	submitN(t, p, 2) // two outages
	submitN(t, p, 1) // success resets the streak
	inner.mu.Lock()
	inner.fail = 2
	inner.mu.Unlock()
	submitN(t, p, 2)
	if b.State() != BreakerClosed {
		t.Fatalf("non-consecutive outages tripped the breaker: %v", b.State())
	}
	if b.Health().ConsecutiveFailures != 2 {
		t.Fatalf("streak accounting: %+v", b.Health())
	}
}

func TestBreakerDisabled(t *testing.T) {
	sup := newTestSupervisor(t, func(o *Options) { o.Breaker.Disabled = true })
	createFake(t, sup, "c1", &script{}, nil)
	if h, _ := sup.CampaignHealth("c1"); h.Breaker != nil {
		t.Fatalf("disabled breaker surfaced in health: %+v", h)
	}
}

func TestSeedForStable(t *testing.T) {
	if seedFor("a", 1) != seedFor("a", 1) {
		t.Fatal("seedFor not stable")
	}
	if seedFor("a", 1) == seedFor("b", 1) {
		t.Fatal("seedFor does not separate IDs")
	}
	if seedFor("a", 1) < 0 {
		t.Fatal("seedFor produced a negative seed")
	}
}

// TestBuildPanicIsError pins the epoch-assembly guard: a Build callback
// that panics surfaces as an ErrCyclePanicked-wrapped Create error and
// leaves no campaign registered.
func TestBuildPanicIsError(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	_, err := sup.Create(Spec{ID: "boom", Build: func(BuildContext) (core.Scheme, error) {
		panic("scripted build panic")
	}})
	if !errors.Is(err, ErrCyclePanicked) {
		t.Fatalf("panicking Build: got %v, want ErrCyclePanicked", err)
	}
	if _, gerr := sup.Campaign("boom"); !errors.Is(gerr, ErrUnknownCampaign) {
		t.Fatalf("panicking Create left campaign registered: %v", gerr)
	}
}

// TestRebuildPanicConsumesRestartsAndQuarantines covers the failure
// mode found by the chaos suite: a panic during epoch rebuild (here the
// Build callback; in the chaos run, recovery replay) must consume
// restarts and end in quarantine — not kill the worker goroutine and
// strand the caller blocked in Assess.
func TestRebuildPanicConsumesRestartsAndQuarantines(t *testing.T) {
	sup := newTestSupervisor(t, nil)
	s := &script{panics: 1} // first cycle panics, forcing a restart
	builds := 0
	c := createFake(t, sup, "c", s, func(spec *Spec) {
		spec.Restart = &RestartPolicy{MaxRestarts: 3}
		spec.Build = func(BuildContext) (core.Scheme, error) {
			builds++
			if builds > 1 { // every rebuild after the initial epoch panics
				panic("scripted rebuild panic")
			}
			return &fakeScheme{s: s}, nil
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := assess(sup, "c")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCyclePanicked) {
			t.Fatalf("assess: got %v, want ErrCyclePanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("assess stranded: rebuild panic killed the worker")
	}
	if got := c.State(); got != StateQuarantined {
		t.Fatalf("state = %s, want quarantined", got)
	}
	h := c.health()
	if h.Restarts != 3 || builds != 4 {
		t.Fatalf("restarts=%d builds=%d, want 3 restarts consumed across 4 builds", h.Restarts, builds)
	}
	// The worker survived: lifecycle ops still answer.
	if _, err := assess(sup, "c"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("post-quarantine assess: got %v, want ErrQuarantined", err)
	}
}
