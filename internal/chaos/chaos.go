// Package chaos is the seeded chaos harness for the supervised campaign
// runtime. A Scenario places deterministic kill points — mid-cycle
// panics, stalled submissions, torn persistence writes, platform
// outages — into N concurrently-driven campaigns, then checks the
// supervision invariants:
//
//  1. recovery is byte-identical: every campaign's post-chaos state
//     equals an uninterrupted reference run over its committed cycles;
//  2. failure domains hold: campaigns without kill points finish with
//     zero restarts;
//  3. restart counts stay within the configured budget, and campaigns
//     expected to quarantine do (and only those);
//  4. circuit-breaker transitions are observable in the metrics
//     registry.
//
// The harness is pure library so the test suite (chaos_test.go) and the
// operator CLI (cmd/crowdchaos) drive the same scenarios.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/admission"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
	"github.com/crowdlearn/crowdlearn/internal/faults"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/simclock"
	"github.com/crowdlearn/crowdlearn/internal/store"
	"github.com/crowdlearn/crowdlearn/internal/supervise"
)

// CampaignPlan scripts one campaign's failures. Kill indices count the
// campaign's live (armed) crowd submissions from 1; each index fires
// exactly once, including across restarts — a killed submission never
// commits, so the retried cycle's resubmission is the next index.
type CampaignPlan struct {
	// PanicAt panics inside the platform call at these submission
	// indices (mid-cycle: learned state has already been touched).
	PanicAt []int
	// StallAt blocks the platform call at these indices until the
	// runner kicks the campaign and releases the stall.
	StallAt []int
	// StoreFaults seeds torn-write/rename-failure injection in the
	// campaign's persistence layer.
	StoreFaults store.FaultConfig
	// Faults seeds crowd-platform fault injection (outages, worker
	// abandonment, ...).
	Faults faults.Config
}

// Scenario is one chaos run.
type Scenario struct {
	Name string
	// Seed differentiates otherwise-identical scenarios: it salts every
	// per-campaign injector, breaker and restart-policy seed.
	Seed int64
	// Cycles is the target committed cycle count per campaign.
	Cycles int
	// Campaigns scripts each campaign; len(Campaigns) is the fleet size.
	Campaigns []CampaignPlan
	// Restart overrides the default test restart policy.
	Restart *supervise.RestartPolicy
	// Breaker overrides the default test breaker config.
	Breaker *supervise.BreakerConfig
	// ExpectQuarantine lists campaign indices whose script is designed
	// to exhaust the restart budget.
	ExpectQuarantine []int
	// ExpectBreakerOpen lists campaign indices whose script must trip
	// the circuit breaker open at least once.
	ExpectBreakerOpen []int
	// Pipelined drives every campaign through core.RunCampaign against
	// a store-backed journal, whose commits detach, instead of the
	// supervised runtime: kills land while the previous cycle's
	// detached commit may still be in flight, and recovery goes
	// through store.Recover directly.
	// Pipelined scenarios support panic kills only (no stalls, no store
	// faults) and assert the same invariants via Check.
	Pipelined bool
	// Overload, when non-nil, enables the fleet-wide admission controller
	// (tight limits) and fires bursts of concurrent assessments at a
	// dedicated "burst" campaign while the scripted campaigns run. The
	// scenario then additionally asserts that shedding actually happened,
	// that every burst failure was marked retryable, and that the burst
	// target shed load without tripping supervision (zero restarts). The
	// burst campaign is excluded from the committed-cycle and
	// byte-equivalence invariants. Supervised scenarios only.
	Overload *OverloadPlan
}

// OverloadPlan scripts the overload arm of a scenario.
type OverloadPlan struct {
	// Burst is the number of concurrent requests fired per round.
	Burst int
	// Rounds repeats the burst back-to-back.
	Rounds int
	// Retry drives every burst client through admission.RetryPolicy with
	// a shared retry Budget and a no-op sleep — the retry-storm arm.
	// False fires each request exactly once.
	Retry bool
}

// overloadAdmission is the deliberately tight controller configuration
// overload scenarios run under, so a modest burst reliably walks the
// whole shedding ladder (admit → degrade → reject).
func overloadAdmission() *admission.Config {
	return &admission.Config{
		Target:       time.Millisecond,
		MinLimit:     1,
		MaxLimit:     8,
		InitialLimit: 2,
	}
}

// overloadRejectBackstop bounds a scripted driver's shed-rejection spin
// during bursts. It is a livelock backstop, not an invariant: rejections
// are retryable by design and the driver yields between attempts.
const overloadRejectBackstop = 1 << 20

// storeFaultsEnabled mirrors store's unexported enabled check.
func storeFaultsEnabled(c store.FaultConfig) bool {
	return c.TornCheckpointRate > 0 || c.RenameFailRate > 0 || c.TornWALRate > 0
}

// expectsQuarantine reports whether campaign i is scripted to quarantine.
func (sc Scenario) expectsQuarantine(i int) bool {
	for _, q := range sc.ExpectQuarantine {
		if q == i {
			return true
		}
	}
	return false
}

// killCount is the scripted kill total for campaign i.
func (sc Scenario) killCount(i int) int {
	p := sc.Campaigns[i]
	return len(p.PanicAt) + len(p.StallAt)
}

// Script injects the scenario's kill points into one campaign's platform
// chain. It sits between the circuit breaker and the fault injector, so
// a kill fires only on submissions the breaker let through. The script
// outlives campaign epochs (the Build closure reuses it), which is what
// makes "fire exactly once" hold across restarts; it disarms itself when
// a kill fires so recovery replay passes through untouched, and the
// driver re-arms it before the next live attempt.
type Script struct {
	mu      sync.Mutex
	armed   bool
	calls   int // armed live submissions observed
	panicAt map[int]bool
	stallAt map[int]bool
	release chan struct{} // current stall's release gate
	notify  chan struct{} // one token per begun stall

	panicsFired int
	stallsFired int
}

// NewScript compiles a plan's kill points.
func NewScript(plan CampaignPlan) *Script {
	s := &Script{
		panicAt: make(map[int]bool, len(plan.PanicAt)),
		stallAt: make(map[int]bool, len(plan.StallAt)),
		notify:  make(chan struct{}, len(plan.StallAt)+1),
	}
	for _, i := range plan.PanicAt {
		s.panicAt[i] = true
	}
	for _, i := range plan.StallAt {
		s.stallAt[i] = true
	}
	return s
}

// Arm enables kill points for the next live submission window.
func (s *Script) Arm() {
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()
}

// StallBegan yields one token per stall the script has begun.
func (s *Script) StallBegan() <-chan struct{} { return s.notify }

// Release unblocks the in-progress stall.
func (s *Script) Release() {
	s.mu.Lock()
	ch := s.release
	s.release = nil
	s.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Fired reports how many kills have fired so far.
func (s *Script) Fired() (panics, stalls int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.panicsFired, s.stallsFired
}

// Wrap places the script into a platform chain.
func (s *Script) Wrap(inner core.CrowdPlatform) core.CrowdPlatform {
	return &scriptPlatform{script: s, inner: inner}
}

type scriptPlatform struct {
	script *Script
	inner  core.CrowdPlatform
}

var _ core.CrowdPlatform = (*scriptPlatform)(nil)

func (p *scriptPlatform) Submit(clk *simclock.Clock, ctx crowd.TemporalContext, queries []crowd.Query) ([]crowd.QueryResult, error) {
	s := p.script
	s.mu.Lock()
	if !s.armed {
		s.mu.Unlock()
		return p.inner.Submit(clk, ctx, queries)
	}
	s.calls++
	call := s.calls
	switch {
	case s.panicAt[call]:
		delete(s.panicAt, call)
		s.panicsFired++
		s.armed = false // replay must pass through untouched
		s.mu.Unlock()
		panic(fmt.Sprintf("chaos: scripted kill at live submission %d", call))
	case s.stallAt[call]:
		delete(s.stallAt, call)
		s.stallsFired++
		s.armed = false
		release := make(chan struct{})
		s.release = release
		s.mu.Unlock()
		s.notify <- struct{}{}
		<-release
		// Never forward: the stalled call must not advance platform
		// state the journal knows nothing about.
		return nil, errors.New("chaos: stalled submission released after abandonment")
	default:
		s.mu.Unlock()
		return p.inner.Submit(clk, ctx, queries)
	}
}

func (p *scriptPlatform) Spent() float64 { return p.inner.Spent() }

// CampaignResult is one campaign's outcome.
type CampaignResult struct {
	ID string
	// Committed is the cycle count the campaign durably completed.
	Committed int
	// FinalState / RefState are the SaveState bytes of the chaotic arm
	// and of its uninterrupted reference run over Committed cycles.
	FinalState []byte
	RefState   []byte
	// Health is the campaign's final health snapshot.
	Health supervise.CampaignHealth
	// Quarantined records whether the campaign ended quarantined before
	// the operator resume the runner performs to snapshot its state.
	Quarantined bool
	// PanicsFired / StallsFired are the script's kill tallies.
	PanicsFired int
	StallsFired int
	// ShedResults counts driver assessments served on the admission
	// degrade tier (overload scenarios; sheds commit no cycle).
	ShedResults int
	// OverloadRejects counts retryable admission rejections the driver
	// absorbed while the fleet was shedding (overload scenarios).
	OverloadRejects int
	// AssessErrors are the per-attempt failures the driver observed.
	AssessErrors []string
}

// Result is a completed scenario.
type Result struct {
	Scenario  Scenario
	Campaigns []CampaignResult
	// Overload is the burst arm's outcome (scenarios with an
	// OverloadPlan).
	Overload *OverloadResult
	// Metrics is the registry's Prometheus rendering after the run.
	Metrics string
	// Err is a fatal harness error (scenario could not be driven).
	Err error
}

// OverloadResult is what the burst clients observed.
type OverloadResult struct {
	// Requests is the number of burst clients (terminal outcomes).
	Requests int
	// FullCycles / Shed count successful responses by tier.
	FullCycles int
	Shed       int
	// Rejected counts clients that ended with a retryable failure.
	Rejected int
	// BudgetDenied counts clients stopped by the shared retry budget
	// (Retry arm only — the storm-amplification bound at work).
	BudgetDenied int
	// Attempts totals Assess invocations across all clients and retries.
	Attempts int
	// NonRetryable lists failures that were neither a success nor marked
	// retryable nor budget-bounded — always an invariant violation.
	NonRetryable []string
	// BurstHealth is the burst campaign's final health snapshot.
	BurstHealth supervise.CampaignHealth
}

// Runner drives scenarios against one shared laboratory environment.
type Runner struct {
	Env    *experiments.Env
	Logger *slog.Logger
	// ImagesPerCycle sizes each cycle's workload (default 10).
	ImagesPerCycle int
}

// maxAttempts bounds the retry loop per cycle: every scripted kill can
// fail one attempt, plus the attempt that finally succeeds, plus slack
// for store-fault-induced rollbacks.
func (sc Scenario) maxAttempts(i int) int { return sc.killCount(i) + 8 }

// defaultRestart keeps chaos runs fast and deterministic: backoff
// delays are data (the supervisor's sleep is a no-op seam in Run).
func defaultRestart(seed int64) *supervise.RestartPolicy {
	return &supervise.RestartPolicy{MaxRestarts: 5, Seed: seed}
}

// Run executes one scenario in dir (each campaign gets dir/<id>).
func (r *Runner) Run(sc Scenario, dir string) *Result {
	res := &Result{Scenario: sc}
	logger := r.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	perCycle := r.ImagesPerCycle
	if perCycle == 0 {
		perCycle = 10
	}
	if sc.Pipelined {
		return r.runPipelined(sc, dir, logger, perCycle)
	}
	need := len(sc.Campaigns) * sc.Cycles * perCycle
	if need > len(r.Env.Dataset.Test) {
		res.Err = fmt.Errorf("chaos: scenario %s needs %d test images, have %d", sc.Name, need, len(r.Env.Dataset.Test))
		return res
	}

	reg := obs.NewRegistry()
	supOpts := supervise.Options{
		Logger:  logger,
		Metrics: reg,
		Sleep:   func(time.Duration) {}, // backoff delays are asserted, not slept
	}
	if sc.Overload != nil {
		supOpts.Admission = overloadAdmission()
	}
	sup := supervise.New(supOpts)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sup.Shutdown(ctx); err != nil && res.Err == nil {
			res.Err = err
		}
	}()

	type campaignRun struct {
		id     string
		script *Script
		plan   CampaignPlan
		images []*imagery.Image
	}
	runs := make([]*campaignRun, len(sc.Campaigns))
	train := classifier.SamplesFromImages(r.Env.Dataset.Train)
	for i, plan := range sc.Campaigns {
		i, plan := i, plan
		id := fmt.Sprintf("c%02d", i)
		script := NewScript(plan)
		seed := sc.Seed*1000 + int64(i)
		restart := sc.Restart
		if restart == nil {
			restart = defaultRestart(seed + 1)
		}
		brk := supervise.BreakerConfig{Seed: seed + 2}
		if sc.Breaker != nil {
			brk = *sc.Breaker
			brk.Seed = seed + 2
		}
		images := r.Env.Dataset.Test[i*sc.Cycles*perCycle : (i+1)*sc.Cycles*perCycle]
		runs[i] = &campaignRun{id: id, script: script, plan: plan, images: images}
		faultCfg := plan.Faults
		faultCfg.Seed = seed + 3
		_, err := sup.Create(supervise.Spec{
			ID:              id,
			StateDir:        fmt.Sprintf("%s/%s", dir, id),
			CheckpointEvery: 2,
			StoreFaults:     plan.StoreFaults,
			TrainSamples:    train,
			Registry:        r.Env.Dataset.Test,
			Restart:         restart,
			Breaker:         &brk,
			Build: func(bc supervise.BuildContext) (core.Scheme, error) {
				inj, err := faults.New(r.Env.NewPlatform(), faultCfg)
				if err != nil {
					return nil, err
				}
				return r.Env.NewSystemOn(bc.WrapPlatform(script.Wrap(inj)), func(cfg *core.Config) {
					cfg.Journal = bc.Journal
				})
			},
		})
		if err != nil {
			res.Err = fmt.Errorf("chaos: create %s: %w", id, err)
			return res
		}
		// Stall monitor: when the script blocks a submission, kick the
		// campaign (the deterministic stand-in for the wall-clock
		// watchdog) and release the abandoned call.
		supervise.Go("chaos.stallmonitor."+id, logger, func() {
			for range script.StallBegan() {
				_ = sup.Kick(id, "chaos: scripted stall")
				script.Release()
			}
		})
	}

	// The overload arm gets its own campaign so burst traffic (and the
	// cycles it does commit) never perturbs the scripted campaigns'
	// committed-cycle and byte-equivalence invariants.
	if sc.Overload != nil {
		seed := sc.Seed*1000 + 999
		burstImages := r.Env.Dataset.Test[need:]
		if len(burstImages) == 0 {
			burstImages = r.Env.Dataset.Test
		}
		_, err := sup.Create(supervise.Spec{
			ID:              "burst",
			StateDir:        fmt.Sprintf("%s/burst", dir),
			CheckpointEvery: 2,
			TrainSamples:    train,
			Registry:        r.Env.Dataset.Test,
			Restart:         defaultRestart(seed + 1),
			Breaker:         &supervise.BreakerConfig{Seed: seed + 2},
			Build: func(bc supervise.BuildContext) (core.Scheme, error) {
				return r.Env.NewSystemOn(bc.WrapPlatform(r.Env.NewPlatform()), func(cfg *core.Config) {
					cfg.Journal = bc.Journal
				})
			},
		})
		if err != nil {
			res.Err = fmt.Errorf("chaos: create burst campaign: %w", err)
			return res
		}
	}

	// Drive all campaigns concurrently: isolation failures (one
	// campaign's restart corrupting another) only surface under
	// concurrent load.
	results := make([]CampaignResult, len(runs))
	var wg sync.WaitGroup
	for i, cr := range runs {
		i, cr := i, cr
		wg.Add(1)
		supervise.Go("chaos.driver."+cr.id, logger, func() {
			defer wg.Done()
			results[i] = r.driveCampaign(sup, sc, i, cr.id, cr.script, cr.images, perCycle)
		})
	}
	if sc.Overload != nil {
		wg.Add(1)
		supervise.Go("chaos.burst", logger, func() {
			defer wg.Done()
			burstImages := r.Env.Dataset.Test[need:]
			if len(burstImages) == 0 {
				burstImages = r.Env.Dataset.Test
			}
			res.Overload = r.driveBurst(sup, sc, logger, burstImages)
		})
	}
	wg.Wait()

	// Snapshot state while the supervisor is still up. Quarantined
	// campaigns are resumed first — the operator path that resets the
	// budget and rebuilds from the last durable state.
	for i := range results {
		cres := &results[i]
		if cres.Quarantined {
			if err := sup.Resume(cres.ID); err != nil {
				cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("resume from quarantine: %v", err))
				continue
			}
		}
		h, err := sup.CampaignHealth(cres.ID)
		if err != nil {
			cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("health: %v", err))
			continue
		}
		cres.Health = h
		cres.Committed = h.NextCycle
		state, err := sup.StateBytes(cres.ID)
		if err != nil {
			cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("state snapshot: %v", err))
			continue
		}
		cres.FinalState = state
	}

	// Reference arms: the same platform chain minus the script, driven
	// uninterrupted over exactly the cycles the chaotic arm committed.
	for i := range results {
		cres := &results[i]
		if cres.FinalState == nil {
			continue
		}
		ref, err := r.referenceState(sc, i, runs[i].images, perCycle, cres.Committed)
		if err != nil {
			cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("reference arm: %v", err))
			continue
		}
		cres.RefState = ref
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err == nil {
		res.Metrics = buf.String()
	}
	res.Campaigns = results
	return res
}

// driveCampaign pushes one campaign to sc.Cycles committed cycles,
// retrying cycles the scripted kills abort. The cycle index always comes
// from the campaign's own health — after a restart recovers to an
// earlier durable point (e.g. a torn WAL record), the driver follows it
// back rather than feeding inputs for the wrong cycle.
func (r *Runner) driveCampaign(sup *supervise.Supervisor, sc Scenario, idx int, id string, script *Script, images []*imagery.Image, perCycle int) CampaignResult {
	cres := CampaignResult{ID: id}
	attempts := 0
	for {
		h, err := sup.CampaignHealth(id)
		if err != nil {
			cres.AssessErrors = append(cres.AssessErrors, err.Error())
			break
		}
		cycle := h.NextCycle
		if cycle >= sc.Cycles {
			break
		}
		tctx := crowd.TemporalContext(cycle % crowd.NumContexts)
		batch := images[cycle*perCycle : (cycle+1)*perCycle]
		script.Arm()
		res, err := sup.Assess(context.Background(), id, tctx, batch)
		if err == nil {
			if res.Cycle != cycle {
				cres.AssessErrors = append(cres.AssessErrors,
					fmt.Sprintf("cycle index skew: asked %d, ran %d", cycle, res.Cycle))
				break
			}
			if res.Shed {
				// Served on the degrade tier: usable labels, no committed
				// cycle. Try the same cycle again once pressure eases.
				cres.ShedResults++
				continue
			}
			attempts = 0
			continue
		}
		if errors.Is(err, supervise.ErrQuarantined) {
			cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("cycle %d: %v", cycle, err))
			cres.Quarantined = true
			break
		}
		if admission.IsRetryable(err) {
			// Fleet-wide shedding, not a campaign failure: yield and retry
			// until the burst drains (counted, with a livelock backstop).
			cres.OverloadRejects++
			if cres.OverloadRejects > overloadRejectBackstop {
				cres.AssessErrors = append(cres.AssessErrors,
					fmt.Sprintf("cycle %d: gave up after %d shed rejections", cycle, cres.OverloadRejects))
				break
			}
			runtime.Gosched()
			continue
		}
		cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("cycle %d: %v", cycle, err))
		attempts++
		if attempts > sc.maxAttempts(idx) {
			cres.AssessErrors = append(cres.AssessErrors,
				fmt.Sprintf("cycle %d: gave up after %d attempts", cycle, attempts))
			break
		}
	}
	cres.PanicsFired, cres.StallsFired = script.Fired()
	return cres
}

// driveBurst fires the overload plan at the dedicated burst campaign:
// Rounds waves of Burst concurrent assessments, optionally retried
// through a shared-budget RetryPolicy. Every terminal outcome is
// classified; anything that is neither success, retryable, nor
// budget-bounded lands in NonRetryable and fails the scenario.
func (r *Runner) driveBurst(sup *supervise.Supervisor, sc Scenario, logger *slog.Logger, images []*imagery.Image) *OverloadResult {
	ov := sc.Overload
	ores := &OverloadResult{}
	var mu sync.Mutex
	var attempts int64
	// One budget across the whole fleet of burst clients: the
	// storm-prevention bound under test in the Retry arm.
	budget := admission.NewBudget(0.5, 4)
	for round := 0; round < ov.Rounds; round++ {
		var wg sync.WaitGroup
		for c := 0; c < ov.Burst; c++ {
			idx := round*ov.Burst + c
			wg.Add(1)
			supervise.Go(fmt.Sprintf("chaos.burst.%d", idx), logger, func() {
				defer wg.Done()
				im := images[idx%len(images)]
				op := func(ctx context.Context) error {
					atomic.AddInt64(&attempts, 1)
					ares, err := sup.Assess(ctx, "burst", crowd.Morning, []*imagery.Image{im})
					if err != nil {
						return err
					}
					mu.Lock()
					if ares.Shed {
						ores.Shed++
					} else {
						ores.FullCycles++
					}
					mu.Unlock()
					return nil
				}
				var err error
				if ov.Retry {
					p := admission.RetryPolicy{
						MaxAttempts: 3,
						Seed:        sc.Seed*10000 + int64(idx),
						Budget:      budget,
						Sleep:       func(time.Duration) {}, // retries are data, not wall time
					}
					err = p.Do(context.Background(), op)
				} else {
					err = op(context.Background())
				}
				mu.Lock()
				defer mu.Unlock()
				ores.Requests++
				switch {
				case err == nil:
				case errors.Is(err, admission.ErrBudgetExhausted):
					ores.BudgetDenied++
				case admission.IsRetryable(err):
					ores.Rejected++
				default:
					ores.NonRetryable = append(ores.NonRetryable, err.Error())
				}
			})
		}
		wg.Wait()
	}
	ores.Attempts = int(atomic.LoadInt64(&attempts))
	if h, err := sup.CampaignHealth("burst"); err == nil {
		ores.BurstHealth = h
	}
	return ores
}

// referenceState runs the uninterrupted arm: same seeds, same breaker,
// same injector, no script, no supervisor — the ground truth the
// recovered chaotic arm must match byte for byte.
func (r *Runner) referenceState(sc Scenario, i int, images []*imagery.Image, perCycle, cycles int) ([]byte, error) {
	seed := sc.Seed*1000 + int64(i)
	brk := supervise.BreakerConfig{Seed: seed + 2}
	if sc.Breaker != nil {
		brk = *sc.Breaker
		brk.Seed = seed + 2
	}
	faultCfg := sc.Campaigns[i].Faults
	faultCfg.Seed = seed + 3
	inj, err := faults.New(r.Env.NewPlatform(), faultCfg)
	if err != nil {
		return nil, err
	}
	breaker := supervise.NewBreaker(brk, fmt.Sprintf("ref%02d", i), nil)
	sys, err := r.Env.NewSystemOn(breaker.Wrap(inj), nil)
	if err != nil {
		return nil, err
	}
	for cycle := 0; cycle < cycles; cycle++ {
		in := core.CycleInput{
			Index:   cycle,
			Context: crowd.TemporalContext(cycle % crowd.NumContexts),
			Images:  images[cycle*perCycle : (cycle+1)*perCycle],
		}
		if _, err := sys.RunCycle(in); err != nil {
			return nil, fmt.Errorf("reference cycle %d: %w", cycle, err)
		}
	}
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runPipelined drives a Scenario through core.RunCampaign:
// each campaign runs against its own store-backed journal with the
// snapshot-then-encode seam installed, so scripted panics land
// mid-compute while the previous cycle's detached commit may still be
// in flight. The harness treats a panic as a process death — it joins
// no in-memory state, reopens the store, recovers through
// store.Recover and resumes the pipelined campaign at the recovered
// cycle. Results feed the unmodified Check: committed cycle counts,
// fired-kill tallies and byte-identical recovery hold exactly as for
// supervised scenarios (Health stays zero — no supervisor runs).
func (r *Runner) runPipelined(sc Scenario, dir string, logger *slog.Logger, perCycle int) *Result {
	res := &Result{Scenario: sc}
	for _, plan := range sc.Campaigns {
		if len(plan.StallAt) > 0 || storeFaultsEnabled(plan.StoreFaults) {
			res.Err = fmt.Errorf("chaos: pipelined scenario %s supports panic kills only", sc.Name)
			return res
		}
	}
	if len(sc.ExpectQuarantine) > 0 {
		res.Err = fmt.Errorf("chaos: pipelined scenario %s cannot quarantine (no supervisor)", sc.Name)
		return res
	}
	need := len(sc.Campaigns) * sc.Cycles * perCycle
	if need > len(r.Env.Dataset.Test) {
		res.Err = fmt.Errorf("chaos: scenario %s needs %d test images, have %d", sc.Name, need, len(r.Env.Dataset.Test))
		return res
	}
	results := make([]CampaignResult, len(sc.Campaigns))
	var wg sync.WaitGroup
	for i := range sc.Campaigns {
		i := i
		wg.Add(1)
		supervise.Go(fmt.Sprintf("chaos.pipelined.c%02d", i), logger, func() {
			defer wg.Done()
			results[i] = r.drivePipelined(sc, i, dir, logger, perCycle)
		})
	}
	wg.Wait()
	for i := range results {
		cres := &results[i]
		if cres.FinalState == nil {
			continue
		}
		images := r.Env.Dataset.Test[i*sc.Cycles*perCycle : (i+1)*sc.Cycles*perCycle]
		ref, err := r.referenceState(sc, i, images, perCycle, cres.Committed)
		if err != nil {
			cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("reference arm: %v", err))
			continue
		}
		cres.RefState = ref
	}
	res.Campaigns = results
	return res
}

// drivePipelined pushes one campaign to sc.Cycles committed cycles
// through the pipelined runner, crash-recovering through the store
// after every scripted panic.
func (r *Runner) drivePipelined(sc Scenario, i int, dir string, logger *slog.Logger, perCycle int) CampaignResult {
	id := fmt.Sprintf("c%02d", i)
	cres := CampaignResult{ID: id}
	plan := sc.Campaigns[i]
	script := NewScript(plan)
	seed := sc.Seed*1000 + int64(i)
	brk := supervise.BreakerConfig{Seed: seed + 2}
	if sc.Breaker != nil {
		brk = *sc.Breaker
		brk.Seed = seed + 2
	}
	faultCfg := plan.Faults
	faultCfg.Seed = seed + 3
	images := r.Env.Dataset.Test[i*sc.Cycles*perCycle : (i+1)*sc.Cycles*perCycle]
	train := classifier.SamplesFromImages(r.Env.Dataset.Train)

	fail := func(format string, args ...any) CampaignResult {
		cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf(format, args...))
		cres.PanicsFired, cres.StallsFired = script.Fired()
		return cres
	}

	// build assembles a fresh epoch: store, journal with the snapshot
	// seam, and a system on the same platform chain the supervised path
	// uses (breaker → script → fault injector), all re-seeded
	// identically so recovery replay resyncs the chain byte-exactly.
	build := func() (*core.CrowdLearn, *store.Store, *store.Journal, error) {
		st, err := store.Open(store.Options{Dir: fmt.Sprintf("%s/%s", dir, id)})
		if err != nil {
			return nil, nil, nil, err
		}
		var sys *core.CrowdLearn
		journal := store.NewJournal(st, 2, func(w io.Writer) error { return sys.SaveState(w) }, logger, nil)
		inj, err := faults.New(r.Env.NewPlatform(), faultCfg)
		if err != nil {
			st.Close()
			return nil, nil, nil, err
		}
		breaker := supervise.NewBreaker(brk, id, nil)
		sys, err = r.Env.NewSystemOn(breaker.Wrap(script.Wrap(inj)), func(cfg *core.Config) {
			cfg.Journal = journal
		})
		if err != nil {
			st.Close()
			return nil, nil, nil, err
		}
		journal.SetSnapshot(func() (func(w io.Writer) error, error) {
			sn, serr := sys.SnapshotState()
			if serr != nil {
				return nil, serr
			}
			return sn.Encode, nil
		})
		return sys, st, journal, nil
	}

	// runFrom resumes the pipelined campaign at cycle start; a scripted
	// panic surfaces as an error after RunCampaign's unwind has joined
	// any in-flight detached commit.
	runFrom := func(sys *core.CrowdLearn, start int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		cfg := core.CampaignConfig{Cycles: sc.Cycles - start, ImagesPerCycle: perCycle, StartCycle: start}
		_, err = core.RunCampaign(sys, images[start*perCycle:], cfg)
		return err
	}

	sys, st, _, err := build()
	if err != nil {
		return fail("open: %v", err)
	}
	defer func() { st.Close() }()
	next, attempts := 0, 0
	for next < sc.Cycles {
		script.Arm()
		rerr := runFrom(sys, next)
		if rerr == nil {
			next = sc.Cycles
			break
		}
		cres.AssessErrors = append(cres.AssessErrors, fmt.Sprintf("cycle >=%d: %v", next, rerr))
		attempts++
		if attempts > sc.maxAttempts(i) {
			return fail("gave up after %d attempts", attempts)
		}
		// Crash: everything in memory dies with the panic; the store's
		// directory is all that survives.
		if cerr := st.Close(); cerr != nil {
			return fail("close after crash: %v", cerr)
		}
		var journal *store.Journal
		sys, st, journal, err = build()
		if err != nil {
			return fail("reopen: %v", err)
		}
		report, rerr := st.Recover(sys, store.RecoverOptions{
			TrainSamples:   train,
			Registry:       r.Env.Dataset.Test,
			ResyncPlatform: true,
			Logger:         logger,
		})
		if rerr != nil {
			return fail("recover: %v", rerr)
		}
		journal.NoteRecovered(report)
		next = report.NextCycle
	}
	cres.PanicsFired, cres.StallsFired = script.Fired()
	cres.Committed = next
	var buf bytes.Buffer
	if serr := sys.SaveState(&buf); serr != nil {
		return fail("state snapshot: %v", serr)
	}
	cres.FinalState = buf.Bytes()
	return cres
}

// Check verifies the supervision invariants and returns one line per
// violation (empty = scenario passed).
func (res *Result) Check() []string {
	var problems []string
	if res.Err != nil {
		return []string{fmt.Sprintf("harness: %v", res.Err)}
	}
	sc := res.Scenario
	for i, cres := range res.Campaigns {
		tag := fmt.Sprintf("campaign %s", cres.ID)
		if sc.expectsQuarantine(i) != cres.Quarantined {
			problems = append(problems, fmt.Sprintf("%s: quarantined=%v, expected %v (errors: %s)",
				tag, cres.Quarantined, sc.expectsQuarantine(i), strings.Join(cres.AssessErrors, "; ")))
		}
		if !cres.Quarantined && !sc.expectsQuarantine(i) && cres.Committed != sc.Cycles {
			problems = append(problems, fmt.Sprintf("%s: committed %d of %d cycles (errors: %s)",
				tag, cres.Committed, sc.Cycles, strings.Join(cres.AssessErrors, "; ")))
		}
		// Failure-domain isolation: an unscripted campaign must sail
		// through untouched.
		if sc.killCount(i) == 0 && !storeFaultsEnabled(sc.Campaigns[i].StoreFaults) {
			if cres.Health.TotalRestarts != 0 {
				problems = append(problems, fmt.Sprintf("%s: unscripted campaign restarted %d times",
					tag, cres.Health.TotalRestarts))
			}
		}
		// Every scripted kill must actually have fired, or the scenario
		// silently tests less than it claims. A quarantined campaign
		// legitimately stops before later kill points.
		if !sc.expectsQuarantine(i) {
			if cres.PanicsFired != len(sc.Campaigns[i].PanicAt) || cres.StallsFired != len(sc.Campaigns[i].StallAt) {
				problems = append(problems, fmt.Sprintf("%s: fired %d/%d panics and %d/%d stalls",
					tag, cres.PanicsFired, len(sc.Campaigns[i].PanicAt), cres.StallsFired, len(sc.Campaigns[i].StallAt)))
			}
		}
		// Restart budgets: per-streak count within budget always.
		if cres.Health.Restarts > cres.Health.Budget {
			problems = append(problems, fmt.Sprintf("%s: restarts %d exceed budget %d",
				tag, cres.Health.Restarts, cres.Health.Budget))
		}
		// Byte-identical recovery.
		switch {
		case cres.FinalState == nil:
			problems = append(problems, fmt.Sprintf("%s: no final state captured (errors: %s)",
				tag, strings.Join(cres.AssessErrors, "; ")))
		case cres.RefState == nil:
			problems = append(problems, fmt.Sprintf("%s: no reference state (errors: %s)",
				tag, strings.Join(cres.AssessErrors, "; ")))
		case !bytes.Equal(cres.FinalState, cres.RefState):
			problems = append(problems, fmt.Sprintf("%s: recovered state diverges from reference (%d vs %d bytes over %d cycles)",
				tag, len(cres.FinalState), len(cres.RefState), cres.Committed))
		}
	}
	for _, i := range sc.ExpectBreakerOpen {
		id := fmt.Sprintf("c%02d", i)
		needle := fmt.Sprintf("%s{campaign=%q,from=\"closed\",to=\"open\"}", supervise.MetricBreakerTransitions, id)
		if !strings.Contains(res.Metrics, needle) {
			problems = append(problems, fmt.Sprintf("campaign %s: no closed→open breaker transition in /metrics", id))
		}
	}
	if sc.Overload != nil {
		problems = append(problems, res.checkOverload()...)
	}
	return problems
}

// checkOverload verifies the overload-arm invariants: shedding happened,
// every burst failure stayed retryable, the burst target absorbed the
// storm without tripping supervision, and the shedding is observable in
// the fleet metrics.
func (res *Result) checkOverload() []string {
	var problems []string
	o := res.Overload
	if o == nil {
		return []string{"overload: no burst result recorded"}
	}
	if want := res.Scenario.Overload.Burst * res.Scenario.Overload.Rounds; o.Requests != want {
		problems = append(problems, fmt.Sprintf("overload: %d of %d burst clients reached a terminal outcome", o.Requests, want))
	}
	if len(o.NonRetryable) > 0 {
		problems = append(problems, fmt.Sprintf("overload: %d non-retryable burst failures (first: %s)",
			len(o.NonRetryable), o.NonRetryable[0]))
	}
	if o.Shed == 0 && o.Rejected == 0 && o.BudgetDenied == 0 {
		problems = append(problems, "overload: burst never shed or rejected — the overload never materialised")
	}
	if o.BurstHealth.TotalRestarts != 0 {
		problems = append(problems, fmt.Sprintf("overload: burst campaign restarted %d times — shedding must not trip supervision",
			o.BurstHealth.TotalRestarts))
	}
	if res.Scenario.Overload.Retry && o.Attempts <= o.Requests {
		problems = append(problems, fmt.Sprintf("overload: retry arm performed no retries (%d attempts for %d clients)",
			o.Attempts, o.Requests))
	}
	needle := fmt.Sprintf("%s{campaign=\"burst\",decision=\"degrade\"}", supervise.MetricCampaignAdmission)
	if !strings.Contains(res.Metrics, needle) {
		problems = append(problems, "overload: no degrade decision for the burst campaign in /metrics")
	}
	return problems
}
