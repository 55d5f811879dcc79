package store

import (
	"bytes"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
)

// testLogger keeps recovery chatter out of test output.
func testLogger(testing.TB) *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// The recovery tests drive real CrowdLearn systems. The lab (dataset +
// pilot study) is expensive and read-only, so it is built once; every
// system and platform is created fresh per test via the env, exactly as
// crowdlearnd does.
var (
	envOnce   sync.Once
	envShared *experiments.Env
	envErr    error
)

func testEnv(t testing.TB) *experiments.Env {
	t.Helper()
	envOnce.Do(func() {
		envShared, envErr = experiments.NewEnv(experiments.DefaultConfig())
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envShared
}

const (
	cyclesBeforeCrash = 6
	cyclesAfterCrash  = 6
	totalCycles       = cyclesBeforeCrash + cyclesAfterCrash
	imagesPerCycle    = 10
)

// runCycles drives n cycles starting at index start, consuming the test
// images the campaign schedule assigns to those cycles.
func runCycles(t testing.TB, sys *core.CrowdLearn, env *experiments.Env, start, n int) {
	t.Helper()
	cfg := core.CampaignConfig{Cycles: n, ImagesPerCycle: imagesPerCycle, StartCycle: start}
	images := env.Dataset.Test[start*imagesPerCycle : (start+n)*imagesPerCycle]
	if _, err := core.RunCampaign(sys, images, cfg); err != nil {
		t.Fatal(err)
	}
}

func stateBytes(t testing.TB, sys *core.CrowdLearn) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// uninterruptedState is the reference arm every crash test compares
// against: one system running all totalCycles cycles without any
// persistence attached, computed once.
var (
	refOnce  sync.Once
	refState []byte
)

func uninterruptedState(t testing.TB) []byte {
	t.Helper()
	env := testEnv(t)
	refOnce.Do(func() {
		sys, err := env.NewSystem()
		if err != nil {
			envErr = err
			return
		}
		runCycles(t, sys, env, 0, totalCycles)
		refState = stateBytes(t, sys)
	})
	if refState == nil {
		t.Fatal("reference arm failed to build")
	}
	return refState
}

func recoverOpts(env *experiments.Env) RecoverOptions {
	return RecoverOptions{
		TrainSamples:   classifier.SamplesFromImages(env.Dataset.Train),
		Registry:       env.Dataset.Test,
		ResyncPlatform: true,
		Logger:         testLogger(nil),
	}
}

// crashAndRecover runs cyclesBeforeCrash journaled cycles against a
// store opened with opts, drops the system, recovers a fresh one from
// the directory, runs the remaining cycles and returns the final state
// with the recovery report.
func crashAndRecover(t *testing.T, opts Options, every int) ([]byte, *RecoveryReport) {
	t.Helper()
	env := testEnv(t)

	st, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	var sys *core.CrowdLearn
	journal := NewJournal(st, every, func(w io.Writer) error { return sys.SaveState(w) }, testLogger(t), nil)
	sys, err = env.NewSystemWith(func(cfg *core.Config) { cfg.Journal = journal })
	if err != nil {
		t.Fatal(err)
	}
	runCycles(t, sys, env, 0, cyclesBeforeCrash)
	if err := st.Close(); err != nil { // crash: nothing in memory survives
		t.Fatal(err)
	}
	sys = nil

	st2, err := Open(Options{Dir: opts.Dir, RetainCheckpoints: opts.RetainCheckpoints})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	report, err := st2.Recover(restored, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	if report.NextCycle != cyclesBeforeCrash {
		t.Fatalf("recovery resumes at cycle %d, want %d", report.NextCycle, cyclesBeforeCrash)
	}
	if n := len(st2.WALCycles()); n != 0 {
		t.Errorf("store still holds %d WAL records after recovery replayed them", n)
	}
	runCycles(t, restored, env, cyclesBeforeCrash, cyclesAfterCrash)
	return stateBytes(t, restored), report
}

// TestCrashRecoveryEquivalence is the durability contract: a process
// that crashes after cyclesBeforeCrash journaled cycles and recovers —
// newest checkpoint, WAL suffix replayed, platform resynced — must end
// the campaign with state byte-identical (expert weights and
// parameters, bandit accounting, CQC model, RNG positions) to a process
// that never crashed.
func TestCrashRecoveryEquivalence(t *testing.T) {
	want := uninterruptedState(t)
	got, report := crashAndRecover(t, Options{Dir: t.TempDir()}, 4)
	if report.Outcome != OutcomeCheckpointWAL {
		t.Errorf("outcome %q, want %q", report.Outcome, OutcomeCheckpointWAL)
	}
	if report.CheckpointCycles != 4 || report.CyclesReplayed != 2 || report.CyclesResynced != 4 {
		t.Errorf("report %+v", report)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("recovered arm diverged: state %d bytes vs %d, equal=false", len(got), len(want))
	}
}

// TestCrashRecoveryFromWALOnly crashes before any checkpoint cadence
// fires: recovery replays the whole campaign prefix from the WAL over
// bootstrap state and must still converge byte-identically.
func TestCrashRecoveryFromWALOnly(t *testing.T) {
	want := uninterruptedState(t)
	got, report := crashAndRecover(t, Options{Dir: t.TempDir()}, 0)
	if report.Outcome != OutcomeWAL {
		t.Errorf("outcome %q, want %q", report.Outcome, OutcomeWAL)
	}
	if report.CheckpointCycles != -1 || report.CyclesReplayed != cyclesBeforeCrash {
		t.Errorf("report %+v", report)
	}
	if !bytes.Equal(got, want) {
		t.Error("WAL-only recovery diverged from the uninterrupted arm")
	}
}

// TestCrashRecoveryAllCheckpointsTorn injects a 100% torn-checkpoint
// rate: every checkpoint file lands corrupt. Recovery must skip them
// all by checksum, fall back to bootstrap state, replay the full WAL,
// and still match the uninterrupted arm.
func TestCrashRecoveryAllCheckpointsTorn(t *testing.T) {
	want := uninterruptedState(t)
	opts := Options{Dir: t.TempDir(), Faults: FaultConfig{Seed: 11, TornCheckpointRate: 1}}
	got, report := crashAndRecover(t, opts, 2)
	if report.Outcome != OutcomeBootstrapFallback {
		t.Errorf("outcome %q, want %q", report.Outcome, OutcomeBootstrapFallback)
	}
	if report.CheckpointsSkipped == 0 || report.CheckpointCycles != -1 {
		t.Errorf("report %+v", report)
	}
	if report.CyclesReplayed != cyclesBeforeCrash {
		t.Errorf("replayed %d cycles, want %d", report.CyclesReplayed, cyclesBeforeCrash)
	}
	if !bytes.Equal(got, want) {
		t.Error("bootstrap-fallback recovery diverged from the uninterrupted arm")
	}
}

// TestCrashRecoverySkipsCorruptNewestCheckpoint corrupts the newest
// checkpoint on disk after a clean run: recovery must fall back to the
// previous generation, replay the longer WAL suffix, and still match.
func TestCrashRecoverySkipsCorruptNewestCheckpoint(t *testing.T) {
	want := uninterruptedState(t)
	env := testEnv(t)
	dir := t.TempDir()

	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sys *core.CrowdLearn
	journal := NewJournal(st, 2, func(w io.Writer) error { return sys.SaveState(w) }, testLogger(t), nil)
	sys, err = env.NewSystemWith(func(cfg *core.Config) { cfg.Journal = journal })
	if err != nil {
		t.Fatal(err)
	}
	runCycles(t, sys, env, 0, cyclesBeforeCrash)
	st.Close()
	sys = nil

	// Flip one payload byte in the newest checkpoint (cycles=6).
	newest := filepath.Join(dir, checkpointName(cyclesBeforeCrash))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[checkpointHdrSize+100] ^= 1
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	restored, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	report, err := st2.Recover(restored, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	if report.CheckpointsSkipped != 1 || report.CheckpointCycles != 4 || report.CyclesReplayed != 2 {
		t.Fatalf("report %+v", report)
	}
	runCycles(t, restored, env, cyclesBeforeCrash, cyclesAfterCrash)
	if !bytes.Equal(stateBytes(t, restored), want) {
		t.Error("recovery through the older checkpoint diverged")
	}
}

// TestRecoverEmptyDirIsFresh: recovering against an empty state
// directory is a no-op on the freshly bootstrapped system.
func TestRecoverEmptyDirIsFresh(t *testing.T) {
	env := testEnv(t)
	st, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sys, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	before := stateBytes(t, sys)
	report, err := st.Recover(sys, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	if report.Outcome != OutcomeFresh || report.CheckpointCycles != -1 || report.NextCycle != 0 {
		t.Errorf("report %+v", report)
	}
	if !bytes.Equal(before, stateBytes(t, sys)) {
		t.Error("fresh recovery mutated the system")
	}
}

// TestRecoverGarbageCheckpointsFallBack: a directory holding only
// corrupt checkpoint files (no WAL) recovers to bootstrap state with a
// warning, never a crash or partial state.
func TestRecoverGarbageCheckpointsFallBack(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	for _, cycles := range []int{2, 4} {
		if err := os.WriteFile(filepath.Join(dir, checkpointName(cycles)), []byte("not a checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sys, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	before := stateBytes(t, sys)
	report, err := st.Recover(sys, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	if report.Outcome != OutcomeBootstrapFallback || report.CheckpointsSkipped != 2 || report.NextCycle != 0 {
		t.Errorf("report %+v", report)
	}
	if !bytes.Equal(before, stateBytes(t, sys)) {
		t.Error("fallback recovery mutated the system")
	}
}

// TestRecoverWALMissingImageFails: a journaled cycle referencing an
// image absent from the registry is a hard, descriptive error — a
// committed cycle must never be silently dropped.
func TestRecoverWALMissingImageFails(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendCycle(core.JournalCycle{Index: 0, ImageIDs: []int{424242}}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sys, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	_, err = st2.Recover(sys, recoverOpts(env))
	if err == nil || !strings.Contains(err.Error(), "424242") {
		t.Errorf("missing registry image gave %v", err)
	}
}

// TestRecoverJournalGapFails: a WAL whose first record starts past the
// recovered state is unusable history and must be rejected.
func TestRecoverJournalGapFails(t *testing.T) {
	env := testEnv(t)
	dir := t.TempDir()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AppendCycle(core.JournalCycle{Index: 3}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	sys, err := env.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	_, err = st2.Recover(sys, recoverOpts(env))
	if err == nil || !strings.Contains(err.Error(), "journal gap") {
		t.Errorf("journal gap gave %v", err)
	}
}
