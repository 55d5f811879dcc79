package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
)

// bootstrapCycles are the inputs the pending-state tests drive.
func bootstrapCycles(f fixture, n int) []CycleInput {
	out := make([]CycleInput, n)
	for i := range out {
		out[i] = CycleInput{
			Index:   i,
			Context: crowd.TemporalContext(i % crowd.NumContexts),
			Images:  f.ds.Test[i*10 : (i+1)*10],
		}
	}
	return out
}

func mustSave(t *testing.T, cl *CrowdLearn) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireSameRun drives both systems through the same cycles and
// requires identical outputs and final state.
func requireSameRun(t *testing.T, a, b *CrowdLearn, inputs []CycleInput) {
	t.Helper()
	for _, in := range inputs {
		want, err := a.RunCycle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := b.RunCycle(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d differs", in.Index)
		}
	}
	if !bytes.Equal(mustSave(t, a), mustSave(t, b)) {
		t.Fatal("final states differ")
	}
}

func TestBootstrapDefersTraining(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)
	if !cl.BootstrapPending() {
		t.Fatal("Bootstrap must defer its training")
	}
	if _, err := cl.SnapshotState(); !errors.Is(err, ErrBootstrapPending) {
		t.Fatalf("SnapshotState on a pending system gave %v, want ErrBootstrapPending", err)
	}
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); !errors.Is(err, ErrBootstrapPending) || buf.Len() != 0 {
		t.Fatalf("SaveState on a pending system gave %v and %d bytes", err, buf.Len())
	}
	if !cl.BootstrapPending() {
		t.Fatal("checkpointing a pending system must not train it")
	}
	if err := cl.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	if cl.BootstrapPending() || cl.pending != nil {
		t.Fatal("the training must drop the pending inputs")
	}
}

// TestFailedTrainingSurfacesFromCycles: a training error reaches the
// next cycle and every later one, not just the accessor that ran it.
func TestFailedTrainingSurfacesFromCycles(t *testing.T) {
	f := sharedFixture(t)
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// A pilot study with no responses gives CQC nothing to train on.
	if err := cl.Bootstrap(f.ds.Train, &crowd.PilotData{}); err != nil {
		t.Fatal(err)
	}
	cl.Committee()
	in := bootstrapCycles(f, 1)[0]
	for i := 0; i < 2; i++ {
		if _, err := cl.RunCycle(in); err == nil {
			t.Fatal("a cycle after a failed training must fail")
		}
	}
	if err := cl.EnsureBootstrapped(); err == nil {
		t.Fatal("EnsureBootstrapped must keep reporting the failed training")
	}
}

// TestConcurrentFirstUseTrainsOnce races two accessors on a pending
// system (run it under -race): one trains, the other waits, and the
// result is the state of a single training.
func TestConcurrentFirstUseTrainsOnce(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)
	var wg sync.WaitGroup
	var weights []float64
	var named map[string]float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		weights = cl.Committee().Weights()
	}()
	go func() {
		defer wg.Done()
		named = cl.ExpertWeights()
	}()
	wg.Wait()
	if len(weights) != len(named) {
		t.Fatalf("%d committee weights, %d named", len(weights), len(named))
	}
	twin := newBootstrappedCrowdLearn(t, f)
	if err := twin.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustSave(t, cl), mustSave(t, twin)) {
		t.Fatal("concurrent first use did not leave the state of one training")
	}
}

// corruptCQC re-encodes a checkpoint with its CQC blob cut in half:
// the envelope decodes and validates, so RestoreState gets as far as
// applying the experts and weights before the CQC payload fails.
func corruptCQC(t *testing.T, checkpoint []byte) []byte {
	t.Helper()
	var s systemState
	if err := gob.NewDecoder(bytes.NewReader(checkpoint)).Decode(&s); err != nil {
		t.Fatal(err)
	}
	s.CQC = s.CQC[:len(s.CQC)/2]
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFailedRestoreLeavesPending: a checkpoint that fails to restore —
// truncated, or with a corrupt CQC blob that forces a rollback — leaves
// a pending system pending, and its later cycles are byte-identical to
// a system that never saw the bad checkpoint.
func TestFailedRestoreLeavesPending(t *testing.T) {
	f := sharedFixture(t)
	src := newBootstrappedCrowdLearn(t, f)
	if err := src.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	good := mustSave(t, src)
	inputs := bootstrapCycles(f, 2)
	trainSamples := classifier.SamplesFromImages(f.ds.Train)
	for _, bad := range []struct {
		name       string
		bytes      []byte
		rolledBack bool
	}{
		{"truncated", good[:len(good)/2], false},
		{"corrupt CQC", corruptCQC(t, good), true},
	} {
		t.Run(bad.name, func(t *testing.T) {
			cl := newBootstrappedCrowdLearn(t, f)
			err := cl.RestoreState(bytes.NewReader(bad.bytes), trainSamples)
			if err == nil {
				t.Fatal("a bad checkpoint must be rejected")
			}
			if got := strings.Contains(err.Error(), "rolled back"); got != bad.rolledBack {
				t.Fatalf("rolled back %v, want %v: %v", got, bad.rolledBack, err)
			}
			if !cl.BootstrapPending() {
				t.Fatal("a failed restore must leave the bootstrap pending")
			}
			requireSameRun(t, newBootstrappedCrowdLearn(t, f), cl, inputs)
		})
	}
}

// bootstrapGolden is the SHA-256 of SaveState right after the default
// bootstrap on the shared fixture, captured when the committee and CQC
// still trained one after the other.
const bootstrapGolden = "fea4131582ad2bb7c89edcf98f631438d54307034c3531535fbdd3752f223295"

var errInjected = errors.New("injected training failure")

// failingExpert is a committee member whose Train always fails.
type failingExpert struct{ classifier.Expert }

func (e failingExpert) Train([]classifier.Sample) error { return errInjected }

// TestBootstrapFanOutBitIdentical: the bootstrap's one fan-out over the
// experts and CQC leaves the bytes of the sequential training at any
// worker count, and reports the error a sequential training would
// report first: experts in committee order, then CQC.
func TestBootstrapFanOutBitIdentical(t *testing.T) {
	f := sharedFixture(t)
	build := func(workers int, pilot *crowd.PilotData, failing ...int) *CrowdLearn {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Workers = workers
		cl, err := New(cfg, freshPlatform())
		if err != nil {
			t.Fatal(err)
		}
		experts := cl.committee.Experts()
		for _, m := range failing {
			experts[m] = failingExpert{experts[m]}
		}
		if err := cl.Bootstrap(f.ds.Train, pilot); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	for _, workers := range []int{1, 2, 4} {
		cl := build(workers, f.pilot)
		if err := cl.EnsureBootstrapped(); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(mustSave(t, cl))); got != bootstrapGolden {
			t.Errorf("workers=%d: bootstrap state hash %s, want %s", workers, got, bootstrapGolden)
		}

		// bovw (committee slot 1) fails before ddm (slot 2) and CQC in
		// the sequential order, though ddm is scheduled first.
		err := build(workers, &crowd.PilotData{}, 1, 2).EnsureBootstrapped()
		if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "train bovw") {
			t.Errorf("workers=%d: failing bovw, ddm and CQC: got %v, want bovw's error", workers, err)
		}
		err = build(workers, &crowd.PilotData{}).EnsureBootstrapped()
		if err == nil || !strings.HasPrefix(err.Error(), "cqc:") {
			t.Errorf("workers=%d: failing CQC: got %v, want CQC's error", workers, err)
		}
	}
}
