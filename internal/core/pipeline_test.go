package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/obs"
	"github.com/crowdlearn/crowdlearn/internal/prof"
)

// memJournal is a plain CycleJournal in memory: it cannot detach, so
// every commit runs on the cycle's goroutine.
type memJournal struct {
	mu   sync.Mutex
	recs []JournalCycle
}

func (m *memJournal) CycleCommitted(rec JournalCycle) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = append(m.recs, rec)
	return nil
}

// records returns a copy of the committed sequence.
func (m *memJournal) records() []JournalCycle {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]JournalCycle(nil), m.recs...)
}

// memDetachedJournal is memJournal with the detachable commit: both
// kinds append the same record, so the two arms of a test can compare
// their full journal sequences.
type memDetachedJournal struct {
	memJournal
}

func (m *memDetachedJournal) CycleCommittedDetached(rec JournalCycle) (func() error, error) {
	return func() error { return m.CycleCommitted(rec) }, nil
}

// recordedJournal is either test journal.
type recordedJournal interface {
	CycleJournal
	records() []JournalCycle
}

const (
	fingerprintCycles   = 6
	fingerprintPerCycle = 10
)

// campaignFingerprint drives a journaled campaign (6 cycles x 10
// images) and returns the gob encoding of every cycle output, the
// journal sequence, and the final system state — the byte-level
// identity the pipelined commit must preserve. detached runs the
// campaign through RunCampaign over a journal whose commits detach;
// otherwise the test itself calls RunCycle cycle by cycle over a
// journal that cannot detach, the reference arm.
func campaignFingerprint(t *testing.T, workers int, detached, profiled bool) []byte {
	t.Helper()
	f := sharedFixture(t)
	var journal recordedJournal = &memJournal{}
	if detached {
		journal = &memDetachedJournal{}
	}
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Journal = journal
	if profiled {
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(16)
		cfg.Tracer.SetSampler(prof.AllocSampler{})
		cfg.Profiler = prof.New(cfg.Metrics)
	}
	cl, err := New(cfg, freshPlatform())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		t.Fatalf("workers=%d: bootstrap: %v", workers, err)
	}
	images := f.ds.Test[:fingerprintCycles*fingerprintPerCycle]
	var outputs []CycleOutput
	if detached {
		result, err := RunCampaign(cl, images, CampaignConfig{Cycles: fingerprintCycles, ImagesPerCycle: fingerprintPerCycle})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, rec := range result.Records {
			outputs = append(outputs, rec.Output)
		}
	} else {
		for c := 0; c < fingerprintCycles; c++ {
			out, err := cl.RunCycle(CycleInput{
				Index:   c,
				Context: crowd.TemporalContext(c % crowd.NumContexts),
				Images:  images[c*fingerprintPerCycle : (c+1)*fingerprintPerCycle],
			})
			if err != nil {
				t.Fatalf("workers=%d cycle %d: %v", workers, c, err)
			}
			outputs = append(outputs, out)
		}
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i, out := range outputs {
		if err := enc.Encode(out); err != nil {
			t.Fatalf("encode record %d: %v", i, err)
		}
	}
	if err := enc.Encode(journal.records()); err != nil {
		t.Fatalf("encode journal: %v", err)
	}
	if err := cl.SaveState(&buf); err != nil {
		t.Fatalf("save state: %v", err)
	}
	return buf.Bytes()
}

// TestRunCampaignBitIdenticalToRunCycleLoop is the pipeline
// determinism contract of DESIGN.md §9: overlapping cycle N's durable
// commit with cycle N+1's compute changes nothing observable — cycle
// outputs, the journal's record sequence and the final checkpointable
// state are byte-identical to RunCycle called cycle by cycle over a
// journal that cannot detach, at every worker count.
func TestRunCampaignBitIdenticalToRunCycleLoop(t *testing.T) {
	want := campaignFingerprint(t, 1, false, false)
	for _, workers := range []int{1, 2, 8} {
		if got := campaignFingerprint(t, workers, true, false); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: pipelined campaign diverged from the RunCycle loop", workers)
		}
	}
}

// TestRunCampaignBitIdenticalProfiled: attaching the full
// observability stack to a pipelined campaign must not perturb it —
// profiling is passive even with a commit goroutine in flight.
func TestRunCampaignBitIdenticalProfiled(t *testing.T) {
	want := campaignFingerprint(t, 2, true, false)
	if got := campaignFingerprint(t, 2, true, true); !bytes.Equal(got, want) {
		t.Error("profiled pipelined campaign diverged from unprofiled run")
	}
}

// errDiskGone is the simulated durability failure of the tests below.
func errDiskGone(index int) error { return fmt.Errorf("disk gone at cycle %d", index) }

// failingJournal is a memJournal that cannot detach and fails the
// commit of one cycle.
type failingJournal struct {
	memJournal
	failAt int
}

func (f *failingJournal) CycleCommitted(rec JournalCycle) error {
	if rec.Index == f.failAt {
		return errDiskGone(rec.Index)
	}
	return f.memJournal.CycleCommitted(rec)
}

// failingDetachedJournal delegates to a memDetachedJournal but makes
// the durable phase of one cycle fail, simulating an fsync error
// surfacing on the detached commit goroutine.
type failingDetachedJournal struct {
	memDetachedJournal
	failAt int
}

func (f *failingDetachedJournal) CycleCommittedDetached(rec JournalCycle) (func() error, error) {
	if rec.Index == f.failAt {
		return func() error { return errDiskGone(rec.Index) }, nil
	}
	return f.memDetachedJournal.CycleCommittedDetached(rec)
}

// journaledCrowdLearn builds a bootstrapped system over journal.
func journaledCrowdLearn(t *testing.T, journal CycleJournal, metrics *obs.Registry) *CrowdLearn {
	t.Helper()
	f := sharedFixture(t)
	cfg := DefaultConfig()
	cfg.Journal = journal
	cfg.Metrics = metrics
	cl, err := New(cfg, freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Bootstrap(f.ds.Train, f.pilot); err != nil {
		t.Fatal(err)
	}
	return cl
}

// requireAbortAt3 checks a campaign that must have failed durably at
// cycle 3 of 6: the error wraps ErrCycleNotDurable and the journal
// holds cycles 0-2 in order, no later record.
func requireAbortAt3(t *testing.T, err error, recs []JournalCycle) {
	t.Helper()
	if err == nil {
		t.Fatal("campaign survived a failed commit")
	}
	if !errors.Is(err, ErrCycleNotDurable) {
		t.Errorf("error %v does not wrap ErrCycleNotDurable", err)
	}
	if len(recs) != 3 {
		t.Fatalf("journal holds %d records after failure at cycle 3, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Index != i {
			t.Errorf("journal record %d has index %d (WAL out of order)", i, rec.Index)
		}
	}
}

// TestRunCampaignDetachedCommitFailureAborts: a durability failure on
// the detached commit aborts the campaign at the epoch-merge barrier,
// wrapped in ErrCycleNotDurable, and no later cycle's record is ever
// committed.
func TestRunCampaignDetachedCommitFailureAborts(t *testing.T) {
	f := sharedFixture(t)
	journal := &failingDetachedJournal{failAt: 3}
	cl := journaledCrowdLearn(t, journal, nil)
	_, err := RunCampaign(cl, f.ds.Test[:60], CampaignConfig{Cycles: 6, ImagesPerCycle: 10})
	requireAbortAt3(t, err, journal.records())
}

// TestRunCampaignInlineCommitFailureAborts: the same failure from a
// journal that cannot detach aborts the campaign the same way.
func TestRunCampaignInlineCommitFailureAborts(t *testing.T) {
	f := sharedFixture(t)
	journal := &failingJournal{failAt: 3}
	cl := journaledCrowdLearn(t, journal, nil)
	_, err := RunCampaign(cl, f.ds.Test[:60], CampaignConfig{Cycles: 6, ImagesPerCycle: 10})
	requireAbortAt3(t, err, journal.records())
}

// TestCommitFailureCountedAlikeForEveryJournal pins how a cycle whose
// commit fails is counted: its model mutations stand, so it counts in
// crowdlearn_cycles_total, and it failed, so it counts in
// crowdlearn_cycle_errors_total — the same for a journal that detaches
// and one that cannot.
func TestCommitFailureCountedAlikeForEveryJournal(t *testing.T) {
	f := sharedFixture(t)
	for _, tc := range []struct {
		name    string
		journal CycleJournal
	}{
		{"inline", &failingJournal{failAt: 1}},
		{"detached", &failingDetachedJournal{failAt: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cl := journaledCrowdLearn(t, tc.journal, reg)
			for c := 0; c < 2; c++ {
				_, err := cl.RunCycle(CycleInput{Index: c, Context: crowd.Morning, Images: f.ds.Test[c*10 : (c+1)*10]})
				if wantErr := c == 1; (err != nil) != wantErr || (wantErr && !errors.Is(err, ErrCycleNotDurable)) {
					t.Fatalf("cycle %d: err %v", c, err)
				}
			}
			if got := reg.Counter(MetricCycles).Value(); got != 2 {
				t.Errorf("%s = %v, want 2", MetricCycles, got)
			}
			if got := reg.Counter(MetricCycleErrors).Value(); got != 1 {
				t.Errorf("%s = %v, want 1", MetricCycleErrors, got)
			}
		})
	}
}
