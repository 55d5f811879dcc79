package core

import (
	"bytes"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
)

func TestSystemSaveRestoreRoundtrip(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)

	// Run a few cycles so there is genuinely learned state: expert
	// weights moved, bandit statistics accumulated, budget spent.
	for cycle := 0; cycle < 4; cycle++ {
		in := CycleInput{
			Index:   cycle,
			Context: crowd.TemporalContext(cycle % crowd.NumContexts),
			Images:  f.ds.Test[cycle*10 : (cycle+1)*10],
		}
		if _, err := cl.RunCycle(in); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	// Restore into a *fresh* system with the same configuration — the
	// checkpoint/restart scenario.
	fresh, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	trainSamples := classifier.SamplesFromImages(f.ds.Train)
	if err := fresh.RestoreState(bytes.NewReader(buf.Bytes()), trainSamples); err != nil {
		t.Fatal(err)
	}

	// Committee weights must match.
	wa, wb := cl.Committee().Weights(), fresh.Committee().Weights()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("weights differ after restore: %v vs %v", wa, wb)
		}
	}
	// Bandit budget position must match.
	if cl.Policy().RemainingBudget() != fresh.Policy().RemainingBudget() {
		t.Errorf("remaining budget %v vs %v",
			cl.Policy().RemainingBudget(), fresh.Policy().RemainingBudget())
	}
	// Committee predictions must be identical.
	for _, im := range f.ds.Test[:20] {
		a, b := cl.Committee().Vote(im), fresh.Committee().Vote(im)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("committee votes differ after restore")
			}
		}
	}
	// And the restored system must be able to run a cycle immediately.
	out, err := fresh.RunCycle(CycleInput{
		Index:   4,
		Context: crowd.Evening,
		Images:  f.ds.Test[40:50],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Distributions) != 10 {
		t.Fatalf("restored system produced %d distributions", len(out.Distributions))
	}
}

func TestRestoreStateRejectsGarbage(t *testing.T) {
	f := sharedFixture(t)
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.RestoreState(bytes.NewReader([]byte("junk")), nil); err == nil {
		t.Error("garbage checkpoint must be rejected")
	}
	_ = f
}

func TestRestoreStateMissingExpert(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)
	// A never-cycled system checkpoints only once its deferred
	// bootstrap training has run.
	if err := cl.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the envelope: decode-modify-encode is overkill; instead
	// restore into a system whose config is identical (works) and then
	// verify that a truncated stream fails cleanly.
	fresh, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := fresh.RestoreState(bytes.NewReader(truncated), nil); err == nil {
		t.Error("truncated checkpoint must be rejected")
	}
}

// TestRestoreStateRejectsIncompatibleConfig: a checkpoint from a
// system with a different bandit budget, horizon or incentive menu must
// be refused up front — applying it would silently mix two deployments'
// accounting — and the refusal must leave the target system untouched.
func TestRestoreStateRejectsIncompatibleConfig(t *testing.T) {
	f := sharedFixture(t)
	cl := newBootstrappedCrowdLearn(t, f)
	if err := cl.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"budget", func(c *Config) { c.Bandit.BudgetDollars *= 2 }},
		{"rounds", func(c *Config) { c.Bandit.TotalRounds++ }},
		{"queries per round", func(c *Config) { c.QuerySize++ }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.mutate(&cfg)
			other, err := New(cfg, freshPlatform())
			if err != nil {
				t.Fatal(err)
			}
			var before bytes.Buffer
			if err := other.SaveState(&before); err != nil {
				t.Fatal(err)
			}
			if err := other.RestoreState(bytes.NewReader(buf.Bytes()), nil); err == nil {
				t.Fatal("incompatible checkpoint must be rejected")
			}
			var after bytes.Buffer
			if err := other.SaveState(&after); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Error("rejected restore mutated the system")
			}
		})
	}
}

// TestRestoreStateBoundsInput: RestoreState must stop reading at
// MaxStateBytes rather than letting a hostile stream allocate without
// limit.
func TestRestoreStateBoundsInput(t *testing.T) {
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	// An endless stream of zeros: without the limit the decoder would
	// read forever; with it the decode fails once the cap is hit.
	err = cl.RestoreState(endlessZeros{}, nil)
	if err == nil {
		t.Error("unbounded stream must be rejected")
	}
}

type endlessZeros struct{}

func (endlessZeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

func TestUnbootstrappedSystemCanBeSavedAndRestored(t *testing.T) {
	cl, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(DefaultConfig(), freshPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Restored-unbootstrapped must still refuse to run.
	f := sharedFixture(t)
	if _, err := fresh.RunCycle(CycleInput{Context: crowd.Morning, Images: f.ds.Test[:2]}); err == nil {
		t.Error("restored unbootstrapped system must refuse RunCycle")
	}
}
