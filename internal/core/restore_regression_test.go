package core_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/mathx"
)

// captureJournal keeps every committed cycle record in memory, the
// platform half of a recovery: a restored system's fresh crowd platform
// is resynced through them.
type captureJournal struct{ recs []core.JournalCycle }

func (j *captureJournal) CycleCommitted(rec core.JournalCycle) error {
	j.recs = append(j.recs, rec)
	return nil
}

// restoreLab is the daemon's default lab with the IPD budget stretched
// over a 100,000-round horizon at the default $0.50 a round, as the
// serving benchmark sizes it. It is read-only, so it is built once.
var (
	restoreLabOnce sync.Once
	restoreLabEnv  *experiments.Env
	restoreLabErr  error
)

func restoreLab(t *testing.T) *experiments.Env {
	t.Helper()
	restoreLabOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Campaign.Cycles = 100_000
		cfg.BudgetDollars = 0.5 * 100_000
		restoreLabEnv, restoreLabErr = experiments.NewEnv(cfg)
	})
	if restoreLabErr != nil {
		t.Fatal(restoreLabErr)
	}
	return restoreLabEnv
}

// requestStream returns n cycle inputs of a seeded request sequence:
// every pass over the test split is a fresh seeded shuffle cut into
// 10-image batches, and contexts rotate round-robin.
func requestStream(seed int64, test []*imagery.Image, n int) []core.CycleInput {
	rng := mathx.NewRand(seed)
	per := len(test) / 10
	var order []int
	out := make([]core.CycleInput, n)
	for i := range out {
		pos := i % per
		if pos == 0 {
			order = rng.Perm(len(test))
		}
		images := make([]*imagery.Image, 10)
		for k := range images {
			images[k] = test[order[pos*10+k]]
		}
		out[i] = core.CycleInput{Index: i, Context: crowd.Contexts()[i%crowd.NumContexts], Images: images}
	}
	return out
}

func saveState(t *testing.T, cl *core.CrowdLearn) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cl.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// pendingSystem builds a bootstrapped system whose deferred training
// has not run, with journal attached when non-nil.
func pendingSystem(t *testing.T, lab *experiments.Env, journal core.CycleJournal) *core.CrowdLearn {
	t.Helper()
	sys, err := lab.NewSystemWith(func(c *core.Config) { c.Journal = journal })
	if err != nil {
		t.Fatal(err)
	}
	if !sys.BootstrapPending() {
		t.Fatal("a newly built system must defer its bootstrap training")
	}
	return sys
}

func restoreInto(t *testing.T, lab *experiments.Env, sys *core.CrowdLearn, checkpoint []byte) {
	t.Helper()
	if err := sys.RestoreState(bytes.NewReader(checkpoint), classifier.SamplesFromImages(lab.Dataset.Train)); err != nil {
		t.Fatal(err)
	}
	if sys.BootstrapPending() {
		t.Fatal("restoring a bootstrapped checkpoint left the training pending")
	}
}

// checkRestoredMatches restores orig's checkpoint into a system that
// never trained, resyncs its crowd platform from the journal, and
// requires it to save byte-identical state and then answer next
// exactly as orig does, ending in identical state.
func checkRestoredMatches(t *testing.T, lab *experiments.Env, seed int64, orig *core.CrowdLearn, journal *captureJournal, next []core.CycleInput) {
	t.Helper()
	checkpoint := saveState(t, orig)
	restored := pendingSystem(t, lab, nil)
	restoreInto(t, lab, restored, checkpoint)
	registry := make(map[int]*imagery.Image, len(lab.Dataset.Test))
	for _, im := range lab.Dataset.Test {
		registry[im.ID] = im
	}
	for _, rec := range journal.recs {
		if err := restored.ResyncCycle(rec, registry); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(saveState(t, restored), checkpoint) {
		t.Fatalf("seed %d: state saved after restore differs from the checkpoint (weights %v, saved %v)",
			seed, restored.Committee().Weights(), orig.Committee().Weights())
	}
	for _, in := range next {
		want, err := orig.RunCycle(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.RunCycle(in)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: cycle %d after restore differs from the uninterrupted system", seed, in.Index)
		}
	}
	if !bytes.Equal(saveState(t, restored), saveState(t, orig)) {
		t.Fatalf("seed %d: state after %d more cycles differs from the uninterrupted system", seed, len(next))
	}
}

// checkRestoreFixedPoint runs the request sequence of seed for
// checkpointAt cycles on a system that trained, checkpoints, and checks
// the checkpoint restores into a system that never trained and then
// answers the next `more` cycles exactly as the uninterrupted system.
func checkRestoreFixedPoint(t *testing.T, seed int64, checkpointAt, more int) {
	lab := restoreLab(t)
	journal := &captureJournal{}
	orig := pendingSystem(t, lab, journal)
	inputs := requestStream(seed, lab.Dataset.Test, checkpointAt+more)
	for _, in := range inputs[:checkpointAt] {
		if _, err := orig.RunCycle(in); err != nil {
			t.Fatal(err)
		}
	}
	checkRestoredMatches(t, lab, seed, orig, journal, inputs[checkpointAt:])
}

// The two request sequences on which restoring committee weights through
// renormalisation moved their last bits at the 32-cycle checkpoint, and
// the recovered service later answered differently from the one that
// never stopped.

func TestRestoreFixedPointSeed102(t *testing.T) { checkRestoreFixedPoint(t, 102, 32, 24) }

func TestRestoreFixedPointSeed410(t *testing.T) { checkRestoreFixedPoint(t, 410, 32, 24) }

// TestRestoreFixedPointAcrossSeeds checks restore as a fixed point over
// 50 request sequences, each run for a seeded 1–6 cycles and followed
// by 2 more. Bootstrap trains once: every sequence starts from one
// shared bootstrapped checkpoint restored into an untrained system, so
// the property also covers the claim recovery rests on — a checkpoint
// carries every byte the bootstrap training produces.
func TestRestoreFixedPointAcrossSeeds(t *testing.T) {
	const seeds, follow = 50, 2
	lab := restoreLab(t)
	boot := pendingSystem(t, lab, nil)
	if err := boot.EnsureBootstrapped(); err != nil {
		t.Fatal(err)
	}
	bootState := saveState(t, boot)
	for seed := int64(1); seed <= seeds; seed++ {
		cycles := 1 + mathx.NewRand(seed+7_919).Intn(6)
		journal := &captureJournal{}
		orig := pendingSystem(t, lab, journal)
		restoreInto(t, lab, orig, bootState)
		inputs := requestStream(seed, lab.Dataset.Test, cycles+follow)
		for _, in := range inputs[:cycles] {
			if _, err := orig.RunCycle(in); err != nil {
				t.Fatal(err)
			}
		}
		checkRestoredMatches(t, lab, seed, orig, journal, inputs[cycles:])
	}
}
