package store

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
)

// handWired is the bring-up OpenSystem replaces, written out step by
// step as the benchmark harness's stack still does: open the store,
// build a journal whose payload closes over a system not yet built,
// install the snapshot seam, build the system, recover, note the
// recovery. It is the reference OpenSystem must match byte for byte.
func handWired(t *testing.T, env *experiments.Env, dir string, every int) (*core.CrowdLearn, *Store, *RecoveryReport) {
	t.Helper()
	st, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var sys *core.CrowdLearn
	journal := NewJournal(st, every, func(w io.Writer) error { return sys.SaveState(w) }, testLogger(t), nil)
	journal.SetSnapshot(func() (func(io.Writer) error, error) {
		sn, err := sys.SnapshotState()
		if err != nil {
			return nil, err
		}
		return sn.Encode, nil
	})
	if sys, err = env.NewSystemWith(func(cfg *core.Config) { cfg.Journal = journal }); err != nil {
		t.Fatal(err)
	}
	report, err := st.Recover(sys, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	journal.NoteRecovered(report)
	return sys, st, report
}

// TestOpenSystemMatchesHandWiredBringUp: ten journaled cycles on a
// system brought up by OpenSystem leave the same checkpoint files, WAL
// and final state as on one brought up by the hand-wired sequence,
// whether the cycles run through RunCycle or RunCampaign; reopening
// both directories recovers from checkpoint plus WAL to the same report
// and state, and two more cycles keep the directories identical.
func TestOpenSystemMatchesHandWiredBringUp(t *testing.T) {
	env := testEnv(t)
	const cycles, more, every = 10, 2, 4
	drivers := map[string]func(t *testing.T, sys *core.CrowdLearn, start, n int){
		"RunCycle": func(t *testing.T, sys *core.CrowdLearn, start, n int) {
			for c := start; c < start+n; c++ {
				if _, err := sys.RunCycle(core.CycleInput{
					Index:   c,
					Context: crowd.TemporalContext(c % crowd.NumContexts),
					Images:  env.Dataset.Test[c*imagesPerCycle : (c+1)*imagesPerCycle],
				}); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
			}
		},
		"RunCampaign": func(t *testing.T, sys *core.CrowdLearn, start, n int) { runCycles(t, sys, env, start, n) },
	}
	for name, drive := range drivers {
		t.Run(name, func(t *testing.T) {
			refDir, dir := t.TempDir(), t.TempDir()
			compare := func(stage string, refSys, sys *core.CrowdLearn) {
				t.Helper()
				want, got := dirFiles(t, refDir), dirFiles(t, dir)
				if len(got) != len(want) {
					t.Errorf("%s: %d files, hand-wired %d", stage, len(got), len(want))
				}
				for file, data := range want {
					if !bytes.Equal(got[file], data) {
						t.Errorf("%s: %s differs from the hand-wired directory: %d bytes vs %d", stage, file, len(got[file]), len(data))
					}
				}
				if !bytes.Equal(stateBytes(t, sys), stateBytes(t, refSys)) {
					t.Errorf("%s: final state differs from the hand-wired system", stage)
				}
			}

			refSys, refStore, refReport := handWired(t, env, refDir, every)
			d := journaledSystem(t, env, dir, every, nil)
			if !reflect.DeepEqual(d.Report, refReport) || d.Report.Outcome != OutcomeFresh {
				t.Errorf("fresh report %+v, hand-wired %+v", d.Report, refReport)
			}
			drive(t, refSys, 0, cycles)
			drive(t, d.Sys, 0, cycles)
			if _, ok := dirFiles(t, refDir)[checkpointName(8)]; !ok {
				t.Fatal("hand-wired directory holds no checkpoint at cycle 8")
			}
			compare("first run", refSys, d.Sys)
			for _, st := range []*Store{refStore, d.Store} {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}

			refSys, refStore, refReport = handWired(t, env, refDir, every)
			defer refStore.Close()
			d = journaledSystem(t, env, dir, every, nil)
			defer d.Store.Close()
			if d.Report.Outcome != OutcomeCheckpointWAL || d.Report.CheckpointCycles != 8 || d.Report.NextCycle != cycles {
				t.Errorf("reopen report %+v, want checkpoint 8 + WAL to cycle %d", d.Report, cycles)
			}
			if !reflect.DeepEqual(d.Report, refReport) {
				t.Errorf("reopen report %+v, hand-wired %+v", d.Report, refReport)
			}
			compare("reopen", refSys, d.Sys)
			drive(t, refSys, cycles, more)
			drive(t, d.Sys, cycles, more)
			compare("after reopen", refSys, d.Sys)
		})
	}
}
