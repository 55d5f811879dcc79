package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/crowd"
	"github.com/crowdlearn/crowdlearn/internal/experiments"
)

// journaledSystem brings a fresh system up on dir through OpenSystem,
// the way crowdlearnd and supervise do, wrapping the journal with wrap
// when it is non-nil.
func journaledSystem(t testing.TB, env *experiments.Env, dir string, every int, wrap func(*Journal) core.CycleJournal) *Durable {
	t.Helper()
	d, err := OpenSystem(Options{Dir: dir}, every, func(j core.CycleJournal) (*core.CrowdLearn, error) {
		if wrap != nil {
			j = wrap(j.(*Journal))
		}
		return env.NewSystemWith(func(cfg *core.Config) { cfg.Journal = j })
	}, recoverOpts(env))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// plainJournal hides a Journal's detachable commit: wrapped in it, the
// journal cannot detach, so every commit runs Journal.CycleCommitted on
// the cycle's goroutine.
type plainJournal struct{ core.CycleJournal }

// dirFiles reads every file of a state directory, by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// encodeOutputs gob-encodes cycle outputs for a byte comparison.
func encodeOutputs(t *testing.T, outs []core.CycleOutput) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i, out := range outs {
		if err := enc.Encode(out); err != nil {
			t.Fatalf("encode output %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// TestPipelinedJournalBitIdenticalToSequential: a campaign run through
// RunCampaign, whose store commits detach, must leave the same cycle
// outputs, byte-identical WAL and checkpoint files and the same final
// system state as RunCycle called cycle by cycle over a journal that
// cannot detach and has no snapshot seam. This is the on-disk half of
// the §9 pipeline contract — detached commits with
// snapshot-then-encode checkpoints change nothing the store persists.
func TestPipelinedJournalBitIdenticalToSequential(t *testing.T) {
	env := testEnv(t)
	seqDir, pipeDir := t.TempDir(), t.TempDir()
	images := env.Dataset.Test[:totalCycles*imagesPerCycle]

	seqStore, err := Open(Options{Dir: seqDir})
	if err != nil {
		t.Fatal(err)
	}
	var seqSys *core.CrowdLearn
	journal := NewJournal(seqStore, 4, func(w io.Writer) error { return seqSys.SaveState(w) }, testLogger(t), nil)
	seqSys, err = env.NewSystemWith(func(cfg *core.Config) { cfg.Journal = plainJournal{journal} })
	if err != nil {
		t.Fatal(err)
	}
	var seqOut []core.CycleOutput
	for c := 0; c < totalCycles; c++ {
		out, err := seqSys.RunCycle(core.CycleInput{
			Index:   c,
			Context: crowd.TemporalContext(c % crowd.NumContexts),
			Images:  images[c*imagesPerCycle : (c+1)*imagesPerCycle],
		})
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		seqOut = append(seqOut, out)
	}
	if err := seqStore.Close(); err != nil {
		t.Fatal(err)
	}

	pipe := journaledSystem(t, env, pipeDir, 4, nil)
	pipeSys, pipeStore := pipe.Sys, pipe.Store
	res, err := core.RunCampaign(pipeSys, images, core.CampaignConfig{Cycles: totalCycles, ImagesPerCycle: imagesPerCycle})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeStore.Close(); err != nil {
		t.Fatal(err)
	}
	var pipeOut []core.CycleOutput
	for _, rec := range res.Records {
		pipeOut = append(pipeOut, rec.Output)
	}

	if !bytes.Equal(encodeOutputs(t, pipeOut), encodeOutputs(t, seqOut)) {
		t.Error("pipelined cycle outputs differ from the RunCycle loop")
	}
	seqFiles, pipeFiles := dirFiles(t, seqDir), dirFiles(t, pipeDir)
	if _, ok := seqFiles["wal.log"]; !ok {
		t.Fatalf("reference directory holds no WAL: %d files", len(seqFiles))
	}
	if len(pipeFiles) != len(seqFiles) {
		t.Errorf("pipelined directory holds %d files, reference %d", len(pipeFiles), len(seqFiles))
	}
	for name, want := range seqFiles {
		if got, ok := pipeFiles[name]; !ok {
			t.Errorf("pipelined directory lacks %s", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("pipelined %s differs from the reference: %d bytes vs %d", name, len(got), len(want))
		}
	}
	if got, want := stateBytes(t, pipeSys), stateBytes(t, seqSys); !bytes.Equal(got, want) {
		t.Error("pipelined final state differs from the reference")
	}
}

// crashingJournal delegates to the real store journal but crashes the
// durable phase of one cycle: the detached closure returns an error
// without ever appending the record, as if the process died between
// acknowledging the cycle's compute and landing its fsync.
type crashingJournal struct {
	*Journal
	crashAt int
}

func (c *crashingJournal) CycleCommittedDetached(rec core.JournalCycle) (func() error, error) {
	if rec.Index == c.crashAt {
		return func() error { return errors.New("simulated crash before WAL append") }, nil
	}
	return c.Journal.CycleCommittedDetached(rec)
}

// TestPipelinedCrashRecoveryBitIdentical is the mid-pipeline
// kill-and-recover contract: a campaign whose detached commit dies at
// cycle crashAt — with cycle crashAt+1's compute potentially already
// executed in memory — aborts with ErrCycleNotDurable, loses nothing
// durable, recovers from the store, resumes pipelined, and ends with
// state byte-identical to a process that never crashed.
func TestPipelinedCrashRecoveryBitIdentical(t *testing.T) {
	want := uninterruptedState(t)
	env := testEnv(t)
	dir := t.TempDir()

	d := journaledSystem(t, env, dir, 4, func(j *Journal) core.CycleJournal {
		return &crashingJournal{Journal: j, crashAt: cyclesBeforeCrash}
	})
	sys, st := d.Sys, d.Store

	cfg := core.CampaignConfig{Cycles: cyclesBeforeCrash + 1, ImagesPerCycle: imagesPerCycle}
	_, err := core.RunCampaign(sys, env.Dataset.Test[:(cyclesBeforeCrash+1)*imagesPerCycle], cfg)
	if err == nil {
		t.Fatal("campaign survived the simulated commit crash")
	}
	if !errors.Is(err, core.ErrCycleNotDurable) {
		t.Fatalf("error %v does not wrap ErrCycleNotDurable", err)
	}
	if err := st.Close(); err != nil { // crash: in-memory state is gone
		t.Fatal(err)
	}
	sys = nil

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
	if report.NextCycle != cyclesBeforeCrash {
		t.Fatalf("recovery resumes at cycle %d, want %d", report.NextCycle, cyclesBeforeCrash)
	}
	runCycles(t, restored, env, cyclesBeforeCrash, cyclesAfterCrash)
	if got := stateBytes(t, restored); !bytes.Equal(got, want) {
		t.Error("recovered pipelined arm diverged from the uninterrupted reference")
	}
}
