package store

import (
	"errors"
	"fmt"
	"io"

	"github.com/crowdlearn/crowdlearn/internal/core"
)

// Durable is a system wired to its state directory and recovered from
// it: the one bring-up every durable caller shares (DESIGN §10).
type Durable struct {
	// Store is the open state directory; the caller closes it.
	Store *Store
	// Journal journals every committed cycle of Sys into Store.
	Journal *Journal
	// Sys is the recovered system, trained and ready for NextCycle.
	Sys *core.CrowdLearn
	// Report says what recovery restored, skipped and replayed.
	Report *RecoveryReport
}

// OpenSystem opens the state directory opts names and brings a system
// up on it in the one order durability needs: open the store, build
// the journal (checkpoint every `every` cycles, payload the system's
// SaveState, snapshot-then-encode seam from its SnapshotState), hand
// the journal to build — which assembles the system with it, wrapping
// it first if it likes — recover the system from the directory, and
// seed the journal's cycle position from the recovery. The journal
// logs and counts through rec.Logger and rec.Metrics. The system build
// returns must be newly built with its bootstrap training deferred, as
// Store.Recover requires. On any error or panic the store is closed
// and nothing is returned.
func OpenSystem(opts Options, every int, build func(core.CycleJournal) (*core.CrowdLearn, error), rec RecoverOptions) (_ *Durable, err error) {
	st, err := Open(opts)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened {
			if cerr := st.Close(); cerr != nil && err != nil {
				err = errors.Join(err, cerr)
			}
		}
	}()
	d := &Durable{Store: st}
	// The payload and the seam close over d.Sys, which build sets; no
	// commit, and so no checkpoint, can run before it returns.
	d.Journal = NewJournal(st, every, func(w io.Writer) error { return d.Sys.SaveState(w) }, rec.Logger, rec.Metrics)
	d.Journal.SetSnapshot(func() (func(io.Writer) error, error) {
		sn, err := d.Sys.SnapshotState()
		if err != nil {
			return nil, err
		}
		return sn.Encode, nil
	})
	if d.Sys, err = build(d.Journal); err != nil {
		return nil, err
	}
	if d.Report, err = st.Recover(d.Sys, rec); err != nil {
		return nil, fmt.Errorf("state recovery: %w", err)
	}
	d.Journal.NoteRecovered(d.Report)
	opened = true
	return d, nil
}
