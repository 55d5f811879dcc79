package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/crowdlearn/crowdlearn/internal/bandit"
	"github.com/crowdlearn/crowdlearn/internal/classifier"
)

// MaxStateBytes bounds how much RestoreState will read: a checkpoint
// larger than this is rejected before decoding rather than trusted to
// allocate without limit. Generously above any state the system can
// produce (three MLP experts plus a bounded replay buffer stay in the
// low tens of megabytes).
const MaxStateBytes = 256 << 20

// expertState pairs one committee member's name with its serialised
// parameters. Experts are stored as a slice in committee order — not a
// map — so that SaveState output is byte-deterministic (gob encodes map
// entries in random order), which the durable store's byte-identical
// recovery guarantee depends on.
type expertState struct {
	Name  string
	State []byte
}

// systemState is the gob envelope for a CrowdLearn system checkpoint. It
// captures every piece of state a cycle can mutate: expert parameters,
// committee weights, the bandit's statistics and budget position, the
// trained CQC model, the replay buffer's acquired crowd samples, and the
// positions of the seeded random streams. Restoring it therefore resumes
// the closed loop exactly — future cycles produce byte-identical state
// to a process that never stopped.
type systemState struct {
	Experts      []expertState
	Weights      []float64
	Bandit       bandit.State
	CQC          []byte
	CQCTrained   bool
	Bootstrapped bool
	// SelectorRNGPos is the ε-greedy query-selection stream's position.
	SelectorRNGPos uint64
	// ReplayAcquired and ReplayRNGPos restore the retraining replay
	// buffer: the crowd-labelled samples accumulated so far and the
	// batch-shuffle stream's position. The samples embed full image
	// payloads so a checkpoint is self-contained.
	ReplayAcquired []classifier.Sample
	ReplayRNGPos   uint64
}

// StateSnapshot is a captured copy of the system's learned state,
// decoupled from the live system: once SnapshotState returns, future
// cycles may mutate the system freely while WriteTo encodes the
// snapshot on another goroutine. This is the snapshot-then-encode split
// that keeps checkpoint serialization off the cycle hot path — the
// capture is cheap (per-expert parameter blobs, a shallow copy of the
// immutable replay samples, RNG positions), the top-level gob encode of
// the full image payloads is the expensive part.
type StateSnapshot struct {
	state systemState
}

// SnapshotState captures the system's learned state synchronously and
// returns it for deferred encoding. SaveState is exactly
// SnapshotState followed by Encode; the bytes are identical.
func (cl *CrowdLearn) SnapshotState() (*StateSnapshot, error) {
	// The replay buffer only exists once Bootstrap has run; an
	// unbootstrapped system checkpoints an empty buffer at position 0.
	var acquired []classifier.Sample
	var replayPos uint64
	if cl.replay != nil {
		acquired, replayPos = cl.replay.snapshot()
	}
	s := systemState{
		Weights:        cl.committee.Weights(),
		Bandit:         cl.policy.State(),
		Bootstrapped:   cl.bootstrapped,
		SelectorRNGPos: cl.selector.RNGPos(),
		ReplayAcquired: acquired,
		ReplayRNGPos:   replayPos,
	}
	for _, e := range cl.committee.Experts() {
		pe, ok := e.(classifier.PersistentExpert)
		if !ok {
			return nil, fmt.Errorf("core: expert %s is not persistable", e.Name())
		}
		var buf bytes.Buffer
		if err := pe.SaveState(&buf); err != nil {
			return nil, err
		}
		s.Experts = append(s.Experts, expertState{Name: e.Name(), State: buf.Bytes()})
	}
	var cqcBuf bytes.Buffer
	if err := cl.quality.SaveState(&cqcBuf); err != nil {
		return nil, err
	}
	s.CQC = cqcBuf.Bytes()
	s.CQCTrained = cl.quality.Trained()
	return &StateSnapshot{state: s}, nil
}

// Encode gob-encodes the snapshot to w. Safe to call after the live
// system has moved on: the snapshot shares no mutable state with it.
func (sn *StateSnapshot) Encode(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(sn.state); err != nil {
		return fmt.Errorf("core: save state: %w", err)
	}
	return nil
}

// SaveState checkpoints the system's learned state to w. The output is
// byte-deterministic: two saves of identical systems produce identical
// bytes, which is what lets recovery tests compare states with a plain
// byte comparison.
func (cl *CrowdLearn) SaveState(w io.Writer) error {
	sn, err := cl.SnapshotState()
	if err != nil {
		return err
	}
	return sn.Encode(w)
}

// RestoreState restores a checkpoint written by SaveState into a system
// constructed with the same configuration. trainSamples re-seeds the
// retraining replay pool (pass the same training samples used at
// Bootstrap); it may be empty, in which case future retraining uses
// crowd samples alone.
//
// The read is bounded by MaxStateBytes, and the checkpoint is validated
// against the live configuration (expert set, bandit budget and round
// structure) before anything is mutated. If applying a validated
// checkpoint fails partway, the system is rolled back to its prior
// state — RestoreState never leaves a half-restored system behind.
func (cl *CrowdLearn) RestoreState(r io.Reader, trainSamples []classifier.Sample) error {
	var s systemState
	if err := gob.NewDecoder(io.LimitReader(r, MaxStateBytes)).Decode(&s); err != nil {
		return fmt.Errorf("core: restore state: %w", err)
	}
	if err := cl.validateState(&s); err != nil {
		return fmt.Errorf("core: restore state: %w", err)
	}
	// Snapshot the live state so a failure while applying expert or CQC
	// payloads (each is an independently decoded gob blob) can be undone.
	var undo bytes.Buffer
	if err := cl.SaveState(&undo); err != nil {
		return fmt.Errorf("core: restore state: snapshot for rollback: %w", err)
	}
	if err := cl.applyState(&s, trainSamples); err != nil {
		var prior systemState
		if uerr := gob.NewDecoder(&undo).Decode(&prior); uerr == nil {
			uerr = cl.applyState(&prior, trainSamples)
			if uerr == nil {
				return fmt.Errorf("core: restore state (rolled back): %w", err)
			}
		}
		return fmt.Errorf("core: restore state: %w (rollback also failed — state undefined)", err)
	}
	return nil
}

// validateState rejects checkpoints that do not belong to this system's
// configuration before any of them is applied.
func (cl *CrowdLearn) validateState(s *systemState) error {
	experts := cl.committee.Experts()
	if len(s.Experts) != len(experts) {
		return fmt.Errorf("checkpoint has %d experts, live committee has %d", len(s.Experts), len(experts))
	}
	byName := make(map[string][]byte, len(s.Experts))
	for _, es := range s.Experts {
		if _, dup := byName[es.Name]; dup {
			return fmt.Errorf("checkpoint lists expert %s twice", es.Name)
		}
		byName[es.Name] = es.State
	}
	for _, e := range experts {
		if _, ok := byName[e.Name()]; !ok {
			return fmt.Errorf("checkpoint missing expert %s (checkpoint and live expert sets are incompatible)", e.Name())
		}
	}
	if len(s.Weights) != len(experts) {
		return fmt.Errorf("checkpoint has %d committee weights for %d experts", len(s.Weights), len(experts))
	}
	// The bandit is rebuilt from the checkpoint's own Config, so a
	// mismatched checkpoint would silently replace the deployment's
	// budget contract. Reject any economic or structural difference.
	live, saved := cl.cfg.Bandit, s.Bandit.Config
	if saved.BudgetDollars != live.BudgetDollars {
		return fmt.Errorf("checkpoint bandit budget $%v does not match configured $%v", saved.BudgetDollars, live.BudgetDollars)
	}
	if saved.TotalRounds != live.TotalRounds {
		return fmt.Errorf("checkpoint bandit horizon %d rounds does not match configured %d", saved.TotalRounds, live.TotalRounds)
	}
	if saved.QueriesPerRound != live.QueriesPerRound {
		return fmt.Errorf("checkpoint bandit %d queries/round does not match configured %d", saved.QueriesPerRound, live.QueriesPerRound)
	}
	if len(saved.Levels) != len(live.Levels) {
		return fmt.Errorf("checkpoint bandit has %d incentive levels, configured %d", len(saved.Levels), len(live.Levels))
	}
	for i, l := range saved.Levels {
		if l != live.Levels[i] {
			return fmt.Errorf("checkpoint bandit incentive level %d is %v, configured %v", i, l, live.Levels[i])
		}
	}
	return nil
}

// applyState installs a validated checkpoint. On error the system may be
// partially mutated; RestoreState handles rollback.
func (cl *CrowdLearn) applyState(s *systemState, trainSamples []classifier.Sample) error {
	byName := make(map[string][]byte, len(s.Experts))
	for _, es := range s.Experts {
		byName[es.Name] = es.State
	}
	for _, e := range cl.committee.Experts() {
		pe, ok := e.(classifier.PersistentExpert)
		if !ok {
			return fmt.Errorf("core: expert %s is not persistable", e.Name())
		}
		if err := pe.LoadState(bytes.NewReader(byName[e.Name()])); err != nil {
			return err
		}
	}
	// Verbatim, not SetWeights: renormalising would move the last bits
	// and the restored system would drift from the one that saved.
	if err := cl.committee.RestoreWeights(s.Weights); err != nil {
		return err
	}
	policy, err := bandit.FromState(s.Bandit)
	if err != nil {
		return err
	}
	if err := cl.quality.LoadState(bytes.NewReader(s.CQC)); err != nil {
		return err
	}
	cl.policy = policy
	cl.selector.SeekRNG(s.SelectorRNGPos)
	cl.replay = newReplayBuffer(trainSamples, cl.cfg.Seed+303)
	cl.replay.restore(s.ReplayAcquired, s.ReplayRNGPos)
	cl.bootstrapped = s.Bootstrapped
	return nil
}
