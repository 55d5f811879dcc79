package store

import (
	"bytes"
	"io"
	"log/slog"
	"sync"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/obs"
)

// Metric names for the persistence layer, following the conventions of
// internal/core's metric set.
const (
	// MetricCheckpoints counts checkpoint write attempts by result
	// ("ok" | "error").
	MetricCheckpoints = "crowdlearn_checkpoints_total"
	// MetricCheckpointBytes gauges the size of the newest checkpoint.
	MetricCheckpointBytes = "crowdlearn_checkpoint_bytes"
	// MetricCheckpointDuration is the checkpoint write latency histogram.
	MetricCheckpointDuration = "crowdlearn_checkpoint_duration_seconds"
	// MetricCheckpointAge gauges seconds since the last successful
	// checkpoint, refreshed on every committed cycle.
	MetricCheckpointAge = "crowdlearn_checkpoint_age_seconds"
	// MetricWALRecords counts durably appended cycle records.
	MetricWALRecords = "crowdlearn_wal_records_total"
	// MetricWALBytes counts bytes appended to the WAL.
	MetricWALBytes = "crowdlearn_wal_bytes_total"
	// MetricRecoveryOutcome is a one-hot gauge family over the
	// Outcome* labels describing the last startup's recovery.
	MetricRecoveryOutcome = "crowdlearn_recovery_outcome"
	// MetricRecoveryReplayed gauges WAL cycles replayed at the last
	// startup.
	MetricRecoveryReplayed = "crowdlearn_recovery_cycles_replayed"
	// MetricRecoveryCheckpointsSkipped gauges corrupt checkpoints
	// skipped at the last startup.
	MetricRecoveryCheckpointsSkipped = "crowdlearn_recovery_checkpoints_skipped"
	// MetricRecoveryWALTruncated gauges torn WAL bytes dropped at the
	// last startup.
	MetricRecoveryWALTruncated = "crowdlearn_recovery_wal_truncated_bytes"
)

var durationBuckets = obs.ExponentialBuckets(0.001, 2, 14)

// RegisterHelp attaches HELP text for the persistence metrics. Safe on
// a nil registry.
func RegisterHelp(r *obs.Registry) {
	r.Help(MetricCheckpoints, "Checkpoint write attempts by result.")
	r.Help(MetricCheckpointBytes, "Size of the newest checkpoint file in bytes.")
	r.Help(MetricCheckpointDuration, "Checkpoint write latency in seconds.")
	r.Help(MetricCheckpointAge, "Seconds since the last successful checkpoint.")
	r.Help(MetricWALRecords, "Cycle records durably appended to the write-ahead log.")
	r.Help(MetricWALBytes, "Bytes appended to the write-ahead log.")
	r.Help(MetricRecoveryOutcome, "One-hot recovery outcome of the last startup.")
	r.Help(MetricRecoveryReplayed, "WAL cycles replayed during the last recovery.")
	r.Help(MetricRecoveryCheckpointsSkipped, "Corrupt or torn checkpoints skipped during the last recovery.")
	r.Help(MetricRecoveryWALTruncated, "Torn write-ahead-log bytes truncated during the last recovery.")
}

// Journal adapts a Store to core.CycleJournal: every committed cycle is
// appended to the WAL (an append failure fails the cycle), and every
// CheckpointEvery-th cycle additionally triggers a checkpoint. A failed
// checkpoint does not fail the cycle — the WAL already made it durable —
// but is logged and counted.
type Journal struct {
	store  *Store
	every  int
	save   func(w io.Writer) error
	logger *slog.Logger
	reg    *obs.Registry

	// snapshot captures a checkpoint's payload from live system state
	// and returns its deferred encoder. NewJournal installs one that
	// runs save into a buffer; SetSnapshot replaces it. Set at wiring
	// time, before any commit; read-only afterwards.
	snapshot func() (encode func(w io.Writer) error, err error)

	mu             sync.Mutex
	cycles         int // committed cycles (next cycle index)
	lastCheckpoint time.Time
	haveCheckpoint bool
}

// NewJournal wires a Store behind core.Config.Journal. every is the
// checkpoint cadence in cycles (0 disables periodic checkpoints; the
// Checkpoint method still works). save produces the checkpoint payload —
// normally the system's SaveState. logger and reg may be nil.
func NewJournal(st *Store, every int, save func(w io.Writer) error, logger *slog.Logger, reg *obs.Registry) *Journal {
	if logger == nil {
		logger = slog.Default()
	}
	RegisterHelp(reg)
	j := &Journal{store: st, every: every, save: save, logger: logger, reg: reg}
	// Without a seam, serialize live state at capture time, while the
	// committing goroutine still owns it; defer only the file write.
	j.snapshot = func() (func(w io.Writer) error, error) {
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		return func(w io.Writer) error {
			_, err := w.Write(data)
			return err
		}, nil
	}
	return j
}

var (
	_ core.CycleJournal         = (*Journal)(nil)
	_ core.DetachedCycleJournal = (*Journal)(nil)
)

// SetSnapshot installs the snapshot-then-encode seam for detached
// commits: fn must capture everything a checkpoint needs from live
// system state synchronously and return a deferred encoder that is
// safe to run after the system has moved on — normally built from the
// system's SnapshotState. Call once at wiring time, before the first
// commit. Without it, every checkpointing commit runs the save
// callback into a buffer during the capture phase, so correctness
// never depends on it — only hot-path latency and memory do.
func (j *Journal) SetSnapshot(fn func() (encode func(w io.Writer) error, err error)) {
	j.snapshot = fn
}

// NoteRecovered seeds the journal's cycle position after Store.Recover,
// so checkpoint cadence and coverage counts continue from the recovered
// history rather than from zero.
func (j *Journal) NoteRecovered(report *RecoveryReport) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.cycles = report.NextCycle
	if report.CheckpointCycles >= 0 {
		// The restored checkpoint is on disk and current as of startup.
		j.lastCheckpoint = time.Now()
		j.haveCheckpoint = true
	}
}

// CycleCommitted implements core.CycleJournal: the two phases of
// CycleCommittedDetached run back to back on the caller's goroutine.
func (j *Journal) CycleCommitted(rec core.JournalCycle) error {
	durable, err := j.CycleCommittedDetached(rec)
	if err != nil {
		return err
	}
	return durable()
}

// CycleCommittedDetached implements core.DetachedCycleJournal: the
// journal's one commit body, whose durable phase core.RunCampaign
// overlaps with the next cycle's compute.
//
// The capture phase (this call) decides whether the commit will
// checkpoint and, if so, captures the checkpoint payload from live
// state through the journal's snapshot: the SetSnapshot seam (cheap
// capture, deferred encode) or NewJournal's default (save into a
// buffer right here). Either way the returned closure touches no live
// system state.
//
// The durable phase (the returned closure) appends the cycle record to
// the WAL — a failure there fails the cycle — and then writes the
// checkpoint if one was captured;
// a checkpoint failure is logged and counted but does not fail the
// cycle, because the WAL append already made it durable.
func (j *Journal) CycleCommittedDetached(rec core.JournalCycle) (func() error, error) {
	cycles := rec.Index + 1
	var payload func(w io.Writer) error
	if j.every > 0 && cycles%j.every == 0 {
		encode, err := j.snapshot()
		if err != nil {
			j.logger.Warn("checkpoint snapshot failed; skipping periodic checkpoint", slog.Any("err", err))
			j.reg.Counter(MetricCheckpoints, "result", "error").Inc()
		} else {
			payload = encode
		}
	}
	return func() error {
		n, err := j.store.AppendCycle(rec)
		if err != nil {
			return err
		}
		j.reg.Counter(MetricWALRecords).Inc()
		j.reg.Counter(MetricWALBytes).Add(float64(n))
		j.mu.Lock()
		j.cycles = cycles
		j.mu.Unlock()
		if payload != nil {
			if cerr := j.writeCheckpoint(cycles, payload); cerr != nil {
				j.logger.Warn("periodic checkpoint failed", slog.Any("err", cerr))
			}
		}
		if age, ok := j.CheckpointAge(); ok {
			j.reg.Gauge(MetricCheckpointAge).Set(age.Seconds())
		}
		return nil
	}, nil
}

// Checkpoint writes a checkpoint covering every committed cycle —
// called on the periodic cadence and on graceful shutdown (SIGTERM).
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	cycles := j.cycles
	j.mu.Unlock()
	return j.writeCheckpoint(cycles, j.save)
}

// writeCheckpoint writes one checkpoint covering `cycles` cycles from
// the given payload, with the shared metric and logging bookkeeping.
func (j *Journal) writeCheckpoint(cycles int, payload func(w io.Writer) error) error {
	start := time.Now()
	n, err := j.store.WriteCheckpoint(cycles, payload)
	j.reg.Histogram(MetricCheckpointDuration, durationBuckets).Observe(time.Since(start).Seconds())
	if err != nil {
		j.reg.Counter(MetricCheckpoints, "result", "error").Inc()
		return err
	}
	j.reg.Counter(MetricCheckpoints, "result", "ok").Inc()
	j.reg.Gauge(MetricCheckpointBytes).Set(float64(n))
	j.reg.Gauge(MetricCheckpointAge).Set(0)
	j.mu.Lock()
	j.lastCheckpoint = time.Now()
	j.haveCheckpoint = true
	j.mu.Unlock()
	j.logger.Info("checkpoint written", slog.Int("cycles", cycles), slog.Int64("bytes", n))
	return nil
}

// CheckpointAge reports the time since the last successful checkpoint;
// ok is false when none has been written this process.
func (j *Journal) CheckpointAge() (age time.Duration, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.haveCheckpoint {
		return 0, false
	}
	return time.Since(j.lastCheckpoint), true
}
