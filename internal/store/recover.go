package store

import (
	"bytes"
	"fmt"
	"log/slog"
	"time"

	"github.com/crowdlearn/crowdlearn/internal/classifier"
	"github.com/crowdlearn/crowdlearn/internal/core"
	"github.com/crowdlearn/crowdlearn/internal/imagery"
	"github.com/crowdlearn/crowdlearn/internal/obs"
)

// Recovery outcome labels, exported for /stats and the
// crowdlearn_recovery_outcome metric.
const (
	// OutcomeFresh: the state directory held no usable state; the
	// system starts from its bootstrap training, run by Recover.
	OutcomeFresh = "fresh"
	// OutcomeCheckpoint: a checkpoint restored and no WAL cycles
	// followed it.
	OutcomeCheckpoint = "checkpoint"
	// OutcomeCheckpointWAL: a checkpoint restored plus WAL cycles
	// replayed on top.
	OutcomeCheckpointWAL = "checkpoint+wal"
	// OutcomeWAL: no usable checkpoint, but WAL cycles replayed over
	// the bootstrap state Recover trained.
	OutcomeWAL = "wal"
	// OutcomeBootstrapFallback: checkpoint files existed but every one
	// was corrupt; recovery fell back to the bootstrap state it trained
	// (plus any WAL replay) instead of crashing.
	OutcomeBootstrapFallback = "bootstrap-fallback"
)

// RecoverOptions parameterises Store.Recover.
type RecoverOptions struct {
	// TrainSamples re-seed the retraining replay pool; pass the same
	// samples used at Bootstrap.
	TrainSamples []classifier.Sample
	// Registry is the image universe WAL records resolve their image
	// IDs against (normally the assessable test split).
	Registry []*imagery.Image
	// ResyncPlatform, when set, advances the live simulated crowd
	// platform through every journaled interaction so its random
	// stream ends exactly where the original process left it —
	// required for byte-identical continuation against a seeded
	// platform; pointless against a real crowd.
	ResyncPlatform bool
	// Logger receives recovery progress; nil uses slog.Default().
	Logger *slog.Logger
	// Metrics, when non-nil, receives the recovery-outcome gauge.
	Metrics *obs.Registry
}

// RecoveryReport describes what Recover did.
type RecoveryReport struct {
	// Outcome is one of the Outcome* labels.
	Outcome string `json:"outcome"`
	// CheckpointCycles is the committed-cycle count of the restored
	// checkpoint (-1 if none was usable).
	CheckpointCycles int `json:"checkpointCycles"`
	// CheckpointsSkipped counts checkpoint files rejected as corrupt
	// or torn during the newest→oldest scan.
	CheckpointsSkipped int `json:"checkpointsSkipped"`
	// CyclesReplayed counts WAL records re-applied through the
	// MIC/calibration path.
	CyclesReplayed int `json:"cyclesReplayed"`
	// CyclesResynced counts WAL records used only to advance the
	// simulated platform (already covered by the checkpoint).
	CyclesResynced int `json:"cyclesResynced"`
	// WALTruncatedBytes is the torn tail Open discarded.
	WALTruncatedBytes int64 `json:"walTruncatedBytes"`
	// NextCycle is the index the next sensing cycle should use.
	NextCycle int `json:"nextCycle"`
	// Bootstrapped reports that Recover ran the system's deferred
	// bootstrap training because no checkpoint restored.
	Bootstrapped bool `json:"bootstrapped"`
}

// Recover restores sys to the newest durable state in the directory:
// it scans checkpoints newest→oldest skipping any that fail their
// checksum, restores the first good one, then deterministically
// re-applies the WAL records beyond it via core.ReplayCycle. sys must
// be newly built and bootstrapped (its training still deferred) with
// the same configuration, dataset and seeds as the process that wrote
// the state. A restored checkpoint cancels the deferred training; when
// none restores, Recover runs the training before any WAL replay, so
// every outcome returns a trained system. Corrupt state never
// aborts recovery — the report says what was skipped — but a WAL
// record that cannot be replayed (e.g. it references images absent
// from the registry) is a hard error, because silently dropping a
// committed cycle would diverge from the acknowledged history.
func (s *Store) Recover(sys *core.CrowdLearn, opts RecoverOptions) (*RecoveryReport, error) {
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	report := &RecoveryReport{Outcome: OutcomeFresh, CheckpointCycles: -1, WALTruncatedBytes: s.WALTruncatedBytes()}
	if s.walDamaged {
		logger.Warn("WAL header unreadable; journal contents lost", slog.Int64("bytesDropped", report.WALTruncatedBytes))
	} else if report.WALTruncatedBytes > 0 {
		logger.Warn("truncated torn WAL tail", slog.Int64("bytesDropped", report.WALTruncatedBytes))
	}

	infos, err := s.listCheckpoints()
	if err != nil {
		return report, err
	}
	for _, info := range infos {
		payload, rerr := s.readCheckpoint(info)
		if rerr != nil {
			logger.Warn("skipping unusable checkpoint", slog.String("file", info.name), slog.Any("err", rerr))
			report.CheckpointsSkipped++
			continue
		}
		if rerr := sys.RestoreState(bytes.NewReader(payload), opts.TrainSamples); rerr != nil {
			logger.Warn("skipping unrestorable checkpoint", slog.String("file", info.name), slog.Any("err", rerr))
			report.CheckpointsSkipped++
			continue
		}
		report.CheckpointCycles = info.cycles
		logger.Info("restored checkpoint", slog.String("file", info.name), slog.Int("cycles", info.cycles))
		break
	}
	if report.CheckpointCycles < 0 && len(infos) > 0 {
		logger.Warn("no usable checkpoint; continuing from bootstrap state",
			slog.Int("corruptCheckpoints", report.CheckpointsSkipped))
	}
	if sys.BootstrapPending() {
		began := time.Now()
		if err := sys.EnsureBootstrapped(); err != nil {
			return report, fmt.Errorf("store: recover: %w", err)
		}
		report.Bootstrapped = true
		logger.Info("bootstrap training complete", slog.Duration("elapsed", time.Since(began)))
	}

	registry := make(map[int]*imagery.Image, len(opts.Registry))
	for _, im := range opts.Registry {
		registry[im.ID] = im
	}
	next := 0
	if report.CheckpointCycles > 0 {
		next = report.CheckpointCycles
	}
	for _, rec := range s.WALCycles() {
		switch {
		case rec.Index < next && opts.ResyncPlatform:
			if err := sys.ResyncCycle(rec, registry); err != nil {
				return report, fmt.Errorf("store: recover: %w", err)
			}
			report.CyclesResynced++
		case rec.Index < next:
			// Covered by the checkpoint and no platform to resync.
		case rec.Index > next:
			return report, fmt.Errorf("store: recover: journal gap: expected cycle %d, found %d", next, rec.Index)
		default:
			if err := sys.ReplayCycle(rec, registry, opts.ResyncPlatform); err != nil {
				return report, fmt.Errorf("store: recover: %w", err)
			}
			report.CyclesReplayed++
			next = rec.Index + 1
		}
	}
	report.NextCycle = next
	// The decoded records are replayed into sys; keeping them would
	// hold every recovered cycle for the life of the process.
	s.mu.Lock()
	s.walCycles = nil
	s.mu.Unlock()

	switch {
	case report.CheckpointCycles >= 0 && report.CyclesReplayed > 0:
		report.Outcome = OutcomeCheckpointWAL
	case report.CheckpointCycles >= 0:
		report.Outcome = OutcomeCheckpoint
	case report.CheckpointsSkipped > 0:
		report.Outcome = OutcomeBootstrapFallback
	case report.CyclesReplayed > 0:
		report.Outcome = OutcomeWAL
	}
	observeRecovery(opts.Metrics, report)
	logger.Info("recovery complete",
		slog.String("outcome", report.Outcome),
		slog.Int("checkpointCycles", report.CheckpointCycles),
		slog.Int("checkpointsSkipped", report.CheckpointsSkipped),
		slog.Int("cyclesReplayed", report.CyclesReplayed),
		slog.Int("cyclesResynced", report.CyclesResynced),
		slog.Int("nextCycle", report.NextCycle),
		slog.Bool("bootstrapped", report.Bootstrapped))
	return report, nil
}

// observeRecovery publishes the recovery outcome as a one-hot gauge
// family so dashboards can alert on bootstrap fallbacks.
func observeRecovery(r *obs.Registry, report *RecoveryReport) {
	if r == nil {
		return
	}
	for _, outcome := range []string{OutcomeFresh, OutcomeCheckpoint, OutcomeCheckpointWAL, OutcomeWAL, OutcomeBootstrapFallback} {
		v := 0.0
		if outcome == report.Outcome {
			v = 1
		}
		r.Gauge(MetricRecoveryOutcome, "outcome", outcome).Set(v)
	}
	r.Gauge(MetricRecoveryReplayed).Set(float64(report.CyclesReplayed))
	r.Gauge(MetricRecoveryCheckpointsSkipped).Set(float64(report.CheckpointsSkipped))
	r.Gauge(MetricRecoveryWALTruncated).Set(float64(report.WALTruncatedBytes))
}
