package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/crowdlearn/crowdlearn/internal/core"
)

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	tmpSuffix        = ".tmp"
	walName          = "wal.log"

	// DefaultRetainCheckpoints is how many checkpoint generations
	// rotation keeps when Options.RetainCheckpoints is zero.
	DefaultRetainCheckpoints = 3
)

// Options configures Open.
type Options struct {
	// Dir is the state directory; created if absent.
	Dir string
	// RetainCheckpoints is how many checkpoint files rotation keeps
	// (0 = DefaultRetainCheckpoints). The newest K survive; older ones
	// are deleted after each successful checkpoint write.
	RetainCheckpoints int
	// Faults enables seeded fault injection on the write paths.
	// Test-only.
	Faults FaultConfig
}

// Store is one state directory: rotating checkpoints plus the
// write-ahead cycle log. Safe for use from one process at a time;
// methods are internally serialised.
type Store struct {
	dir    string
	retain int
	faults *faultInjector

	mu  sync.Mutex
	wal *os.File
	// walCycles holds the records recovered from the WAL at Open, in
	// file order; Recover replays them and then drops them.
	walCycles []core.JournalCycle
	// walTruncated is how many torn-tail bytes Open discarded.
	walTruncated int64
	// walDamaged notes an unreadable WAL header (file replaced).
	walDamaged bool
}

// Open opens (creating if needed) a state directory: stale temp files
// are removed, the WAL is scanned with any torn tail truncated, and its
// intact records are decoded for Recover.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: empty state directory")
	}
	if opts.RetainCheckpoints < 0 {
		return nil, fmt.Errorf("store: RetainCheckpoints %d must be non-negative", opts.RetainCheckpoints)
	}
	if err := opts.Faults.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: opts.Dir, retain: opts.RetainCheckpoints, faults: newFaultInjector(opts.Faults)}
	if s.retain == 0 {
		s.retain = DefaultRetainCheckpoints
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			// Leftover from a crash between temp write and rename; the
			// rename never happened, so the file is not state.
			//lint:ignore checked-errors-in-store best-effort cleanup of a non-state temp file; failure leaves harmless garbage
			os.Remove(filepath.Join(opts.Dir, e.Name()))
		}
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close releases the WAL handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	s.wal = nil
	return err
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// WALCycles returns the journaled cycles recovered at Open, in commit
// order, until a successful Recover has replayed them; after that it
// returns nil.
func (s *Store) WALCycles() []core.JournalCycle {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walCycles
}

// WALTruncatedBytes reports how many torn-tail bytes Open discarded.
func (s *Store) WALTruncatedBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walTruncated
}

func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

// openWAL reads the log, truncates any torn or corrupt tail, decodes
// the intact records and leaves an append handle positioned at the end.
func (s *Store) openWAL() error {
	path := s.walPath()
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: read WAL: %w", err)
	}
	validLen := int64(walHdrSize)
	fresh := len(data) == 0
	if !fresh {
		if herr := parseWALHeader(data); herr != nil {
			// The header itself is unreadable: nothing in the file can
			// be trusted. Start a fresh log, reporting the loss.
			s.walDamaged = true
			s.walTruncated = int64(len(data))
			fresh = true
		} else {
			payloads, valid := scanWALRecords(data[walHdrSize:])
			records := make([]core.JournalCycle, 0, len(payloads))
			for _, p := range payloads {
				var rec core.JournalCycle
				if derr := gob.NewDecoder(bytes.NewReader(p)).Decode(&rec); derr != nil {
					// Framing held but the payload does not decode:
					// corruption. This record and everything after it
					// form the tail to drop.
					valid = int(int64(valid) - sumFramedLen(payloads[len(records):]))
					break
				}
				records = append(records, rec)
			}
			s.walCycles = records
			validLen = int64(walHdrSize + valid)
			s.walTruncated = int64(len(data)) - validLen
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: open WAL: %w", err)
	}
	if fresh {
		if err := f.Truncate(0); err == nil {
			_, err = f.Write(encodeWALHeader())
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("store: init WAL: %w", err)
		}
	} else if validLen < int64(len(data)) {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate torn WAL tail: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync WAL: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return fmt.Errorf("store: seek WAL: %w", err)
	}
	s.wal = f
	return s.syncDir()
}

// sumFramedLen is the on-disk size of the given record payloads.
func sumFramedLen(payloads [][]byte) int64 {
	var n int64
	for _, p := range payloads {
		n += int64(walRecHdrSize + len(p))
	}
	return n
}

// AppendCycle durably appends one committed cycle to the write-ahead
// log, fsyncing before returning. Returns the framed record size.
func (s *Store) AppendCycle(rec core.JournalCycle) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0, errors.New("store: closed")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(rec); err != nil {
		return 0, fmt.Errorf("store: encode WAL record: %w", err)
	}
	frame := encodeWALRecord(payload.Bytes())
	if keep, torn := s.faults.tornWAL(len(frame)); torn {
		s.wal.Write(frame[:keep])
		s.wal.Sync()
		return 0, fmt.Errorf("store: injected fault: WAL append torn after %d/%d bytes", keep, len(frame))
	}
	if _, err := s.wal.Write(frame); err != nil {
		return 0, fmt.Errorf("store: append WAL record: %w", err)
	}
	if err := s.wal.Sync(); err != nil {
		return 0, fmt.Errorf("store: sync WAL record: %w", err)
	}
	return int64(len(frame)), nil
}

func checkpointName(cycles int) string {
	return fmt.Sprintf("%s%010d%s", checkpointPrefix, cycles, checkpointSuffix)
}

// checkpointInfo is one on-disk checkpoint file.
type checkpointInfo struct {
	name   string
	cycles int
}

// listCheckpoints returns the directory's checkpoint files sorted
// newest (most cycles covered) first. Files whose names do not parse
// are ignored.
func (s *Store) listCheckpoints() ([]checkpointInfo, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var infos []checkpointInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		var cycles int
		if _, err := fmt.Sscanf(strings.TrimSuffix(name, checkpointSuffix), checkpointPrefix+"%d", &cycles); err != nil {
			continue
		}
		infos = append(infos, checkpointInfo{name: name, cycles: cycles})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].cycles > infos[j].cycles })
	return infos, nil
}

// WriteCheckpoint atomically writes a checkpoint covering the first
// `cycles` committed cycles, with the payload produced by save
// (normally core.(*CrowdLearn).SaveState). On success older checkpoints
// beyond the retention count are deleted. Returns the file size.
func (s *Store) WriteCheckpoint(cycles int, save func(w io.Writer) error) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		// The supervised runtime fences an abandoned epoch by closing its
		// store; a checkpoint attempt racing past that close must not
		// write state the successor epoch no longer owns.
		return 0, errors.New("store: closed")
	}
	if cycles < 0 {
		return 0, fmt.Errorf("store: checkpoint cycle count %d negative", cycles)
	}
	var payload bytes.Buffer
	if err := save(&payload); err != nil {
		return 0, fmt.Errorf("store: checkpoint save: %w", err)
	}
	frame := encodeCheckpoint(cycles, payload.Bytes())
	final := filepath.Join(s.dir, checkpointName(cycles))
	tmp := final + tmpSuffix

	keep, torn := s.faults.tornCheckpoint(len(frame))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("store: checkpoint temp: %w", err)
	}
	if _, err := f.Write(frame[:keep]); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("store: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("store: checkpoint fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: checkpoint close: %w", err)
	}
	if s.faults.failRename() {
		// Simulated crash between write and rename: the temp file stays
		// behind exactly as a real crash would leave it.
		return 0, errors.New("store: injected fault: checkpoint rename failed")
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: checkpoint rename: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return 0, err
	}
	if torn {
		// The torn file is in place (modelling corruption that survives
		// the atomic protocol); report the write as failed so callers
		// retry, and leave detection to recovery's checksum scan.
		return 0, fmt.Errorf("store: injected fault: checkpoint torn after %d/%d bytes", keep, len(frame))
	}
	s.pruneCheckpoints()
	return int64(len(frame)), nil
}

// pruneCheckpoints applies the retention policy. Best-effort: an
// unremovable old checkpoint is not an error.
func (s *Store) pruneCheckpoints() {
	infos, err := s.listCheckpoints()
	if err != nil {
		return
	}
	for _, info := range infos[min(len(infos), s.retain):] {
		os.Remove(filepath.Join(s.dir, info.name)) //lint:ignore checked-errors-in-store retention is best-effort by contract; a survivor is re-pruned next checkpoint
	}
	s.syncDir() //lint:ignore checked-errors-in-store best-effort durability of prune deletions; recovery tolerates resurrected old checkpoints
}

// readCheckpoint loads and validates one checkpoint file.
func (s *Store) readCheckpoint(info checkpointInfo) (payload []byte, err error) {
	data, err := os.ReadFile(filepath.Join(s.dir, info.name))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	cycles, payload, err := parseCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if cycles != info.cycles {
		return nil, fmt.Errorf("store: checkpoint %s claims %d cycles in header, %d in name", info.name, cycles, info.cycles)
	}
	return payload, nil
}

// syncDir fsyncs the state directory so renames and truncations are
// durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
