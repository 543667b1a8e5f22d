package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// WriteSyncer is the small write abstraction the store appends through:
// an append-mode byte sink with explicit durability and shutdown. The
// default implementation is an *os.File opened with O_APPEND; the
// faultio subpackage wraps one with injectable failures so the
// robustness tests can prove — not assume — recovery behaviour.
type WriteSyncer interface {
	io.Writer
	// Sync forces everything written so far to stable storage.
	Sync() error
	// Close releases the sink. The store syncs before closing.
	Close() error
}

// Opener produces the WriteSyncer for the log file's path.
type Opener func(path string) (WriteSyncer, error)

// OpenFile is the default Opener: an O_APPEND|O_CREATE OS file.
func OpenFile(path string) (WriteSyncer, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// Options configure Open.
type Options struct {
	// Open produces the log file's WriteSyncer; nil means OpenFile. Tests
	// inject faulty writers here.
	Open Opener
}

// logName is the file appends go to. Open also replays every other
// shard-*.log in the directory, so one written by an earlier version that
// spread appends over several shard files recovers unchanged.
const logName = "shard-000.log"

// TaskKey ordering for deterministic Recovered snapshots.
func taskKeyLess(a, b TaskKey) bool {
	if a.Engine != b.Engine {
		return a.Engine < b.Engine
	}
	return a.Oracle < b.Oracle
}

// Recovered is the state Open rebuilt from the log: everything a
// campaign needs to resume. Plans and Findings are deduplicated;
// Progress holds the latest checkpoint per task.
type Recovered struct {
	// Meta is the first meta record's payload (nil if none) — the
	// campaign configuration stamp resume validates against.
	Meta []byte
	// Plans are the distinct plan fingerprint keys, in log order.
	Plans [][32]byte
	// Findings are the distinct findings, in log order.
	Findings []Finding
	// Progress maps each task to its most recent checkpoint.
	Progress map[TaskKey]TaskProgress
	// DroppedBytes counts torn/corrupt tail bytes truncated across all
	// log files; Truncated counts how many files lost a tail.
	DroppedBytes int64
	Truncated    int
}

// Tasks returns the recovered task keys in deterministic order.
func (r *Recovered) Tasks() []TaskKey {
	keys := make([]TaskKey, 0, len(r.Progress))
	for k := range r.Progress {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return taskKeyLess(keys[i], keys[j]) })
	return keys
}

// Empty reports whether recovery found nothing at all — the fresh-
// directory case a non-resuming campaign requires.
func (r *Recovered) Empty() bool {
	return r.Meta == nil && len(r.Plans) == 0 && len(r.Findings) == 0 && len(r.Progress) == 0
}

// Store is the crash-safe plan-and-finding log. All methods are safe for
// concurrent use; appends from campaign workers serialize on one mutex
// (disk frames are tiny next to the oracle work producing them).
//
// Durability model: Append* buffers nothing — every record is one write
// to the log's WriteSyncer — but only Sync/Checkpoint/Close force bytes
// to stable storage. Every record goes to one append-only file, and
// recovery keeps exactly the prefix of CRC-valid frames, so the file
// itself orders durability: a recovered Done checkpoint proves every
// record its task appended before it is recovered too. A write failure
// is sticky: the log's tail is in an unknown state, so every subsequent
// append fails with the original error until the store is reopened
// (recovery then truncates the torn tail).
type Store struct {
	mu        sync.Mutex
	dir       string
	open      Opener
	ws        WriteSyncer // nil until the first append
	dirty     bool        // bytes written since the last Sync
	planIdx   map[[32]byte]struct{}
	findIdx   map[uint64]struct{}
	meta      []byte
	recovered Recovered
	buf       []byte // frame scratch, reused across appends
	failed    error  // sticky first write/sync failure
	closed    bool
}

// Open opens (creating if needed) the log directory, replays every log
// file — verifying checksums and truncating torn tails — and returns a
// store ready for appends, with the recovered state snapshotted.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Open == nil {
		opts.Open = OpenFile
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:     dir,
		open:    opts.Open,
		planIdx: map[[32]byte]struct{}{},
		findIdx: map[uint64]struct{}{},
	}
	s.recovered.Progress = map[TaskKey]TaskProgress{}

	// Duplicate records across files dedup during the scan.
	paths, err := filepath.Glob(filepath.Join(dir, "shard-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := s.recoverFile(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recoverFile replays one log file into the store's indexes and
// truncates any torn or corrupt tail in place.
func (s *Store) recoverFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", filepath.Base(path), err)
	}
	valid, err := scanFrames(data, s.replay)
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", filepath.Base(path), err)
	}
	if valid < len(data) {
		// Torn tail (crash mid-write) or bit rot: the intact prefix is the
		// log. Truncate so appends continue at a frame boundary.
		if err := os.Truncate(path, int64(valid)); err != nil {
			return fmt.Errorf("store: truncate %s: %w", filepath.Base(path), err)
		}
		s.recovered.DroppedBytes += int64(len(data) - valid)
		s.recovered.Truncated++
	}
	return nil
}

// replay folds one intact frame into the recovered state. A CRC-valid
// frame whose payload does not decode fails Open loudly: the checksum
// proves the bytes are what the writer wrote, so a bad payload is a
// writer bug — silently truncating there would hide it. Unknown record
// types, the reserved 0x05 among them, are skipped, so a newer writer's
// log still recovers under an older reader.
func (s *Store) replay(typ byte, payload []byte) error {
	switch typ {
	case recMeta:
		if s.meta == nil {
			s.meta = append([]byte(nil), payload...)
			s.recovered.Meta = s.meta
		}
	case recPlan:
		if len(payload) != 32 {
			return errBadPayload
		}
		var fp [32]byte
		copy(fp[:], payload)
		if _, dup := s.planIdx[fp]; !dup {
			s.planIdx[fp] = struct{}{}
			s.recovered.Plans = append(s.recovered.Plans, fp)
		}
	case recFinding:
		f, err := decodeFindingPayload(payload)
		if err != nil {
			return err
		}
		if _, dup := s.findIdx[f.key()]; !dup {
			s.findIdx[f.key()] = struct{}{}
			s.recovered.Findings = append(s.recovered.Findings, f)
		}
	case recProgress:
		p, err := decodeProgressPayload(payload)
		if err != nil {
			return err
		}
		s.recovered.Progress[p.Key()] = p
	}
	return nil
}

// Recovered returns the state Open rebuilt. The snapshot is owned by the
// store and must not be mutated.
func (s *Store) Recovered() *Recovered { return &s.recovered }

// Dir returns the log directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Meta returns the recovered (or appended) meta payload, nil if none.
func (s *Store) Meta() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meta
}

// append encodes one frame and writes it to the log in a single Write.
// Callers hold s.mu.
func (s *Store) append(typ byte, payload []byte) error {
	if s.closed {
		return errors.New("store: closed")
	}
	if s.failed != nil {
		return s.failed
	}
	if s.ws == nil {
		ws, err := s.open(filepath.Join(s.dir, logName))
		if err != nil {
			return s.fail(fmt.Errorf("store: open %s: %w", logName, err))
		}
		s.ws = ws
	}
	s.buf = appendFrame(s.buf[:0], typ, payload)
	n, err := s.ws.Write(s.buf)
	if err == nil && n != len(s.buf) {
		// Defend against writers that violate io.Writer's short-write
		// contract (faultio deliberately does): a silent short write would
		// leave a torn frame that the NEXT append buries mid-log.
		err = io.ErrShortWrite
	}
	s.dirty = true
	if err != nil {
		// The log's tail is now unknown — a retry would append after a
		// partial frame and corrupt everything that follows. Fail sticky;
		// recovery truncates the torn tail on reopen.
		return s.fail(fmt.Errorf("store: append %s: %w", logName, err))
	}
	return nil
}

// fail records the first hard failure and returns it.
func (s *Store) fail(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return s.failed
}

// AppendPlan records a plan fingerprint key, writing a frame only when
// the key is new to the log, and reports whether it was. The error is
// oracle-grade signal: a dropped disk failure here silently shrinks the
// corpus a resumed fleet dedups against.
func (s *Store) AppendPlan(fp [32]byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.planIdx[fp]; dup {
		return false, nil
	}
	if err := s.append(recPlan, fp[:]); err != nil {
		return false, err
	}
	s.planIdx[fp] = struct{}{}
	return true, nil
}

// AppendFinding records a finding, writing a frame only when its full
// identity is new to the log, and reports whether it was.
func (s *Store) AppendFinding(f Finding) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := f.key()
	if _, dup := s.findIdx[key]; dup {
		return false, nil
	}
	payload := appendFindingPayload(nil, f)
	if err := s.append(recFinding, payload); err != nil {
		return false, err
	}
	s.findIdx[key] = struct{}{}
	return true, nil
}

// AppendMeta stamps the log with an opaque configuration payload.
// Exactly one meta record is meaningful (recovery keeps the first);
// appending over an existing different meta is an error — a resumed
// campaign must run with the configuration the log was built under.
func (s *Store) AppendMeta(meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.meta != nil {
		if string(s.meta) == string(meta) {
			return nil
		}
		return fmt.Errorf("store: meta already set to %q", s.meta)
	}
	if err := s.append(recMeta, meta); err != nil {
		return err
	}
	s.meta = append([]byte(nil), meta...)
	return nil
}

// Checkpoint appends a task-progress record and makes it, and everything
// before it, durable with one Sync. Recovery keeps only the prefix of
// intact frames, so a Done checkpoint recovered later guarantees every
// plan and finding its task appended is recovered too — the ordering the
// resume determinism contract stands on.
func (s *Store) Checkpoint(p TaskProgress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	payload := appendProgressPayload(nil, p)
	if err := s.append(recProgress, payload); err != nil {
		return err
	}
	return s.syncLocked()
}

// Sync forces everything appended so far to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.failed != nil {
		return s.failed
	}
	if !s.dirty {
		return nil
	}
	if err := s.ws.Sync(); err != nil {
		return s.fail(fmt.Errorf("store: sync %s: %w", logName, err))
	}
	s.dirty = false
	return nil
}

// Close syncs and closes the log. The store is unusable afterwards;
// reopen the directory to resume. Close after a sticky write failure
// still closes the file handles but reports the original failure.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	errs := []error{s.failed}
	if s.failed == nil {
		errs = append(errs, s.syncLocked())
	}
	if s.ws != nil {
		if err := s.ws.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store: close %s: %w", logName, err))
		}
		s.ws = nil
	}
	return errors.Join(errs...)
}

// Plans returns how many distinct plan fingerprints the log holds.
func (s *Store) Plans() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.planIdx)
}

// Findings returns how many distinct findings the log holds.
func (s *Store) Findings() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.findIdx)
}
