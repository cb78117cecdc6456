package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"

	"dvbp/internal/core"
	"dvbp/internal/vfs"
)

// File names inside a checkpoint directory.
const (
	walFile    = "wal.dvbp"
	opsFile    = "ops.dvbp" // dynamic runs only (DynamicRun)
	snapPrefix = "snap-"
	snapSuffix = ".dvbp"
)

// snapName renders the snapshot file name for a checkpoint at eventSeq.
func snapName(eventSeq int64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, eventSeq, snapSuffix)
}

// AuxCodec lets a subsystem outside the engine (the metrics registry) ride
// along in snapshots: Marshal captures its state at a checkpoint, Unmarshal
// restores it before replay. The contract mirrors the engine's: aux state
// captured at event k, plus replay of events k+1..n through the subsystem's
// ordinary observer callbacks, must equal the uninterrupted state at n.
type AuxCodec interface {
	// AuxKey names the blob inside snapshot files; keys must be unique
	// within a session.
	AuxKey() string
	MarshalAux() ([]byte, error)
	UnmarshalAux(data []byte) error
}

// Config shapes a persistence session.
type Config struct {
	// Dir is the checkpoint directory (created if missing).
	Dir string
	// Label names the run for error reporting — the tenant name in a
	// multi-tenant directory layout. Every *CorruptionError that recovery
	// detects or tolerates carries it, so logs say whose WAL was truncated
	// rather than just which file.
	Label string
	// Every takes an automatic checkpoint after this many events; 0 disables
	// automatic checkpoints (the log alone still recovers via full replay).
	Every int64
	// SyncEvery batches WAL fsyncs (default 64 records; SyncManual disables
	// auto-sync so only explicit syncs reach the device).
	SyncEvery int
	// Aux subsystems checkpointed alongside the engine.
	Aux []AuxCodec
	// FS is the filesystem seam every file operation goes through; nil means
	// the real filesystem. Tests inject vfs.Mem or a vfs.Injector here.
	FS vfs.FS
	// Compact truncates the WAL prefix after each successful automatic
	// checkpoint (and prunes snapshots below the new base), bounding on-disk
	// size by the snapshot interval instead of the run length. See
	// Session.Compact and DESIGN.md §15. A DynamicRun ignores it: it always
	// prunes and compacts its op log at each checkpoint.
	Compact bool
}

// IOStats counts the I/O weather a session rode through: transient failures
// it absorbed (to be retried by later syncs), checkpoints it skipped, and
// the compactions it completed. TakeIOStats drains them; the server exports
// them as metrics.
type IOStats struct {
	// SyncFailures counts recoverable WAL auto-sync failures that were
	// absorbed: the records stayed buffered and a later Sync retried them.
	SyncFailures int64
	// CheckpointsSkipped counts automatic checkpoints skipped on recoverable
	// I/O errors; the next interval tries again.
	CheckpointsSkipped int64
	// Compactions counts completed compactions: of the WAL in a Session, of
	// the op log in a DynamicRun.
	Compactions int64
	// ReclaimedBytes sums the on-disk bytes compaction reclaimed (WAL prefix
	// or op log, and pruned snapshots).
	ReclaimedBytes int64
}

// Session couples a stepping engine to its write-ahead log: every committed
// event is appended to the WAL before the next one runs, and checkpoints
// capture engine + aux state between events. The caller owns the engine's
// lifecycle through the session (Step/Finish/Close), never directly.
type Session struct {
	cfg    Config
	fsys   vfs.FS
	meta   RunMeta
	engine *core.Engine
	wal    *Writer
	buf    []byte
	logged int64 // events in the WAL (lifetime count, compaction included)

	walBase  int64 // events truncated away by compaction (WAL holds base+1..logged)
	lastSnap int64 // event seq of the newest durable snapshot this session took
	stats    IOStats
}

// Begin starts persisting a fresh run: it creates the directory, the WAL
// (truncating any previous run in the directory), and an initial checkpoint
// at event 0 when cfg.Every > 0.
func Begin(e *core.Engine, meta RunMeta, cfg Config) (*Session, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("persist: no checkpoint directory configured")
	}
	if !core.CheckpointablePolicy(e.Policy()) {
		return nil, fmt.Errorf("persist: policy %s carries state but implements no PolicyStateCodec", e.Policy().Name())
	}
	if err := checkAuxKeys(cfg.Aux); err != nil {
		return nil, err
	}
	fsys := vfs.OrOS(cfg.FS)
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, ioErr("mkdir", cfg.Dir, err)
	}
	// Remove checkpoints from any earlier run in the directory: they would
	// otherwise be mistaken for this run's on recovery.
	if _, err := pruneSnapshots(fsys, cfg.Dir, math.MaxInt64); err != nil {
		return nil, err
	}
	wal, err := createLog(fsys, filepath.Join(cfg.Dir, walFile), KindWAL, meta, cfg.SyncEvery)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, fsys: fsys, meta: meta, engine: e, wal: wal}
	if err := syncDir(fsys, cfg.Dir); err != nil {
		wal.Close()
		return nil, err
	}
	if cfg.Every > 0 {
		if err := s.Checkpoint(); err != nil {
			wal.Close()
			return nil, err
		}
	}
	return s, nil
}

// Engine exposes the engine the session is persisting.
func (s *Session) Engine() *core.Engine { return s.engine }

// Logged returns the number of events appended to the WAL over the session's
// lifetime (compaction does not reduce it).
func (s *Session) Logged() int64 { return s.logged }

// WALSize returns the WAL's current size, buffered bytes included — the
// quantity compaction bounds.
func (s *Session) WALSize() int64 { return s.wal.Size() }

// TakeIOStats returns and resets the session's I/O counters.
func (s *Session) TakeIOStats() IOStats {
	st := s.stats
	s.stats = IOStats{}
	return st
}

// Step commits one engine event and appends it to the WAL, then takes an
// automatic checkpoint (and, with cfg.Compact, a WAL compaction) when the
// configured interval elapses. ok=false means the run is complete (call
// Finish).
//
// Recoverable I/O errors (transient EIO, a full disk) on the auto-sync,
// checkpoint, and compaction paths are absorbed and counted in IOStats, not
// returned: the appended records stay buffered and the next sync retries
// them, a skipped checkpoint just means the next interval tries again. An
// error from Step is therefore always corruption or fatal.
func (s *Session) Step() (rec core.EventRecord, ok bool, err error) {
	rec, ok, err = s.engine.Step()
	if err != nil || !ok {
		return rec, ok, err
	}
	s.buf = AppendEventRecord(s.buf[:0], rec)
	if err := s.wal.Append(s.buf); err != nil {
		if !Recoverable(err) {
			return rec, false, err
		}
		s.stats.SyncFailures++ // records stay buffered; a later Sync retries
	}
	s.logged++
	if s.cfg.Every > 0 && s.logged%s.cfg.Every == 0 {
		if err := s.Checkpoint(); err != nil {
			if !Recoverable(err) {
				return rec, false, err
			}
			s.stats.CheckpointsSkipped++
		} else if s.cfg.Compact {
			if err := s.Compact(); err != nil && !Recoverable(err) {
				return rec, false, err
			}
		}
	}
	return rec, true, nil
}

// Sync forces every appended WAL record down to the device, so no caller is
// told an event is durable when a crash can undo it. Unlike Step's automatic
// paths, Sync reports recoverable errors to the caller: an explicit barrier
// is exactly where honesty about durability is due.
func (s *Session) Sync() error {
	return s.wal.Sync()
}

// Checkpoint captures the engine and aux state at the current event boundary
// into an atomically-written snapshot file. The WAL is synced first so the
// snapshot never gets ahead of the durable log.
func (s *Session) Checkpoint() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	seq, err := writeSnapshot(s.fsys, s.engine, s.meta, s.cfg)
	if err != nil {
		return err
	}
	s.lastSnap = seq
	return nil
}

// writeSnapshot captures e and cfg's aux subsystems at the current event
// boundary into an atomically-written snapshot file in cfg.Dir and returns
// its event sequence. The caller makes the log it builds on durable first.
func writeSnapshot(fsys vfs.FS, e *core.Engine, meta RunMeta, cfg Config) (int64, error) {
	snap, err := e.Snapshot()
	if err != nil {
		return 0, err
	}
	content := appendHeader(nil, KindSnapshot)
	content = appendRecord(content, encodeMeta(meta))
	content = appendRecord(content, EncodeSnapshot(snap))
	for _, aux := range cfg.Aux {
		blob, err := aux.MarshalAux()
		if err != nil {
			return 0, fmt.Errorf("persist: aux %q: %w", aux.AuxKey(), err)
		}
		content = appendRecord(content, encodeAux(aux.AuxKey(), blob))
	}
	if err := WriteFileAtomic(fsys, filepath.Join(cfg.Dir, snapName(snap.EventSeq)), content); err != nil {
		return 0, err
	}
	return snap.EventSeq, nil
}

// Finish syncs and closes the WAL and seals the engine into its Result.
func (s *Session) Finish() (*core.Result, error) {
	if err := s.wal.Close(); err != nil {
		s.engine.Close()
		return nil, err
	}
	return s.engine.Finish()
}

// Close abandons the session: the WAL is synced so everything logged
// survives, and the engine's policy guard is released. A later Recover picks
// the run back up.
func (s *Session) Close() error {
	err := s.wal.Close()
	s.engine.Close()
	return err
}

// Run drives the session to completion: Step until the event stream drains,
// then Finish.
func (s *Session) Run() (*core.Result, error) {
	for {
		_, ok, err := s.Step()
		if err != nil {
			s.Close()
			return nil, err
		}
		if !ok {
			break
		}
	}
	return s.Finish()
}

// Aux record payload: uvarint key length | key | blob.
func encodeAux(key string, blob []byte) []byte {
	out := binary.AppendUvarint(nil, uint64(len(key)))
	out = append(out, key...)
	return append(out, blob...)
}

func decodeAux(payload []byte) (key string, blob []byte, err error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload)-w) {
		return "", nil, corrupt("malformed aux record")
	}
	return string(payload[w : w+int(n)]), payload[w+int(n):], nil
}

func checkAuxKeys(aux []AuxCodec) error {
	seen := make(map[string]bool, len(aux))
	for _, a := range aux {
		k := a.AuxKey()
		if k == "" {
			return fmt.Errorf("persist: empty aux key")
		}
		if seen[k] {
			return fmt.Errorf("persist: duplicate aux key %q", k)
		}
		seen[k] = true
	}
	return nil
}
