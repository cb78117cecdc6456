package persist

import (
	"errors"
	"fmt"
	"path/filepath"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// DynamicRun owns the durable write path of one dynamic-arrival run (a
// server tenant): its op log and WAL session, under the one-barrier protocol
// of DESIGN.md §12. One group commit is
//
//	AdmitItem / AdmitAdvance   ops buffered, the watermark moves
//	SyncOps                    the barrier (RollbackOps if it fails for good)
//	Place / Advance            the engine steps, in admission order; acknowledge
//	TakeIOStats                counters; op-log compaction after the WAL's
//
// The op log syncs only at the barrier and on Close, so a failed barrier can
// roll a whole batch back. The WAL syncs like any session's (Config.SyncEvery,
// checkpoints, Close) and may trail the op log: the engine is deterministic,
// so OpenDynamic regenerates the events it lost from the durable ops. A
// DynamicRun is single-goroutine.
type DynamicRun struct {
	ops       *Writer
	session   *Session
	watermark float64
	synced    float64 // the watermark as of the last successful SyncOps
}

// Admission refusals; readOpLog would reject either op as corruption.
var (
	ErrStale       = errors.New("persist: behind the run's watermark")
	ErrInvalidItem = errors.New("persist: invalid item")
)

// CreateDynamic starts a fresh dynamic run in cfg.Dir, replacing any earlier
// one: the op log with its meta record durable, then a new WAL session.
func CreateDynamic(meta RunMeta, cfg Config) (*DynamicRun, error) {
	if err := vfs.OrOS(cfg.FS).MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, ioErr("mkdir", cfg.Dir, err)
	}
	ops, err := createOpLog(cfg.FS, filepath.Join(cfg.Dir, opsFile), meta)
	if err != nil {
		return nil, err
	}
	p, err := core.NewPolicy(meta.Policy, meta.Seed)
	var e *core.Engine
	if err == nil {
		e, err = core.NewEngine(item.NewList(meta.Dim), p, core.WithDynamicArrivals())
	}
	var s *Session
	if err == nil {
		if s, err = Begin(e, meta, cfg); err != nil {
			e.Close()
		}
	}
	if err != nil {
		ops.Discard()
		return nil, err
	}
	return &DynamicRun{ops: ops, session: s}, nil
}

// OpenDynamic recovers the dynamic run in cfg.Dir: the item list and
// watermark from the op log (whose identity must equal meta), the engine
// from Recover, which verifies the durable WAL prefix, then the clock re-run
// to the watermark. That regenerates every event the WAL lost and leaves the
// engine where the live run stood after its last logged op: arrivals commit
// last among events at equal times, so advancing to the watermark commits
// exactly through the last logged arrival or advance. The report lists every
// tolerated corruption, the op log's torn tail first; its Session is nil.
func OpenDynamic(meta RunMeta, cfg Config) (*DynamicRun, *Recovery, error) {
	path := filepath.Join(cfg.Dir, opsFile)
	logged, err := readOpLog(cfg.FS, path, cfg.Label)
	if err != nil {
		return nil, nil, err
	}
	if logged.Meta != meta {
		return nil, nil, fmt.Errorf("persist: run %q: op log identity %+v disagrees with %+v", cfg.Label, logged.Meta, meta)
	}
	rec, err := Recover(logged.List, cfg, core.WithDynamicArrivals())
	if err != nil {
		return nil, nil, err
	}
	if logged.Torn != nil {
		rec.Corruptions = append([]*CorruptionError{logged.Torn}, rec.Corruptions...)
	}
	r := &DynamicRun{session: rec.Session, watermark: logged.Watermark, synced: logged.Watermark}
	rec.Session = nil
	if _, err = r.Advance(logged.Watermark); err != nil {
		err = fmt.Errorf("persist: run %q: re-advancing to %g: %w", cfg.Label, logged.Watermark, err)
	} else {
		r.ops, err = openAppend(cfg.FS, path, logged.ValidSize, SyncManual)
	}
	if err != nil {
		r.session.Close()
		return nil, nil, err
	}
	return r, rec, nil
}

// Engine exposes the run's engine for reads; mutate only through the run.
func (r *DynamicRun) Engine() *core.Engine { return r.session.Engine() }

// Watermark returns the admission floor: the latest admitted op's time.
func (r *DynamicRun) Watermark() float64 { return r.watermark }

// Logged returns the number of engine events committed over the run's life.
func (r *DynamicRun) Logged() int64 { return r.session.Logged() }

// AdmitItem validates an item against the run's dimension and watermark,
// buffers its op, and moves the watermark to arrival. Errors other than the
// admission refusals mean the op log is unusable.
func (r *DynamicRun) AdmitItem(arrival, departure float64, size vector.Vector) error {
	if arrival < r.watermark {
		return fmt.Errorf("%w: arrival %g, watermark %g", ErrStale, arrival, r.watermark)
	}
	it := item.Item{Arrival: arrival, Departure: departure, Size: size}
	if err := it.Validate(r.session.meta.Dim); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidItem, err)
	}
	return r.admit(appendItemOp(nil, arrival, departure, size), arrival)
}

// AdmitAdvance admits a clock advance to to, with AdmitItem's contract.
func (r *DynamicRun) AdmitAdvance(to float64) error {
	if to < r.watermark {
		return fmt.Errorf("%w: advance to %g, watermark %g", ErrStale, to, r.watermark)
	}
	return r.admit(appendAdvanceOp(nil, to), to)
}

func (r *DynamicRun) admit(op []byte, watermark float64) error {
	if err := r.ops.Append(op); err != nil {
		return err
	}
	r.watermark = watermark
	return nil
}

// SyncOps is the group commit's one barrier: the admitted ops durable before
// the engine steps on them, so every event the engine then commits can be
// regenerated and the WAL never references an item the op log could lose. It
// always reaches the device, even with nothing buffered, so a degraded tenant
// probes the disk with it. A failure leaves the ops buffered for a retry.
func (r *DynamicRun) SyncOps() error {
	if err := r.ops.Sync(); err != nil {
		return err
	}
	r.synced = r.watermark
	return nil
}

// RollbackOps abandons every op admitted since the last successful SyncOps,
// all or nothing, and restores the watermark. An error leaves the op log's
// tail unknown: treat it as fatal.
func (r *DynamicRun) RollbackOps() error {
	if err := r.ops.Rollback(); err != nil {
		return err
	}
	r.watermark = r.synced
	return nil
}

// Place applies an admitted item: the engine steps until its arrival
// commits, and the arrival's event record is returned.
func (r *DynamicRun) Place(arrival, departure float64, size vector.Vector) (core.EventRecord, error) {
	id, err := r.session.Engine().AppendArrival(arrival, departure, size)
	if err != nil {
		return core.EventRecord{}, err
	}
	for {
		rec, ok, err := r.session.Step()
		if err != nil || (ok && rec.Class == core.EventArrival && rec.ItemID == id) {
			return rec, err
		}
		if !ok {
			return rec, fmt.Errorf("persist: stream drained before arrival of item %d committed", id)
		}
	}
}

// Advance applies an admitted advance: it commits every pending event due at
// or before to and returns how many it committed.
func (r *DynamicRun) Advance(to float64) (int, error) {
	n := 0
	for {
		if t, ok := r.session.Engine().PeekTime(); !ok || t > to {
			return n, nil
		}
		if _, ok, err := r.session.Step(); err != nil || !ok {
			return n, err
		}
		n++
	}
}

// TakeIOStats returns and resets the session's I/O counters, first compacting
// the op log if the WAL was compacted since the last call and the op log is
// synced. A recoverable failure waits for the next WAL compaction; an error
// return is corruption or fatal.
func (r *DynamicRun) TakeIOStats() (IOStats, error) {
	st := r.session.TakeIOStats()
	if st.Compactions == 0 || r.ops.Buffered() {
		return st, nil
	}
	cfg := r.session.cfg
	w, reclaimed, err := compactOpLog(cfg.FS, filepath.Join(cfg.Dir, opsFile), cfg.Label)
	if w != nil {
		r.ops.Discard()
		r.ops = w
		st.OpLogCompactions++
		st.ReclaimedBytes += reclaimed
	}
	if Recoverable(err) {
		err = nil
	}
	return st, err
}

// Close syncs and closes both logs and releases the engine; OpenDynamic
// picks the run back up.
func (r *DynamicRun) Close() error {
	return errors.Join(r.ops.Close(), r.session.Close())
}
