package persist

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// DynamicRun owns the durable write path of one dynamic-arrival run (a
// server tenant): its engine, its op log and its snapshots, under the
// one-barrier protocol of DESIGN.md §12. One group commit is
//
//	AdmitItem / AdmitAdvance   ops buffered, the watermark moves
//	SyncOps                    the barrier (RollbackOps if it fails for good)
//	Place / Advance            the engine steps, in admission order; acknowledge
//	TakeIOStats                counters
//
// The op log is the run's only log. It syncs only at the barrier and on
// Close, so a failed barrier can roll a whole batch back, and it keeps every
// admitted item. The engine is deterministic, so the op log alone rebuilds
// every placement; snapshots, taken every Config.Every events, only bound how
// much of it recovery re-steps. Each checkpoint prunes the snapshots before
// it and compacts the op log. Place and Advance step only over synced ops, so
// a snapshot never covers an op a crash could take back. A DynamicRun is
// single-goroutine.
type DynamicRun struct {
	cfg       Config
	fsys      vfs.FS
	meta      RunMeta
	engine    *core.Engine
	ops       *Writer
	watermark float64
	synced    float64 // the watermark as of the last successful SyncOps
	stats     IOStats
}

// Admission refusals; readOpLog would reject either op as corruption.
var (
	ErrStale       = errors.New("persist: behind the run's watermark")
	ErrInvalidItem = errors.New("persist: invalid item")
)

// CreateDynamic starts a fresh dynamic run in cfg.Dir, replacing any earlier
// one: the earlier run's snapshots go (recovery would take them for this
// run's), the op log is created with its meta record durable, and the run
// opens as OpenDynamic opens any other.
func CreateDynamic(meta RunMeta, cfg Config) (*DynamicRun, error) {
	fsys := vfs.OrOS(cfg.FS)
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, ioErr("mkdir", cfg.Dir, err)
	}
	if _, err := pruneSnapshots(fsys, cfg.Dir, math.MaxInt64); err != nil {
		return nil, err
	}
	ops, err := createOpLog(fsys, filepath.Join(cfg.Dir, opsFile), meta)
	if err != nil {
		return nil, err
	}
	ops.Discard() // already durable; OpenDynamic reopens it
	r, _, err := OpenDynamic(meta, cfg)
	return r, err
}

// OpenDynamic recovers the dynamic run in cfg.Dir: orphaned temp files swept,
// the item list and watermark read from the op log (whose identity must equal
// meta), the engine restored from the newest usable snapshot or, failing
// that, started fresh, and the clock re-run to the watermark. Arrivals commit
// last among events at equal times, so advancing to the watermark leaves the
// engine exactly where the live run stood after its last logged op. The
// report lists every tolerated corruption, the op log's torn tail first.
func OpenDynamic(meta RunMeta, cfg Config) (*DynamicRun, *Recovery, error) {
	fsys := vfs.OrOS(cfg.FS)
	rec := &Recovery{Meta: meta, SweptTemp: sweepTempFiles(fsys, cfg.Dir)}
	path := filepath.Join(cfg.Dir, opsFile)
	logged, err := readOpLog(fsys, path, cfg.Label)
	if err != nil {
		return nil, nil, err
	}
	if logged.Meta != meta {
		return nil, nil, fmt.Errorf("persist: run %q: op log identity %+v disagrees with %+v", cfg.Label, logged.Meta, meta)
	}
	if logged.Torn != nil {
		rec.Corruptions = append(rec.Corruptions, logged.Torn)
	}
	// RestoreEngine refuses a snapshot covering more items than the op log
	// holds; with no usable snapshot a fresh engine re-steps the whole log.
	e, err := restoreNewest(fsys, logged.List, meta, cfg, []core.Option{core.WithDynamicArrivals()}, 0, math.MaxInt64, rec)
	if err != nil {
		return nil, nil, err
	}
	r := &DynamicRun{cfg: cfg, fsys: fsys, meta: meta, engine: e, watermark: logged.Watermark, synced: logged.Watermark}
	if r.ops, err = openAppend(fsys, path, logged.ValidSize, SyncManual); err != nil {
		e.Close()
		return nil, nil, err
	}
	if _, err := r.Advance(logged.Watermark); err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("persist: run %q: re-advancing to %g: %w", cfg.Label, logged.Watermark, err)
	}
	return r, rec, nil
}

// Engine exposes the run's engine for reads; mutate only through the run.
func (r *DynamicRun) Engine() *core.Engine { return r.engine }

// Watermark returns the admission floor: the latest admitted op's time.
func (r *DynamicRun) Watermark() float64 { return r.watermark }

// AdmitItem validates an item against the run's dimension and watermark,
// buffers its op, and moves the watermark to arrival. Errors other than the
// admission refusals mean the op log is unusable.
func (r *DynamicRun) AdmitItem(arrival, departure float64, size vector.Vector) error {
	if arrival < r.watermark {
		return fmt.Errorf("%w: arrival %g, watermark %g", ErrStale, arrival, r.watermark)
	}
	it := item.Item{Arrival: arrival, Departure: departure, Size: size}
	if err := it.Validate(r.meta.Dim); err != nil {
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
// the engine steps on them, so every placement the engine then commits can be
// rebuilt. It always reaches the device, even with nothing buffered, so a
// degraded tenant probes the disk with it. A failure leaves the ops buffered
// for a retry.
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

// Place applies an admitted, synced item: the engine steps until its arrival
// commits, and the arrival's event record is returned.
func (r *DynamicRun) Place(arrival, departure float64, size vector.Vector) (core.EventRecord, error) {
	id, err := r.engine.AppendArrival(arrival, departure, size)
	if err != nil {
		return core.EventRecord{}, err
	}
	for {
		rec, ok, err := r.step()
		if err != nil || (ok && rec.Class == core.EventArrival && rec.ItemID == id) {
			return rec, err
		}
		if !ok {
			return rec, fmt.Errorf("persist: stream drained before arrival of item %d committed", id)
		}
	}
}

// Advance applies an admitted, synced advance: it commits every pending event
// due at or before to and returns how many it committed.
func (r *DynamicRun) Advance(to float64) (int, error) {
	n := 0
	for {
		if t, ok := r.engine.PeekTime(); !ok || t > to {
			return n, nil
		}
		if _, ok, err := r.step(); err != nil || !ok {
			return n, err
		}
		n++
	}
}

// step commits one engine event and, every Config.Every events, checkpoints:
// a snapshot, then, once it is durable, the older snapshots pruned and the op
// log compacted. Recoverable failures are counted in IOStats and the next
// checkpoint retries; an error is corruption or fatal.
func (r *DynamicRun) step() (core.EventRecord, bool, error) {
	rec, ok, err := r.engine.Step()
	if err != nil || !ok || r.cfg.Every <= 0 || rec.Seq%r.cfg.Every != 0 {
		return rec, ok, err
	}
	seq, err := writeSnapshot(r.fsys, r.engine, r.meta, r.cfg)
	if err != nil {
		if Recoverable(err) {
			r.stats.CheckpointsSkipped++
			err = nil
		}
		return rec, true, err
	}
	// A snapshot that fails to go is harmless; the next checkpoint retries.
	reclaimed, _ := pruneSnapshots(r.fsys, r.cfg.Dir, seq)
	r.stats.ReclaimedBytes += reclaimed
	w, reclaimed, err := compactOpLog(r.fsys, filepath.Join(r.cfg.Dir, opsFile), r.cfg.Label)
	if w != nil {
		r.ops.Discard()
		r.ops = w
		r.stats.Compactions++
		r.stats.ReclaimedBytes += reclaimed
	}
	if Recoverable(err) {
		err = nil // the next checkpoint retries
	}
	return rec, true, err
}

// TakeIOStats returns and resets the run's I/O counters.
func (r *DynamicRun) TakeIOStats() IOStats {
	st := r.stats
	r.stats = IOStats{}
	return st
}

// Close syncs and closes the op log and releases the engine; OpenDynamic
// picks the run back up.
func (r *DynamicRun) Close() error {
	err := r.ops.Close()
	r.engine.Close()
	return err
}
