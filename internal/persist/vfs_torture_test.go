package persist

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vfs"
)

// This file is the disk-fault torture wall (DESIGN.md §15): every test runs
// the persistence stack over vfs.Mem, whose power-loss model only keeps what
// was explicitly fsynced, and sweeps EVERY mutating filesystem operation as a
// crash point. The invariant under test is total: for each op index i, a
// power loss at i followed by recovery must reach a final result
// byte-identical to the uninterrupted run — including crashes that land in
// the middle of a checkpoint rename, a WAL compaction swap, or an op-log
// rewrite.

// tortureCrashOK reports whether a recovery failure is the one legitimate
// kind: the crash predates the first durable run meta, so there is no run to
// recover and starting fresh loses nothing (nothing was ever acknowledged).
func tortureCrashOK(err error) bool {
	if errors.Is(err, iofs.ErrNotExist) {
		return true
	}
	var ce *CorruptionError
	return errors.As(err, &ce) && strings.Contains(ce.Reason, "no run meta record survived")
}

// staticTortureCfg is the session shape shared by the static sweep: automatic
// checkpoints, WAL compaction behind them, frequent fsync batching so crash
// points land between records as well as inside batches.
func staticTortureCfg(fsys vfs.FS) Config {
	return Config{Dir: "run", Every: 8, SyncEvery: 2, FS: fsys, Compact: true}
}

// runStaticTorture drives one fresh static run to completion on fsys.
func runStaticTorture(t *testing.T, l *item.List, fsys vfs.FS) (*core.Result, error) {
	t.Helper()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), staticTortureCfg(fsys))
	if err != nil {
		e.Close()
		return nil, err
	}
	return s.Run()
}

// TestDiskTortureCrashPointsStatic records how many mutating FS operations an
// uninterrupted compacting run performs, then replays the run once per
// operation index with a simulated power loss at exactly that operation —
// cycling lost/flushed/torn crash modes — recovers, finishes, and demands the
// byte-identical result every single time.
func TestDiskTortureCrashPointsStatic(t *testing.T) {
	l := testList(t, 40)

	base := vfs.NewMem()
	res, err := runStaticTorture(t, l, base)
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	want := resultJSON(t, res)
	total := base.Ops()
	if total < 50 {
		t.Fatalf("baseline run performed only %d mutating FS ops — the sweep would prove nothing", total)
	}

	fallbacks, recovered := 0, 0
	for i := int64(1); i <= total; i++ {
		m := vfs.NewMem()
		m.SetCrashPoint(i, vfs.CrashMode(i%3), 1+7*i)
		_, err := runStaticTorture(t, l, m)
		if err == nil {
			t.Fatalf("crash point %d/%d never fired", i, total)
		}
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash point %d: run died of %v, want ErrCrashed", i, err)
		}
		if !m.Crashed() {
			t.Fatalf("crash point %d: error without a crash", i)
		}
		m.Restart()

		var got string
		rec, rerr := Recover(l, staticTortureCfg(m), faultOpts()...)
		if rerr != nil {
			if !tortureCrashOK(rerr) {
				t.Fatalf("crash point %d/%d (mode %s): recovery failed: %v", i, total, vfs.CrashMode(i%3), rerr)
			}
			// Nothing durable survived; a fresh run is the honest restart.
			res, err := runStaticTorture(t, l, m)
			if err != nil {
				t.Fatalf("crash point %d: fresh restart failed: %v", i, err)
			}
			got = resultJSON(t, res)
			fallbacks++
		} else {
			res, err := rec.Session.Run()
			if err != nil {
				t.Fatalf("crash point %d/%d: resumed run failed: %v", i, total, err)
			}
			got = resultJSON(t, res)
			recovered++
		}
		if got != want {
			t.Fatalf("crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
				i, total, vfs.CrashMode(i%3), got, want)
		}
	}
	if recovered == 0 {
		t.Fatalf("all %d crash points fell back to fresh runs — recovery was never exercised", total)
	}
	t.Logf("swept %d crash points: %d recovered, %d legitimate fresh restarts", total, recovered, fallbacks)
}

// dynTortureMeta is the dynamic sweep's run identity.
func dynTortureMeta() RunMeta { return NewDynamicRunMeta(2, "firstfit", 11, "") }

// dynTortureCfg is the dynamic sweep's run shape: checkpoints every 8
// events, each followed by snapshot pruning and an op-log compaction.
func dynTortureCfg(fsys vfs.FS) Config {
	return Config{Dir: "tenant", Label: "dyn", Every: 8, FS: fsys}
}

// feedDynamicTorture feeds items through r — the type the server's tenants
// run — one single-request group commit per item, with an advance every
// third item. A resumed run continues with the items its op log lacks
// (identified positionally: the recovered item count is the cursor). It
// returns the compaction counts it saw; on error r is closed.
func feedDynamicTorture(t *testing.T, r *DynamicRun, items []item.Item) (IOStats, error) {
	t.Helper()
	var st IOStats
	for i := r.Engine().Stats().Items; i < len(items); i++ {
		if err := commitItem(t, r, items[i], i%3 == 2, &st); err != nil {
			r.Close()
			return st, err
		}
	}
	return st, nil
}

// driveDynamicTorture runs the sweep's workload on fsys to the end: fresh,
// or resumed from whatever the directory durably holds through OpenDynamic,
// the recovery the server uses, in which case the opened run is first handed
// to check. It returns the finished run's result.
func driveDynamicTorture(t *testing.T, items []item.Item, fsys vfs.FS, fresh bool, check func(*DynamicRun, *Recovery)) (*core.Result, error) {
	t.Helper()
	var r *DynamicRun
	var err error
	if fresh {
		r, err = CreateDynamic(dynTortureMeta(), dynTortureCfg(fsys))
	} else {
		var rec *Recovery
		if r, rec, err = OpenDynamic(dynTortureMeta(), dynTortureCfg(fsys)); err == nil {
			check(r, rec)
		}
	}
	if err != nil {
		return nil, err
	}
	if _, err := feedDynamicTorture(t, r, items); err != nil {
		return nil, err
	}
	return finishDynamic(r)
}

// checkResumePoint requires a run fresh out of OpenDynamic to stand exactly
// where an uninterrupted run fed its durable op log stands: the same
// placements, clock and event count.
func checkResumePoint(t *testing.T, r *DynamicRun) {
	t.Helper()
	cfg := dynTortureCfg(nil)
	logged, err := readOpLog(r.fsys, filepath.Join(cfg.Dir, opsFile), cfg.Label)
	if err != nil {
		t.Fatalf("re-reading the recovered op log: %v", err)
	}
	ref, err := CreateDynamic(dynTortureMeta(), Config{Dir: "ref", FS: vfs.NewMem()})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	defer ref.Close()
	commitOps(t, ref, logged.Ops)
	got := r.Engine().Stats()
	if want := ref.Engine().Stats(); got.EventSeq != want.EventSeq || got.Clock != want.Clock {
		t.Fatalf("recovered engine at event %d, clock %g; the durable op log leads to event %d, clock %g",
			got.EventSeq, got.Clock, want.EventSeq, want.Clock)
	}
	gotP, wantP := placementsOf(t, r.Engine()), placementsOf(t, ref.Engine())
	if len(gotP) != len(wantP) {
		t.Fatalf("recovered %d placements; the durable op log leads to %d", len(gotP), len(wantP))
	}
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("recovered placement %d = %+v; the durable op log leads to %+v", i, gotP[i], wantP[i])
		}
	}
}

// TestDiskTortureCrashPointsDynamic is the dynamic-run (multi-tenant-shaped)
// crash-point sweep: the server's one-barrier op-log protocol, run by the
// production DynamicRun with checkpoints, snapshot pruning and op-log
// compaction active, killed at every FS operation in turn and resumed through
// OpenDynamic, the recovery the server uses. Right after recovery the engine
// must stand where its durable op log leads, and the final packing must come
// out byte-identical at every crash point — that is the
// acknowledged-placements contract made exhaustive. Both recovery paths must
// be covered: restoring a snapshot, and rebuilding from the op log alone.
func TestDiskTortureCrashPointsDynamic(t *testing.T) {
	items := dynItems(45)

	base := vfs.NewMem()
	r, err := CreateDynamic(dynTortureMeta(), dynTortureCfg(base))
	if err != nil {
		t.Fatalf("baseline create: %v", err)
	}
	st, err := feedDynamicTorture(t, r, items)
	if err != nil {
		t.Fatalf("baseline drive: %v", err)
	}
	res, err := finishDynamic(r)
	if err != nil {
		t.Fatalf("baseline finish: %v", err)
	}
	want := resultJSON(t, res)
	total := base.Ops()
	if total < 100 {
		t.Fatalf("baseline drive performed only %d mutating FS ops", total)
	}
	if st.Compactions == 0 {
		t.Fatalf("baseline drive ran no op-log compaction; the sweep needs one")
	}

	fallbacks, recovered, fromSnapshot, fromOpLog := 0, 0, 0, 0
	for i := int64(1); i <= total; i++ {
		m := vfs.NewMem()
		m.SetCrashPoint(i, vfs.CrashMode(i%3), 3+11*i)
		_, err := driveDynamicTorture(t, items, m, true, nil)
		if err == nil {
			t.Fatalf("crash point %d/%d never fired", i, total)
		}
		if !errors.Is(err, vfs.ErrCrashed) {
			t.Fatalf("crash point %d: drive died of %v, want ErrCrashed", i, err)
		}
		m.Restart()

		res, rerr := driveDynamicTorture(t, items, m, false, func(r *DynamicRun, rec *Recovery) {
			checkResumePoint(t, r)
			switch {
			case rec.SnapshotSeq > 0:
				fromSnapshot++
			case r.Engine().Stats().Items > 0:
				fromOpLog++
			}
		})
		if rerr != nil {
			if !tortureCrashOK(rerr) {
				t.Fatalf("crash point %d/%d (mode %s): resume failed: %v", i, total, vfs.CrashMode(i%3), rerr)
			}
			if logged, err := readOpLog(m, filepath.Join("tenant", opsFile), "dyn"); err == nil && logged.List.Len() > 0 {
				t.Fatalf("crash point %d: op log holds %d items but recovery found no run: %v", i, logged.List.Len(), rerr)
			}
			// Crash predates any durable admission: fresh start is honest.
			if res, rerr = driveDynamicTorture(t, items, m, true, nil); rerr != nil {
				t.Fatalf("crash point %d: fresh restart failed: %v", i, rerr)
			}
			fallbacks++
		} else {
			recovered++
		}
		if got := resultJSON(t, res); got != want {
			t.Fatalf("crash point %d/%d (mode %s): result diverged\n got %s\nwant %s",
				i, total, vfs.CrashMode(i%3), got, want)
		}
	}
	if recovered == 0 {
		t.Fatalf("all %d crash points fell back to fresh runs", total)
	}
	if fromSnapshot == 0 || fromOpLog == 0 {
		t.Fatalf("%d crash points restored a snapshot and %d rebuilt from a non-empty op log alone; the sweep needs both",
			fromSnapshot, fromOpLog)
	}
	t.Logf("swept %d crash points: %d recovered (%d from a snapshot, %d from the op log alone), %d legitimate fresh restarts",
		total, recovered, fromSnapshot, fromOpLog, fallbacks)
}

// TestCompactionBoundsWALSize proves the point of compaction: over many
// snapshot intervals, a compacting session's WAL stays bounded by the
// interval while the uncompacted twin grows with the run — and both reach the
// same result.
func TestCompactionBoundsWALSize(t *testing.T) {
	l := testList(t, 80)
	const every = 8

	run := func(compact bool) (string, int64, IOStats) {
		m := vfs.NewMem()
		e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"),
			Config{Dir: "run", Every: every, SyncEvery: 1, FS: m, Compact: compact})
		if err != nil {
			e.Close()
			t.Fatalf("Begin: %v", err)
		}
		maxWAL := s.WALSize()
		for {
			_, ok, err := s.Step()
			if err != nil {
				t.Fatalf("Step: %v", err)
			}
			if sz := s.WALSize(); sz > maxWAL {
				maxWAL = sz
			}
			if !ok {
				break
			}
		}
		st := s.TakeIOStats()
		res, err := s.Finish()
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		return resultJSON(t, res), maxWAL, st
	}

	plainRes, plainMax, _ := run(false)
	compactRes, compactMax, st := run(true)
	if plainRes != compactRes {
		t.Fatalf("compaction changed the result\nplain   %s\ncompact %s", plainRes, compactRes)
	}
	if st.Compactions < 10 {
		t.Fatalf("only %d compactions over the run; want >= 10 snapshot intervals exercised", st.Compactions)
	}
	if st.ReclaimedBytes <= 0 {
		t.Fatalf("compaction reclaimed %d bytes", st.ReclaimedBytes)
	}
	if compactMax*3 > plainMax {
		t.Fatalf("compacted WAL peak %d is not < 1/3 of uncompacted peak %d", compactMax, plainMax)
	}
}

// TestRecoverCompactedWALRefusesScratch pins the one fallback compaction
// forbids: with the WAL prefix gone, a from-scratch replay cannot exist, so
// recovery with every snapshot deleted must fail loudly instead of silently
// rebuilding a different history.
func TestRecoverCompactedWALRefusesScratch(t *testing.T) {
	l := testList(t, 80)
	m := vfs.NewMem()
	e, err := core.NewEngine(l, newTestPolicy(t, "MoveToFront"), faultOpts()...)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	cfg := staticTortureCfg(m)
	s, err := Begin(e, NewRunMeta(l, "MoveToFront", 1, "test"), cfg)
	if err != nil {
		e.Close()
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 40; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if s.walBase == 0 {
		t.Fatalf("run never compacted; the test is vacuous")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snaps, err := listSnapshots(m, cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range snaps {
		if err := m.Remove(filepath.Join(cfg.Dir, sf.name)); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Recover(l, cfg, faultOpts()...)
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "compacted") {
		t.Fatalf("recovery of a compacted WAL without snapshots returned %v; want a compaction corruption error", err)
	}
}

// TestCompactOpLogCollapsesAdvances checks the op-log rewrite directly: item
// records and the recovered state (list, watermark, max advance) are
// untouched, advance spam collapses to one record, and the returned writer
// continues the log.
func TestCompactOpLogCollapsesAdvances(t *testing.T) {
	m := vfs.NewMem()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	path := "d/ops.dvbp"
	meta := dynTortureMeta()
	w, err := createOpLog(m, path, meta)
	if err != nil {
		t.Fatalf("createOpLog: %v", err)
	}
	items := dynItems(12)
	for i, it := range items {
		if err := w.Append(appendItemOp(nil, it.Arrival, it.Departure, it.Size)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if err := w.Append(appendAdvanceOp(nil, it.Arrival)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := readOpLog(m, path, "dyn")
	if err != nil {
		t.Fatal(err)
	}

	w2, reclaimed, err := compactOpLog(m, path, "dyn")
	if err != nil {
		t.Fatalf("compactOpLog: %v", err)
	}
	if w2 == nil || reclaimed <= 0 {
		t.Fatalf("compaction was a no-op (writer %v, reclaimed %d) on a log with 6 advances", w2, reclaimed)
	}
	after, err := readOpLog(m, path, "dyn")
	if err != nil {
		t.Fatalf("rewritten log unreadable: %v", err)
	}
	if after.List.Len() != before.List.Len() {
		t.Fatalf("compaction changed the item count: %d != %d", after.List.Len(), before.List.Len())
	}
	for i, b := range before.List.Items {
		a := after.List.Items[i]
		if a.Arrival != b.Arrival || a.Departure != b.Departure || !a.Size.Equal(b.Size, 0) {
			t.Fatalf("compaction changed item %d: %+v != %+v", i, a, b)
		}
	}
	if after.Watermark != before.Watermark || after.MaxAdvance != before.MaxAdvance {
		t.Fatalf("compaction moved the watermark: %g/%g != %g/%g",
			after.Watermark, after.MaxAdvance, before.Watermark, before.MaxAdvance)
	}
	advances := 0
	for _, op := range after.Ops {
		if op.Kind == opAdvance {
			advances++
		}
	}
	if advances != 1 {
		t.Fatalf("rewritten log holds %d advances, want 1", advances)
	}

	// The returned writer continues the log.
	if err := w2.Append(appendItemOp(nil, after.Watermark+1, after.Watermark+2, items[0].Size)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := readOpLog(m, path, "dyn")
	if err != nil {
		t.Fatal(err)
	}
	if final.List.Len() != before.List.Len()+1 {
		t.Fatalf("append after compaction lost: %d items", final.List.Len())
	}

	// A log with a single advance has nothing to collapse.
	if w3, _, err := compactOpLog(m, path, "dyn"); err != nil || w3 != nil {
		t.Fatalf("second compaction: writer %v err %v, want no-op", w3, err)
	}
}

// TestWriterRollbackAndRetry exercises the writer's two recovery paths after
// a failed barrier: retry the sync (the buffered records must survive the
// failure, partial flush included), and roll back (the file must truncate to
// its last durable size even when a partial flush already landed).
func TestWriterRollbackAndRetry(t *testing.T) {
	mem := vfs.NewMem()
	if err := mem.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	inj := vfs.NewInjector(mem)
	w, err := Create(inj, "d/f.dvbp", KindWAL, SyncManual)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}

	// Retry path: the write lands, the fsync fails, the retry syncs the same
	// bytes without duplicating them.
	if err := w.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	inj.SetSticky(syscall.EIO, vfs.FaultSync)
	if err := w.Sync(); err == nil {
		t.Fatalf("sync succeeded under sticky EIO")
	} else if Classify(err) != ClassTransient {
		t.Fatalf("sync error class %s, want transient", Classify(err))
	}
	inj.ClearSticky()
	if err := w.Sync(); err != nil {
		t.Fatalf("retried sync: %v", err)
	}
	fd, err := ReadFile(inj, "d/f.dvbp")
	if err != nil || len(fd.Records) != 1 || string(fd.Records[0]) != "one" {
		t.Fatalf("after retry: records %q err %v", fd.Records, err)
	}

	// Rollback path: a partial flush (write ok, fsync refused) is truncated
	// away and the writer is back at its durable size.
	if err := w.Append([]byte("two")); err != nil {
		t.Fatal(err)
	}
	inj.SetSticky(syscall.ENOSPC, vfs.FaultSync)
	if err := w.Sync(); Classify(err) != ClassDiskFull {
		t.Fatalf("sync error class %s, want disk_full", Classify(err))
	}
	inj.ClearSticky()
	if err := w.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if w.Size() != w.Synced() {
		t.Fatalf("rollback left size %d != synced %d", w.Size(), w.Synced())
	}
	if err := w.Append([]byte("three")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fd, err = ReadFile(inj, "d/f.dvbp")
	if err != nil || len(fd.Records) != 2 {
		t.Fatalf("after rollback: %d records err %v", len(fd.Records), err)
	}
	if string(fd.Records[0]) != "one" || string(fd.Records[1]) != "three" {
		t.Fatalf("rollback kept the wrong records: %q", fd.Records)
	}
	if fd.Torn != nil {
		t.Fatalf("rollback left a torn tail: %v", fd.Torn)
	}
}

// TestDynamicRunRollbackRestoresWatermark pins barrier 1's all-or-nothing
// rollback: a batch whose op-log sync the disk refuses leaves no trace. The
// watermark returns to its last durable value, so the refused arrivals are
// admissible again, and after the disk heals and the run is reopened, the
// op log holds exactly the committed items.
func TestDynamicRunRollbackRestoresWatermark(t *testing.T) {
	inj := vfs.NewInjector(vfs.NewMem())
	cfg := Config{Dir: "tenant", Label: "dyn", FS: inj}
	r, err := CreateDynamic(dynTortureMeta(), cfg)
	if err != nil {
		t.Fatalf("CreateDynamic: %v", err)
	}
	items := dynItems(4) // arrivals 0, 0, 0, 1
	var st IOStats
	if err := commitItem(t, r, items[0], false, &st); err != nil {
		t.Fatalf("commit: %v", err)
	}

	// A batch of an item at arrival 1 and an advance to 5; the disk refuses
	// barrier 1 after the write landed, so the rollback must truncate.
	if err := r.AdmitItem(items[3].Arrival, items[3].Departure, items[3].Size); err != nil {
		t.Fatal(err)
	}
	if err := r.AdmitAdvance(5); err != nil {
		t.Fatal(err)
	}
	inj.SetSticky(syscall.ENOSPC, vfs.FaultSync)
	if err := r.SyncOps(); Classify(err) != ClassDiskFull {
		t.Fatalf("barrier 1 on a full disk: %v, want disk_full", err)
	}
	if err := r.RollbackOps(); err != nil {
		t.Fatalf("RollbackOps: %v", err)
	}
	inj.ClearSticky()
	if wm := r.Watermark(); wm != 0 {
		t.Fatalf("watermark %g after rollback, want 0", wm)
	}
	for _, it := range items[1:3] {
		if err := commitItem(t, r, it, false, &st); err != nil {
			t.Fatalf("commit after rollback: %v", err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, _, err = OpenDynamic(dynTortureMeta(), cfg)
	if err != nil {
		t.Fatalf("OpenDynamic: %v", err)
	}
	defer r.Close()
	if got := r.Engine().Stats().Items; got != 3 || r.Watermark() != 0 {
		t.Fatalf("reopened run holds %d items at watermark %g, want 3 at 0", got, r.Watermark())
	}
}

// TestCreateSyncsParentDir pins the fix for the unsynced-directory-entry bug:
// a freshly created WAL must survive a power loss immediately after Create
// returns, which requires the parent directory fsync.
func TestCreateSyncsParentDir(t *testing.T) {
	m := vfs.NewMem()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := Create(m, "d/wal.dvbp", KindWAL, 0)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.CrashNow(vfs.CrashLost)
	m.Restart()
	fd, err := ReadFile(m, "d/wal.dvbp")
	if err != nil {
		t.Fatalf("the created file did not survive a crash right after Create: %v", err)
	}
	if fd.Kind != KindWAL || len(fd.Records) != 0 || fd.Torn != nil {
		t.Fatalf("surviving file is damaged: kind %d, %d records, torn %v", fd.Kind, len(fd.Records), fd.Torn)
	}
	w.Discard()
}

// TestRecoverSweepsOrphanTempFiles: a crash between CreateTemp and Rename
// leaves ".tmp-" orphans; Recover must delete them and say how many.
func TestRecoverSweepsOrphanTempFiles(t *testing.T) {
	l := testList(t, 40)
	dir := t.TempDir()
	referenceRun(t, l, "MoveToFront", dir, 16)
	for _, name := range []string{"snap-0000000000000016.dvbp.tmp-1", "wal.dvbp.tmp-9"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Recover(l, Config{Dir: dir, Every: 16}, faultOpts()...)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Session.Close()
	if rec.SweptTemp != 2 {
		t.Fatalf("swept %d temp orphans, want 2", rec.SweptTemp)
	}
	entries, err := vfs.OS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("orphan %s survived recovery", e.Name())
		}
	}
}

// TestErrorClassification pins the taxonomy the server's fail/degrade/retry
// state machine dispatches on (satellite of DESIGN.md §15).
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrorClass
	}{
		{"nil", nil, ClassNone},
		{"corruption", corrupt("bad record"), ClassCorruption},
		{"corruption-wrapping-errno", &CorruptionError{Reason: "x", Err: syscall.ENOSPC}, ClassCorruption},
		{"corruption-wrapped", fmt.Errorf("recovering: %w", corrupt("bad")), ClassCorruption},
		{"enospc", ioErr("write", "f", syscall.ENOSPC), ClassDiskFull},
		{"edquot", ioErr("sync", "f", syscall.EDQUOT), ClassDiskFull},
		{"eio", ioErr("sync", "f", syscall.EIO), ClassTransient},
		{"open-error", ioErr("open", "f", errors.New("weird")), ClassTransient},
		{"simulated-crash", ioErr("write", "f", vfs.ErrCrashed), ClassFatal},
		{"discarded", errDiscarded, ClassFatal},
		{"naked", errors.New("who knows"), ClassFatal},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
		wantRec := tc.want == ClassDiskFull || tc.want == ClassTransient
		if got := Recoverable(tc.err); got != wantRec {
			t.Errorf("%s: Recoverable = %v, want %v", tc.name, got, wantRec)
		}
	}
}
