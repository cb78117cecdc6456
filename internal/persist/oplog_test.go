package persist

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/vector"
)

// --- op codec ---

func TestOpLogCodecRoundTrip(t *testing.T) {
	d := 3
	ops := []opRecord{
		{Kind: opItem, Arrival: 0, Departure: 4.5, Size: vector.Vector{0.25, 0.5, 0.125}},
		{Kind: opAdvance, To: 2},
		{Kind: opItem, Arrival: 2, Departure: 3, Size: vector.Vector{1, 0, 0.75}},
		{Kind: opAdvance, To: 10},
	}
	for i, want := range ops {
		var buf []byte
		if want.Kind == opItem {
			buf = appendItemOp(nil, want.Arrival, want.Departure, want.Size)
		} else {
			buf = appendAdvanceOp(nil, want.To)
		}
		got, err := decodeOp(buf, d)
		if err != nil {
			t.Fatalf("op %d: decode: %v", i, err)
		}
		if got.Kind != want.Kind || got.Arrival != want.Arrival || got.Departure != want.Departure || got.To != want.To {
			t.Fatalf("op %d: got %+v want %+v", i, got, want)
		}
		if want.Kind == opItem && !got.Size.Equal(want.Size, 0) {
			t.Fatalf("op %d: size %v want %v", i, got.Size, want.Size)
		}
	}
}

func TestOpLogCodecRejectsGarbage(t *testing.T) {
	d := 2
	cases := map[string][]byte{
		"empty":            {},
		"unknown kind":     {0x7f, 0, 0, 0, 0, 0, 0, 0, 0},
		"short item":       appendItemOp(nil, 1, 2, vector.Vector{0.5})[:10],
		"wrong dim":        appendItemOp(nil, 1, 2, vector.Vector{0.5, 0.5, 0.5}),
		"long advance":     append(appendAdvanceOp(nil, 3), 0),
		"short advance":    appendAdvanceOp(nil, 3)[:5],
		"trailing on item": append(appendItemOp(nil, 1, 2, vector.Vector{0.5, 0.5}), 0xAA),
	}
	for name, payload := range cases {
		if _, err := decodeOp(payload, d); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if _, ok := err.(*CorruptionError); !ok {
			t.Errorf("%s: error %T, want *CorruptionError", name, err)
		}
	}
	nan := appendAdvanceOp(nil, 0)
	for i := 1; i < 9; i++ {
		nan[i] = 0xff
	}
	if _, err := decodeOp(nan, d); err == nil {
		t.Errorf("NaN advance decoded without error")
	}
}

// --- op log files ---

func TestOpLogFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.dvbp")
	meta := NewDynamicRunMeta(2, "firstfit", 7, "")

	w, err := createOpLog(nil, path, meta)
	if err != nil {
		t.Fatalf("createOpLog: %v", err)
	}
	if err := w.Append(appendItemOp(nil, 0, 5, vector.Vector{0.5, 0.25})); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Append(appendItemOp(nil, 1, 2, vector.Vector{0.125, 0.5})); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Append(appendAdvanceOp(nil, 3)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	data, err := readOpLog(nil, path, "tenant-a")
	if err != nil {
		t.Fatalf("readOpLog: %v", err)
	}
	if data.Torn != nil {
		t.Fatalf("unexpected torn tail: %v", data.Torn)
	}
	if !data.Meta.equal(meta) {
		t.Fatalf("meta %+v, want %+v", data.Meta, meta)
	}
	if len(data.Ops) != 3 || data.List.Len() != 2 {
		t.Fatalf("got %d ops, %d items; want 3, 2", len(data.Ops), data.List.Len())
	}
	if data.List.Items[1].ID != 1 || data.List.Items[1].Arrival != 1 {
		t.Fatalf("item 1 rebuilt wrong: %+v", data.List.Items[1])
	}
	if data.Watermark != 3 || data.MaxAdvance != 3 {
		t.Fatalf("watermark=%g maxAdvance=%g, want 3, 3", data.Watermark, data.MaxAdvance)
	}

	// Static meta must be refused at create time and read time.
	if _, err := createOpLog(nil, filepath.Join(dir, "bad.dvbp"), NewRunMeta(testList(t, 5), "firstfit", 1, "")); err == nil {
		t.Fatalf("createOpLog accepted a static run meta")
	}
}

func TestOpLogTornTailTruncatesAndReopens(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ops.dvbp")
	meta := NewDynamicRunMeta(1, "nextfit", 1, "")
	w, err := createOpLog(nil, path, meta)
	if err != nil {
		t.Fatalf("createOpLog: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(appendItemOp(nil, float64(i), float64(i)+1, vector.Vector{0.5})); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Tear the file mid-record, as a crash during an append would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	data, err := readOpLog(nil, path, "tenant-b")
	if err != nil {
		t.Fatalf("readOpLog after tear: %v", err)
	}
	if data.Torn == nil {
		t.Fatalf("torn tail not reported")
	}
	if data.Torn.Run != "tenant-b" {
		t.Fatalf("torn corruption not labeled: %v", data.Torn)
	}
	if data.List.Len() != 3 {
		t.Fatalf("rebuilt %d items after tear, want 3", data.List.Len())
	}

	// Reopen at the valid prefix and continue; the log must read back whole.
	w2, err := openAppend(nil, path, data.ValidSize, SyncManual)
	if err != nil {
		t.Fatalf("openAppend: %v", err)
	}
	if err := w2.Append(appendItemOp(nil, 9, 11, vector.Vector{0.25})); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data2, err := readOpLog(nil, path, "tenant-b")
	if err != nil {
		t.Fatalf("readOpLog after reopen: %v", err)
	}
	if data2.Torn != nil || data2.List.Len() != 4 || data2.Watermark != 9 {
		t.Fatalf("after reopen: torn=%v items=%d watermark=%g", data2.Torn, data2.List.Len(), data2.Watermark)
	}
}

func TestOpLogRejectsSemanticCorruption(t *testing.T) {
	dir := t.TempDir()
	build := func(name string, ops ...[]byte) string {
		path := filepath.Join(dir, name)
		w, err := createOpLog(nil, path, NewDynamicRunMeta(1, "firstfit", 1, ""))
		if err != nil {
			t.Fatalf("createOpLog: %v", err)
		}
		for _, op := range ops {
			if err := w.Append(op); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return path
	}

	cases := map[string]string{
		"regressing arrival": build("regress.dvbp",
			appendItemOp(nil, 5, 6, vector.Vector{0.5}),
			appendItemOp(nil, 4, 6, vector.Vector{0.5})),
		"regressing advance": build("advance.dvbp",
			appendAdvanceOp(nil, 5),
			appendAdvanceOp(nil, 4)),
		"invalid item": build("invalid.dvbp",
			appendItemOp(nil, 2, 1, vector.Vector{0.5})),
	}
	for name, path := range cases {
		_, err := readOpLog(nil, path, "tenant-c")
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		var ce *CorruptionError
		if !errors.As(err, &ce) || ce.Run != "tenant-c" {
			t.Errorf("%s: error %v not a labeled *CorruptionError", name, err)
		}
	}

	// A WAL is not an op log.
	wal := filepath.Join(dir, "wal.dvbp")
	w, err := Create(nil, wal, KindWAL, 1)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.Close()
	if _, err := readOpLog(nil, wal, "tenant-c"); err == nil {
		t.Fatalf("readOpLog accepted a WAL file")
	}
}

// --- corruption labeling across recovery ---

func TestRecoverLabelsCorruptionWithRun(t *testing.T) {
	l := testList(t, 60)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Label: "tenant-a", Every: 20, SyncEvery: 1}
	meta := NewRunMeta(l, "bestfit", 3, "")
	e, err := core.NewEngine(l, newTestPolicy(t, "bestfit"))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	s, err := Begin(e, meta, cfg)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	for i := 0; i < 50; i++ {
		if _, ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip a byte mid-WAL: recovery tolerates the truncation but must name
	// the tenant in the corruption it reports.
	walPath := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	raw[len(raw)-20] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	rec, err := Recover(l, cfg)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer rec.Session.Close()
	if len(rec.Corruptions) == 0 {
		t.Fatalf("no corruption reported for a damaged WAL")
	}
	for _, ce := range rec.Corruptions {
		if ce.Run != "tenant-a" {
			t.Errorf("corruption missing run label: %v", ce)
		}
		if !strings.Contains(ce.Error(), `run "tenant-a"`) {
			t.Errorf("corruption message does not name the run: %v", ce)
		}
	}

	// A fatally damaged WAL header must also carry the label.
	raw[0] ^= 0xff
	if err := os.WriteFile(walPath, raw, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, err = Recover(l, cfg)
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Run != "tenant-a" {
		t.Fatalf("header corruption not labeled: %v", err)
	}
}

// --- dynamic runs (DynamicRun) ---

// commitItem runs one single-request group commit through r, in the order a
// server tenant runs it: admit the item (and, with advance, a clock advance
// to its arrival), the barrier, apply, then TakeIOStats, whose compaction
// count is added to st. Admission itself never touches the disk, so a
// refusal fails the test.
func commitItem(t *testing.T, r *DynamicRun, it item.Item, advance bool, st *IOStats) error {
	t.Helper()
	err := r.AdmitItem(it.Arrival, it.Departure, it.Size)
	if err == nil && advance {
		err = r.AdmitAdvance(it.Arrival)
	}
	if err != nil {
		t.Fatalf("admitting arrival %g: %v", it.Arrival, err)
	}
	if err := r.SyncOps(); err != nil {
		return err
	}
	if _, err := r.Place(it.Arrival, it.Departure, it.Size); err != nil {
		return err
	}
	if advance {
		if _, err := r.Advance(it.Arrival); err != nil {
			return err
		}
	}
	st.Compactions += r.TakeIOStats().Compactions
	return nil
}

// finishDynamic closes r's op log and runs its engine to completion, writing
// nothing more — the end of a test run, which a server tenant never reaches.
func finishDynamic(r *DynamicRun) (*core.Result, error) {
	if err := r.ops.Close(); err != nil {
		r.engine.Close()
		return nil, err
	}
	for {
		_, ok, err := r.engine.Step()
		if err != nil {
			r.engine.Close()
			return nil, err
		}
		if !ok {
			return r.engine.Finish()
		}
	}
}

// dynItems is a deterministic dynamic workload: non-decreasing arrivals with
// simultaneous bursts and varied durations.
func dynItems(n int) []item.Item {
	out := make([]item.Item, n)
	for i := 0; i < n; i++ {
		arr := float64(i / 3)
		out[i] = item.Item{
			Arrival:   arr,
			Departure: arr + 1 + float64((i*7)%5),
			Size:      vector.Vector{0.1 + float64(i%4)*0.2, 0.15 + float64(i%3)*0.25},
		}
	}
	return out
}

func TestDynamicSessionKillRecoverResume(t *testing.T) {
	const n, killAt = 90, 60
	items := dynItems(n)
	meta := NewDynamicRunMeta(2, "firstfit", 11, "")
	var st IOStats
	feed := func(r *DynamicRun, items []item.Item) {
		for _, it := range items {
			if err := commitItem(t, r, it, false, &st); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
	}
	finish := func(r *DynamicRun) string {
		res, err := finishDynamic(r)
		if err != nil {
			t.Fatalf("finish: %v", err)
		}
		return resultJSON(t, res)
	}

	// Uninterrupted reference: same stream, no crash.
	ref, err := CreateDynamic(meta, Config{Dir: t.TempDir(), Every: 25})
	if err != nil {
		t.Fatalf("CreateDynamic: %v", err)
	}
	feed(ref, items)
	want := finish(ref)

	// Interrupted run: feed killAt items, then abandon the run (Close syncs,
	// standing in for the crash survivor state — the crash-point sweeps cover
	// literal torn tails).
	dir := t.TempDir()
	cfg := Config{Dir: dir, Label: "tenant-dyn", Every: 25}
	r, err := CreateDynamic(meta, cfg)
	if err != nil {
		t.Fatalf("CreateDynamic: %v", err)
	}
	feed(r, items[:killAt])
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover: rebuild the list from the op log, restore the newest snapshot
	// over it and re-step to the watermark. The snapshot taken mid-stream
	// covers a strict prefix of the op-log list; recovery must accept it and
	// re-step the rest.
	r, rec, err := OpenDynamic(meta, cfg)
	if err != nil {
		t.Fatalf("OpenDynamic: %v", err)
	}
	if got := r.Engine().Stats().Items; got != killAt {
		t.Fatalf("op log rebuilt %d items, want %d", got, killAt)
	}
	if rec.SnapshotSeq == 0 {
		t.Fatalf("recovery used no snapshot despite checkpoints every 25 events")
	}
	feed(r, items[killAt:])
	if got := finish(r); got != want {
		t.Fatalf("recovered dynamic run diverged from uninterrupted run\ngot:  %s\nwant: %s", got, want)
	}

	// The whole stream must also have made it into the op log.
	final, err := readOpLog(nil, filepath.Join(dir, opsFile), "tenant-dyn")
	if err != nil {
		t.Fatalf("final readOpLog: %v", err)
	}
	if final.List.Len() != n {
		t.Fatalf("final op log holds %d items, want %d", final.List.Len(), n)
	}
}

// TestOpenDynamicIgnoresLeftoverWAL pins that a dynamic run's durable state
// is its op log plus snapshots: a wal.dvbp left in the directory, here one
// that is not even a persist file, plays no part in recovery.
func TestOpenDynamicIgnoresLeftoverWAL(t *testing.T) {
	meta := NewDynamicRunMeta(2, "firstfit", 11, "")
	cfg := Config{Dir: t.TempDir(), Label: "tenant-old", Every: 8}
	r, err := CreateDynamic(meta, cfg)
	if err != nil {
		t.Fatalf("CreateDynamic: %v", err)
	}
	var st IOStats
	for _, it := range dynItems(20) {
		if err := commitItem(t, r, it, false, &st); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	want := placementsOf(t, r.Engine())
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, walFile), []byte("left by an older binary"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, rec, err := OpenDynamic(meta, cfg)
	if err != nil {
		t.Fatalf("OpenDynamic beside a leftover WAL: %v", err)
	}
	defer r.Close()
	if len(rec.Corruptions) != 0 {
		t.Fatalf("recovery reported %v", rec.Corruptions)
	}
	got := placementsOf(t, r.Engine())
	if len(got) != len(want) {
		t.Fatalf("recovered %d placements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placement %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
