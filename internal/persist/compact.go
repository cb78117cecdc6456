package persist

import (
	"encoding/binary"
	"path/filepath"

	"dvbp/internal/vfs"
)

// WAL compaction (DESIGN.md §15). Once a snapshot at event k is durable, the
// WAL's prefix 1..k is dead weight: recovery restores the snapshot and
// replays only k+1..n. Compact rewrites the WAL as
//
//	header | meta | marker(k) | events k+1..n
//
// via the usual write-temp + rename + dir-sync dance, so a power loss at any
// point leaves either the old WAL or the new one — both consistent with the
// durable snapshot. The marker record carries the truncation base so replay
// numbering stays verifiable: the j-th surviving event must claim sequence
// k+j. Its first byte sits outside the event-class range, so no event record
// can be mistaken for it (and vice versa — DecodeEventRecord rejects it).
//
// Ordering rules, in the order they matter:
//
//  1. snapshot at k durable (Checkpoint: WAL synced first, snapshot renamed
//     + dir-synced) BEFORE the WAL prefix may go;
//  2. the new WAL durable under the final name BEFORE the old snapshots
//     below k may go;
//  3. pruning old snapshots is garbage collection, safe to lose — a crash
//     between 2 and 3 leaves harmless extra files the next compaction sweeps.

// compactMarkerByte tags the compaction marker record. Event records start
// with an EventClass (small integers well below this); DecodeEventRecord
// rejects the byte, and decodeCompactMarker rejects event records.
const compactMarkerByte = 0xC7

// encodeCompactMarker serialises a marker claiming the WAL was truncated at
// base (events 1..base removed; a snapshot at base or later must exist).
func encodeCompactMarker(base int64) []byte {
	dst := []byte{compactMarkerByte}
	return binary.AppendVarint(dst, base)
}

// isCompactMarker reports whether payload is a marker record.
func isCompactMarker(payload []byte) bool {
	return len(payload) > 0 && payload[0] == compactMarkerByte
}

// decodeCompactMarker is the inverse of encodeCompactMarker; malformed input
// returns a *CorruptionError.
func decodeCompactMarker(payload []byte) (int64, error) {
	if !isCompactMarker(payload) {
		return 0, corrupt("not a compaction marker")
	}
	base, n, ok := canonVarint(payload[1:])
	if !ok || n != len(payload)-1 {
		return 0, corrupt("malformed compaction marker")
	}
	if base < 1 {
		return 0, corrupt("compaction marker claims base %d < 1", base)
	}
	return base, nil
}

// Compact truncates the WAL prefix covered by the session's newest durable
// snapshot and prunes snapshots below the new base. A no-op (nil) when no
// snapshot is ahead of the current base. On-disk WAL size afterwards is
// O(events since that snapshot), so a run that checkpoints every E events
// keeps its directory at O(E) regardless of run length.
//
// Failure atomicity: every error return leaves the old WAL intact and the
// session writing to it — except a failed reopen after the atomic swap,
// which discards the writer and returns a fatal error (the session cannot
// continue on a file it cannot open; recovery handles it like any crash).
func (s *Session) Compact() error {
	if s.lastSnap <= s.walBase {
		return nil // nothing durable to drop
	}
	// Everything must be durable before the only copy of the suffix moves.
	if err := s.wal.Sync(); err != nil {
		return err
	}
	path := filepath.Join(s.cfg.Dir, walFile)
	fd, err := ReadFile(s.fsys, path)
	if err != nil {
		return err
	}
	if fd.Torn != nil {
		return fd.Torn // a just-synced WAL must read back clean
	}
	if len(fd.Records) == 0 {
		return corrupt("compacting %s: no records", path)
	}
	content := appendHeader(nil, KindWAL)
	content = appendRecord(content, fd.Records[0]) // meta, verbatim
	content = appendRecord(content, encodeCompactMarker(s.lastSnap))
	evs := fd.Records[1:]
	if len(evs) > 0 && isCompactMarker(evs[0]) {
		evs = evs[1:]
	}
	skip := s.lastSnap - s.walBase
	if skip > int64(len(evs)) {
		return corrupt("compacting %s: snapshot at %d but only %d events past base %d", path, s.lastSnap, len(evs), s.walBase)
	}
	for _, r := range evs[skip:] {
		content = appendRecord(content, r)
	}
	oldSize := fd.Size
	if err := WriteFileAtomic(s.fsys, path, content); err != nil {
		return err
	}
	// The old descriptor now points at an unlinked inode; swap writers.
	s.wal.Discard()
	w, err := openAppend(s.fsys, path, int64(len(content)), s.cfg.SyncEvery)
	if err != nil {
		// The new WAL is durable and consistent but this session lost its
		// handle; only recovery can continue. Poison the session.
		s.wal = &Writer{discarded: true}
		return &CorruptionError{Run: s.cfg.Label, Path: path, Offset: -1, Record: -1,
			Reason: "compaction swapped the WAL but could not reopen it", Err: err}
	}
	s.wal = w
	s.walBase = s.lastSnap
	s.stats.Compactions++
	s.stats.ReclaimedBytes += oldSize - int64(len(content))

	// Garbage-collect snapshots that predate the base: recovery can no
	// longer use them (the events to replay past them are gone). Failures
	// here are cosmetic; the next compaction retries.
	reclaimed, _ := pruneSnapshots(s.fsys, s.cfg.Dir, s.walBase)
	s.stats.ReclaimedBytes += reclaimed
	return nil
}

// pruneSnapshots removes the snapshots in dir below event seq below, oldest
// first, up to the first failed removal, and returns the bytes reclaimed.
func pruneSnapshots(fsys vfs.FS, dir string, below int64) (int64, error) {
	snaps, err := listSnapshots(fsys, dir)
	var reclaimed int64
	for i := 0; err == nil && i < len(snaps) && snaps[i].seq < below; i++ {
		p := filepath.Join(dir, snaps[i].name)
		info, serr := fsys.Stat(p)
		if err = fsys.Remove(p); err != nil {
			err = ioErr("remove", snaps[i].name, err)
		} else if serr == nil {
			reclaimed += info.Size()
		}
	}
	return reclaimed, err
}

// compactOpLog atomically rewrites a clean, fully-synced op log keeping every
// item record and only the last advance, which (advances never regress)
// targets MaxAdvance after exactly the items admitted before it: the rebuilt
// item list, watermark and MaxAdvance are unchanged. It returns an append
// writer at the new tail and the bytes reclaimed, or (nil, 0, nil) when
// there are fewer than two advances to collapse.
func compactOpLog(fsys vfs.FS, path, label string) (*Writer, int64, error) {
	fsys = vfs.OrOS(fsys)
	logged, err := readOpLog(fsys, path, label)
	if err != nil {
		return nil, 0, err
	}
	if logged.Torn != nil {
		return nil, 0, logged.Torn // only compact logs with no torn tail
	}
	advances, last := 0, -1
	for i, op := range logged.Ops {
		if op.Kind == opAdvance {
			advances, last = advances+1, i
		}
	}
	if advances <= 1 {
		return nil, 0, nil
	}
	content := appendHeader(nil, KindOpLog)
	content = appendRecord(content, encodeMeta(logged.Meta))
	var scratch []byte
	for i, op := range logged.Ops {
		switch {
		case op.Kind == opItem:
			scratch = appendItemOp(scratch[:0], op.Arrival, op.Departure, op.Size)
		case i == last:
			scratch = appendAdvanceOp(scratch[:0], op.To)
		default:
			continue
		}
		content = appendRecord(content, scratch)
	}
	if err := WriteFileAtomic(fsys, path, content); err != nil {
		return nil, 0, err
	}
	w, err := openAppend(fsys, path, int64(len(content)), SyncManual)
	if err != nil {
		return nil, 0, &CorruptionError{Run: label, Path: path, Offset: -1, Record: -1,
			Reason: "compaction swapped the op log but could not reopen it", Err: err}
	}
	return w, logged.ValidSize - int64(len(content)), nil
}
