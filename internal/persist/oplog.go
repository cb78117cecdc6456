package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// The operation log (KindOpLog) is a dynamic run's durable input stream and
// its only log: one record per admitted client operation, appended and
// fsynced BEFORE the engine steps on the operation. That ordering is the
// multi-tenant recovery invariant — every snapshot covers only items a
// durable op log already carries, so restoring it over the item list rebuilt
// from the op log and re-stepping to the watermark always lines up.
//
// Record payload layouts (after the shared meta record):
//
//	item    : 'i' | arrival float64 LE | departure float64 LE | size d×float64 LE
//	advance : 'a' | to float64 LE
//
// Item IDs are implicit: the k-th item record is item k, matching the IDs
// core.Engine.AppendArrival assigns.

// opKind labels one op-log record.
type opKind byte

// The op-log record kinds.
const (
	// opItem admits one item: it arrives at Arrival, departs at Departure,
	// and its ID is its zero-based position among the log's item records.
	opItem opKind = 'i'
	// opAdvance moves the run's logical clock forward to To, committing
	// every pending engine event at or before it (departures included).
	opAdvance opKind = 'a'
)

// opRecord is one decoded op-log record.
type opRecord struct {
	Kind               opKind
	Arrival, Departure float64       // opItem
	Size               vector.Vector // opItem
	To                 float64       // opAdvance
}

// appendItemOp serialises an item-admission record onto dst.
func appendItemOp(dst []byte, arrival, departure float64, size vector.Vector) []byte {
	dst = append(dst, byte(opItem))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(arrival))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(departure))
	for _, s := range size {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// appendAdvanceOp serialises a clock-advance record onto dst.
func appendAdvanceOp(dst []byte, to float64) []byte {
	dst = append(dst, byte(opAdvance))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(to))
}

// decodeOp is the inverse of the append*Op encoders for a d-dimensional run.
// Malformed payloads of any shape return a *CorruptionError, never panic.
func decodeOp(payload []byte, d int) (opRecord, error) {
	var op opRecord
	if len(payload) < 1 {
		return op, corrupt("empty op record")
	}
	op.Kind = opKind(payload[0])
	p := payload[1:]
	switch op.Kind {
	case opItem:
		if len(p) != (2+d)*8 {
			return op, corrupt("item op has %d payload bytes, want %d for d=%d", len(p), (2+d)*8, d)
		}
		op.Arrival = math.Float64frombits(binary.LittleEndian.Uint64(p))
		op.Departure = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
		op.Size = vector.New(d)
		for i := 0; i < d; i++ {
			op.Size[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[16+8*i:]))
		}
	case opAdvance:
		if len(p) != 8 {
			return op, corrupt("advance op has %d payload bytes, want 8", len(p))
		}
		op.To = math.Float64frombits(binary.LittleEndian.Uint64(p))
		if math.IsNaN(op.To) {
			return op, corrupt("advance op to NaN")
		}
	default:
		return op, corrupt("unknown op kind %#x", payload[0])
	}
	return op, nil
}

// opLogData is a recovered operation log.
type opLogData struct {
	Meta RunMeta    // the run's identity (the log's first record)
	List *item.List // the items in log order: the list the engine is rebuilt over
	Ops  []opRecord // the full decoded operation stream
	// Watermark is the run's admission floor, the largest arrival or advance
	// target, which recovery re-runs the clock to so every acknowledged event
	// is committed again; MaxAdvance is the largest advance target (0 when
	// none).
	Watermark, MaxAdvance float64
	// ValidSize is the byte prefix covered by intact records; Torn describes
	// the discarded tail, nil when the file is clean.
	ValidSize int64
	Torn      *CorruptionError
}

// readOpLog reads and validates an operation log. Like WAL recovery, a torn
// or checksum-damaged tail only truncates — the intact prefix is returned and
// the defect reported in Torn — while a damaged header or meta record is
// fatal. label names the run in every reported corruption. fsys nil means the
// real filesystem.
func readOpLog(fsys vfs.FS, path, label string) (*opLogData, error) {
	fd, err := ReadFile(fsys, path)
	if err != nil {
		if ce, ok := err.(*CorruptionError); ok {
			ce.Run = label
		}
		return nil, err
	}
	if fd.Kind != KindOpLog {
		return nil, &CorruptionError{Run: label, Path: path, Offset: -1, Record: -1, Reason: fmt.Sprintf("expected an op log, found kind %d", fd.Kind)}
	}
	if fd.Torn != nil {
		fd.Torn.Run = label
	}
	if len(fd.Records) == 0 {
		return nil, &CorruptionError{Run: label, Path: path, Offset: headerSize, Record: 0, Reason: "no run meta record survived"}
	}
	// at places a corruption at record i of this file.
	at := func(err error, i int) *CorruptionError {
		ce := err.(*CorruptionError)
		ce.Run, ce.Path, ce.Offset, ce.Record = label, path, fd.Offsets[i], i
		return ce
	}
	meta, err := decodeMeta(fd.Records[0])
	if err != nil {
		return nil, at(err, 0)
	}
	if !meta.Dynamic {
		return nil, at(corrupt("op log belongs to a non-dynamic run"), 0)
	}
	out := &opLogData{Meta: meta, List: item.NewList(meta.Dim), ValidSize: fd.ValidSize, Torn: fd.Torn}
	for i := 1; i < len(fd.Records); i++ {
		op, err := decodeOp(fd.Records[i], meta.Dim)
		if err != nil {
			// An undecodable record truncates the log there, like a torn WAL
			// tail: everything after it is unordered against the lost op.
			out.Torn, out.ValidSize = at(err, i), fd.Offsets[i]
			break
		}
		switch op.Kind {
		case opItem:
			id := out.List.Add(op.Arrival, op.Departure, op.Size)
			if err := out.List.Items[id].Validate(meta.Dim); err != nil {
				return nil, at(corrupt("invalid item op: %v", err), i)
			}
			if op.Arrival < out.Watermark {
				return nil, at(corrupt("item op at arrival %g regresses below watermark %g", op.Arrival, out.Watermark), i)
			}
			out.Watermark = op.Arrival
		case opAdvance:
			if op.To < out.Watermark {
				return nil, at(corrupt("advance op to %g regresses below watermark %g", op.To, out.Watermark), i)
			}
			// Advances never regress, so the latest is the largest.
			out.Watermark, out.MaxAdvance = op.To, op.To
		}
		out.Ops = append(out.Ops, op)
	}
	return out, nil
}

// createOpLog creates (truncating) an op log for the given dynamic run with
// its meta record durable. The writer syncs only on Sync and Close
// (SyncManual), so a failed group-commit barrier can roll a whole batch back.
func createOpLog(fsys vfs.FS, path string, meta RunMeta) (*Writer, error) {
	if !meta.Dynamic {
		return nil, fmt.Errorf("persist: op logs record dynamic runs; meta is static")
	}
	return createLog(fsys, path, KindOpLog, meta, SyncManual)
}
