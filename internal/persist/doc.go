// Package persist is the crash-consistent checkpoint/restore layer for the
// packing engine: a write-ahead log of committed engine events plus periodic
// full-state snapshots, both stored in a versioned, CRC-checksummed,
// length-prefixed record format.
//
// # Recovery model
//
// The design leans on the engine's determinism contract: the event stream is
// a pure function of (instance, policy, options), so recovery does not need
// to re-apply logged events as mutations. Instead it restores the newest
// valid snapshot and re-steps the engine. In a static run the WAL tells
// recovery how far the run had progressed, and every regenerated event is
// checked bit for bit against it; a dynamic run re-steps to its op log's
// watermark.
//
// Derived structures are deliberately absent from the on-disk format. In
// particular the engine's indexed bin store (internal/binindex) is rebuilt
// from the snapshot's open-bin set on restore; because the store's shape is
// a pure function of its contents (DESIGN.md §11), the rebuilt index is
// structurally identical to the one the crashed process held, down to the
// fit-check counts it produces — which is what lets a restored run emit
// byte-identical metrics, not just byte-identical placements.
//
// # Corruption handling
//
// Corruption never panics. Torn or bit-flipped tails are truncated at the
// first bad checksum, damaged snapshots are skipped in favour of older ones
// (or a from-scratch replay), and every tolerated defect is surfaced as a
// structured *CorruptionError in the recovery report.
//
// # Structure
//
//   - format.go, file.go: the record container — magic, version, FileKind,
//     per-record length prefix + CRC32C, fsync policy (Writer, ReadFile).
//   - meta.go: RunMeta identity block (workload hash, policy, seed, fault
//     plan) that guards against restoring a checkpoint into the wrong run.
//   - wal.go: event-record codec (AppendEventRecord, DecodeEventRecord).
//   - snapcodec.go: the engine snapshot codec (EncodeSnapshot,
//     DecodeSnapshot).
//   - session.go: Session/Begin — the producer side: append events, cut
//     snapshots every N events, rotate files.
//   - recover.go: Recover — the consumer side described above.
//   - oplog.go, dynamic.go: a dynamic run's op log, and DynamicRun, the one
//     owner of its write path (DESIGN.md §12) that server tenants run and the
//     dynamic crash-point sweep drives: one op-log fsync per group commit,
//     and no WAL. The op log plus the newest snapshot are the run's whole
//     durable state; OpenDynamic restores the snapshot and re-steps the
//     engine through the rest of the op log, so an acknowledged placement
//     rests on the op log and the engine's determinism, which
//     testdata/golden pins across versions.
//
// The kill-and-recover torture tests (torture_test.go and cmd/dvbpchaos)
// exercise the full matrix: process kills at arbitrary event indices, WAL
// truncations, snapshot deletions, and random bit flips.
package persist
