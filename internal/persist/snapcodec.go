package persist

import (
	"encoding/binary"
	"math"
	"sort"

	"dvbp/internal/core"
)

// Snapshot payload codec: hand-rolled binary, varint integers, float64s as
// raw bits (bit-exact round-trip — the engine's determinism contract is over
// float bit patterns, so text formats are out). The decoder works over an
// untrusted byte slice: every count is validated against the bytes actually
// remaining before it sizes an allocation, and every failure is a
// *CorruptionError — never a panic. Deeper semantic validation (bin/item
// cross-references, accumulator integrity) happens in core.RestoreEngine.

// snapCodecVersion versions the snapshot payload independently of the file
// framing. Version 2 added the migration section and the Result migration
// counters (DESIGN.md §14); version 3 the time of the last committed event.
const snapCodecVersion = 3

// EncodeSnapshot serialises an engine snapshot.
func EncodeSnapshot(s *core.Snapshot) []byte {
	b := &benc{}
	b.uvarint(snapCodecVersion)
	b.varint(s.EventSeq)
	b.f64(s.LastTime)
	b.varint(int64(s.ArrivalIdx))
	b.varint(int64(s.NextBinID))
	b.varint(int64(s.Served))
	b.varint(s.RetrySeq)
	b.varint(int64(s.Dim))
	b.varint(int64(s.Items))
	b.str(s.PolicyName)
	b.bytes(s.PolicyState)

	b.uvarint(uint64(len(s.Bins)))
	for _, bin := range s.Bins {
		b.varint(int64(bin.ID))
		b.f64(bin.OpenedAt)
		b.varint(int64(bin.Packed))
		b.uvarint(uint64(len(bin.ActiveIDs)))
		for _, id := range bin.ActiveIDs {
			b.varint(int64(id))
		}
		b.uvarint(uint64(len(bin.Acc)))
		for _, acc := range bin.Acc {
			b.bytes(acc)
		}
	}

	b.uvarint(uint64(len(s.Departures)))
	for _, d := range s.Departures {
		b.f64(d.Time)
		b.varint(d.Seq)
		b.varint(int64(d.ItemID))
		b.varint(int64(d.BinID))
	}
	b.uvarint(uint64(len(s.Crashes)))
	for _, c := range s.Crashes {
		b.f64(c.Time)
		b.varint(int64(c.BinID))
	}
	b.uvarint(uint64(len(s.Retries)))
	for _, r := range s.Retries {
		b.f64(r.Time)
		b.varint(r.Seq)
		b.varint(int64(r.ItemID))
		b.varint(int64(r.Attempt))
	}
	b.uvarint(uint64(len(s.WaitQueue)))
	for _, q := range s.WaitQueue {
		b.varint(int64(q.ItemID))
		b.varint(int64(q.Attempt))
		b.f64(q.QueuedAt)
		b.f64(q.Deadline)
	}

	// Attempts in ascending item-ID order so encoded bytes are deterministic.
	b.uvarint(uint64(len(s.Attempts)))
	ids := make([]int, 0, len(s.Attempts))
	for id := range s.Attempts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b.varint(int64(id))
		b.varint(int64(s.Attempts[id]))
	}

	encodeResult(b, s.Result)

	// Migration section, guarded by a presence flag so nil (migration
	// disabled) round-trips distinguishably from the empty state.
	b.bool(s.Migration != nil)
	if m := s.Migration; m != nil {
		b.varint(m.NextPass)
		b.f64(m.PassTime)
		b.uvarint(uint64(len(m.Pending)))
		for _, mv := range m.Pending {
			b.varint(int64(mv.ItemID))
			b.varint(int64(mv.From))
			b.varint(int64(mv.To))
		}
		b.uvarint(uint64(len(m.Redirects)))
		for _, r := range m.Redirects {
			b.varint(r.Seq)
			b.varint(int64(r.BinID))
		}
	}
	return b.buf
}

func encodeResult(b *benc, r *core.Result) {
	b.str(r.Algorithm)
	b.varint(int64(r.Dim))
	b.varint(int64(r.Items))
	b.f64(r.Cost)
	b.varint(int64(r.BinsOpened))
	b.varint(int64(r.MaxConcurrentBins))
	b.f64(r.Span)
	b.f64(r.Mu)
	b.varint(int64(r.Crashes))
	b.varint(int64(r.Evictions))
	b.varint(int64(r.Retries))
	b.varint(int64(r.ItemsLost))
	b.varint(int64(r.Rejected))
	b.varint(int64(r.TimedOut))
	b.varint(int64(r.QueuedPlaced))
	b.f64(r.QueueDelay)
	b.f64(r.LostUsageTime)
	b.varint(int64(r.Migrations))
	b.f64(r.MigrationCost)
	b.varint(int64(r.BinsDrained))

	b.uvarint(uint64(len(r.Placements)))
	for _, p := range r.Placements {
		b.varint(int64(p.ItemID))
		b.varint(int64(p.BinID))
		b.bool(p.Opened)
		b.f64(p.Time)
		b.varint(int64(p.Attempt))
	}
	b.uvarint(uint64(len(r.Bins)))
	for _, u := range r.Bins {
		b.varint(int64(u.BinID))
		b.f64(u.OpenedAt)
		b.f64(u.ClosedAt)
		b.varint(int64(u.Packed))
		b.bool(u.Crashed)
	}
	b.uvarint(uint64(len(r.Outcomes)))
	ids := make([]int, 0, len(r.Outcomes))
	for id := range r.Outcomes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		b.varint(int64(id))
		b.buf = append(b.buf, byte(r.Outcomes[id]))
	}
}

// DecodeSnapshot is the inverse of EncodeSnapshot over untrusted bytes.
func DecodeSnapshot(payload []byte) (*core.Snapshot, error) {
	d := &bdec{buf: payload}
	if v := d.uvarint(); v != snapCodecVersion {
		if d.fail == nil {
			return nil, corrupt("unsupported snapshot codec version %d", v)
		}
		return nil, d.fail
	}
	s := &core.Snapshot{}
	s.EventSeq = d.varint()
	s.LastTime = d.f64()
	s.ArrivalIdx = d.int()
	s.NextBinID = d.int()
	s.Served = d.int()
	s.RetrySeq = d.varint()
	s.Dim = d.int()
	s.Items = d.int()
	s.PolicyName = d.str()
	s.PolicyState = d.bytes()

	// Each element consumes at least minElem bytes, so a count claiming more
	// elements than remaining bytes is rejected before any allocation.
	nBins := d.count(4)
	for i := 0; i < nBins && d.fail == nil; i++ {
		var bin core.BinSnapshot
		bin.ID = d.int()
		bin.OpenedAt = d.f64()
		bin.Packed = d.int()
		nAct := d.count(1)
		for j := 0; j < nAct && d.fail == nil; j++ {
			bin.ActiveIDs = append(bin.ActiveIDs, d.int())
		}
		nAcc := d.count(1)
		for j := 0; j < nAcc && d.fail == nil; j++ {
			bin.Acc = append(bin.Acc, d.bytes())
		}
		s.Bins = append(s.Bins, bin)
	}

	nDep := d.count(11)
	for i := 0; i < nDep && d.fail == nil; i++ {
		s.Departures = append(s.Departures, core.DepartureSnapshot{Time: d.f64(), Seq: d.varint(), ItemID: d.int(), BinID: d.int()})
	}
	nCr := d.count(9)
	for i := 0; i < nCr && d.fail == nil; i++ {
		s.Crashes = append(s.Crashes, core.CrashSnapshot{Time: d.f64(), BinID: d.int()})
	}
	nRe := d.count(11)
	for i := 0; i < nRe && d.fail == nil; i++ {
		s.Retries = append(s.Retries, core.RetrySnapshot{Time: d.f64(), Seq: d.varint(), ItemID: d.int(), Attempt: d.int()})
	}
	nQ := d.count(18)
	for i := 0; i < nQ && d.fail == nil; i++ {
		s.WaitQueue = append(s.WaitQueue, core.QueuedSnapshot{ItemID: d.int(), Attempt: d.int(), QueuedAt: d.f64(), Deadline: d.f64()})
	}
	nAt := d.count(2)
	if nAt > 0 && d.fail == nil {
		s.Attempts = make(map[int]int, nAt)
		prev := 0
		for i := 0; i < nAt && d.fail == nil; i++ {
			id := d.int()
			n := d.int()
			// Strictly ascending item IDs — the order the encoder emits — so
			// the codec stays a bijection (and duplicates are impossible).
			if i > 0 && id <= prev {
				return nil, corrupt("snapshot attempt counts out of item order at item %d", id)
			}
			prev = id
			s.Attempts[id] = n
		}
	}

	s.Result = decodeResult(d)

	if d.bool() {
		m := &core.MigrationSnapshot{}
		m.NextPass = d.varint()
		m.PassTime = d.f64()
		nMv := d.count(3)
		for i := 0; i < nMv && d.fail == nil; i++ {
			m.Pending = append(m.Pending, core.MigrationMove{ItemID: d.int(), From: d.int(), To: d.int()})
		}
		nRd := d.count(2)
		prev := int64(-1)
		for i := 0; i < nRd && d.fail == nil; i++ {
			r := core.RedirectSnapshot{Seq: d.varint(), BinID: d.int()}
			// Strictly ascending Seq — the order the encoder emits — so the
			// codec stays a bijection.
			if r.Seq <= prev {
				d.fatal("migration redirects out of sequence order at %d", r.Seq)
				break
			}
			prev = r.Seq
			m.Redirects = append(m.Redirects, r)
		}
		s.Migration = m
	}
	if d.fail != nil {
		return nil, d.fail
	}
	if len(d.buf) != 0 {
		return nil, corrupt("snapshot has %d trailing bytes", len(d.buf))
	}
	return s, nil
}

func decodeResult(d *bdec) *core.Result {
	r := &core.Result{}
	r.Algorithm = d.str()
	r.Dim = d.int()
	r.Items = d.int()
	r.Cost = d.f64()
	r.BinsOpened = d.int()
	r.MaxConcurrentBins = d.int()
	r.Span = d.f64()
	r.Mu = d.f64()
	r.Crashes = d.int()
	r.Evictions = d.int()
	r.Retries = d.int()
	r.ItemsLost = d.int()
	r.Rejected = d.int()
	r.TimedOut = d.int()
	r.QueuedPlaced = d.int()
	r.QueueDelay = d.f64()
	r.LostUsageTime = d.f64()
	r.Migrations = d.int()
	r.MigrationCost = d.f64()
	r.BinsDrained = d.int()

	nPl := d.count(6)
	for i := 0; i < nPl && d.fail == nil; i++ {
		r.Placements = append(r.Placements, core.Placement{ItemID: d.int(), BinID: d.int(), Opened: d.bool(), Time: d.f64(), Attempt: d.int()})
	}
	nB := d.count(19)
	for i := 0; i < nB && d.fail == nil; i++ {
		r.Bins = append(r.Bins, core.BinUsage{BinID: d.int(), OpenedAt: d.f64(), ClosedAt: d.f64(), Packed: d.int(), Crashed: d.bool()})
	}
	nOut := d.count(2)
	r.Outcomes = make(map[int]core.Outcome, nOut)
	prev := 0
	for i := 0; i < nOut && d.fail == nil; i++ {
		id := d.int()
		o := d.byte()
		if o > byte(core.OutcomeTimedOut) {
			d.fatal("unknown outcome %d for item %d", o, id)
			break
		}
		if i > 0 && id <= prev {
			d.fatal("outcomes out of item order at item %d", id)
			break
		}
		prev = id
		r.Outcomes[id] = core.Outcome(o)
	}
	return r
}

// benc is the append-only snapshot encoder.
type benc struct{ buf []byte }

func (b *benc) uvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }
func (b *benc) varint(v int64)   { b.buf = binary.AppendVarint(b.buf, v) }
func (b *benc) f64(v float64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
}
func (b *benc) bytes(p []byte) {
	b.uvarint(uint64(len(p)))
	b.buf = append(b.buf, p...)
}
func (b *benc) str(s string) { b.bytes([]byte(s)) }
func (b *benc) bool(v bool) {
	if v {
		b.buf = append(b.buf, 1)
	} else {
		b.buf = append(b.buf, 0)
	}
}

// bdec decodes the snapshot format from an untrusted slice. The first
// failure latches into fail and turns every later read into a cheap no-op,
// so call sites can decode whole structures and check fail once.
type bdec struct {
	buf  []byte
	fail *CorruptionError
}

func (d *bdec) fatal(format string, args ...any) {
	if d.fail == nil {
		d.fail = corrupt(format, args...)
	}
}

func (d *bdec) uvarint() uint64 {
	if d.fail != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fatal("truncated varint")
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutUvarint(tmp[:], v) != n {
		d.fatal("non-canonical varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *bdec) varint() int64 {
	if d.fail != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fatal("truncated varint")
		return 0
	}
	var tmp [binary.MaxVarintLen64]byte
	if binary.PutVarint(tmp[:], v) != n {
		d.fatal("non-canonical varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// int decodes a varint that must fit a platform int.
func (d *bdec) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fatal("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *bdec) f64() float64 {
	if d.fail != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.fatal("truncated float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

func (d *bdec) byte() byte {
	if d.fail != nil {
		return 0
	}
	if len(d.buf) < 1 {
		d.fatal("truncated byte")
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *bdec) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fatal("malformed bool")
		return false
	}
}

func (d *bdec) bytes() []byte {
	n := d.uvarint()
	if d.fail != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.fatal("byte blob of %d bytes with %d remaining", n, len(d.buf))
		return nil
	}
	out := append([]byte(nil), d.buf[:n]...)
	d.buf = d.buf[n:]
	if len(out) == 0 {
		return nil
	}
	return out
}

func (d *bdec) str() string { return string(d.bytes()) }

// count decodes an element count and rejects it unless at least count *
// minElem bytes remain — the allocation guard for untrusted input.
func (d *bdec) count(minElem int) int {
	n := d.uvarint()
	if d.fail != nil {
		return 0
	}
	if n > uint64(len(d.buf))/uint64(minElem) {
		d.fatal("count %d impossible with %d bytes remaining", n, len(d.buf))
		return 0
	}
	return int(n)
}
