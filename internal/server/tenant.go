package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dvbp/internal/metrics"
	"dvbp/internal/persist"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// TenantConfig is one tenant's identity: the part that goes into the
// manifest and must survive restarts.
type TenantConfig struct {
	// Name identifies the tenant; it is also its directory name under the
	// store root.
	Name string `json:"name"`
	// Dim is the resource dimension of the tenant's items.
	Dim int `json:"dim"`
	// Policy is the Any Fit policy, in any spelling core.NewPolicy accepts.
	Policy string `json:"policy"`
	// Seed seeds the policy (RandomFit; ignored by the others).
	Seed int64 `json:"seed"`
	// CheckpointEvery takes an automatic snapshot after this many engine
	// events, and compacts the op log behind it; 0 disables snapshots
	// (recovery re-steps the engine through the whole op log).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
}

// Limits bounds every tenant's admission front end. The zero value selects
// the defaults below.
type Limits struct {
	// QueueDepth caps the per-tenant request queue; a full queue answers 429.
	QueueDepth int
	// BatchMax caps how many queued requests one group commit covers.
	BatchMax int
	// Deadline is the per-request time budget measured from enqueue; a
	// request still queued past it answers 503. 0 means no deadline.
	Deadline time.Duration
	// RetryAttempts is how many times a transient I/O failure (EIO) is
	// retried at a commit barrier before the tenant degrades; disk-full
	// errors skip the retries (waiting microseconds for space is pointless).
	// Negative disables retrying.
	RetryAttempts int
	// RetryBackoff is the sleep before the first retry; it doubles per
	// attempt, capped at 100ms.
	RetryBackoff time.Duration
	// FS is the filesystem seam the store and every tenant run their file
	// operations through; nil means the real filesystem. Tests inject
	// vfs.Mem or a vfs.Injector here.
	FS vfs.FS
}

func (l Limits) withDefaults() Limits {
	if l.QueueDepth <= 0 {
		l.QueueDepth = 256
	}
	if l.BatchMax <= 0 {
		l.BatchMax = 64
	}
	if l.RetryAttempts == 0 {
		l.RetryAttempts = 3
	}
	if l.RetryBackoff <= 0 {
		l.RetryBackoff = 2 * time.Millisecond
	}
	return l
}

// maxRetryBackoff caps the exponential retry sleep.
const maxRetryBackoff = 100 * time.Millisecond

// apiError is an error with an HTTP status, rendered as the structured JSON
// error body.
type apiError struct {
	Status int
	Code   string
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func errf(status int, code, format string, args ...any) *apiError {
	return &apiError{Status: status, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Sentinel API errors the front end maps to backpressure statuses.
var (
	errBusy     = &apiError{Status: http.StatusTooManyRequests, Code: "queue_full", Msg: "tenant queue is full, retry later"}
	errDraining = &apiError{Status: http.StatusServiceUnavailable, Code: "draining", Msg: "server is draining, not accepting work"}
	errDeadline = &apiError{Status: http.StatusServiceUnavailable, Code: "deadline", Msg: "request deadline expired before processing"}
)

type reqKind uint8

const (
	reqPlace reqKind = iota
	reqAdvance
	reqStats
	reqPlacements
)

// request is one unit of work on a tenant's queue.
type request struct {
	kind     reqKind
	deadline time.Time // zero = none

	// place
	arrival     float64
	arrivalSet  bool
	departure   float64
	duration    float64
	durationSet bool
	size        vector.Vector

	// advance
	to float64

	// placements
	from int

	reply chan response
}

type response struct {
	err        *apiError
	place      *PlaceResult
	advance    *AdvanceResult
	stats      *TenantStatus
	placements *PlacementsResult
}

// PlaceResult acknowledges one placement. By the time a client reads it, the
// item's admission is in the fsynced op log and the engine has committed its
// placement; recovery after a crash rebuilds that placement from the op log
// (DESIGN.md §12).
type PlaceResult struct {
	Tenant string  `json:"tenant"`
	Item   int     `json:"item"`
	Bin    int     `json:"bin"`
	Opened bool    `json:"opened"`
	Time   float64 `json:"time"`
}

// AdvanceResult acknowledges a clock advance.
type AdvanceResult struct {
	Tenant string  `json:"tenant"`
	To     float64 `json:"to"`
	Events int     `json:"events"`
	Served int     `json:"served"`
}

// TenantStatus is the stats view of one tenant: its identity, the engine's
// counters, and derived cost/fragmentation figures.
type TenantStatus struct {
	TenantConfig
	Watermark float64 `json:"watermark"`
	// Degraded is true while the tenant is read-only because its disk is
	// refusing writes (ENOSPC or persistent EIO); mutations answer 503 and
	// the worker probes for recovery at every batch.
	Degraded bool `json:"degraded,omitempty"`
	// Engine counters (see core.EngineStats).
	EventSeq   int64   `json:"event_seq"`
	Clock      float64 `json:"clock"`
	Items      int     `json:"items"`
	Served     int     `json:"served"`
	Placements int     `json:"placements"`
	OpenBins   int     `json:"open_bins"`
	BinsOpened int     `json:"bins_opened"`
	// Cost is the usage-time objective accrued through the watermark.
	Cost float64 `json:"cost"`
	// OpenLoad is the per-dimension total load across open bins.
	OpenLoad []float64 `json:"open_load"`
	// StrandedPerDim is the per-dimension stranded open capacity: free
	// capacity in dimension d that cannot be used because some other
	// dimension has less headroom, summed over open bins (core.EngineStats
	// Stranded; DESIGN.md §13). StrandedCapacity is its dimension sum.
	StrandedPerDim   []float64 `json:"stranded_per_dim"`
	StrandedCapacity float64   `json:"stranded_capacity"`
}

// PlacementRecord is one acknowledged placement in a placements listing.
type PlacementRecord struct {
	Item int     `json:"item"`
	Bin  int     `json:"bin"`
	Time float64 `json:"time"`
}

// PlacementsResult lists a tenant's committed placements from index From.
type PlacementsResult struct {
	Tenant     string            `json:"tenant"`
	From       int               `json:"from"`
	Total      int               `json:"total"`
	Placements []PlacementRecord `json:"placements"`
}

// Tenant is one independent run behind the server: a persist.DynamicRun and
// the single worker goroutine that owns it. The front end only enqueues.
type Tenant struct {
	cfg    TenantConfig
	limits Limits
	dir    string
	m      *storeMetrics

	// degradedFlag mirrors the worker-owned degraded state for readers on
	// other goroutines (/readyz); the worker is the only writer.
	degradedFlag atomic.Bool

	mu     sync.Mutex
	closed bool
	ch     chan *request

	// Worker-owned state below; untouched outside the worker goroutine
	// after start().
	run      *persist.DynamicRun
	failed   *apiError
	degraded *apiError // non-nil while the tenant is read-only on a sick disk

	done chan struct{}
}

func newTenant(cfg TenantConfig, dir string, limits Limits, m *storeMetrics) *Tenant {
	return &Tenant{
		cfg:    cfg,
		limits: limits,
		dir:    dir,
		m:      m,
		ch:     make(chan *request, limits.QueueDepth),
		done:   make(chan struct{}),
	}
}

// start launches the worker goroutine over an opened run.
func (t *Tenant) start(run *persist.DynamicRun) {
	t.run = run
	go t.work()
}

// Config returns the tenant's manifest identity.
func (t *Tenant) Config() TenantConfig { return t.cfg }

// enqueue hands one request to the worker, answering errBusy when the
// bounded queue is full and errDraining when the tenant is shutting down.
// On success the worker owns the request and will send exactly one response
// on req.reply.
func (t *Tenant) enqueue(req *request) *apiError {
	if t.limits.Deadline > 0 {
		req.deadline = time.Now().Add(t.limits.Deadline)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errDraining
	}
	select {
	case t.ch <- req:
		t.m.queueDepth.Add(1)
		return nil
	default:
		t.m.backpressure.Inc()
		return errBusy
	}
}

// close stops intake and waits for the worker to drain the queue, sync, and
// release the files. Safe to call more than once.
func (t *Tenant) close() {
	t.mu.Lock()
	already := t.closed
	t.closed = true
	if !already {
		close(t.ch)
	}
	t.mu.Unlock()
	<-t.done
}

// work is the worker loop: drain up to BatchMax queued requests, process them
// as one group commit, repeat until intake closes, then release everything.
func (t *Tenant) work() {
	defer close(t.done)
	for req := range t.ch {
		batch := []*request{req}
	fill:
		for len(batch) < t.limits.BatchMax {
			select {
			case r, ok := <-t.ch:
				if !ok {
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
		t.m.queueDepth.Add(-float64(len(batch)))
		t.m.batchSize.Observe(float64(len(batch)))
		t.process(batch)
	}
	// Intake closed and the queue drained: Close syncs the op log, so nothing
	// admitted is lost.
	t.run.Close()
}

// process runs one batch as a group commit with one barrier: admit, fsync the
// op log, apply, acknowledge. Transient barrier failures retry with capped
// backoff; a disk that stays sick rolls the batch back and degrades the
// tenant to read-only (503 for mutations, queries still served) instead of
// poisoning it, and every later batch probes it to resume.
func (t *Tenant) process(batch []*request) {
	if t.degraded != nil {
		t.probe()
	}
	now := time.Now()
	resps := make([]response, len(batch))
	var mutations []int // indices in batch of the admitted mutations

	// Phase 1: admission. Validate each mutation against the running
	// watermark and append its op-log record (buffered, not yet synced).
	for i, req := range batch {
		switch {
		case t.failed != nil:
			resps[i].err = t.failed
		case !req.deadline.IsZero() && now.After(req.deadline):
			t.m.deadlines.Inc()
			resps[i].err = errDeadline
		case req.kind != reqPlace && req.kind != reqAdvance:
		case t.degraded != nil:
			resps[i].err = t.degraded
		default:
			if resps[i].err = t.admit(req); resps[i].err == nil {
				mutations = append(mutations, i)
			}
		}
	}

	// Phase 2: the barrier — ops durable before the engine may step, so every
	// placement applied below survives a crash. On a recoverable failure the
	// whole batch rolls back, watermark included, and the tenant degrades: its
	// engine holds exactly its acknowledged state. Only corruption, or a
	// rollback that itself fails, poisons it.
	if len(mutations) > 0 && t.failed == nil {
		if err := t.retryIO(t.run.SyncOps); err != nil {
			if persist.Recoverable(err) {
				if rberr := t.run.RollbackOps(); rberr != nil {
					t.fail("op log rollback after failed sync: %v", rberr)
				} else {
					t.degrade(err)
				}
			} else {
				t.fail("op log sync: %v", err)
			}
			terminal := t.failed // failed beats degraded
			if terminal == nil {
				terminal = t.degraded
			}
			for _, i := range mutations {
				resps[i].err = terminal
			}
		}
	}

	// Phase 3: apply, in batch order. Queries run here too — degraded mode
	// keeps serving them — and each sees exactly the batch mutations that
	// preceded it. A tenant poisoned while applying answers the rest of the
	// batch with its failure.
	events := t.run.Engine().EventSeq()
	for i, req := range batch {
		r := &resps[i]
		if r.err == nil && t.failed != nil {
			r.err = t.failed
		}
		if r.err != nil {
			continue
		}
		switch req.kind {
		case reqPlace:
			r.place = t.applyPlace(req)
		case reqAdvance:
			r.advance = t.applyAdvance(req)
		case reqStats:
			r.stats = t.status()
		case reqPlacements:
			r.placements = t.listPlacements(req.from)
		}
		if t.failed != nil {
			r.err = t.failed
		}
	}
	t.m.events.Add(uint64(t.run.Engine().EventSeq() - events))

	// Phase 4: acknowledge.
	for i, req := range batch {
		req.reply <- resps[i]
	}

	// Drain the run's I/O counters into the server metrics.
	st := t.run.TakeIOStats()
	t.m.ioRetries.Add(uint64(st.CheckpointsSkipped))
	t.m.compactions.Add(uint64(st.Compactions))
	t.m.reclaimed.Add(uint64(st.ReclaimedBytes))
}

// retryIO runs op, retrying transient failures with exponential backoff
// (capped) up to Limits.RetryAttempts times. Disk-full, corruption, and
// fatal errors return immediately: waiting will not create space or truth.
func (t *Tenant) retryIO(op func() error) error {
	backoff := t.limits.RetryBackoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || persist.Classify(err) != persist.ClassTransient || attempt >= t.limits.RetryAttempts {
			return err
		}
		t.m.ioRetries.Inc()
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// degrade flips the tenant into read-only mode: mutations answer 503 until a
// probe sees the disk take writes again. Unlike fail, nothing is poisoned —
// on-disk state is honest (behind, never wrong).
func (t *Tenant) degrade(cause error) {
	if t.degraded != nil {
		return
	}
	t.degraded = errf(http.StatusServiceUnavailable, "degraded",
		"tenant %q is read-only, disk unwell (%s): %v", t.cfg.Name, persist.Classify(cause), cause)
	t.degradedFlag.Store(true)
	t.m.degraded.Add(1)
}

// probe re-runs the barrier with a real fsync: success lifts degraded mode,
// a recoverable failure keeps it, anything else poisons.
func (t *Tenant) probe() {
	err := t.run.SyncOps()
	switch {
	case err == nil:
		t.degraded = nil
		t.degradedFlag.Store(false)
		t.m.degraded.Add(-1)
	case !persist.Recoverable(err):
		t.fail("probe: %v", err)
	}
}

// fail poisons the tenant: a persistence write failed, so no further
// acknowledgement would be honest. Queued and future requests answer 500.
func (t *Tenant) fail(format string, args ...any) {
	if t.failed == nil {
		t.failed = errf(http.StatusInternalServerError, "tenant_failed",
			"tenant %q persistence failed: %s", t.cfg.Name, fmt.Sprintf(format, args...))
		t.m.tenantFailures.Inc()
	}
}

// admit validates a place or advance request and logs it.
func (t *Tenant) admit(req *request) *apiError {
	wm := t.run.Watermark()
	var err error
	if req.kind == reqPlace {
		if !req.arrivalSet {
			req.arrival = wm
		}
		if req.durationSet {
			req.departure = req.arrival + req.duration
		}
		err = t.run.AdmitItem(req.arrival, req.departure, req.size)
	} else {
		err = t.run.AdmitAdvance(req.to)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, persist.ErrInvalidItem):
		return errf(http.StatusBadRequest, "invalid_item", "%v", err)
	case !errors.Is(err, persist.ErrStale):
		t.fail("op log append: %v", err)
		return t.failed
	case req.kind == reqPlace:
		return errf(http.StatusConflict, "stale_arrival",
			"arrival %g is behind tenant %q watermark %g", req.arrival, t.cfg.Name, wm)
	}
	return errf(http.StatusConflict, "stale_advance",
		"advance to %g is behind tenant %q watermark %g", req.to, t.cfg.Name, wm)
}

// applyPlace commits an admitted item's arrival, returning the placement.
func (t *Tenant) applyPlace(req *request) *PlaceResult {
	rec, err := t.run.Place(req.arrival, req.departure, req.size)
	if err != nil {
		t.fail("place: %v", err)
		return nil
	}
	t.m.items.Inc()
	return &PlaceResult{Tenant: t.cfg.Name, Item: rec.ItemID, Bin: rec.BinID, Opened: rec.Opened, Time: rec.Time}
}

// applyAdvance commits every event due at or before the target time.
func (t *Tenant) applyAdvance(req *request) *AdvanceResult {
	n, err := t.run.Advance(req.to)
	if err != nil {
		t.fail("advance: %v", err)
		return nil
	}
	return &AdvanceResult{Tenant: t.cfg.Name, To: req.to, Events: n, Served: t.run.Engine().Stats().Served}
}

// status builds the stats view (worker goroutine only). The fragmentation
// fields — open_load, stranded_per_dim and stranded_capacity — are all
// derived from one metrics.FragOf recompute over the engine's open bins, so
// they can never drift apart (or away from the fragmentation tracker's
// definition) under bin close/crash churn.
func (t *Tenant) status() *TenantStatus {
	e := t.run.Engine()
	st := e.Stats()
	fs := metrics.FragOf(t.cfg.Dim, e.AppendOpenBins(nil))
	out := &TenantStatus{
		TenantConfig: t.cfg,
		Watermark:    t.run.Watermark(),
		Degraded:     t.degraded != nil,
		EventSeq:     st.EventSeq,
		Clock:        st.Clock,
		Items:        st.Items,
		Served:       st.Served,
		Placements:   st.Placements,
		OpenBins:     fs.OpenBins,
		BinsOpened:   st.BinsOpened,
		Cost:         st.CostAt(t.run.Watermark()),
		OpenLoad:     fs.Load,
	}
	out.StrandedPerDim = fs.Stranded
	for _, v := range fs.Stranded {
		out.StrandedCapacity += v
	}
	return out
}

// listPlacements copies the committed placements from index from on
// (worker goroutine only).
func (t *Tenant) listPlacements(from int) *PlacementsResult {
	ps, total := t.run.Engine().AppendPlacements(nil, from)
	out := &PlacementsResult{Tenant: t.cfg.Name, From: total - len(ps), Total: total}
	for _, p := range ps {
		out.Placements = append(out.Placements, PlacementRecord{Item: p.ItemID, Bin: p.BinID, Time: p.Time})
	}
	return out
}
