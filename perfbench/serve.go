package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"dvbp/internal/core"
	"dvbp/internal/item"
	"dvbp/internal/metrics"
	"dvbp/internal/persist"
	"dvbp/internal/server"
	"dvbp/internal/vfs"
)

// stack is the system under test as dvbpserver runs it: a Store opened with
// the default Limits on a directory of the real disk, server.New's handler
// behind a loopback TCP listener, and the benchmark's load connections.
type stack struct {
	p      *plan
	dir    string
	tr     *tracer // nil when untraced
	fsys   vfs.FS  // nil (the real filesystem) when untraced
	addr   string  // listener address, kept across restarts
	store  *server.Store
	srv    *server.Server
	hs     *http.Server
	served chan error
	lc     *loadClient
	acks   []ack // preload acknowledgements (hot)
}

// openStack opens the store, creates the plan's tenants, preloads, opens
// the load connections and warms them up. It is the timed set-up.
func openStack(p *plan, dir string, tr *tracer) (*stack, error) {
	s := &stack{p: p, dir: dir, tr: tr}
	if tr != nil {
		s.fsys = &traceFS{FS: vfs.OS{}, root: dir, tr: tr}
	}
	if _, _, err := s.serve(); err != nil {
		return nil, err
	}
	if err := s.populate(); err != nil {
		s.teardown()
		return nil, err
	}
	return s, nil
}

// populate creates the plan's tenants through the API, preloads them, and
// opens and warms up the load connections.
func (s *stack) populate() error {
	for _, t := range s.p.tenants {
		body, err := json.Marshal(t.cfg)
		if err != nil {
			return err
		}
		if code, resp := inproc(s.srv, http.MethodPost, "/v1/tenants", body); code != http.StatusCreated {
			return fmt.Errorf("creating tenant %s: %d %s", t.cfg.Name, code, resp)
		}
	}
	if err := s.preload(); err != nil {
		return err
	}
	s.lc = newLoadClient("http://"+s.addr, s.p)
	if s.tr != nil {
		s.tr.mu.Lock()
		s.tr.connOf = s.lc.connOf
		s.tr.mu.Unlock()
	}
	if err := s.warm(); err != nil {
		return err
	}
	// Warm-up: the first warmOps requests of the schedule, closed loop.
	return s.lc.each(func(c *conn) error {
		for c.next < len(c.ops) && c.ops[c.next].seq < warmOps {
			c.do(&c.ops[c.next])
			c.next++
		}
		return nil
	})
}

// serve opens (recovering) the store and serves it on s.addr, a free
// loopback port the first time. It returns how long server.OpenStore took
// to make every tenant ready, and the bytes it read through the FS seam
// (traced runs only).
func (s *stack) serve() (time.Duration, int64, error) {
	reg := metrics.NewRegistry()
	var read0 int64
	if s.tr != nil {
		read0 = s.tr.readFile.Load()
	}
	// Collect the previous phases' garbage first, so no collection of it
	// lands inside the timed recovery.
	runtime.GC()
	start := time.Now()
	store, err := server.OpenStore(s.dir, server.Limits{FS: s.fsys}, reg)
	if err != nil {
		return 0, 0, err
	}
	ready := time.Since(start)
	var read int64
	if s.tr != nil {
		read = s.tr.readFile.Load() - read0
	}
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		store.Close()
		return 0, 0, err
	}
	s.addr = ln.Addr().String()
	s.store, s.srv = store, server.New(store, reg)
	var h http.Handler = s.srv
	if s.tr != nil {
		h = s.tr.handler(s.srv)
	}
	s.hs = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	return ready, read, nil
}

// warm opens every load connection with a liveness probe.
func (s *stack) warm() error {
	for _, c := range s.lc.conns {
		if err := c.warm(); err != nil {
			return fmt.Errorf("opening load connection: %w", err)
		}
	}
	return nil
}

// restart closes the server gracefully, reopens the store on the same
// directory and address, and reconnects the load connections. It returns
// what serve measured and the bytes on disk while the server was down.
func (s *stack) restart() (ready time.Duration, read, disk int64, err error) {
	if err := s.shutdown(); err != nil {
		return 0, 0, 0, err
	}
	if disk, err = s.diskBytes(); err != nil {
		return 0, 0, 0, err
	}
	if ready, read, err = s.serve(); err != nil {
		return 0, 0, 0, fmt.Errorf("recovering: %w", err)
	}
	s.lc.gen.Add(1)
	return ready, read, disk, s.warm()
}

// preload sends each round's places concurrently through the handler, so
// the tenant worker commits them in batches, and records their acks.
func (s *stack) preload() error {
	for _, round := range s.p.preload {
		acks := make([]ack, len(round))
		errs := make([]error, len(round))
		var wg sync.WaitGroup
		for i := range round {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				o := &round[i]
				code, resp := inproc(s.srv, http.MethodPost, s.p.tenants[o.tenant].placeURL, o.body)
				var pr server.PlaceResult
				if code != http.StatusOK {
					errs[i] = fmt.Errorf("preload place: %d %s", code, resp)
				} else if err := json.Unmarshal(resp, &pr); err != nil {
					errs[i] = err
				}
				acks[i] = ack{tenant: o.tenant, item: pr.Item, bin: pr.Bin, arrival: pr.Time, departure: o.departure, size: o.size}
			}(i)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		s.acks = append(s.acks, acks...)
	}
	return nil
}

func inproc(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// teardown stops the server without a drain and removes its files.
func (s *stack) teardown() {
	if s.lc != nil {
		s.lc.close()
	}
	if s.hs != nil {
		s.hs.Close()
		<-s.served
		s.store.Close()
		s.hs = nil
	}
	os.RemoveAll(s.dir)
}

// shutdown is the graceful close dvbpserver does on SIGTERM: drain, stop
// the listener, let queued batches commit, close every tenant.
func (s *stack) shutdown() error {
	s.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.lc.close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	s.store.Close()
	s.hs = nil
	return err
}

// samples is what the open loop measured.
type samples struct {
	place, read []sample
	lag         []float64
}

// openPhase runs round's open loop for d from the schedule's next position.
func (s *stack) openPhase(d time.Duration, round int, out *samples) error {
	seq0 := s.lc.firstSeq()
	if seq0 < 0 {
		return errors.New("schedule exhausted before the open loop")
	}
	t0 := time.Now().Add(time.Millisecond)
	stop := t0.Add(d)
	err := s.lc.each(func(c *conn) error {
		pc, err := newPacer()
		if err != nil {
			return err
		}
		defer pc.close()
		c.placeLat, c.readLat, c.lag = nil, nil, nil
		return c.openLoop(t0, stop, seq0, pc)
	})
	for _, c := range s.lc.conns {
		// Groups are numbered apart per round: a round's open loop is far
		// shorter than 1000 windows.
		for _, x := range c.placeLat {
			out.place = append(out.place, sample{group: round*1000 + x.group, ms: x.ms})
		}
		for _, x := range c.readLat {
			out.read = append(out.read, sample{group: round, ms: x.ms})
		}
		out.lag = append(out.lag, c.lag...)
	}
	return err
}

// rateWindow: closed-loop throughput is the median over windows this long.
// Short windows give many of them, so a stall of the shared host's disk
// moves a few windows, not the median.
const rateWindow = 100 * time.Millisecond

// closedPhase sends the next n requests of the schedule back to back on
// both connections, and returns the placements acknowledged in each whole
// rateWindow of it.
func (s *stack) closedPhase(n int) []float64 {
	if s.tr != nil {
		s.tr.closed.Store(true)
		defer s.tr.closed.Store(false)
	}
	start := time.Now()
	s.lc.each(func(c *conn) error {
		c.closedAcks = nil
		c.closedLoop(n / numConns)
		return nil
	})
	counts := make([]float64, int(time.Since(start)/rateWindow))
	for _, c := range s.lc.conns {
		for _, t := range c.closedAcks {
			if w := int(t.Sub(start) / rateWindow); w < len(counts) {
				counts[w]++
			}
		}
	}
	return counts
}

func (s *stack) places() int {
	n := 0
	for _, c := range s.lc.conns {
		n += c.places
	}
	return n
}

// allAcks returns every acknowledgement per tenant, sorted by item.
func (s *stack) allAcks() [][]ack {
	out := make([][]ack, len(s.p.tenants))
	for _, a := range s.acks {
		out[a.tenant] = append(out[a.tenant], a)
	}
	for _, c := range s.lc.conns {
		for _, a := range c.acks {
			out[a.tenant] = append(out[a.tenant], a)
		}
	}
	for _, as := range out {
		sort.Slice(as, func(i, j int) bool { return as[i].item < as[j].item })
	}
	return out
}

// diskBytes sums the sizes of the regular files under the data directory.
func (s *stack) diskBytes() (int64, error) {
	var n int64
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// audit checks, on a recovered server, that every acknowledged placement
// is present on the same bin at the same time, and that nothing was placed
// without an acknowledgement.
func audit(h http.Handler, tenants []tenantPlan, acks [][]ack) error {
	for i, t := range tenants {
		code, body := inproc(h, http.MethodGet, t.statusURL+"/placements", nil)
		if code != http.StatusOK {
			return fmt.Errorf("audit %s: %d %s", t.cfg.Name, code, body)
		}
		var res server.PlacementsResult
		if err := json.Unmarshal(body, &res); err != nil {
			return fmt.Errorf("audit %s: %w", t.cfg.Name, err)
		}
		byItem := make(map[int]server.PlacementRecord, len(res.Placements))
		for _, p := range res.Placements {
			byItem[p.Item] = p
		}
		for _, a := range acks[i] {
			p, ok := byItem[a.item]
			if !ok || p.Bin != a.bin || p.Time != a.arrival {
				return fmt.Errorf("audit %s: acknowledged item %d (bin %d at %g) recovered as %+v (present %v)",
					t.cfg.Name, a.item, a.bin, a.arrival, p, ok)
			}
		}
		if res.Total != len(acks[i]) {
			return fmt.Errorf("audit %s: %d placements recovered, %d acknowledged", t.cfg.Name, res.Total, len(acks[i]))
		}
	}
	return nil
}

// replay re-runs one tenant's acknowledged op stream through a dynamic
// engine, with a persist session on vfs.Mem when withPersist, and checks
// that every placement lands on the bin the server acknowledged. It returns
// the time spent placing.
func replay(cfg server.TenantConfig, acks []ack, withPersist bool) (time.Duration, error) {
	p, err := core.NewPolicy(cfg.Policy, cfg.Seed)
	if err != nil {
		return 0, err
	}
	engine, err := core.NewEngine(item.NewList(cfg.Dim), p, core.WithDynamicArrivals())
	if err != nil {
		return 0, err
	}
	defer engine.Close()
	step := engine.Step
	var session *persist.Session
	if withPersist {
		session, err = persist.Begin(engine, persist.NewDynamicRunMeta(cfg.Dim, cfg.Policy, cfg.Seed, ""), persist.Config{
			Dir: "/replay", Label: cfg.Name, Every: cfg.CheckpointEvery, SyncEvery: 64,
			FS: vfs.NewMem(), Compact: cfg.CheckpointEvery > 0,
		})
		if err != nil {
			return 0, err
		}
		defer session.Close()
		step = session.Step
	}
	start := time.Now()
	for _, a := range acks {
		id, err := engine.AppendArrival(a.arrival, a.departure, a.size)
		if err != nil {
			return 0, fmt.Errorf("replay %s: %w", cfg.Name, err)
		}
		if id != a.item {
			return 0, fmt.Errorf("replay %s: acknowledged item %d replays as item %d", cfg.Name, a.item, id)
		}
		for {
			rec, ok, err := step()
			if err != nil || !ok {
				return 0, fmt.Errorf("replay %s: stepping to item %d: ok=%v err=%v", cfg.Name, id, ok, err)
			}
			if rec.Class == core.EventArrival && rec.ItemID == id {
				if rec.BinID != a.bin {
					return 0, fmt.Errorf("replay %s: item %d acknowledged on bin %d, replays onto bin %d", cfg.Name, id, a.bin, rec.BinID)
				}
				break
			}
		}
	}
	if session != nil {
		if err := session.Sync(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// metricsSnapshot reads the server's own telemetry from GET /metrics.
func (s *stack) metricsSnapshot() (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	code, body := inproc(s.srv, http.MethodGet, "/metrics?format=json", nil)
	if code != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics: %d", code)
	}
	return snap, json.Unmarshal(body, &snap)
}
