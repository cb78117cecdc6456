package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dvbp/internal/server"
	"dvbp/internal/vector"
)

// ack is one acknowledged placement as the client saw it, plus the
// departure the server must have derived for it.
type ack struct {
	tenant    int
	item, bin int
	arrival   float64
	departure float64
	size      vector.Vector
}

// clientSpan is one traced request as the client timed it, from the moment
// it handed the request to net/http until the body was fully read.
type clientSpan struct {
	conn, gen, seq int // gen = server starts so far; seq = requests traced on this connection
	start, end     time.Time
}

// loadClient owns the keep-alive connections. Each connection has its own
// Transport capped at one connection, so a tenant pinned to it sees its
// requests strictly in order, one in flight.
type loadClient struct {
	base   string
	conns  [numConns]*conn
	dials  atomic.Int64
	gen    atomic.Int64 // server starts after the first: connections of one start share it
	mu     sync.Mutex
	locals map[string][2]int // local address → (connection, gen), for span matching
	// lastItem[t] is the newest acknowledged item of tenant t; placements
	// reads ask for the tail behind it.
	lastItem []atomic.Int64
}

// conn is one load connection and everything it measured.
type conn struct {
	id     int
	lc     *loadClient
	hc     *http.Client
	tr     *http.Transport
	ops    []op
	next   int
	tenant []tenantPlan
	buf    bytes.Buffer

	attempted, failed, stale int
	places                   int // acknowledged placements
	firstErr                 string
	acks                     []ack

	// Open-loop samples in milliseconds: latency from due time, pacer lag.
	placeLat, readLat []sample
	lag               []float64
	// Completion times of placements acknowledged in the closed loop.
	closedAcks []time.Time

	tracing bool // set between phases
	gen     int  // the loadClient gen this connection was opened at
	traced  int
	spans   []clientSpan
}

func newLoadClient(base string, p *plan) *loadClient {
	lc := &loadClient{base: base, locals: map[string][2]int{}, lastItem: make([]atomic.Int64, len(p.tenants))}
	for i := range lc.conns {
		i := i
		dialer := &net.Dialer{}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err == nil {
					lc.dials.Add(1)
					lc.mu.Lock()
					lc.locals[c.LocalAddr().String()] = [2]int{i, int(lc.gen.Load())}
					lc.mu.Unlock()
				}
				return c, err
			},
		}
		lc.conns[i] = &conn{id: i, lc: lc, hc: &http.Client{Transport: tr}, tr: tr, ops: p.conns[i], tenant: p.tenants}
	}
	return lc
}

func (lc *loadClient) close() {
	for _, c := range lc.conns {
		c.tr.CloseIdleConnections()
	}
}

// connOf maps a server-side RemoteAddr back to the load connection and the
// server start it was opened for.
func (lc *loadClient) connOf(remote string) ([2]int, bool) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	i, ok := lc.locals[remote]
	return i, ok
}

// warm opens the connection with a liveness probe, outside every timed
// region. A fresh connection starts a new span count on both sides.
func (c *conn) warm() error {
	c.gen, c.traced = int(c.lc.gen.Load()), 0
	resp, err := c.hc.Get(c.lc.base + "/healthz")
	if err != nil {
		return err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("healthz: %s", resp.Status)
	}
	return err
}

// do sends one op and drains the response body, so the connection is
// reused. It returns when the body is fully read, and whether the server
// answered 2xx.
func (c *conn) do(o *op) (time.Time, bool) {
	t := &c.tenant[o.tenant]
	var req *http.Request
	var err error
	switch o.kind {
	case opPlace:
		req, err = http.NewRequest(http.MethodPost, c.lc.base+t.placeURL, bytes.NewReader(o.body))
	case opAdvance:
		req, err = http.NewRequest(http.MethodPost, c.lc.base+t.advanceURL, bytes.NewReader(o.body))
	case opStatus:
		req, err = http.NewRequest(http.MethodGet, c.lc.base+t.statusURL, nil)
	case opPlacements:
		from := max(0, c.lc.lastItem[o.tenant].Load()-63)
		req, err = http.NewRequest(http.MethodGet, c.lc.base+t.statusURL+"/placements?from="+strconv.FormatInt(from, 10), nil)
	}
	c.attempted++
	start := time.Now()
	if err != nil {
		return c.fail(start, err.Error())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return c.fail(time.Now(), err.Error())
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if c.tracing {
		c.spans = append(c.spans, clientSpan{conn: c.id, gen: c.gen, seq: c.traced, start: start, end: end})
		c.traced++
	}
	if err != nil {
		return c.fail(end, err.Error())
	}
	if resp.StatusCode/100 != 2 {
		if resp.StatusCode == http.StatusConflict && bytes.Contains(c.buf.Bytes(), []byte("stale_arrival")) {
			c.stale++
		}
		return c.fail(end, fmt.Sprintf("%s %s: %s: %s", req.Method, req.URL.Path, resp.Status, bytes.TrimSpace(c.buf.Bytes())))
	}
	if o.kind == opPlace {
		var pr server.PlaceResult
		if err := json.Unmarshal(c.buf.Bytes(), &pr); err != nil {
			return c.fail(end, "decoding place response: "+err.Error())
		}
		dep := o.departure
		if !o.explicit {
			dep = pr.Time + o.dur
		}
		c.acks = append(c.acks, ack{tenant: o.tenant, item: pr.Item, bin: pr.Bin, arrival: pr.Time, departure: dep, size: o.size})
		c.places++
		for last := &c.lc.lastItem[o.tenant]; ; {
			if cur := last.Load(); int64(pr.Item) <= cur || last.CompareAndSwap(cur, int64(pr.Item)) {
				break
			}
		}
	}
	return end, true
}

func (c *conn) fail(at time.Time, msg string) (time.Time, bool) {
	c.failed++
	if c.firstErr == "" {
		c.firstErr = msg
	}
	return at, false
}

// closedLoop sends the connection's next n ops back to back.
func (c *conn) closedLoop(n int) {
	for end := min(c.next+n, len(c.ops)); c.next < end; c.next++ {
		if at, ok := c.do(&c.ops[c.next]); ok && c.ops[c.next].kind == opPlace {
			c.closedAcks = append(c.closedAcks, at)
		}
	}
}

// openLoop sends each op at its due time t0 + (seq-seq0)/openRate until the
// first op due at or after stop. Every op already due is sent at once;
// only an idle connection sleeps. Latency runs from the due time, so a
// stall is charged to every request it delays; lag records how late the
// pacer woke the idle connection.
func (c *conn) openLoop(t0, stop time.Time, seq0 int, pc *pacer) error {
	for ; c.next < len(c.ops); c.next++ {
		o := &c.ops[c.next]
		due := t0.Add(time.Duration(float64(o.seq-seq0) / openRate * float64(time.Second)))
		if !due.Before(stop) {
			return nil
		}
		if time.Now().Before(due) {
			if err := pc.sleepUntil(due); err != nil {
				return err
			}
			c.lag = append(c.lag, ms(time.Since(due)))
		}
		end, ok := c.do(o)
		if !ok {
			continue
		}
		switch o.kind {
		case opPlace:
			c.placeLat = append(c.placeLat, sample{group: int(due.Sub(t0) / placeWindow), ms: ms(end.Sub(due))})
		case opStatus, opPlacements:
			c.readLat = append(c.readLat, sample{ms: ms(end.Sub(due))})
		}
	}
	return nil
}

// firstSeq is the lowest schedule position not yet sent on any connection.
func (lc *loadClient) firstSeq() int {
	seq := -1
	for _, c := range lc.conns {
		if c.next < len(c.ops) && (seq < 0 || c.ops[c.next].seq < seq) {
			seq = c.ops[c.next].seq
		}
	}
	return seq
}

// each runs f on every connection concurrently and waits for all of them.
func (lc *loadClient) each(f func(c *conn) error) error {
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for i, c := range lc.conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			errs[i] = f(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
