package main

import (
	"runtime"
	"sort"
	"time"
)

// window accumulates the traced rounds of a run (every second round).
// Counts per placement divide by the placements acknowledged inside them.
type window struct {
	mem0                runtime.MemStats
	places0             int
	batches0, batched0  float64
	compactions0        float64
	places              int
	allocBytes, gcPause float64
	batches, batched    float64 // dvbp_server_batch_size count and sum
	compactions         float64
}

// serverCounters reads the batch-size histogram and the compaction counter
// from the server's GET /metrics.
func serverCounters(st *stack) (batches, batched, compactions float64, err error) {
	snap, err := st.metricsSnapshot()
	if err != nil {
		return 0, 0, 0, err
	}
	if m, ok := snap.Find("dvbp_server_batch_size"); ok {
		batches, batched = float64(m.Count), m.Sum
	}
	if m, ok := snap.Find("dvbp_server_compactions_total"); ok {
		compactions = m.Value
	}
	return batches, batched, compactions, nil
}

// begin starts a traced round; no request may be in flight.
func (w *window) begin(st *stack) error {
	var err error
	if w.batches0, w.batched0, w.compactions0, err = serverCounters(st); err != nil {
		return err
	}
	w.places0 = st.places()
	runtime.ReadMemStats(&w.mem0)
	for _, c := range st.lc.conns {
		c.tracing = true
	}
	st.tr.on.Store(true)
	return nil
}

// end closes a traced round and adds its counts.
func (w *window) end(st *stack) error {
	st.tr.on.Store(false)
	for _, c := range st.lc.conns {
		c.tracing = false
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.allocBytes += float64(mem.TotalAlloc - w.mem0.TotalAlloc)
	w.gcPause += float64(mem.PauseTotalNs - w.mem0.PauseTotalNs)
	w.places += st.places() - w.places0
	b, s, c, err := serverCounters(st)
	w.batches += b - w.batches0
	w.batched += s - w.batched0
	w.compactions += c - w.compactions0
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics turns the spans of the traced rounds into the per-layer
// metrics. Latency splits use the open-loop requests; counts per placement
// use the open and the closed loop.
func layerMetrics(st *stack, w *window, untraced, traced samples, sim *simmer, recoverRead int64, coreReplay, persistReplay time.Duration, placed int) map[string]metric {
	tr := st.tr
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	places := float64(w.places)

	// Every fsync overlapping a handler span of the same tenant counts
	// toward that span. A tenant's fsyncs come from its one worker, so
	// they are disjoint and sorted by start also sorts them by end.
	byTenant := map[string][]fsyncSpan{}
	for _, f := range tr.fsyncs {
		byTenant[f.tenant] = append(byTenant[f.tenant], f)
	}
	for _, fs := range byTenant {
		sort.Slice(fs, func(i, j int) bool { return fs[i].start.Before(fs[j].start) })
	}
	overlap := func(h handlerSpan) time.Duration {
		fs := byTenant[h.tenant]
		i := sort.Search(len(fs), func(i int) bool { return !fs[i].start.Before(h.end) })
		var d time.Duration
		for i--; i >= 0 && fs[i].end.After(h.start); i-- {
			lo, hi := fs[i].start, fs[i].end
			if lo.Before(h.start) {
				lo = h.start
			}
			if hi.After(h.end) {
				hi = h.end
			}
			d += hi.Sub(lo)
		}
		return d
	}

	clients := map[[3]int]clientSpan{}
	for _, c := range st.lc.conns {
		for _, sp := range c.spans {
			clients[[3]int{sp.conn, sp.gen, sp.seq}] = sp
		}
	}
	var handler, self, attributed, transport, client, reads []float64
	var handlerSum, attributedSum time.Duration
	respBytes, placeSpans := 0, 0
	for _, h := range tr.handlers {
		if h.place {
			respBytes += h.respBytes
			placeSpans++
		}
		if h.closed {
			continue
		}
		d := h.end.Sub(h.start)
		if h.read {
			reads = append(reads, us(d))
		}
		if !h.place {
			continue
		}
		ov := overlap(h)
		handler = append(handler, us(d))
		self = append(self, us(d-ov))
		attributed = append(attributed, us(ov))
		handlerSum += d
		attributedSum += ov
		if cs, ok := clients[[3]int{h.conn[0], h.conn[1], h.seq}]; ok && h.known {
			transport = append(transport, us(cs.end.Sub(cs.start)-d))
			client = append(client, us(cs.end.Sub(cs.start)))
		}
	}

	var all []float64
	kinds := map[fileKind][]float64{}
	for _, f := range tr.fsyncs {
		d := us(f.end.Sub(f.start))
		all = append(all, d)
		kinds[f.kind] = append(kinds[f.kind], d)
	}
	var snaps []float64
	for _, d := range tr.snaps {
		snaps = append(snaps, ms(d))
	}

	put("client.gen_lag_p99_ms", "ms", quantile(append(untraced.lag, traced.lag...), 0.99))
	// Tails of the untraced rounds. They are not end-to-end metrics: on the
	// shared reference host they move between runs by more than any bound
	// a regression gate could use (see README.md).
	put("client.place_p95_ms", "ms", perGroup(untraced.place, 0.95))
	put("client.place_p99_ms", "ms", perGroup(untraced.place, 0.99))
	put("client.read_p90_ms", "ms", perGroup(untraced.read, 0.9))
	put("client.read_p99_ms", "ms", perGroup(untraced.read, 0.99))
	put("client.conns_opened", "count", float64(st.lc.dials.Load()))
	put("http.transport_p50_us", "us", median(transport))
	put("server.resp_bytes_per_place", "bytes", ratio(float64(respBytes), float64(placeSpans)))
	put("server.place_handler_p50_us", "us", median(handler))
	put("server.place_handler_p99_us", "us", quantile(handler, 0.99))
	put("server.handler_self_p50_us", "us", median(self))
	put("server.batch_size_mean", "count", ratio(w.batched, w.batches))
	put("server.read_handler_p99_us", "us", quantile(reads, 0.99))
	put("vfs.fsync_per_place", "count", ratio(float64(len(all)), places))
	put("vfs.fsync_p50_us", "us", median(all))
	put("vfs.fsync_p99_us", "us", quantile(all, 0.99))
	for k, name := range kindNames {
		put("vfs."+name+".fsync_p50_us", "us", median(kinds[fileKind(k)]))
		put("vfs."+name+".fsync_p99_us", "us", quantile(kinds[fileKind(k)], 0.99))
	}
	put("vfs.fsync_attributed_p50_us", "us", median(attributed))
	put("vfs.fsync_share", "ratio", ratio(float64(attributedSum), float64(handlerSum)))
	put("vfs.bytes_written_per_place", "bytes", ratio(float64(tr.written.Load()), places))
	put("vfs.snapshot_ms_p99", "ms", quantile(snaps, 0.99))
	put("persist.compactions", "count", w.compactions)
	put("vfs.recover_read_bytes", "bytes", float64(recoverRead))
	for t, trace := range sim.traces {
		n := float64(sim.items[t])
		put("core."+trace.name+".select_ns_p50", "ns", median(sim.selectNs[t]))
		put("core."+trace.name+".fit_checks_per_item", "count", ratio(float64(sim.fitChecks[t]), n))
		put("core."+trace.name+".engine_self_ns_per_item", "ns", ratio(sim.selfNs[t], n))
	}
	put("core.replay_ns_per_place", "ns", ratio(float64(coreReplay.Nanoseconds()), float64(placed)))
	put("persist.replay_ns_per_place", "ns", ratio(float64(persistReplay.Nanoseconds()), float64(placed)))
	put("runtime.alloc_bytes_per_place", "bytes", ratio(w.allocBytes, places))
	put("runtime.gc_pause_ms", "ms", w.gcPause/1e6)
	put("trace.overhead_place_p50_ms", "ms", median(values(traced.place))-median(values(untraced.place)))
	// The client span splits into transport + handler self time + fsync time
	// per request; the sum of the three medians should land near the median
	// client span (README.md states the tolerance).
	put("trace.latency_accounted_share", "ratio",
		ratio(median(transport)+median(self)+median(attributed), median(client)))
	return out
}
