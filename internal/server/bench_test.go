package server

import (
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"dvbp/internal/metrics"
)

// BenchmarkServerPlaceThroughput measures the full request path — HTTP
// decode, bounded queue, group commit behind the op-log fsync, JSON
// acknowledgement. In clients=1 and clients=8 each client drives its own
// tenant, so every group commit holds one request; in sametenant/clients=8
// the eight clients share one tenant, whose worker batches them. Alongside
// ns/op it reports req/sec, client-observed p50/p99 latency and the mean
// group-commit batch size; bench-json folds them into BENCH_core.json so the
// serving path's trajectory is tracked like the engine hot paths.
func BenchmarkServerPlaceThroughput(b *testing.B) {
	for _, bc := range []struct {
		name             string
		clients, tenants int
	}{
		{"clients=1", 1, 1},
		{"clients=8", 8, 8},
		{"sametenant/clients=8", 8, 1},
	} {
		conc := bc.clients
		b.Run(bc.name, func(b *testing.B) {
			reg := metrics.NewRegistry()
			store, err := OpenStore(b.TempDir(), Limits{QueueDepth: 1024}, reg)
			if err != nil {
				b.Fatalf("OpenStore: %v", err)
			}
			defer store.Close()
			ts := httptest.NewServer(New(store, reg))
			defer ts.Close()

			for c := 0; c < bc.tenants; c++ {
				cfg := TenantConfig{Name: fmt.Sprintf("bench%d", c), Dim: 2, Policy: "FirstFit", CheckpointEvery: 4096}
				if code := call(b, "POST", ts.URL+"/v1/tenants", cfg, nil); code != 201 {
					b.Fatalf("create tenant: status %d", code)
				}
			}

			perClient := b.N/conc + 1
			lat := make([][]time.Duration, conc)
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < conc; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					base := ts.URL + "/v1/tenants/" + fmt.Sprintf("bench%d", c%bc.tenants) + "/place"
					lat[c] = make([]time.Duration, 0, perClient)
					for i := 0; i < perClient; i++ {
						body := placeBody{Size: []float64{0.1, 0.15}}
						if bc.tenants == conc {
							arr := float64(i / 4)
							body.Arrival, body.Departure = f(arr), f(arr+3)
						} else {
							// Clients sharing a tenant cannot order explicit
							// arrivals; each place arrives at the watermark.
							body.Duration = f(3)
						}
						start := time.Now()
						if code := call(b, "POST", base, body, nil); code != 200 {
							b.Errorf("place: status %d", code)
							return
						}
						lat[c] = append(lat[c], time.Since(start))
					}
				}(c)
			}
			wg.Wait()
			elapsed := b.Elapsed()
			b.StopTimer()

			var all []time.Duration
			for _, l := range lat {
				all = append(all, l...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			quantile := func(q float64) float64 {
				if len(all) == 0 {
					return 0
				}
				i := int(q * float64(len(all)-1))
				return float64(all[i].Nanoseconds())
			}
			b.ReportMetric(float64(len(all))/elapsed.Seconds(), "req/sec")
			b.ReportMetric(quantile(0.50), "p50-ns")
			b.ReportMetric(quantile(0.99), "p99-ns")
			if m, ok := reg.Snapshot().Find("dvbp_server_batch_size"); ok && m.Count > 0 {
				b.ReportMetric(m.Sum/float64(m.Count), "req/batch")
			}
		})
	}
}
