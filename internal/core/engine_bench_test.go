package core

import (
	"fmt"
	"runtime"
	"testing"

	"dvbp/internal/item"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// churnInstance builds the bin-churn worst case: n full-bin items arriving
// together, so n bins are simultaneously open, then departing in reverse
// opening order, so every close used to scan the whole open list. Before
// closeBinAt tracked bin indices, Simulate was Θ(n²) on this family; it is
// now linear in the number of closings, which doubling n in the benchmark
// makes visible (quadratic close cost would quadruple ns/op per doubling).
func churnInstance(n int) *item.List {
	l := item.NewList(1)
	for i := 0; i < n; i++ {
		// Item i departs at 2 + (n-i)·1e-6: the last-opened bin closes
		// first, the worst case for a front-to-back scan.
		l.Add(0, 2+float64(n-i)*1e-6, vector.Of(1.0))
	}
	return l
}

func BenchmarkBinChurnClose(b *testing.B) {
	for _, n := range []int{1000, 2000, 4000, 8000} {
		l := churnInstance(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := NewNextFit() // O(1) Select, isolating close cost
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Simulate(l, p)
				if err != nil {
					b.Fatal(err)
				}
				if res.BinsOpened != n {
					b.Fatalf("bins opened = %d, want %d", res.BinsOpened, n)
				}
			}
		})
	}
}

// churnHotPathInstance builds the load-accounting worst case: bins full of
// long-lived anchor items plus a long tail of short-lived churn items, so
// every churn arrival and departure hits a bin holding k active items.
//
// Layout: `bins` bins are each anchored by k items of per-dimension size
// (1-1.5c)/k arriving at t=0 and living until the end of the run, where
// c = 0.5/(k+1) is the churn size. The anchor size exceeds the residual
// capacity 1.5c, so no bin accepts a (k+1)-th anchor, and exactly one churn
// item fits in a bin at a time (a second would need capacity 2c > 1.5c).
// Churn items then arrive strictly sequentially — item j lives [1+j, 1+j+0.5)
// — so the steady state alternates pack and departure events against bins
// whose active population stays pinned at k (or k+1 mid-churn).
//
// Every policy is deterministic on this family: all bins carry identical
// loads, so Best/Worst Fit tie-break to bin 0, First Fit scans to bin 0, and
// Move To Front keeps its leader. The per-event cost is therefore exactly the
// engine's load-accounting cost at k active items — the quantity this
// benchmark exists to track.
func churnHotPathInstance(d, bins, k, churn int) *item.List {
	c := 0.5 / float64(k+1)
	a := (1 - 1.5*c) / float64(k)
	end := float64(churn) + 2
	l := item.NewList(d)
	for b := 0; b < bins; b++ {
		for i := 0; i < k; i++ {
			l.Add(0, end, vector.Uniform(d, a))
		}
	}
	for j := 0; j < churn; j++ {
		t := 1 + float64(j)
		l.Add(t, t+0.5, vector.Uniform(d, c))
	}
	return l
}

// BenchmarkChurnHotPath is the per-event hot-path benchmark: many long-lived
// items per bin, one departure per arrival in steady state. Load accounting
// that costs O(k·log k) per event dominates this family; the incremental
// engine should be flat in k. Results feed BENCH_core.json (make bench-json).
func BenchmarkChurnHotPath(b *testing.B) {
	const (
		bins  = 16
		k     = 64 // active items per bin: the ISSUE's churn floor
		churn = 2048
	)
	for _, d := range []int{1, 2, 5} {
		l := churnHotPathInstance(d, bins, k, churn)
		for _, name := range []string{"FirstFit", "MoveToFront", "BestFit"} {
			b.Run(fmt.Sprintf("policy=%s/d=%d", name, d), func(b *testing.B) {
				p, err := NewPolicy(name, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := Simulate(l, p)
					if err != nil {
						b.Fatal(err)
					}
					if res.BinsOpened != bins {
						b.Fatalf("bins opened = %d, want %d", res.BinsOpened, bins)
					}
				}
				events := float64(2 * l.Len()) // one arrival + one departure per item
				b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkSimulateUniform tracks end-to-end engine throughput on the
// paper's workload model, for before/after comparisons when optimising the
// hot path.
func BenchmarkSimulateUniform(b *testing.B) {
	l, err := workload.Uniform(workload.UniformConfig{D: 2, N: 2000, Mu: 100, T: 1000, B: 100}, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"FirstFit", "MoveToFront", "BestFit"} {
		b.Run(name, func(b *testing.B) {
			p, err := NewPolicy(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(l, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkEngineResident measures what a long-lived dynamic engine (a
// server tenant) keeps per admitted item: the live heap of a d=2 Best Fit
// engine fed about 50k AzureLike items the way a tenant is fed — append,
// then step until the arrival commits — minus the heap before it was built,
// divided by the item count. Most items have departed by the end, so the
// figure is the per-item history (item, placement, outcome) plus the closed
// bins' usage records amortised over the run.
func BenchmarkEngineResident(b *testing.B) {
	cfg := workload.AzureLike(2)
	cfg.Rate, cfg.Horizon = 12, 2800
	src, err := workload.Datacenter(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	stream := src.SortedByArrival()
	var perItem float64
	for i := 0; i < b.N; i++ {
		p, err := NewPolicy("BestFit", 1)
		if err != nil {
			b.Fatal(err)
		}
		before := liveHeap()
		e, err := NewEngine(item.NewList(2), p, WithDynamicArrivals())
		if err != nil {
			b.Fatal(err)
		}
		for _, it := range stream {
			id, err := e.AppendArrival(it.Arrival, it.Departure, it.Size)
			if err != nil {
				b.Fatal(err)
			}
			for {
				rec, ok, err := e.Step()
				if err != nil || !ok {
					b.Fatalf("item %d: step ok=%v err=%v", id, ok, err)
				}
				if rec.Class == EventArrival && rec.ItemID == id {
					break
				}
			}
		}
		perItem = float64(liveHeap()-before) / float64(len(stream))
		runtime.KeepAlive(e)
		e.Close()
	}
	b.ReportMetric(float64(len(stream)), "items")
	b.ReportMetric(perItem, "resident-B/item")
}
