package core

import (
	"math"
	"reflect"
	"testing"

	"dvbp/internal/item"
)

// traceInj is a minimal test FailureInjector: absolute crash times by bin ID.
// (core tests cannot import internal/faults — that would be an import cycle —
// so the tests carry their own tiny injectors.)
type traceInj map[int]float64

func (tr traceInj) BinOpened(binID int, _ float64) (float64, bool) {
	at, ok := tr[binID]
	return at, ok
}

// hashInj derives a crash offset from (seed, binID) with a SplitMix64 step —
// a stateless stand-in for the faults.MTBF schedule.
type hashInj struct {
	seed int64
	mean float64
}

func (h hashInj) BinOpened(binID int, openedAt float64) (float64, bool) {
	z := uint64(h.seed) + 0x9E3779B97F4A7C15*uint64(binID+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	u := float64(z>>11) / (1 << 53)
	return openedAt + math.Max(1e-6, -h.mean*math.Log(1-u)), true
}

type fixedRetry struct{ wait float64 }

func (f fixedRetry) Name() string      { return "fixed-test" }
func (f fixedRetry) Delay(int) float64 { return f.wait }

func TestCrashEvictImmediateRetry(t *testing.T) {
	l := list(t, 1, []float64{0, 10, 0.5})
	res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: 4}, nil))
	if res.Crashes != 1 || res.Evictions != 1 || res.Retries != 1 || res.ItemsLost != 0 {
		t.Fatalf("counters: %+v", res)
	}
	if res.BinsOpened != 2 {
		t.Errorf("BinsOpened = %d, want 2 (crash forces a fresh bin)", res.BinsOpened)
	}
	// Usage accrues up to the crash on bin 0 and from the immediate
	// re-placement to departure on bin 1: 4 + 6 = 10.
	if res.Cost != 10 {
		t.Errorf("Cost = %v, want 10", res.Cost)
	}
	if res.LostUsageTime != 0 {
		t.Errorf("LostUsageTime = %v, want 0 under immediate retry", res.LostUsageTime)
	}
	if !res.Bins[0].Crashed || res.Bins[1].Crashed {
		t.Errorf("Crashed flags wrong: %+v", res.Bins)
	}
	if got := res.Outcomes[l.Items[0].ID]; got != OutcomeServed {
		t.Errorf("Outcome = %v, want served", got)
	}
	if len(res.Placements) != 2 || res.Placements[0].Attempt != 0 || res.Placements[1].Attempt != 1 {
		t.Errorf("Placements = %+v", res.Placements)
	}
	if res.Placements[1].Time != 4 {
		t.Errorf("re-placement time = %v, want 4", res.Placements[1].Time)
	}
}

func TestCrashWithDelayedRetryLosesUsage(t *testing.T) {
	l := list(t, 1, []float64{0, 10, 0.5})
	res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: 4}, fixedRetry{wait: 2}))
	if res.Retries != 1 || res.ItemsLost != 0 {
		t.Fatalf("counters: %+v", res)
	}
	if res.LostUsageTime != 2 {
		t.Errorf("LostUsageTime = %v, want 2", res.LostUsageTime)
	}
	// 4 on the crashed bin, then 6..10 on the replacement.
	if res.Cost != 8 {
		t.Errorf("Cost = %v, want 8", res.Cost)
	}
}

func TestCrashLosesItemWhenRetryPassesDeparture(t *testing.T) {
	l := list(t, 1, []float64{0, 8, 0.5})
	res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: 4}, fixedRetry{wait: 10}))
	if res.Crashes != 1 || res.Evictions != 1 || res.Retries != 0 || res.ItemsLost != 1 {
		t.Fatalf("counters: %+v", res)
	}
	if res.LostUsageTime != 4 {
		t.Errorf("LostUsageTime = %v, want 4 (crash at 4, departure at 8)", res.LostUsageTime)
	}
	if res.Cost != 4 {
		t.Errorf("Cost = %v, want 4", res.Cost)
	}
	if got := res.Outcomes[l.Items[0].ID]; got != OutcomeLost {
		t.Errorf("Outcome = %v, want lost", got)
	}
}

func TestCrashAfterNaturalCloseIsNoop(t *testing.T) {
	l := list(t, 1, []float64{0, 3, 0.5})
	res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: 5}, nil))
	if res.Crashes != 0 || res.Evictions != 0 {
		t.Fatalf("stale crash fired: %+v", res)
	}
	if res.Cost != 3 || res.Bins[0].Crashed {
		t.Errorf("fault-free outcome disturbed: %+v", res)
	}
}

func TestCrashAtOrBeforeOpenIgnored(t *testing.T) {
	l := list(t, 1, []float64{2, 5, 0.5})
	for _, at := range []float64{0, 2, math.NaN()} {
		res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: at}, nil))
		if res.Crashes != 0 {
			t.Errorf("crash at %v (bin opened at 2) should be ignored", at)
		}
	}
}

func TestEvictionOrderIsAscendingItemID(t *testing.T) {
	// Three items in one bin; crash evicts all; with a fixed delay they
	// re-dispatch in ascending item-ID order (retrySeq follows eviction order).
	l := list(t, 1,
		[]float64{0, 10, 0.3},
		[]float64{0, 10, 0.3},
		[]float64{0, 10, 0.3},
	)
	res := mustSimulate(t, l, NewFirstFit(), WithFaults(traceInj{0: 5}, fixedRetry{wait: 1}))
	if res.Evictions != 3 || res.Retries != 3 {
		t.Fatalf("counters: %+v", res)
	}
	var retried []int
	for _, p := range res.Placements {
		if p.Attempt > 0 {
			retried = append(retried, p.ItemID)
		}
	}
	want := []int{l.Items[0].ID, l.Items[1].ID, l.Items[2].ID}
	if !reflect.DeepEqual(retried, want) {
		t.Errorf("retry order = %v, want %v", retried, want)
	}
}

func TestMaxBinsRejects(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 10, 0.9},
		[]float64{1, 5, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit(), WithMaxBins(1))
	if res.Rejected != 1 || res.BinsOpened != 1 {
		t.Fatalf("want 1 rejection on a full fleet: %+v", res)
	}
	if got := res.Outcomes[l.Items[1].ID]; got != OutcomeRejected {
		t.Errorf("Outcome = %v, want rejected", got)
	}
	if res.Cost != 10 {
		t.Errorf("Cost = %v, want 10", res.Cost)
	}
}

func TestAdmissionQueuePlacesOnDeparture(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 4, 0.9},
		[]float64{1, 10, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit(), WithMaxBins(1), WithAdmissionQueue(100))
	if res.QueuedPlaced != 1 || res.TimedOut != 0 || res.Rejected != 0 {
		t.Fatalf("counters: %+v", res)
	}
	if res.QueueDelay != 3 {
		t.Errorf("QueueDelay = %v, want 3 (queued at 1, placed at 4)", res.QueueDelay)
	}
	p, ok := res.PlacementOf(l.Items[1].ID)
	if !ok || p.Time != 4 {
		t.Errorf("queued item placement = %+v, want Time=4", p)
	}
	// Item 2 still departs at its own departure time: cost 4 + 6.
	if res.Cost != 10 {
		t.Errorf("Cost = %v, want 10", res.Cost)
	}
}

func TestAdmissionQueueTimesOut(t *testing.T) {
	l := list(t, 1,
		[]float64{0, 10, 0.9},
		[]float64{1, 5, 0.9},
	)
	res := mustSimulate(t, l, NewFirstFit(), WithMaxBins(1), WithAdmissionQueue(1))
	if res.TimedOut != 1 || res.QueuedPlaced != 0 {
		t.Fatalf("counters: %+v", res)
	}
	if got := res.Outcomes[l.Items[1].ID]; got != OutcomeTimedOut {
		t.Errorf("Outcome = %v, want timed-out", got)
	}
}

// failureLog records FailureObserver callbacks to check sequencing and
// agreement with Result counters.
type failureLog struct {
	BaseObserver
	BaseFailureObserver
	crashes, evictions, lost, rejected, timedOut, queued, dequeued int
	lostUsage, queueDelay                                          float64
}

func (f *failureLog) BinCrashed(b *Bin, t float64, evicted int) { f.crashes++ }
func (f *failureLog) ItemEvicted(req Request, from *Bin, t, resumeAt float64) {
	f.evictions++
	f.lostUsage += resumeAt - t
}
func (f *failureLog) ItemLost(Request, float64) { f.lost++ }
func (f *failureLog) ItemRejected(req Request, t float64, timedOut bool) {
	if timedOut {
		f.timedOut++
	} else {
		f.rejected++
	}
}
func (f *failureLog) ItemQueued(Request, float64) { f.queued++ }
func (f *failureLog) ItemDequeued(req Request, queuedAt, t float64) {
	f.dequeued++
	f.queueDelay += t - queuedAt
}

func TestFailureObserverMatchesResult(t *testing.T) {
	l := randomList(7, 120, 2, 20)
	obs := &failureLog{}
	res := mustSimulate(t, l, NewFirstFit(),
		WithFaults(hashInj{seed: 3, mean: 12}, fixedRetry{wait: 1}),
		WithMaxBins(4), WithAdmissionQueue(5),
		WithObserver(obs))
	if obs.crashes != res.Crashes || obs.evictions != res.Evictions ||
		obs.lost != res.ItemsLost || obs.rejected != res.Rejected ||
		obs.timedOut != res.TimedOut || obs.dequeued != res.QueuedPlaced {
		t.Errorf("observer %+v disagrees with result %s", obs, res)
	}
	if obs.lostUsage != res.LostUsageTime {
		t.Errorf("observer lost usage %v != result %v", obs.lostUsage, res.LostUsageTime)
	}
	if obs.queueDelay != res.QueueDelay {
		t.Errorf("observer queue delay %v != result %v", obs.queueDelay, res.QueueDelay)
	}
	if res.Crashes == 0 || res.Evictions == 0 {
		t.Fatalf("instance exercised no failure paths: %s", res)
	}
}

func TestFaultyRunDeterminism(t *testing.T) {
	l := randomList(11, 150, 2, 25)
	run := func() *Result {
		return mustSimulate(t, l, NewRandomFit(99),
			WithFaults(hashInj{seed: 5, mean: 10}, fixedRetry{wait: 0.5}),
			WithMaxBins(5), WithAdmissionQueue(3))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed + schedule produced different results:\n%s\n%s", a, b)
	}
}

func TestOutcomeConservation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		l := randomList(seed, 100, 2, 15)
		res := mustSimulate(t, l, NewBestFit(MaxLoad()),
			WithFaults(hashInj{seed: seed, mean: 8}, fixedRetry{wait: 2}),
			WithMaxBins(3), WithAdmissionQueue(4))
		if len(res.Outcomes) != l.Len() {
			t.Fatalf("seed %d: %d outcomes for %d items", seed, len(res.Outcomes), l.Len())
		}
		counts := map[Outcome]int{}
		for _, o := range res.Outcomes {
			counts[o]++
		}
		if counts[OutcomeLost] != res.ItemsLost || counts[OutcomeRejected] != res.Rejected ||
			counts[OutcomeTimedOut] != res.TimedOut {
			t.Errorf("seed %d: outcome histogram %v vs result %s", seed, counts, res)
		}
	}
}

// faultyResultsEqual extends resultsEqual with the failure accounting.
func faultyResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	resultsEqual(t, label, a, b)
	if a.Crashes != b.Crashes || a.Evictions != b.Evictions || a.Retries != b.Retries ||
		a.ItemsLost != b.ItemsLost || a.Rejected != b.Rejected || a.TimedOut != b.TimedOut ||
		a.QueuedPlaced != b.QueuedPlaced {
		t.Errorf("%s: failure counters disagree:\n%s\n%s", label, a, b)
	}
	if a.QueueDelay != b.QueueDelay || a.LostUsageTime != b.LostUsageTime {
		t.Errorf("%s: QueueDelay/LostUsageTime %v/%v vs %v/%v",
			label, a.QueueDelay, a.LostUsageTime, b.QueueDelay, b.LostUsageTime)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("%s: outcome maps disagree", label)
	}
}

// TestFaultyReferenceAgreesOnHandCases pins the oracle to the same targeted
// scenarios the engine tests use.
func TestFaultyReferenceAgreesOnHandCases(t *testing.T) {
	type tc struct {
		name string
		rows [][]float64
		opts []Option
	}
	cases := []tc{
		{"crash-retry", [][]float64{{0, 10, 0.5}}, []Option{WithFaults(traceInj{0: 4}, nil)}},
		{"crash-lost", [][]float64{{0, 8, 0.5}}, []Option{WithFaults(traceInj{0: 4}, fixedRetry{wait: 10})}},
		{"multi-evict", [][]float64{{0, 10, 0.3}, {0, 10, 0.3}, {0, 10, 0.3}}, []Option{WithFaults(traceInj{0: 5}, fixedRetry{wait: 1})}},
		{"reject", [][]float64{{0, 10, 0.9}, {1, 5, 0.9}}, []Option{WithMaxBins(1)}},
		{"queue", [][]float64{{0, 4, 0.9}, {1, 10, 0.9}}, []Option{WithMaxBins(1), WithAdmissionQueue(100)}},
		{"queue-timeout", [][]float64{{0, 10, 0.9}, {1, 5, 0.9}}, []Option{WithMaxBins(1), WithAdmissionQueue(1)}},
	}
	for _, c := range cases {
		l := list(t, 1, c.rows...)
		fast := mustSimulate(t, l, NewFirstFit(), c.opts...)
		ref, err := SimulateFaultyReference(l, NewFirstFit(), c.opts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		faultyResultsEqual(t, c.name, fast, ref)
	}
}

// TestFaultyReferenceAgreesOnRandomInstances is the faulty-path analogue of
// the fault-free differential test: every standard policy, random workloads,
// seeded crash schedules, finite fleets with and without queues.
//
// Each instance also runs with shuffled, gapped item IDs, so crash eviction
// resolves evicted items through the engine's off-position lookup.
func TestFaultyReferenceAgreesOnRandomInstances(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		base := randomList(seed, 120, 2, 20)
		for _, l := range []*item.List{base, shuffledIDs(base, seed)} {
			for _, withQueue := range []bool{false, true} {
				opts := []Option{
					WithFaults(hashInj{seed: seed, mean: 9}, fixedRetry{wait: 1.5}),
					WithMaxBins(4),
				}
				if withQueue {
					opts = append(opts, WithAdmissionQueue(6))
				}
				for _, p := range StandardPolicies(seed) {
					fast := mustSimulate(t, l, p, opts...)
					ref, err := SimulateFaultyReference(l, p, opts...)
					if err != nil {
						t.Fatalf("%s seed=%d queue=%v: %v", p.Name(), seed, withQueue, err)
					}
					faultyResultsEqual(t, p.Name(), fast, ref)
					if fast.Crashes == 0 {
						t.Fatalf("seed %d: no crashes exercised", seed)
					}
				}
			}
		}
	}
}
