package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// collect runs fn over [0, n) on Run and gathers the results by index, the
// way the experiment harness uses Run. The TestMap* tests exercise Run
// through it.
func collect[T any](n int, fn func(i int) (T, error), opts RunOptions) ([]T, error) {
	out := make([]T, n)
	err := Run(n, func(_ context.Context, i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}, opts)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func TestRunVisitsEveryShardExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 1000
		var visits [n]atomic.Int32
		err := Run(n, func(_ context.Context, i int) error {
			visits[i].Add(1)
			return nil
		}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("workers=%d: shard %d ran %d times", workers, i, v)
			}
		}
	}
}

func TestRunSkewedShardCosts(t *testing.T) {
	// Make the first quarter of the shards vastly more expensive than the
	// rest, so workers finish shards far out of index order. We can only
	// assert completion + exactly-once here (timing is not observable), but
	// the skew exercises concurrent claims under -race.
	const n = 256
	var visits [n]atomic.Int32
	err := Run(n, func(_ context.Context, i int) error {
		if i < n/4 {
			// Busy-spin a little so the expensive shards overlap the cheap ones.
			for j := 0; j < 10_000; j++ {
				_ = math.Sqrt(float64(j))
			}
		}
		visits[i].Add(1)
		return nil
	}, RunOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range visits {
		if visits[i].Load() != 1 {
			t.Fatalf("shard %d ran %d times", i, visits[i].Load())
		}
	}
}

func TestMapOrdersResults(t *testing.T) {
	got, err := collect(100, func(i int) (int, error) { return i * i, nil }, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	var calls atomic.Int64
	fn := func(context.Context, int) error {
		calls.Add(1)
		return nil
	}
	if err := Run(0, fn, RunOptions{}); err != nil {
		t.Errorf("n=0: %v", err)
	}
	err := Run(-1, fn, RunOptions{})
	if want := "parallel: negative n -1"; err == nil || err.Error() != want {
		t.Errorf("n=-1: err = %v, want %q", err, want)
	}
	if c := calls.Load(); c != 0 {
		t.Errorf("shard function ran %d times for n <= 0", c)
	}
}

func TestMapWorkerCounts(t *testing.T) {
	for _, w := range []int{0, 1, 2, 7, 64} {
		got, err := collect(50, func(i int) (int, error) { return i, nil }, RunOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: got[%d]=%d", w, i, v)
			}
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int64 {
		out, err := collect(64, func(i int) (int64, error) { return SeedFor(7, i), nil }, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs between worker counts", i)
		}
	}
}

func TestMapShardsDeterministicAcrossWorkerCounts(t *testing.T) {
	// Two-level seeds, the way a sweep derives a per-instance seed from its
	// cell's seed.
	run := func(workers int) []int64 {
		out, err := collect(512, func(i int) (int64, error) {
			return SeedFor(SeedFor(99, i), i*i), nil
		}, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0), 32} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: index %d differs", w, i)
			}
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	_, err := collect(100, func(i int) (int, error) {
		if i == 42 {
			return 0, boom
		}
		return i, nil
	}, RunOptions{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestMapReturnsSmallestIndexError(t *testing.T) {
	// With one worker shards run in index order, so index 3 is guaranteed to
	// fail first and be the reported error.
	_, err := collect(100, func(i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	}, RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	want := "parallel: shard 3: fail-3"
	if err.Error() != want {
		t.Fatalf("err = %q, want %q", err.Error(), want)
	}
}

func TestMapReportsSmallestObservedFailure(t *testing.T) {
	// Under concurrency the reported index is the smallest among the failures
	// that ran before cancellation — always one of the failing indices.
	_, err := collect(100, func(i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("fail-%d", i)
		}
		return i, nil
	}, RunOptions{Workers: 8})
	if err == nil {
		t.Fatal("want error")
	}
	var shard int
	if _, serr := fmt.Sscanf(err.Error(), "parallel: shard %d:", &shard); serr != nil || shard%10 != 3 ||
		!strings.HasSuffix(err.Error(), fmt.Sprintf("fail-%d", shard)) {
		t.Fatalf("err = %q, want a failing shard's fail-N error", err)
	}
}

func TestMapCancellationStopsWork(t *testing.T) {
	// A failing shard cancels the run: the workers stop claiming, so only a
	// few of the million shards run.
	boom := errors.New("boom")
	var calls atomic.Int64
	_, err := collect(1_000_000, func(i int) (int, error) {
		if calls.Add(1) == 10 {
			return 0, boom
		}
		return i, nil
	}, RunOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if calls.Load() > 100_000 {
		t.Errorf("cancellation did not stop work early (%d calls)", calls.Load())
	}
}

func TestRunCancellationStopsClaims(t *testing.T) {
	// With one worker, the failure of shard 0 cancels the run before the
	// worker can claim shard 1.
	var calls atomic.Int64
	err := Run(100, func(_ context.Context, i int) error {
		calls.Add(1)
		if i == 0 {
			return errors.New("fail-0")
		}
		return nil
	}, RunOptions{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if c := calls.Load(); c != 1 {
		t.Fatalf("%d shards ran after shard 0 failed, want exactly 1 in total", c)
	}
}

func TestRunCapturesPanics(t *testing.T) {
	err := Run(64, func(_ context.Context, i int) error {
		if i == 17 {
			panic("kaboom")
		}
		return nil
	}, RunOptions{Workers: 4})
	if err == nil {
		t.Fatal("want error from panicking shard")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Shard != 17 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = {Shard:%d Value:%v stackLen:%d}", pe.Shard, pe.Value, len(pe.Stack))
	}
}

func TestRunPanicDoesNotKillOtherShards(t *testing.T) {
	// A panic must cancel outstanding work and surface as an error — not crash
	// the process or deadlock the pool.
	var completed atomic.Int64
	err := Run(100, func(_ context.Context, i int) error {
		if i == 0 {
			panic("first shard dies")
		}
		completed.Add(1)
		return nil
	}, RunOptions{Workers: 2})
	if err == nil {
		t.Fatal("want error")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err := Run(1_000_000, func(_ context.Context, i int) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		return nil
	}, RunOptions{Workers: 2, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls.Load() > 100_000 {
		t.Errorf("cancellation did not stop work early (%d calls)", calls.Load())
	}
}

func TestRunShardContextCancelledOnFailure(t *testing.T) {
	// The context handed to shard functions must be cancelled once any shard
	// fails, so long-running shards can bail out.
	boom := errors.New("boom")
	started := make(chan struct{})
	err := Run(2, func(ctx context.Context, i int) error {
		if i == 0 {
			<-started // wait until shard 1 is running
			return boom
		}
		close(started)
		<-ctx.Done() // must unblock when shard 0 fails
		return nil
	}, RunOptions{Workers: 2})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunEdgeCases(t *testing.T) {
	if err := Run(0, func(context.Context, int) error { return nil }, RunOptions{}); err != nil {
		t.Errorf("n=0: %v", err)
	}
	if err := Run(-1, func(context.Context, int) error { return nil }, RunOptions{}); err == nil {
		t.Error("n=-1: want error")
	}
	// n=0 with a cancelled context surfaces the cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(0, func(context.Context, int) error { return nil }, RunOptions{Context: ctx}); !errors.Is(err, context.Canceled) {
		t.Errorf("n=0 cancelled: err = %v", err)
	}
}

func TestConcurrentRunsShareNothing(t *testing.T) {
	// Several independent Run invocations in flight at once: exercises the
	// scheduler's freedom from package-level state under -race.
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out, err := collect(200, func(i int) (int64, error) {
				return SeedFor(int64(r), i), nil
			}, RunOptions{Workers: 3})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if v != SeedFor(int64(r), i) {
					t.Errorf("run %d index %d corrupted", r, i)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

func BenchmarkRunOverhead(b *testing.B) {
	// Scheduling cost per shard with a no-op body.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Run(1024, func(context.Context, int) error { return nil }, RunOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
