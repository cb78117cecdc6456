package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic that escaped a shard function. Run converts panics
// into ordinary errors so one faulty shard cannot take down the whole
// process; Stack holds the goroutine stack captured at recovery.
type PanicError struct {
	// Shard is the index of the shard whose function panicked.
	Shard int
	// Value is the value passed to panic.
	Value any
	// Stack is the formatted stack trace captured by debug.Stack.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("shard %d panicked: %v", e.Shard, e.Value)
}

// RunOptions configures a run.
type RunOptions struct {
	// Workers is the number of concurrent workers; <= 0 means GOMAXPROCS.
	Workers int
	// Context cancels outstanding shards early; nil means Background. The
	// shard function receives a child of it that is additionally
	// cancelled as soon as any shard fails or panics.
	Context context.Context
}

func (o RunOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o RunOptions) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Run executes fn(ctx, i) for every i in [0, n) across a bounded worker
// pool. Workers take indices one at a time from a shared counter, so a few
// slow shards never hold up the cheap ones queued behind them. Run returns
// the failure with the smallest shard index, converting panics into
// *PanicError; on error (or parent-context cancellation) the shared context
// is cancelled and no further shards start, so in-flight shards can bail
// out early. See the package comment for the determinism contract.
func Run(n int, fn func(ctx context.Context, i int) error, opts RunOptions) error {
	if n < 0 {
		return fmt.Errorf("parallel: negative n %d", n)
	}
	if n == 0 {
		return opts.context().Err()
	}
	workers := opts.workers()
	if workers > n {
		workers = n
	}

	ctx, cancel := context.WithCancel(opts.context())
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
		next     atomic.Int64
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
		cancel()
	}

	runShard := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				record(i, &PanicError{Shard: i, Value: r, Stack: debug.Stack()})
			}
		}()
		if err := fn(ctx, i); err != nil {
			record(i, err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				runShard(int(i))
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return fmt.Errorf("parallel: shard %d: %w", firstIdx, firstErr)
	}
	return opts.context().Err()
}
