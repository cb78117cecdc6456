package experiments

import (
	"context"
	"fmt"

	"dvbp/internal/core"
	"dvbp/internal/metrics"
	"dvbp/internal/parallel"
)

// ShardSlice selects a slice of a sweep's shard space, for splitting one
// experiment across several processes or machines: an invocation configured
// with {Index: k, Count: m} runs exactly the shards whose global index is
// congruent to k mod m. The zero value selects the whole space. Slices with
// the same Count are disjoint and jointly exhaustive, so m invocations with
// Index 0..m-1 cover every shard exactly once and their outputs merge into
// the same result any single invocation would produce (see MergeSweeps).
type ShardSlice struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// Validate checks the slice designates a sane subset.
func (s ShardSlice) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil // whole space
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("experiments: shard slice %d/%d out of range", s.Index, s.Count)
	}
	return nil
}

// All reports whether the slice selects the whole shard space.
func (s ShardSlice) All() bool { return s.Count <= 1 }

// Selects reports whether global shard index i belongs to the slice.
func (s ShardSlice) Selects(i int) bool { return s.All() || i%s.Count == s.Index }

// Indices lists, in increasing order, the global indices in [0, n) that the
// slice selects.
func (s ShardSlice) Indices(n int) []int {
	var sel []int
	for i := 0; i < n; i++ {
		if s.Selects(i) {
			sel = append(sel, i)
		}
	}
	return sel
}

// String renders "k/m" ("all" for the whole space).
func (s ShardSlice) String() string {
	if s.All() {
		return "all"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// ParseShardSlice parses the CLI "k/m" syntax ("" = whole space).
func ParseShardSlice(s string) (ShardSlice, error) {
	if s == "" {
		return ShardSlice{}, nil
	}
	var sl ShardSlice
	if n, err := fmt.Sscanf(s, "%d/%d", &sl.Index, &sl.Count); err != nil || n != 2 {
		return ShardSlice{}, fmt.Errorf("experiments: bad shard spec %q, want k/m", s)
	}
	if err := sl.Validate(); err != nil {
		return ShardSlice{}, err
	}
	return sl, nil
}

// RunControl bundles the execution knobs shared by every experiment config:
// scheduler parallelism, cancellation, shard selection and engine
// observability. It is embedded in the experiment configs, so its
// fields are read and written as cfg.Workers, cfg.Ctx, and so on. None of the
// fields affect experiment results — the determinism contract (DESIGN.md §9)
// guarantees bit-identical output for every Workers value and any partition
// of the work into shard slices.
type RunControl struct {
	// Workers bounds scheduler parallelism (<= 0: GOMAXPROCS).
	Workers int
	// Ctx cancels outstanding shards early (e.g. a command -timeout); nil
	// means Background. On cancellation the run returns the context error.
	Ctx context.Context
	// Shard restricts this invocation to a slice of the sweep's shard space;
	// the zero value runs everything.
	Shard ShardSlice
	// Observer, when non-nil, is attached to every simulation the experiment
	// runs (via core.WithObserver). Shards execute in parallel, so the
	// observer must be safe for concurrent use; a shared metrics.Collector
	// qualifies and aggregates counters across the whole experiment — each
	// simulation gets its own run-scoped view (metrics.RunScoper) so
	// concurrent engines never share per-run observer state. The observer
	// does not affect packing results.
	Observer core.Observer
}

// observerOpts converts the optional shared observer into Simulate options
// for ONE simulation run. Observers that implement metrics.RunScoper (the
// shared metrics.Collector does) are scoped per run, so per-run state such as
// placement-latency timestamps is never shared between concurrent engines.
func (rc RunControl) observerOpts() []core.Option {
	o := rc.Observer
	if o == nil {
		return nil
	}
	if rs, ok := o.(metrics.RunScoper); ok {
		o = rs.ForRun()
	}
	return []core.Option{core.WithObserver(o)}
}

// requireUnsharded rejects slice-restricted configs for experiments whose
// results cannot be reassembled from parts (no mergeable sweep form).
func (rc RunControl) requireUnsharded(experiment string) error {
	if rc.Shard.All() {
		return nil
	}
	return fmt.Errorf("experiments: %s does not support shard slices (only figure4 and table1 do)", experiment)
}

// runShards executes fn over the selected subset of an n-shard sweep on
// parallel.Run and returns a dense result slice indexed by global shard
// index. Unselected shards keep T's zero value — callers that run sharded
// must only consume selected indices. Results are bit-identical for any
// Workers value; the selected-subset results are bit-identical across any
// ShardSlice partition.
func runShards[T any](rc RunControl, n int, fn func(ctx context.Context, shard int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("experiments: negative shard count %d", n)
	}
	if err := rc.Shard.Validate(); err != nil {
		return nil, err
	}
	sel := rc.Shard.Indices(n)
	results := make([]T, n)
	err := parallel.Run(len(sel), func(ctx context.Context, j int) error {
		v, err := fn(ctx, sel[j])
		if err != nil {
			return err
		}
		results[sel[j]] = v
		return nil
	}, parallel.RunOptions{Workers: rc.Workers, Context: rc.Ctx})
	if err != nil {
		return nil, err
	}
	return results, nil
}
