package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dvbp/internal/metrics"
)

// tinyFig4 is the grid used by the sharding tests: small enough that every
// worker-count variant runs in well under a second, large enough that shards
// complete out of index order across workers.
func tinyFig4() Figure4Config {
	return Figure4Config{
		Ds:        []int{1, 2},
		Mus:       []int{1, 10},
		Instances: 6,
		N:         120,
		T:         120,
		B:         100,
		Policies:  []string{"MoveToFront", "FirstFit", "RandomFit"},
		Seed:      7,
	}
}

func encodeSweep[T any](t *testing.T, s *Sweep[T]) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFigure4SweepByteIdenticalAcrossWorkerCounts is the determinism
// regression test: the merged JSON must not depend on scheduler parallelism.
func TestFigure4SweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := tinyFig4()
		cfg.Workers = w
		sweep, err := RunFigure4Sweep(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := encodeSweep(t, sweep)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sweep JSON differs from workers=1", w)
		}
	}
}

// TestFigure4SliceMergeMatchesFullRun splits the sweep into slices, merges
// the parts (after a JSON round trip, as the CLI does) and requires the
// merged document to be byte-identical to a single full run.
func TestFigure4SliceMergeMatchesFullRun(t *testing.T) {
	full, err := RunFigure4Sweep(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := encodeSweep(t, full)

	const m = 3
	parts := make([]*Figure4Sweep, m)
	for k := 0; k < m; k++ {
		cfg := tinyFig4()
		cfg.Workers = 1 + k
		cfg.Shard = ShardSlice{Index: k, Count: m}
		part, err := RunFigure4Sweep(cfg)
		if err != nil {
			t.Fatalf("slice %d/%d: %v", k, m, err)
		}
		if part.Complete() {
			t.Fatalf("slice %d/%d claims completeness", k, m)
		}
		if _, err := Figure4SweepResult(part); err == nil {
			t.Fatal("partial sweep folded into a result without error")
		}
		// Round-trip through the wire format.
		back, err := DecodeSweep[float64](bytes.NewReader(encodeSweep(t, part)), "figure4")
		if err != nil {
			t.Fatalf("slice %d/%d round trip: %v", k, m, err)
		}
		parts[k] = back
	}
	merged, err := MergeSweeps(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeSweep(t, merged); !bytes.Equal(got, wantJSON) {
		t.Fatal("merged sweep JSON differs from single full run")
	}

	// Merge must reject overlapping and incomplete part sets.
	if _, err := MergeSweeps(parts[0], parts[0]); err == nil {
		t.Error("duplicate part accepted")
	}
	if _, err := MergeSweeps(parts[0], parts[1]); err == nil {
		t.Error("incomplete coverage accepted")
	}
	other := tinyFig4()
	other.Seed = 8
	otherSweep, err := RunFigure4Sweep(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSweeps(parts[0], parts[1], otherSweep); err == nil {
		t.Error("mixed-grid parts accepted")
	}
}

// TestFigure4ShardedMatchesSequential is the differential test: the sharded
// runner must reproduce the single-goroutine reference implementation
// exactly — every cell summary bit-identical, which implies per-policy
// usage-time totals are too.
func TestFigure4ShardedMatchesSequential(t *testing.T) {
	cfg := tinyFig4()
	cfg.Workers = 4
	sharded, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runFigure4Sequential(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Cells) != len(seq.Cells) {
		t.Fatalf("cell count %d vs %d", len(sharded.Cells), len(seq.Cells))
	}
	for cell, want := range seq.Cells {
		got, ok := sharded.Cells[cell]
		if !ok {
			t.Fatalf("cell %+v missing from sharded result", cell)
		}
		if got != want {
			t.Errorf("cell %+v: sharded %+v != sequential %+v", cell, got, want)
		}
	}
}

// TestTable1SweepDeterminismAndMerge covers the adversarial study: byte-
// identical JSON across worker counts, slices merge to the full document,
// and rows (including ±Inf bounds) survive the wire format.
func TestTable1SweepDeterminismAndMerge(t *testing.T) {
	base := func() Table1Config {
		return Table1Config{D: 2, Mu: 5, Params: []int{2, 4, 8}, Seed: 1}
	}
	cfg := base()
	cfg.Workers = 1
	full, err := RunTable1Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := encodeSweep(t, full)

	cfg = base()
	cfg.Workers = 4
	again, err := RunTable1Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSweep(t, again), wantJSON) {
		t.Fatal("table1 sweep JSON depends on worker count")
	}

	parts := make([]*Table1Sweep, 2)
	for k := range parts {
		cfg := base()
		cfg.Shard = ShardSlice{Index: k, Count: 2}
		part, err := RunTable1Sweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSweep[AdversarialRow](bytes.NewReader(encodeSweep(t, part)), "table1")
		if err != nil {
			t.Fatal(err)
		}
		parts[k] = back
	}
	merged, err := MergeSweeps(parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeSweep(t, merged), wantJSON) {
		t.Fatal("merged table1 sweep differs from full run")
	}

	rows, err := Table1Rows(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunTable1(base())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatal("merged rows differ from direct run")
	}
}

// TestAdversarialRowJSONRoundTripsInf pins the Inf-safe wire format.
func TestAdversarialRowJSONRoundTripsInf(t *testing.T) {
	in := AdversarialRow{
		Construction: "pillars", Policy: "BestFit", Param: 4,
		MeasuredRatio: 1.25, TheoreticalTarget: math.Inf(1),
		UpperBound: math.Inf(1), Cost: 10.5, OPTUpper: 8.4, Bins: 9,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out AdversarialRow
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip changed row: %+v vs %+v", out, in)
	}
}

// TestShardSliceSemantics covers selection, validation and parsing.
func TestShardSliceSemantics(t *testing.T) {
	all := ShardSlice{}
	if !all.All() || !all.Selects(0) || !all.Selects(41) {
		t.Error("zero slice must select everything")
	}
	s := ShardSlice{Index: 1, Count: 3}
	for i := 0; i < 9; i++ {
		if s.Selects(i) != (i%3 == 1) {
			t.Errorf("slice 1/3 Selects(%d) = %v", i, s.Selects(i))
		}
	}
	if got := all.Indices(3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("zero slice Indices(3) = %v", got)
	}
	if got := s.Indices(9); !reflect.DeepEqual(got, []int{1, 4, 7}) {
		t.Errorf("slice 1/3 Indices(9) = %v", got)
	}
	if _, err := runShards(RunControl{}, -1, func(context.Context, int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative shard count accepted")
	}
	for _, bad := range []ShardSlice{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}, {Index: 3, Count: 0}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("slice %+v accepted", bad)
		}
	}
	got, err := ParseShardSlice("2/5")
	if err != nil || got != (ShardSlice{Index: 2, Count: 5}) {
		t.Errorf("ParseShardSlice(2/5) = %+v, %v", got, err)
	}
	if _, err := ParseShardSlice("5/2"); err == nil {
		t.Error("out-of-range spec accepted")
	}
	if _, err := ParseShardSlice("junk"); err == nil {
		t.Error("junk spec accepted")
	}
	if got, err := ParseShardSlice(""); err != nil || !got.All() {
		t.Errorf("empty spec = %+v, %v", got, err)
	}
}

// TestShardSliceRejectedByNonMergeableExperiments pins the guard: studies
// whose results cannot be reassembled from parts refuse slice-restricted
// configs instead of silently producing partial statistics.
func TestShardSliceRejectedByNonMergeableExperiments(t *testing.T) {
	abl := AblationConfig{D: 1, N: 50, Mu: 2, T: 50, B: 100, Instances: 4, Seed: 1}
	abl.Shard = ShardSlice{Index: 0, Count: 2}
	if _, err := RunBestFitMeasureAblation(abl); err == nil {
		t.Error("sharded ablation accepted")
	}
	if _, err := RunBillingAblation(abl, 1); err == nil {
		t.Error("sharded billing ablation accepted")
	}
	if _, err := RunQuality(abl); err == nil {
		t.Error("sharded quality study accepted")
	}
	tr := DefaultTrueRatio()
	tr.Instances = 4
	tr.Shard = ShardSlice{Index: 0, Count: 2}
	if _, err := RunTrueRatio(tr); err == nil {
		t.Error("sharded true-ratio study accepted")
	}
	ub := DefaultUpperBoundCheck()
	ub.Instances = 2
	ub.Shard = ShardSlice{Index: 1, Count: 2}
	if _, _, err := RunUpperBoundCheck(ub); err == nil {
		t.Error("sharded upper-bound check accepted")
	}
}

// TestSharedCollectorScopedPerRun runs a parallel sweep against one shared
// metrics Collector and requires EXACT counter totals: every simulation must
// have received its own run-scoped view (a shared placement-matching map
// would drop or cross-pair observations under concurrency).
func TestSharedCollectorScopedPerRun(t *testing.T) {
	col := metrics.NewCollector()
	cfg := tinyFig4()
	cfg.Workers = 4
	cfg.Observer = col
	if _, err := RunFigure4(cfg); err != nil {
		t.Fatal(err)
	}
	shards := cfg.ShardCount()
	snap := col.Snapshot()
	if m, _ := snap.Find(metrics.MetricItemsPlaced); m.Value != float64(shards*cfg.N) {
		t.Errorf("items placed = %v, want %d", m.Value, shards*cfg.N)
	}
	if m, _ := snap.Find(metrics.MetricPlacementSeconds); m.Count != uint64(shards*cfg.N) {
		t.Errorf("placement observations = %d, want %d (views not per-run?)", m.Count, shards*cfg.N)
	}
	if m, _ := snap.Find(metrics.MetricOpenBins); m.Value != 0 {
		t.Errorf("open bins = %v, want 0 after all runs closed", m.Value)
	}
}

// TestConcurrentExperimentsShareNothing runs several full experiments at
// once; results must match a lone run exactly (no cross-talk through package
// state), and -race must stay silent.
func TestConcurrentExperimentsShareNothing(t *testing.T) {
	want, err := RunFigure4(tinyFig4())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := tinyFig4()
			cfg.Workers = 1 + g%3
			got, err := RunFigure4(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got.Cells, want.Cells) {
				t.Errorf("goroutine %d: concurrent run diverged", g)
			}
		}(g)
	}
	wg.Wait()
}
