package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: dvbp/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkChurnHotPath/policy=FirstFit/d=2-8         	      30	  19073723 ns/op	    322119 events/s	 4394930 B/op	   18714 allocs/op
BenchmarkChurnHotPath/policy=FirstFit/d=2-8         	      30	  19067915 ns/op	    322218 events/s	 4394928 B/op	   18714 allocs/op
BenchmarkChurnHotPath/policy=BestFit/d=2-8          	      30	  19215328 ns/op	    319746 events/s	 4394930 B/op	   18714 allocs/op
PASS
ok  	dvbp/internal/core	16.496s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "dvbp-bench/v1" {
		t.Errorf("schema = %q", rep.Schema)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "dvbp/internal/core" {
		t.Errorf("env header not parsed: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2 (repetitions aggregated): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	// Sorted by name: BestFit first.
	ff := rep.Benchmarks[1]
	if ff.Name != "BenchmarkChurnHotPath/policy=FirstFit/d=2" {
		t.Fatalf("name = %q (GOMAXPROCS suffix must be stripped)", ff.Name)
	}
	if ff.Runs != 2 || ff.Iterations != 60 {
		t.Errorf("runs=%d iterations=%d, want 2/60", ff.Runs, ff.Iterations)
	}
	if want := (19073723.0 + 19067915.0) / 2; math.Abs(ff.NsPerOp-want) > 1e-6 {
		t.Errorf("ns_per_op = %v, want %v", ff.NsPerOp, want)
	}
	if ff.AllocsOp != 18714 {
		t.Errorf("allocs_per_op = %v, want 18714", ff.AllocsOp)
	}
	if got := ff.Metrics["events/s"]; math.Abs(got-(322119.0+322218.0)/2) > 1e-6 {
		t.Errorf("events/s = %v", got)
	}
}

func TestParseBenchOutputRejectsEmpty(t *testing.T) {
	if _, err := parseBenchOutput(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("want error for input with no benchmark lines")
	}
}

func TestRunBenchJSONWithBaseline(t *testing.T) {
	dir := t.TempDir()
	cur := filepath.Join(dir, "cur.txt")
	base := filepath.Join(dir, "base.txt")
	out := filepath.Join(dir, "BENCH_core.json")
	if err := os.WriteFile(cur, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runBenchJSON(cur, base, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if rep.Baseline == nil || len(rep.Baseline.Benchmarks) != 2 {
		t.Fatalf("baseline section missing or wrong: %+v", rep.Baseline)
	}
	if rep.Baseline.Baseline != nil {
		t.Error("baseline must not nest a further baseline")
	}
}

// TestParseBenchOutputMultiPackage: rows from several packages each carry
// their own package, the header names none, and the header records the CPU
// count and the GOMAXPROCS the benchmarks ran at.
func TestParseBenchOutputMultiPackage(t *testing.T) {
	in := "nproc: 2\n" + sampleBenchOutput + `pkg: dvbp/internal/server
BenchmarkServerPlaceThroughput/clients=1-8	10	900000 ns/op
`
	rep, err := parseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pkg != "" || rep.NProc != 2 || rep.GOMAXPROCS != 8 {
		t.Errorf("header pkg=%q nproc=%d gomaxprocs=%d, want \"\", 2, 8", rep.Pkg, rep.NProc, rep.GOMAXPROCS)
	}
	want := map[string]string{
		"BenchmarkChurnHotPath/policy=BestFit/d=2":  "dvbp/internal/core",
		"BenchmarkChurnHotPath/policy=FirstFit/d=2": "dvbp/internal/core",
		"BenchmarkServerPlaceThroughput/clients=1":  "dvbp/internal/server",
	}
	for _, e := range rep.Benchmarks {
		if e.Pkg != want[e.Name] {
			t.Errorf("%s: pkg %q, want %q", e.Name, e.Pkg, want[e.Name])
		}
	}

	// GOMAXPROCS 1 leaves no suffix; mixing it with -8 rows is refused.
	if _, err := parseBenchOutput(strings.NewReader(in + "BenchmarkOther	10	5 ns/op\n")); err == nil {
		t.Error("mixed GOMAXPROCS accepted")
	}
}
