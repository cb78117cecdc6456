package main

// -benchjson: convert `go test -bench` text output into the machine-readable
// BENCH_core.json perf baseline. Kept inside dvbpbench (rather than a new
// command) so the experiment harness remains the single benchmarking entry
// point; `make bench-json` is the canonical caller.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// BenchReport is the BENCH_core.json document. Baseline, when present, holds
// the pre-change numbers the current run is compared against, so a single
// artefact records the before/after pair.
type BenchReport struct {
	Schema string `json:"schema"`
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	// Pkg is set only when every row comes from one package; each row
	// names its own package either way.
	Pkg string `json:"pkg,omitempty"`
	CPU string `json:"cpu,omitempty"`
	// NProc is the machine's online CPU count, from an "nproc: N" line
	// (make bench-json writes one); 0 when the input has none.
	NProc int `json:"nproc,omitempty"`
	// GOMAXPROCS is read off the benchmark names' -N suffix (none means 1).
	GOMAXPROCS int          `json:"gomaxprocs"`
	Benchmarks []BenchEntry `json:"benchmarks"`
	Baseline   *BenchReport `json:"baseline,omitempty"`
}

// BenchEntry aggregates every `-count` repetition of one benchmark. Names are
// benchstat-comparable (the -<GOMAXPROCS> suffix is stripped, as benchstat
// does); per-op values are means across repetitions.
type BenchEntry struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Runs       int                `json:"runs"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BPerOp     float64            `json:"b_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// parseBenchOutput parses `go test -bench` text (the format benchstat reads)
// into a BenchReport, averaging repeated runs of the same benchmark.
func parseBenchOutput(r io.Reader) (*BenchReport, error) {
	rep := &BenchReport{Schema: "dvbp-bench/v1"}
	type agg struct {
		pkg   string
		runs  int
		iters int64
		sums  map[string]float64 // unit -> summed value
	}
	byName := make(map[string]*agg)
	var order []string
	pkg := ""
	pkgs := make(map[string]bool)

	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "nproc:"):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "nproc:")))
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad nproc line %q", line)
			}
			rep.NProc = n
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := fields[0]
		// Strip the trailing -<GOMAXPROCS> the testing package appends
		// (it appends none when GOMAXPROCS is 1).
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name, procs = name[:i], n
			}
		}
		if rep.GOMAXPROCS == 0 {
			rep.GOMAXPROCS = procs
		} else if procs != rep.GOMAXPROCS {
			return nil, fmt.Errorf("benchjson: benchmarks ran at GOMAXPROCS %d and %d; convert one -cpu value per file", rep.GOMAXPROCS, procs)
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		a := byName[name]
		if a == nil {
			a = &agg{pkg: pkg, sums: make(map[string]float64)}
			byName[name] = a
			order = append(order, name)
			pkgs[pkg] = true
		}
		a.runs++
		a.iters += iters
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			a.sums[fields[i+1]] += v
		}
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("benchjson: no benchmark lines found")
	}
	if len(pkgs) == 1 {
		rep.Pkg = pkg
	}

	for _, name := range order {
		a := byName[name]
		e := BenchEntry{Name: name, Pkg: a.pkg, Runs: a.runs, Iterations: a.iters}
		n := float64(a.runs)
		for unit, sum := range a.sums {
			mean := sum / n
			switch unit {
			case "ns/op":
				e.NsPerOp = mean
			case "B/op":
				e.BPerOp = mean
			case "allocs/op":
				e.AllocsOp = mean
			default:
				if e.Metrics == nil {
					e.Metrics = make(map[string]float64)
				}
				e.Metrics[unit] = mean
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, e)
	}
	sort.Slice(rep.Benchmarks, func(i, j int) bool { return rep.Benchmarks[i].Name < rep.Benchmarks[j].Name })
	return rep, nil
}

func parseBenchFile(path string) (*BenchReport, error) {
	if path == "-" {
		return parseBenchOutput(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rep, err := parseBenchOutput(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// runBenchJSON is the -benchjson mode: convert `in` (a go test -bench text
// dump, "-" = stdin), optionally embed `baselinePath` as the before numbers,
// and write the JSON document to `out` ("" or "-" = stdout).
func runBenchJSON(in, baselinePath, out string) error {
	rep, err := parseBenchFile(in)
	if err != nil {
		return err
	}
	if baselinePath != "" {
		base, err := parseBenchFile(baselinePath)
		if err != nil {
			return err
		}
		base.Baseline = nil // never nest twice
		rep.Baseline = base
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" || out == "-" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}
