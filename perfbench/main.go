// Command perfbench is the repository benchmark. It runs the placement
// server in-process behind a loopback TCP listener, drives it from two
// keep-alive connections (an open loop at a fixed rate, then a closed loop),
// restarts it and audits every acknowledgement, simulates two fleet traces
// offline, and prints one JSON result line. README.md lists the workloads,
// why the timed figures are per-layer metrics, and which metric each
// per-layer metric should move.
//
//	go build -o perfbench . && ./perfbench --workload serve-spread --seed 1 --seconds 40 --trace 0
//
// It writes only under .bench_build/ in the working directory.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strings"
	"time"
)

// setupRepeats: set-up runs this many times and setup_s is the median; the
// last set-up is the one measured. recoverRepeats: after the rounds, the
// final state is recovered this many more times and persist.recover_s is
// the median.
const (
	setupRepeats   = 5
	recoverRepeats = 9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "serve-spread or serve-hot")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 40, "measured seconds per run, split among the phases")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run printing per-layer metrics")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) (*result, error) {
	if _, ok := workloads[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-spread or serve-hot)", name)
	}
	if seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	fmt.Println(envLine(work, name, seed, traced))

	var st *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		p, err := newPlan(name, seed, seconds)
		if err != nil {
			return nil, err
		}
		s, err := openStack(p, filepath.Join(work, fmt.Sprintf("data%d", i)), tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			s.teardown()
		} else {
			st = s
		}
	}
	defer st.teardown()
	p := st.p

	// The open loop, the closed loop, a restart and a slice of the
	// simulation section interleave over the rounds, so each samples the
	// whole run rather than one stretch of a shared host's weather. A traced
	// run traces every second round; the untraced rounds give the tracing
	// overhead within the same run.
	var open, openTraced samples
	var rates, recovers []float64
	var recoverRead, disk int64
	var peakHeap uint64
	win := &window{}
	sim := newSimmer(p.traces, traced)
	for r := 0; r < rounds; r++ {
		tracing := traced && r%2 == 1
		if tracing {
			if err := win.begin(st); err != nil {
				return nil, err
			}
		}
		into := &open
		if tracing {
			into = &openTraced
		}
		if err := st.openPhase(p.open, r, into); err != nil {
			return nil, err
		}
		if counts := st.closedPhase(p.closedOps); !tracing {
			rates = append(rates, counts...)
		}
		if tracing {
			if err := win.end(st); err != nil {
				return nil, err
			}
		}
		peakHeap = max(peakHeap, liveHeap())
		ready, read, d, err := st.restart()
		if err != nil {
			return nil, err
		}
		recovers = append(recovers, ready.Seconds())
		recoverRead, disk = read, d
		if err := sim.runFor(p.sim); err != nil {
			return nil, err
		}
	}

	// Recover the final state again and again: each recovery reads the same
	// files, so their times differ only by the host's weather.
	var finals []float64
	for i := 0; i < recoverRepeats; i++ {
		ready, _, _, err := st.restart()
		if err != nil {
			return nil, err
		}
		finals = append(finals, ready.Seconds())
	}

	var problems []string
	check := func(err error) {
		if err != nil {
			problems = append(problems, err.Error())
		}
	}
	check(sim.finish())
	// The last restart recovered everything: every acknowledgement must be
	// there, and replaying each tenant's acknowledged op stream offline must
	// land every placement on the bin the server acknowledged.
	acks := st.allAcks()
	check(audit(st.srv, p.tenants, acks))
	var coreReplay, persistReplay time.Duration
	placed := 0
	for i, t := range p.tenants {
		d, err := replay(t.cfg, acks[i], false)
		check(err)
		coreReplay += d
		if traced {
			d, err := replay(t.cfg, acks[i], true)
			check(err)
			persistReplay += d
		}
		placed += len(acks[i])
	}

	res := &result{Metrics: map[string]metric{}, Attempted: sim.runs}
	for _, round := range p.preload {
		res.Attempted += len(round)
	}
	stale := 0
	for _, c := range st.lc.conns {
		res.Attempted += c.attempted
		res.Failed += c.failed
		stale += c.stale
		if c.firstErr != "" {
			problems = append(problems, fmt.Sprintf("connection %d: %d of %d requests failed, first: %s", c.id, c.failed, c.attempted, c.firstErr))
		}
	}
	if stale > 0 {
		problems = append(problems, fmt.Sprintf("%d stale_arrival refusals: per-tenant ordering broke", stale))
	}
	// Each connection is opened at set-up and reopened after every restart.
	if n, want := st.lc.dials.Load(), int64(numConns*(rounds+recoverRepeats+1)); n != want {
		problems = append(problems, fmt.Sprintf("load client opened %d connections, want %d", n, want))
	}
	// The pacer's lateness is inside every latency; past these limits it,
	// not the server, would decide the numbers.
	lagP50, lagP99 := median(open.lag), quantile(open.lag, 0.99)
	placeP50, placeP99 := median(values(open.place)), perGroup(open.place, 0.99)
	if lagP50 > placeP50/4 || lagP99 > placeP99 {
		problems = append(problems, fmt.Sprintf("pacer lag p50/p99 %.3f/%.3fms too large for place p50/p99 %.3f/%.3fms", lagP50, lagP99, placeP50, placeP99))
	}

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d place and %d read samples in the open loop, %d placements, %d simulations, setups %.3v s, recoveries %.3v s then %.3v s, lag p50/p99 %.3f/%.3f ms\n",
		name, seed, len(open.place), len(open.read), placed, sim.runs, setups, recovers, finals, lagP50, lagP99)
	// The timed figures, from untraced rounds and unobserved simulation
	// calls only. On the shared reference host they move with the other
	// tenants' load by more than the largest bound a gate may use (README.md),
	// so they are per-layer metrics of the traced run; an untraced run
	// prints them on standard error.
	timed := map[string]metric{
		"client.place_p50_ms": {placeP50, "ms"},
		"client.place_rps":    {median(rates) / rateWindow.Seconds(), "1/s"},
		"client.read_p50_ms":  {median(values(open.read)), "ms"},
		"persist.recover_s":   {median(finals), "s"},
	}
	for t, tr := range p.traces {
		timed["core."+tr.name+".items_per_s"] = metric{sim.itemsPerSec(t), "1/s"}
	}
	if traced {
		res.Metrics = layerMetrics(st, win, open, openTraced, sim, recoverRead, coreReplay, persistReplay, placed)
		for k, m := range timed {
			res.Metrics[k] = m
		}
		if share := res.Metrics["trace.latency_accounted_share"].Value; name == "serve-spread" && (share < 0.85 || share > 1.15) {
			fmt.Fprintf(os.Stderr, "perfbench: warning: transport + handler self + fsync medians account for %.2f of the client median, outside 0.85-1.15\n", share)
		}
	} else {
		b, _ := json.Marshal(timed)
		fmt.Fprintf(os.Stderr, "perfbench: timed %s\n", b)
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		put("success_ratio", "ratio", ratio(float64(res.Attempted-res.Failed), float64(res.Attempted)))
		put("disk_bytes_per_place", "bytes", ratio(float64(disk), float64(placed)))
		put("sim_cost_ratio", "ratio", sim.costRatio())
		put("peak_heap_mb", "MB", float64(peakHeap)/1e6)
		put("setup_s", "s", median(setups))
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", p)
	}
	res.Correct = len(problems) == 0
	return res, nil
}

// liveHeap collects garbage and returns the bytes still reachable: the
// server's state plus the benchmark's own inputs, at a point of the run
// that does not depend on when the collector last happened to run.
func liveHeap() uint64 {
	runtime.GC()
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// envLine is the environment header printed before the result.
func envLine(work, name string, seed int64, traced bool) string {
	env := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "data_fs": fsType(work), "seed": seed, "commit": commit(),
		"workload": name, "trace": traced,
	}
	b, _ := json.Marshal(env)
	return "# env " + string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the toolchain stamped into the binary; a build
// outside a git checkout has none.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}
