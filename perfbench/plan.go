package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"dvbp/internal/item"
	"dvbp/internal/lowerbound"
	"dvbp/internal/server"
	"dvbp/internal/vector"
	"dvbp/internal/workload"
)

// The traffic constants every workload shares. The open loop runs at one
// fixed rate, well below the closed-loop capacity (about 3500 placements/s
// on serve-spread on the two-CPU reference host), rather than at the
// highest rate that meets a latency limit: on a shared host that rate does
// not repeat from run to run.
const (
	openRate   = 800.0 // phase-1 requests per second, all connections together
	numConns   = 2     // keep-alive load connections (= nproc of the reference box)
	warmOps    = 128   // closed-loop warm-up requests at the end of set-up
	rounds     = 6     // the phases interleave in this many rounds (even: see tracing)
	readShare  = 1.0 / 8
	hotReads   = 1.0 / 16
	hotPreload = 20000 // placements the hot tenant holds before the clock starts
	preloadFan = 64    // concurrent preload requests (= default BatchMax)

	// Shares of --seconds meant for the open loop, the closed loop and the
	// simulation section. The closed loop is a fixed number of requests,
	// closedRate per second of its share, so the state a restart recovers
	// does not depend on how fast the disk happened to be.
	openShare, closedShare, simShare = 0.35, 0.3, 0.35
)

type opKind uint8

const (
	opPlace opKind = iota
	opAdvance
	opStatus
	opPlacements
)

// op is one pre-encoded request of the schedule. Its due time in the open
// loop is seq/openRate after the phase starts.
type op struct {
	kind   opKind
	tenant int
	seq    int
	body   []byte // place/advance JSON, encoded during set-up
	// Place requests: the departure the server must derive. Explicit places
	// carry arrival and departure; duration-only places (explicit=false)
	// arrive at the tenant's watermark and depart dur later.
	explicit  bool
	departure float64
	dur       float64
	size      vector.Vector
}

// tenantPlan is one tenant the workload creates, with the request paths
// built once.
type tenantPlan struct {
	cfg        server.TenantConfig
	statusURL  string
	placeURL   string
	advanceURL string
}

// simTrace is one offline fleet trace and the policies run over it.
type simTrace struct {
	name     string
	list     *item.List
	policies []string
	lb       float64 // Lemma-1 lower bound (lowerbound.Compute(list).Best())
}

// plan holds every input of one run, generated from the seed before any
// clock starts. The program under test sees only these inputs.
type plan struct {
	tenants []tenantPlan
	// preload rounds (hot only): each round's places go out concurrently
	// and share one explicit arrival, so the server may batch them.
	preload [][]op
	conns   [numConns][]op
	// Per round: open-loop time, closed-loop requests, simulation time.
	open      time.Duration
	closedOps int
	sim       time.Duration
	traces    []simTrace
}

// workloadSpec shapes one workload; README.md gives the reason for each.
type workloadSpec struct {
	closedRate float64 // closed-loop requests per second of its share
	build      func(p *plan, rng *rand.Rand, seed int64) error
}

var workloads = map[string]workloadSpec{
	"serve-spread": {closedRate: 4000, build: buildSpread},
	"serve-hot":    {closedRate: 1600, build: buildHot},
}

// newPlan generates every input of the named workload from seed.
func newPlan(name string, seed int64, seconds float64) (*plan, error) {
	spec, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-spread or serve-hot)", name)
	}
	perRound := func(share float64) time.Duration {
		return time.Duration(share * seconds / rounds * float64(time.Second))
	}
	p := &plan{
		open: perRound(openShare), sim: perRound(simShare),
		closedOps: int(spec.closedRate * closedShare * seconds / rounds),
	}
	traces, err := fleetTraces(seed)
	if err != nil {
		return nil, err
	}
	p.traces = traces
	if err := spec.build(p, rand.New(rand.NewSource(seed)), seed); err != nil {
		return nil, err
	}
	return p, nil
}

// scheduleLen is how many requests one run may send: warm-up, then per
// round the open loop at openRate and the closed loop's fixed count, with a
// tenth to spare because the two connections' shares of the schedule differ.
func (p *plan) scheduleLen() int {
	return warmOps + rounds*(int(openRate*p.open.Seconds())+p.closedOps)*11/10
}

func (p *plan) addTenant(name string, dim int, policy string, seed, checkpointEvery int64) {
	base := "/v1/tenants/" + name
	p.tenants = append(p.tenants, tenantPlan{
		cfg:       server.TenantConfig{Name: name, Dim: dim, Policy: policy, Seed: seed, CheckpointEvery: checkpointEvery},
		statusURL: base, placeURL: base + "/place", advanceURL: base + "/advance",
	})
}

// fleetTraces builds the two offline traces. They use the bin index in
// opposite ways: on the d=1 paper-uniform trace the index beats the linear
// scan for Best Fit; on the d=2 datacenter trace FARB runs faster on the
// scan. Each is small enough that one core.Simulate call takes at most a
// few hundred milliseconds, so a run holds many calls per (trace, policy)
// pair and the fastest of them is one the host's other tenants left alone.
// The d=2 horizon spans enough burst cycles that sim_cost_ratio spreads
// across seeds by about 0.02.
func fleetTraces(seed int64) ([]simTrace, error) {
	d1, err := workload.Uniform(workload.UniformConfig{D: 1, N: 6000, Mu: 200, T: 440, B: 100}, seed)
	if err != nil {
		return nil, err
	}
	cfg := workload.AzureLike(2)
	cfg.Rate, cfg.Horizon = 50, 600
	d2, err := workload.Datacenter(cfg, seed+1)
	if err != nil {
		return nil, err
	}
	return []simTrace{
		{name: "d1", list: d1, policies: []string{"FirstFit", "BestFit", "MoveToFront"}, lb: lowerbound.Compute(d1).Best()},
		{name: "d2", list: d2, policies: []string{"FirstFit", "BestFit", "WorstFit", "FARB"}, lb: lowerbound.Compute(d2).Best()},
	}, nil
}

// datacenterStream draws a d=2 AzureLike stream of at least n items, in
// arrival order.
func datacenterStream(rate float64, n int, seed int64) ([]item.Item, error) {
	cfg := workload.AzureLike(2)
	cfg.Rate = rate
	// Mean arrivals per unit time under the two-state burst modulation.
	perUnit := rate * (1 + (cfg.BurstFactor-1)*cfg.BurstOn/(cfg.BurstOn+cfg.BurstOff))
	for horizon := 1.25*float64(n)/perUnit + 50; ; horizon *= 1.5 {
		cfg.Horizon = horizon
		l, err := workload.Datacenter(cfg, seed)
		if err != nil {
			return nil, err
		}
		if l.Len() >= n {
			return l.SortedByArrival(), nil
		}
	}
}

// buildSpread: 16 d=2 tenants with mixed policies, each playing its own
// datacenter stream with explicit arrivals, tenant i pinned to connection
// i%2 so its arrivals reach the server in order. Each request is a status
// read (one in eight) or the next place of a random tenant.
func buildSpread(p *plan, rng *rand.Rand, seed int64) error {
	policies := []string{"FirstFit", "BestFit", "WorstFit", "MoveToFront", "FARB", "DotProduct", "L2Residual", "AdaptiveHybrid"}
	const n = 16
	streams := make([][]item.Item, n)
	for i := range streams {
		p.addTenant(fmt.Sprintf("spread%02d", i), 2, policies[i%len(policies)], seed, 1024)
		s, err := datacenterStream(3, p.scheduleLen()/n+1, seed*1000+int64(i))
		if err != nil {
			return err
		}
		streams[i] = s
	}
	next := make([]int, n)
	for seq := 0; seq < p.scheduleLen(); seq++ {
		t := rng.Intn(n)
		if rng.Float64() < readShare {
			p.conns[t%numConns] = append(p.conns[t%numConns], op{kind: opStatus, tenant: t, seq: seq})
			continue
		}
		for k := 0; next[t] == len(streams[t]); k++ {
			if k == n {
				return nil // every stream exhausted
			}
			t = (t + 1) % n
		}
		p.conns[t%numConns] = append(p.conns[t%numConns], explicitPlace(t, seq, streams[t][next[t]]))
		next[t]++
	}
	return nil
}

// buildHot: one BestFit tenant preloaded with hotPreload placements, then
// duration-only places on both connections, clock advances on connection 0
// only (so they stay monotone), and reads — three placements listings of the
// recent tail to one status — in one request of 16.
func buildHot(p *plan, rng *rand.Rand, seed int64) error {
	// Checkpoints of the large state, each followed by a compaction that
	// rewrites the whole op log, come every 4096 events. Recovery replays the
	// op log written since the last one, so the interval bounds how much
	// persist.recover_s depends on where the seed's last checkpoint fell.
	p.addTenant("hot", 2, "BestFit", seed, 4096)
	stream, err := datacenterStream(12, hotPreload+p.scheduleLen(), seed*1000)
	if err != nil {
		return err
	}
	for lo := 0; lo < hotPreload; lo += preloadFan {
		round := make([]op, 0, preloadFan)
		at := stream[lo].Arrival
		for _, it := range stream[lo:min(lo+preloadFan, hotPreload)] {
			it.Departure = at + it.Duration()
			it.Arrival = at
			round = append(round, explicitPlace(0, -1, it))
		}
		p.preload = append(p.preload, round)
	}
	nextAdvance := stream[hotPreload-1].Arrival + 1
	places := 0
	for seq, i := 0, hotPreload; seq < p.scheduleLen() && i < len(stream); seq++ {
		if rng.Float64() < hotReads {
			kind := opPlacements
			if rng.Intn(4) == 0 {
				kind = opStatus
			}
			c := rng.Intn(numConns)
			p.conns[c] = append(p.conns[c], op{kind: kind, seq: seq})
			continue
		}
		it := stream[i]
		if it.Arrival >= nextAdvance {
			body := strconv.AppendFloat([]byte(`{"to":`), it.Arrival, 'g', -1, 64)
			p.conns[0] = append(p.conns[0], op{kind: opAdvance, seq: seq, body: append(body, '}')})
			nextAdvance = it.Arrival + 1
			continue
		}
		i++
		body := strconv.AppendFloat([]byte(`{"duration":`), it.Duration(), 'g', -1, 64)
		body = appendSize(append(body, `,"size":`...), it)
		c := places % numConns
		p.conns[c] = append(p.conns[c], op{kind: opPlace, seq: seq, body: append(body, '}'), dur: it.Duration(), size: it.Size})
		places++
	}
	return nil
}

func explicitPlace(tenant, seq int, it item.Item) op {
	body := strconv.AppendFloat([]byte(`{"arrival":`), it.Arrival, 'g', -1, 64)
	body = strconv.AppendFloat(append(body, `,"departure":`...), it.Departure, 'g', -1, 64)
	body = appendSize(append(body, `,"size":`...), it)
	return op{kind: opPlace, tenant: tenant, seq: seq, body: append(body, '}'), explicit: true, departure: it.Departure, size: it.Size}
}

func appendSize(b []byte, it item.Item) []byte {
	b = append(b, '[')
	for j, s := range it.Size {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, s, 'g', -1, 64)
	}
	return append(b, ']')
}
