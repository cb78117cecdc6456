package main

import (
	"fmt"
	"time"

	"dvbp/internal/check"
	"dvbp/internal/core"
)

// simmer runs the offline section: core.Simulate over every (trace, policy)
// pair in turn, a slice of time per round, checking every result with
// check.Result and that a pair always costs the same. A traced run
// alternates observed and unobserved calls; only unobserved calls are timed
// for items per second, since the observer's clock reads slow a call.
type simmer struct {
	traces []simTrace
	traced bool
	next   int // position in the (trace, policy) cycle
	runs   int

	times map[[2]int][]float64 // (trace, policy) → seconds per unobserved run
	costs map[[2]int]float64

	// Observed runs only, per trace.
	selectNs  map[int][]float64
	fitChecks map[int]int64
	selfNs    map[int]float64 // Simulate time minus select time
	items     map[int]int
}

// selectClock times each decision from BeforePack to AfterSelect.
type selectClock struct {
	core.BaseObserver
	t0   time.Time
	ns   []float64
	fits int64
}

func (s *selectClock) BeforePack(core.Request, []*core.Bin) { s.t0 = time.Now() }

func (s *selectClock) AfterSelect(_ core.Request, _ *core.Bin, fitChecks int) {
	s.ns = append(s.ns, float64(time.Since(s.t0).Nanoseconds()))
	s.fits += int64(fitChecks)
}

func newSimmer(traces []simTrace, traced bool) *simmer {
	return &simmer{
		traces: traces, traced: traced,
		times: map[[2]int][]float64{}, costs: map[[2]int]float64{},
		selectNs: map[int][]float64{}, fitChecks: map[int]int64{}, selfNs: map[int]float64{}, items: map[int]int{},
	}
}

func (s *simmer) pairs() [][2]int {
	var out [][2]int
	for t, tr := range s.traces {
		for p := range tr.policies {
			out = append(out, [2]int{t, p})
		}
	}
	return out
}

// runFor simulates pairs in turn until budget is spent.
func (s *simmer) runFor(budget time.Duration) error {
	pairs := s.pairs()
	for start := time.Now(); time.Since(start) < budget; s.next = (s.next + 1) % len(pairs) {
		// The number of pairs is odd, so each pair alternates too.
		if err := s.run(pairs[s.next], s.traced && s.runs%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

func (s *simmer) run(pair [2]int, observed bool) error {
	tr := s.traces[pair[0]]
	name := tr.policies[pair[1]]
	p, err := core.NewPolicy(name, 1)
	if err != nil {
		return err
	}
	var opts []core.Option
	clock := &selectClock{}
	if observed {
		opts = append(opts, core.WithObserver(clock))
	}
	t0 := time.Now()
	res, err := core.Simulate(tr.list, p, opts...)
	d := time.Since(t0)
	if err != nil {
		return fmt.Errorf("simulate %s/%s: %w", tr.name, name, err)
	}
	if err := check.Result(tr.list, res); err != nil {
		return fmt.Errorf("simulate %s/%s: %w", tr.name, name, err)
	}
	if c, seen := s.costs[pair]; seen && c != res.Cost {
		return fmt.Errorf("simulate %s/%s: cost %v differs from the first run's %v", tr.name, name, res.Cost, c)
	}
	s.costs[pair] = res.Cost
	s.runs++
	if !observed {
		s.times[pair] = append(s.times[pair], d.Seconds())
	} else {
		t := pair[0]
		s.selectNs[t] = append(s.selectNs[t], clock.ns...)
		s.fitChecks[t] += clock.fits
		s.selfNs[t] += float64(d.Nanoseconds()) - sum(clock.ns)
		s.items[t] += tr.list.Len()
	}
	return nil
}

// finish runs any pair the budget never reached, so every pair is checked
// and timed at least once, and every trace of a traced run observed.
func (s *simmer) finish() error {
	for _, pair := range s.pairs() {
		if len(s.times[pair]) == 0 {
			if err := s.run(pair, false); err != nil {
				return err
			}
		}
		if s.traced && s.items[pair[0]] == 0 {
			if err := s.run(pair, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// itemsPerSec is trace t's items times its policies over the sum of each
// policy's best unobserved run time. The runs of a pair are spread over the
// whole run, and the best one is the least disturbed by other tenants of the
// host: on the reference host single runs of one pair differ by up to 2×.
func (s *simmer) itemsPerSec(t int) float64 {
	tr := s.traces[t]
	secs := 0.0
	for p := range tr.policies {
		secs += quantile(s.times[[2]int{t, p}], 0)
	}
	return ratio(float64(tr.list.Len()*len(tr.policies)), secs)
}

// costRatio is the mean over pairs of usage-time cost over the trace's
// Lemma-1 lower bound.
func (s *simmer) costRatio() float64 {
	total := 0.0
	for pair, c := range s.costs {
		total += c / s.traces[pair[0]].lb
	}
	return ratio(total, float64(len(s.costs)))
}
