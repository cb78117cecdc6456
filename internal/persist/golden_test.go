package persist

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dvbp/internal/core"
	"dvbp/internal/vector"
	"dvbp/internal/vfs"
)

// The golden corpus (testdata/golden, see its README) pins placement
// decisions across binary versions. A server acknowledges a placement once
// its op is durable, so a recovered tenant's placements are whatever the
// current binary derives from the op log: a decision change would silently
// rewrite acknowledged history. Each case is a recorded op log plus the
// placements the recording run committed.

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/golden with the current engine instead of checking it")

// goldenCase names one recorded run: its identity and workload seed.
type goldenCase struct {
	name   string
	dim    int
	policy string
	seed   int64 // policy seed (RandomFit)
	wl     int64 // workload seed
}

var goldenCases = []goldenCase{
	{"d1-firstfit", 1, "FirstFit", 0, 1},
	{"d1-bestfit", 1, "BestFit", 0, 2},
	{"d2-movetofront", 2, "MoveToFront", 0, 3},
	{"d2-worstfit", 2, "WorstFit", 0, 4},
	{"d2-randomfit-seed7", 2, "RandomFit", 7, 5},
	{"d2-farb", 2, "FARB", 0, 6},
	{"d5-firstfit", 5, "FirstFit", 0, 7},
	{"d5-bestfit", 5, "BestFit", 0, 8},
	{"d1-nextfit", 1, "NextFit", 0, 9},
	{"d2-lastfit", 2, "LastFit", 0, 10},
	{"d2-dotproduct", 2, "DotProduct", 0, 11},
	{"d2-l2residual", 2, "L2Residual", 0, 12},
	{"d2-adaptivehybrid", 2, "AdaptiveHybrid", 0, 13},
}

func (c goldenCase) meta() RunMeta { return NewDynamicRunMeta(c.dim, c.policy, c.seed, "") }

// goldenOps generates a case's op stream: 64 items in bursts of one to four
// same-time arrivals, time steps of 0 to 1.5, and an advance after about one
// burst in four.
func goldenOps(c goldenCase) []opRecord {
	rng := rand.New(rand.NewSource(c.wl))
	var ops []opRecord
	now := 0.0
	for items := 0; items < 64; {
		for b := 1 + rng.Intn(4); b > 0 && items < 64; b-- {
			size := vector.New(c.dim)
			for d := range size {
				size[d] = 0.05 + 0.55*rng.Float64()
			}
			ops = append(ops, opRecord{Kind: opItem, Arrival: now, Departure: now + 0.5 + 6*rng.Float64(), Size: size})
			items++
		}
		now += 0.5 * float64(rng.Intn(4))
		if rng.Intn(4) == 0 {
			ops = append(ops, opRecord{Kind: opAdvance, To: now})
		}
	}
	return ops
}

// commitOps runs each op through r as its own group commit, the way a server
// tenant runs a single-request batch.
func commitOps(t *testing.T, r *DynamicRun, ops []opRecord) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.Kind == opItem {
			if err = r.AdmitItem(op.Arrival, op.Departure, op.Size); err == nil {
				if err = r.SyncOps(); err == nil {
					_, err = r.Place(op.Arrival, op.Departure, op.Size)
				}
			}
		} else if err = r.AdmitAdvance(op.To); err == nil {
			if err = r.SyncOps(); err == nil {
				_, err = r.Advance(op.To)
			}
		}
		if err != nil {
			t.Fatalf("op %d (%c): %v", i, op.Kind, err)
		}
	}
}

// placementsOf returns the placements e has committed so far.
func placementsOf(t *testing.T, e *core.Engine) []core.Placement {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap.Result.Placements
}

// goldenPath names a case's file with the given suffix.
func goldenPath(c goldenCase, suffix string) string {
	return filepath.Join("testdata", "golden", c.name+suffix)
}

// recordGolden runs a case live and writes its op log and placements.
func recordGolden(t *testing.T, c goldenCase) {
	dir := t.TempDir()
	r, err := CreateDynamic(c.meta(), Config{Dir: dir})
	if err != nil {
		t.Fatalf("CreateDynamic: %v", err)
	}
	commitOps(t, r, goldenOps(c))
	var b strings.Builder
	for _, p := range placementsOf(t, r.Engine()) {
		fmt.Fprintf(&b, "%d %d %s\n", p.ItemID, p.BinID, strconv.FormatFloat(p.Time, 'g', -1, 64))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ops, err := os.ReadFile(filepath.Join(dir, opsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(c, "")), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(c, ".ops.dvbp"), ops, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(c, ".placements"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readGoldenPlacements parses a case's "item bin time" lines.
func readGoldenPlacements(t *testing.T, c goldenCase) []core.Placement {
	t.Helper()
	data, err := os.ReadFile(goldenPath(c, ".placements"))
	if err != nil {
		t.Fatal(err)
	}
	var out []core.Placement
	for i, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var p core.Placement
		if _, err := fmt.Sscanf(line, "%d %d %g", &p.ItemID, &p.BinID, &p.Time); err != nil {
			t.Fatalf("%s line %d: %q: %v", c.name, i+1, line, err)
		}
		out = append(out, p)
	}
	return out
}

// TestGoldenCorpusReplays recovers every recorded op log through OpenDynamic
// with no snapshot, so each placement is regenerated by the current engine,
// and requires the recorded placements exactly.
func TestGoldenCorpusReplays(t *testing.T) {
	for _, c := range goldenCases {
		t.Run(c.name, func(t *testing.T) {
			if *updateGolden {
				recordGolden(t, c)
				return
			}
			ops, err := os.ReadFile(goldenPath(c, ".ops.dvbp"))
			if err != nil {
				t.Fatal(err)
			}
			m := vfs.NewMem()
			if err := m.MkdirAll("g", 0o755); err != nil {
				t.Fatal(err)
			}
			f, err := m.OpenFile("g/"+opsFile, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
			if err == nil {
				if _, err = f.Write(ops); err == nil {
					err = f.Close()
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			r, _, err := OpenDynamic(c.meta(), Config{Dir: "g", Label: c.name, FS: m})
			if err != nil {
				t.Fatalf("OpenDynamic: %v", err)
			}
			defer r.Close()

			got, want := placementsOf(t, r.Engine()), readGoldenPlacements(t, c)
			if len(got) != len(want) {
				t.Fatalf("recovered %d placements, recorded %d", len(got), len(want))
			}
			for i, w := range want {
				if g := got[i]; g.ItemID != w.ItemID || g.BinID != w.BinID || g.Time != w.Time {
					t.Fatalf("placement %d: item %d bin %d time %g, recorded item %d bin %d time %g",
						i, g.ItemID, g.BinID, g.Time, w.ItemID, w.BinID, w.Time)
				}
			}
		})
	}
}
