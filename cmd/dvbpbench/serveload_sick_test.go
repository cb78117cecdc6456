package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dvbp/internal/metrics"
	"dvbp/internal/server"
	"dvbp/internal/vfs"
)

// TestServeLoadSurvivesSickDisk is the degraded-mode acceptance run from the
// client's side: a full -serve-load against a server whose disk refuses
// fsyncs at planned moments mid-load (one ENOSPC, one EIO burst). The
// affected tenants degrade and answer 503, the load driver retries through
// the window, every item is eventually acknowledged, and -serve-verify must
// find every acknowledgement intact — the sick disk cost latency, never an
// acknowledged placement.
func TestServeLoadSurvivesSickDisk(t *testing.T) {
	// One-shot faults well past the store-open and tenant-create window, so
	// they land under load: every place costs one op-log fsync, and
	// 2 tenants x 40 items supply about ninety, the last few of them
	// snapshot fsyncs at each tenant's first checkpoint (retries after a
	// refusal add a few more).
	plan := []vfs.Fault{
		{Kind: vfs.FaultSync, Nth: 45, Err: syscall.EIO},
		{Kind: vfs.FaultSync, Nth: 60, Err: syscall.ENOSPC},
		{Kind: vfs.FaultSync, Nth: 75, Err: syscall.ENOSPC},
	}
	inj := vfs.NewInjector(vfs.OS{}, plan...)
	reg := metrics.NewRegistry()
	store, err := server.OpenStore(t.TempDir(), server.Limits{
		FS:           inj,
		RetryBackoff: 100 * time.Microsecond,
	}, reg)
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	t.Cleanup(store.Close)
	ts := httptest.NewServer(server.New(store, reg))
	t.Cleanup(ts.Close)

	acks := filepath.Join(t.TempDir(), "acks.jsonl")
	if err := runServeLoad(ts.URL, acks, 2, 40, 2, 11); err != nil {
		t.Fatalf("serve-load through the sick window: %v", err)
	}
	data, err := os.ReadFile(acks)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2*40 {
		t.Fatalf("recorded %d acks, want %d — the driver lost items to the sick disk", lines, 2*40)
	}

	snap := reg.Snapshot()
	if m, ok := snap.Find("dvbp_server_errors_total"); !ok || m.Value < 1 {
		t.Fatalf("errors_total %v — the fault plan never made the server refuse", m.Value)
	}
	if m, ok := snap.Find("dvbp_server_degraded_tenants"); !ok || m.Value != 0 {
		t.Fatalf("degraded_tenants %v after the load drained, want 0", m.Value)
	}

	// The plan's last fault must have fired: a fault that never lands tests
	// nothing.
	if n, last := inj.Counts()[vfs.FaultSync], plan[len(plan)-1].Nth; n < last {
		t.Fatalf("the run performed %d fsyncs; the fault planned at the %dth never fired", n, last)
	}

	if err := runServeVerify(ts.URL, acks); err != nil {
		t.Fatalf("serve-verify after the sick window: %v", err)
	}
}
