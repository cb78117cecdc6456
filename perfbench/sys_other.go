//go:build !linux

package main

import "time"

// pacer falls back to a Go timer off Linux; client.gen_lag_p99_ms shows how
// late it wakes.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (*pacer) close() {}

func fsType(string) string { return "unknown" }
