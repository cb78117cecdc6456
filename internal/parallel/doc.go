// Package parallel provides the deterministic fan-out machinery the
// experiment harness uses to run thousands of independent simulation trials
// across CPU cores.
//
// # Scheduler
//
// Run hands shard indices to a bounded set of workers from one shared atomic
// counter. A worker takes a single index at a time, so skewed shard costs (a
// few slow exact-OPT shards among thousands of cheap heuristic ones) balance
// at the finest grain. A shard is a whole simulation, around a millisecond,
// so one atomic add per shard is negligible.
//
// # Determinism contract
//
// Every shard computes its behaviour from its index alone (seeded via
// SeedFor) and callers collect results by index, so the outcome is
// bit-identical regardless of GOMAXPROCS, worker count or completion order.
// Errors cancel the remaining work; the reported error is the
// smallest-indexed failure observed before cancellation took effect — again
// independent of scheduling. Worker panics are captured and rethrown as
// *PanicError rather than tearing down the process.
//
// # API
//
//   - Run is the primitive: n indexed shards, with RunOptions for the worker
//     count and a context for cancellation.
//   - SeedFor splits a base seed into per-shard streams with a SplitMix64
//     step.
//
// The `make stress` target repeatedly runs this package's tests under the
// race detector with GOMAXPROCS forced above the core count to shake out
// rare interleavings.
package parallel
