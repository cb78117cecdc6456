// Package server is the placement-as-a-service layer: a multi-tenant HTTP
// front end over the steppable engine (internal/core) and its crash-safe
// persistence (internal/persist). Each tenant is an independent dynamic DVBP
// run — its own policy, dimension, seed, op log and checkpoints under one
// directory — driven by a single worker goroutine that batches requests from
// a bounded queue and group-commits them.
//
// The durability contract is one fsync barrier per batch: client operations
// are appended to the tenant's op log and synced before the engine steps, and
// clients are acknowledged once the engine has applied them. The op log is
// the tenant's only log: an acknowledged placement survives SIGKILL because
// the engine is deterministic, so recovery rebuilds every placement from the
// op log, starting from the newest snapshot. That protocol and recovery
// belong to persist.DynamicRun; this package adds queueing, batching, HTTP
// error mapping, the retry/degrade/poison policy for a failed barrier, and
// metrics (DESIGN.md §12).
//
// Backpressure is explicit: a full tenant queue answers 429, an expired
// request deadline or a draining server answers 503, and /healthz–/readyz
// split process liveness from serving readiness so a restart harness can wait
// for recovery to finish before resuming load.
package server
