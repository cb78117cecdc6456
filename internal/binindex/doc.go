// Package binindex implements the sub-linear indexed bin store behind the
// engine's Any Fit policies: a treap (an order-statistic tree with hashed
// priorities) over the open bins, augmented with residual-capacity pruning metadata, that answers
// every policy's Select as a single "leftmost feasible entry in key order"
// query.
//
// # One query, seven policies
//
// Each Any Fit policy of the source paper reduces its Select to a
// feasibility-filtered extremum over the open bins, and every such extremum
// is the *first feasible entry* under a policy-specific total order:
//
//	First Fit      key (0, +binID)       — earliest-opened feasible bin
//	Last Fit       key (0, -binID)       — latest-opened feasible bin
//	Best Fit (w)   key (-w(bin), binID)  — max load measure, ties to lowest ID
//	Worst Fit (w)  key (+w(bin), binID)  — min load measure, ties to lowest ID
//	Move To Front  recency keys          — most recently packed feasible bin
//	Random Fit     key (0, +binID)       — reservoir sample over AscendFeasible
//
// Keys are (float64, int64) pairs compared lexicographically. Because bin IDs
// are unique, keys are unique, and the first feasible entry in key order is
// exactly the bin the policy's linear scan would have chosen — including its
// tie-breaking — so indexed and scanned decisions are bit-identical (the
// contract DESIGN.md §11 specifies and the differential suites enforce).
//
// # Structure and complexity
//
// The store is a treap in a flat node arena (int32 links, free-list
// recycling), so steady-state Insert/Remove/Update/queries allocate nothing.
// Its priorities are a fixed hash of the bin ID, so its shape is a pure
// function of its contents; an AVL tree's shape would depend on rotation
// history and break restore-stable fit-check counts (DESIGN.md §11).
// Every node carries order-statistic counts plus two pruning augmentations
// over its subtree:
//
//   - minLoad: the component-wise minimum load vector. A subtree can contain
//     a feasible bin only if minLoad itself fits the item; because float64
//     rounding is monotone, this prune is exact — it never skips a feasible
//     bin (DESIGN.md §11 gives the argument).
//   - a 64-bucket residual-capacity bitmask: bins are bucketed by their
//     maximum per-dimension residual, and a subtree whose occupied buckets
//     all lie below the item's largest component cannot fit it. The mask is
//     a conservative O(1) pre-filter in front of the O(d) minLoad check.
//
// FirstFeasible therefore runs in expected O(d·log n) for d = 1 (the
// minLoad prune is exact and sufficient in one dimension). For d ≥ 2 the
// component-wise prune admits every subtree once bins are imbalanced in
// opposite dimensions, so the worst case is O(d·n), and it is reached in
// practice: in BENCH_core.json's FleetSelect rows the index loses to the
// linear scan for Best Fit at d = 2 (about 5.6 ms vs 2.0 ms per decision at
// n = 10⁵, 189 ms vs 36 ms at n = 10⁶), while Worst Fit at d = 2 stays
// logarithmic.
//
// The engine owns index maintenance (insert on open, update on pack/depart,
// remove on close/crash, rebuild on checkpoint restore); policies only issue
// queries. See core.IndexedPolicy for the binding contract.
package binindex
