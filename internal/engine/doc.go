// Package engine is the resilience runtime: it executes a real
// application under a computational pattern (Section 2 protocol),
// managing level-indexed checkpoints (in-memory and disk), guaranteed
// and partial verifications, and recovery from injected fail-stop and
// silent errors, on real state, with real snapshot/restore and real
// (or oracle) detectors.
//
// Time is virtual: operations advance a clock by their configured
// costs, and error arrivals are driven by exposure clocks
// (faults.Clock). Runtime holds the execution model both protocols
// share — the clocks, the chunk walk, the verifications, the
// checkpoint store and the stopping rule — and the single-level
// protocol lives in Executor, which Run builds, re-arms and runs once;
// multilevel.Executor runs the hierarchy protocol on the same Runtime.
// The Monte-Carlo simulator (internal/sim) is the same Executor run
// with no application: no snapshots or storage, the oracles deciding
// every detection, one executor per worker reseeded in place for every
// run.
//
// The engine is also the actuation point of the adaptive re-planning
// loop (internal/adapt): Config.Boundary is called at every pattern
// boundary with a report snapshot — including the per-clock exposure
// seconds an observer needs to estimate arrival rates — and may swap
// the engine onto a new pattern for subsequent instances. Report
// counts the swaps (PlanSwaps), and Config.TargetWork provides the
// work-based stopping rule that makes runs with different pattern
// lengths directly comparable.
package engine
