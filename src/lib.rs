//! # `cso` — Contention-Sensitive Concurrent Objects
//!
//! A full reproduction of **Mostefaoui & Raynal, “Looking for
//! Efficient Implementations of Concurrent Objects” (2011)**: the
//! abortable stack (Figure 1), the non-blocking stack (Figure 2) and
//! the contention-sensitive, starvation-free stack (Figure 3), built
//! on explicit substrates — counted atomic registers, a lock menu with
//! the §4.4 deadlock-free → starvation-free booster, generic
//! object transformations — and validated by a linearizability checker
//! and a schedule-exploring model checker.
//!
//! This crate is the umbrella: it re-exports every workspace crate
//! under one name. Depend on the individual crates (`cso-stack`,
//! `cso-locks`, …) if you want a narrower dependency.
//!
//! ## The headline result, as a doctest
//!
//! A contention-free operation on the Figure 3 stack takes **no lock
//! and exactly six shared-memory accesses** (Theorem 1):
//!
//! ```
//! use cso::stack::{CsStack, PushOutcome};
//! use cso::memory::counting::CountScope;
//!
//! let stack: CsStack<u32> = CsStack::new(1024, 8); // capacity, processes
//!
//! let scope = CountScope::start();
//! assert_eq!(stack.push(0, 42), PushOutcome::Pushed);
//! assert_eq!(scope.take().total(), 6);
//! assert_eq!(stack.path_stats().locked, 0);
//! ```
//!
//! ## Layer map
//!
//! | Module | Contents |
//! |---|---|
//! | [`memory`] | counted atomic registers, packed words, process registry, slab |
//! | [`locks`] | TAS/TTAS/ticket/CLH/MCS/Peterson/Lamport locks + the §4.4 booster |
//! | [`core`] | `Abortable` objects, progress conditions, Figure 2/3 as generic transformations |
//! | [`stack`] | the paper's three stacks + Treiber, lock-based, elimination baselines |
//! | [`queue`] | the same construction for a bounded FIFO queue + Michael–Scott, lock baselines |
//! | [`deque`] | the HLM obstruction-free deque (paper ref \[8\]) and its boosts — one object per rung of the hierarchy |
//! | [`lincheck`] | history recording + Wing–Gong linearizability checker |
//! | `sched` | (with the `model` feature) the controlled scheduler that model-checks the production structures: exhaustive, seeded-random and replayed schedules, crash injection |
//! | [`metrics`] | live metrics registry (sharded counters, gauges, log-histogram timers), Prometheus/JSON exporters, scrape endpoint |
//! | [`trace`] | feature-gated probe rings, latency histograms, step auditor, Chrome trace export |
//! | [`profile`] | continuous profiling: background ring harvester, online span aggregator, causal (what-if) profiler, live `/profile` + `/spans.json` + `/flamegraph` + `/causal.json` routes |
//! | [`watch`] | online runtime verification: the invariant watchdog, declarative SLOs with burn-rate alerting, `/health` + `/alerts.json` routes, JSONL event export |

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod paper;

pub use cso_core as core;
pub use cso_deque as deque;
pub use cso_lincheck as lincheck;
pub use cso_locks as locks;
pub use cso_memory as memory;
pub use cso_metrics as metrics;
pub use cso_profile as profile;
pub use cso_queue as queue;
/// The deterministic-interleaving runtime (only with the `model`
/// feature): drives the production structures through exhaustive,
/// seeded-random, or replayed schedules, with crash injection. See
/// `tests/model_*.rs` and the CONTRIBUTING.md model-test guide.
#[cfg(feature = "model")]
pub use cso_sched as sched;
pub use cso_shard as shard;
pub use cso_stack as stack;
pub use cso_trace as trace;
pub use cso_watch as watch;
