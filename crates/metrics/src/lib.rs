//! # `cso-metrics` — live metrics for contention-sensitive objects
//!
//! The offline story (bench tables, `cso-trace` rings, the step
//! auditor) answers "what happened during that run"; this crate
//! answers "what is the object doing *right now*". It provides:
//!
//! * a [`Registry`] of [`Counter`]s, [`Gauge`]s and
//!   [`LogHistogram`]-backed [`Timer`]s ([`registry`]);
//! * [`CounterBlock`], the workspace's one counting primitive: cache-
//!   padded rows of up to sixteen `u64` counters, one row per writer.
//!   Every object keeps its statistics in one block — a writer with a
//!   process id bumps its own row with a relaxed load and store, a
//!   writer without one does one relaxed `fetch_add` on its thread's
//!   home row — and both the object's stats views and the registry
//!   read those same rows;
//! * exporters: Prometheus text exposition ([`prom`]) and JSON
//!   ([`json`]), both hand-rolled because the workspace builds
//!   `--offline` with zero external dependencies;
//! * a std-only scrape endpoint ([`serve::MetricsServer`]) on
//!   `std::net::TcpListener`, plus a headless periodic dump mode
//!   ([`serve::PeriodicDump`]).
//!
//! The object crates integrate via `attach_metrics` methods
//! (`ContentionSensitive`, `StarvationFree`, the `CsStack` /
//! `CsQueue` / `CsDeque` wrappers and the sharded objects): attaching
//! registers views of the object's own counters under their exported
//! names ([`Registry::register_counter`]), so each event is counted
//! exactly once and the export counts events since construction. What
//! attachment adds is polled gauges and per-path latency timers: the
//! object's own [`Timer::owned`] timers, one row per process, which it
//! registers with [`Registry::register_timer`]. An object with no
//! registry attached pays one uncounted atomic load per operation for
//! them. Counters are plain (uncounted) atomics either way, so the
//! paper's Theorem 1 step budgets (six *counted* shared accesses
//! contention-free) are unchanged.
//!
//! [`LogHistogram`]: cso_trace::LogHistogram

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod json;
pub mod prom;
pub mod registry;
pub mod serve;

pub use json::Json;
pub use registry::{thread_rows, Counter, CounterBlock, Gauge, Registry, Snapshot, Timer};
pub use serve::{MetricsServer, PeriodicDump, RouteHandler, Routes};
