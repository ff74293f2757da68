//! Shared-memory substrate for the `cso` workspace.
//!
//! The computation model of Mostefaoui & Raynal (2011), §2, is a set of
//! `n` asynchronous processes communicating through *atomic registers*
//! supporting `read`, `write` and `Compare&Swap`. This crate provides
//! that model on top of `std::sync::atomic`:
//!
//! * [`reg`] — atomic registers whose every access is recorded in a
//!   per-thread counter (so experiments can *measure* the paper's
//!   "six shared memory accesses" claim rather than assert it);
//! * [`packed`] — the multi-field register words the paper uses
//!   (`TOP = ⟨index, value, seqnb⟩`, `STACK[x] = ⟨val, sn⟩`), packed
//!   into a single `u64` so they can be CAS-ed atomically;
//! * [`counting`] — the per-thread shared-access counters;
//! * [`registry`] — process identities `0..n` (the paper's `p_1..p_n`),
//!   needed by the `FLAG`/`TURN` starvation-freedom mechanism;
//! * [`backoff`] — spin/backoff helpers and deadlines used by retry
//!   and wait loops;
//! * [`slab`] — a fixed-capacity slab with an ABA-safe array freelist,
//!   used to lift the 32-bit-value algorithms to arbitrary payloads;
//! * [`combining`] — cache-padded publication records for the
//!   flat-combining slow path (post → claim → complete/poison);
//! * [`exchange`] — the elimination rendezvous slots (offer → park →
//!   take/retract) shared by the elimination-stack baseline and the
//!   contention-sensitive escalation ladder;
//! * [`epoch`] — a minimal epoch-based reclamation scheme for the
//!   node-allocating baselines (Treiber, Michael–Scott, elimination);
//! * [`proto`] — uncounted protocol words (exchanger slots, record
//!   statuses, leases, custody cells): plain atomics that become yield
//!   points under the `model` feature;
//! * [`liveness`] — a lease-based failure detector (announce / beat /
//!   exit, plus `suspect`) and the [`liveness::RecoveryPolicy`] that
//!   governs crash recovery of the locked slow path;
//! * [`chaos`] (behind the `chaos` cargo feature) — the fail-point
//!   registry behind [`fail_point!`], for fault-injection testing of
//!   the §5 crash caveat.
//!
//! # Example
//!
//! ```
//! use cso_memory::counting;
//! use cso_memory::reg::Reg64;
//!
//! let r = Reg64::new(1);
//! let scope = counting::CountScope::start();
//! r.write(2);
//! assert!(r.cas(2, 3));
//! assert_eq!(r.read(), 3);
//! let counts = scope.take();
//! assert_eq!(counts.total(), 3);
//! ```

#![forbid(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod backoff;
pub mod bits;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod combining;
pub mod counting;
pub mod epoch;
pub mod exchange;
pub mod liveness;
pub mod packed;
pub mod proto;
pub mod reg;
pub mod registry;
pub mod runtime;
pub mod slab;

/// Declares a named fault-injection site (see [`chaos`]).
///
/// With the `chaos` cargo feature **disabled** (the default) the macro
/// expands to nothing — zero code, zero cost. With it enabled, the
/// site consults the [`chaos`] registry: one relaxed atomic load when
/// nothing is armed, the armed [`chaos::Fault`] otherwise.
///
/// Two forms:
///
/// * `fail_point!("site")` — injects delays, yields, panics or stalls
///   in place; a [`chaos::Fault::SpuriousAbort`] is ignored.
/// * `fail_point!("site", expr)` — additionally evaluates `expr`
///   (typically `return Err(Aborted)`) when the armed fault asks the
///   operation to abort.
#[cfg(feature = "chaos")]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {{
        let _ = $crate::chaos::hit($site);
    }};
    ($site:expr, $on_abort:expr) => {{
        if $crate::chaos::hit($site) == $crate::chaos::Action::Abort {
            $on_abort
        }
    }};
}

/// Declares a named fault-injection site (disabled: expands to
/// nothing; enable the `chaos` cargo feature to activate).
#[cfg(not(feature = "chaos"))]
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {};
    ($site:expr, $on_abort:expr) => {};
}

pub use backoff::Deadline;
pub use bits::Bits32;
pub use combining::{CachePadded, PubRecord, RecordState, NO_HELPER};
pub use counting::{AccessCounts, CountScope};
pub use exchange::Exchanger;
pub use liveness::{Liveness, RecoveryPolicy};
pub use packed::{DequeState, DequeWord, HeadWord, SlotWord, TailWord, TopWord};
pub use reg::{Reg64, RegBool, RegUsize};
pub use registry::{ProcRegistry, ProcToken, RegistryFull};
pub use slab::Slab;
