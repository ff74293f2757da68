//! The runtime seam: which world do register accesses execute in?
//!
//! Every counted access in [`crate::reg`] — and every spin-wait in
//! [`crate::backoff`], every probabilistic chaos draw in
//! [`crate::chaos`] — funnels through the [`Runtime`] trait before
//! touching the underlying `std::sync::atomic`. Two implementations
//! exist:
//!
//! * [`StdRuntime`] — the default. Every hook is an empty inline
//!   function, so the compiled code is byte-identical to calling the
//!   atomics directly: zero cost, counted-access totals bit-for-bit
//!   unchanged (the `step_budget` regression tests pin this).
//! * [`ModelRuntime`] — selected by the `model` cargo feature. Every
//!   hook delegates to `cso-sched`'s controlled scheduler: a counted
//!   access becomes a *yield point* where the scheduler decides which
//!   thread performs the next shared-memory step, so exhaustive (or
//!   seeded-random, or replayed) interleavings of the *production*
//!   structures can be explored deterministically.
//!
//! The selection is a compile-time `cfg`, not dynamic dispatch: the
//! [`Active`] alias names whichever runtime the build uses, and the
//! hot paths in `reg` call `Active::before_access(..)` directly. With
//! the feature off there is no branch, no atomic, no function call —
//! nothing.
//!
//! Model hooks are no-ops on threads that are not inside a
//! `cso_sched::Explorer::explore` session, so a `model`-feature build
//! still runs ordinary (non-model) tests correctly — just slower.

use crate::counting::AccessKind;

/// The seam between the registers and the world they execute in.
///
/// Implementations must be zero-sized; the trait exists to give the
/// two worlds one signature, not to be stored or dispatched
/// dynamically.
pub trait Runtime {
    /// Called before every *counted* register access ([`AccessKind`]
    /// says which). Under the model runtime this is the yield point.
    fn before_access(kind: AccessKind);

    /// Called before every *uncounted* access: register peeks
    /// (`peek`, `cas_validated`, `write_lazy`) and every access to a
    /// protocol word ([`crate::proto`]). Uncounted accesses are free in
    /// the paper's cost model but still touch shared memory, so the
    /// model runtime schedules them too — otherwise racy peek-based
    /// code and the engineering protocols (exchanger, publication
    /// records, leases, lock custody) would be invisible to the
    /// explorer.
    fn before_peek();

    /// Called by spin loops ([`crate::backoff::Spinner`] and friends)
    /// once per wait iteration. Returns `true` if the runtime absorbed
    /// the wait (the caller should skip its real pause/yield/sleep);
    /// the model runtime marks the thread *yielded* so the scheduler
    /// runs someone else.
    fn spin_hint() -> bool;

    /// Resolves a probabilistic `one_in` chaos draw. `None` means the
    /// runtime has no opinion (std runtime, or a thread outside a
    /// model session) and the caller should use its own RNG; `Some`
    /// is a schedule-deterministic decision recorded in the replay
    /// trace.
    fn chaos_one_in(one_in: u64) -> Option<bool>;

    /// Replaces OS entropy for seeding thread-local RNGs
    /// ([`crate::backoff::XorShift64::from_entropy`]). `None` means
    /// use real entropy; `Some` is a deterministic seed derived from
    /// the model execution's seed and thread id, so replays reseed
    /// identically.
    fn entropy_seed() -> Option<u64>;

    /// A short name for assertions ("std" / "model").
    fn name() -> &'static str;
}

/// The production runtime: straight to `std::sync::atomic`, all hooks
/// compiled away.
pub struct StdRuntime;

impl Runtime for StdRuntime {
    #[inline(always)]
    fn before_access(_kind: AccessKind) {}

    #[inline(always)]
    fn before_peek() {}

    #[inline(always)]
    fn spin_hint() -> bool {
        false
    }

    #[inline(always)]
    fn chaos_one_in(_one_in: u64) -> Option<bool> {
        None
    }

    #[inline(always)]
    fn entropy_seed() -> Option<u64> {
        None
    }

    fn name() -> &'static str {
        "std"
    }
}

/// The model-checking runtime: every hook is a `cso-sched` scheduling
/// decision. Only compiled under the `model` feature.
#[cfg(feature = "model")]
pub struct ModelRuntime;

#[cfg(feature = "model")]
impl Runtime for ModelRuntime {
    #[inline]
    fn before_access(_kind: AccessKind) {
        cso_sched::yield_access();
    }

    #[inline]
    fn before_peek() {
        cso_sched::yield_access();
    }

    #[inline]
    fn spin_hint() -> bool {
        cso_sched::yield_spin()
    }

    #[inline]
    fn chaos_one_in(one_in: u64) -> Option<bool> {
        cso_sched::chaos_draw(one_in)
    }

    #[inline]
    fn entropy_seed() -> Option<u64> {
        cso_sched::entropy_seed()
    }

    fn name() -> &'static str {
        "model"
    }
}

/// The runtime this build uses: [`ModelRuntime`] when the `model`
/// feature is on, [`StdRuntime`] otherwise.
#[cfg(feature = "model")]
pub type Active = ModelRuntime;

/// The runtime this build uses: [`ModelRuntime`] when the `model`
/// feature is on, [`StdRuntime`] otherwise.
#[cfg(not(feature = "model"))]
pub type Active = StdRuntime;

/// The active runtime's name — lets tests assert which world they run
/// in (the `step_budget` suite pins `"std"` for default builds).
#[must_use]
pub fn active_name() -> &'static str {
    Active::name()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_runtime_hooks_are_inert() {
        StdRuntime::before_access(AccessKind::Read);
        StdRuntime::before_peek();
        assert!(!StdRuntime::spin_hint());
        assert_eq!(StdRuntime::chaos_one_in(7), None);
        assert_eq!(StdRuntime::entropy_seed(), None);
        assert_eq!(StdRuntime::name(), "std");
    }

    #[cfg(not(feature = "model"))]
    #[test]
    fn default_build_selects_std() {
        assert_eq!(active_name(), "std");
    }

    #[cfg(feature = "model")]
    #[test]
    fn model_build_selects_model() {
        assert_eq!(active_name(), "model");
        // Outside a session the model hooks fall back to inert.
        assert!(!ModelRuntime::spin_hint());
        assert_eq!(ModelRuntime::chaos_one_in(7), None);
    }
}
