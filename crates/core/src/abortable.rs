//! The abortable-object abstraction.

use cso_metrics::{thread_rows, CounterBlock};

use crate::error::Aborted;

/// An *abortable* concurrent object (paper §1.2).
///
/// "An abortable concurrent object behaves like an ordinary object
/// when accessed sequentially, but may abort operations when accessed
/// concurrently (in that case the aborted operation **has no effect**
/// and returns a default value denoted ⊥)."
///
/// # Contract for implementors
///
/// * **Total**: `try_apply` always returns (it never blocks or loops
///   unboundedly);
/// * **Solo success**: an invocation that runs in a contention-free
///   context (no concurrent operation on the object) must return
///   `Ok(_)`;
/// * **Abort = no effect**: an `Err(Aborted)` invocation must leave
///   the abstract state of the object exactly as if it was never
///   invoked;
/// * **Linearizable**: the non-aborted operations must be linearizable
///   with respect to the object's sequential specification.
///
/// The operation is taken by reference so the retry-based
/// transformations ([`crate::NonBlocking`], [`crate::ContentionSensitive`])
/// can re-submit it without requiring `Op: Clone`.
///
/// An abortable object is *stronger* than an obstruction-free one:
/// both guarantee solo termination, but the abortable object also
/// terminates (with ⊥) under contention, instead of possibly not
/// terminating at all (§1.2).
pub trait Abortable: Send + Sync {
    /// The operation descriptor (e.g. `Push(v)` / `Pop` for a stack).
    type Op;

    /// The non-⊥ result of an operation (e.g. the popped value).
    type Response;

    /// Attempts the operation once.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (the paper's ⊥) when a concurrent operation
    /// interfered; the object state is unchanged in that case.
    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted>;

    /// Batch-apply hook: a combining transformation
    /// ([`crate::ContentionSensitive`] with [`crate::CsConfig::combining`])
    /// is about to apply `pending` requests posted by *other* processes
    /// in one lock tenure. The default is a no-op; objects may override
    /// it to account batches or prepare (e.g. prefetch). Called with the
    /// slow-path lock held — implementations must not block.
    fn batch_begin(&self, pending: usize) {
        let _ = pending;
    }

    /// Batch-apply hook: the combiner finished the batch announced by
    /// [`Abortable::batch_begin`], having applied `applied` requests.
    /// Not called if the batch unwinds mid-way (the combining guard
    /// poisons the in-flight records instead), so
    /// `batch_begin`/`batch_end` calls pair up only on clean tenures.
    fn batch_end(&self, applied: usize) {
        let _ = applied;
    }

    /// Elimination hook: attempts to complete `op` by *rendezvous*
    /// with a concurrent inverse operation (e.g. a stack's push/pop
    /// pair exchanging the value through `cso_memory::exchange`),
    /// without touching the object's main state. The escalation
    /// ladder of [`crate::ContentionSensitive`] (with
    /// [`crate::CsConfig::elimination`]) calls this after a weak-op
    /// abort, *before* raising `CONTENTION` or taking the lock.
    ///
    /// `polls` bounds how long the attempt may park waiting for a
    /// partner (in spin iterations) — the caller scales it with its
    /// contention estimate. The attempt must be bounded and must
    /// return `None` (no effect) when no partner commits.
    ///
    /// A returned response must be one the operation could have
    /// received from [`Abortable::try_apply`] in some linearizable
    /// execution — the pair linearizes back-to-back at the instant of
    /// the exchange. The default declines (objects without an inverse
    /// structure simply never eliminate).
    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        let _ = (op, polls);
        None
    }
}

/// Plug-in counters for the [`Abortable::batch_begin`] /
/// [`Abortable::batch_end`] hooks: embed one in an abortable object
/// and forward the hooks to [`BatchCounters::begin`] /
/// [`BatchCounters::end`] to get per-object combining statistics.
/// The hooks carry no process id, so the counts live in a shared-mode
/// [`CounterBlock`] (one relaxed `fetch_add` on the caller's home row).
#[derive(Debug)]
pub struct BatchCounters {
    block: CounterBlock,
}

/// [`BatchCounters`] slots.
const BATCHES: usize = 0;
const APPLIED: usize = 1;
const MAX_BATCH: usize = 2;

/// Snapshot of a [`BatchCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches announced via [`Abortable::batch_begin`].
    pub batches: u64,
    /// Requests applied across all clean batches
    /// ([`Abortable::batch_end`] sums; an unwound batch contributes
    /// nothing here but still counts in `batches`).
    pub applied: u64,
    /// The largest batch announced.
    pub max_batch: u64,
}

impl BatchCounters {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> BatchCounters {
        BatchCounters {
            block: CounterBlock::new(thread_rows()),
        }
    }

    /// Forward [`Abortable::batch_begin`] here.
    pub fn begin(&self, pending: usize) {
        self.block.add(BATCHES, 1);
        self.block.max(MAX_BATCH, pending as u64);
    }

    /// Forward [`Abortable::batch_end`] here.
    pub fn end(&self, applied: usize) {
        self.block.add(APPLIED, applied as u64);
    }

    /// The current totals.
    #[must_use]
    pub fn snapshot(&self) -> BatchStats {
        BatchStats {
            batches: self.block.sum(BATCHES),
            applied: self.block.sum(APPLIED),
            max_batch: self.block.peak(MAX_BATCH),
        }
    }
}

impl Default for BatchCounters {
    fn default() -> BatchCounters {
        BatchCounters::new()
    }
}

// An `Arc<O>` or reference to an abortable object is itself abortable,
// so the transformations can share objects freely.
impl<O: Abortable + ?Sized> Abortable for &O {
    type Op = O::Op;
    type Response = O::Response;

    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply(op)
    }

    fn batch_begin(&self, pending: usize) {
        (**self).batch_begin(pending);
    }

    fn batch_end(&self, applied: usize) {
        (**self).batch_end(applied);
    }

    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        (**self).try_eliminate(op, polls)
    }
}

impl<O: Abortable + ?Sized> Abortable for std::sync::Arc<O> {
    type Op = O::Op;
    type Response = O::Response;

    fn try_apply(&self, op: &Self::Op) -> Result<Self::Response, Aborted> {
        (**self).try_apply(op)
    }

    fn batch_begin(&self, pending: usize) {
        (**self).batch_begin(pending);
    }

    fn batch_end(&self, applied: usize) {
        (**self).batch_end(applied);
    }

    fn try_eliminate(&self, op: &Self::Op, polls: u32) -> Option<Self::Response> {
        (**self).try_eliminate(op, polls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testobj::{Bump, ScriptedObject};
    use std::sync::Arc;

    #[test]
    fn scripted_object_aborts_then_succeeds() {
        let obj = ScriptedObject::with_aborts(2);
        assert_eq!(obj.try_apply(&Bump(1)), Err(Aborted));
        assert_eq!(obj.try_apply(&Bump(1)), Err(Aborted));
        assert_eq!(obj.try_apply(&Bump(1)), Ok(1));
        assert_eq!(obj.try_apply(&Bump(5)), Ok(6));
    }

    #[test]
    fn references_and_arcs_forward() {
        let obj = Arc::new(ScriptedObject::with_aborts(0));
        assert_eq!(obj.try_apply(&Bump(2)), Ok(2));
        let by_ref: &ScriptedObject = &obj;
        assert_eq!(by_ref.try_apply(&Bump(2)), Ok(4));
    }
}
