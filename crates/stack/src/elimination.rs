//! Elimination back-off stack (extension baseline).
//!
//! Hendler, Shavit & Yerushalmi's observation: a concurrent push and
//! pop *cancel out* — they can meet in a side array and exchange the
//! value without touching the stack at all. This is the classical
//! high-contention stack optimization and a natural "non-interfering
//! operations" companion to the paper's contention-sensitive theme
//! (it eliminates precisely the operation pairs that commute).
//!
//! This is an **extension** (see `DESIGN.md`): the paper mentions no
//! elimination, but its related-work discussion of contention
//! management motivates including one strong lock-free baseline.
//!
//! The rendezvous machinery itself — the tagged slot state machine,
//! its exclusive cell windows and its panic-safe retract — lives in
//! [`cso_memory::exchange`], shared with the contention-sensitive
//! escalation ladder; this file only combines it with a Treiber stack.

use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;

use cso_core::ProgressCondition;
use cso_memory::epoch::{self, Atomic, Owned};
use cso_memory::exchange::Exchanger;
use cso_metrics::{thread_rows, CounterBlock};

/// A lock-free stack with an elimination back-off array.
///
/// Push and pop first attempt one CAS on the Treiber head; on failure
/// (i.e. under contention) they visit the elimination [`Exchanger`],
/// where a concurrent push/pop pair can exchange the value and
/// complete without ever modifying the stack.
///
/// ```
/// use cso_stack::EliminationStack;
///
/// let stack = EliminationStack::new(4);
/// stack.push(1u32);
/// assert_eq!(stack.pop(), Some(1));
/// assert_eq!(stack.pop(), None);
/// ```
pub struct EliminationStack<T> {
    head: Atomic<Node<T>>,
    exchanger: Exchanger<T>,
    /// Successful takes (one per eliminated pair), in slot
    /// [`ELIMINATED`] of the calling thread's home row.
    counts: CounterBlock,
}

/// The [`CounterBlock`] slot counting eliminated pairs.
const ELIMINATED: usize = 0;

struct Node<T> {
    value: ManuallyDrop<T>,
    next: Atomic<Node<T>>,
}

impl<T: Send> EliminationStack<T> {
    /// How long a parked pusher waits for a partner before retracting.
    const PARK_POLLS: u32 = 128;

    /// Creates an empty stack with `slots` elimination slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(slots: usize) -> EliminationStack<T> {
        EliminationStack {
            head: Atomic::null(),
            exchanger: Exchanger::new(slots),
            counts: CounterBlock::new(thread_rows()),
        }
    }

    /// The progress condition of this implementation.
    pub const PROGRESS: ProgressCondition = ProgressCondition::NonBlocking;

    /// Number of operation *pairs* completed via elimination.
    #[must_use]
    pub fn eliminated_pairs(&self) -> u64 {
        self.counts.sum(ELIMINATED)
    }

    /// Pushes `value` (unbounded; always succeeds).
    pub fn push(&self, mut value: T) {
        loop {
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => value = v,
            }
            // Head contention: try to meet a popper instead.
            match self.exchanger.offer(value, Self::PARK_POLLS) {
                Ok(()) => return,
                Err(v) => value = v,
            }
        }
    }

    /// Pops the most recently pushed value, or `None` when the stack
    /// is observed empty.
    pub fn pop(&self) -> Option<T> {
        loop {
            if let Ok(result) = self.try_pop() {
                return result;
            }
            if let Some(value) = self.exchanger.take() {
                self.counts.add(ELIMINATED, 1);
                return Some(value);
            }
        }
    }

    /// One CAS attempt on the Treiber head.
    fn try_push(&self, value: T) -> Result<(), T> {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        let node = Owned::new(Node {
            value: ManuallyDrop::new(value),
            next: Atomic::null(),
        });
        node.next.store(head, Ordering::Relaxed);
        match self
            .head
            .compare_exchange(head, node, Ordering::Release, Ordering::Relaxed, &guard)
        {
            Ok(_) => Ok(()),
            Err(err) => {
                let node = err.new;
                // Reclaim the value from the unpublished node.
                let Node { value, .. } = *node.into_box();
                Err(ManuallyDrop::into_inner(value))
            }
        }
    }

    /// One CAS attempt on the Treiber head; `Err(())` means contention.
    fn try_pop(&self) -> Result<Option<T>, ()> {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        let Some(node) = (unsafe { head.as_ref() }) else {
            return Ok(None);
        };
        let next = node.next.load(Ordering::Acquire, &guard);
        if self
            .head
            .compare_exchange(head, next, Ordering::Release, Ordering::Relaxed, &guard)
            .is_ok()
        {
            // SAFETY: unlinked; unique ownership of the value (see
            // `TreiberStack::pop`).
            let value = unsafe { std::ptr::read(&node.value) };
            unsafe { guard.defer_destroy(head) };
            Ok(Some(ManuallyDrop::into_inner(value)))
        } else {
            Err(())
        }
    }

    /// Racy emptiness snapshot of the backing stack (parked items in
    /// the elimination array are in flight, not "in" the stack).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        self.head.load(Ordering::Acquire, &guard).is_null()
    }
}

impl<T> Drop for EliminationStack<T> {
    fn drop(&mut self) {
        let guard = unsafe { epoch::unprotected() };
        let mut cursor = self.head.load(Ordering::Relaxed, guard);
        while !cursor.is_null() {
            // SAFETY: `&mut self` excludes concurrent access.
            unsafe {
                let mut node = cursor.into_owned();
                ManuallyDrop::drop(&mut node.value);
                cursor = node.next.load(Ordering::Relaxed, guard);
            }
        }
        // Parked items (if a thread died mid-exchange) drop with the
        // exchanger's slot cells automatically.
    }
}

impl<T> std::fmt::Debug for EliminationStack<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EliminationStack")
            .field("exchanger", &self.exchanger)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn lifo_order_solo() {
        let stack = EliminationStack::new(2);
        for v in 0..5u32 {
            stack.push(v);
        }
        for v in (0..5).rev() {
            assert_eq!(stack.pop(), Some(v));
        }
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn exchange_slot_direct_protocol() {
        // Drive the elimination protocol deterministically: park via
        // the internal path by simulating contention is hard solo, so
        // exercise the public API with one slot and check stats stay
        // coherent.
        let stack = EliminationStack::new(1);
        stack.push(7u32);
        assert_eq!(stack.pop(), Some(7));
        assert!(stack.eliminated_pairs() <= 1);
    }

    #[test]
    fn concurrent_conservation() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 2_000;
        let stack: Arc<EliminationStack<u64>> = Arc::new(EliminationStack::new(2));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let stack = Arc::clone(&stack);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        stack.push(t * PER_THREAD + i);
                        if let Some(v) = stack.pop() {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        while let Some(v) = stack.pop() {
            all.push(v);
        }
        assert_eq!(all.len(), (THREADS * PER_THREAD) as usize);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    }

    #[test]
    fn drop_frees_everything() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        {
            let stack = EliminationStack::new(2);
            for _ in 0..8 {
                stack.push(Counted);
            }
            drop(stack.pop());
        }
        assert_eq!(DROPS.load(Ordering::SeqCst), 8);
    }
}
