//! Uncounted protocol words.
//!
//! The paper's cost model counts accesses to its base registers
//! ([`crate::reg`]). The engineering layers around them — the
//! elimination exchanger's slots, the combining publication records,
//! the liveness leases, the lock-succession custody cells, the
//! degradation rung — also keep *protocol state* in shared words:
//! words whose races decide who owns an item, a record, or the lock.
//! Those accesses are not steps of the paper's algorithms, so they are
//! not counted, but they must be scheduling points under the model
//! runtime, or the explorer would never interleave the races that make
//! them correct.
//!
//! Each type here is a thin wrapper over one `std::sync::atomic` with
//! the same method names and orderings. Every access first calls
//! [`Runtime::before_peek`]: an empty `#[inline(always)]` function
//! under the default [`crate::runtime::StdRuntime`] (the compiled code
//! is the bare atomic), a yield point under the `model` feature.
//!
//! Shared words that hold statistics or heuristics rather than
//! protocol state stay plain atomics and run inside the surrounding
//! atomic block of a model schedule: `cso_metrics::CounterBlock` rows,
//! the adaptive gate's EWMA, and the shard router's bookkeeping.
//!
//! ```
//! use cso_memory::proto::ProtoU32;
//! use std::sync::atomic::Ordering;
//!
//! let status = ProtoU32::new(0);
//! assert!(status.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed).is_ok());
//! assert_eq!(status.load(Ordering::Acquire), 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

use crate::runtime::{Active, Runtime};

macro_rules! proto_word {
    ($(#[$doc:meta])* $name:ident, $atomic:ty, $t:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            cell: $atomic,
        }

        impl $name {
            /// Creates a word holding `value`.
            #[must_use]
            pub const fn new(value: $t) -> $name {
                $name {
                    cell: <$atomic>::new(value),
                }
            }

            /// Loads the value (see the `std` atomic of the same name).
            #[inline(always)]
            pub fn load(&self, order: Ordering) -> $t {
                Active::before_peek();
                self.cell.load(order)
            }

            /// Stores `value`.
            #[inline(always)]
            pub fn store(&self, value: $t, order: Ordering) {
                Active::before_peek();
                self.cell.store(value, order);
            }

            /// Replaces the value, returning the previous one.
            #[inline(always)]
            pub fn swap(&self, value: $t, order: Ordering) -> $t {
                Active::before_peek();
                self.cell.swap(value, order)
            }

            /// Compare-and-exchange with the `std` contract.
            ///
            /// # Errors
            ///
            /// Returns the observed value if it was not `current`.
            #[inline(always)]
            pub fn compare_exchange(
                &self,
                current: $t,
                new: $t,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$t, $t> {
                Active::before_peek();
                self.cell.compare_exchange(current, new, success, failure)
            }
        }
    };
}

proto_word!(
    /// An uncounted `u32` protocol word (publication-record status,
    /// trace-thread stamps, the degradation rung).
    ProtoU32,
    AtomicU32,
    u32
);
proto_word!(
    /// An uncounted `u64` protocol word (exchanger slot state and
    /// stamps, liveness epochs and heartbeats).
    ProtoU64,
    AtomicU64,
    u64
);
proto_word!(
    /// An uncounted `usize` protocol word (lock-custody cells).
    ProtoUsize,
    AtomicUsize,
    usize
);
proto_word!(
    /// An uncounted boolean protocol word (dead marks, failure flags).
    ProtoBool,
    AtomicBool,
    bool
);

impl ProtoU32 {
    /// Stores the maximum of the current value and `value`, returning
    /// the previous value.
    #[inline(always)]
    pub fn fetch_max(&self, value: u32, order: Ordering) -> u32 {
        Active::before_peek();
        self.cell.fetch_max(value, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting::CountScope;

    #[test]
    fn words_behave_like_their_atomics_and_are_uncounted() {
        let scope = CountScope::start();
        let w = ProtoU64::new(5);
        assert_eq!(w.swap(6, Ordering::AcqRel), 5);
        assert_eq!(
            w.compare_exchange(5, 7, Ordering::AcqRel, Ordering::Relaxed),
            Err(6)
        );
        assert_eq!(
            w.compare_exchange(6, 7, Ordering::AcqRel, Ordering::Relaxed),
            Ok(6)
        );
        w.store(8, Ordering::Release);
        assert_eq!(w.load(Ordering::Acquire), 8);
        let m = ProtoU32::new(1);
        assert_eq!(m.fetch_max(3, Ordering::Relaxed), 1);
        assert_eq!(m.fetch_max(2, Ordering::Relaxed), 3);
        let b = ProtoBool::default();
        assert!(!b.swap(true, Ordering::AcqRel));
        assert_eq!(ProtoUsize::new(4).load(Ordering::Relaxed), 4);
        assert_eq!(scope.take().total(), 0, "protocol words are never counted");
    }
}
