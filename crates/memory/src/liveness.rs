//! Process liveness: lease-based failure suspicion.
//!
//! The paper's §4.4 starvation-freedom argument assumes every process
//! keeps taking steps. A process that stops forever while holding the
//! slow-path lock (or with a POSTED publication record) wedges the
//! object — §5 calls this out as the price of the locked slow path.
//! Crash *tolerance* needs a failure detector: this module provides
//! the weakest practical one, a lease. Each process announces itself,
//! heartbeats at its slow-path steps, and exits; a peer is *suspected*
//! once its lease is stale past a caller-chosen grace period (or it
//! was explicitly marked dead, e.g. by a supervisor that reaped the
//! thread).
//!
//! Suspicion can be wrong — a live-but-slow process looks dead. Every
//! consumer of [`Liveness::suspect`] must therefore make false
//! suspicion *harmless*, never *unsafe*: publication records are
//! retired without applying them (the live owner reposts), and lock
//! succession transfers custody with a CAS the displaced holder can
//! observe on unlock.
//!
//! All state here lives in **uncounted [`crate::proto`] words, not
//! the counted [`crate::reg`] registers**. Theorem 1's step budgets
//! (six shared accesses on the solo fast path, one added by the
//! transformation) count accesses to the *simulation's* base
//! registers; the liveness lease is harness machinery and must stay
//! invisible to those budgets. Suspicion races with the suspect's own
//! progress, though, so every lease access is a yield point under the
//! model runtime.
//!
//! ```
//! use cso_memory::liveness::Liveness;
//! use std::time::Duration;
//!
//! let live = Liveness::new(2);
//! live.announce(0);
//! assert!(live.is_active(0));
//! assert!(!live.suspect(0, Duration::from_secs(60)));
//! live.mark_dead(0); // supervisor reaped the thread
//! assert!(live.suspect(0, Duration::ZERO));
//! assert!(!live.suspect(1, Duration::ZERO)); // never announced => not suspect
//! ```

use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::combining::CachePadded;
use crate::proto::{ProtoBool, ProtoU64};

/// One process's lease.
#[derive(Debug, Default)]
struct Slot {
    /// Announcement epoch: odd while the process is between
    /// [`Liveness::announce`] and [`Liveness::exit`], even otherwise.
    /// Incremented on both transitions, so a reader can detect a
    /// crash/re-announce cycle it slept through.
    epoch: ProtoU64,
    /// Nanoseconds (since the registry's creation) of the last
    /// heartbeat. Only meaningful while the epoch is odd.
    last_beat_ns: ProtoU64,
    /// Explicitly declared dead (supervisor reaped the thread, or a
    /// chaos harness killed it). Overrides the lease: the process is
    /// suspect regardless of grace.
    dead: ProtoBool,
}

/// A lease-based failure detector over `n` process identities.
///
/// See the module docs for the model. All operations are wait-free
/// single-word atomics; `suspect` is two relaxed loads plus an acquire
/// load on the epoch, cheap enough to consult on slow-path waits.
pub struct Liveness {
    start: Instant,
    slots: Box<[CachePadded<Slot>]>,
}

impl fmt::Debug for Liveness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let active: Vec<usize> = (0..self.n()).filter(|&p| self.is_active(p)).collect();
        f.debug_struct("Liveness")
            .field("n", &self.n())
            .field("active", &active)
            .finish()
    }
}

impl Liveness {
    /// Creates a detector for identities `0..n`, all initially
    /// unannounced (and therefore never suspect).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Arc<Liveness> {
        assert!(n > 0, "a liveness registry needs at least one identity");
        let slots = (0..n).map(|_| CachePadded::new(Slot::default())).collect();
        Arc::new(Liveness {
            start: Instant::now(),
            slots,
        })
    }

    /// The number of identities tracked.
    #[must_use]
    pub fn n(&self) -> usize {
        self.slots.len()
    }

    fn now_ns(&self) -> u64 {
        // Saturating: a >584-year process can keep its lease.
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Process `proc` starts participating: refresh the lease and move
    /// the epoch to odd. Re-announcing after a crash clears the dead
    /// flag (the identity was recycled to a live thread).
    pub fn announce(&self, proc: usize) {
        let slot = &self.slots[proc];
        slot.last_beat_ns.store(self.now_ns(), Ordering::Relaxed);
        slot.dead.store(false, Ordering::Relaxed);
        let e = slot.epoch.load(Ordering::Relaxed);
        if e % 2 == 0 {
            slot.epoch.store(e + 1, Ordering::Release);
        }
    }

    /// Process `proc` stops participating cleanly: move the epoch to
    /// even so it is never suspected while away.
    pub fn exit(&self, proc: usize) {
        let slot = &self.slots[proc];
        let e = slot.epoch.load(Ordering::Relaxed);
        if e % 2 == 1 {
            slot.epoch.store(e + 1, Ordering::Release);
        }
    }

    /// Refreshes `proc`'s lease. Call at slow-path steps (lock waits,
    /// combining rounds); the fast path never needs to.
    pub fn beat(&self, proc: usize) {
        self.slots[proc]
            .last_beat_ns
            .store(self.now_ns(), Ordering::Relaxed);
    }

    /// Declares `proc` dead out-of-band (its thread was reaped, or a
    /// chaos harness froze it forever). It becomes suspect immediately
    /// regardless of grace, until it re-announces.
    pub fn mark_dead(&self, proc: usize) {
        self.slots[proc].dead.store(true, Ordering::Release);
    }

    /// True while `proc` is between `announce` and `exit`.
    #[must_use]
    pub fn is_active(&self, proc: usize) -> bool {
        self.slots[proc].epoch.load(Ordering::Acquire) % 2 == 1
    }

    /// The announcement epoch (odd = active). Two reads bracketing an
    /// observation detect a crash/recycle the observer slept through.
    #[must_use]
    pub fn epoch(&self, proc: usize) -> u64 {
        self.slots[proc].epoch.load(Ordering::Acquire)
    }

    /// Is `proc` suspected of having crashed?
    ///
    /// True when it was explicitly [`Liveness::mark_dead`]ed, or it is
    /// active but its last heartbeat is older than `grace`. A process
    /// that never announced (or exited cleanly) is never suspect.
    /// Suspicion is a *hint*: consumers must stay safe under false
    /// positives (see the module docs).
    #[must_use]
    pub fn suspect(&self, proc: usize, grace: Duration) -> bool {
        let slot = &self.slots[proc];
        if slot.dead.load(Ordering::Acquire) {
            return true;
        }
        if slot.epoch.load(Ordering::Acquire) % 2 == 0 {
            return false;
        }
        let beat = slot.last_beat_ns.load(Ordering::Relaxed);
        let grace = u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);
        self.now_ns().saturating_sub(beat) > grace
    }
}

/// How a [`ContentionSensitive`] object recovers from crashed peers.
///
/// Embedded in `CsConfig` (hence `Copy + Eq`): `grace` is how stale a
/// lease must be before a holder/record owner is suspected, `backoff`
/// is how long a waiter watches a suspected holder before seizing the
/// lock, and `max_successions` bounds how many seizures the object
/// tolerates before declaring itself unrecoverable (fail-fast beats
/// masking a correlated failure forever).
///
/// [`ContentionSensitive`]: ../../cso_core/contention_sensitive/struct.ContentionSensitive.html
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Lease staleness after which a process is suspected.
    pub grace: Duration,
    /// Successions tolerated before the object degrades to
    /// unrecoverable. The degradation ladder demotes combining at
    /// `max_successions / 2`.
    pub max_successions: u32,
    /// How long a waiter observes a suspected-dead holder before
    /// running the succession protocol (absorbs suspicion jitter).
    pub backoff: Duration,
}

impl RecoveryPolicy {
    /// Defaults tuned for tests and benches: tight enough that a
    /// frozen process is reaped in milliseconds, loose enough that a
    /// descheduled thread on a loaded CI box is not.
    pub const DEFAULT: RecoveryPolicy = RecoveryPolicy {
        grace: Duration::from_millis(50),
        max_successions: 8,
        backoff: Duration::from_millis(5),
    };
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unannounced_process_is_never_suspect() {
        let live = Liveness::new(3);
        assert!(!live.is_active(2));
        assert!(!live.suspect(2, Duration::ZERO));
    }

    #[test]
    fn stale_lease_raises_suspicion_and_a_beat_clears_it() {
        let live = Liveness::new(1);
        live.announce(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(live.suspect(0, Duration::from_nanos(1)));
        live.beat(0);
        assert!(!live.suspect(0, Duration::from_secs(60)));
    }

    #[test]
    fn clean_exit_is_not_a_crash() {
        let live = Liveness::new(1);
        live.announce(0);
        live.exit(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(!live.suspect(0, Duration::ZERO));
        assert!(!live.is_active(0));
    }

    #[test]
    fn mark_dead_overrides_a_fresh_lease() {
        let live = Liveness::new(2);
        live.announce(1);
        live.beat(1);
        live.mark_dead(1);
        assert!(live.suspect(1, Duration::from_secs(60)));
        // Identity recycled to a live thread: announce revives it.
        live.announce(1);
        assert!(!live.suspect(1, Duration::from_secs(60)));
    }

    #[test]
    fn epoch_parity_tracks_announce_exit_cycles() {
        let live = Liveness::new(1);
        assert_eq!(live.epoch(0), 0);
        live.announce(0);
        assert_eq!(live.epoch(0), 1);
        live.announce(0); // idempotent while active
        assert_eq!(live.epoch(0), 1);
        live.exit(0);
        assert_eq!(live.epoch(0), 2);
        live.exit(0); // idempotent while inactive
        assert_eq!(live.epoch(0), 2);
        live.announce(0);
        assert_eq!(live.epoch(0), 3);
    }

    #[test]
    fn default_policy_is_sane() {
        let p = RecoveryPolicy::default();
        assert_eq!(p, RecoveryPolicy::DEFAULT);
        assert!(p.grace > Duration::ZERO);
        assert!(p.max_successions >= 2);
    }
}
