//! The deadlock-free → starvation-free lock booster (§4.4 of the
//! paper).
//!
//! In Figure 3 the starred lines 04–06 and 10–12 form, in the authors'
//! words, "a starvation-free lock from a non-blocking one":
//!
//! ```text
//! starvation_free_lock(i):    FLAG[i] ← true;                      (04)
//!                             wait (TURN = i) ∨ (¬FLAG[TURN]);     (05)
//!                             LOCK.lock();                         (06)
//!
//! starvation_free_unlock(i):  FLAG[i] ← false;                     (10)
//!                             if ¬FLAG[TURN] then
//!                                 TURN ← (TURN mod n) + 1;         (11)
//!                             LOCK.unlock();                       (12)
//! ```
//!
//! `TURN` rotates round-robin over all identities without skipping
//! anyone (Lemma 3, case 2/3), so a flagged process is eventually the
//! unique contender allowed past line 05 and the deadlock-free inner
//! lock must admit it.
//!
//! # Crash tolerance: lock succession
//!
//! The argument above assumes the holder keeps taking steps. §5 of the
//! paper concedes the price of the locked slow path: "if a process
//! crashes while it is inside its critical section, the object is
//! blocked forever". [`StarvationFree::enable_recovery`] attaches a
//! [`Liveness`] lease and a [`RecoveryPolicy`]; waiters can then run
//! [`StarvationFree::lock_recovering`], which falls back to a bounded
//! **succession protocol** when the recorded holder is suspected dead:
//! seize custody of the (still-locked) inner lock word with a CAS on
//! the holder cell, clear the dead process's `FLAG`, and re-arm `TURN`
//! past it, so the round-robin sweep — and with it Lemma 3 — resumes
//! among the survivors. The displaced holder's `unlock` is *fenced*:
//! it loses the custody CAS and must not touch the inner lock the
//! successor now owns. Successions are budgeted; past
//! `max_successions` the lock declares itself unrecoverable
//! ([`StarvationFree::is_poisoned`]) rather than mask a correlated
//! failure forever.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use cso_memory::backoff::{Deadline, Spinner};
use cso_memory::combining::CachePadded;
use cso_memory::fail_point;
use cso_memory::liveness::{Liveness, RecoveryPolicy};
use cso_memory::proto::{ProtoBool, ProtoU32, ProtoUsize};
use cso_memory::reg::{RegBool, RegUsize};
use cso_metrics::{CounterBlock, Registry};
use cso_trace::{probe, probe_if, Event, NO_TID};

use crate::raw::{ProcLock, RawLock};

/// Sentinel for "no recorded holder" in [`RecoveryState::holder`].
const NO_HOLDER: usize = usize::MAX;

/// Crash-recovery state, attached once via
/// [`StarvationFree::enable_recovery`]. All uncounted protocol words
/// (`cso_memory::proto`): custody tracking must not perturb the
/// paper's counted budgets, but its races are yield points under the
/// model runtime.
#[derive(Debug)]
struct RecoveryState {
    live: Arc<Liveness>,
    policy: RecoveryPolicy,
    /// Identity currently holding the inner lock (`NO_HOLDER` = free).
    /// Written by the holder on acquire; surrendered by CAS — exactly
    /// one of {holder's unlock, a successor's seizure} wins it.
    holder: ProtoUsize,
    /// Succession critical section: `recoverer + 1`, `0` = free. The
    /// lease itself is breakable (a recoverer can die too).
    recovering: ProtoUsize,
    /// Set once the succession budget is exhausted: the lock is
    /// unrecoverable and every `lock_recovering` fails fast.
    failed: ProtoBool,
}

/// The outcome of one [`StarvationFree::try_succeed`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Succession {
    /// The caller now holds the lock (inherited custody of the inner
    /// lock word; release with [`ProcLock::unlock`]).
    Acquired,
    /// Nothing to succeed: the lock is free, recovery is not enabled,
    /// or the recorded holder is not suspected dead. Keep waiting.
    NoSuspect,
    /// Another (live) process is running the succession protocol.
    Busy,
    /// The succession budget is exhausted; the lock is poisoned.
    Exhausted,
}

/// The outcome of a deadline-bounded recovering acquisition
/// ([`StarvationFree::lock_recovering_until`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveringLock {
    /// The lock is held (acquired normally or by succession); release
    /// with [`ProcLock::unlock`].
    Acquired,
    /// The deadline expired first. Nothing is held and the caller's
    /// `FLAG` is lowered.
    TimedOut,
    /// The succession budget is exhausted; the lock is unrecoverable
    /// (see [`StarvationFree::is_poisoned`]).
    Poisoned,
}

/// A snapshot of recovery progress, from
/// [`StarvationFree::recovery_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfRecoveryStats {
    /// Completed lock successions.
    pub successions: u64,
    /// Unlock attempts by displaced holders that were fenced off.
    pub fenced_unlocks: u64,
    /// True once the succession budget is exhausted.
    pub failed: bool,
    /// The recorded current holder, if any.
    pub holder: Option<usize>,
}

/// The slots of a [`StarvationFree`] lock's [`CounterBlock`], written
/// in owned mode (row = the acting process).
mod slot {
    /// Successful acquisitions through the booster (any entry point).
    pub const ACQUIRES: usize = 0;
    /// `TURN` advances at line 11 and by the recovery unwedge (the
    /// round-robin fairness handoffs).
    pub const TURN_ADVANCES: usize = 1;
    /// Completed lock successions (custody seized from a dead holder;
    /// monotone, feeds the succession budget).
    pub const SUCCESSIONS: usize = 2;
    /// Unlocks by a displaced holder that were fenced off.
    pub const FENCED_UNLOCKS: usize = 3;
}

/// Boosts any deadlock-free [`RawLock`] into a starvation-free
/// [`ProcLock`] using the paper's `FLAG`/`TURN` round-robin mechanism.
///
/// This wrapper *is* the paper's contention manager, packaged
/// separately so it can also serve "other fairness-related problems"
/// (§1.2). `cso-core`'s contention-sensitive transformation uses it for
/// the Figure 3 slow path.
///
/// ```
/// use cso_locks::{ProcLock, StarvationFree, TasLock};
///
/// let lock = StarvationFree::new(TasLock::new(), 3);
/// lock.lock(2);
/// // ... critical section ...
/// lock.unlock(2);
/// ```
#[derive(Debug)]
pub struct StarvationFree<L> {
    inner: L,
    /// `FLAG[i]`: process `i` is competing for the lock. Each entry
    /// sits on its own cache line: `FLAG[i]` is written only by
    /// process `i` but spun on by every line-05 waiter, so packed
    /// entries would put each flag write on the coherence critical
    /// path of unrelated waiters (false sharing).
    flag: Vec<CachePadded<RegBool>>,
    /// Identity currently given priority; advances round-robin.
    /// Padded away from the `flag` vector and the inner lock word for
    /// the same reason — every waiter re-reads `TURN` in its spin
    /// loop.
    turn: CachePadded<RegUsize>,
    /// Fairness and recovery counters, one row per process (see
    /// [`slot`]): plain (uncounted) atomics, so counting never changes
    /// the paper's counted-access budgets.
    counts: CounterBlock,
    /// Optional crash-recovery state (see
    /// [`StarvationFree::enable_recovery`]).
    recovery: OnceLock<RecoveryState>,
    /// Trace-thread id of the last releaser, consumed (swapped back to
    /// [`NO_TID`]) by the next acquirer to emit
    /// [`Event::HandoffFrom`]. An uncounted protocol word: causal
    /// stamps must not perturb the paper's counted budgets. Padded —
    /// every release writes it while waiters hammer the inner word.
    prev_tid: CachePadded<ProtoU32>,
    /// Trace-thread id of the current holder's OS thread (uncounted).
    /// Read by a successor after winning the custody CAS to emit
    /// [`Event::CustodyFrom`] against the corpse's thread.
    holder_tid: CachePadded<ProtoU32>,
}

impl<L: RawLock> StarvationFree<L> {
    /// Wraps the deadlock-free lock `inner` for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(inner: L, n: usize) -> StarvationFree<L> {
        assert!(n > 0, "the booster needs at least one process");
        StarvationFree {
            inner,
            flag: (0..n)
                .map(|_| CachePadded::new(RegBool::new(false)))
                .collect(),
            turn: CachePadded::new(RegUsize::new(0)),
            counts: CounterBlock::new(n),
            recovery: OnceLock::new(),
            prev_tid: CachePadded::new(ProtoU32::new(NO_TID)),
            holder_tid: CachePadded::new(ProtoU32::new(NO_TID)),
        }
    }

    /// Registers this lock's own counters into `registry` as
    /// `<prefix>_lock_acquires_total`, `<prefix>_turn_advances_total`
    /// and `<prefix>_lock_successions_total`. The counters exist from
    /// construction, so the series count every event since then;
    /// attaching again (under any prefix) registers the same counters,
    /// never a second count.
    pub fn attach_metrics(&self, registry: &Registry, prefix: &str) {
        for (slot, name) in [
            (slot::ACQUIRES, "lock_acquires_total"),
            (slot::TURN_ADVANCES, "turn_advances_total"),
            (slot::SUCCESSIONS, "lock_successions_total"),
        ] {
            registry.register_counter(&format!("{prefix}_{name}"), self.counts.counter(slot));
        }
    }

    /// Returns the wrapped lock.
    pub fn into_inner(self) -> L {
        self.inner
    }

    /// Access to the wrapped lock (for instrumentation).
    pub fn inner(&self) -> &L {
        &self.inner
    }

    /// Attempts to acquire without waiting: succeeds only if `proc`
    /// passes the line-05 priority predicate immediately *and* the
    /// inner lock is free.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn try_lock(&self, proc: usize) -> bool {
        assert!(proc < self.flag.len(), "process id out of range");
        self.flag[proc].write(true);
        let t = self.turn.read();
        if (t == proc || !self.flag[t].read()) && self.inner.try_lock() {
            self.note_holder(proc);
            self.counts.add_owned(proc, slot::ACQUIRES, 1);
            true
        } else {
            self.flag[proc].write(false);
            false
        }
    }

    /// *Abortable* acquisition (the paper's §1.2 discussion of
    /// abortable mutual exclusion, ref \[13\]): competes for at most
    /// `budget` predicate evaluations, then **stops competing** and
    /// returns `false`. Per the abortable-mutex contract, the
    /// abandonment "has not to alter the liveness of the other
    /// critical section requests": the flag is lowered on abort, so
    /// waiters blocked on `FLAG[TURN]` observe an idle priority holder
    /// and proceed.
    ///
    /// Returns `true` when the lock was acquired (release it with
    /// [`ProcLock::unlock`]).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn lock_abortable(&self, proc: usize, budget: usize) -> bool {
        assert!(proc < self.flag.len(), "process id out of range");
        // Line 04: announce the competition.
        self.flag[proc].write(true);
        probe!(Event::FlagRaise(proc as u32));
        let mut spinner = Spinner::new();
        for _ in 0..budget {
            // Line 05 predicate.
            let t = self.turn.read();
            if t == proc || !self.flag[t].read() {
                // Priority granted: go for the inner lock, but stay
                // abortable — try_lock, so a held inner lock counts
                // against the budget instead of blocking forever.
                if self.inner.try_lock() {
                    self.note_holder(proc);
                    self.counts.add_owned(proc, slot::ACQUIRES, 1);
                    return true;
                }
            }
            spinner.spin();
        }
        // Abort: stop competing. No other waiter can be blocked on us
        // afterwards (they re-read FLAG[TURN] in their wait loop).
        self.flag[proc].write(false);
        false
    }

    /// Deadline-bounded acquisition: like [`ProcLock::lock`], but gives
    /// up — lowering `FLAG[proc]` so nobody waits on a ghost — once
    /// `deadline` expires, whether the wait was on the line-05
    /// predicate or on the inner lock. Returns whether the lock was
    /// acquired (release with [`ProcLock::unlock`]).
    ///
    /// The inner lock is taken through [`RawLock::try_lock_until`], so
    /// even a *wedged* inner lock (e.g. a crashed holder, the §5
    /// failure scenario) cannot block past the deadline.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn lock_until(&self, proc: usize, deadline: Deadline) -> bool {
        assert!(proc < self.flag.len(), "process id out of range");
        // Line 04: announce the competition.
        self.flag[proc].write(true);
        probe!(Event::FlagRaise(proc as u32));
        fail_point!("sfree::wait");
        // Line 05, deadline-bounded.
        let mut spinner = Spinner::new();
        loop {
            let t = self.turn.read();
            if t == proc || !self.flag[t].read() {
                break;
            }
            if !spinner.spin_deadline(deadline) {
                self.flag[proc].write(false);
                return false;
            }
        }
        // Line 06, deadline-bounded.
        if self.inner.try_lock_until(deadline) {
            self.note_holder(proc);
            self.counts.add_owned(proc, slot::ACQUIRES, 1);
            true
        } else {
            self.flag[proc].write(false);
            false
        }
    }

    /// Attaches crash recovery: `live` supplies failure suspicion and
    /// `policy` bounds it. Idempotent (the first attachment wins).
    ///
    /// Once enabled, every acquisition records its identity in an
    /// (uncounted) holder cell, [`ProcLock::unlock`] is custody-fenced,
    /// and waiters may run [`StarvationFree::lock_recovering`] /
    /// [`StarvationFree::try_succeed`].
    ///
    /// # Panics
    ///
    /// Panics if `live` tracks fewer identities than this lock.
    pub fn enable_recovery(&self, live: Arc<Liveness>, policy: RecoveryPolicy) {
        assert!(
            live.n() >= self.flag.len(),
            "liveness registry smaller than the lock's process range"
        );
        let _ = self.recovery.set(RecoveryState {
            live,
            policy,
            holder: ProtoUsize::new(NO_HOLDER),
            recovering: ProtoUsize::new(0),
            failed: ProtoBool::new(false),
        });
    }

    /// Records `proc` as the inner-lock holder (recovery custody, when
    /// enabled) and stamps the causal handoff cells. The boosted entry
    /// points do this themselves; call it only when taking the inner
    /// lock *directly* via [`StarvationFree::inner`] (the combining
    /// path), and pair with [`StarvationFree::raw_unlock`].
    #[inline]
    pub fn note_holder(&self, proc: usize) {
        if let Some(rec) = self.recovery.get() {
            rec.holder.store(proc, Ordering::Release);
        }
        self.stamp_acquire();
    }

    /// Causal stamp at every acquisition: consume the releaser's
    /// handoff stamp (so a later successor can never observe a stale
    /// one) and record our own thread as holder. The consuming `swap`
    /// plus the emission keep the helped-by edge exactly-once per
    /// handoff. Relaxed suffices — the stamp was published by the
    /// releaser's inner-lock Release and we hold the lock's Acquire.
    #[inline]
    fn stamp_acquire(&self) {
        let prev = self.prev_tid.swap(NO_TID, Ordering::Relaxed);
        probe_if!(prev != NO_TID, Event::HandoffFrom(prev));
        self.holder_tid.store(probe::thread_id(), Ordering::Relaxed);
    }

    /// Causal stamp at every release: leave our thread id for the next
    /// acquirer. Must run *before* the inner lock's Release store so
    /// the stamp is published with it.
    #[inline]
    fn stamp_release(&self) {
        self.prev_tid.store(probe::thread_id(), Ordering::Relaxed);
    }

    /// Gives up custody of the inner lock. Returns `false` — and the
    /// caller must then leave the inner lock alone — when a successor
    /// seized custody in the meantime: exactly one of {the holder's
    /// surrender, a successor's seizure} wins the CAS on the holder
    /// cell.
    fn surrender_custody(&self, proc: usize) -> bool {
        let Some(rec) = self.recovery.get() else {
            return true;
        };
        if rec
            .holder
            .compare_exchange(proc, NO_HOLDER, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            true
        } else {
            self.counts.add_owned(proc, slot::FENCED_UNLOCKS, 1);
            false
        }
    }

    /// Fenced release of the **inner** lock for callers that acquired
    /// it directly (combining path): the custody check of
    /// [`ProcLock::unlock`] without the `FLAG`/`TURN` bookkeeping.
    /// Returns whether the inner lock was actually released.
    pub fn raw_unlock(&self, proc: usize) -> bool {
        if self.surrender_custody(proc) {
            self.stamp_release();
            self.inner.unlock();
            true
        } else {
            false
        }
    }

    /// True once the succession budget was exhausted and the lock
    /// declared itself unrecoverable.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.recovery
            .get()
            .is_some_and(|r| r.failed.load(Ordering::Acquire))
    }

    /// A snapshot of recovery progress; `None` until
    /// [`StarvationFree::enable_recovery`].
    #[must_use]
    pub fn recovery_stats(&self) -> Option<SfRecoveryStats> {
        self.recovery.get().map(|r| SfRecoveryStats {
            successions: self.counts.sum(slot::SUCCESSIONS),
            fenced_unlocks: self.counts.sum(slot::FENCED_UNLOCKS),
            failed: r.failed.load(Ordering::Acquire),
            holder: match r.holder.load(Ordering::Acquire) {
                NO_HOLDER => None,
                h => Some(h),
            },
        })
    }

    /// If the line-05 priority holder (`TURN`) is a suspected corpse
    /// with its `FLAG` still up — the wedge that blocks every waiter's
    /// wait predicate — clear its flag and re-arm `TURN` past it.
    /// Harmless under false suspicion: a live `t` merely loses its
    /// priority slot, never mutual exclusion (the inner lock still
    /// arbitrates).
    fn unwedge_turn(&self, proc: usize, rec: &RecoveryState) {
        let t = self.turn.read();
        if t != proc && self.flag[t].read() && rec.live.suspect(t, rec.policy.grace) {
            probe!(Event::SuspectRaised(t as u32));
            self.flag[t].write(false);
            let next = (t + 1) % self.flag.len();
            self.turn.write(next);
            probe!(Event::TurnAdvance(next as u32));
            self.counts.add_owned(proc, slot::TURN_ADVANCES, 1);
        }
    }

    /// One bounded attempt to recover the lock from a suspected-dead
    /// holder. Safe to call at any time; it never blocks.
    ///
    /// The successor inherits the *still-locked* inner lock word by
    /// winning a CAS on the holder cell (custody transfer) — the lock
    /// is never observably unlocked in between, so no third process
    /// can slip in. It then clears the dead holder's `FLAG` and
    /// re-arms `TURN`, restoring the Lemma 3 round-robin sweep among
    /// the survivors. A falsely suspected (live) holder discovers the
    /// seizure when its fenced `unlock` loses the custody CAS.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn try_succeed(&self, proc: usize) -> Succession {
        self.succeed_impl(proc, true)
    }

    /// [`StarvationFree::try_succeed`] for callers that hold (or want)
    /// the **inner** lock directly, like the combining slow path:
    /// custody is seized without raising `FLAG[proc]`, so the
    /// acquisition must be released with [`StarvationFree::raw_unlock`]
    /// rather than [`ProcLock::unlock`].
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn try_succeed_raw(&self, proc: usize) -> Succession {
        self.succeed_impl(proc, false)
    }

    fn succeed_impl(&self, proc: usize, boosted: bool) -> Succession {
        assert!(proc < self.flag.len(), "process id out of range");
        let Some(rec) = self.recovery.get() else {
            return Succession::NoSuspect;
        };
        if rec.failed.load(Ordering::Acquire) {
            return Succession::Exhausted;
        }
        // A free lock needs no succession — take it normally. This
        // also covers a holder that died *after* surrendering custody:
        // the inner lock is free even though nobody advanced TURN.
        if boosted {
            if self.try_lock(proc) {
                return Succession::Acquired;
            }
        } else if self.inner.try_lock() {
            self.note_holder(proc);
            self.counts.add_owned(proc, slot::ACQUIRES, 1);
            return Succession::Acquired;
        }
        // Identify the corpse.
        let h = rec.holder.load(Ordering::Acquire);
        if h == NO_HOLDER || h == proc || !rec.live.suspect(h, rec.policy.grace) {
            return Succession::NoSuspect;
        }
        probe!(Event::SuspectRaised(h as u32));
        // Enter the succession critical section. The lease is itself
        // breakable — a recoverer can die too.
        let me = proc + 1;
        let cur = rec.recovering.load(Ordering::Acquire);
        if cur == me
            || (cur != 0 && !rec.live.suspect(cur - 1, rec.policy.grace))
            || rec
                .recovering
                .compare_exchange(cur, me, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            return Succession::Busy;
        }
        let outcome = 'seize: {
            // Re-validate under the lease: the holder may have
            // unlocked, been succeeded, or proven alive while we raced
            // here.
            if rec.holder.load(Ordering::Acquire) != h || !rec.live.suspect(h, rec.policy.grace) {
                break 'seize Succession::NoSuspect;
            }
            // Budget: fail fast instead of masking a correlated
            // failure forever. Earlier successors' counts are visible:
            // each released the lease (Release) after counting, and we
            // took it (AcqRel).
            if self.counts.sum(slot::SUCCESSIONS) >= u64::from(rec.policy.max_successions) {
                rec.failed.store(true, Ordering::Release);
                break 'seize Succession::Exhausted;
            }
            // Custody transfer: inherit the still-locked inner word.
            if rec
                .holder
                .compare_exchange(h, proc, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                break 'seize Succession::NoSuspect;
            }
            self.counts.add_owned(proc, slot::SUCCESSIONS, 1);
            // Causal edge: custody of the still-locked inner word came
            // from the corpse's thread. Read its acquire stamp before
            // overwriting with our own.
            let corpse_tid = self.holder_tid.load(Ordering::Relaxed);
            probe_if!(corpse_tid != NO_TID, Event::CustodyFrom(corpse_tid));
            self.holder_tid.store(probe::thread_id(), Ordering::Relaxed);
            // The corpse is no longer competing: clear its FLAG and
            // re-arm TURN past it (the §4.4 recovery writes).
            self.flag[h].write(false);
            let t = self.turn.read();
            if t == h {
                let next = (t + 1) % self.flag.len();
                self.turn.write(next);
                probe!(Event::TurnAdvance(next as u32));
            }
            // We are the holder now; on the boosted path, compete
            // like one (raw callers release via `raw_unlock` and must
            // not leave a ghost FLAG behind).
            if boosted {
                self.flag[proc].write(true);
                probe!(Event::FlagRaise(proc as u32));
            }
            probe!(Event::LockSucceeded(proc as u32));
            self.counts.add_owned(proc, slot::ACQUIRES, 1);
            Succession::Acquired
        };
        rec.recovering.store(0, Ordering::Release);
        outcome
    }

    /// Blocking acquisition that survives dead peers: behaves like
    /// [`ProcLock::lock`] while everyone is live, and runs
    /// [`StarvationFree::try_succeed`] (plus the line-05
    /// [`TURN` unwedge](StarvationFree::try_succeed)) whenever a
    /// bounded wait expires. Heartbeats the caller's own lease each
    /// round. Returns `false` only when the lock is unrecoverable
    /// (succession budget exhausted — see
    /// [`StarvationFree::is_poisoned`]).
    ///
    /// Without [`StarvationFree::enable_recovery`] this is exactly
    /// [`ProcLock::lock`] (and always returns `true`).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn lock_recovering(&self, proc: usize) -> bool {
        match self.lock_recovering_until(proc, Deadline::NEVER) {
            RecoveringLock::Acquired => true,
            // NEVER cannot time out; Poisoned is the only failure.
            RecoveringLock::TimedOut | RecoveringLock::Poisoned => false,
        }
    }

    /// Deadline-bounded [`StarvationFree::lock_recovering`]: waits in
    /// `policy.backoff`-sized slices, running the unwedge/succession
    /// protocol between slices, until the lock is acquired, the
    /// deadline expires, or the lock poisons itself. Without
    /// [`StarvationFree::enable_recovery`] this is exactly
    /// [`StarvationFree::lock_until`].
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn lock_recovering_until(&self, proc: usize, deadline: Deadline) -> RecoveringLock {
        let Some(rec) = self.recovery.get() else {
            return if self.lock_until(proc, deadline) {
                RecoveringLock::Acquired
            } else {
                RecoveringLock::TimedOut
            };
        };
        loop {
            if rec.failed.load(Ordering::Acquire) {
                return RecoveringLock::Poisoned;
            }
            rec.live.beat(proc);
            let slice = match deadline.remaining() {
                None => rec.policy.backoff,
                Some(left) => left.min(rec.policy.backoff),
            };
            if self.lock_until(proc, Deadline::after(slice)) {
                return RecoveringLock::Acquired;
            }
            // The bounded wait expired: unwedge a dead priority
            // holder, then try to succeed a dead lock holder.
            self.unwedge_turn(proc, rec);
            match self.try_succeed(proc) {
                Succession::Acquired => return RecoveringLock::Acquired,
                Succession::Exhausted => return RecoveringLock::Poisoned,
                Succession::NoSuspect | Succession::Busy => {}
            }
            if deadline.expired() {
                return RecoveringLock::TimedOut;
            }
        }
    }
}

impl<L: RawLock> ProcLock for StarvationFree<L> {
    fn n(&self) -> usize {
        self.flag.len()
    }

    fn lock(&self, proc: usize) {
        assert!(proc < self.flag.len(), "process id out of range");
        // Line 04: announce the competition.
        self.flag[proc].write(true);
        probe!(Event::FlagRaise(proc as u32));
        fail_point!("sfree::wait");
        // Line 05: wait until we have priority or the priority holder
        // is not competing.
        let mut spinner = Spinner::new();
        loop {
            let t = self.turn.read();
            if t == proc || !self.flag[t].read() {
                break;
            }
            spinner.spin();
        }
        // Line 06: go through the (merely deadlock-free) inner lock.
        self.inner.lock();
        self.note_holder(proc);
        self.counts.add_owned(proc, slot::ACQUIRES, 1);
    }

    fn unlock(&self, proc: usize) {
        assert!(proc < self.flag.len(), "process id out of range");
        fail_point!("sfree::unlock");
        // Custody check first (recovery only): a displaced holder —
        // falsely suspected, then succeeded — no longer owns the inner
        // lock and must not release it out from under its successor.
        // Exactly one of {this surrender, a successor's seizure} wins
        // the holder cell.
        if !self.surrender_custody(proc) {
            self.flag[proc].write(false);
            return;
        }
        // Line 10: we are no longer competing.
        self.flag[proc].write(false);
        // Line 11: if the priority holder is idle, pass priority on —
        // round-robin, skipping nobody.
        let t = self.turn.read();
        if !self.flag[t].read() {
            let next = (t + 1) % self.flag.len();
            self.turn.write(next);
            probe!(Event::TurnAdvance(next as u32));
            self.counts.add_owned(proc, slot::TURN_ADVANCES, 1);
        }
        // Line 12.
        self.stamp_release();
        self.inner.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::stress_proc;
    use crate::{TasLock, TtasLock};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn provides_mutual_exclusion_over_tas() {
        stress_proc(StarvationFree::new(TasLock::new(), 4), 4, 2_000);
    }

    #[test]
    fn provides_mutual_exclusion_over_ttas() {
        stress_proc(StarvationFree::new(TtasLock::new(), 4), 4, 2_000);
    }

    #[test]
    fn solo_use_keeps_turn_moving_only_when_idle() {
        let lock = StarvationFree::new(TasLock::new(), 3);
        // Solo acquire/release cycles advance TURN one step each
        // (FLAG[TURN] is false at unlock time).
        for _ in 0..6 {
            lock.lock(0);
            lock.unlock(0);
        }
        // No assertion on the exact TURN value (it is private state);
        // the point is the cycles complete without deadlock.
    }

    /// Starvation-freedom smoke test: with heavy contention from
    /// hoggers, a single low-priority thread must still complete its
    /// operations in bounded time.
    #[test]
    fn victim_thread_completes_under_contention() {
        let lock = Arc::new(StarvationFree::new(TasLock::new(), 4));
        let stop = Arc::new(AtomicBool::new(false));
        let victim_done = Arc::new(AtomicUsize::new(0));

        let hoggers: Vec<_> = (0..3)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::SeqCst) {
                        lock.lock(i);
                        lock.unlock(i);
                    }
                })
            })
            .collect();

        let victim = {
            let lock = Arc::clone(&lock);
            let done = Arc::clone(&victim_done);
            std::thread::spawn(move || {
                for _ in 0..200 {
                    lock.lock(3);
                    lock.unlock(3);
                    done.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        victim.join().expect("victim must not be starved");
        stop.store(true, Ordering::SeqCst);
        for h in hoggers {
            h.join().unwrap();
        }
        assert_eq!(victim_done.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn flag_and_turn_live_on_distinct_cache_lines() {
        // Compile-time: the padding wrapper really is line-sized.
        const _: () = assert!(std::mem::align_of::<CachePadded<RegBool>>() >= 128);
        const _: () = assert!(std::mem::size_of::<CachePadded<RegBool>>() >= 128);
        const _: () = assert!(std::mem::align_of::<CachePadded<RegUsize>>() >= 128);

        // Runtime: adjacent FLAG entries are at least a line apart,
        // and TURN shares a line with none of them.
        let lock = StarvationFree::new(TasLock::new(), 3);
        let addr = |i: usize| std::ptr::from_ref::<CachePadded<RegBool>>(&lock.flag[i]) as usize;
        for i in 0..2 {
            assert!(addr(i + 1).abs_diff(addr(i)) >= 128);
            assert_eq!(addr(i) % 128, 0);
        }
        let turn = std::ptr::from_ref::<CachePadded<RegUsize>>(&lock.turn) as usize;
        for i in 0..3 {
            assert!(turn.abs_diff(addr(i)) >= 128);
        }
    }

    #[test]
    fn attached_metrics_count_acquires_and_turn_advances() {
        let registry = cso_metrics::Registry::new();
        let lock = StarvationFree::new(TasLock::new(), 2);
        lock.attach_metrics(&registry, "sf");
        for _ in 0..5 {
            lock.lock(0);
            lock.unlock(0);
        }
        assert!(lock.try_lock(1));
        lock.unlock(1);
        let acquires = registry.counter("sf_lock_acquires_total");
        let advances = registry.counter("sf_turn_advances_total");
        assert_eq!(acquires.value(), 6);
        // Every solo unlock found FLAG[TURN] low and advanced TURN.
        assert_eq!(advances.value(), 6);
        // A second attachment registers the same counters, not a
        // double count.
        lock.attach_metrics(&registry, "other");
        lock.lock(0);
        lock.unlock(0);
        assert_eq!(acquires.value(), 7);
    }

    /// Causal-edge stamps only materialize with the `trace` feature
    /// (thread ids come from the probe rings); the cells themselves
    /// exist in every build.
    #[cfg(feature = "trace")]
    mod causal {
        use super::*;

        /// The probe rings are process-global; live tests serialize.
        fn serial() -> std::sync::MutexGuard<'static, ()> {
            static M: std::sync::Mutex<()> = std::sync::Mutex::new(());
            M.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        #[test]
        fn unlock_then_lock_emits_a_handoff_edge() {
            let _serial = serial();
            probe::clear();
            let lock = Arc::new(StarvationFree::new(TasLock::new(), 2));
            lock.lock(0);
            let releaser = probe::thread_id();
            lock.unlock(0);
            let peer = Arc::clone(&lock);
            std::thread::spawn(move || {
                peer.lock(1);
                peer.unlock(1);
            })
            .join()
            .unwrap();
            let trace = probe::collect();
            let edge = trace
                .events
                .iter()
                .find(|e| matches!(e.event, Event::HandoffFrom(_)))
                .expect("the second acquisition records a handoff edge");
            assert_eq!(edge.event, Event::HandoffFrom(releaser));
            assert_ne!(
                edge.thread, releaser,
                "the edge is on the acquirer's thread"
            );
        }

        #[test]
        fn succession_emits_a_custody_edge_from_the_corpse_thread() {
            use cso_memory::liveness::Liveness;
            let _serial = serial();
            probe::clear();
            let lock = Arc::new(StarvationFree::new(TasLock::new(), 3));
            let live = Liveness::new(3);
            lock.enable_recovery(Arc::clone(&live), test_policy());
            for p in 0..3 {
                live.announce(p);
            }
            // The corpse acquires on a different OS thread, then "dies"
            // holding the lock.
            let held = Arc::clone(&lock);
            let corpse_tid = std::thread::spawn(move || {
                held.lock(0);
                probe::thread_id()
            })
            .join()
            .unwrap();
            live.mark_dead(0);
            assert_eq!(lock.try_succeed(1), Succession::Acquired);
            let trace = probe::collect();
            let edge = trace
                .events
                .iter()
                .find(|e| matches!(e.event, Event::CustodyFrom(_)))
                .expect("the seizure records a custody edge");
            assert_eq!(edge.event, Event::CustodyFrom(corpse_tid));
            assert_ne!(
                edge.thread, corpse_tid,
                "the edge is on the successor's thread"
            );
            lock.unlock(1);
        }

        #[test]
        fn a_successor_never_sees_the_pre_corpse_handoff_stamp() {
            use cso_memory::liveness::Liveness;
            let _serial = serial();
            probe::clear();
            let lock = Arc::new(StarvationFree::new(TasLock::new(), 3));
            let live = Liveness::new(3);
            lock.enable_recovery(Arc::clone(&live), test_policy());
            for p in 0..3 {
                live.announce(p);
            }
            // A full handoff cycle first, so prev_tid has been written
            // once...
            lock.lock(2);
            lock.unlock(2);
            // ...then the corpse acquires (consuming the stamp) and dies.
            let held = Arc::clone(&lock);
            std::thread::spawn(move || held.lock(0)).join().unwrap();
            live.mark_dead(0);
            probe::clear();
            assert_eq!(lock.try_succeed(1), Succession::Acquired);
            let trace = probe::collect();
            assert!(
                !trace
                    .events
                    .iter()
                    .any(|e| matches!(e.event, Event::HandoffFrom(_))),
                "custody transfer must not fabricate a handoff edge"
            );
            lock.unlock(1);
        }
    }

    /// A recovery policy for tests: only explicit `mark_dead` raises
    /// suspicion (huge grace), and waits retry quickly.
    fn test_policy() -> cso_memory::liveness::RecoveryPolicy {
        cso_memory::liveness::RecoveryPolicy {
            grace: std::time::Duration::from_secs(3600),
            max_successions: 4,
            backoff: std::time::Duration::from_millis(1),
        }
    }

    #[test]
    fn succession_seizes_a_dead_holders_lock_and_fences_its_unlock() {
        use cso_memory::liveness::Liveness;
        let lock = StarvationFree::new(TasLock::new(), 3);
        let live = Liveness::new(3);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        for p in 0..3 {
            live.announce(p);
        }

        lock.lock(0);
        assert_eq!(lock.try_succeed(1), Succession::NoSuspect, "live holder");
        live.mark_dead(0);
        assert_eq!(lock.try_succeed(1), Succession::Acquired);
        let stats = lock.recovery_stats().expect("recovery enabled");
        assert_eq!(stats.successions, 1);
        assert_eq!(stats.holder, Some(1));
        assert!(!stats.failed);

        // The displaced holder's unlock is fenced off: it must not
        // release the lock its successor now owns.
        lock.unlock(0);
        let stats = lock.recovery_stats().unwrap();
        assert_eq!(stats.fenced_unlocks, 1);
        assert_eq!(stats.holder, Some(1), "successor still holds");
        assert!(!lock.try_lock(2), "lock is genuinely still held");

        // The successor releases normally and the lock stays usable.
        lock.unlock(1);
        assert!(lock.try_lock(2));
        lock.unlock(2);
    }

    #[test]
    fn succession_budget_exhausts_and_poisons_the_lock() {
        use cso_memory::liveness::Liveness;
        let mut policy = test_policy();
        policy.max_successions = 1;
        let lock = StarvationFree::new(TasLock::new(), 3);
        let live = Liveness::new(3);
        lock.enable_recovery(Arc::clone(&live), policy);
        for p in 0..3 {
            live.announce(p);
        }

        lock.lock(0);
        live.mark_dead(0);
        assert_eq!(lock.try_succeed(1), Succession::Acquired);
        assert!(!lock.is_poisoned());

        // The successor dies too: the budget (1) is spent, so the next
        // succession fails fast instead of masking a correlated
        // failure.
        live.mark_dead(1);
        assert_eq!(lock.try_succeed(2), Succession::Exhausted);
        assert!(lock.is_poisoned());
        assert!(lock.recovery_stats().unwrap().failed);
        assert!(!lock.lock_recovering(2), "poisoned lock fails fast");
    }

    #[test]
    fn lock_recovering_survives_a_holder_that_dies_mid_section() {
        use cso_memory::liveness::Liveness;
        let lock = Arc::new(StarvationFree::new(TasLock::new(), 2));
        let live = Liveness::new(2);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        live.announce(0);
        live.announce(1);

        // Process 0 takes the lock and "crashes" (never unlocks).
        lock.lock(0);
        live.mark_dead(0);

        // Process 1 must get through anyway, via succession.
        assert!(lock.lock_recovering(1));
        assert_eq!(lock.recovery_stats().unwrap().holder, Some(1));
        lock.unlock(1);

        // And the lock remains a working lock afterwards.
        assert!(lock.lock_recovering(1));
        lock.unlock(1);
        assert_eq!(lock.recovery_stats().unwrap().successions, 1);
    }

    #[test]
    fn lock_recovering_until_times_out_on_a_live_holder() {
        use cso_memory::liveness::Liveness;
        let lock = StarvationFree::new(TasLock::new(), 2);
        let live = Liveness::new(2);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        live.announce(0);
        live.announce(1);

        // A live holder is never succeeded: the bounded wait expires.
        lock.lock(0);
        assert_eq!(
            lock.lock_recovering_until(1, Deadline::after(std::time::Duration::from_millis(5))),
            RecoveringLock::TimedOut
        );
        lock.unlock(0);

        // Free lock: acquired within the deadline.
        assert_eq!(
            lock.lock_recovering_until(1, Deadline::after(std::time::Duration::from_millis(50))),
            RecoveringLock::Acquired
        );
        lock.unlock(1);

        // Dead holder: succeeded within the deadline.
        lock.lock(0);
        live.mark_dead(0);
        assert_eq!(
            lock.lock_recovering_until(1, Deadline::after(std::time::Duration::from_secs(5))),
            RecoveringLock::Acquired
        );
        lock.unlock(1);
    }

    #[test]
    fn raw_unlock_pairs_with_note_holder_and_fences_seizure() {
        use cso_memory::liveness::Liveness;
        let lock = StarvationFree::new(TasLock::new(), 2);
        let live = Liveness::new(2);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        live.announce(0);
        live.announce(1);

        // The combining path takes the inner lock directly.
        assert!(lock.inner().try_lock());
        lock.note_holder(0);
        assert_eq!(lock.recovery_stats().unwrap().holder, Some(0));
        live.mark_dead(0);
        assert_eq!(lock.try_succeed(1), Succession::Acquired);
        assert!(!lock.raw_unlock(0), "displaced combiner is fenced");
        lock.unlock(1);

        // Un-seized raw custody round-trips cleanly.
        live.announce(0);
        assert!(lock.inner().try_lock());
        lock.note_holder(0);
        assert!(lock.raw_unlock(0));
        assert!(lock.try_lock(1));
        lock.unlock(1);
    }

    #[test]
    fn raw_succession_leaves_no_ghost_flag() {
        use cso_memory::liveness::Liveness;
        let lock = StarvationFree::new(TasLock::new(), 2);
        let live = Liveness::new(2);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        live.announce(0);
        live.announce(1);

        // A direct inner-lock holder (combining tenure) dies.
        assert!(lock.inner().try_lock());
        lock.note_holder(0);
        live.mark_dead(0);
        assert_eq!(lock.try_succeed_raw(1), Succession::Acquired);
        assert_eq!(lock.recovery_stats().unwrap().holder, Some(1));
        assert!(lock.raw_unlock(1));

        // No FLAG was raised by the raw seizure: a boosted waiter gets
        // straight through instead of waiting on a ghost competitor.
        assert!(lock.try_lock(0) || lock.try_lock(1));
    }

    #[test]
    fn without_recovery_the_new_entry_points_degrade_to_plain_locking() {
        let lock = StarvationFree::new(TasLock::new(), 2);
        assert!(lock.lock_recovering(0));
        assert_eq!(lock.try_succeed(1), Succession::NoSuspect);
        lock.unlock(0);
        assert!(!lock.is_poisoned());
        assert!(lock.recovery_stats().is_none());
        // The raw custody pair is a plain inner lock/unlock.
        assert!(lock.inner().try_lock());
        lock.note_holder(0);
        assert!(lock.raw_unlock(0));
    }

    #[test]
    fn succession_is_counted_by_attached_metrics() {
        use cso_memory::liveness::Liveness;
        let registry = cso_metrics::Registry::new();
        let lock = StarvationFree::new(TasLock::new(), 2);
        lock.attach_metrics(&registry, "sfr");
        let live = Liveness::new(2);
        lock.enable_recovery(Arc::clone(&live), test_policy());
        live.announce(0);
        live.announce(1);
        lock.lock(0);
        live.mark_dead(0);
        assert_eq!(lock.try_succeed(1), Succession::Acquired);
        lock.unlock(1);
        assert_eq!(registry.counter("sfr_lock_successions_total").value(), 1);
        // The seizure is an acquisition too.
        assert_eq!(registry.counter("sfr_lock_acquires_total").value(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_process() {
        let lock = StarvationFree::new(TasLock::new(), 2);
        lock.lock(2);
    }

    #[test]
    fn try_lock_succeeds_when_free_and_fails_when_held() {
        let lock = StarvationFree::new(TasLock::new(), 2);
        assert!(lock.try_lock(0));
        assert!(!lock.try_lock(1), "held lock must refuse");
        lock.unlock(0);
        assert!(lock.try_lock(1));
        lock.unlock(1);
    }

    #[test]
    fn abortable_acquisition_times_out_and_reports() {
        let lock = StarvationFree::new(TasLock::new(), 2);
        lock.lock(0);
        // Process 1 gives up after a bounded competition.
        assert!(!lock.lock_abortable(1, 64));
        lock.unlock(0);
        // The abandonment left the lock usable.
        assert!(lock.lock_abortable(1, 64));
        lock.unlock(1);
    }

    /// The abortable-mutex liveness contract (§1.2, ref \[13\]): a
    /// process abandoning its attempt must not impair the other
    /// requests — here, aborters hammer tiny budgets while normal
    /// lockers must all complete.
    #[test]
    fn abandonment_does_not_impair_others() {
        use std::sync::atomic::AtomicBool;
        let lock = Arc::new(StarvationFree::new(TasLock::new(), 4));
        let stop = Arc::new(AtomicBool::new(false));

        let aborters: Vec<_> = (0..2)
            .map(|i| {
                let lock = Arc::clone(&lock);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut acquired = 0u64;
                    let mut aborted = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        if lock.lock_abortable(i, 2) {
                            acquired += 1;
                            lock.unlock(i);
                        } else {
                            aborted += 1;
                        }
                    }
                    (acquired, aborted)
                })
            })
            .collect();

        let lockers: Vec<_> = (2..4)
            .map(|i| {
                let lock = Arc::clone(&lock);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        lock.lock(i);
                        lock.unlock(i);
                    }
                })
            })
            .collect();
        for locker in lockers {
            locker
                .join()
                .expect("normal lockers complete despite aborters");
        }
        stop.store(true, Ordering::Relaxed);
        let mut total_aborts = 0;
        for aborter in aborters {
            let (_, aborted) = aborter.join().unwrap();
            total_aborts += aborted;
        }
        // With budget 2 under contention, aborts genuinely occur.
        let _ = total_aborts;
    }
}
