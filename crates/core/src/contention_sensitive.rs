//! Figure 3: the abortable → contention-sensitive, starvation-free
//! transformation.
//!
//! # Fault model
//!
//! The paper (§5) observes that the transformation tolerates crashes
//! everywhere *except* inside the critical section: a process that
//! stops between lines 06 and 12 leaves `CONTENTION` raised and the
//! lock held, wedging every future slow-path operation. This module
//! hardens the two recoverable flavours of that failure:
//!
//! * **panics** (unwinding, not process death) inside the slow path
//!   are survived: an RAII guard restores `CONTENTION`, lowers
//!   `FLAG[i]`, hands `TURN` on, and releases the lock during unwind,
//!   so other processes keep completing (see
//!   [`ContentionSensitive::telemetry`] for the poisoning record
//!   alongside the path counters);
//! * **unbounded waits** on a genuinely wedged lock are made
//!   reportable by the deadline-bounded
//!   [`ContentionSensitive::try_apply_for`];
//! * **process crashes inside the critical section** — the §5 wedge
//!   itself — are *recovered from* when [`CsConfig::recovery`] is set:
//!   a [`Liveness`] lease suspects silent processes, waiters run the
//!   lock-succession protocol of [`StarvationFree::lock_recovering`],
//!   and combiners retire (tombstone) the publication records of
//!   suspected-dead posters instead of applying them. Recovery is
//!   budgeted ([`RecoveryPolicy::max_successions`]) and degrades
//!   gracefully: combining → plain locking → fail-fast
//!   [`Unrecoverable`]. All of its bookkeeping lives in plain
//!   (uncounted) atomics, so Theorem 1's counted budgets are
//!   untouched.
//!
//! # Statistics
//!
//! Every statistic — path completions, fast-path aborts, faults,
//! combining activity, reclaimed records — is one slot of the object's
//! [`CounterBlock`], one row per process. The invoking process is the
//! only writer of its row, so a count is a relaxed load and store on a
//! line no other process writes: no locked instruction and no shared
//! statistics word on the fast path. [`ContentionSensitive::stats`]
//! and the other views sum the rows, and
//! [`ContentionSensitive::attach_metrics`] registers the same slots, so
//! each event is counted exactly once.

use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cso_locks::{ProcLock, RawLock, RecoveringLock, StarvationFree, Succession};
use cso_memory::backoff::{CasBackoff, Deadline, Spinner};
use cso_memory::combining::{CachePadded, PubRecord, RecordState, NO_HELPER};
use cso_memory::fail_point;
use cso_memory::liveness::{Liveness, RecoveryPolicy};
use cso_memory::proto::ProtoU32;
use cso_memory::reg::RegBool;
use cso_metrics::{CounterBlock, Gauge, Registry, Timer};
use cso_trace::{probe, probe_if, Event};

use crate::abortable::Abortable;
use crate::error::{CsError, TimedOut, Unrecoverable};
use crate::gate::AdaptiveGate;
use crate::progress::ProgressCondition;

/// Which of Figure 3's mechanisms are enabled — the paper
/// configuration plus the ablations of experiment E8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsConfig {
    /// Lines 01/07/09: guard the fast path with the `CONTENTION`
    /// register. Disabling it makes every invocation attempt the weak
    /// operation first, even while a lock holder is working — abort
    /// storms under contention.
    pub contention_flag: bool,
    /// Lines 04–05/10–11: the `FLAG`/`TURN` starvation-freedom
    /// booster. Disabling it takes the deadlock-free lock directly:
    /// progress degrades from starvation-free to non-blocking.
    pub fair: bool,
    /// Lines 01–03: attempt the lock-free fast path at all. Disabling
    /// it forces every invocation onto the slow path — the
    /// always-locking strawman the paper argues against, kept as a
    /// configuration so experiments (E12) can put the *slow paths*
    /// under contention deliberately.
    pub fast_path: bool,
    /// Replace the one-at-a-time slow path with **flat combining**:
    /// contended operations post publication records and the lock
    /// winner applies every pending request in one tenure (see the
    /// module docs of [`cso_memory::combining`]).
    pub combining: bool,
    /// Layer the [`AdaptiveGate`] over the fast path: divert to the
    /// slow path only when the EWMA of recent fast-path aborts says
    /// the fast path is genuinely losing, with hysteresis and periodic
    /// probing. Off, the `CONTENTION` register alone routes (the
    /// paper's exact behaviour).
    pub adaptive_gate: bool,
    /// Escalation-ladder rung 2: after a fast-path abort, retry the
    /// weak operation a bounded number of times under **lightweight
    /// CAS contention management** (a per-thread, failure-history-
    /// driven [`CasBackoff`]) before touching `CONTENTION` or the
    /// lock. All bookkeeping is thread-local / uncounted, so the solo
    /// fast path keeps Theorem 1's exact six accesses.
    pub cas_backoff: bool,
    /// Escalation-ladder rung 3: after the weak-op retries are
    /// exhausted, attempt to complete by **elimination** — rendezvous
    /// with a concurrent inverse operation via the object's
    /// [`Abortable::try_eliminate`] hook (e.g. a stack's push/pop pair
    /// exchanging through [`cso_memory::exchange`]). Objects without
    /// an inverse structure decline and fall through to the lock.
    pub elimination: bool,
    /// Crash tolerance for the slow path (the paper's §5 caveat): when
    /// `Some`, the object keeps a per-process [`Liveness`] lease,
    /// acquires the slow-path lock through the succession protocol of
    /// [`StarvationFree::lock_recovering`], and lets combiners retire
    /// the publication records of suspected-dead posters. `None` (the
    /// default everywhere) leaves the paper's fault model unchanged.
    /// Recovery implies the `FLAG`/`TURN` booster on the plain lock
    /// path (the succession protocol lives there), overriding `fair:
    /// false`.
    pub recovery: Option<RecoveryPolicy>,
}

impl CsConfig {
    /// The configuration of the paper's Figure 3 (everything on).
    pub const PAPER: CsConfig = CsConfig {
        contention_flag: true,
        fair: true,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        cas_backoff: false,
        elimination: false,
        recovery: None,
    };
    /// Ablation (i): no `CONTENTION` guard.
    pub const NO_FLAG: CsConfig = CsConfig {
        contention_flag: false,
        fair: true,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        cas_backoff: false,
        elimination: false,
        recovery: None,
    };
    /// Ablation (ii): no `FLAG`/`TURN` fairness.
    pub const UNFAIR: CsConfig = CsConfig {
        contention_flag: true,
        fair: false,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        cas_backoff: false,
        elimination: false,
        recovery: None,
    };
    /// The combining upgrade: Figure 3's fast path, a flat-combining
    /// slow path, and the adaptive gate in front of the lock.
    pub const COMBINING: CsConfig = CsConfig {
        contention_flag: true,
        fair: true,
        fast_path: true,
        combining: true,
        adaptive_gate: true,
        cas_backoff: false,
        elimination: false,
        recovery: None,
    };
    /// The full escalation ladder (experiment E13): bare fast path,
    /// then CAS contention management, then elimination, then the
    /// lock. The paper's exact fast path and slow path bracket the two
    /// new middle rungs.
    pub const LADDER: CsConfig = CsConfig {
        contention_flag: true,
        fair: true,
        fast_path: true,
        combining: false,
        adaptive_gate: false,
        cas_backoff: true,
        elimination: true,
        recovery: None,
    };

    /// This configuration with the flat-combining slow path enabled.
    #[must_use]
    pub const fn with_combining(mut self) -> CsConfig {
        self.combining = true;
        self
    }

    /// This configuration with the adaptive gate enabled.
    #[must_use]
    pub const fn with_adaptive_gate(mut self) -> CsConfig {
        self.adaptive_gate = true;
        self
    }

    /// This configuration with the fast path disabled (every
    /// invocation takes the slow path — for forced-contention
    /// experiments and stress tests).
    #[must_use]
    pub const fn without_fast_path(mut self) -> CsConfig {
        self.fast_path = false;
        self
    }

    /// This configuration with the CAS contention-management rung
    /// (bounded, backoff-paced weak-op retries) enabled.
    #[must_use]
    pub const fn with_cas_backoff(mut self) -> CsConfig {
        self.cas_backoff = true;
        self
    }

    /// This configuration with the elimination rung (rendezvous with a
    /// concurrent inverse operation) enabled.
    #[must_use]
    pub const fn with_elimination(mut self) -> CsConfig {
        self.elimination = true;
        self
    }

    /// This configuration with crash recovery enabled under `policy`
    /// (see [`CsConfig::recovery`]).
    #[must_use]
    pub const fn with_recovery(mut self, policy: RecoveryPolicy) -> CsConfig {
        self.recovery = Some(policy);
        self
    }
}

impl Default for CsConfig {
    fn default() -> CsConfig {
        CsConfig::PAPER
    }
}

/// The publication list: one cache-padded record per process.
type PubList<O> = Box<[CachePadded<PubRecord<<O as Abortable>::Op, <O as Abortable>::Response>>]>;

/// The slots of a [`ContentionSensitive`]'s [`CounterBlock`], all
/// written in owned mode (row = the invoking process).
mod slot {
    /// Lock-free weak-op completions: the fast path and the ladder's
    /// contention-managed retries.
    pub const FAST: usize = 0;
    /// Weak-op aborts on the fast path and the ladder's retries (each
    /// one escalated one rung).
    pub const FAST_ABORTS: usize = 1;
    /// Completions by elimination rendezvous.
    pub const ELIMINATED: usize = 2;
    /// Completions in the invoker's own lock tenure.
    pub const LOCKED: usize = 3;
    /// Completions delivered by *another* process's combining tenure.
    pub const HANDOFFS: usize = 4;
    /// Survived under-lock panics.
    pub const POISONED: usize = 5;
    /// Deadline expiries of `try_apply_for` / `try_apply_until`.
    pub const TIMEOUTS: usize = 6;
    /// Poisoned publication-record handoffs (retried, not finished).
    pub const RECORD_POISONED: usize = 7;
    /// Combining lock tenures.
    pub const BATCHES: usize = 8;
    /// Requests a combiner served for other processes.
    pub const SERVED: usize = 9;
    /// Largest single tenure (own op + served), a per-row maximum.
    pub const MAX_BATCH: usize = 10;
    /// Publication records tombstoned because their owner was
    /// suspected dead.
    pub const RECLAIMED: usize = 11;
}

/// The counters [`ContentionSensitive::attach_metrics`] exports, as
/// `{prefix}_{name}`. Completions are disjoint by path
/// (`fast + eliminated + locked + combined` = completions), so a
/// scrape shows the path mix directly; [`PathStats::locked`] is
/// `locked + combined`.
const EXPORTED: [(usize, &str); 11] = [
    (slot::FAST, "ops_fast_total"),
    (slot::FAST_ABORTS, "fast_aborts_total"),
    (slot::ELIMINATED, "ops_eliminated_total"),
    (slot::LOCKED, "ops_locked_total"),
    (slot::HANDOFFS, "ops_combined_total"),
    (slot::POISONED, "slow_poisoned_total"),
    (slot::TIMEOUTS, "timeouts_total"),
    (slot::RECORD_POISONED, "record_poisoned_total"),
    (slot::RECLAIMED, "records_reclaimed_total"),
    (slot::BATCHES, "combine_batches_total"),
    (slot::SERVED, "combine_served_total"),
];

/// The gauges and latency timers installed (at most once) by
/// [`ContentionSensitive::attach_metrics`]. Event counts are not here:
/// the registry reads the object's own [`CounterBlock`].
struct CsMetrics {
    /// 1.0 while the adaptive gate diverts the fast path, else 0.0.
    gate_engaged: Gauge,
    /// The gate's current abort EWMA.
    gate_abort_ewma: Gauge,
    /// Fast-path completion latency.
    fast_ns: Timer,
    /// Slow-path completion latency (lock wait included).
    locked_ns: Timer,
    /// Time-to-recover: latency of slow-path acquisitions that went
    /// through at least one lock succession.
    recover_ns: Timer,
}

impl CsMetrics {
    /// Publishes the gate's current state into the two gauges.
    fn publish_gate(&self, gate: &AdaptiveGate) {
        self.gate_abort_ewma.set(gate.abort_ewma());
        self.gate_engaged
            .set(if gate.engaged() { 1.0 } else { 0.0 });
    }
}

/// How many operations completed on each path (diagnostics for
/// experiment E4: "fraction of ops that took the lock").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Operations that completed on the lock-free fast path
    /// (lines 01–03), including the escalation ladder's
    /// contention-managed retries (still lock-free weak-op successes).
    pub fast: u64,
    /// Operations that completed by elimination rendezvous — the
    /// ladder's middle rung, touching neither the object's main state
    /// nor the lock.
    pub eliminated: u64,
    /// Operations that completed under the lock (lines 04–13).
    pub locked: u64,
}

impl PathStats {
    /// Total completed operations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.fast + self.eliminated + self.locked
    }

    /// Fraction of operations that needed the lock (0.0 when idle).
    #[must_use]
    pub fn locked_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.locked as f64 / self.total() as f64
        }
    }
}

/// How often the slow path degraded instead of completing — the
/// robustness twin of [`PathStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Slow-path invocations that unwound (panicked) while holding the
    /// lock. Each one had its lock released and `CONTENTION` restored
    /// by the drop guard, so this counts *survived* poisonings, not
    /// wedged states.
    pub poisoned: u64,
    /// Deadline-bounded invocations that returned [`TimedOut`].
    pub timeouts: u64,
    /// Publication records a combiner poisoned by unwinding mid-batch.
    /// Each poisoned record's operation was **not** applied; its owner
    /// reclaimed the record and retried cleanly, so — unlike
    /// `poisoned` and `timeouts` — these are *survived handoffs inside
    /// still-running invocations*, not finished invocations, and they
    /// are excluded from [`Telemetry::invocations`].
    pub record_poisoned: u64,
}

/// Documented upper bound on the shared-memory accesses of a **solo,
/// uncontended slow-path** invocation with the paper configuration and
/// a TAS-class inner lock, counting only the transformation's own
/// accesses (not the wrapped object's weak operation):
///
/// | lines | accesses |
/// |---|---|
/// | 01 (`CONTENTION` read) | 1 |
/// | 04–06 (`FLAG[i]` write, `TURN` read, `FLAG[TURN]` read, lock TAS) | 4 |
/// | 07 + 09 (`CONTENTION` write ×2) | 2 |
/// | 10–12 (`FLAG[i]` write, `TURN` read, `FLAG[TURN]` read, `TURN` write, unlock write) | 5 |
///
/// Total 12, documented here with one access of headroom (a lock
/// whose release re-reads state, e.g. ticket, may add it). Contended
/// invocations wait, so their access count is unbounded in general —
/// this bound is the *floor* cost of taking the lock at all, the
/// number Theorem 1's "six accesses, no lock" fast path is avoiding.
/// Guarded by a regression test (`locked_path_stays_within_bound`).
pub const LOCKED_SOLO_ACCESS_BOUND: u64 = 13;

/// One snapshot of both statistics families, taken together.
///
/// The two families partition *finished invocations* between them:
/// [`PathStats`] counts the invocations that **completed** (returned a
/// non-⊥ response), split by which Figure 3 path they took, while
/// [`FaultStats`] counts the invocations that **degraded** instead —
/// unwound by a panic under the lock, or gave up at a deadline. Every
/// finished invocation lands in exactly one of five counters, giving
/// the closed form
///
/// ```text
/// invocations = fast + eliminated + locked + poisoned + timeouts
/// ```
///
/// where `locked` includes the operations a combiner executed on the
/// invoker's behalf (attributed to the invoker; the exported
/// `ops_combined_total` series splits them out instead), and
/// [`FaultStats::record_poisoned`] is deliberately absent — poisoned
/// handoffs are retried inside a still-running invocation, not
/// finished ones. [`Telemetry::invocations`] computes exactly this
/// sum, and a regression test
/// (`telemetry_invocations_match_the_documented_closed_form`) pins the
/// identity.
///
/// Prefer [`ContentionSensitive::telemetry`] over calling
/// [`ContentionSensitive::stats`] and
/// [`ContentionSensitive::fault_stats`] separately when relating the
/// families (e.g. computing a degradation rate): the one-call snapshot
/// reads all four counters back-to-back, minimizing the skew window
/// against concurrent completions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Completions by path (fast vs locked).
    pub paths: PathStats,
    /// Degradations (survived poisonings, deadline expiries).
    pub faults: FaultStats,
}

impl Telemetry {
    /// Total finished invocations, completed or degraded.
    #[must_use]
    pub fn invocations(&self) -> u64 {
        self.paths.total() + self.faults.poisoned + self.faults.timeouts
    }

    /// Fraction of finished invocations that degraded instead of
    /// completing (0.0 when idle).
    #[must_use]
    pub fn degraded_fraction(&self) -> f64 {
        let total = self.invocations();
        if total == 0 {
            0.0
        } else {
            (self.faults.poisoned + self.faults.timeouts) as f64 / total as f64
        }
    }
}

/// Activity counters of the flat-combining slow path (all zero unless
/// [`CsConfig::combining`] is enabled).
///
/// In forced-slow-path runs every under-lock completion is either a
/// combiner's own operation (one per batch) or a served request, so
/// `batches + combined == PathStats::locked` — an invariant the stress
/// tests assert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombiningStats {
    /// Lock tenures that ran the combining loop.
    pub batches: u64,
    /// Requests applied by a combiner on behalf of *other* processes.
    pub combined: u64,
    /// The largest single tenure (the combiner's own operation plus
    /// everything it served).
    pub max_batch: u64,
}

impl CombiningStats {
    /// Mean operations retired per lock tenure (≥ 1.0 once any batch
    /// ran; 0.0 when idle). This is the number that explains the E12
    /// speedup: a plain lock retires exactly 1.0 per tenure.
    #[must_use]
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.batches + self.combined) as f64 / self.batches as f64
        }
    }
}

/// Crash-recovery activity counters, from
/// [`ContentionSensitive::recovery_stats`] (`None` unless
/// [`CsConfig::recovery`] is set).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Publication records retired (tombstoned) by a combiner because
    /// their owner was suspected dead. Each one's operation was
    /// applied **zero** times; a falsely suspected owner reclaims and
    /// reposts.
    pub reclaimed: u64,
    /// Completed lock successions (custody seized from a suspected-
    /// dead holder).
    pub successions: u64,
    /// Unlock attempts by displaced (falsely suspected, then
    /// succeeded) holders that were fenced off.
    pub fenced_unlocks: u64,
    /// The degradation rung: `0` = normal, `1` = combining disabled
    /// (half the succession budget spent — new arrivals take the plain
    /// recovering lock), `2` = unrecoverable (budget exhausted; the
    /// slow path fails fast).
    pub degraded: u32,
    /// True once the succession budget is exhausted (same condition as
    /// [`ContentionSensitive::is_poisoned`]).
    pub failed: bool,
}

/// Private crash-recovery state, present when [`CsConfig::recovery`]
/// is set. Everything here is an uncounted protocol word
/// (`cso_memory::proto`) or an uncounted lease read: recovery must not
/// perturb Theorem 1's counted budgets.
struct RecoveryInner {
    /// The per-process failure detector, shared with the lock.
    live: Arc<Liveness>,
    policy: RecoveryPolicy,
    /// High-water degradation rung (see [`RecoveryStats::degraded`]).
    degraded: ProtoU32,
}

/// Figure 3 of the paper, generalized to any [`Abortable`] object:
/// a **contention-sensitive, starvation-free** implementation.
///
/// ```text
/// operation strong_op(par):                                 % code for p_i %
/// (01) if (¬CONTENTION)
/// (02)     then res ← weak_op(par); if (res ≠ ⊥) then return(res) end if
/// (03) end if;
/// (04) FLAG[i] ← true;                                      ⎫
/// (05) wait((TURN = i) ∨ (¬FLAG[TURN]));                    ⎬ starvation-free
/// (06) LOCK.lock();                                         ⎭ lock (§4.4)
/// (07) CONTENTION ← true;
/// (08) repeat res ← weak_op(par) until res ≠ ⊥;
/// (09) CONTENTION ← false;
/// (10) FLAG[i] ← false;                                     ⎫
/// (11) if (¬FLAG[TURN]) then TURN ← (TURN mod n) + 1;       ⎬ §4.4
/// (12) LOCK.unlock();                                       ⎭
/// (13) return(res).
/// ```
///
/// Properties (Theorem 1): every invocation returns a non-⊥ value, all
/// invocations are linearizable, and a contention-free invocation uses
/// **no lock and six shared-memory accesses** (one read of
/// `CONTENTION` + the five accesses of a solo weak operation).
///
/// The starred lines live in [`StarvationFree`]; the inner lock `L`
/// only needs to be deadlock-free (a plain TAS lock suffices).
///
/// # The combining slow path
///
/// With [`CsConfig::combining`] enabled, the slow path is **flat
/// combining** instead of one-at-a-time locking: a contended operation
/// posts a request into its own cache-padded publication record
/// ([`cso_memory::combining`]) and spins locally; the process that
/// wins the lock becomes the *combiner* and applies every pending
/// request in one tenure, writing responses back through the records.
/// The fast path (lines 01–03) is untouched, so Theorem 1's six-access
/// bound still holds contention-free — the publication list and the
/// [`AdaptiveGate`] live entirely in uncounted atomics.
///
/// Linearizability is preserved: the combiner applies each claimed
/// request via the object's own `try_apply` while its owner is still
/// blocked inside `apply`, so the request's linearization point (the
/// successful weak operation inside the lock tenure) falls strictly
/// between the owner's invocation and response — who *executes* the
/// operation changes, where it *takes effect* in real time does not.
pub struct ContentionSensitive<O: Abortable, L> {
    inner: O,
    /// The paper's `CONTENTION` boolean register.
    contention: RegBool,
    /// The §4.4-boosted lock (lines 04–06 / 10–12).
    lock: StarvationFree<L>,
    config: CsConfig,
    /// One publication record per process (combining slow path).
    records: PubList<O>,
    /// The EWMA abort-rate gate in front of the fast path.
    gate: AdaptiveGate,
    /// Every statistic, one row per process (see [`slot`]): plain
    /// (uncounted) atomics — metrics, not part of the algorithm's
    /// shared-memory footprint.
    counts: CounterBlock,
    /// Gauges and timers, if [`ContentionSensitive::attach_metrics`]
    /// was called. The `OnceLock` probe is a plain (uncounted) atomic
    /// load, so unattached objects keep Theorem 1's access budget.
    metrics: OnceLock<CsMetrics>,
    /// Crash-recovery state, if [`CsConfig::recovery`] is set.
    recovery: Option<RecoveryInner>,
}

/// RAII custody of the slow path's shared state (lines 07–12).
///
/// Constructed immediately after the lock is acquired; its drop —
/// which also runs during a panic unwind — performs lines 09–12 in
/// order: restore `CONTENTION`, lower `FLAG[i]`, hand `TURN` on,
/// release the lock. Holding all of that in one drop makes the
/// critical section **panic-safe**: a weak operation (or an injected
/// fault) unwinding under the lock cannot strand `CONTENTION` or the
/// lock, which is exactly the §5 wedge this subsystem defends against.
///
/// The path counters live here too, *before* the release, so no
/// window exists in which the lock is free but the operation is
/// missing from [`PathStats`] (the old post-unlock `fetch_add` race).
struct SlowGuard<'a, O: Abortable, L: RawLock> {
    cs: &'a ContentionSensitive<O, L>,
    proc: usize,
    /// Set on normal completion; selects the `locked` counter. Left
    /// false on unwind (counts `poisoned`) and on an under-lock
    /// timeout (the caller counts `timeouts`).
    completed: bool,
}

impl<O: Abortable, L: RawLock> Drop for SlowGuard<'_, O, L> {
    fn drop(&mut self) {
        let cs = self.cs;
        // Count first: once the lock is released, observers must
        // already see this operation in the statistics.
        if self.completed {
            cs.counts.add_owned(self.proc, slot::LOCKED, 1);
            probe!(Event::LockedComplete);
        } else if std::thread::panicking() {
            cs.counts.add_owned(self.proc, slot::POISONED, 1);
            probe!(Event::SlowPoisoned);
        }
        // Line 09. `write_lazy` skips the store when the register
        // already reads `false` (it never does on this path — the
        // holder raised it at line 07 — so the solo budget is the
        // same); the probe fires only for real transitions.
        if cs.config.contention_flag && cs.contention.write_lazy(false) {
            probe!(Event::ContentionClear);
        }
        probe!(Event::LockRelease(self.proc as u32));
        // Lines 10–12 (fair) or line 12 alone (unfair ablation).
        // Recovery implies the booster: the recovering acquisition
        // went through FLAG/TURN, so the release must too.
        if cs.config.fair || cs.recovery.is_some() {
            cs.lock.unlock(self.proc);
        } else {
            cs.lock.inner().unlock();
        }
    }
}

/// How many claim-and-apply sweeps one combiner tenure runs before
/// handing the lock back. Bounding the tenure keeps a steady stream of
/// arrivals from starving the combiner's own caller; anything missed
/// is picked up by the next tenure.
const COMBINE_ROUNDS: usize = 3;

/// Rung 2: how many contention-managed weak-op retries before the
/// ladder escalates. Small by design — if three backoff-paced retries
/// all abort, the contention is sustained and waiting longer at this
/// rung just burns cycles.
const CM_RETRIES: u32 = 3;

/// Rung 3: elimination park length (spin polls) while the gate's abort
/// EWMA is calm — a short window, since a partner is not especially
/// likely.
const ELIM_POLLS_SHORT: u32 = 64;

/// Rung 3: elimination park length while the gate is engaged (the
/// object is demonstrably hot) — park longer, an inverse operation is
/// probably moments away.
const ELIM_POLLS_LONG: u32 = 512;

thread_local! {
    /// Rung 2's failure history, per *thread* (Dice–Hendler–Mirsky-
    /// style lightweight contention management): the thread, not the
    /// object, is what experiences contention, so the history survives
    /// across operations and across objects. Thread-local and
    /// uncounted — invisible to the step-complexity accounting.
    static CAS_CM: RefCell<CasBackoff> = RefCell::new(CasBackoff::from_entropy());
}

/// RAII custody of a **combining** lock tenure — the flat-combining
/// counterpart of [`SlowGuard`].
///
/// Between claiming a publication record and completing it, the record
/// index sits in `claimed[applied..]`. If the tenure unwinds (an
/// injected fault or a panicking weak operation), the drop poisons
/// exactly those in-flight records **before** releasing the lock, so
/// each owner observes a terminal state, reclaims, and retries —
/// records that were merely posted (never claimed) are untouched and
/// simply wait for the next combiner. Then `CONTENTION` is restored
/// and the inner lock released, as in [`SlowGuard`].
///
/// The combining path takes the *inner* (deadlock-free) lock directly
/// rather than the `FLAG`/`TURN`-boosted one: combining provides its
/// own fairness (every tenure serves all pending records), so the
/// round-robin booster would only add handoff latency.
struct CombinerGuard<'a, O: Abortable, L: RawLock> {
    cs: &'a ContentionSensitive<O, L>,
    proc: usize,
    /// Indices of records claimed in the current sweep.
    claimed: Vec<usize>,
    /// How many of `claimed` have been completed.
    applied: usize,
    completed: bool,
}

impl<O: Abortable, L: RawLock> Drop for CombinerGuard<'_, O, L> {
    fn drop(&mut self) {
        let cs = self.cs;
        if self.completed {
            cs.counts.add_owned(self.proc, slot::LOCKED, 1);
            probe!(Event::LockedComplete);
        } else if std::thread::panicking() {
            cs.counts.add_owned(self.proc, slot::POISONED, 1);
            probe!(Event::SlowPoisoned);
            // Poison only the in-flight claims; their owners retry.
            for &i in &self.claimed[self.applied..] {
                cs.records[i].poison();
            }
        }
        if cs.config.contention_flag && cs.contention.write_lazy(false) {
            probe!(Event::ContentionClear);
        }
        probe!(Event::LockRelease(self.proc as u32));
        // Custody-fenced release: a combiner that was falsely
        // suspected and succeeded mid-tenure must not release the
        // inner lock out from under its successor. Without recovery
        // this is exactly `inner().unlock()`.
        cs.lock.raw_unlock(self.proc);
    }
}

impl<O: Abortable, L: RawLock> std::fmt::Debug for ContentionSensitive<O, L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentionSensitive")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<O: Abortable, L: RawLock> ContentionSensitive<O, L> {
    /// Wraps `inner` for `n` processes, using the deadlock-free lock
    /// `lock` for the slow path — the paper's exact Figure 3.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(inner: O, lock: L, n: usize) -> ContentionSensitive<O, L> {
        ContentionSensitive::with_config(inner, lock, n, CsConfig::PAPER)
    }

    /// Like [`ContentionSensitive::new`] with an explicit mechanism
    /// selection (see [`CsConfig`]; used by the E8 ablations).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_config(inner: O, lock: L, n: usize, config: CsConfig) -> ContentionSensitive<O, L> {
        let lock = StarvationFree::new(lock, n);
        let recovery = config.recovery.map(|policy| {
            let live = Liveness::new(n);
            lock.enable_recovery(Arc::clone(&live), policy);
            RecoveryInner {
                live,
                policy,
                degraded: ProtoU32::new(0),
            }
        });
        ContentionSensitive {
            inner,
            contention: RegBool::new(false),
            lock,
            config,
            records: (0..n).map(|_| CachePadded::new(PubRecord::new())).collect(),
            gate: AdaptiveGate::new(),
            counts: CounterBlock::new(n),
            metrics: OnceLock::new(),
            recovery,
        }
    }

    /// Registers this object's live metrics under `prefix` (e.g.
    /// `prefix = "stack"` yields `stack_ops_fast_total`, …), wires the
    /// [`StarvationFree`] lock's counters in under the same prefix,
    /// and registers the global probe-ring drop gauge.
    ///
    /// The exported `_total` series *are* the object's own counters
    /// (the slots of its [`CounterBlock`]), so they count events since
    /// construction and always equal the stats views;
    /// `{prefix}_combine_max_batch` is polled, the maximum over rows.
    /// What attaching adds is the gate gauges and the per-path latency
    /// timers.
    ///
    /// The first call wins; later calls (including against a different
    /// registry) are no-ops. Unattached, every timer site costs one
    /// *uncounted* atomic load (the `OnceLock` probe), so the
    /// step-budget tests still measure Theorem 1's bound unchanged.
    /// Attached, operations additionally take two `Instant` readings
    /// to feed the per-path latency histograms.
    pub fn attach_metrics(&self, registry: &Registry, prefix: &str) {
        if self.metrics.get().is_some() {
            // Already attached: do not register names into (another)
            // registry. A racing first attach is still resolved by the
            // `OnceLock` below.
            return;
        }
        let fresh = self
            .metrics
            .set(CsMetrics {
                gate_engaged: registry.gauge(&format!("{prefix}_gate_engaged")),
                gate_abort_ewma: registry.gauge(&format!("{prefix}_gate_abort_ewma")),
                fast_ns: registry.timer(&format!("{prefix}_fast_ns")),
                locked_ns: registry.timer(&format!("{prefix}_locked_ns")),
                recover_ns: registry.timer(&format!("{prefix}_recover_ns")),
            })
            .is_ok();
        if !fresh {
            return;
        }
        for (slot, name) in EXPORTED {
            registry.register_counter(&format!("{prefix}_{name}"), self.counts.counter(slot));
        }
        let counts = self.counts.clone();
        registry.gauge_fn(&format!("{prefix}_combine_max_batch"), move || {
            counts.peak(slot::MAX_BATCH) as f64
        });
        if let Some(m) = self.metrics.get() {
            m.publish_gate(&self.gate);
        }
        self.lock.attach_metrics(registry, prefix);
        registry.register_probe_drop_gauge();
    }

    /// The progress condition of the paper configuration.
    pub const PROGRESS: ProgressCondition = ProgressCondition::StarvationFree;

    /// Applies `op` on behalf of process `proc`; never returns ⊥
    /// (Theorem 1 / Lemma 1).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction,
    /// or — with [`CsConfig::recovery`] — if the operation needs the
    /// slow path after the lock became [`Unrecoverable`] (use
    /// [`ContentionSensitive::try_apply_for`] for a non-panicking
    /// report of that state).
    pub fn apply(&self, proc: usize, op: &O::Op) -> O::Response {
        assert!(proc < self.lock.n(), "process id out of range");
        // Lines 01–03: the lock-free shortcut.
        if let Some(res) = self.fast_path(proc, op) {
            return res;
        }
        // Rungs 2–3 of the escalation ladder (no-op unless enabled).
        if let Some(res) = self.ladder(proc, op) {
            return res;
        }

        // The slow-path timer covers the lock wait too — that is the
        // latency an operation diverted off the fast path actually
        // pays. `Instant` is only read when metrics are attached.
        let slow_t0 = self.metrics.get().map(|_| Instant::now());

        // The combining slow path replaces lines 04–13 wholesale
        // (until repeated successions degrade it back to plain
        // locking).
        if self.combining_enabled() {
            let res = self.apply_combining(proc, op);
            if let (Some(m), Some(t0)) = (self.metrics.get(), slow_t0) {
                m.locked_ns.record(t0.elapsed());
            }
            return res;
        }

        // Lines 04–06: acquire the (boosted) lock.
        fail_point!("cs::lock-wait");
        if let Err(e) = self.lock_slow(proc) {
            panic!("{e}");
        }
        probe!(Event::LockAcquire(proc as u32));
        let mut guard = SlowGuard {
            cs: self,
            proc,
            completed: false,
        };

        // Line 07. The previous holder lowered the register before
        // releasing, so the lazy store is always a real toggle here —
        // the read-before-write only saves the redundant-store case
        // (repeated raises within one combining storm).
        if self.config.contention_flag && self.contention.write_lazy(true) {
            probe!(Event::ContentionRaise);
        }
        fail_point!("cs::locked");

        // Line 08: bounded in practice by Lemma 2 — only the fast-path
        // operations already in flight can make us abort, and future
        // invocations see CONTENTION and queue behind the lock. The
        // spinner only yields the CPU so those in-flight operations can
        // finish on oversubscribed machines; it adds no shared accesses.
        let mut spinner = Spinner::new();
        let res = loop {
            match self.inner.try_apply(op) {
                Ok(res) => break res,
                Err(_) => spinner.spin(),
            }
        };

        // Lines 09–13 run in the guard's drop (also on unwind).
        guard.completed = true;
        drop(guard);
        if let (Some(m), Some(t0)) = (self.metrics.get(), slow_t0) {
            m.locked_ns.record(t0.elapsed());
        }
        res
    }

    /// Deadline-bounded [`ContentionSensitive::apply`]: gives up — with
    /// **no effect** on the object — once `timeout` elapses without the
    /// operation completing.
    ///
    /// The fast path is unchanged (lines 01–03 are wait-free already);
    /// the deadline governs the slow path: both the starvation-free
    /// lock acquisition (lines 04–06) and the under-lock retry loop
    /// (line 08) stop at the deadline. This keeps invocations live even
    /// when a *crashed* (not merely panicked) process wedged the lock —
    /// the paper's §5 failure the transformation cannot otherwise
    /// survive.
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first,
    /// and [`CsError::Unrecoverable`] if [`CsConfig::recovery`] is set
    /// and the lock's succession budget is exhausted. Either way the
    /// operation took no effect: it either never acquired the lock, or
    /// held it only across aborted weak attempts.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction.
    pub fn try_apply_for(
        &self,
        proc: usize,
        op: &O::Op,
        timeout: Duration,
    ) -> Result<O::Response, CsError> {
        self.try_apply_until(proc, op, Deadline::after(timeout))
    }

    /// [`ContentionSensitive::try_apply_for`] with an absolute
    /// [`Deadline`] (shared across several calls when composing).
    ///
    /// # Errors
    ///
    /// Returns [`CsError::TimedOut`] if the deadline expired first and
    /// [`CsError::Unrecoverable`] if the crash-succession budget is
    /// exhausted; the object is unchanged either way.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is not below the `n` given at construction.
    pub fn try_apply_until(
        &self,
        proc: usize,
        op: &O::Op,
        deadline: Deadline,
    ) -> Result<O::Response, CsError> {
        assert!(proc < self.lock.n(), "process id out of range");
        // Lines 01–03: the shortcut costs no waiting, deadline or not.
        if let Some(res) = self.fast_path(proc, op) {
            return Ok(res);
        }
        // Rungs 2–3: bounded (backoff windows and park polls are
        // finite), so one pass through the ladder respects any
        // reasonable deadline; skip it entirely once expired.
        if !deadline.expired() {
            if let Some(res) = self.ladder(proc, op) {
                return Ok(res);
            }
        }

        let slow_t0 = self.metrics.get().map(|_| Instant::now());

        // Lines 04–06, bounded.
        fail_point!("cs::lock-wait");
        let acquired = if let Some(rcv) = &self.recovery {
            rcv.live.announce(proc);
            let before = self.successions();
            let t0 = self.metrics.get().map(|_| Instant::now());
            match self.lock.lock_recovering_until(proc, deadline) {
                RecoveringLock::Acquired => {
                    self.note_recovered(before, t0);
                    true
                }
                RecoveringLock::TimedOut => false,
                RecoveringLock::Poisoned => {
                    self.note_degraded();
                    return Err(CsError::Unrecoverable);
                }
            }
        } else if self.config.fair {
            self.lock.lock_until(proc, deadline)
        } else {
            self.lock.inner().try_lock_until(deadline)
        };
        if !acquired {
            self.counts.add_owned(proc, slot::TIMEOUTS, 1);
            probe!(Event::SlowTimeout);
            return Err(TimedOut.into());
        }
        probe!(Event::LockAcquire(proc as u32));
        let mut guard = SlowGuard {
            cs: self,
            proc,
            completed: false,
        };

        // Line 07. The previous holder lowered the register before
        // releasing, so the lazy store is always a real toggle here —
        // the read-before-write only saves the redundant-store case
        // (repeated raises within one combining storm).
        if self.config.contention_flag && self.contention.write_lazy(true) {
            probe!(Event::ContentionRaise);
        }
        fail_point!("cs::locked");

        // Line 08, bounded. Giving up mid-loop is safe: every failed
        // try_apply had no effect, and the guard restores lines 09–12.
        let mut spinner = Spinner::new();
        loop {
            match self.inner.try_apply(op) {
                Ok(res) => {
                    guard.completed = true;
                    drop(guard);
                    if let (Some(m), Some(t0)) = (self.metrics.get(), slow_t0) {
                        m.locked_ns.record(t0.elapsed());
                    }
                    return Ok(res);
                }
                Err(_) => {
                    if !spinner.spin_deadline(deadline) {
                        drop(guard);
                        self.counts.add_owned(proc, slot::TIMEOUTS, 1);
                        probe!(Event::SlowTimeout);
                        return Err(TimedOut.into());
                    }
                }
            }
        }
    }

    /// Whether new arrivals should take the combining slow path: the
    /// configuration enables it *and* the degradation ladder has not
    /// fallen back to plain locking (rung 1). In-flight posters are
    /// unaffected — every waiter can still become its own combiner.
    fn combining_enabled(&self) -> bool {
        self.config.combining
            && self
                .recovery
                .as_ref()
                .map_or(true, |r| r.degraded.load(Ordering::Relaxed) == 0)
    }

    /// Lines 04–06 for the plain (non-combining) slow path: the
    /// boosted lock, via the crash-recovering acquisition when
    /// [`CsConfig::recovery`] is set.
    ///
    /// # Errors
    ///
    /// Returns [`Unrecoverable`] once the succession budget is
    /// exhausted (nothing is held; the operation had no effect).
    fn lock_slow(&self, proc: usize) -> Result<(), Unrecoverable> {
        let Some(rcv) = &self.recovery else {
            if self.config.fair {
                self.lock.lock(proc);
            } else {
                self.lock.inner().lock();
            }
            return Ok(());
        };
        rcv.live.announce(proc);
        let before = self.successions();
        let t0 = self.metrics.get().map(|_| Instant::now());
        if !self.lock.lock_recovering(proc) {
            self.note_degraded();
            return Err(Unrecoverable);
        }
        self.note_recovered(before, t0);
        Ok(())
    }

    /// Completed lock successions so far (0 when recovery is off).
    fn successions(&self) -> u64 {
        self.lock.recovery_stats().map_or(0, |s| s.successions)
    }

    /// After a recovering acquisition: if it went through a
    /// succession, record the time-to-recover, and refresh the
    /// degradation rung either way.
    fn note_recovered(&self, successions_before: u64, t0: Option<Instant>) {
        if self.successions() > successions_before {
            if let (Some(m), Some(t0)) = (self.metrics.get(), t0) {
                m.recover_ns.record(t0.elapsed());
            }
        }
        self.note_degraded();
    }

    /// Folds the lock's recovery state into the degradation high-water
    /// mark: rung 1 (combining disabled) once half the succession
    /// budget is spent, rung 2 (unrecoverable) once the lock poisons
    /// itself. Monotone — a rung is never un-climbed, so the ladder
    /// cannot flap.
    fn note_degraded(&self) {
        let Some(rcv) = &self.recovery else {
            return;
        };
        let rung = if self.lock.is_poisoned() {
            2
        } else {
            u32::from(
                self.successions() >= u64::from(rcv.policy.max_successions.div_ceil(2).max(1)),
            )
        };
        rcv.degraded.fetch_max(rung, Ordering::Relaxed);
    }

    /// Lines 01–03: one `CONTENTION` read plus a weak attempt. With
    /// the adaptive gate enabled, an engaged gate (sustained abort
    /// EWMA) also diverts — but its bookkeeping is all uncounted, so
    /// the contention-free cost stays at Theorem 1's six accesses.
    fn fast_path(&self, proc: usize, op: &O::Op) -> Option<O::Response> {
        if !self.config.fast_path {
            return None;
        }
        if self.config.contention_flag && self.contention.read() {
            return None;
        }
        if self.config.adaptive_gate && self.gate.should_divert() {
            return None;
        }
        fail_point!("cs::fast", return None);
        probe!(Event::FastAttempt);
        let m = self.metrics.get();
        let t0 = m.map(|_| Instant::now());
        match self.inner.try_apply(op) {
            Ok(res) => {
                if self.config.adaptive_gate {
                    self.gate.record(false);
                }
                self.counts.add_owned(proc, slot::FAST, 1);
                if let Some(m) = m {
                    if let Some(t0) = t0 {
                        m.fast_ns.record(t0.elapsed());
                    }
                    if self.config.adaptive_gate {
                        m.publish_gate(&self.gate);
                    }
                }
                probe!(Event::FastSuccess);
                Some(res)
            }
            Err(_) => {
                if self.config.adaptive_gate {
                    self.gate.record(true);
                }
                self.counts.add_owned(proc, slot::FAST_ABORTS, 1);
                if let Some(m) = m {
                    if self.config.adaptive_gate {
                        m.publish_gate(&self.gate);
                    }
                }
                probe!(Event::FastAbort);
                None
            }
        }
    }

    /// Rungs 2–3 of the escalation ladder, between the bare fast path
    /// (rung 1) and the lock (rung 4):
    ///
    /// * **rung 2** ([`CsConfig::cas_backoff`]): up to [`CM_RETRIES`]
    ///   weak-op retries, each paced by the thread's [`CasBackoff`]
    ///   failure history — the retries are ordinary lock-free attempts,
    ///   so successes count as `fast` and emit the fast-path probes;
    /// * **rung 3** ([`CsConfig::elimination`]): one rendezvous attempt
    ///   via [`Abortable::try_eliminate`], parking for a gate-scaled
    ///   poll budget. A completion touches neither the object's main
    ///   state nor the lock and counts as `eliminated`.
    ///
    /// Both rungs bail out the moment an uncounted peek shows
    /// `CONTENTION` raised: a lock holder is in its line-08 window and
    /// escalating (to queue behind it) beats interfering with it.
    /// Returns `None` to escalate to the slow path. Solo invocations
    /// never reach this method — their fast path succeeds — so
    /// Theorem 1's six-access bound is untouched, which the
    /// step-budget tests pin down with the ladder enabled.
    fn ladder(&self, proc: usize, op: &O::Op) -> Option<O::Response> {
        if self.config.cas_backoff {
            for _ in 0..CM_RETRIES {
                if self.config.contention_flag && self.contention.peek() {
                    break;
                }
                CAS_CM.with(|cm| cm.borrow_mut().wait());
                probe!(Event::FastAttempt);
                match self.inner.try_apply(op) {
                    Ok(res) => {
                        CAS_CM.with(|cm| cm.borrow_mut().on_success());
                        if self.config.adaptive_gate {
                            self.gate.record(false);
                        }
                        self.counts.add_owned(proc, slot::FAST, 1);
                        if let Some(m) = self.metrics.get() {
                            if self.config.adaptive_gate {
                                m.publish_gate(&self.gate);
                            }
                        }
                        probe!(Event::FastSuccess);
                        return Some(res);
                    }
                    Err(_) => {
                        CAS_CM.with(|cm| cm.borrow_mut().on_failure());
                        if self.config.adaptive_gate {
                            self.gate.record(true);
                        }
                        self.counts.add_owned(proc, slot::FAST_ABORTS, 1);
                        probe!(Event::FastAbort);
                    }
                }
            }
        }
        if self.config.elimination {
            if self.config.contention_flag && self.contention.peek() {
                return None;
            }
            let polls = if self.gate.engaged() {
                ELIM_POLLS_LONG
            } else {
                ELIM_POLLS_SHORT
            };
            probe!(Event::ElimAttempt);
            if let Some(res) = self.inner.try_eliminate(op, polls) {
                self.counts.add_owned(proc, slot::ELIMINATED, 1);
                probe!(Event::EliminatedComplete);
                return Some(res);
            }
        }
        None
    }

    /// The flat-combining slow path: post a publication record, then
    /// spin locally until either a combiner delivers the response or
    /// the lock is won — in which case *we* are the combiner.
    ///
    /// Progress: the record is withdrawn before combining (under the
    /// lock, so no claim can race it), and every combiner's sweep
    /// claims all records posted before it, so a posted request is
    /// served within the next full tenure — no waiter starves as long
    /// as some poster wins the (deadlock-free) lock.
    fn apply_combining(&self, proc: usize, op: &O::Op) -> O::Response {
        if let Some(rcv) = &self.recovery {
            rcv.live.announce(proc);
        }
        let rec: &PubRecord<O::Op, O::Response> = &self.records[proc];
        #[cfg(feature = "trace")]
        let posted_at = std::time::Instant::now();
        // SAFETY: this frame does not return until the record reaches
        // a terminal state it consumes (retract under the lock, take
        // after Done, reclaim after Poisoned/Tombstone), so `op` stays
        // valid for any claimer.
        unsafe { rec.post(op) };
        probe!(Event::RecordPost);
        fail_point!("cs::post");
        let mut spinner = Spinner::new();
        loop {
            match rec.state() {
                RecordState::Done => {
                    // Causal edge: the combiner stamped its trace-
                    // thread id before `complete`, and `state()`'s
                    // Acquire pairs with `complete`'s Release, so the
                    // stamp read here is the thread that executed us.
                    let helper = rec.helper();
                    let res = rec.take_response();
                    // An under-lock completion, attributed to this
                    // (invoking) process — the combiner only executed.
                    self.counts.add_owned(proc, slot::HANDOFFS, 1);
                    #[cfg(feature = "trace")]
                    probe!(Event::RecordHandoff(
                        u32::try_from(posted_at.elapsed().as_nanos()).unwrap_or(u32::MAX)
                    ));
                    probe_if!(helper != NO_HELPER, Event::HelpedByCombiner(helper));
                    probe!(Event::CombinedComplete);
                    return res;
                }
                RecordState::Poisoned => {
                    // The combiner unwound before applying us: the
                    // operation took no effect. Reclaim and repost.
                    rec.reclaim_poisoned();
                    self.counts.add_owned(proc, slot::RECORD_POISONED, 1);
                    probe!(Event::RecordPoisoned);
                    // SAFETY: as for the initial post above.
                    unsafe { rec.post(op) };
                    probe!(Event::RecordPost);
                }
                RecordState::Tombstone => {
                    // A combiner suspected us dead and retired the
                    // request *unapplied*. We are alive to read this,
                    // so the suspicion was false: refresh the lease,
                    // reclaim, and repost — the operation has still
                    // been applied exactly zero times.
                    rec.reclaim_tombstone();
                    if let Some(rcv) = &self.recovery {
                        rcv.live.announce(proc);
                    }
                    // SAFETY: as for the initial post above.
                    unsafe { rec.post(op) };
                    probe!(Event::RecordPost);
                }
                _ => {
                    if self.lock.inner().try_lock() {
                        self.lock.note_holder(proc);
                        probe!(Event::LockAcquire(proc as u32));
                        if rec.try_retract() {
                            return self.combine(proc, op);
                        }
                        // The previous holder moved our record to a
                        // terminal state just before we acquired;
                        // release and collect it on the next poll.
                        probe!(Event::LockRelease(proc as u32));
                        self.lock.raw_unlock(proc);
                    } else if let Some(rcv) = &self.recovery {
                        rcv.live.beat(proc);
                        // The lock is held: maybe by a live combiner
                        // about to serve us, maybe by a corpse. Try to
                        // seize custody of a suspected-dead holder's
                        // tenure (no-op before the grace period).
                        if self.lock.try_succeed_raw(proc) == Succession::Acquired {
                            self.note_degraded();
                            probe!(Event::LockAcquire(proc as u32));
                            // The corpse's in-flight claims will never
                            // complete; poison them so their (live)
                            // owners reclaim and repost. Our own
                            // record may be among them, in which case
                            // the retract below fails and the Poisoned
                            // arm of this loop reposts it.
                            self.poison_orphan_claims();
                            if rec.try_retract() {
                                return self.combine(proc, op);
                            }
                            probe!(Event::LockRelease(proc as u32));
                            self.lock.raw_unlock(proc);
                        } else {
                            spinner.spin();
                        }
                    } else {
                        spinner.spin();
                    }
                }
            }
        }
    }

    /// Called with the inner lock freshly *seized* from a suspected-
    /// dead combiner: every record still `Claimed` — the seizer's own
    /// included — was in flight under the corpse (claims happen only
    /// under the lock we now hold) and will never complete. Poison
    /// them so their owners reclaim and repost.
    ///
    /// Exactly-once caveat: if the corpse crashed *between* applying a
    /// claimed operation and writing `complete`, the owner's retry
    /// applies it twice. That two-instruction handoff window is the
    /// residual hazard of crash recovery without write-ahead intent
    /// logging; the chaos fail points sit before the apply, so every
    /// instrumented kill stays exactly-once (see DESIGN.md).
    fn poison_orphan_claims(&self) {
        for r in &self.records {
            if r.state() == RecordState::Claimed {
                r.poison();
                probe!(Event::RecordPoisoned);
            }
        }
    }

    /// The combiner's lock tenure: apply our own operation, then serve
    /// every pending publication record. Called with the inner lock
    /// held and our own record retracted; the guard releases the lock
    /// (and poisons in-flight claims) even on unwind.
    fn combine(&self, proc: usize, op: &O::Op) -> O::Response {
        let mut guard = CombinerGuard {
            cs: self,
            proc,
            claimed: Vec::new(),
            applied: 0,
            completed: false,
        };
        // Line 07: divert fast-path arrivals while we batch.
        if self.config.contention_flag && self.contention.write_lazy(true) {
            probe!(Event::ContentionRaise);
        }
        fail_point!("cs::locked");
        // Line 08 for our own operation.
        let mut spinner = Spinner::new();
        let res = loop {
            match self.inner.try_apply(op) {
                Ok(res) => break res,
                Err(_) => spinner.spin(),
            }
        };
        let served = self.serve_pending(&mut guard);
        self.counts.add_owned(proc, slot::BATCHES, 1);
        self.counts.add_owned(proc, slot::SERVED, served);
        self.counts.max_owned(proc, slot::MAX_BATCH, served + 1);
        probe!(Event::CombineBatch(
            u32::try_from(served + 1).unwrap_or(u32::MAX)
        ));
        guard.completed = true;
        drop(guard);
        res
    }

    /// Sweeps the publication list, claiming and applying every posted
    /// request, for up to [`COMBINE_ROUNDS`] rounds (bounding the
    /// tenure keeps the combiner itself from being starved by a steady
    /// request stream). Returns the number of requests served.
    fn serve_pending(&self, guard: &mut CombinerGuard<'_, O, L>) -> u64 {
        let mut ops: Vec<*const O::Op> = Vec::new();
        let mut served = 0u64;
        // This tenure's trace-thread id, stamped into every record we
        // complete so the owner can attribute its completion to us
        // (`NO_HELPER` in untraced builds — owners then skip the edge).
        let combiner_tid = cso_trace::probe::thread_id();
        for _ in 0..COMBINE_ROUNDS {
            // Claim phase: collect everything posted so far.
            ops.clear();
            guard.claimed.clear();
            guard.applied = 0;
            for (i, rec) in self.records.iter().enumerate() {
                if i == guard.proc {
                    continue;
                }
                if let Some(rcv) = &self.recovery {
                    // Orphan reclamation: a request whose poster is
                    // suspected dead is retired *unapplied* — nobody
                    // will collect its response. The POSTED→TOMBSTONE
                    // CAS makes this exactly-once: the record is
                    // either claimed (applied once) or tombstoned
                    // (applied zero times), never both; a falsely
                    // suspected poster reclaims and reposts.
                    if rec.state() == RecordState::Posted
                        && rcv.live.suspect(i, rcv.policy.grace)
                        && rec.try_tombstone_posted()
                    {
                        self.counts.add_owned(guard.proc, slot::RECLAIMED, 1);
                        probe!(Event::SuspectRaised(i as u32));
                        probe!(Event::RecordReclaimed(i as u32));
                        continue;
                    }
                }
                if let Some(ptr) = rec.try_claim() {
                    guard.claimed.push(i);
                    ops.push(ptr);
                }
            }
            if ops.is_empty() {
                break;
            }
            // Apply phase: the object sees the batch boundaries.
            self.inner.batch_begin(ops.len());
            for (k, ptr) in ops.iter().enumerate() {
                fail_point!("cs::combine");
                // SAFETY: the claim pins the owner in
                // `apply_combining` until we publish a terminal state,
                // so the pointer it posted is still live.
                let claimed_op = unsafe { &**ptr };
                let mut spinner = Spinner::new();
                let res = loop {
                    match self.inner.try_apply(claimed_op) {
                        Ok(res) => break res,
                        Err(_) => spinner.spin(),
                    }
                };
                self.records[guard.claimed[k]].stamp_helper(combiner_tid);
                self.records[guard.claimed[k]].complete(res);
                guard.applied = k + 1;
            }
            self.inner.batch_end(ops.len());
            served += ops.len() as u64;
        }
        served
    }

    /// Snapshot of how many operations used each path.
    pub fn stats(&self) -> PathStats {
        let sum = |slot| self.counts.sum(slot);
        PathStats {
            fast: sum(slot::FAST),
            eliminated: sum(slot::ELIMINATED),
            locked: sum(slot::LOCKED) + sum(slot::HANDOFFS),
        }
    }

    /// Snapshot of the degradation counters (survived slow-path panics
    /// and deadline expiries). See the module docs for the fault model.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            poisoned: self.counts.sum(slot::POISONED),
            timeouts: self.counts.sum(slot::TIMEOUTS),
            record_poisoned: self.counts.sum(slot::RECORD_POISONED),
        }
    }

    /// Snapshot of the flat-combining activity counters (all zero
    /// unless [`CsConfig::combining`] is on).
    pub fn combining_stats(&self) -> CombiningStats {
        CombiningStats {
            batches: self.counts.sum(slot::BATCHES),
            combined: self.counts.sum(slot::SERVED),
            max_batch: self.counts.peak(slot::MAX_BATCH),
        }
    }

    /// The adaptive contention gate (for inspection, and for tests and
    /// experiments that need to force a deterministic gate state via
    /// [`AdaptiveGate::force_engage`]). It only routes operations when
    /// [`CsConfig::adaptive_gate`] is on.
    pub fn gate(&self) -> &AdaptiveGate {
        &self.gate
    }

    /// One coherent snapshot of [`PathStats`] and [`FaultStats`]
    /// together — see [`Telemetry`] for how the families relate.
    pub fn telemetry(&self) -> Telemetry {
        Telemetry {
            paths: self.stats(),
            faults: self.fault_stats(),
        }
    }

    /// Whether the slow path has permanently failed: the crash-
    /// succession budget is exhausted, [`ContentionSensitive::apply`]
    /// panics when diverted off the fast path and
    /// [`ContentionSensitive::try_apply_for`] reports
    /// [`CsError::Unrecoverable`]. Always `false` without
    /// [`CsConfig::recovery`]. The *fast* path keeps completing
    /// operations either way — only the lock is lost.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.lock.is_poisoned()
    }

    /// Snapshot of the crash-recovery counters; `None` unless
    /// [`CsConfig::recovery`] is set.
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        let rcv = self.recovery.as_ref()?;
        self.note_degraded();
        let sf = self.lock.recovery_stats()?;
        Some(RecoveryStats {
            reclaimed: self.counts.sum(slot::RECLAIMED),
            successions: sf.successions,
            fenced_unlocks: sf.fenced_unlocks,
            degraded: rcv.degraded.load(Ordering::Relaxed),
            failed: sf.failed,
        })
    }

    /// The per-process failure detector backing crash recovery;
    /// `None` unless [`CsConfig::recovery`] is set. Chaos harnesses
    /// use it to declare a stalled process dead
    /// ([`Liveness::mark_dead`]) without waiting out the grace period.
    #[must_use]
    pub fn liveness(&self) -> Option<&Arc<Liveness>> {
        self.recovery.as_ref().map(|r| &r.live)
    }

    /// Resets every statistic — path, fault, combining and reclaimed
    /// counts — to zero. These are the same counters
    /// [`ContentionSensitive::attach_metrics`] exports, so the exported
    /// `_total` series restart from zero too (a counter reset, to a
    /// scraper). Racy against in-flight operations: reset while the
    /// object is quiescent for exact zeros.
    pub fn reset_stats(&self) {
        self.counts.reset();
    }

    /// The number of processes this instance serves.
    #[must_use]
    pub fn n(&self) -> usize {
        self.lock.n()
    }

    /// The mechanism configuration in force.
    #[must_use]
    pub fn config(&self) -> CsConfig {
        self.config
    }

    /// The wrapped abortable object.
    pub fn inner(&self) -> &O {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testobj::{Bump, ScriptedObject};
    use cso_locks::TasLock;
    use cso_memory::counting::CountScope;
    use std::sync::atomic::AtomicU64;

    fn make(aborts: usize, config: CsConfig) -> ContentionSensitive<ScriptedObject, TasLock> {
        ContentionSensitive::with_config(
            ScriptedObject::with_aborts(aborts),
            TasLock::new(),
            4,
            config,
        )
    }

    #[test]
    fn solo_apply_takes_fast_path() {
        let cs = make(0, CsConfig::PAPER);
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 1,
                eliminated: 0,
                locked: 0
            }
        );
    }

    #[test]
    fn abort_falls_back_to_lock_and_succeeds() {
        let cs = make(1, CsConfig::PAPER);
        assert_eq!(cs.apply(2, &Bump(7)), 7);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
    }

    #[test]
    fn repeated_aborts_are_absorbed_under_the_lock() {
        let cs = make(25, CsConfig::PAPER);
        assert_eq!(cs.apply(1, &Bump(1)), 1);
        assert_eq!(cs.apply(1, &Bump(1)), 2);
        let stats = cs.stats();
        assert_eq!(stats.total(), 2);
    }

    #[test]
    fn solo_fast_path_overhead_is_one_access() {
        // The transformation adds exactly one shared access (the read
        // of CONTENTION) to a solo weak operation. ScriptedObject does
        // no counted accesses, so the total must be exactly 1.
        let cs = make(0, CsConfig::PAPER);
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn ablation_no_flag_still_correct() {
        let cs = make(3, CsConfig::NO_FLAG);
        assert_eq!(cs.apply(0, &Bump(4)), 4);
        // Without the CONTENTION register the solo fast path costs 0
        // extra accesses.
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 0);
    }

    #[test]
    fn ablation_unfair_still_correct() {
        let cs = make(2, CsConfig::UNFAIR);
        assert_eq!(cs.apply(3, &Bump(9)), 9);
        assert_eq!(cs.stats().locked, 1);
    }

    #[test]
    fn locked_path_stays_within_bound() {
        // Solo invocation forced onto the slow path (one scripted
        // abort defeats the fast path). ScriptedObject performs no
        // counted accesses, so the measurement isolates the
        // transformation's own footprint.
        let cs = make(1, CsConfig::PAPER);
        let scope = CountScope::start();
        cs.apply(2, &Bump(1));
        let counts = scope.take();
        assert_eq!(
            counts.total(),
            12,
            "solo slow path changed cost: {counts} (update the \
             LOCKED_SOLO_ACCESS_BOUND table if intentional)"
        );
        assert!(counts.total() <= LOCKED_SOLO_ACCESS_BOUND);
    }

    #[test]
    fn telemetry_partitions_finished_invocations() {
        let cs = make(1, CsConfig::PAPER);
        cs.apply(0, &Bump(1)); // locked (scripted abort)
        cs.apply(0, &Bump(1)); // fast
        assert!(cs
            .try_apply_for(1, &Bump(1), Duration::from_millis(50))
            .is_ok());
        let t = cs.telemetry();
        assert_eq!(t.paths, cs.stats());
        assert_eq!(t.faults, cs.fault_stats());
        assert_eq!(
            t.paths,
            PathStats {
                fast: 2,
                eliminated: 0,
                locked: 1
            }
        );
        assert_eq!(t.faults, FaultStats::default());
        assert_eq!(t.invocations(), 3);
        assert_eq!(t.degraded_fraction(), 0.0);
    }

    #[test]
    fn telemetry_counts_degradations() {
        let t = Telemetry {
            paths: PathStats {
                fast: 6,
                eliminated: 0,
                locked: 2,
            },
            faults: FaultStats {
                poisoned: 1,
                timeouts: 1,
                // Retried handoffs are not finished invocations.
                record_poisoned: 5,
            },
        };
        assert_eq!(t.invocations(), 10);
        assert!((t.degraded_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn telemetry_invocations_match_the_documented_closed_form() {
        // The documented identity: invocations = fast + eliminated +
        // locked + poisoned + timeouts, with `record_poisoned`
        // excluded (retried handoffs, not finished invocations) and
        // combined completions already inside `locked`.
        let t = Telemetry {
            paths: PathStats {
                fast: 3,
                eliminated: 2,
                locked: 5,
            },
            faults: FaultStats {
                poisoned: 1,
                timeouts: 4,
                record_poisoned: 99,
            },
        };
        assert_eq!(t.invocations(), 3 + 2 + 5 + 1 + 4);
        assert_eq!(
            t.invocations(),
            t.paths.fast
                + t.paths.eliminated
                + t.paths.locked
                + t.faults.poisoned
                + t.faults.timeouts
        );
    }

    #[test]
    fn with_recovery_builder_sets_the_policy() {
        assert_eq!(CsConfig::PAPER.recovery, None);
        assert_eq!(CsConfig::COMBINING.recovery, None);
        assert_eq!(CsConfig::LADDER.recovery, None);
        let cfg = CsConfig::PAPER.with_recovery(RecoveryPolicy::DEFAULT);
        assert_eq!(cfg.recovery, Some(RecoveryPolicy::DEFAULT));
        // Everything else is untouched.
        assert_eq!(
            CsConfig {
                recovery: None,
                ..cfg
            },
            CsConfig::PAPER
        );
    }

    #[test]
    fn recovery_accessors_are_inert_when_disabled() {
        let cs = make(0, CsConfig::PAPER);
        assert!(cs.recovery_stats().is_none());
        assert!(cs.liveness().is_none());
        assert!(!cs.is_poisoned());
    }

    /// Parks its first `try_apply` caller forever — a deterministic
    /// stand-in for a process that crashes inside the critical
    /// section. The parked thread is never unparked or joined; it
    /// plays the corpse for the rest of the test.
    struct ParkFirst {
        armed: std::sync::atomic::AtomicBool,
        parked: Arc<std::sync::atomic::AtomicBool>,
        inner: ScriptedObject,
    }

    impl Abortable for ParkFirst {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, crate::error::Aborted> {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.parked.store(true, Ordering::SeqCst);
                loop {
                    std::thread::park();
                }
            }
            self.inner.try_apply(op)
        }
    }

    /// A recovery policy for tests: only an explicit `mark_dead`
    /// raises suspicion (huge grace) and waits retry quickly.
    fn recovery_policy() -> RecoveryPolicy {
        RecoveryPolicy {
            grace: Duration::from_secs(3600),
            max_successions: 4,
            backoff: Duration::from_millis(1),
        }
    }

    fn park_first(
        parked: &Arc<std::sync::atomic::AtomicBool>,
        config: CsConfig,
    ) -> Arc<ContentionSensitive<ParkFirst, TasLock>> {
        let obj = ParkFirst {
            armed: std::sync::atomic::AtomicBool::new(true),
            parked: Arc::clone(parked),
            inner: ScriptedObject::with_aborts(0),
        };
        Arc::new(ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            config,
        ))
    }

    #[test]
    fn slow_path_survives_a_holder_that_dies_under_the_lock() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let cs = park_first(
            &parked,
            CsConfig::PAPER
                .without_fast_path()
                .with_recovery(recovery_policy()),
        );
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().expect("recovery enabled").mark_dead(0);

        // The survivor's operation completes via lock succession; the
        // corpse's operation was never applied.
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        let stats = cs.recovery_stats().unwrap();
        assert_eq!(stats.successions, 1);
        assert_eq!(stats.fenced_unlocks, 0);
        assert_eq!(stats.degraded, 0, "half the budget is not yet spent");
        assert!(!stats.failed);
        assert!(!cs.is_poisoned());
        // And the object keeps working normally afterwards.
        assert_eq!(cs.apply(2, &Bump(3)), 5);
    }

    #[test]
    fn exhausted_succession_budget_poisons_the_slow_path() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut policy = recovery_policy();
        policy.max_successions = 0;
        let cs = park_first(
            &parked,
            CsConfig::PAPER.without_fast_path().with_recovery(policy),
        );
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().unwrap().mark_dead(0);

        // A zero budget means the very first needed succession fails
        // fast — a distinct failure mode from a timeout.
        assert_eq!(
            cs.try_apply_for(1, &Bump(2), Duration::from_secs(5)),
            Err(CsError::Unrecoverable)
        );
        assert!(cs.is_poisoned());
        let stats = cs.recovery_stats().unwrap();
        assert!(stats.failed);
        assert_eq!(stats.degraded, 2);
        assert_eq!(stats.successions, 0);
        assert_eq!(cs.fault_stats().timeouts, 0);

        // The infallible entry point fails fast too, by panicking.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cs.apply(2, &Bump(1))))
            .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("unrecoverable"), "{msg}");
    }

    #[test]
    fn combining_seizes_a_dead_combiners_tenure_and_degrades() {
        let parked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut policy = recovery_policy();
        policy.max_successions = 2; // rung 1 after ceil(2/2) = 1
        let cs = park_first(
            &parked,
            CsConfig::COMBINING
                .without_fast_path()
                .with_recovery(policy),
        );
        // The corpse becomes a combiner (retracts its own record,
        // takes the inner lock) and parks applying its own operation.
        let _corpse = {
            let cs = Arc::clone(&cs);
            std::thread::spawn(move || cs.apply(0, &Bump(100)))
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().unwrap().mark_dead(0);

        // The survivor seizes the dead combiner's tenure raw (no
        // FLAG), combines, and completes.
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        let stats = cs.recovery_stats().unwrap();
        assert_eq!(stats.successions, 1);
        assert_eq!(stats.degraded, 1, "combining disabled at half the budget");

        // Degraded arrivals fall back to the plain recovering lock —
        // and still complete.
        assert_eq!(cs.apply(2, &Bump(3)), 5);
        assert!(!cs.is_poisoned());
        assert_eq!(cs.fault_stats(), FaultStats::default());
    }

    #[test]
    fn stats_reset() {
        let cs = make(0, CsConfig::PAPER);
        cs.apply(0, &Bump(1));
        cs.reset_stats();
        assert_eq!(cs.stats().total(), 0);
    }

    #[test]
    fn locked_fraction_math() {
        let stats = PathStats {
            fast: 3,
            eliminated: 0,
            locked: 1,
        };
        assert!((stats.locked_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PathStats::default().locked_fraction(), 0.0);
    }

    #[test]
    fn concurrent_strong_ops_all_complete() {
        use std::sync::Arc;
        let cs = Arc::new(make(0, CsConfig::PAPER));
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cs = Arc::clone(&cs);
                std::thread::spawn(move || {
                    for _ in 0..2_000 {
                        cs.apply(i, &Bump(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total = cs.inner().applied.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(total, 8_000);
        assert_eq!(cs.stats().total(), 8_000);
    }

    #[test]
    fn combining_solo_op_self_serves() {
        // Forced slow path + combining: a solo op posts, wins the
        // lock, retracts its own record, and serves an empty batch.
        let cs = make(0, CsConfig::COMBINING.without_fast_path());
        assert_eq!(cs.apply(0, &Bump(5)), 5);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
        let combining = cs.combining_stats();
        assert_eq!(
            combining,
            CombiningStats {
                batches: 1,
                combined: 0,
                max_batch: 1,
            }
        );
        assert!((combining.avg_batch() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn combining_absorbs_aborts_under_the_lock() {
        let cs = make(3, CsConfig::COMBINING.without_fast_path());
        assert_eq!(cs.apply(1, &Bump(2)), 2);
        assert_eq!(cs.apply(1, &Bump(2)), 4);
        assert_eq!(cs.stats().locked, 2);
    }

    #[test]
    fn combining_config_keeps_the_fast_path() {
        let cs = make(0, CsConfig::COMBINING);
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 1,
                eliminated: 0,
                locked: 0
            }
        );
        // And the fast path still costs exactly one extra access (the
        // CONTENTION read): gate and records are uncounted.
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn concurrent_combining_completes_everything_exactly_once() {
        use std::sync::Arc;
        const THREADS: usize = 4;
        const OPS: u64 = 2_000;
        let cs = Arc::new(make(0, CsConfig::COMBINING.without_fast_path()));
        let handles: Vec<_> = (0..THREADS)
            .map(|i| {
                let cs = Arc::clone(&cs);
                std::thread::spawn(move || {
                    for _ in 0..OPS {
                        cs.apply(i, &Bump(1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let expected = THREADS as u64 * OPS;
        let total = cs.inner().applied.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(total, expected, "every op applied exactly once");
        let stats = cs.stats();
        assert_eq!(
            stats,
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: expected
            }
        );
        // Every under-lock completion is either a combiner's own op
        // (one per batch) or a served request.
        let combining = cs.combining_stats();
        assert_eq!(combining.batches + combining.combined, stats.locked);
        assert_eq!(cs.fault_stats(), FaultStats::default());
    }

    #[test]
    fn engaged_gate_diverts_then_probes_its_way_back() {
        let cs = make(0, CsConfig::COMBINING);
        cs.gate().force_engage();
        for _ in 0..2_000 {
            cs.apply(0, &Bump(1));
        }
        assert!(
            !cs.gate().engaged(),
            "probe successes must disengage the gate (ewma {})",
            cs.gate().abort_ewma()
        );
        let stats = cs.stats();
        assert!(stats.locked > 0, "engaged gate diverted nothing");
        assert!(stats.fast > 0, "probes and post-disengage ops run fast");
        assert_eq!(stats.total(), 2_000);
        assert!(cs.gate().stats().diverted > 0);
    }

    fn counter_value(snap: &cso_metrics::Snapshot, name: &str) -> Option<u64> {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    #[test]
    fn attached_metrics_mirror_path_counters() {
        let reg = Registry::new();
        let cs = make(1, CsConfig::PAPER);
        cs.attach_metrics(&reg, "t");
        cs.apply(0, &Bump(1)); // scripted abort → locked
        cs.apply(0, &Bump(1)); // fast
        assert!(cs
            .try_apply_for(1, &Bump(1), Duration::from_millis(50))
            .is_ok()); // fast again (the single abort is spent)
        let snap = reg.snapshot();
        assert_eq!(counter_value(&snap, "t_ops_fast_total"), Some(2));
        assert_eq!(counter_value(&snap, "t_ops_locked_total"), Some(1));
        assert_eq!(counter_value(&snap, "t_ops_combined_total"), Some(0));
        assert_eq!(counter_value(&snap, "t_fast_aborts_total"), Some(1));
        assert_eq!(counter_value(&snap, "t_timeouts_total"), Some(0));
        // The lock's own counters registered under the same prefix.
        assert_eq!(counter_value(&snap, "t_lock_acquires_total"), Some(1));
        // Per-path latency histograms saw each completion.
        let timer = |name: &str| {
            snap.timers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.count)
        };
        assert_eq!(timer("t_fast_ns"), Some(2));
        assert_eq!(timer("t_locked_ns"), Some(1));
    }

    #[test]
    fn attach_metrics_first_call_wins() {
        let first = Registry::new();
        let second = Registry::new();
        let cs = make(0, CsConfig::PAPER);
        cs.attach_metrics(&first, "a");
        cs.attach_metrics(&second, "b");
        cs.apply(0, &Bump(1));
        assert_eq!(
            counter_value(&first.snapshot(), "a_ops_fast_total"),
            Some(1)
        );
        // The second attach was a full no-op: no "b_*" names were even
        // registered, let alone incremented.
        assert_eq!(counter_value(&second.snapshot(), "b_ops_fast_total"), None);
    }

    #[test]
    fn attached_metrics_split_combining_completions() {
        let reg = Registry::new();
        let cs = make(0, CsConfig::COMBINING.without_fast_path());
        cs.attach_metrics(&reg, "c");
        assert_eq!(cs.apply(0, &Bump(5)), 5);
        let snap = reg.snapshot();
        // A solo combiner completes its own op under the lock: locked,
        // not combined; one batch, nothing served.
        assert_eq!(counter_value(&snap, "c_ops_locked_total"), Some(1));
        assert_eq!(counter_value(&snap, "c_ops_combined_total"), Some(0));
        assert_eq!(counter_value(&snap, "c_combine_batches_total"), Some(1));
        assert_eq!(counter_value(&snap, "c_combine_served_total"), Some(0));
    }

    #[test]
    fn attached_metrics_keep_the_counted_access_budget() {
        // Attaching metrics must not add *counted* shared accesses:
        // the handles are uncounted atomics, so the step-budget
        // numbers of Theorem 1 are identical with a registry attached.
        let reg = Registry::new();
        let cs = make(0, CsConfig::PAPER);
        cs.attach_metrics(&reg, "budget");
        cs.apply(0, &Bump(1)); // warm the shard assignment
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    /// An abortable object with an always-available rendezvous
    /// partner: the weak op aborts like [`ScriptedObject`], but
    /// `try_eliminate` always succeeds — so the ladder's rung 3 can be
    /// driven deterministically, single-threaded.
    struct ElimWrap {
        inner: ScriptedObject,
        eliminations: AtomicU64,
    }

    impl Abortable for ElimWrap {
        type Op = Bump;
        type Response = u64;

        fn try_apply(&self, op: &Bump) -> Result<u64, crate::error::Aborted> {
            self.inner.try_apply(op)
        }

        fn try_eliminate(&self, op: &Bump, polls: u32) -> Option<u64> {
            assert!(polls > 0, "the ladder must grant a park budget");
            self.eliminations.fetch_add(1, Ordering::Relaxed);
            Some(op.0)
        }
    }

    #[test]
    fn ladder_cm_retry_completes_lock_free() {
        // One scripted abort defeats the fast path; the first
        // contention-managed retry then succeeds — a lock-free
        // completion, counted as fast, never touching the lock.
        let cs = make(1, CsConfig::PAPER.with_cas_backoff());
        assert_eq!(cs.apply(0, &Bump(7)), 7);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 1,
                eliminated: 0,
                locked: 0
            }
        );
    }

    #[test]
    fn ladder_elimination_completes_without_lock() {
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(2),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        assert_eq!(cs.apply(0, &Bump(9)), 9);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 0,
                eliminated: 1,
                locked: 0
            }
        );
        assert_eq!(cs.inner().eliminations.load(Ordering::Relaxed), 1);
        // Eliminated completions are completions: the telemetry
        // families stay a partition.
        assert_eq!(cs.telemetry().invocations(), 1);
    }

    #[test]
    fn ladder_escalates_to_lock_when_both_rungs_fail() {
        // Four scripted aborts exhaust the fast attempt and all three
        // CM retries; the default try_eliminate declines; the lock
        // absorbs the rest (Figure 3's line 08).
        let cs = make(4, CsConfig::PAPER.with_cas_backoff().with_elimination());
        assert_eq!(cs.apply(3, &Bump(5)), 5);
        assert_eq!(
            cs.stats(),
            PathStats {
                fast: 0,
                eliminated: 0,
                locked: 1
            }
        );
    }

    #[test]
    fn ladder_config_keeps_the_solo_access_budget() {
        // Theorem 1 must be bit-for-bit intact with the full ladder
        // enabled: a solo op succeeds on the fast path and the ladder
        // is never entered, so the transformation still adds exactly
        // one counted access (the CONTENTION read).
        let cs = make(0, CsConfig::LADDER);
        let scope = CountScope::start();
        cs.apply(0, &Bump(1));
        assert_eq!(scope.take().total(), 1);
    }

    #[test]
    fn deadline_bounded_ladder_still_eliminates() {
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(1),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        assert_eq!(
            cs.try_apply_for(1, &Bump(3), Duration::from_millis(100)),
            Ok(3)
        );
        assert_eq!(cs.stats().eliminated, 1);
    }

    #[test]
    fn attached_metrics_mirror_the_eliminated_path() {
        let reg = Registry::new();
        let obj = ElimWrap {
            inner: ScriptedObject::with_aborts(1),
            eliminations: AtomicU64::new(0),
        };
        let cs = ContentionSensitive::with_config(
            obj,
            TasLock::new(),
            4,
            CsConfig::PAPER.with_elimination(),
        );
        cs.attach_metrics(&reg, "e");
        cs.apply(0, &Bump(1)); // fast abort → eliminated
        cs.apply(0, &Bump(1)); // fast (the scripted abort is spent)
        let snap = reg.snapshot();
        assert_eq!(counter_value(&snap, "e_ops_eliminated_total"), Some(1));
        assert_eq!(counter_value(&snap, "e_ops_fast_total"), Some(1));
        assert_eq!(counter_value(&snap, "e_ops_locked_total"), Some(0));
    }

    #[test]
    fn batch_hooks_reach_the_inner_object() {
        // Two processes: one blocks as a waiter (scripted abort forces
        // it slow... not available deterministically here), so instead
        // drive the hook directly through the trait to pin the default
        // and the forwarding impls.
        let obj = ScriptedObject::with_aborts(0);
        obj.batch_begin(3); // default no-op must exist
        obj.batch_end(3);
        let by_ref: &ScriptedObject = &obj;
        by_ref.batch_begin(1);
        by_ref.batch_end(1);
    }
}
