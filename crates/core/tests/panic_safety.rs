//! Panic-safety and deadline tests for the Figure 3 slow path — no
//! `chaos` feature needed: the faults come from a scriptable object
//! ([`common::FlakyCounter`]) rather than injected fail points.
//!
//! The §5 caveat these tests probe: a process that dies between
//! lines 06 and 12 of Figure 3 leaves `CONTENTION` raised and the
//! lock held. The `SlowGuard` must undo both on unwind, and
//! `try_apply_for` must bound the wait when the holder never returns.
//! With a `RecoveryPolicy` armed, a holder that truly stops (parks
//! forever) is succeeded, and its operation counts exactly once.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use common::{Add, FlakyCounter};
use cso_core::{ContentionSensitive, CsConfig, CsError};
use cso_locks::TasLock;
use cso_memory::backoff::Deadline;

fn make(n: usize) -> ContentionSensitive<FlakyCounter, TasLock> {
    ContentionSensitive::new(FlakyCounter::new(), TasLock::new(), n)
}

#[test]
fn panic_under_the_lock_is_survived_by_everyone_else() {
    let cs = Arc::new(make(4));
    // One abort pushes the victim off the fast path; the next attempt
    // (now under the lock) panics.
    cs.inner().abort_next(1);
    cs.inner().panic_next();
    let result = catch_unwind(AssertUnwindSafe(|| cs.apply(0, &Add(5))));
    assert!(result.is_err(), "the injected panic must propagate");
    assert_eq!(cs.fault_stats().poisoned, 1);
    assert_eq!(cs.inner().value(), 0, "the poisoned op must have no effect");

    // CONTENTION was restored: a contention-free op takes the fast path.
    assert_eq!(cs.apply(1, &Add(3)), 3);
    assert_eq!(cs.stats().fast, 1, "CONTENTION leaked: fast path dead");

    // The lock was released: a slow-path op completes too.
    cs.inner().abort_next(1);
    assert_eq!(cs.apply(2, &Add(2)), 5);
    assert_eq!(cs.stats().locked, 1, "lock leaked: slow path dead");

    // And other *threads* keep completing.
    let handles: Vec<_> = (0..3)
        .map(|proc| {
            let cs = Arc::clone(&cs);
            thread::spawn(move || {
                for _ in 0..200 {
                    cs.apply(proc, &Add(1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join()
            .expect("worker threads must complete after a poisoning");
    }
    assert_eq!(cs.inner().value(), 5 + 600);
}

#[test]
fn try_apply_for_times_out_while_the_holder_is_stuck() {
    let cs = Arc::new(make(2));
    cs.inner().gate.close();
    cs.inner().abort_next(1);
    let worker = {
        let cs = Arc::clone(&cs);
        // Aborts once, takes the lock, then blocks on the gate — a
        // holder that (for now) never finishes its critical section.
        thread::spawn(move || cs.apply(0, &Add(1)))
    };
    while cs.inner().gate.waiting() == 0 {
        thread::yield_now();
    }

    // The bounded call reports the wedge instead of hanging, with no
    // effect on the object.
    let res = cs.try_apply_for(1, &Add(2), Duration::from_millis(50));
    assert_eq!(res, Err(CsError::TimedOut));
    assert_eq!(cs.fault_stats().timeouts, 1);
    assert_eq!(cs.inner().value(), 0);

    // Un-wedge the holder; normal service resumes and the timed-out
    // operation can simply be retried.
    cs.inner().gate.open();
    assert_eq!(worker.join().unwrap(), 1);
    assert_eq!(cs.apply(1, &Add(2)), 3);
}

#[test]
fn try_apply_for_times_out_under_the_lock_and_releases_it() {
    let cs = make(1);
    // Every attempt aborts: the op acquires the lock but the line-08
    // retry loop can never finish.
    cs.inner().abort_next(usize::MAX);
    let res = cs.try_apply_for(0, &Add(1), Duration::from_millis(40));
    assert_eq!(res, Err(CsError::TimedOut));
    let faults = cs.fault_stats();
    assert_eq!(faults.timeouts, 1);
    assert_eq!(faults.poisoned, 0, "a timeout is not a poisoning");
    assert_eq!(cs.inner().value(), 0);

    // The guard released the lock and CONTENTION on the way out.
    cs.inner().abort_next(0);
    assert_eq!(cs.apply(0, &Add(7)), 7);
    assert_eq!(cs.stats().fast, 1);
}

#[test]
fn zero_timeout_still_serves_the_wait_free_fast_path() {
    let cs = make(1);
    assert_eq!(cs.try_apply_for(0, &Add(4), Duration::ZERO), Ok(4));
    assert_eq!(cs.stats().fast, 1);
    // A free lock is also grabbed without waiting (try-then-check), so
    // a single abort still completes under the lock even at ZERO.
    cs.inner().abort_next(1);
    assert_eq!(cs.try_apply_for(0, &Add(1), Duration::ZERO), Ok(5));
    // Only an op that cannot finish inside its budget gives up.
    cs.inner().abort_next(usize::MAX);
    assert_eq!(
        cs.try_apply_for(0, &Add(1), Duration::ZERO),
        Err(CsError::TimedOut)
    );
    cs.inner().abort_next(0);
    assert_eq!(cs.inner().value(), 5);
}

#[test]
fn deadline_never_behaves_like_apply() {
    let cs = make(1);
    cs.inner().abort_next(3);
    assert_eq!(cs.try_apply_until(0, &Add(6), Deadline::NEVER), Ok(6));
    assert_eq!(cs.stats().locked, 1);
    assert_eq!(cs.fault_stats().timeouts, 0);
}

#[test]
fn unfair_ablation_times_out_on_the_raw_lock() {
    let cs = Arc::new(ContentionSensitive::with_config(
        FlakyCounter::new(),
        TasLock::new(),
        2,
        CsConfig::UNFAIR,
    ));
    cs.inner().gate.close();
    cs.inner().abort_next(1);
    let worker = {
        let cs = Arc::clone(&cs);
        thread::spawn(move || cs.apply(0, &Add(1)))
    };
    while cs.inner().gate.waiting() == 0 {
        thread::yield_now();
    }
    // Without FLAG/TURN the deadline applies directly to try_lock_until.
    let res = cs.try_apply_for(1, &Add(2), Duration::from_millis(30));
    assert_eq!(res, Err(CsError::TimedOut));
    cs.inner().gate.open();
    assert_eq!(worker.join().unwrap(), 1);
    assert_eq!(cs.apply(1, &Add(2)), 3);
}

// ---------------------------------------------------------------------
// The implementation narrows the §5 caveat: panics are not crashes.
// ---------------------------------------------------------------------

/// The model suite (`tests/model_crash.rs` at the workspace root)
/// shows that a process *dead* inside the critical section wedges the
/// lock path forever. The real implementation distinguishes
/// the recoverable flavour: a slow path that **panics** (unwinds)
/// under the lock is cleaned up by the RAII guard — lock released,
/// `CONTENTION` restored — so the survivor completes instead of
/// blocking.
#[test]
fn real_transformation_recovers_from_a_panic_inside_the_lock() {
    use cso_core::{Abortable, Aborted, ContentionSensitive};
    use cso_locks::TasLock;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Stage 0: abort (forces the slow path). Stage 1: panic (under
    /// the lock). Stage ≥ 2: behave.
    struct CrashDummy {
        stage: AtomicUsize,
        applied: AtomicU64,
    }

    impl Abortable for CrashDummy {
        type Op = ();
        type Response = u64;

        fn try_apply(&self, _op: &()) -> Result<u64, Aborted> {
            match self.stage.fetch_add(1, Ordering::SeqCst) {
                0 => Err(Aborted),
                1 => panic!("modelled crash inside the critical section"),
                _ => Ok(self.applied.fetch_add(1, Ordering::SeqCst) + 1),
            }
        }
    }

    let cs = ContentionSensitive::new(
        CrashDummy {
            stage: AtomicUsize::new(0),
            applied: AtomicU64::new(0),
        },
        TasLock::new(),
        2,
    );
    let unwound =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cs.apply(0, &()))).is_err();
    assert!(unwound, "the modelled crash must unwind");
    assert_eq!(cs.fault_stats().poisoned, 1);

    // Where the model's survivor spun forever, this one completes.
    assert_eq!(cs.apply(1, &()), 1);
    assert_eq!(cs.stats().total(), 1, "only the survivor's op counts");
}

// ---------------------------------------------------------------------
// And with a RecoveryPolicy armed, even real deaths are survived.
// ---------------------------------------------------------------------

/// Crash-at-every-step succession check: freeze a victim process at
/// each qualitatively distinct point of its slow-path operation —
/// before it reaches the lock, under the lock before its operation
/// applied, and under the lock *after* it applied — then mark it dead
/// and drive a survivor through a full workload.
///
/// Three properties must hold at every crash point:
/// * **liveness**: every survivor operation completes (succession,
///   where needed, is bounded);
/// * **conservation**: the counter equals exactly the sum of the
///   operations that applied;
/// * **exactly-once**: the victim's operation is counted zero times if
///   it died before applying, once if after — never twice, regardless
///   of the recovery that ran in between.
#[test]
fn recovery_succeeds_a_crash_at_every_step_exactly_once() {
    use cso_core::{Abortable, Aborted, ContentionSensitive, CsConfig, RecoveryPolicy};
    use cso_locks::TasLock;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Crash {
        BeforeLock,
        UnderLockBeforeApply,
        UnderLockAfterApply,
    }
    use Crash::*;

    /// A counter whose first *armed* application parks forever at the
    /// scripted point — the in-object half of the crash matrix.
    struct StagedCounter {
        crash: Crash,
        armed: AtomicBool,
        parked: Arc<AtomicBool>,
        value: AtomicU64,
    }

    impl StagedCounter {
        fn die(&self) -> ! {
            self.parked.store(true, Ordering::SeqCst);
            loop {
                std::thread::park();
            }
        }
    }

    impl Abortable for StagedCounter {
        type Op = u64;
        type Response = u64;

        fn try_apply(&self, op: &u64) -> Result<u64, Aborted> {
            if self.crash == UnderLockBeforeApply && self.armed.swap(false, Ordering::SeqCst) {
                self.die();
            }
            let v = self.value.fetch_add(*op, Ordering::SeqCst) + *op;
            if self.crash == UnderLockAfterApply && self.armed.swap(false, Ordering::SeqCst) {
                self.die();
            }
            Ok(v)
        }
    }

    const VICTIM_OP: u64 = 1_000;
    const SURVIVOR_OPS: u64 = 10;
    let policy = RecoveryPolicy {
        grace: Duration::from_secs(3600), // suspect only on mark_dead
        max_successions: 4,
        backoff: Duration::from_millis(1),
    };

    for crash in [BeforeLock, UnderLockBeforeApply, UnderLockAfterApply] {
        let parked = Arc::new(AtomicBool::new(false));
        let cs = Arc::new(ContentionSensitive::with_config(
            StagedCounter {
                crash,
                armed: AtomicBool::new(crash != BeforeLock),
                parked: Arc::clone(&parked),
                value: AtomicU64::new(0),
            },
            TasLock::new(),
            2,
            CsConfig::PAPER.without_fast_path().with_recovery(policy),
        ));

        // The victim (proc 0) runs until its scripted death; the
        // thread is leaked, playing the corpse.
        let _corpse = {
            let cs = Arc::clone(&cs);
            let parked = Arc::clone(&parked);
            std::thread::spawn(move || {
                if crash == BeforeLock {
                    parked.store(true, Ordering::SeqCst);
                    loop {
                        std::thread::park();
                    }
                }
                cs.apply(0, &VICTIM_OP);
            })
        };
        while !parked.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        cs.liveness().expect("recovery enabled").mark_dead(0);

        // Liveness: the survivor's whole workload completes.
        for _ in 0..SURVIVOR_OPS {
            cs.apply(1, &1);
        }

        // Conservation + exactly-once.
        let victim_applied = match crash {
            BeforeLock | UnderLockBeforeApply => 0,
            UnderLockAfterApply => VICTIM_OP,
        };
        assert_eq!(
            cs.inner().value.load(Ordering::SeqCst),
            SURVIVOR_OPS + victim_applied,
            "{crash:?}: conservation violated across the recovery"
        );

        // Succession ran exactly when the corpse held the lock.
        let stats = cs.recovery_stats().unwrap();
        let expected_successions = u64::from(crash != BeforeLock);
        assert_eq!(stats.successions, expected_successions, "{crash:?}");
        assert!(!stats.failed, "{crash:?}: budget of 4 cannot be exhausted");
        assert!(!cs.is_poisoned(), "{crash:?}");
    }
}
