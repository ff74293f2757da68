//! Model checking of the production `cso-locks` types and of the
//! bounded-liveness shadow of Lemmas 2–3.
//!
//! Requires `--features model`:
//!
//! ```text
//! cargo test --features model --test model_locks
//! ```
//!
//! * **Mutual exclusion** of `TasLock`, `PetersonLock` and the §4.4
//!   booster (`StarvationFree`) under random schedules: a critical
//!   section that detects overlap and pauses inside, so every other
//!   thread runs until it waits. A test-local broken
//!   lock (check-then-set on a register) must be caught by the same
//!   harness.
//! * **Bounded completion** (Lemmas 2–3): random sweeps of every
//!   process running `CsStack` operations, or booster lock cycles,
//!   must finish inside the step budget with nothing pruned.
//! * **The §4.4 bypass bound**: while a process competes for the
//!   booster, at most n−1 other acquisitions overtake it. Measured
//!   over every schedule without preemption — switches happen only
//!   where a thread waits — so the measurement window opens exactly at
//!   the flag raise. A plain test-and-set lock over the same harness
//!   exceeds the bound, proving the measurement has teeth.

mod model_support;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::stack::{SpecStackOp, StackSpec};
use cso::locks::{Anonymous, PetersonLock, ProcLock, RawLock, StarvationFree, TasLock};
use cso::memory::backoff::Spinner;
use cso::memory::reg::RegBool;
use cso::sched::{spawn, yield_spin, Explorer, Report};
use cso::stack::CsStack;
use model_support::{cs_stack, linearized, run_scripts};

/// Shared state of one mutual-exclusion run.
struct Section {
    /// Set while some thread is inside the critical section.
    inside: AtomicBool,
    /// Acquisitions so far (the bypass clock).
    acquisitions: AtomicUsize,
    /// Largest number of acquisitions that overtook a waiting thread.
    max_bypass: AtomicUsize,
}

impl Section {
    fn new() -> Section {
        Section {
            inside: AtomicBool::new(false),
            acquisitions: AtomicUsize::new(0),
            max_bypass: AtomicUsize::new(0),
        }
    }

    /// `cycles` lock/critical-section/unlock rounds for `proc`.
    fn run<L: ProcLock>(&self, lock: &L, proc: usize, cycles: usize) {
        for _ in 0..cycles {
            let requested = self.acquisitions.load(Ordering::SeqCst);
            lock.lock(proc);
            let now = self.acquisitions.fetch_add(1, Ordering::SeqCst);
            self.max_bypass.fetch_max(now - requested, Ordering::SeqCst);
            assert!(
                !self.inside.swap(true, Ordering::SeqCst),
                "mutual exclusion violated"
            );
            // Pause inside: every other thread runs until it waits, so
            // the explorer tries to slip it in and waiters pile up.
            yield_spin();
            self.inside.store(false, Ordering::SeqCst);
            lock.unlock(proc);
        }
    }
}

/// `n` threads (the body included) run `cycles` rounds each over a
/// fresh lock; returns the largest bypass count seen.
fn lock_run<L: ProcLock + 'static>(make: fn(usize) -> L, n: usize, cycles: usize) -> usize {
    let lock = Arc::new(make(n));
    let section = Arc::new(Section::new());
    let children: Vec<_> = (1..n)
        .map(|p| {
            let lock = Arc::clone(&lock);
            let section = Arc::clone(&section);
            spawn(move || section.run(&*lock, p, cycles))
        })
        .collect();
    section.run(&*lock, 0, cycles);
    for child in children {
        child.join();
    }
    assert_eq!(section.acquisitions.load(Ordering::SeqCst), n * cycles);
    section.max_bypass.load(Ordering::SeqCst)
}

fn tas(n: usize) -> Anonymous<TasLock> {
    Anonymous::new(TasLock::new(), n)
}

fn peterson(_n: usize) -> PetersonLock {
    PetersonLock::new()
}

fn booster(n: usize) -> StarvationFree<TasLock> {
    StarvationFree::new(TasLock::new(), n)
}

fn assert_clean(report: &Report) {
    report.assert_ok();
    assert_eq!(
        report.pruned, 0,
        "an execution exceeded the step budget: {report}"
    );
}

#[test]
fn tas_mutual_exclusion_over_random_schedules() {
    let report = Explorer::random(1, 1_500).explore(|| {
        lock_run(tas, 3, 2);
    });
    assert_clean(&report);
}

#[test]
fn peterson_mutual_exclusion_over_random_schedules() {
    let report = Explorer::random(2, 2_000).explore(|| {
        lock_run(peterson, 2, 3);
    });
    assert_clean(&report);
}

#[test]
fn boosted_lock_mutual_exclusion_over_random_schedules() {
    for n in [2, 3] {
        let report = Explorer::random(4, 1_000).explore(|| {
            lock_run(booster, n, 2);
        });
        assert_clean(&report);
    }
}

/// A deliberately broken lock — check-then-set on a counted register,
/// so the check and the set are two steps — must be caught by the
/// same harness: the violation detector is not vacuous.
#[test]
fn a_broken_lock_is_caught() {
    struct CheckThenSet {
        held: RegBool,
    }

    impl RawLock for CheckThenSet {
        fn lock(&self) {
            let mut spinner = Spinner::new();
            while self.held.read() {
                spinner.spin();
            }
            self.held.write(true);
        }

        fn unlock(&self) {
            self.held.write(false);
        }

        fn try_lock(&self) -> bool {
            !self.held.read() && {
                self.held.write(true);
                true
            }
        }
    }

    fn broken(n: usize) -> Anonymous<CheckThenSet> {
        Anonymous::new(
            CheckThenSet {
                held: RegBool::new(false),
            },
            n,
        )
    }

    let report = Explorer::random(3, 500).explore(|| {
        lock_run(broken, 2, 1);
    });
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("mutual exclusion violated"),
        "{}",
        violation.message
    );
}

/// Lemma 3, bounded form: every booster cycle of every process
/// completes inside the step budget under random scheduling.
#[test]
fn boosted_lock_cycles_complete_within_the_step_budget() {
    for n in [2, 3, 4] {
        let report = Explorer::random(0xFA1, 300)
            .with_max_steps(20_000)
            .explore(|| {
                lock_run(booster, n, 3);
            });
        assert_clean(&report);
    }
}

/// Lemmas 2–3, bounded form: with every process pushing and popping
/// through the real Figure 3 stack, every operation completes inside
/// the step budget, and every history linearizes.
#[test]
fn all_strong_ops_complete_within_the_step_budget() {
    for n in [2, 3, 4] {
        let report = Explorer::random(0xFA2, 300)
            .with_max_steps(20_000)
            .explore(|| {
                let stack = Arc::new(CsStack::<u32>::new(16, n));
                let rec = Recorder::new();
                let scripts: Vec<_> = (0..n as u32)
                    .map(|p| vec![SpecStackOp::Push(p), SpecStackOp::Pop])
                    .collect();
                run_scripts(&stack, &rec, &[], &scripts, cs_stack);
                assert_eq!(
                    linearized(&StackSpec::new(16), &rec).operations().len(),
                    2 * n
                );
            });
        assert_clean(&report);
    }
}

/// The largest bypass count over every schedule without preemption.
fn max_bypass<L: ProcLock + 'static>(make: fn(usize) -> L, n: usize) -> usize {
    let worst = Mutex::new(0);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(0))
        .explore(|| {
            let b = lock_run(make, n, 3);
            let mut worst = worst.lock().unwrap();
            *worst = (*worst).max(b);
        });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    worst.into_inner().unwrap()
}

/// §4.4: the booster lets at most n−1 acquisitions overtake a
/// flagged waiter; a bare test-and-set lock does not.
#[test]
fn booster_bypass_count_is_at_most_n_minus_1() {
    for n in [2, 3] {
        let bypass = max_bypass(booster, n);
        assert!(bypass < n, "n={n}: bypassed {bypass} times (bound n-1)");
    }
    assert!(
        max_bypass(tas, 2) > 1,
        "a deadlock-free lock alone must exceed the bound somewhere"
    );
}
