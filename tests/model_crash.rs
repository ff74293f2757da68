//! §5 of the paper: "the reader can easily verify that these
//! algorithms still work despite process crashes **if no process
//! crashes while holding the lock**" — checked on the production
//! objects with the model runtime's crash primitive.
//!
//! Requires `--features model,chaos`:
//!
//! ```text
//! cargo test --features model,chaos --test model_crash
//! ```
//!
//! A crash is a thread that stops forever (`cso_sched::crash_after`):
//! the victim runs through `k` yield points and never takes another
//! step. Each test loops `k` over every point of the victim's
//! operation. The body thread yields once after spawning the victim,
//! and no preemption is allowed, so the victim runs alone up to its
//! crash and the survivor then runs alone — the crash-at-every-step
//! matrix. A survivor that waits forever for the corpse exhausts the
//! step budget and is reported as pruned: that is how "blocked" is
//! observed, without hanging.
//!
//! * Figure 1 (lock-free): the survivor completes wherever the victim
//!   died — even mid-help, because helping is idempotent and `TOP` is
//!   the single authority. The queue and the deque likewise.
//! * Figure 3 fast path: same.
//! * Figure 3 **inside the lock**: the survivor blocks — the caveat
//!   the paper states, demonstrated rather than assumed — except in
//!   the window between taking the lock and raising `CONTENTION`,
//!   where the survivor's fast path still completes.
//!
//! The chaos registry is process-global, so the tests serialize.

mod model_support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cso::core::Aborted;
use cso::deque::{AbortableDeque, DequePopOutcome, End};
use cso::lincheck::specs::queue::{SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp};
use cso::memory::chaos::{self, Fault, Plan};
use cso::memory::counting::CountScope;
use cso::queue::{AbortableQueue, CsQueue};
use cso::sched::{crash_after, spawn, yield_spin, Explorer};
use cso::stack::{AbortableStack, CsStack};
use model_support::{cs_queue, cs_stack, observed, weak_queue, weak_stack, ObservedLock};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Step budget for one crash run: far above any completing survivor,
/// small enough that a blocked one is pruned quickly.
const BLOCKED_AFTER: usize = 5_000;

/// What one crash-at-`k` run observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrashRun<R> {
    /// The victim's operation returned before its crash point.
    victim_finished: bool,
    /// The observed lock was held when the survivor started.
    lock_held: bool,
    /// The survivor's result and counted accesses; `None` when it
    /// blocked (the execution was pruned).
    survivor: Option<(R, u64)>,
}

/// Runs `victim` on a spawned thread that crashes after `k` yield
/// points, then `survivor` alone on the body thread. `held` (if any)
/// mirrors the victim's lock.
fn crash_at<T, R>(
    k: usize,
    make: impl Fn() -> (Arc<T>, Option<Arc<AtomicBool>>) + Sync,
    victim: fn(&T),
    survivor: fn(&T) -> R,
) -> CrashRun<R>
where
    T: Send + Sync + 'static,
    R: Copy + Send + std::fmt::Debug,
{
    let seen = Mutex::new(None);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(0))
        .with_max_steps(BLOCKED_AFTER)
        .explore(|| {
            let (obj, held) = make();
            let finished = Arc::new(AtomicBool::new(false));
            let _corpse = {
                let obj = Arc::clone(&obj);
                let finished = Arc::clone(&finished);
                spawn(move || {
                    crash_after(k);
                    victim(&obj);
                    finished.store(true, Ordering::SeqCst);
                })
            };
            // Hand the grant to the victim: it runs alone until it
            // crashes or returns.
            yield_spin();
            chaos::reset();
            let lock_held = held.is_some_and(|h| h.load(Ordering::SeqCst));
            *seen.lock().unwrap() = Some(CrashRun {
                victim_finished: finished.load(Ordering::SeqCst),
                lock_held,
                survivor: None,
            });
            let scope = CountScope::start();
            let r = survivor(&obj);
            let accesses = scope.take().total();
            seen.lock().unwrap().as_mut().unwrap().survivor = Some((r, accesses));
        });
    report.assert_ok();
    assert_eq!(report.schedules, 1, "the crash matrix is serial: {report}");
    let run = seen.into_inner().unwrap().expect("the body ran");
    assert_eq!(
        run.survivor.is_none(),
        report.pruned == 1,
        "only a pruned execution may leave the survivor unfinished"
    );
    run
}

/// `crash_at` for k = 0, 1, … until the victim's operation finishes
/// before its crash point.
fn crash_matrix<T, R>(
    make: impl Fn() -> (Arc<T>, Option<Arc<AtomicBool>>) + Sync,
    victim: fn(&T),
    survivor: fn(&T) -> R,
) -> Vec<CrashRun<R>>
where
    T: Send + Sync + 'static,
    R: Copy + Send + std::fmt::Debug,
{
    let mut runs = Vec::new();
    for k in 0..500 {
        let run = crash_at(k, &make, victim, survivor);
        runs.push(run);
        if run.victim_finished {
            return runs;
        }
    }
    panic!("the victim never finished within 500 yield points");
}

/// Sends the victim's next strong operation down the lock path (one
/// vetoed fast path).
fn veto_one_fast_path() {
    chaos::reset();
    chaos::arm_plan("cs::fast", Plan::once(Fault::SpuriousAbort));
}

type StackResult = Result<SpecStackResp, Aborted>;

fn stack_pop(s: &AbortableStack<u32>) -> StackResult {
    weak_stack(s, 1, SpecStackOp::Pop)
}

/// Figure 1 is crash-tolerant at every point: freeze a pusher after
/// each prefix of its operation; a fresh solo pop still completes in
/// five accesses with a definitive answer.
#[test]
fn weak_stack_survives_crashes_anywhere() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let s = Arc::new(AbortableStack::<u32>::new(4));
            s.weak_push(7).unwrap();
            (s, None)
        },
        |s| {
            let _ = s.weak_push(9);
        },
        stack_pop,
    );
    for (k, run) in runs.iter().enumerate() {
        let (resp, accesses) = run.survivor.expect("lock-free: never blocked");
        // 9 if the victim's TOP C&S landed before the crash, else 7.
        assert!(
            matches!(resp, Ok(SpecStackResp::Popped(7 | 9))),
            "k={k}: {resp:?}"
        );
        assert_eq!(accesses, 5, "k={k}");
    }
    assert!(runs.len() > 5, "the matrix covers every access");
}

/// The survivor can even *complete the victim's pending lazy write*
/// (help) and still pop the victim's value: the victim's push landed
/// in `TOP`, its slot write is left to the next operation, and the
/// victim dies right after returning.
#[test]
fn survivor_helps_a_crashed_operation() {
    let _serial = serial();
    let run = crash_at(
        usize::MAX,
        || (Arc::new(AbortableStack::<u32>::new(4)), None),
        |s| {
            s.weak_push(42).unwrap();
            crash_after(0);
            yield_spin(); // dies here, right after its push returned
        },
        stack_pop,
    );
    assert!(!run.victim_finished);
    assert_eq!(run.survivor.unwrap().0, Ok(SpecStackResp::Popped(42)));
}

/// Figure 3: crashes on the lock-free fast path are harmless.
#[test]
fn cs_stack_survives_fast_path_crashes() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let s = Arc::new(CsStack::<u32>::new(4, 2));
            s.push(0, 7);
            (s, None)
        },
        |s| {
            s.push(0, 9);
        },
        |s| cs_stack(s, 1, SpecStackOp::Pop),
    );
    for (k, run) in runs.iter().enumerate() {
        let (resp, _) = run
            .survivor
            .expect("fast-path crashes must not block the survivor");
        assert!(
            matches!(resp, Ok(SpecStackResp::Popped(_))),
            "k={k}: {resp:?}"
        );
    }
}

/// The victim's push taken down the lock path, crashed at every step.
fn cs_stack_lock_matrix() -> Vec<CrashRun<StackResult>> {
    crash_matrix(
        || {
            let (lock, held) = observed();
            let s = Arc::new(CsStack::<u32, ObservedLock>::with_lock(4, lock, 2));
            s.push(0, 7);
            veto_one_fast_path();
            (s, Some(held))
        },
        |s| {
            s.push(0, 9);
        },
        |s| cs_stack(s, 1, SpecStackOp::Pop),
    )
}

/// …but a crash **while holding the lock** blocks later lock-path
/// operations — the §5 caveat, observed on the real `CsStack`.
#[test]
fn cs_stack_blocks_on_a_crash_inside_the_lock() {
    let _serial = serial();
    let runs = cs_stack_lock_matrix();
    for (k, run) in runs.iter().enumerate() {
        if run.survivor.is_none() {
            assert!(run.lock_held, "k={k}: blocked without a dead lock holder");
        }
    }
    assert!(
        runs.iter().any(|r| r.survivor.is_none()),
        "a crash while holding the lock must block the lock path (§5)"
    );
}

/// The survivor's *fast path* still works while a crashed process
/// holds the lock, as long as `CONTENTION` is down — the window
/// between lines 06 and 07.
#[test]
fn fast_path_survives_even_a_lock_holder_crash_before_line_07() {
    let _serial = serial();
    let runs = cs_stack_lock_matrix();
    assert!(
        runs.iter()
            .any(|r| r.lock_held && r.survivor == Some((Ok(SpecStackResp::Popped(7)), 6))),
        "no crash point between the lock and CONTENTION: {runs:?}"
    );
}

/// The weak queue is crash-tolerant at every point: freeze an
/// enqueuer after each prefix; a fresh solo dequeue still returns the
/// prefilled front.
#[test]
fn weak_queue_survives_crashes_anywhere() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let q = Arc::new(AbortableQueue::<u32>::new(4));
            q.weak_enqueue(7).unwrap();
            (q, None)
        },
        |q| {
            let _ = q.weak_enqueue(9);
        },
        |q| weak_queue(q, 1, SpecQueueOp::Dequeue),
    );
    for (k, run) in runs.iter().enumerate() {
        let (resp, _) = run.survivor.expect("lock-free: never blocked");
        assert_eq!(resp, Ok(SpecQueueResp::Dequeued(7)), "k={k}");
    }
}

/// Figure 3 over the queue: fast-path crashes are harmless.
#[test]
fn cs_queue_survives_fast_path_crashes() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let q = Arc::new(CsQueue::<u32>::new(4, 2));
            q.enqueue(0, 7);
            (q, None)
        },
        |q| {
            q.enqueue(0, 9);
        },
        |q| cs_queue(q, 1, SpecQueueOp::Dequeue),
    );
    for (k, run) in runs.iter().enumerate() {
        let (resp, _) = run
            .survivor
            .expect("fast-path crashes must not block the survivor");
        assert_eq!(resp, Ok(SpecQueueResp::Dequeued(7)), "k={k}");
    }
}

/// …and the §5 caveat holds for the queue too.
#[test]
fn cs_queue_blocks_on_a_crash_inside_the_lock() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let (lock, held) = observed();
            let q = Arc::new(CsQueue::<u32, ObservedLock>::with_lock(4, lock, 2));
            q.enqueue(0, 7);
            veto_one_fast_path();
            (q, Some(held))
        },
        |q| {
            q.enqueue(0, 9);
        },
        |q| cs_queue(q, 1, SpecQueueOp::Dequeue),
    );
    for (k, run) in runs.iter().enumerate() {
        match run.survivor {
            None => assert!(run.lock_held, "k={k}: blocked without a dead lock holder"),
            Some((resp, _)) => assert_eq!(resp, Ok(SpecQueueResp::Dequeued(7)), "k={k}"),
        }
    }
    assert!(
        runs.iter().any(|r| r.survivor.is_none()),
        "a crash while holding the lock must block the lock path (§5)"
    );
}

/// The linear-HLM deque is obstruction-free: a survivor running solo
/// after a crash always finishes, though the victim's half-done C&S
/// pair may cost it one abort-and-retry first. The arena still holds
/// exactly the values the crash explains.
#[test]
fn weak_deque_survives_crashes_anywhere() {
    let _serial = serial();
    let runs = crash_matrix(
        || {
            let d = Arc::new(AbortableDeque::<u32>::new(8));
            d.try_push(End::Right, 7).unwrap();
            (d, None)
        },
        |d| {
            let _ = d.try_push(End::Right, 9);
        },
        |d| {
            // Solo from here on: obstruction-freedom promises
            // termination, but the first attempt may abort on debris.
            let resp = (0..4)
                .find_map(|_| d.try_pop(End::Left).ok())
                .expect("a solo pop neither finished nor aborted in 4 attempts");
            // Whatever is left drains to values the crash explains.
            let mut rest = Vec::new();
            while let Ok(DequePopOutcome::Popped(v)) = d.try_pop(End::Left) {
                rest.push(v);
            }
            assert!(rest.iter().all(|v| *v == 9), "arena corrupted: {rest:?}");
            resp
        },
    );
    for (k, run) in runs.iter().enumerate() {
        let (resp, _) = run.survivor.expect("obstruction-free: never blocked");
        // 7 was prefilled at the left of 9, if 9 landed at all.
        assert_eq!(resp, DequePopOutcome::Popped(7), "k={k}");
    }
}
