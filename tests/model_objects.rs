//! Model checking of the production Figure 1 / Figure 3 objects:
//! `AbortableStack`, `AbortableQueue`, `CsStack` and `CsQueue`
//! (experiments V1–V3 of `DESIGN.md`).
//!
//! Requires `--features model`:
//!
//! ```text
//! cargo test --features model --test model_objects
//! ```
//!
//! Every body runs one scenario per explored schedule (see
//! `model_support`): a solo prefill, one script per model thread, a
//! solo drain. Per schedule it checks
//!
//! * linearizability of the whole history, aborted attempts dropped
//!   (Lemma 1 / Theorem 1 safety) — the recorded prefill and drain
//!   make this also a check that ⊥ had no effect and that helping
//!   corrupted no slot;
//! * the abortability contract: solo attempts never abort, and abort
//!   counts are bounded by the contention.
//!
//! Pairs of single operations are explored exhaustively with no
//! preemption bound. Wider scenarios exhaust the largest preemption
//! bound that fits the CI budget and add a seeded random sweep.

mod model_support;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::memory::runtime;
use cso::queue::{AbortableQueue, CsQueue};
use cso::sched::{Explorer, Report};
use cso::stack::{AbortableStack, CsStack};
use model_support::{
    cs_queue, cs_stack, drain, linearized, observed, responses, run_op, run_scripts, weak_queue,
    weak_stack, ObservedLock, OpCost,
};

/// Theorem 1: a contention-free strong stack operation costs six
/// counted accesses (Figure 1's five plus the `CONTENTION` read).
const STRONG_STACK: u64 = 6;
/// The queue twin: the weak queue's six plus the `CONTENTION` read.
const STRONG_QUEUE: u64 = 7;

fn push(v: u32) -> SpecStackOp {
    SpecStackOp::Push(v)
}

const POP: SpecStackOp = SpecStackOp::Pop;

fn enq(v: u32) -> SpecQueueOp {
    SpecQueueOp::Enqueue(v)
}

const DEQ: SpecQueueOp = SpecQueueOp::Dequeue;

/// Exhaustive exploration with no preemption bound.
fn unbounded() -> Explorer {
    Explorer::exhaustive().with_preemption_bound(None)
}

/// A finished exhaustive run: space exhausted, nothing pruned.
fn assert_exhausted(report: &Report) {
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert_eq!(report.pruned, 0, "{report}");
}

/// One weak-stack scenario; returns the scripted operations' costs
/// and the completed responses (prefill and drain included).
fn weak_stack_run(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<SpecStackOp>],
) -> (Vec<OpCost>, Vec<SpecStackResp>) {
    let stack = Arc::new(AbortableStack::<u32>::new(capacity));
    let rec = Recorder::new();
    let prefill: Vec<_> = prefill.iter().map(|&v| push(v)).collect();
    let costs = run_scripts(&stack, &rec, &prefill, scripts, weak_stack);
    drain(&*stack, &rec, POP, &SpecStackResp::Empty, weak_stack);
    let history = linearized(&StackSpec::new(capacity), &rec);
    (costs, responses(&history))
}

fn weak_queue_run(
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<SpecQueueOp>],
) -> (Vec<OpCost>, Vec<SpecQueueResp>) {
    let queue = Arc::new(AbortableQueue::<u32>::new(capacity));
    let rec = Recorder::new();
    let prefill: Vec<_> = prefill.iter().map(|&v| enq(v)).collect();
    let costs = run_scripts(&queue, &rec, &prefill, scripts, weak_queue);
    drain(&*queue, &rec, DEQ, &SpecQueueResp::Empty, weak_queue);
    let history = linearized(&QueueSpec::new(capacity), &rec);
    (costs, responses(&history))
}

fn aborts(costs: &[OpCost]) -> usize {
    costs.iter().filter(|c| c.aborted).count()
}

#[test]
fn model_runtime_is_active() {
    assert_eq!(runtime::active_name(), "model");
}

// ---------------------------------------------------------------
// V1/V2 — Figure 1 (weak stack).
// ---------------------------------------------------------------

#[test]
fn exhaustive_two_racing_pushes() {
    let max_aborts = AtomicUsize::new(0);
    let report = unbounded().explore(|| {
        let (costs, _) = weak_stack_run(4, &[], &[vec![push(1)], vec![push(2)]]);
        max_aborts.fetch_max(aborts(&costs), Ordering::Relaxed);
    });
    assert_exhausted(&report);
    assert!(report.schedules >= 252, "{report}");
    assert_eq!(
        max_aborts.into_inner(),
        1,
        "at least one of two racing pushes always wins"
    );
}

#[test]
fn exhaustive_push_racing_pop_on_prefilled_stack() {
    let report = unbounded().explore(|| {
        weak_stack_run(4, &[5, 6], &[vec![push(9)], vec![POP]]);
    });
    assert_exhausted(&report);
}

#[test]
fn exhaustive_push_racing_pop_on_empty_stack() {
    let saw_empty_pop = AtomicBool::new(false);
    let saw_popped_nine = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let (costs, resps) = weak_stack_run(2, &[], &[vec![push(9)], vec![POP]]);
        // The drain's terminal Empty is always there; a second one is
        // the scripted pop's.
        let empties = resps.iter().filter(|r| **r == SpecStackResp::Empty).count();
        if empties == 2 && !costs[1].aborted {
            saw_empty_pop.store(true, Ordering::Relaxed);
        }
        if !costs[1].aborted && resps.contains(&SpecStackResp::Popped(9)) && empties == 1 {
            saw_popped_nine.store(true, Ordering::Relaxed);
        }
    });
    assert_exhausted(&report);
    assert!(
        saw_empty_pop.into_inner(),
        "some schedule pops before the push lands"
    );
    assert!(
        saw_popped_nine.into_inner(),
        "some schedule pops the pushed value"
    );
}

/// Two operations per thread: too wide for an unbounded search, so
/// the largest preemption bound that fits plus a random sweep.
#[test]
fn two_ops_per_process_bounded_and_random() {
    let body = || {
        weak_stack_run(4, &[], &[vec![push(1), POP], vec![push(2), POP]]);
    };
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(4))
        .explore(body);
    assert_exhausted(&report);
    assert!(
        report.schedules > 1_000,
        "a genuinely large space: {report}"
    );
    let sweep = Explorer::random(0x2_2222, 2_000).explore(body);
    sweep.assert_ok();
    assert_eq!(sweep.pruned, 0, "{sweep}");
}

#[test]
fn three_processes_bounded_and_random() {
    let seen = Mutex::new([false; 3]);
    let body = || {
        let (costs, _) = weak_stack_run(4, &[7], &[vec![push(1)], vec![push(2)], vec![POP]]);
        seen.lock().unwrap()[aborts(&costs).min(2)] = true;
    };
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(2))
        .explore(body);
    assert_exhausted(&report);
    let sweep = Explorer::random(0x3_3333, 1_000).explore(body);
    sweep.assert_ok();
    let seen = seen.into_inner().unwrap();
    assert!(
        seen[0] && seen[1],
        "both quiet and contended schedules exist"
    );
}

#[test]
fn exhaustive_full_boundary() {
    let full_seen = AtomicBool::new(false);
    let report = unbounded().explore(|| {
        let (_, resps) = weak_stack_run(1, &[], &[vec![push(1)], vec![push(2)]]);
        if resps.contains(&SpecStackResp::Full) {
            full_seen.store(true, Ordering::Relaxed);
        }
    });
    assert_exhausted(&report);
    assert!(
        full_seen.into_inner(),
        "capacity-1 stack must report Full in some schedule"
    );
}

/// V2 — solo executions: exactly five counted accesses, never ⊥, one
/// schedule.
#[test]
fn solo_weak_stack_ops_are_five_accesses_and_never_abort() {
    for op in [push(1), POP] {
        let report = Explorer::exhaustive().explore(|| {
            let (costs, _) = weak_stack_run(4, &[3], &[vec![op]]);
            assert_eq!(
                costs,
                [OpCost {
                    aborted: false,
                    accesses: 5
                }]
            );
        });
        assert_exhausted(&report);
        assert_eq!(report.schedules, 1, "solo scripts have a single schedule");
    }
}

// ---------------------------------------------------------------
// The queue, including the non-interference theorem.
// ---------------------------------------------------------------

#[test]
fn exhaustive_two_racing_enqueues() {
    let max_aborts = AtomicUsize::new(0);
    let report = unbounded().explore(|| {
        let (costs, _) = weak_queue_run(4, &[], &[vec![enq(1)], vec![enq(2)]]);
        max_aborts.fetch_max(aborts(&costs), Ordering::Relaxed);
    });
    assert_exhausted(&report);
    assert_eq!(max_aborts.into_inner(), 1);
}

#[test]
fn exhaustive_two_racing_dequeues() {
    let report = unbounded().explore(|| {
        weak_queue_run(4, &[8, 9], &[vec![DEQ], vec![DEQ]]);
    });
    assert_exhausted(&report);
}

/// **The paper's §1.1 non-interference example, over every schedule
/// of the real queue:** on a non-empty, non-full queue a concurrent
/// enqueue and dequeue never abort each other.
#[test]
fn enqueue_and_dequeue_never_interfere_in_any_schedule() {
    let report = unbounded().explore(|| {
        let (costs, _) = weak_queue_run(4, &[5, 6], &[vec![enq(9)], vec![DEQ]]);
        assert_eq!(
            aborts(&costs),
            0,
            "enqueue and dequeue on a non-empty non-full queue are non-interfering"
        );
    });
    assert_exhausted(&report);
    assert!(report.schedules > 100, "{report}");
}

/// At the Empty boundary the same pair *can* interfere (the dequeue's
/// emptiness re-validation races the enqueue); linearizability must
/// hold throughout.
#[test]
fn empty_boundary_enqueue_dequeue_race() {
    let report = unbounded().explore(|| {
        weak_queue_run(2, &[], &[vec![enq(9)], vec![DEQ]]);
    });
    assert_exhausted(&report);
}

#[test]
fn solo_queue_ops_are_six_accesses() {
    for (op, prefill) in [(enq(1), &[][..]), (DEQ, &[5u32][..])] {
        let report = Explorer::exhaustive().explore(|| {
            let (costs, _) = weak_queue_run(4, prefill, &[vec![op]]);
            assert!(!costs[0].aborted);
            assert_eq!(costs[0].accesses, 6);
        });
        assert_exhausted(&report);
        assert_eq!(report.schedules, 1);
    }
}

// ---------------------------------------------------------------
// V1/V3 — Figure 3 (strong stack and queue).
// ---------------------------------------------------------------

/// Theorem 1 on the real objects: solo strong operations take the
/// fast path at exactly six (stack) and seven (queue) accesses.
#[test]
fn solo_strong_ops_take_the_fast_path() {
    let report = Explorer::exhaustive().explore(|| {
        let stack = Arc::new(CsStack::<u32>::new(4, 2));
        let rec = Recorder::new();
        for cost in run_scripts(&stack, &rec, &[], &[vec![push(1), POP]], cs_stack) {
            assert_eq!(cost.accesses, STRONG_STACK);
        }
        assert_eq!(stack.path_stats().locked, 0);
        let queue = Arc::new(CsQueue::<u32>::new(4, 2));
        let rec = Recorder::new();
        for cost in run_scripts(&queue, &rec, &[], &[vec![enq(1), DEQ]], cs_queue) {
            assert_eq!(cost.accesses, STRONG_QUEUE);
        }
    });
    assert_exhausted(&report);
    assert_eq!(report.schedules, 1);
}

/// Random schedules of three threads on the real Figure 3 stack:
/// every strong operation answers, every history linearizes, no
/// schedule exceeds the step budget, and the registers end clean.
#[test]
fn random_strong_stack_runs_are_linearizable() {
    let report = Explorer::random(0xC50, 1_000).explore(|| {
        let (lock, held) = observed();
        let stack = Arc::new(CsStack::<u32, ObservedLock>::with_lock(8, lock, 3));
        let rec = Recorder::new();
        let scripts = [
            vec![push(1), POP],
            vec![push(2), push(3)],
            vec![POP, push(4)],
        ];
        run_scripts(&stack, &rec, &[], &scripts, cs_stack);
        assert!(!held.load(Ordering::SeqCst), "the lock leaked");
        assert_eq!(
            run_op(&*stack, &rec, 0, push(99), cs_stack).accesses,
            STRONG_STACK,
            "CONTENTION must be down once every thread returned"
        );
        drain(&*stack, &rec, POP, &SpecStackResp::Empty, cs_stack);
        linearized(&StackSpec::new(8), &rec);
    });
    report.assert_ok();
    assert_eq!(
        report.pruned, 0,
        "no sampled schedule may exceed the step budget"
    );
}

/// The queue twin, over a prefilled queue.
#[test]
fn random_strong_queue_runs_are_linearizable() {
    let report = Explorer::random(0xC5, 800).explore(|| {
        let queue = Arc::new(CsQueue::<u32>::new(8, 3));
        let rec = Recorder::new();
        let scripts = [vec![enq(1), DEQ], vec![enq(2), enq(3)], vec![DEQ, enq(4)]];
        run_scripts(&queue, &rec, &[enq(9)], &scripts, cs_queue);
        assert_eq!(
            run_op(&*queue, &rec, 0, enq(99), cs_queue).accesses,
            STRONG_QUEUE,
            "CONTENTION must be down once every thread returned"
        );
        drain(&*queue, &rec, DEQ, &SpecQueueResp::Empty, cs_queue);
        linearized(&QueueSpec::new(8), &rec);
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0);
}

/// `CONTENTION` really diverts contended operations: across random
/// schedules some operations finish in the six-access fast path and
/// some take longer (a retry or the lock path).
#[test]
fn random_runs_exercise_both_paths() {
    let fast = AtomicU64::new(0);
    let slow = AtomicU64::new(0);
    let report = Explorer::random(7, 500).explore(|| {
        let stack = Arc::new(CsStack::<u32>::new(8, 3));
        let rec = Recorder::new();
        let scripts = [vec![push(1)], vec![push(2)], vec![push(3)]];
        for cost in run_scripts(&stack, &rec, &[], &scripts, cs_stack) {
            let counter = if cost.accesses == STRONG_STACK {
                &fast
            } else {
                &slow
            };
            counter.fetch_add(1, Ordering::Relaxed);
        }
    });
    report.assert_ok();
    assert!(
        fast.into_inner() > 0,
        "some operations complete on the fast path"
    );
    assert!(
        slow.into_inner() > 0,
        "some operations fall back to the lock path"
    );
}
