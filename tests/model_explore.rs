//! Exhaustive schedule exploration of the *production* structures.
//!
//! These tests require the `model` feature:
//!
//! ```text
//! cargo test --features model --test model_explore
//! ```
//!
//! Each body runs once per explored schedule, from the top, with fresh
//! state; every counted register access inside the production
//! `CsStack`/`CsQueue`/`CsDeque` code is a scheduling decision, so the
//! depth-first explorer enumerates *every* interleaving of the real
//! fast path, escalation ladder, and combining slow path (up to the
//! preemption bound). Oracles are the same ones the stress tests use —
//! the Wing–Gong linearizability checker over owner-pinned recorded
//! histories, value conservation, and the `StepAuditor` access
//! budgets — but here a failure is deterministic: the panic message
//! carries a replay trace (see CONTRIBUTING.md, "Writing a model
//! test").
//!
//! The `chaos` feature rides along (hence `--features model,chaos`):
//! as in `step_budget.rs`, an armed fail point is the only
//! deterministic way to veto the fast path of a real stack, and the
//! ladder test below uses one to force operations down every rung.
//! The fail-point registry is process-global, so every test in this
//! file serializes behind one mutex.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cso::core::CsConfig;
use cso::deque::{CsDeque, DequePopOutcome, DequePushOutcome, End};
use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::deque::{DequeSpec, SpecDequeOp, SpecDequeResp, SpecEnd};
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};
use cso::memory::runtime;
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome};
use cso::sched::{spawn, Explorer};
use cso::stack::{CsStack, PopOutcome, PushOutcome};
use cso::trace::audit::StepAuditor;

/// Theorem 1: a contention-free strong operation costs at most six
/// shared accesses.
const STRONG_BUDGET: u64 = 6;

/// Sanity ceiling for *contended* operations under 2-thread bounded-
/// preemption schedules: contended ops legitimately exceed the solo
/// budget (they retry and fall through to the lock), but no schedule
/// in the explored space should let one ramble past this.
const CONTENDED_CEILING: u64 = 160;

/// The chaos fail-point registry is process-global; any armed site
/// would leak into a concurrently running test.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn model_runtime_is_active() {
    assert_eq!(runtime::active_name(), "model");
}

/// Theorem 1 driven through the model runtime: with no second thread
/// every scheduling decision is forced, the single schedule is the
/// solo execution, and the strict auditor enforces the six-access
/// budget on the real `CsStack` — proving the model runtime did not
/// perturb the counted-access accounting.
#[test]
fn solo_stack_ops_stay_in_budget_under_model() {
    let _serial = serial();
    let report = Explorer::exhaustive().explore(|| {
        let stack: CsStack<u32> = CsStack::new(4, 2);
        let auditor = StepAuditor::strict(STRONG_BUDGET);
        assert!(matches!(
            auditor.audit(|| stack.push(0, 7)),
            PushOutcome::Pushed
        ));
        assert!(matches!(
            auditor.audit(|| stack.pop(0)),
            PopOutcome::Popped(7)
        ));
        assert!(auditor.report().clean());
    });
    report.assert_ok();
    assert!(report.exhausted);
    assert_eq!(report.schedules, 1, "a solo body has exactly one schedule");
}

/// Lincheck stack scenario (push/pop), exhaustively: two threads each
/// push a distinct value and pop once against the paper's Figure 3
/// configuration. Every interleaving must linearize and conserve
/// values.
#[test]
fn exhaustive_stack_push_pop_linearizes() {
    let _serial = serial();
    let report = Explorer::exhaustive().explore(|| {
        let stack: Arc<CsStack<u32>> =
            Arc::new(CsStack::with_config(2, TasLock::new(), 2, CsConfig::PAPER));
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        let child = {
            let stack = Arc::clone(&stack);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                let handle = recorder.begin(1, SpecStackOp::Push(2));
                match stack.push(1, 2) {
                    PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                    PushOutcome::Full => handle.finish(SpecStackResp::Full),
                }
                let handle = recorder.begin(1, SpecStackOp::Pop);
                match stack.pop(1) {
                    PopOutcome::Popped(v) => {
                        got.push(v);
                        handle.finish(SpecStackResp::Popped(v));
                    }
                    PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                }
                got
            })
        };
        let mut got = Vec::new();
        let handle = recorder.begin(0, SpecStackOp::Push(1));
        match stack.push(0, 1) {
            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
            PushOutcome::Full => handle.finish(SpecStackResp::Full),
        }
        let handle = recorder.begin(0, SpecStackOp::Pop);
        match stack.pop(0) {
            PopOutcome::Popped(v) => {
                got.push(v);
                handle.finish(SpecStackResp::Popped(v));
            }
            PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
        }
        got.extend(child.join());

        // Conservation: drain the residue; popped ∪ residue must be
        // exactly {1, 2}.
        while let PopOutcome::Popped(v) = stack.pop(0) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        let history = recorder.finish();
        assert!(
            check_linearizable(&StackSpec::new(2), &history).is_linearizable(),
            "non-linearizable history:\n{history}"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "two threads must branch: {report}");
}

/// The tentpole acceptance scenario: the production `CsStack` with the
/// **full escalation ladder and the combining slow path** (fast path →
/// CAS contention management → elimination → flat combining), driven
/// through every 2-thread interleaving. Linearizability, conservation,
/// and the step auditor must stay green in all of them, and the
/// exploration must visit the slow path at least once overall.
///
/// Rung 2 absorbs `CM_RETRIES` = 3 paced retries, and with only two
/// ops per thread the other thread can cause at most two CAS failures
/// — pure interleaving can never push an op past rung 2 here. So the
/// body arms a deterministic fail-point plan (`one_in: 1` draws are
/// not schedule branches) vetoing the first eight weak pushes: in
/// every schedule at least one push exhausts its retries, parks in
/// elimination, and falls through to the combining lock, while pops
/// and later pushes still travel the fast path.
#[test]
fn exhaustive_ladder_combining_stack() {
    let _serial = serial();
    let slow_completions = Arc::new(AtomicU64::new(0));
    let worst_cost = Arc::new(AtomicU64::new(0));
    let report = {
        let slow_completions = Arc::clone(&slow_completions);
        let worst_cost = Arc::clone(&worst_cost);
        // The 512-poll elimination parks cost a model step per poll;
        // give each schedule room for a few of them.
        Explorer::exhaustive()
            .with_max_steps(20_000)
            .explore(move || {
                chaos::reset();
                chaos::arm_plan(
                    "stack::push",
                    Plan {
                        fault: Fault::SpuriousAbort,
                        after: 0,
                        one_in: 1,
                        max_fires: 8,
                    },
                );
                let config = CsConfig::LADDER.with_combining().with_adaptive_gate();
                let stack: Arc<CsStack<u32>> =
                    Arc::new(CsStack::with_config(2, TasLock::new(), 2, config));
                let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
                let auditor = Arc::new(StepAuditor::recording(STRONG_BUDGET));
                let child = {
                    let stack = Arc::clone(&stack);
                    let recorder = recorder.clone();
                    let auditor = Arc::clone(&auditor);
                    spawn(move || {
                        let mut got = Vec::new();
                        let handle = recorder.begin(1, SpecStackOp::Push(2));
                        match auditor.audit(|| stack.push(1, 2)) {
                            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                            PushOutcome::Full => handle.finish(SpecStackResp::Full),
                        }
                        let handle = recorder.begin(1, SpecStackOp::Pop);
                        match auditor.audit(|| stack.pop(1)) {
                            PopOutcome::Popped(v) => {
                                got.push(v);
                                handle.finish(SpecStackResp::Popped(v));
                            }
                            PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                        }
                        got
                    })
                };
                let mut got = Vec::new();
                let handle = recorder.begin(0, SpecStackOp::Push(1));
                match auditor.audit(|| stack.push(0, 1)) {
                    PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                    PushOutcome::Full => handle.finish(SpecStackResp::Full),
                }
                let handle = recorder.begin(0, SpecStackOp::Pop);
                match auditor.audit(|| stack.pop(0)) {
                    PopOutcome::Popped(v) => {
                        got.push(v);
                        handle.finish(SpecStackResp::Popped(v));
                    }
                    PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                }
                got.extend(child.join());
                while let PopOutcome::Popped(v) = stack.pop(0) {
                    got.push(v);
                }
                let distinct: BTreeSet<u32> = got.iter().copied().collect();
                assert_eq!(got.len(), 2, "conservation: {got:?}");
                assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

                let audit = auditor.report();
                assert_eq!(audit.checked, 4, "every op audited");
                assert!(
                    audit.worst <= CONTENDED_CEILING,
                    "an operation spent {} accesses (ceiling {CONTENDED_CEILING})",
                    audit.worst
                );
                worst_cost.fetch_max(audit.worst, Ordering::Relaxed);

                let stats = stack.path_stats();
                slow_completions.fetch_add(stats.eliminated + stats.locked, Ordering::Relaxed);

                let history = recorder.finish();
                assert!(
                    check_linearizable(&StackSpec::new(2), &history).is_linearizable(),
                    "non-linearizable history:\n{history}"
                );
                chaos::reset();
            })
    };
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
    // The exploration must have pushed operations off the fast path
    // somewhere — otherwise it never exercised the ladder/combining
    // machinery it claims to verify.
    assert!(
        slow_completions.load(Ordering::Relaxed) > 0,
        "no schedule ever escalated off the fast path ({report})"
    );
    // Contended schedules must exist (worst observed above the solo
    // budget proves real interference was explored).
    assert!(
        worst_cost.load(Ordering::Relaxed) > STRONG_BUDGET,
        "no schedule ever contended"
    );
    chaos::reset();
}

/// Lincheck queue scenario (enqueue/dequeue), exhaustively.
#[test]
fn exhaustive_queue_enqueue_dequeue_linearizes() {
    let _serial = serial();
    let report = Explorer::exhaustive().explore(|| {
        let queue: Arc<CsQueue<u32>> =
            Arc::new(CsQueue::with_config(2, TasLock::new(), 2, CsConfig::PAPER));
        let recorder: Recorder<SpecQueueOp, SpecQueueResp> = Recorder::new();
        let child = {
            let queue = Arc::clone(&queue);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                let handle = recorder.begin(1, SpecQueueOp::Enqueue(2));
                match queue.enqueue(1, 2) {
                    EnqueueOutcome::Enqueued => handle.finish(SpecQueueResp::Enqueued),
                    EnqueueOutcome::Full => handle.finish(SpecQueueResp::Full),
                }
                let handle = recorder.begin(1, SpecQueueOp::Dequeue);
                match queue.dequeue(1) {
                    DequeueOutcome::Dequeued(v) => {
                        got.push(v);
                        handle.finish(SpecQueueResp::Dequeued(v));
                    }
                    DequeueOutcome::Empty => handle.finish(SpecQueueResp::Empty),
                }
                got
            })
        };
        let mut got = Vec::new();
        let handle = recorder.begin(0, SpecQueueOp::Enqueue(1));
        match queue.enqueue(0, 1) {
            EnqueueOutcome::Enqueued => handle.finish(SpecQueueResp::Enqueued),
            EnqueueOutcome::Full => handle.finish(SpecQueueResp::Full),
        }
        let handle = recorder.begin(0, SpecQueueOp::Dequeue);
        match queue.dequeue(0) {
            DequeueOutcome::Dequeued(v) => {
                got.push(v);
                handle.finish(SpecQueueResp::Dequeued(v));
            }
            DequeueOutcome::Empty => handle.finish(SpecQueueResp::Empty),
        }
        got.extend(child.join());
        while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        let history = recorder.finish();
        assert!(
            check_linearizable(&QueueSpec::new(2), &history).is_linearizable(),
            "non-linearizable history:\n{history}"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// The checker-side name of a deque end.
fn spec_end(end: End) -> SpecEnd {
    match end {
        End::Left => SpecEnd::Left,
        End::Right => SpecEnd::Right,
    }
}

/// Lincheck deque scenario (mixed ends), exhaustively: one thread
/// pushes left and pops right, the other pushes right and pops left —
/// the two-sided interleavings the HLM deque's per-side words make
/// interesting.
#[test]
fn exhaustive_deque_mixed_ends_linearizes() {
    let _serial = serial();
    let report = Explorer::exhaustive().explore(|| {
        let deque: Arc<CsDeque<u32>> =
            Arc::new(CsDeque::with_config(4, TasLock::new(), 2, CsConfig::PAPER));
        let recorder: Recorder<SpecDequeOp, SpecDequeResp> = Recorder::new();
        let child = {
            let deque = Arc::clone(&deque);
            let recorder = recorder.clone();
            spawn(move || {
                let mut got = Vec::new();
                recorder.invoke(1, SpecDequeOp::Push(spec_end(End::Right), 2));
                let resp = match deque.push(1, End::Right, 2) {
                    DequePushOutcome::Pushed => SpecDequeResp::Pushed,
                    DequePushOutcome::Full => SpecDequeResp::Full,
                };
                recorder.ret(1, resp);
                recorder.invoke(1, SpecDequeOp::Pop(spec_end(End::Left)));
                let resp = match deque.pop(1, End::Left) {
                    DequePopOutcome::Popped(v) => {
                        got.push(v);
                        SpecDequeResp::Popped(v)
                    }
                    DequePopOutcome::Empty => SpecDequeResp::Empty,
                };
                recorder.ret(1, resp);
                got
            })
        };
        let mut got = Vec::new();
        recorder.invoke(0, SpecDequeOp::Push(spec_end(End::Left), 1));
        let resp = match deque.push(0, End::Left, 1) {
            DequePushOutcome::Pushed => SpecDequeResp::Pushed,
            DequePushOutcome::Full => SpecDequeResp::Full,
        };
        recorder.ret(0, resp);
        recorder.invoke(0, SpecDequeOp::Pop(spec_end(End::Right)));
        let resp = match deque.pop(0, End::Right) {
            DequePopOutcome::Popped(v) => {
                got.push(v);
                SpecDequeResp::Popped(v)
            }
            DequePopOutcome::Empty => SpecDequeResp::Empty,
        };
        recorder.ret(0, resp);
        got.extend(child.join());

        // Conservation: drain both ends; everything pushed comes back
        // exactly once.
        while let DequePopOutcome::Popped(v) = deque.pop(0, End::Left) {
            got.push(v);
        }
        let distinct: BTreeSet<u32> = got.iter().copied().collect();
        assert_eq!(got.len(), 2, "conservation: {got:?}");
        assert_eq!(distinct, BTreeSet::from([1, 2]), "conservation: {got:?}");

        let history = recorder.finish();
        assert!(
            check_linearizable(&DequeSpec::new(4), &history).is_linearizable(),
            "deque history not linearizable"
        );
    });
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// A seeded-random sweep beyond the exhaustive envelope: three threads
/// (too wide for DFS in CI time) against the combining configuration.
/// Any failure prints the schedule seed and replay trace.
#[test]
fn random_sweep_three_thread_stack_holds() {
    let _serial = serial();
    let report = Explorer::random(0xC50_5EED, 200).explore(|| {
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::with_config(
            4,
            TasLock::new(),
            3,
            CsConfig::COMBINING,
        ));
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        let children: Vec<_> = (1..3usize)
            .map(|proc| {
                let stack = Arc::clone(&stack);
                let recorder = recorder.clone();
                spawn(move || {
                    let v = proc as u32;
                    let handle = recorder.begin(proc, SpecStackOp::Push(v));
                    match stack.push(proc, v) {
                        PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
                        PushOutcome::Full => handle.finish(SpecStackResp::Full),
                    }
                    let handle = recorder.begin(proc, SpecStackOp::Pop);
                    match stack.pop(proc) {
                        PopOutcome::Popped(v) => handle.finish(SpecStackResp::Popped(v)),
                        PopOutcome::Empty => handle.finish(SpecStackResp::Empty),
                    }
                })
            })
            .collect();
        let handle = recorder.begin(0, SpecStackOp::Push(0));
        match stack.push(0, 0) {
            PushOutcome::Pushed => handle.finish(SpecStackResp::Pushed),
            PushOutcome::Full => handle.finish(SpecStackResp::Full),
        }
        for child in children {
            child.join();
        }
        let history = recorder.finish();
        assert!(
            check_linearizable(&StackSpec::new(4), &history).is_linearizable(),
            "non-linearizable history:\n{history}"
        );
    });
    report.assert_ok();
    assert_eq!(report.schedules, 200, "{report}");
}

/// A printed trace replays deterministically: force a trivial body
/// through an explicit trace and confirm the explorer accepts it.
/// (The failing-trace direction is covered by the mutation self-test.)
#[test]
fn replay_mode_runs_a_recorded_trace() {
    let _serial = serial();
    let body = || {
        let stack: Arc<CsStack<u32>> = Arc::new(CsStack::new(2, 2));
        let child = {
            let stack = Arc::clone(&stack);
            spawn(move || {
                let _ = stack.push(1, 2);
            })
        };
        let _ = stack.push(0, 1);
        child.join();
        let mut popped = Vec::new();
        while let PopOutcome::Popped(v) = stack.pop(0) {
            popped.push(v);
        }
        assert_eq!(popped.len(), 2);
    };
    // Empty trace = "always pick the first candidate": a valid
    // deterministic schedule for any body.
    let report = Explorer::replay("").explore(body);
    report.assert_ok();
    assert_eq!(report.schedules, 1);
}
