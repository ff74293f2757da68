//! Chaos stress harness (`--features chaos`): arm the fail points in
//! the weak operations, the transformation, and the locks, then check
//! that the contention-sensitive objects stay **linearizable** and
//! **conserve values** while faults fire.
//!
//! This is the integration half of the fault-injection subsystem: the
//! fail points simulate abort storms, perturbed schedules, and §5-style
//! crashes at adversarial program points, and cso-lincheck's Wing–Gong
//! checker plus conservation accounting prove the degradation is
//! graceful — slower paths, never wrong answers.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use cso::core::{CsConfig, RecoveryPolicy};
use cso::deque::{CsDeque, DequePopOutcome, DequePushOutcome, End};
use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::deque::{DequeSpec, SpecDequeOp, SpecDequeResp, SpecEnd};
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::memory::chaos::{self, Fault, Plan};
use cso::queue::{CsQueue, DequeueOutcome, EnqueueOutcome};
use cso::stack::{CsStack, PopOutcome, PushOutcome};

// The chaos registry is process-global: serialize the scenarios.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const THREADS: usize = 3;
const OPS: usize = 7;

#[test]
fn cs_stack_linearizes_under_weak_op_abort_storm() {
    let _serial = serial();
    chaos::reset();
    // Aborts in the weak push/pop (pathological interference), vetoes
    // of the fast path, and yields inside the TAS lock.
    chaos::arm_plan("stack::push", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("stack::pop", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 4));
    chaos::arm_plan("tas::acquire", Plan::one_in(Fault::Yield, 2));

    let spec = StackSpec::new(4);
    for round in 0..40 {
        let stack: CsStack<u32> = CsStack::new(4, THREADS);
        let recorder: Recorder<SpecStackOp, SpecStackResp> = Recorder::new();
        std::thread::scope(|s| {
            for proc in 0..THREADS {
                let stack = &stack;
                let recorder = recorder.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        if (proc * 31 + i * 17 + round) % 3 != 0 {
                            let v = (round * 100 + proc * OPS + i) as u32;
                            recorder.invoke(proc, SpecStackOp::Push(v));
                            let resp = match stack.push(proc, v) {
                                PushOutcome::Pushed => SpecStackResp::Pushed,
                                PushOutcome::Full => SpecStackResp::Full,
                            };
                            recorder.ret(proc, resp);
                        } else {
                            recorder.invoke(proc, SpecStackOp::Pop);
                            let resp = match stack.pop(proc) {
                                PopOutcome::Popped(v) => SpecStackResp::Popped(v),
                                PopOutcome::Empty => SpecStackResp::Empty,
                            };
                            recorder.ret(proc, resp);
                        }
                    }
                });
            }
        });
        let history = recorder.finish();
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round} under chaos:\n{history}"
        );
    }
    assert!(
        chaos::fires("stack::push") > 0 && chaos::fires("stack::pop") > 0,
        "the storm never fired — the harness tested nothing"
    );
    chaos::reset();
}

#[test]
fn cs_queue_conserves_values_under_chaos() {
    let _serial = serial();
    chaos::reset();
    chaos::arm_plan("queue::enqueue", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("queue::dequeue", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan(
        "cs::lock-wait",
        Plan::one_in(Fault::Delay(Duration::from_micros(20)), 4),
    );

    const WORKERS: u32 = 4;
    const PER_THREAD: u32 = 400;
    let queue: CsQueue<u32> = CsQueue::new(4096, WORKERS as usize);
    let mut all: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let queue = &queue;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            queue.enqueue(t as usize, t * PER_THREAD + i),
                            EnqueueOutcome::Enqueued
                        );
                        if let DequeueOutcome::Dequeued(v) = queue.dequeue(t as usize) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    while let DequeueOutcome::Dequeued(v) = queue.dequeue(0) {
        all.push(v);
    }
    // Conservation: every value enqueued exactly once came out exactly
    // once, spurious aborts notwithstanding.
    assert_eq!(all.len(), (WORKERS * PER_THREAD) as usize);
    assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    assert!(chaos::fires("queue::enqueue") > 0);
    chaos::reset();
}

/// The escalation ladder under an abort storm: weak operations abort
/// (in the fast path, in the contention-management retries, and under
/// the lock), exchanger claims are spuriously refused, and the lock
/// yields — yet every value pushed once comes out exactly once, and
/// the eliminated-path accounting stays consistent with the
/// exchanger's pair counter.
#[test]
fn cs_stack_ladder_conserves_values_under_chaos() {
    let _serial = serial();
    chaos::reset();
    chaos::arm_plan("stack::push", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("stack::pop", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("cs::fast", Plan::one_in(Fault::SpuriousAbort, 4));
    chaos::arm_plan("exchange::claim", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("tas::acquire", Plan::one_in(Fault::Yield, 2));

    const WORKERS: u32 = 4;
    const PER_THREAD: u32 = 400;
    let stack: CsStack<u32> = CsStack::with_config(
        4096,
        cso::locks::TasLock::new(),
        WORKERS as usize,
        CsConfig::LADDER,
    );
    let mut all: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|t| {
                let stack = &stack;
                s.spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..PER_THREAD {
                        assert_eq!(
                            stack.push(t as usize, t * PER_THREAD + i),
                            PushOutcome::Pushed
                        );
                        if let PopOutcome::Popped(v) = stack.pop(t as usize) {
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    while let PopOutcome::Popped(v) = stack.pop(0) {
        all.push(v);
    }
    // Conservation: an eliminated pair hands the value from pusher to
    // popper directly; with claims randomly refused and retries
    // aborting, nothing may be lost or duplicated.
    assert_eq!(all.len(), (WORKERS * PER_THREAD) as usize);
    assert_eq!(all.iter().collect::<HashSet<_>>().len(), all.len());
    let paths = stack.path_stats();
    assert_eq!(paths.eliminated, stack.eliminated_pairs() * 2);
    assert_eq!(paths.total(), u64::from(WORKERS * PER_THREAD) * 2 + 1);
    assert!(chaos::fires("stack::push") > 0);
    chaos::reset();
}

#[test]
fn cs_queue_linearizes_under_chaos() {
    let _serial = serial();
    chaos::reset();
    chaos::arm_plan("queue::enqueue", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("queue::dequeue", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("sfree::wait", Plan::one_in(Fault::Yield, 2));

    let spec = QueueSpec::new(4);
    for round in 0..40 {
        let queue: CsQueue<u32> = CsQueue::new(4, THREADS);
        let recorder: Recorder<SpecQueueOp, SpecQueueResp> = Recorder::new();
        std::thread::scope(|s| {
            for proc in 0..THREADS {
                let queue = &queue;
                let recorder = recorder.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        if (proc * 13 + i * 7 + round) % 3 != 0 {
                            let v = (round * 100 + proc * OPS + i) as u32;
                            recorder.invoke(proc, SpecQueueOp::Enqueue(v));
                            let resp = match queue.enqueue(proc, v) {
                                EnqueueOutcome::Enqueued => SpecQueueResp::Enqueued,
                                EnqueueOutcome::Full => SpecQueueResp::Full,
                            };
                            recorder.ret(proc, resp);
                        } else {
                            recorder.invoke(proc, SpecQueueOp::Dequeue);
                            let resp = match queue.dequeue(proc) {
                                DequeueOutcome::Dequeued(v) => SpecQueueResp::Dequeued(v),
                                DequeueOutcome::Empty => SpecQueueResp::Empty,
                            };
                            recorder.ret(proc, resp);
                        }
                    }
                });
            }
        });
        let history = recorder.finish();
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round}: queue history not linearizable under chaos"
        );
    }
    chaos::reset();
}

/// The checker-side name of a deque end.
fn spec_end(end: End) -> SpecEnd {
    match end {
        End::Left => SpecEnd::Left,
        End::Right => SpecEnd::Right,
    }
}

#[test]
fn cs_deque_linearizes_under_weak_op_abort_storm() {
    let _serial = serial();
    chaos::reset();
    chaos::arm_plan("deque::push", Plan::one_in(Fault::SpuriousAbort, 3));
    chaos::arm_plan("deque::pop", Plan::one_in(Fault::SpuriousAbort, 3));

    let spec = DequeSpec::new(4);
    for round in 0..30 {
        let deque: CsDeque<u32> = CsDeque::new(4, THREADS);
        let recorder: Recorder<SpecDequeOp, SpecDequeResp> = Recorder::new();
        std::thread::scope(|s| {
            for proc in 0..THREADS {
                let deque = &deque;
                let recorder = recorder.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        let end = if (proc + i + round) % 2 == 0 {
                            End::Left
                        } else {
                            End::Right
                        };
                        if (proc * 31 + i * 17 + round) % 3 != 0 {
                            let v = (round * 100 + proc * OPS + i) as u32;
                            recorder.invoke(proc, SpecDequeOp::Push(spec_end(end), v));
                            let resp = match deque.push(proc, end, v) {
                                DequePushOutcome::Pushed => SpecDequeResp::Pushed,
                                DequePushOutcome::Full => SpecDequeResp::Full,
                            };
                            recorder.ret(proc, resp);
                        } else {
                            recorder.invoke(proc, SpecDequeOp::Pop(spec_end(end)));
                            let resp = match deque.pop(proc, end) {
                                DequePopOutcome::Popped(v) => SpecDequeResp::Popped(v),
                                DequePopOutcome::Empty => SpecDequeResp::Empty,
                            };
                            recorder.ret(proc, resp);
                        }
                    }
                });
            }
        });
        let history = recorder.finish();
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round}: deque history not linearizable under chaos"
        );
    }
    chaos::reset();
}

/// A §5-style crash (panic while holding the slow-path lock) in the
/// middle of a stack workload: the victim's operation vanishes without
/// effect, everyone else finishes, and the surviving contents are
/// exactly the successfully pushed values.
#[test]
fn panic_in_stack_slow_path_preserves_conservation() {
    let _serial = serial();
    chaos::reset();
    let stack: CsStack<u32> = CsStack::new(64, 3);
    for v in 1..=10 {
        assert_eq!(stack.push(0, v), PushOutcome::Pushed);
    }

    // Veto the fast path once so the next push goes under the lock,
    // then kill it there.
    chaos::arm_plan("cs::fast", Plan::once(Fault::SpuriousAbort));
    chaos::arm_plan("cs::locked", Plan::once(Fault::Panic));
    let poisoned = catch_unwind(AssertUnwindSafe(|| stack.push(1, 999)));
    assert!(poisoned.is_err(), "the injected panic must surface");
    assert_eq!(stack.fault_stats().poisoned, 1);

    // The object heals: concurrent threads drain it completely.
    let mut drained: Vec<u32> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|proc| {
                let stack = &stack;
                s.spawn(move || {
                    let mut got = Vec::new();
                    while let PopOutcome::Popped(v) = stack.pop(proc) {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    drained.sort_unstable();
    assert_eq!(
        drained,
        (1..=10).collect::<Vec<u32>>(),
        "999 must not leak in"
    );
    chaos::reset();
}

/// The §5 caveat, *solved*: a lock holder hard-killed inside the
/// critical section — stalled forever, never resumed, never joined —
/// used to wedge every slow-path operation for good. With a
/// [`RecoveryPolicy`] armed, the survivors suspect the corpse, seize
/// the lock by custody transfer, and finish **all** of their
/// operations. Conservation is exact: the dead process stalled before
/// its weak operation, so its value never appears.
#[test]
fn hard_killed_lock_holder_is_succeeded_and_survivors_complete() {
    let _serial = serial();
    chaos::reset();
    const SURVIVORS: usize = 3;
    const PER_THREAD: u32 = 200;
    let policy = RecoveryPolicy {
        grace: Duration::from_secs(3600), // suspect only on mark_dead
        max_successions: 8,
        backoff: Duration::from_millis(1),
    };
    let config = CsConfig::PAPER.without_fast_path().with_recovery(policy);
    let stack = std::sync::Arc::new(CsStack::<u32>::with_config(
        4096,
        cso::locks::TasLock::new(),
        SURVIVORS + 1,
        config,
    ));

    // The victim (proc 0) takes the slow-path lock and dies there.
    chaos::arm_plan("cs::locked", Plan::once(Fault::StallForever));
    let _corpse = {
        let stack = std::sync::Arc::clone(&stack);
        std::thread::spawn(move || {
            let _ = stack.push(0, 999_999);
        })
    };
    while chaos::fires("cs::locked") == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    stack.liveness().expect("recovery enabled").mark_dead(0);

    // Every surviving process completes its whole workload — no wedge.
    std::thread::scope(|s| {
        for proc in 1..=SURVIVORS {
            let stack = &stack;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let v = proc as u32 * PER_THREAD + i;
                    assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
                }
            });
        }
    });

    let stats = stack.recovery_stats().expect("recovery enabled");
    assert!(stats.successions >= 1, "the corpse's lock was never seized");
    assert!(!stats.failed);
    assert!(!stack.is_poisoned());
    assert_eq!(stack.fault_stats().poisoned, 0);

    // Exact conservation: all survivor values once, the corpse's never.
    let mut drained = Vec::new();
    while let PopOutcome::Popped(v) = stack.pop(1) {
        drained.push(v);
    }
    drained.sort_unstable();
    let expected: Vec<u32> = (1..=SURVIVORS as u32)
        .flat_map(|p| p * PER_THREAD..(p + 1) * PER_THREAD)
        .collect();
    assert_eq!(
        drained, expected,
        "values lost or duplicated past the crash"
    );

    // reset() revives the corpse; its push lands on a fenced unlock
    // (the lock moved on without it) and harms nothing.
    chaos::reset();
}

/// A combiner killed **mid-batch** (the `cs::combine` fail point fires
/// between claiming publication records and applying them): the guard
/// poisons exactly the in-flight claims, their owners reclaim and
/// retry clean, and the crash surfaces in [`FaultStats`] — one
/// poisoned tenure, at least one poisoned record. The combiner applies
/// its *own* operation before serving the batch, so even the
/// panicking thread's value is on the stack; conservation is exact.
///
/// [`FaultStats`]: cso::core::FaultStats
#[test]
fn panic_in_combiner_batch_poisons_only_in_flight_records() {
    let _serial = serial();
    const WORKERS: usize = 3;
    const PER_THREAD: u32 = 40;
    // Forced slow path + combining: every operation posts a record, so
    // any overlap produces a batch for the fail point to kill.
    let config = CsConfig::PAPER.without_fast_path().with_combining();

    // The fail point only fires when the panicking tenure actually
    // claimed a record (a true mid-batch crash); retry the workload
    // until scheduling produces one.
    for attempt in 0.. {
        assert!(attempt < 500, "no schedule ever produced a batch to kill");
        chaos::reset();
        let stack: cso::stack::CsStack<u32> = cso::stack::CsStack::with_config(
            (WORKERS as u32 * PER_THREAD) as usize,
            cso::locks::TasLock::new(),
            WORKERS,
            config,
        );
        chaos::arm_plan("cs::combine", Plan::once(Fault::Panic));

        std::thread::scope(|s| {
            for proc in 0..WORKERS {
                let stack = &stack;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        let v = proc as u32 * PER_THREAD + i;
                        // The injected panic unwinds out of the victim's
                        // push — after its own op applied (see above).
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            assert_eq!(stack.push(proc, v), PushOutcome::Pushed);
                        }));
                    }
                });
            }
        });

        if chaos::fires("cs::combine") == 0 {
            continue; // no batch overlapped the fail point; retry
        }

        let faults = stack.fault_stats();
        assert_eq!(faults.poisoned, 1, "exactly one tenure was killed");
        assert!(
            faults.record_poisoned >= 1,
            "a mid-batch crash must poison its in-flight claims"
        );
        assert!(stack.combining_stats().batches >= 1);

        // Conservation: poisoned waiters retried clean and the victim's
        // own op had already applied, so every value is present once.
        let mut drained = Vec::new();
        while let PopOutcome::Popped(v) = stack.pop(0) {
            drained.push(v);
        }
        drained.sort_unstable();
        assert_eq!(
            drained,
            (0..WORKERS as u32 * PER_THREAD).collect::<Vec<u32>>(),
            "attempt {attempt}: values lost or duplicated across the crash"
        );
        break;
    }
    chaos::reset();
}
