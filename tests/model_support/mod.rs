//! Shared harness for the tests over the production objects: the
//! model suites (`tests/model_*.rs`, `--features model`) and their
//! real-thread litmus twin (`tests/litmus_stress.rs`, default build).
//!
//! A scenario is a prefill (run solo on the body thread before any
//! other thread exists), one script of checker-side operations per
//! thread (under the model, script 0 runs on the body thread and the
//! others on spawned model threads), and a solo drain after every
//! thread joined. Each operation is one attempt against the real
//! object: a weak operation may return ⊥, which the recorder cancels
//! (⊥ has no effect by contract), and a strong one always answers.
//! Recording the prefill and the drain too makes one linearizability
//! check cover the final state: an aborted operation that secretly
//! took effect, or a helper that corrupted a slot, leaves a residue no
//! linearization explains.
//!
//! Every operation's counted shared accesses are measured with the
//! calling thread's [`CountScope`], so tests can assert exact solo
//! budgets and tell fast-path completions from slow ones.

#![allow(dead_code)] // each test binary uses its own subset

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cso::core::Aborted;
use cso::deque::{AbortableDeque, CsDeque, DequePopOutcome, DequePushOutcome, End};
use cso::lincheck::checker::check_linearizable;
use cso::lincheck::history::History;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::spec::SeqSpec;
use cso::lincheck::specs::deque::{SpecDequeOp, SpecDequeResp, SpecEnd};
use cso::lincheck::specs::queue::{SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp};
use cso::locks::{RawLock, TasLock};
use cso::memory::counting::CountScope;
use cso::queue::{AbortableQueue, CsQueue, DequeueOutcome, EnqueueOutcome};
#[cfg(feature = "model")]
use cso::sched::spawn;
use cso::stack::{AbortableStack, CsStack, PopOutcome, PushOutcome};

/// How one checker-side operation runs against an object: a single
/// attempt by process `proc`; `Err` is ⊥.
pub type Apply<T, Op, Resp> = fn(&T, usize, Op) -> Result<Resp, Aborted>;

/// The fate and counted cost of one scripted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Whether it returned ⊥.
    pub aborted: bool,
    /// Counted shared accesses it performed.
    pub accesses: u64,
}

/// Runs and records one operation.
pub fn run_op<T, Op: Copy, Resp: Clone>(
    obj: &T,
    rec: &Recorder<Op, Resp>,
    proc: usize,
    op: Op,
    apply: Apply<T, Op, Resp>,
) -> OpCost {
    let handle = rec.begin(proc, op);
    let scope = CountScope::start();
    let out = apply(obj, proc, op);
    let accesses = scope.take().total();
    let aborted = match out {
        Ok(resp) => {
            handle.finish(resp);
            false
        }
        Err(Aborted) => {
            handle.abort();
            true
        }
    };
    OpCost { aborted, accesses }
}

/// Runs `prefill` solo on the body thread, then every script on its
/// own model thread, and joins them. Returns the scripted operations'
/// costs (the prefill's are dropped).
#[cfg(feature = "model")]
pub fn run_scripts<T, Op, Resp>(
    obj: &Arc<T>,
    rec: &Recorder<Op, Resp>,
    prefill: &[Op],
    scripts: &[Vec<Op>],
    apply: Apply<T, Op, Resp>,
) -> Vec<OpCost>
where
    T: Send + Sync + 'static,
    Op: Copy + Send + 'static,
    Resp: Clone + Send + 'static,
{
    for &op in prefill {
        assert!(
            !run_op(&**obj, rec, 0, op, apply).aborted,
            "solo prefill aborted"
        );
    }
    let children: Vec<_> = scripts
        .iter()
        .enumerate()
        .skip(1)
        .map(|(proc, script)| {
            let obj = Arc::clone(obj);
            let rec = rec.clone();
            let script = script.clone();
            spawn(move || {
                script
                    .into_iter()
                    .map(|op| run_op(&*obj, &rec, proc, op, apply))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut costs: Vec<OpCost> = scripts[0]
        .iter()
        .map(|&op| run_op(&**obj, rec, 0, op, apply))
        .collect();
    for child in children {
        costs.extend(child.join());
    }
    costs
}

/// Pops solo on the body thread until `empty` comes back, recording
/// every pop.
pub fn drain<T, Op: Copy, Resp: Clone + PartialEq>(
    obj: &T,
    rec: &Recorder<Op, Resp>,
    pop: Op,
    empty: &Resp,
    apply: Apply<T, Op, Resp>,
) {
    for _ in 0..1_000 {
        let handle = rec.begin(0, pop);
        let resp = apply(obj, 0, pop).expect("solo pops never abort");
        let done = &resp == empty;
        handle.finish(resp);
        if done {
            return;
        }
    }
    panic!("drain never reached empty");
}

/// Drains from the left, then pushes each side until `Full`, all
/// recorded on the body thread.
pub fn drain_and_probe<T>(
    deque: &T,
    rec: &Recorder<SpecDequeOp, SpecDequeResp>,
    apply: Apply<T, SpecDequeOp, SpecDequeResp>,
) {
    drain(
        deque,
        rec,
        SpecDequeOp::Pop(SpecEnd::Left),
        &SpecDequeResp::Empty,
        apply,
    );
    for end in [SpecEnd::Right, SpecEnd::Left] {
        for v in 100.. {
            rec.invoke(0, SpecDequeOp::Push(end, v));
            let resp = apply(deque, 0, SpecDequeOp::Push(end, v)).expect("solo pushes never abort");
            rec.ret(0, resp);
            if resp == SpecDequeResp::Full {
                break;
            }
            assert!(v < 200, "a push never reported Full");
        }
    }
}

/// Asserts the recorded history linearizes against `spec` and
/// returns it for further inspection.
pub fn linearized<S>(spec: &S, rec: &Recorder<S::Op, S::Resp>) -> History<S::Op, S::Resp>
where
    S: SeqSpec,
    S::Op: std::fmt::Display,
    S::Resp: std::fmt::Display,
{
    let history = rec.finish();
    assert!(
        check_linearizable(spec, &history).is_linearizable(),
        "non-linearizable history:\n{history}"
    );
    history
}

/// The responses of every completed operation in `history`.
pub fn responses<Op: Clone, Resp: Clone>(history: &History<Op, Resp>) -> Vec<Resp> {
    history
        .operations()
        .into_iter()
        .filter_map(|op| op.returned.map(|(resp, _)| resp))
        .collect()
}

fn pushed(o: PushOutcome) -> SpecStackResp {
    match o {
        PushOutcome::Pushed => SpecStackResp::Pushed,
        PushOutcome::Full => SpecStackResp::Full,
    }
}

fn popped(o: PopOutcome<u32>) -> SpecStackResp {
    match o {
        PopOutcome::Popped(v) => SpecStackResp::Popped(v),
        PopOutcome::Empty => SpecStackResp::Empty,
    }
}

/// Figure 1: one weak attempt on the abortable stack.
pub fn weak_stack(
    s: &AbortableStack<u32>,
    _proc: usize,
    op: SpecStackOp,
) -> Result<SpecStackResp, Aborted> {
    match op {
        SpecStackOp::Push(v) => s.weak_push(v).map(pushed),
        SpecStackOp::Pop => s.weak_pop().map(popped),
    }
}

/// Figure 3: one strong operation on the contention-sensitive stack.
pub fn cs_stack<L: RawLock>(
    s: &CsStack<u32, L>,
    proc: usize,
    op: SpecStackOp,
) -> Result<SpecStackResp, Aborted> {
    Ok(match op {
        SpecStackOp::Push(v) => pushed(s.push(proc, v)),
        SpecStackOp::Pop => popped(s.pop(proc)),
    })
}

fn enqueued(o: EnqueueOutcome) -> SpecQueueResp {
    match o {
        EnqueueOutcome::Enqueued => SpecQueueResp::Enqueued,
        EnqueueOutcome::Full => SpecQueueResp::Full,
    }
}

fn dequeued(o: DequeueOutcome<u32>) -> SpecQueueResp {
    match o {
        DequeueOutcome::Dequeued(v) => SpecQueueResp::Dequeued(v),
        DequeueOutcome::Empty => SpecQueueResp::Empty,
    }
}

/// One weak attempt on the abortable queue.
pub fn weak_queue(
    q: &AbortableQueue<u32>,
    _proc: usize,
    op: SpecQueueOp,
) -> Result<SpecQueueResp, Aborted> {
    match op {
        SpecQueueOp::Enqueue(v) => q.weak_enqueue(v).map(enqueued),
        SpecQueueOp::Dequeue => q.weak_dequeue().map(dequeued),
    }
}

/// Figure 3 over the queue: one strong operation.
pub fn cs_queue<L: RawLock>(
    q: &CsQueue<u32, L>,
    proc: usize,
    op: SpecQueueOp,
) -> Result<SpecQueueResp, Aborted> {
    Ok(match op {
        SpecQueueOp::Enqueue(v) => enqueued(q.enqueue(proc, v)),
        SpecQueueOp::Dequeue => dequeued(q.dequeue(proc)),
    })
}

/// The production name of a checker-side deque end.
pub fn end(end: SpecEnd) -> End {
    match end {
        SpecEnd::Left => End::Left,
        SpecEnd::Right => End::Right,
    }
}

fn end_pushed(o: DequePushOutcome) -> SpecDequeResp {
    match o {
        DequePushOutcome::Pushed => SpecDequeResp::Pushed,
        DequePushOutcome::Full => SpecDequeResp::Full,
    }
}

fn end_popped(o: DequePopOutcome<u32>) -> SpecDequeResp {
    match o {
        DequePopOutcome::Popped(v) => SpecDequeResp::Popped(v),
        DequePopOutcome::Empty => SpecDequeResp::Empty,
    }
}

/// One attempt on the abortable (linear-HLM) deque.
pub fn weak_deque(
    d: &AbortableDeque<u32>,
    _proc: usize,
    op: SpecDequeOp,
) -> Result<SpecDequeResp, Aborted> {
    match op {
        SpecDequeOp::Push(e, v) => d.try_push(end(e), v).map(end_pushed),
        SpecDequeOp::Pop(e) => d.try_pop(end(e)).map(end_popped),
    }
}

/// Figure 3 over the deque: one strong operation.
pub fn cs_deque(d: &CsDeque<u32>, proc: usize, op: SpecDequeOp) -> Result<SpecDequeResp, Aborted> {
    Ok(match op {
        SpecDequeOp::Push(e, v) => end_pushed(d.push(proc, end(e), v)),
        SpecDequeOp::Pop(e) => end_popped(d.pop(proc, end(e))),
    })
}

/// A TAS lock that mirrors its state into a flag the test can read,
/// updated in the same atomic block of the schedule as the acquisition
/// or release, so the mirror is exact at every yield point — also at a
/// crash.
pub struct ObservedLock {
    inner: TasLock,
    held: Arc<AtomicBool>,
}

impl RawLock for ObservedLock {
    fn lock(&self) {
        self.inner.lock();
        self.held.store(true, Ordering::SeqCst);
    }

    fn unlock(&self) {
        self.held.store(false, Ordering::SeqCst);
        self.inner.unlock();
    }

    fn try_lock(&self) -> bool {
        let won = self.inner.try_lock();
        if won {
            self.held.store(true, Ordering::SeqCst);
        }
        won
    }
}

/// A fresh [`ObservedLock`] and its mirror flag.
pub fn observed() -> (ObservedLock, Arc<AtomicBool>) {
    let held = Arc::new(AtomicBool::new(false));
    (
        ObservedLock {
            inner: TasLock::new(),
            held: Arc::clone(&held),
        },
        held,
    )
}
