//! Real-thread litmus runs of the model-checking scenarios.
//!
//! The model suites (`tests/model_*.rs`, `--features model`) explore
//! the schedules of small scenarios over the production objects on a
//! serialized machine: one thread runs at a time, and the code between
//! two yield points is one atomic block. That is the paper's cost
//! model, but not the hardware's: a weak memory ordering, or a race
//! inside what the model treats as one block, never shows there. This
//! suite runs the same scenarios in the default build, with the
//! std runtime, on OS threads that a spin gate releases together, for
//! many rounds each. It adds the hardware's own interleavings to the
//! model's, and it keeps every scenario in the plain `cargo test` run.
//!
//! Each round is checked the way a model schedule is (see
//! `model_support`): a solo prefill, one script per thread, a solo
//! drain (for the deque, also a probe that pushes each side until
//! `Full`), and one linearizability check over the whole history with
//! aborted attempts dropped. On top of that, each scenario asserts its
//! own per-round bound, such as "at most one of two racing pushes
//! aborts" or "a concurrent enqueue and dequeue never abort each
//! other". A run cannot promise that any given race occurs, so these
//! tests assert only what must hold in every round.
//!
//! The stack and the queue run against four objects each: the weak
//! (single-attempt) object, and Figure 3 over it in the paper's
//! (`CsConfig::PAPER`), the combining and the ladder configurations.
//! The deque runs against its weak object and the first two strong
//! ones; its ladder declines elimination, so it adds nothing to the
//! queue's.

mod model_support;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use cso::core::{Abortable, CsConfig};
use cso::deque::{AbortableDeque, CsDeque};
use cso::lincheck::recorder::Recorder;
use cso::lincheck::spec::SeqSpec;
use cso::lincheck::specs::deque::{DequeSpec, SpecDequeOp, SpecDequeResp, SpecEnd};
use cso::lincheck::specs::queue::{QueueSpec, SpecQueueOp, SpecQueueResp};
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::locks::TasLock;
use cso::memory::exchange::Exchanger;
use cso::queue::{AbortableQueue, CsQueue};
use cso::stack::{AbortableStack, CsStack, PopOutcome, StackOp, StackResponse};
use model_support::{
    cs_deque, cs_queue, cs_stack, drain, drain_and_probe, linearized, responses, run_op,
    weak_deque, weak_queue, weak_stack, Apply, OpCost,
};

/// Rounds per scenario: each is a fresh object and fresh threads.
const ROUNDS: usize = 500;

/// Processes the strong objects are built for (the widest scenario).
const PROCS: usize = 3;

/// Releases a fixed number of threads together: each arrives, then
/// spins until all have, so their first operations overlap.
struct Gate {
    arrived: AtomicUsize,
    n: usize,
}

impl Gate {
    fn new(n: usize) -> Gate {
        Gate {
            arrived: AtomicUsize::new(0),
            n,
        }
    }

    fn wait(&self) {
        self.arrived.fetch_add(1, Ordering::SeqCst);
        let mut spins = 0u32;
        while self.arrived.load(Ordering::SeqCst) < self.n {
            spins += 1;
            // Yield now and then: there may be more threads than CPUs.
            if spins % 64 == 0 {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Runs `prefill` solo, then every script on its own OS thread, all
/// released by one gate, and joins them. Returns the scripted
/// operations' costs, script by script.
fn run_threaded<T, Op, Resp>(
    obj: &T,
    rec: &Recorder<Op, Resp>,
    prefill: &[Op],
    scripts: &[Vec<Op>],
    apply: Apply<T, Op, Resp>,
) -> Vec<OpCost>
where
    T: Sync,
    Op: Copy + Send + Sync,
    Resp: Clone + Send,
{
    for &op in prefill {
        assert!(
            !run_op(obj, rec, 0, op, apply).aborted,
            "solo prefill aborted"
        );
    }
    let gate = Gate::new(scripts.len());
    thread::scope(|s| {
        let threads: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(proc, script)| {
                let gate = &gate;
                let rec = rec.clone();
                s.spawn(move || {
                    gate.wait();
                    script
                        .iter()
                        .map(|&op| run_op(obj, &rec, proc, op, apply))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("a script thread panicked"))
            .collect()
    })
}

/// Runs one scenario for [`ROUNDS`] rounds. Each round builds a fresh
/// object, runs the scenario, lets `finish` drain it solo, and checks
/// the whole history against `spec`; `per_round` then sees the
/// scripted costs and the scripted operations' responses.
fn litmus<T, S>(
    spec: &S,
    make: impl Fn() -> T,
    apply: Apply<T, S::Op, S::Resp>,
    finish: impl Fn(&T, &Recorder<S::Op, S::Resp>),
    prefill: &[S::Op],
    scripts: &[Vec<S::Op>],
    mut per_round: impl FnMut(&[OpCost], &[S::Resp]),
) where
    T: Sync,
    S: SeqSpec,
    S::Op: Copy + Send + Sync + std::fmt::Display,
    S::Resp: Send + std::fmt::Display,
{
    for _ in 0..ROUNDS {
        let obj = make();
        let rec = Recorder::new();
        let costs = run_threaded(&obj, &rec, prefill, scripts, apply);
        let scripted: Vec<S::Resp> = responses(&rec.finish())
            .into_iter()
            .skip(prefill.len())
            .collect();
        finish(&obj, &rec);
        linearized(spec, &rec);
        per_round(&costs, &scripted);
    }
}

fn aborts(costs: &[OpCost]) -> usize {
    costs.iter().filter(|c| c.aborted).count()
}

/// Which production object a scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Object {
    /// The single-attempt (weak) object; attempts may return ⊥.
    Weak,
    /// Figure 3 over it, as the paper gives it.
    Paper,
    /// Figure 3 with the flat-combining slow path.
    Combining,
    /// Figure 3 with the CAS-backoff and elimination rungs.
    Ladder,
}

impl Object {
    fn config(self) -> CsConfig {
        match self {
            Object::Weak => unreachable!("the weak object has no configuration"),
            Object::Paper => CsConfig::PAPER,
            Object::Combining => CsConfig::COMBINING,
            Object::Ladder => CsConfig::LADDER,
        }
    }
}

/// The progress bound of a round: a weak stack or queue attempt (both
/// lock-free) aborts only when a concurrent attempt succeeded, so at
/// least one scripted operation completes; a strong operation never
/// returns ⊥.
fn assert_progress(object: Object, costs: &[OpCost]) {
    if object == Object::Weak {
        assert!(aborts(costs) < costs.len(), "every attempt aborted");
    } else {
        assert_eq!(aborts(costs), 0, "a strong operation returned ⊥");
    }
}

/// One round of generated tests per object: `scenario: weak => Weak,
/// ...` becomes `mod scenario { fn weak() { scenario(Object::Weak) } }`.
macro_rules! matrix {
    ($($scenario:ident: $($test:ident => $object:ident),+;)+) => {
        $(
            mod $scenario {
                $(
                    #[test]
                    fn $test() {
                        super::$scenario(super::Object::$object);
                    }
                )+
            }
        )+
    };
}

// ---------------------------------------------------------------
// The stack (Figure 1 and Figure 3 over it).
// ---------------------------------------------------------------

fn push(v: u32) -> SpecStackOp {
    SpecStackOp::Push(v)
}

const POP: SpecStackOp = SpecStackOp::Pop;

/// Runs a stack scenario against `object` with the given capacity.
fn stack_case(
    object: Object,
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<SpecStackOp>],
    mut per_round: impl FnMut(&[OpCost], &[SpecStackResp]),
) {
    let spec = StackSpec::new(capacity);
    let prefill: Vec<_> = prefill.iter().map(|&v| push(v)).collect();
    let per_round = |costs: &[OpCost], resps: &[SpecStackResp]| {
        assert_progress(object, costs);
        per_round(costs, resps);
    };
    if object == Object::Weak {
        litmus(
            &spec,
            || AbortableStack::<u32>::new(capacity),
            weak_stack,
            |s, rec| drain(s, rec, POP, &SpecStackResp::Empty, weak_stack),
            &prefill,
            scripts,
            per_round,
        );
    } else {
        litmus(
            &spec,
            || CsStack::<u32>::with_config(capacity, TasLock::new(), PROCS, object.config()),
            cs_stack,
            |s, rec| drain(s, rec, POP, &SpecStackResp::Empty, cs_stack),
            &prefill,
            scripts,
            per_round,
        );
    }
}

fn two_racing_pushes(object: Object) {
    stack_case(object, 4, &[], &[vec![push(1)], vec![push(2)]], |_, _| {});
}

fn push_racing_pop_on_prefilled_stack(object: Object) {
    stack_case(object, 4, &[5, 6], &[vec![push(9)], vec![POP]], |_, _| {});
}

fn push_racing_pop_on_empty_stack(object: Object) {
    stack_case(object, 2, &[], &[vec![push(9)], vec![POP]], |_, resps| {
        assert!(
            resps.iter().all(|r| matches!(
                r,
                SpecStackResp::Pushed | SpecStackResp::Empty | SpecStackResp::Popped(9)
            )),
            "{resps:?}"
        );
    });
}

fn pop_race_on_single_element(object: Object) {
    stack_case(object, 4, &[7], &[vec![POP], vec![POP]], |_, resps| {
        let wins = resps
            .iter()
            .filter(|r| **r == SpecStackResp::Popped(7))
            .count();
        assert!(wins <= 1, "the single element was popped twice");
    });
}

fn two_ops_per_process(object: Object) {
    stack_case(
        object,
        4,
        &[],
        &[vec![push(1), POP], vec![push(2), POP]],
        |_, _| {},
    );
}

fn three_processes(object: Object) {
    stack_case(
        object,
        4,
        &[7],
        &[vec![push(1)], vec![push(2)], vec![POP]],
        |_, _| {},
    );
}

fn full_boundary(object: Object) {
    stack_case(
        object,
        1,
        &[],
        &[vec![push(1)], vec![push(2)]],
        |_, resps| {
            let pushed = resps
                .iter()
                .filter(|r| **r == SpecStackResp::Pushed)
                .count();
            assert!(pushed <= 1, "a capacity-1 stack took two values");
        },
    );
}

matrix! {
    two_racing_pushes:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    push_racing_pop_on_prefilled_stack:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    push_racing_pop_on_empty_stack:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    pop_race_on_single_element:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    two_ops_per_process:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    three_processes:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    full_boundary:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
}

// ---------------------------------------------------------------
// The queue, including the non-interference theorem.
// ---------------------------------------------------------------

fn enq(v: u32) -> SpecQueueOp {
    SpecQueueOp::Enqueue(v)
}

const DEQ: SpecQueueOp = SpecQueueOp::Dequeue;

/// Runs a queue scenario against `object` with the given capacity.
fn queue_case(
    object: Object,
    capacity: usize,
    prefill: &[u32],
    scripts: &[Vec<SpecQueueOp>],
    mut per_round: impl FnMut(&[OpCost], &[SpecQueueResp]),
) {
    let spec = QueueSpec::new(capacity);
    let prefill: Vec<_> = prefill.iter().map(|&v| enq(v)).collect();
    let per_round = |costs: &[OpCost], resps: &[SpecQueueResp]| {
        assert_progress(object, costs);
        per_round(costs, resps);
    };
    if object == Object::Weak {
        litmus(
            &spec,
            || AbortableQueue::<u32>::new(capacity),
            weak_queue,
            |q, rec| drain(q, rec, DEQ, &SpecQueueResp::Empty, weak_queue),
            &prefill,
            scripts,
            per_round,
        );
    } else {
        litmus(
            &spec,
            || CsQueue::<u32>::with_config(capacity, TasLock::new(), PROCS, object.config()),
            cs_queue,
            |q, rec| drain(q, rec, DEQ, &SpecQueueResp::Empty, cs_queue),
            &prefill,
            scripts,
            per_round,
        );
    }
}

fn two_racing_enqueues(object: Object) {
    queue_case(object, 4, &[], &[vec![enq(1)], vec![enq(2)]], |_, _| {});
}

fn two_racing_dequeues(object: Object) {
    queue_case(object, 4, &[8, 9], &[vec![DEQ], vec![DEQ]], |_, resps| {
        assert!(
            !resps.contains(&SpecQueueResp::Empty),
            "a dequeue missed one of two prefilled values: {resps:?}"
        );
    });
}

/// The paper's §1.1 example: on a non-empty, non-full queue a
/// concurrent enqueue and dequeue never abort each other.
fn enqueue_and_dequeue_never_interfere(object: Object) {
    queue_case(
        object,
        4,
        &[5, 6],
        &[vec![enq(9)], vec![DEQ]],
        |costs, _| {
            assert_eq!(
                aborts(costs),
                0,
                "enqueue and dequeue on a non-empty non-full queue are non-interfering"
            );
        },
    );
}

fn empty_boundary_enqueue_dequeue_race(object: Object) {
    queue_case(object, 2, &[], &[vec![enq(9)], vec![DEQ]], |_, _| {});
}

fn queue_two_ops_per_process(object: Object) {
    queue_case(
        object,
        4,
        &[],
        &[vec![enq(1), DEQ], vec![enq(2), DEQ]],
        |_, _| {},
    );
}

fn queue_three_processes(object: Object) {
    queue_case(
        object,
        4,
        &[7],
        &[vec![enq(1)], vec![enq(2)], vec![DEQ]],
        |_, _| {},
    );
}

fn queue_full_boundary(object: Object) {
    queue_case(
        object,
        2,
        &[5],
        &[vec![enq(1)], vec![enq(2)]],
        |_, resps| {
            let enqueued = resps
                .iter()
                .filter(|r| **r == SpecQueueResp::Enqueued)
                .count();
            assert!(enqueued <= 1, "a capacity-2 queue took three values");
        },
    );
}

matrix! {
    two_racing_enqueues:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    two_racing_dequeues:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    enqueue_and_dequeue_never_interfere:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    empty_boundary_enqueue_dequeue_race:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    queue_two_ops_per_process:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    queue_three_processes:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
    queue_full_boundary:
        weak => Weak, paper => Paper, combining => Combining, ladder => Ladder;
}

// ---------------------------------------------------------------
// The linear-HLM deque.
// ---------------------------------------------------------------

const L: SpecEnd = SpecEnd::Left;
const R: SpecEnd = SpecEnd::Right;

fn dpush(end: SpecEnd, v: u32) -> SpecDequeOp {
    SpecDequeOp::Push(end, v)
}

fn dpop(end: SpecEnd) -> SpecDequeOp {
    SpecDequeOp::Pop(end)
}

/// Runs a deque scenario against `object` with the given capacity;
/// the prefill goes in at the right end.
fn deque_case(
    object: Object,
    capacity: usize,
    prefill_right: &[u32],
    scripts: &[Vec<SpecDequeOp>],
    mut per_round: impl FnMut(&[OpCost], &[SpecDequeResp]),
) {
    let spec = DequeSpec::new(capacity);
    let prefill: Vec<_> = prefill_right.iter().map(|&v| dpush(R, v)).collect();
    // The weak deque is only obstruction-free: two racing attempts may
    // abort each other, so only the strong objects get a progress bound.
    let per_round = |costs: &[OpCost], resps: &[SpecDequeResp]| {
        if object != Object::Weak {
            assert_progress(object, costs);
        }
        per_round(costs, resps);
    };
    if object == Object::Weak {
        litmus(
            &spec,
            || AbortableDeque::<u32>::new(capacity),
            weak_deque,
            |d, rec| drain_and_probe(d, rec, weak_deque),
            &prefill,
            scripts,
            per_round,
        );
    } else {
        litmus(
            &spec,
            || CsDeque::<u32>::with_config(capacity, TasLock::new(), PROCS, object.config()),
            cs_deque,
            |d, rec| drain_and_probe(d, rec, cs_deque),
            &prefill,
            scripts,
            per_round,
        );
    }
}

fn racing_right_pushes(object: Object) {
    deque_case(
        object,
        2,
        &[],
        &[vec![dpush(R, 1)], vec![dpush(R, 2)]],
        |_, _| {},
    );
}

/// Adjacent boundaries in a near-empty arena: even opposite-end
/// pushes can conflict, unlike the queue's ends.
fn opposite_end_pushes_on_small_arena(object: Object) {
    deque_case(
        object,
        2,
        &[],
        &[vec![dpush(L, 1)], vec![dpush(R, 2)]],
        |_, _| {},
    );
}

fn push_racing_pop_same_end(object: Object) {
    deque_case(
        object,
        2,
        &[9],
        &[vec![dpush(R, 1)], vec![dpop(R)]],
        |_, _| {},
    );
}

fn racing_pops_from_both_ends(object: Object) {
    deque_case(
        object,
        4,
        &[5, 6],
        &[vec![dpop(L)], vec![dpop(R)]],
        |_, _| {},
    );
}

fn deque_pop_race_on_single_element(object: Object) {
    deque_case(
        object,
        2,
        &[7],
        &[vec![dpop(L)], vec![dpop(R)]],
        |_, resps| {
            let wins = resps
                .iter()
                .filter(|r| **r == SpecDequeResp::Popped(7))
                .count();
            assert!(wins <= 1, "the single element was popped twice");
        },
    );
}

fn full_boundary_race(object: Object) {
    deque_case(
        object,
        2,
        &[1],
        &[vec![dpush(R, 2)], vec![dpop(R)]],
        |_, _| {},
    );
}

fn deque_two_ops_per_process(object: Object) {
    deque_case(
        object,
        2,
        &[],
        &[vec![dpush(L, 1), dpop(R)], vec![dpush(R, 2), dpop(L)]],
        |_, _| {},
    );
}

fn deque_three_processes(object: Object) {
    deque_case(
        object,
        2,
        &[],
        &[
            vec![dpush(L, 1), dpop(R)],
            vec![dpush(R, 2)],
            vec![dpop(L), dpush(R, 3)],
        ],
        |_, _| {},
    );
}

matrix! {
    racing_right_pushes:
        weak => Weak, paper => Paper, combining => Combining;
    opposite_end_pushes_on_small_arena:
        weak => Weak, paper => Paper, combining => Combining;
    push_racing_pop_same_end:
        weak => Weak, paper => Paper, combining => Combining;
    racing_pops_from_both_ends:
        weak => Weak, paper => Paper, combining => Combining;
    deque_pop_race_on_single_element:
        weak => Weak, paper => Paper, combining => Combining;
    full_boundary_race:
        weak => Weak, paper => Paper, combining => Combining;
    deque_two_ops_per_process:
        weak => Weak, paper => Paper, combining => Combining;
    deque_three_processes:
        weak => Weak, paper => Paper, combining => Combining;
}

// ---------------------------------------------------------------
// The elimination exchanger.
// ---------------------------------------------------------------

/// Offer polls: long enough on real threads for a taker to arrive in
/// some rounds and miss the window in others.
const POLLS: u32 = 64;

/// One exchanger operation's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// An offer a taker consumed.
    Exchanged,
    /// An offer that got its item back.
    Kept(u32),
    /// A take that got an item.
    Took(u32),
    /// A take that found nothing in all its scans.
    Missed,
}

type ExchangeOp = fn(&Exchanger<u32>) -> Outcome;

fn offer(ex: &Exchanger<u32>, v: u32) -> Outcome {
    match ex.offer(v, POLLS) {
        Ok(()) => Outcome::Exchanged,
        Err(back) => {
            assert_eq!(back, v, "a declined offer must get its own item back");
            Outcome::Kept(back)
        }
    }
}

fn offer7(ex: &Exchanger<u32>) -> Outcome {
    offer(ex, 7)
}

fn offer9(ex: &Exchanger<u32>) -> Outcome {
    offer(ex, 9)
}

/// A take that rescans a while before giving up.
fn take(ex: &Exchanger<u32>) -> Outcome {
    (0..64)
        .find_map(|_| ex.take())
        .map_or(Outcome::Missed, Outcome::Took)
}

/// Runs `ops` on one gated thread each against a one-slot exchanger
/// for [`ROUNDS`] rounds and checks, per round: the slot recycles,
/// completed offers and takes pair one-to-one, and no value is taken
/// twice.
fn exchange_case(ops: &[ExchangeOp], mut per_round: impl FnMut(&[Outcome])) {
    for _ in 0..ROUNDS {
        let ex = Exchanger::new(1);
        let gate = Gate::new(ops.len());
        let outcomes: Vec<Outcome> = thread::scope(|s| {
            let threads: Vec<_> = ops
                .iter()
                .map(|&op| {
                    let (ex, gate) = (&ex, &gate);
                    s.spawn(move || {
                        gate.wait();
                        op(ex)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(ex.is_idle(), "slot stranded: {outcomes:?}");
        let exchanged = outcomes
            .iter()
            .filter(|o| **o == Outcome::Exchanged)
            .count();
        let mut taken: Vec<u32> = outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Took(v) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(
            exchanged,
            taken.len(),
            "offers and takes must pair: {outcomes:?}"
        );
        taken.sort_unstable();
        taken.dedup();
        assert_eq!(
            taken.len(),
            exchanged,
            "a value was taken twice: {outcomes:?}"
        );
        per_round(&outcomes);
    }
}

#[test]
fn exchange_offer_take_race() {
    exchange_case(&[offer7, take], |_| {});
}

/// Two offers and no taker: nobody exchanges, both keep their items.
#[test]
fn exchange_two_offeror_claim_race() {
    exchange_case(&[offer7, offer9], |out| {
        assert_eq!(out, [Outcome::Kept(7), Outcome::Kept(9)]);
    });
}

/// Two takers, one offer: the parked item is taken at most once.
#[test]
fn exchange_two_takers_take_at_most_once() {
    exchange_case(&[offer7, take, take], |_| {});
}

/// Two offerors and a taker: whatever pairs, pairs exactly once.
#[test]
fn exchange_three_processes() {
    exchange_case(&[offer7, offer9, take], |_| {});
}

/// The stack's elimination rung over the exchanger: an eliminated
/// push/pop pair hands the value over, is counted once, and never
/// touches `TOP`.
#[test]
fn stack_elimination_counts_each_pair_once() {
    for _ in 0..ROUNDS {
        let stack = Arc::new(AbortableStack::<u32>::new(4));
        let gate = Gate::new(2);
        let (pushed, popped) = thread::scope(|s| {
            let popper = s.spawn(|| {
                gate.wait();
                stack.try_eliminate(&StackOp::Pop, POLLS)
            });
            gate.wait();
            let pushed = stack.try_eliminate(&StackOp::Push(5), POLLS);
            (pushed, popper.join().unwrap())
        });
        match (pushed, popped) {
            (Some(_), Some(StackResponse::Pop(PopOutcome::Popped(5)))) => {
                assert_eq!(stack.eliminated_pairs(), 1);
            }
            (None, None) => assert_eq!(stack.eliminated_pairs(), 0),
            other => panic!("half an elimination: {other:?}"),
        }
        assert!(stack.is_empty(), "elimination never touches TOP");
    }
}
