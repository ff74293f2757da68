//! Model checking of the production elimination exchanger,
//! `cso_memory::exchange::Exchanger`.
//!
//! Requires `--features model`:
//!
//! ```text
//! cargo test --features model --test model_exchange
//! ```
//!
//! Each slot cycles `EMPTY → CLAIMED → WAITING → BUSY → EMPTY` (or
//! `WAITING → RETRACT → EMPTY` when the offer times out), with a tag
//! bumped on every recycle. The decisive race is at `WAITING`: the
//! offeror's retract CAS against the taker's `BUSY` CAS — exactly one
//! may win, and the parked item must go to the winner. The slot words
//! are protocol words, so every access to them is a yield point and
//! the explorer interleaves that race. Per schedule:
//!
//! * **slots recycle** — the exchanger is idle once every operation
//!   returned;
//! * **exactly-once exchange** — completed offers and completed takes
//!   pair up one-to-one, and each take returns a distinct offered
//!   value;
//! * **no item leak** — a declined or timed-out offer gets its own
//!   value back.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cso::core::Abortable;
use cso::memory::exchange::Exchanger;
use cso::sched::{spawn, Explorer, Report};
use cso::stack::{AbortableStack, PopOutcome, StackOp, StackResponse};

/// Offer polls: enough for a taker to arrive in some schedules and
/// miss the window in others.
const POLLS: u32 = 3;

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

fn offer(ex: &Exchanger<u32>, v: u32) -> Outcome {
    match ex.offer(v, POLLS) {
        Ok(()) => Outcome::Exchanged,
        Err(back) => {
            assert_eq!(back, v, "a declined offer must get its own item back");
            Outcome::Kept(back)
        }
    }
}

/// A take that rescans up to `scans` times.
fn take(ex: &Exchanger<u32>, scans: usize) -> Outcome {
    (0..scans)
        .find_map(|_| ex.take())
        .map_or(Outcome::Missed, Outcome::Took)
}

/// Runs `ops` on one model thread each (the first on the body thread)
/// against a one-slot exchanger and checks the invariants.
fn exchange_run(ops: &[fn(&Exchanger<u32>) -> Outcome]) -> Vec<Outcome> {
    let ex = Arc::new(Exchanger::new(1));
    let children: Vec<_> = ops[1..]
        .iter()
        .map(|&op| {
            let ex = Arc::clone(&ex);
            spawn(move || op(&ex))
        })
        .collect();
    let mut outcomes = vec![ops[0](&ex)];
    outcomes.extend(children.into_iter().map(|c| c.join()));

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
    outcomes
}

fn offer7(ex: &Exchanger<u32>) -> Outcome {
    offer(ex, 7)
}

fn offer9(ex: &Exchanger<u32>) -> Outcome {
    offer(ex, 9)
}

fn take3(ex: &Exchanger<u32>) -> Outcome {
    take(ex, 3)
}

fn take1(ex: &Exchanger<u32>) -> Outcome {
    take(ex, 1)
}

fn assert_exhausted(report: &Report) {
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert_eq!(report.pruned, 0, "{report}");
}

/// A retract that races nobody: the poll budget runs dry, the retract
/// CAS wins, the item comes back, the slot recycles.
#[test]
fn solo_offer_retracts_and_recycles() {
    let report = Explorer::exhaustive().explore(|| {
        assert_eq!(exchange_run(&[offer7]), [Outcome::Kept(7)]);
    });
    assert_exhausted(&report);
    assert_eq!(report.schedules, 1);
}

/// One offer against one take, exhaustively up to four preemptions
/// (the offeror's poll loop makes the unbounded space explode):
/// rendezvous, missed windows, and the retract-vs-BUSY race all keep
/// the invariants, and both outcomes occur.
#[test]
fn exhaustive_offer_take_race() {
    let exchanged = AtomicUsize::new(0);
    let missed = AtomicUsize::new(0);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(4))
        .explore(|| {
            let out = exchange_run(&[offer7, take3]);
            let counter = if out[0] == Outcome::Exchanged {
                &exchanged
            } else {
                &missed
            };
            counter.fetch_add(1, Ordering::Relaxed);
        });
    assert_exhausted(&report);
    assert!(report.schedules > 100, "{report}");
    assert!(
        exchanged.into_inner() > 0,
        "no schedule ever paired the couple"
    );
    assert!(
        missed.into_inner() > 0,
        "no schedule ever missed the window"
    );
}

/// Every interleaving (no preemption bound) of two offers racing for
/// the one slot with no taker: nobody exchanges, both keep their items.
#[test]
fn exhaustive_two_offeror_claim_race() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            let out = exchange_run(&[offer7, offer9]);
            assert_eq!(out, [Outcome::Kept(7), Outcome::Kept(9)]);
        });
    assert_exhausted(&report);
    assert!(report.schedules > 20, "{report}");
}

/// Two takers, one offer: the parked item is taken at most once.
#[test]
fn exhaustive_two_takers_take_at_most_once() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| {
            exchange_run(&[offer7, take1, take1]);
        });
    assert_exhausted(&report);
}

/// Two offerors and a taker under random schedules: whatever pairs,
/// pairs exactly once; the other offeror keeps its item.
#[test]
fn random_three_process_exchange() {
    let exchanged = AtomicUsize::new(0);
    let report = Explorer::random(0xE11A, 4_000).explore(|| {
        let out = exchange_run(&[offer7, offer9, take3]);
        if out.contains(&Outcome::Exchanged) {
            exchanged.fetch_add(1, Ordering::Relaxed);
        }
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0, "{report}");
    assert!(
        exchanged.into_inner() > 0,
        "no random schedule ever exchanged"
    );
}

/// The stack's elimination rung over the exchanger: an eliminated
/// push/pop pair hands the value over and is counted once, by the
/// taking pop.
#[test]
fn stack_elimination_counts_each_pair_once() {
    let eliminated = AtomicUsize::new(0);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(4))
        .explore(|| {
            let stack = Arc::new(AbortableStack::<u32>::new(4));
            let popper = {
                let stack = Arc::clone(&stack);
                spawn(move || stack.try_eliminate(&StackOp::Pop, POLLS))
            };
            let pushed = stack.try_eliminate(&StackOp::Push(5), POLLS);
            let popped = popper.join();
            match (pushed, popped) {
                (Some(_), Some(StackResponse::Pop(PopOutcome::Popped(5)))) => {
                    assert_eq!(stack.eliminated_pairs(), 1);
                    eliminated.fetch_add(1, Ordering::Relaxed);
                }
                (None, None) => assert_eq!(stack.eliminated_pairs(), 0),
                other => panic!("half an elimination: {other:?}"),
            }
            assert!(stack.is_empty(), "elimination never touches TOP");
        });
    assert_exhausted(&report);
    assert!(eliminated.into_inner() > 0, "no schedule eliminated");
}
