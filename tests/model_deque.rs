//! Model checking of the production linear-HLM deque:
//! `AbortableDeque` (the single-attempt formulation) and `CsDeque`
//! (Figure 3 over it).
//!
//! Requires `--features model`:
//!
//! ```text
//! cargo test --features model --test model_deque
//! ```
//!
//! Each schedule's history — prefill, scripted attempts, a drain, and
//! a probe that pushes each side until `Full` — must linearize against
//! `cso_lincheck::specs::deque::DequeSpec`, with aborted attempts
//! dropped. The probe pins the final per-side null accounting, so a
//! ⊥ that moved a boundary, or a boundary CAS applied twice, shows up
//! even when the values come back right. The arena's `LN⁺ DATA* RN⁺`
//! shape itself is checked inside `cso-deque` (its model unit tests).

mod model_support;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cso::deque::{AbortableDeque, CsDeque};
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::deque::{DequeSpec, SpecDequeOp, SpecDequeResp, SpecEnd};
use cso::sched::{Explorer, Report};
use model_support::{
    cs_deque, drain_and_probe, linearized, responses, run_op, run_scripts, weak_deque, OpCost,
};

const L: SpecEnd = SpecEnd::Left;
const R: SpecEnd = SpecEnd::Right;

fn push(end: SpecEnd, v: u32) -> SpecDequeOp {
    SpecDequeOp::Push(end, v)
}

fn pop(end: SpecEnd) -> SpecDequeOp {
    SpecDequeOp::Pop(end)
}

fn assert_exhausted(report: &Report) {
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert_eq!(report.pruned, 0, "{report}");
}

/// One weak-deque scenario; the prefill goes in at the right end.
fn weak_deque_run(
    capacity: usize,
    prefill_right: &[u32],
    scripts: &[Vec<SpecDequeOp>],
) -> (Vec<OpCost>, Vec<SpecDequeResp>) {
    let deque = Arc::new(AbortableDeque::<u32>::new(capacity));
    let rec = Recorder::new();
    let prefill: Vec<_> = prefill_right.iter().map(|&v| push(R, v)).collect();
    let costs = run_scripts(&deque, &rec, &prefill, scripts, weak_deque);
    let scripted = responses(&rec.finish());
    drain_and_probe(&*deque, &rec, weak_deque);
    linearized(&DequeSpec::new(capacity), &rec);
    (costs, scripted)
}

fn aborted(costs: &[OpCost]) -> bool {
    costs.iter().any(|c| c.aborted)
}

#[test]
fn racing_right_pushes() {
    let aborted_seen = AtomicBool::new(false);
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            let (costs, _) = weak_deque_run(2, &[], &[vec![push(R, 1)], vec![push(R, 2)]]);
            aborted_seen.fetch_or(aborted(&costs), Ordering::Relaxed);
        });
    assert_exhausted(&report);
    assert!(
        report.schedules > 100,
        "non-trivial schedule space: {report}"
    );
    assert!(
        aborted_seen.into_inner(),
        "same-end pushes must conflict in some schedule"
    );
}

/// The deque's signature weakness: *opposite-end* pushes can also
/// conflict when the boundaries are adjacent (near-empty arena) —
/// unlike the queue's provably non-interfering ends.
#[test]
fn opposite_end_pushes_on_small_arena() {
    let aborted_seen = AtomicBool::new(false);
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            let (costs, _) = weak_deque_run(2, &[], &[vec![push(L, 1)], vec![push(R, 2)]]);
            aborted_seen.fetch_or(aborted(&costs), Ordering::Relaxed);
        });
    assert_exhausted(&report);
    assert!(
        aborted_seen.into_inner(),
        "adjacent boundaries make even opposite ends interfere — \
         the obstruction-freedom story"
    );
}

#[test]
fn push_racing_pop_same_end() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            weak_deque_run(2, &[9], &[vec![push(R, 1)], vec![pop(R)]]);
        });
    assert_exhausted(&report);
}

#[test]
fn racing_pops_from_both_ends() {
    let both_popped = AtomicBool::new(false);
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            let (costs, resps) = weak_deque_run(4, &[5, 6], &[vec![pop(L)], vec![pop(R)]]);
            let popped = resps
                .iter()
                .filter(|r| matches!(r, SpecDequeResp::Popped(_)))
                .count();
            if !aborted(&costs) && popped == 2 {
                both_popped.store(true, Ordering::Relaxed);
            }
        });
    assert_exhausted(&report);
    assert!(
        both_popped.into_inner(),
        "some schedule lets both pops succeed"
    );
}

/// One element, both ends pop: at most one wins; `Empty` and ⊥ sort
/// themselves out linearizably in every schedule.
#[test]
fn pop_race_on_single_element() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            let (_, resps) = weak_deque_run(2, &[7], &[vec![pop(L)], vec![pop(R)]]);
            let wins = resps
                .iter()
                .filter(|r| **r == SpecDequeResp::Popped(7))
                .count();
            assert!(wins <= 1, "the single element was popped twice");
        });
    assert_exhausted(&report);
}

/// The right side down to its sentinel: a racing right push and right
/// pop produce linearizable `Full`/`Popped` combinations.
#[test]
fn full_boundary_race() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(None)
        .explore(|| {
            weak_deque_run(2, &[1], &[vec![push(R, 2)], vec![pop(R)]]);
        });
    assert_exhausted(&report);
}

#[test]
fn two_ops_per_process_bounded_and_random() {
    let body = || {
        weak_deque_run(
            2,
            &[],
            &[vec![push(L, 1), pop(R)], vec![push(R, 2), pop(L)]],
        );
    };
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(body);
    assert_exhausted(&report);
    let sweep = Explorer::random(0xD2, 1_000).explore(body);
    sweep.assert_ok();
    assert_eq!(sweep.pruned, 0, "{sweep}");
}

/// Figure 3 over the deque: random schedules confirm every strong
/// operation terminates (the obstruction-free → starvation-free leap)
/// and linearizes.
#[test]
fn fig3_over_deque_random_schedules() {
    let report = Explorer::random(0xD0, 600).explore(|| {
        let deque = Arc::new(CsDeque::<u32>::new(2, 3));
        let rec = Recorder::new();
        let scripts = [
            vec![push(L, 1), pop(R)],
            vec![push(R, 2)],
            vec![pop(L), push(R, 3)],
        ];
        run_scripts(&deque, &rec, &[], &scripts, cs_deque);
        drain_and_probe(&*deque, &rec, cs_deque);
        linearized(&DequeSpec::new(2), &rec);
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0, "no schedule exceeded the step budget");
}

/// Solo attempts never abort: one schedule each.
#[test]
fn solo_attempts_never_abort() {
    for op in [push(L, 1), push(R, 2), pop(L), pop(R)] {
        let report = Explorer::exhaustive().explore(|| {
            let deque = AbortableDeque::<u32>::new(3);
            let rec = Recorder::new();
            assert!(!run_op(&deque, &rec, 0, push(R, 4), weak_deque).aborted);
            assert!(
                !run_op(&deque, &rec, 0, op, weak_deque).aborted,
                "solo {op:?} aborted"
            );
            drain_and_probe(&deque, &rec, weak_deque);
            linearized(&DequeSpec::new(3), &rec);
        });
        assert_exhausted(&report);
        assert_eq!(report.schedules, 1);
    }
}
