//! Driving the model checker by hand, on the production structures.
//!
//! Explores every interleaving (up to two preemptions) of three
//! processes racing weak operations on the real Figure 1 stack, prints
//! the schedule-space statistics, and checks each execution's history;
//! then samples the real Figure 3 stack (with its CONTENTION register,
//! FLAG/TURN booster and TAS lock) under random schedules, where
//! every operation must finish inside the step budget — the bounded
//! shadow of Lemmas 2–3.
//!
//! Needs the model runtime:
//!
//! ```text
//! cargo run --release --features model --example model_check
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::stack::{SpecStackOp, SpecStackResp, StackSpec};
use cso::memory::counting::CountScope;
use cso::sched::{spawn, Explorer};
use cso::stack::{AbortableStack, CsStack, PopOutcome, PushOutcome};

type StackRecorder = Recorder<SpecStackOp, SpecStackResp>;

fn push_resp(o: PushOutcome) -> SpecStackResp {
    match o {
        PushOutcome::Pushed => SpecStackResp::Pushed,
        PushOutcome::Full => SpecStackResp::Full,
    }
}

fn pop_resp(o: PopOutcome<u32>) -> SpecStackResp {
    match o {
        PopOutcome::Popped(v) => SpecStackResp::Popped(v),
        PopOutcome::Empty => SpecStackResp::Empty,
    }
}

/// One weak attempt, recorded; returns whether it aborted (⊥).
fn weak(stack: &AbortableStack<u32>, rec: &StackRecorder, proc: usize, op: SpecStackOp) -> bool {
    let handle = rec.begin(proc, op);
    let out = match op {
        SpecStackOp::Push(v) => stack.weak_push(v).map(push_resp),
        SpecStackOp::Pop => stack.weak_pop().map(pop_resp),
    };
    match out {
        Ok(resp) => {
            handle.finish(resp);
            false
        }
        Err(_) => {
            handle.abort();
            true
        }
    }
}

/// One strong operation, recorded; returns its counted accesses.
fn strong(stack: &CsStack<u32>, rec: &StackRecorder, proc: usize, op: SpecStackOp) -> u64 {
    let handle = rec.begin(proc, op);
    let scope = CountScope::start();
    let resp = match op {
        SpecStackOp::Push(v) => push_resp(stack.push(proc, v)),
        SpecStackOp::Pop => pop_resp(stack.pop(proc)),
    };
    let accesses = scope.take().total();
    handle.finish(resp);
    accesses
}

fn main() {
    // ------------------------------------------------------------
    // Part 1: exhaustive DFS over the Figure 1 stack.
    // ------------------------------------------------------------
    let histogram: Mutex<BTreeMap<usize, usize>> = Mutex::new(BTreeMap::new());
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(2))
        .explore(|| {
            let stack = Arc::new(AbortableStack::<u32>::new(4));
            let rec = StackRecorder::new();
            weak(&stack, &rec, 0, SpecStackOp::Push(7));
            let scripts = [SpecStackOp::Push(2), SpecStackOp::Pop];
            let children: Vec<_> = scripts
                .into_iter()
                .enumerate()
                .map(|(i, op)| {
                    let stack = Arc::clone(&stack);
                    let rec = rec.clone();
                    spawn(move || usize::from(weak(&stack, &rec, i + 1, op)))
                })
                .collect();
            let mut aborted = usize::from(weak(&stack, &rec, 0, SpecStackOp::Push(1)));
            aborted += children.into_iter().map(|c| c.join()).sum::<usize>();
            // Drain solo: the residue must be what the history explains.
            while !matches!(stack.weak_pop(), Ok(PopOutcome::Empty)) {}
            assert!(check_linearizable(&StackSpec::new(4), &rec.finish()).is_linearizable());
            *histogram.lock().unwrap().entry(aborted).or_insert(0) += 1;
        });
    report.assert_ok();
    println!("Figure 1, 3 processes (push, push, pop on [7]), up to 2 preemptions:");
    println!("  {report}");
    for (aborts, count) in histogram.into_inner().unwrap() {
        println!("  {count:>7} schedules with {aborts} aborted (⊥) operation(s)");
    }
    println!("  every schedule: linearizable, aborts effect-free");

    // ------------------------------------------------------------
    // Part 2: Figure 3 under random schedules (its wait loops make
    // the full tree infinite).
    // ------------------------------------------------------------
    let fast = AtomicU64::new(0);
    let slow = AtomicU64::new(0);
    let worst = AtomicU64::new(0);
    let samples = 2_000;
    let report = Explorer::random(42, samples).explore(|| {
        let stack = Arc::new(CsStack::<u32>::new(8, 3));
        let rec = StackRecorder::new();
        let scripts = [
            vec![SpecStackOp::Push(20)],
            vec![SpecStackOp::Pop, SpecStackOp::Push(30)],
        ];
        let children: Vec<_> = scripts
            .into_iter()
            .enumerate()
            .map(|(i, script)| {
                let stack = Arc::clone(&stack);
                let rec = rec.clone();
                spawn(move || {
                    script
                        .into_iter()
                        .map(|op| strong(&stack, &rec, i + 1, op))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut costs: Vec<u64> = [SpecStackOp::Push(10), SpecStackOp::Pop]
            .into_iter()
            .map(|op| strong(&stack, &rec, 0, op))
            .collect();
        for child in children {
            costs.extend(child.join());
        }
        assert!(check_linearizable(&StackSpec::new(8), &rec.finish()).is_linearizable());
        for cost in costs {
            let counter = if cost == 6 { &fast } else { &slow };
            counter.fetch_add(1, Ordering::Relaxed);
            worst.fetch_max(cost, Ordering::Relaxed);
        }
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0, "no operation may starve");
    println!("\nFigure 3, 3 processes, {samples} random schedules:");
    println!("  {report}");
    println!(
        "  {} ops on the 6-access fast path, {} via a retry or the lock",
        fast.into_inner(),
        slow.into_inner()
    );
    println!(
        "  worst per-op counted accesses: {} (every op finished inside the step budget)",
        worst.into_inner()
    );
    println!("model check OK");
}
