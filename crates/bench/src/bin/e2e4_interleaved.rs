//! E2/E4 per-access interleaving: the hardware-independent curves.
//!
//! On few-core hosts wall-clock threads interleave only at scheduler
//! quanta, so `e2_abort_rate` and `e4_lock_fraction` under-state
//! contention. This binary runs the *production* structures under the
//! model runtime's seeded-random scheduler instead: every counted
//! access (and every protocol-word access) is a scheduling decision,
//! so operations interleave at the granularity the paper's analysis
//! assumes.
//!
//! * **E2** — `AbortableStack` (Figure 1), `procs` threads each running
//!   push, pop, push, pop as single weak attempts: the fraction that
//!   returned ⊥. The one-process row must be exactly zero.
//! * **E4** — `CsStack` (Figure 3), `procs` threads each running a
//!   strong push and pop: an operation that cost exactly six counted
//!   accesses took the fast path; more means it retried or locked. The
//!   one-process row must never leave the fast path.
//!
//! Needs the model runtime, so it never shares a build with the
//! wall-clock cells:
//!
//! ```text
//! cargo run --release -p cso-bench --features model --bin e2e4_interleaved
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cso_bench::jsonreport::BenchReport;
use cso_bench::report::{fmt_pct, Table};
use cso_memory::counting::CountScope;
use cso_sched::{spawn, Explorer};
use cso_stack::{AbortableStack, CsStack};

/// Random schedules per cell.
const SCHEDULES: usize = 400;
/// Theorem 1's fast-path cost.
const FAST_PATH_ACCESSES: u64 = 6;

/// Runs `script(p)` on model thread `p` for every `p < procs` (thread
/// 0 is the body) and joins.
fn run_procs(procs: usize, script: impl Fn(usize) + Send + Sync + Clone + 'static) {
    let children: Vec<_> = (1..procs)
        .map(|p| {
            let script = script.clone();
            spawn(move || script(p))
        })
        .collect();
    script(0);
    for child in children {
        child.join();
    }
}

fn e2_abort_rate() -> Table {
    let mut table = Table::new(&["procs", "ops", "aborted", "abort rate"]);
    for procs in 1..=6usize {
        let aborted = Arc::new(AtomicU64::new(0));
        let report = Explorer::random(0xE2, SCHEDULES).explore(|| {
            let stack = Arc::new(AbortableStack::<u32>::new(64));
            for v in 1..=4 {
                stack.weak_push(v).expect("solo prefill");
            }
            let aborted = Arc::clone(&aborted);
            run_procs(procs, move |p| {
                let results = [
                    stack.weak_push(p as u32).is_err(),
                    stack.weak_pop().is_err(),
                    stack.weak_push(100 + p as u32).is_err(),
                    stack.weak_pop().is_err(),
                ];
                let failed = results.iter().filter(|&&a| a).count() as u64;
                aborted.fetch_add(failed, Ordering::Relaxed);
            });
        });
        report.assert_ok();
        let ops = (4 * procs * SCHEDULES) as u64;
        let aborted = aborted.load(Ordering::Relaxed);
        if procs == 1 {
            assert_eq!(aborted, 0, "solo weak operations must never abort");
        }
        table.row(vec![
            procs.to_string(),
            ops.to_string(),
            aborted.to_string(),
            fmt_pct(aborted as f64 / ops as f64),
        ]);
    }
    table
}

fn e4_lock_fraction() -> Table {
    let mut table = Table::new(&["procs", "ops", "fast (6 acc)", "slow", "slow fraction"]);
    for procs in 1..=4usize {
        let slow = Arc::new(AtomicU64::new(0));
        let report = Explorer::random(0xE4, SCHEDULES).explore(|| {
            let stack = Arc::new(CsStack::<u32>::new(64, procs));
            stack.push(0, 1);
            stack.push(0, 2);
            let slow = Arc::clone(&slow);
            run_procs(procs, move |p| {
                for push in [true, false] {
                    let scope = CountScope::start();
                    if push {
                        stack.push(p, p as u32);
                    } else {
                        stack.pop(p);
                    }
                    if scope.take().total() != FAST_PATH_ACCESSES {
                        slow.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        });
        report.assert_ok();
        let ops = (2 * procs * SCHEDULES) as u64;
        let slow = slow.load(Ordering::Relaxed);
        if procs == 1 {
            assert_eq!(slow, 0, "a solo process never leaves the fast path");
        }
        table.row(vec![
            procs.to_string(),
            ops.to_string(),
            (ops - slow).to_string(),
            slow.to_string(),
            fmt_pct(slow as f64 / ops as f64),
        ]);
    }
    table
}

fn main() {
    println!("E2: abort rate under per-access random interleaving (model runtime)");
    println!("(AbortableStack, weak push/pop/push/pop per process, {SCHEDULES} random schedules per cell)\n");
    let e2 = e2_abort_rate();
    e2.print();
    println!("\nExpected shape: 0% solo, growing with the number of interleaved");
    println!("processes — ⊥ is the price of contention, and only of contention.\n");

    println!("E4: slow-path fraction under per-access random interleaving (model runtime)");
    println!("(CsStack, strong push + pop per process, {SCHEDULES} random schedules per cell)\n");
    let e4 = e4_lock_fraction();
    e4.print();
    println!("\nAn operation that cost exactly six counted accesses took the fast path;");
    println!("the lock engages exactly as often as operations actually interfere.");

    BenchReport::new("e2e4_interleaved")
        .config("model_schedules", SCHEDULES as u64)
        .config("seeds", "0xE2 / 0xE4")
        .table("e2_abort_rate", &e2)
        .table("e4_lock_fraction", &e4)
        .write();
}
