//! E2 — abortability: ⊥ appears only under contention and grows with
//! it.
//!
//! Drives the bare abortable stack (Figure 1) with 1..N threads and
//! reports the fraction of weak operations that returned ⊥. The
//! one-thread row is the paper's solo-success guarantee: its abort
//! rate must be exactly zero.

use std::sync::atomic::Ordering;

use cso_bench::jsonreport::BenchReport;
use cso_bench::measure::timed_run;
use cso_bench::report::{fmt_pct, fmt_rate, Table};
use cso_bench::workload::{thread_rng, OpMix};
use cso_bench::{cell_duration, thread_counts};
use cso_stack::AbortableStack;

fn main() {
    println!("E2: weak-operation abort rate vs offered contention");
    println!(
        "(abortable stack, 50/50 push/pop, {} ms per cell)\n",
        cell_duration().as_millis()
    );

    let mut table = Table::new(&[
        "threads",
        "attempts/s",
        "push aborts",
        "pop aborts",
        "abort rate",
    ]);

    for threads in thread_counts() {
        let stack: AbortableStack<u32> = AbortableStack::new(8192);
        for v in 0..64 {
            stack.weak_push(v).expect("prefill");
        }
        stack.reset_abort_stats();

        let result = timed_run(threads, cell_duration(), |thread, stop| {
            let mut rng = thread_rng(thread, 2);
            let mut ops = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if OpMix::BALANCED.next_is_push(&mut rng) {
                    let _ = stack.weak_push(thread as u32);
                } else {
                    let _ = stack.weak_pop();
                }
                ops += 1;
            }
            ops
        });

        let stats = stack.abort_stats();
        if threads == 1 {
            assert_eq!(
                stats.abort_rate(),
                0.0,
                "solo weak operations must never abort"
            );
        }
        table.row(vec![
            threads.to_string(),
            fmt_rate(result.ops_per_sec()),
            stats.push_aborts.to_string(),
            stats.pop_aborts.to_string(),
            fmt_pct(stats.abort_rate()),
        ]);
    }

    table.print();
    println!("\nRow `threads = 1` is the paper's solo-success guarantee (rate must be 0).");
    println!("NOTE: on few-core hosts threads interleave only at scheduler quanta, so");
    println!("wall-clock contention windows are rare; `e2e4_interleaved` (needs the");
    println!("`model` feature) interleaves per access.");

    BenchReport::new("e2_abort_rate")
        .config("bench_ms", cell_duration().as_millis() as u64)
        .config("mix", "50/50")
        .table("wall_clock", &table)
        .write();

    cso_bench::tracing::emit("e2_abort_rate");
}
