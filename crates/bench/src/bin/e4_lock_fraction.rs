//! E4 — how often does the contention-sensitive stack actually lock?
//!
//! Sweeps threads × think time and reports the fraction of operations
//! that fell back to the lock path (lines 04–13 of Figure 3). The
//! contention-sensitivity claim is that this fraction tracks *actual*
//! interference: zero when solo, shrinking as think time grows.

use cso_bench::adapters::{drive_stack, prefill_stack, CsAdapter};
use cso_bench::jsonreport::BenchReport;
use cso_bench::report::{fmt_pct, fmt_rate, Table};
use cso_bench::workload::OpMix;
use cso_bench::{cell_duration, thread_counts};
use cso_stack::CsStack;

fn main() {
    println!("E4: fraction of cs-stack operations taking the lock path");
    println!(
        "(50/50 mix, prefilled half, {} ms per cell)\n",
        cell_duration().as_millis()
    );

    let think_list = [0u32, 64, 512, 4096];
    let mut headers: Vec<String> = vec!["threads".into()];
    headers.extend(think_list.iter().map(|t| format!("think={t}")));
    headers.push("ops/s (think=0)".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for threads in thread_counts() {
        let mut cells = vec![threads.to_string()];
        let mut rate_at_zero = String::new();
        for &think in &think_list {
            let adapter = CsAdapter(CsStack::new(8192, threads.max(1)));
            prefill_stack(&adapter, 4096);
            adapter.0.reset_path_stats();
            let result = drive_stack(&adapter, threads, cell_duration(), OpMix::BALANCED, think);
            let fraction = adapter.0.path_stats().locked_fraction();
            if threads == 1 {
                assert_eq!(fraction, 0.0, "a solo thread must never take the lock");
            }
            cells.push(fmt_pct(fraction));
            if think == 0 {
                rate_at_zero = fmt_rate(result.ops_per_sec());
            }
        }
        cells.push(rate_at_zero);
        table.row(cells);
    }

    table.print();
    println!("\nRow `threads = 1` is Theorem 1's lock-free fast path (must be 0.00%).");
    println!("Longer think time = less interference = smaller lock fraction.");
    println!("NOTE: on few-core hosts wall-clock interleaving is quantum-grained, so");
    println!("the measured fractions under-state contention; `e2e4_interleaved`");
    println!("(needs the `model` feature) interleaves per shared access.");

    BenchReport::new("e4_lock_fraction")
        .config("bench_ms", cell_duration().as_millis() as u64)
        .config("mix", "50/50")
        .table("wall_clock", &table)
        .write();

    cso_bench::tracing::emit("e4_lock_fraction");
}
