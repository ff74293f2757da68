//! The exported metrics are the objects' own statistics: attaching a
//! registry registers the counters the stats views read, so every
//! exported `_total` equals its stats field exactly and counts events
//! since construction — including the ones before the attach.

use cso::core::CsConfig;
use cso::locks::TasLock;
use cso::metrics::{Registry, Snapshot};
use cso::queue::CsQueue;
use cso::stack::CsStack;

const THREADS: usize = 2;
const OPS: u32 = 2_000;

/// Runs `OPS` operations on each of `THREADS` threads, process `proc`
/// on thread `proc`; `op(proc, i)` issues one operation.
fn run(op: impl Fn(usize, u32) + Sync) {
    std::thread::scope(|s| {
        for proc in 0..THREADS {
            let op = &op;
            s.spawn(move || {
                for i in 0..OPS {
                    op(proc, i);
                }
            });
        }
    });
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("counter {name} not exported"))
        .1
}

fn gauge(snap: &Snapshot, name: &str) -> f64 {
    snap.gauges
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("gauge {name} not exported"))
        .1
}

/// The stats views an object offers, read after the workers joined.
struct Views {
    paths: cso::core::PathStats,
    faults: cso::core::FaultStats,
    combining: cso::core::CombiningStats,
}

/// Every exported counter with a stats field equals it exactly, and
/// the registry's own lookup returns the same counter.
fn assert_export_matches(registry: &Registry, p: &str, v: &Views, ops: u64) {
    let snap = registry.snapshot();
    let c = |name: &str| counter(&snap, &format!("{p}_{name}"));
    assert_eq!(c("ops_fast_total"), v.paths.fast, "{p}: fast");
    assert_eq!(
        c("ops_eliminated_total"),
        v.paths.eliminated,
        "{p}: eliminated"
    );
    assert_eq!(
        c("ops_locked_total") + c("ops_combined_total"),
        v.paths.locked,
        "{p}: locked (own tenure + combined hand-offs)"
    );
    assert_eq!(c("slow_poisoned_total"), v.faults.poisoned, "{p}: poisoned");
    assert_eq!(c("timeouts_total"), v.faults.timeouts, "{p}: timeouts");
    assert_eq!(
        c("record_poisoned_total"),
        v.faults.record_poisoned,
        "{p}: record_poisoned"
    );
    assert_eq!(
        c("combine_batches_total"),
        v.combining.batches,
        "{p}: batches"
    );
    assert_eq!(
        c("combine_served_total"),
        v.combining.combined,
        "{p}: served"
    );
    assert_eq!(
        gauge(&snap, &format!("{p}_combine_max_batch")),
        v.combining.max_batch as f64,
        "{p}: max_batch"
    );
    assert_eq!(
        registry.counter(&format!("{p}_ops_fast_total")).value(),
        v.paths.fast,
        "{p}: Registry::counter returns the object's counter"
    );
    // Counted since construction: the ops before the attach are in.
    assert_eq!(v.paths.total(), ops, "{p}: every issued op completed once");
    assert_eq!(
        c("ops_fast_total")
            + c("ops_eliminated_total")
            + c("ops_locked_total")
            + c("ops_combined_total"),
        ops,
        "{p}: the exported path mix covers every op since construction"
    );
}

#[test]
fn exported_totals_equal_the_stats_views_from_construction() {
    let issued = 2 * (THREADS as u64) * u64::from(OPS);
    for (label, config) in [
        ("paper", CsConfig::PAPER),
        ("combining", CsConfig::COMBINING),
    ] {
        let registry = Registry::new();

        let stack: CsStack<u32> = CsStack::with_config(64, TasLock::new(), THREADS, config);
        let stack_op = |proc: usize, i: u32| {
            if (proc as u32 + i) % 2 == 0 {
                stack.push(proc, i);
            } else {
                stack.pop(proc);
            }
        };
        run(stack_op);
        stack.attach_metrics(&registry, &format!("{label}_stack"));
        run(stack_op);
        let views = Views {
            paths: stack.path_stats(),
            faults: stack.fault_stats(),
            combining: stack.combining_stats(),
        };
        assert_export_matches(&registry, &format!("{label}_stack"), &views, issued);
        if config == CsConfig::PAPER {
            // Every locked completion went through the boosted lock.
            assert_eq!(
                registry
                    .counter(&format!("{label}_stack_lock_acquires_total"))
                    .value(),
                views.paths.locked,
                "lock acquisitions since construction"
            );
        }

        let queue: CsQueue<u32> = CsQueue::with_config(64, TasLock::new(), THREADS, config);
        let queue_op = |proc: usize, i: u32| {
            if (proc as u32 + i) % 2 == 0 {
                queue.enqueue(proc, i);
            } else {
                queue.dequeue(proc);
            }
        };
        run(queue_op);
        queue.attach_metrics(&registry, &format!("{label}_queue"));
        run(queue_op);
        let views = Views {
            paths: queue.path_stats(),
            faults: queue.fault_stats(),
            combining: queue.combining_stats(),
        };
        assert_export_matches(&registry, &format!("{label}_queue"), &views, issued);
    }
}
