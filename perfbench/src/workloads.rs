//! The three workloads, their end-to-end metrics, and the traced
//! per-layer ledger.
//!
//! Why these three: `stack-solo` is Theorem 1's contention-free path
//! (weak op plus the Fig. 3 fast path; lock, router and cross-core
//! traffic bypassed); `stack-contended` is the same object with two
//! workers on distinct CPUs, so aborts, `CONTENTION`, `FLAG`/`TURN`
//! and the lock run; `queue-pipeline` is the paper's non-interfering
//! pair (one producer, one consumer) with live metrics attached and
//! scraped, concurrent but conflict-free. The shard router has no
//! workload of its own: on two vCPUs a pair of workers on the elastic
//! sharded stack settles either split, each worker alone on its lane at
//! ~9M ops/s, or flapping between one and two lanes at ~2.3M ops/s, and
//! which one a run gets varies from run to run (2 of 10 seeds split in
//! one ten-seed set, an interquartile range of 0.78 of the median).
//! Every traced run replays its workload's op stream through the router
//! instead.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cso_memory::counting::{AccessCounts, CountScope};
use cso_queue::{AbortableQueue, CsQueue};
use cso_stack::{AbortableStack, CsStack, NonBlockingStack};

use crate::drive::{handoff, median, ratio, run, Plan, Report, Shape, CAPACITY, PREFILL};
use crate::gen::Bursts;
use crate::host;
use crate::target::{sharded, MeteredQueue, Put, Take, Target};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StackSolo,
    StackContended,
    QueuePipeline,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::StackSolo,
        Workload::StackContended,
        Workload::QueuePipeline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StackSolo => "stack-solo",
            Workload::StackContended => "stack-contended",
            Workload::QueuePipeline => "queue-pipeline",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn workers(self) -> usize {
        match self {
            Workload::StackSolo => 1,
            _ => 2,
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::QueuePipeline => Shape::Pipeline,
            _ => Shape::Bursts,
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run prints.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Lines describing the run.
    pub notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, r: &Report) {
        self.attempted += r.sum(|t| t.attempted);
        self.failed += r.sum(|t| t.failed);
        self.violations.extend(r.violations.iter().cloned());
    }
}

/// The measured time is cut into segments of at least a second, at most
/// this many. Each runs on a fresh object after timed set-ups of its
/// own, so set-up is timed across the whole run, as throughput is: a
/// slow spell of the host a few seconds long then moves some of its
/// samples rather than all of them.
const SEGMENTS: u64 = 10;
/// Set-ups timed per segment, the measured segment's own included. The
/// run reports the median of them all.
const SETUPS_PER_SEGMENT: usize = 10;

/// Runs the workload's own object: a `CsStack`, or a metered `CsQueue`
/// scraped every window. `scrapes` collects the scrape times in ns.
fn measure(w: Workload, plan: &Plan, d: Duration, scrapes: &mut Vec<f64>) -> Report {
    match w {
        Workload::StackSolo | Workload::StackContended => run(
            plan,
            d,
            || CsStack::<u32>::new(CAPACITY, plan.workers),
            |_| {},
        ),
        Workload::QueuePipeline => run(
            plan,
            d,
            || MeteredQueue::new(plan.workers),
            |q| scrapes.push(timed(|| q.scrape())),
        ),
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_nanos() as f64
}

/// Host-wide steal and this process's CPU use over a phase.
struct Conditions {
    at: Instant,
    cpu: f64,
    steal: Vec<u64>,
}

impl Conditions {
    fn start() -> Conditions {
        Conditions {
            at: Instant::now(),
            cpu: host::cpu_seconds(),
            steal: host::steal_ns(),
        }
    }

    /// (share of the host's CPU time stolen, CPU utilisation of all
    /// `nproc` CPUs).
    fn finish(&self) -> (f64, f64) {
        let steal = host::steal_ns();
        let wall = self.at.elapsed().as_secs_f64();
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let host_cpus = (steal.len() - 1).max(1) as f64;
        (
            steal[0].saturating_sub(self.steal[0]) as f64 / (wall * 1e9 * host_cpus),
            (host::cpu_seconds() - self.cpu) / (wall * nproc as f64),
        )
    }
}

fn plan(w: Workload, seed: u64, traced: bool, cpus: &[usize]) -> Plan {
    Plan {
        shape: w.shape(),
        workers: w.workers(),
        seed,
        traced,
        cpus: cpus.to_vec(),
    }
}

fn describe_pinning(r: &Report) -> String {
    r.workers
        .iter()
        .enumerate()
        .map(|(w, t)| match &t.unpinned {
            None => format!("w{w}:pinned"),
            Some(e) => format!("w{w}:unpinned({e})"),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The end-to-end run: `seconds` of closed-loop load with tracing off,
/// in segments, each after `SETUPS_PER_SEGMENT` timed set-ups.
pub fn end_to_end(w: Workload, seed: u64, seconds: u64, cpus: &[usize]) -> Outcome {
    let plan = plan(w, seed, false, cpus);
    let mut out = Outcome::default();
    let mut scrapes = Vec::new();
    let mut setups = Vec::new();
    let segments = seconds.clamp(1, SEGMENTS) as u32;
    let clock_ns = host::clock_ns();
    let cond = Conditions::start();
    let mut measured: Option<Report> = None;
    // Peak resident memory is read in the first segment: later ones add
    // the run's merged records and the heap churn of earlier segments,
    // which grow with the run's length.
    let mut rss_peak_kb = 0.0;
    for _ in 0..segments {
        for _ in 1..SETUPS_PER_SEGMENT {
            let r = measure(w, &plan, Duration::ZERO, &mut scrapes);
            setups.push(r.setup.as_secs_f64());
            out.absorb(&r);
        }
        let d = Duration::from_secs(seconds) / segments;
        let r = measure(w, &plan, d, &mut scrapes);
        setups.push(r.setup.as_secs_f64());
        match &mut measured {
            None => {
                rss_peak_kb = r.rss_anon_peak_kb;
                measured = Some(r);
            }
            Some(m) => m.absorb(r),
        }
    }
    let r = measured.expect("at least one segment");
    let (steal, util) = cond.finish();
    out.absorb(&r);
    check_accesses(w, seed, &r, &mut out);
    let (p50, p99) = r.latency();
    let attempted = r.sum(|t| t.attempted);
    let failed = r.sum(|t| t.failed);
    out.notes.push(format!(
        "pinning={} segments={segments} setups={} windows={} clean_windows={} latency_samples={} failed_frac={} wasted={} clock_ns={clock_ns:.1} steal_frac={steal:.4} cpu_util={util:.3}",
        describe_pinning(&r),
        setups.len(),
        r.windows_clean().0,
        r.windows_clean().1,
        r.latency_samples(),
        ratio(failed, attempted),
        r.sum(|t| t.wasted),
    ));
    out.metrics = vec![
        metric("throughput_ops_s", r.throughput(), "ops/s"),
        metric("op_p50_ns", p50, "ns"),
        metric("op_p99_ns", p99, "ns"),
        metric("success_frac", 1.0 - ratio(failed, attempted), "frac"),
        metric("setup_s", median(&setups), "s"),
        metric("rss_peak_kb", rss_peak_kb, "kB"),
    ];
    out
}

/// The traced run: the workload untraced, then its op stream replayed
/// with spans around batches of calls against every layer, bottom-up.
/// Ten phases share the run's `seconds`.
pub fn ledger(w: Workload, seed: u64, seconds: u64, cpus: &[usize]) -> Outcome {
    let slice = Duration::from_secs(seconds) / 10;
    let traced = plan(w, seed, true, cpus);
    let solo = Plan {
        shape: Shape::Bursts,
        workers: 1,
        ..traced.clone()
    };
    let n = traced.workers;
    let mut out = Outcome::default();
    let (mut scrapes, mut lanes) = (Vec::new(), Vec::new());
    let clock_ns = host::clock_ns();
    let cond = Conditions::start();

    let base = measure(w, &plan(w, seed, false, cpus), slice, &mut scrapes);
    let weak = run(
        &traced,
        slice,
        || AbortableStack::<u32>::new(CAPACITY),
        |_| {},
    );
    let nb = run(
        &traced,
        slice,
        || NonBlockingStack::<u32>::new(CAPACITY),
        |_| {},
    );
    let cs = run(&traced, slice, || CsStack::<u32>::new(CAPACITY, n), |_| {});
    let shard = run(
        &traced,
        slice,
        || sharded(n),
        |s| lanes.push(s.active_lanes() as f64),
    );
    let shard_solo = run(&solo, slice, || sharded(1), |_| {});
    let qweak = run(
        &traced,
        slice,
        || AbortableQueue::<u32>::new(CAPACITY),
        |_| {},
    );
    let qcs = run(&traced, slice, || CsQueue::<u32>::new(CAPACITY, n), |_| {});
    scrapes.clear();
    let qm = run(
        &traced,
        slice,
        || MeteredQueue::new(n),
        |q| scrapes.push(timed(|| q.scrape())),
    );
    let (handoff_ns, _) = handoff(n, cpus, slice);
    let (steal, util) = cond.finish();

    for r in [
        &base,
        &weak,
        &nb,
        &cs,
        &shard,
        &shard_solo,
        &qweak,
        &qcs,
        &qm,
    ] {
        out.absorb(r);
    }
    // The traced twin of the workload's own object.
    let obj = match w {
        Workload::StackSolo | Workload::StackContended => &cs,
        Workload::QueuePipeline => &qm,
    };
    check_accesses(w, seed, obj, &mut out);
    let calls = obj.sum(|t| t.attempted);
    let acc = obj.accesses();
    let s = obj.stats;
    let completed = s.fast + s.eliminated + s.locked;
    let min_share = obj.workers.iter().map(|t| t.succeeded).min().unwrap_or(0) as f64
        * obj.workers.len() as f64
        / obj.sum(|t| t.succeeded).max(1) as f64;
    let router = shard.stats.router.unwrap_or_default();
    let shard_s = shard.elapsed.as_secs_f64();
    out.notes.push(format!(
        "pinning={} fig3_self_ns={:.2} (core.cs_ns - stack.weak_ns)",
        describe_pinning(obj),
        cs.ns_per_call() - weak.ns_per_call(),
    ));
    out.metrics = vec![
        metric(
            "memory.accesses_per_op",
            ratio(acc.total(), calls),
            "accesses/op",
        ),
        metric("memory.cas_per_op", ratio(acc.cas, calls), "cas/op"),
        metric("stack.weak_ns", weak.ns_per_call(), "ns"),
        metric(
            "stack.abort_frac",
            ratio(cs.stats.weak_aborts, cs.stats.weak_attempts),
            "frac",
        ),
        metric("core.nb_ns", nb.ns_per_call(), "ns"),
        metric("core.cs_ns", cs.ns_per_call(), "ns"),
        metric("core.locked_frac", ratio(s.locked, completed), "frac"),
        metric(
            "core.eliminated_frac",
            ratio(s.eliminated, completed),
            "frac",
        ),
        metric("core.min_thread_share", min_share, "frac"),
        metric("locks.handoff_ns", handoff_ns, "ns"),
        metric(
            "locks.tenures_per_s",
            s.locked as f64 / obj.elapsed.as_secs_f64(),
            "1/s",
        ),
        metric("queue.weak_ns", qweak.ns_per_call(), "ns"),
        metric(
            "queue.abort_frac",
            ratio(qm.stats.weak_aborts, qm.stats.weak_attempts),
            "frac",
        ),
        metric(
            "queue.wasted_frac",
            ratio(qm.sum(|t| t.wasted), qm.sum(|t| t.attempted)),
            "frac",
        ),
        metric(
            "metrics.attach_ns",
            qm.ns_per_call() - qcs.ns_per_call(),
            "ns",
        ),
        metric("metrics.scrape_ns", median(&scrapes), "ns"),
        metric("shard.solo_ns", shard_solo.ns_per_call(), "ns"),
        metric(
            "shard.spill_frac",
            ratio(router.spills, router.pushes),
            "frac",
        ),
        metric(
            "shard.steal_frac",
            ratio(router.steals, router.pops),
            "frac",
        ),
        metric("shard.splits_per_s", router.splits as f64 / shard_s, "1/s"),
        metric("shard.merges_per_s", router.merges as f64 / shard_s, "1/s"),
        metric("shard.active_lanes_mean", mean(&lanes), "lanes"),
        metric("bench.clock_ns", clock_ns, "ns"),
        metric("bench.steal_frac", steal, "frac"),
        metric("bench.cpu_util", util, "frac"),
        metric(
            "bench.latency_samples",
            base.latency_samples() as f64,
            "count",
        ),
        metric(
            "bench.trace_overhead_frac",
            1.0 - obj.throughput() / base.throughput(),
            "frac",
        ),
    ];
    out
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The counted-access checks: a solo `CsStack` call costs exactly
/// Theorem 1's six accesses, and the sharded stack driven by one worker
/// counts the same accesses as a bare cell.
fn check_accesses(w: Workload, seed: u64, obj: &Report, out: &mut Outcome) {
    if w == Workload::StackSolo {
        let (acc, calls) = (obj.accesses().total(), obj.sum(|t| t.attempted));
        if acc != 6 * calls {
            out.violations.push(format!(
                "stack-solo counted {acc} accesses for {calls} calls, not 6 per call"
            ));
        }
    }
    // Every run checks the router, which every traced run replays.
    let bare = solo_accesses(&CsStack::<u32>::new(CAPACITY, 2), seed);
    let routed = solo_accesses(&sharded(2), seed);
    if bare != routed {
        out.violations.push(format!(
            "the sharded stack with one worker counted {routed}, a bare cell {bare}"
        ));
    }
}

/// Accesses counted by 1000 seeded bursts from worker 0 on this thread,
/// after a prefill to half capacity.
fn solo_accesses<T: Target>(target: &T, seed: u64) -> AccessCounts {
    for v in 0..PREFILL as u32 {
        assert_eq!(target.put(0, v), Put::Stored, "solo prefill");
    }
    let mut bursts = Bursts::new(seed, 0);
    let scope = CountScope::start();
    for i in 0..1000u32 {
        let r = bursts.next_len();
        for j in 0..r {
            assert_eq!(target.put(0, i * 64 + j), Put::Stored, "solo put");
        }
        for _ in 0..r {
            assert!(matches!(target.take(0), Take::Got(_)), "solo take");
        }
    }
    scope.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_routed_solo_budget_matches_the_bare_cell() {
        let bare = solo_accesses(&CsStack::<u32>::new(CAPACITY, 2), 5);
        assert_eq!(bare, solo_accesses(&sharded(2), 5));
        assert!(bare.total() > 0);
    }
}
