//! Model checking of the production flat-combining handoff:
//! `ContentionSensitive` with `CsConfig::COMBINING`.
//!
//! Requires `--features model,chaos`:
//!
//! ```text
//! cargo test --features model,chaos --test model_combining
//! ```
//!
//! The slow path posts a `PubRecord`, spins on it, and either collects
//! a combiner's response or wins the lock and combines: its own
//! operation first, then every record it claims. The record statuses
//! are protocol words, so every post, claim, retract, completion and
//! poisoning is a yield point. The fast path is switched off so every
//! operation goes through the records. A combiner crash is the
//! `cs::combine` chaos panic, fired before a claimed request is
//! applied: the unwinding combiner poisons its in-flight claims and
//! releases the lock, and the poisoned owners repost. Per schedule:
//!
//! * **no lock leak** and **no stuck record** — afterwards every
//!   process id completes one more solo operation (a leaked lock would
//!   block it; a stuck record fails its post);
//! * **exactly-once application** — operations add distinct powers of
//!   two, so the final counter names every applied operation: all of
//!   them, once each (a crashed combiner had applied its own operation
//!   before the crash point), and every response chains onto the
//!   running total;
//! * **⊥ only from crashes** — the only operations that fail to
//!   answer are the combiners the fail point fired in.
//!
//! The chaos registry is process-global, so the tests serialize.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use cso::core::{Abortable, Aborted, ContentionSensitive, CsConfig};
use cso::locks::TasLock;
use cso::memory::chaos::{self, Fault, Plan};
use cso::memory::reg::Reg64;
use cso::sched::{spawn, Explorer, Report};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A counter over one counted register: `try_apply(v)` adds `v` and
/// returns the new total, or aborts if the CAS loses.
struct Counter {
    value: Reg64,
}

impl Abortable for Counter {
    type Op = u64;
    type Response = u64;

    fn try_apply(&self, op: &u64) -> Result<u64, Aborted> {
        let v = self.value.read();
        if self.value.cas(v, v + op) {
            Ok(v + op)
        } else {
            Err(Aborted)
        }
    }
}

type Combining = ContentionSensitive<Counter, TasLock>;

fn combining(n: usize) -> Arc<Combining> {
    Arc::new(ContentionSensitive::with_config(
        Counter {
            value: Reg64::new(0),
        },
        TasLock::new(),
        n,
        CsConfig::COMBINING.without_fast_path(),
    ))
}

/// Runs `proc`'s operation; `None` when it panicked (a crash). The
/// scheduler's own unwinding (a stopped session) passes through.
fn apply(cs: &Combining, proc: usize, v: u64) -> Option<u64> {
    match panic::catch_unwind(AssertUnwindSafe(|| cs.apply(proc, &v))) {
        Ok(resp) => Some(resp),
        Err(payload) if payload.is::<String>() || payload.is::<&str>() => None,
        Err(payload) => panic::resume_unwind(payload),
    }
}

/// What one scenario did.
struct Run {
    /// Operations that crashed (the fail point fired in them).
    crashed: u64,
    /// Requests a combiner applied on behalf of their owners.
    served: u64,
    /// Owners that found their record poisoned and reposted.
    reposted: u64,
}

/// One scenario: process `p` adds `1 << p`; an armed crash fires at
/// the first served claim. Checks the module-level invariants.
fn combining_run(n: usize, crash: bool) -> Run {
    chaos::reset();
    if crash {
        chaos::arm_plan(
            "cs::combine",
            Plan {
                fault: Fault::Panic,
                after: 0,
                one_in: 1,
                max_fires: 1,
            },
        );
    }
    let cs = combining(n);
    let children: Vec<_> = (1..n)
        .map(|p| {
            let cs = Arc::clone(&cs);
            spawn(move || apply(&cs, p, 1 << p))
        })
        .collect();
    let mut resps = vec![apply(&cs, 0, 1)];
    resps.extend(children.into_iter().map(|c| c.join()));
    let crashed = resps.iter().filter(|r| r.is_none()).count() as u64;
    assert_eq!(
        crashed,
        chaos::fires("cs::combine"),
        "⊥ must come only from crashes: {resps:?}"
    );
    chaos::reset();

    // Exactly-once: every operation applied once (powers of two would
    // carry on a double apply), responses chain onto a running total.
    let all: u64 = (1 << n) - 1;
    assert_eq!(
        cs.inner().value.read(),
        all,
        "lost or doubled apply: {resps:?}"
    );
    let mut done: Vec<(u64, u64)> = resps
        .iter()
        .enumerate()
        .filter_map(|(p, r)| r.map(|r| (r, 1 << p)))
        .collect();
    done.sort_unstable();
    let mut running = 0;
    for (resp, own) in done {
        assert_eq!(resp & own, own, "response {resp} misses its own op");
        assert_eq!(
            (resp - own) & running,
            running,
            "response {resp} does not extend the running total {running}"
        );
        running = resp;
    }

    // No lock leak, no stuck record: every process posts again.
    for p in 0..n {
        assert_eq!(cs.apply(p, &0), all, "process {p} could not run again");
    }
    Run {
        crashed,
        served: cs.combining_stats().combined,
        reposted: cs.fault_stats().record_poisoned,
    }
}

fn assert_exhausted(report: &Report) {
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert_eq!(report.pruned, 0, "{report}");
}

/// Two combining operations: handoffs, self-serves and retract races
/// all keep the invariants, and some schedule hands a request over.
#[test]
fn exhaustive_two_process_handoff() {
    let _serial = serial();
    let served = AtomicU64::new(0);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| {
            let run = combining_run(2, false);
            assert_eq!(run.crashed, 0);
            served.fetch_add(run.served, Ordering::Relaxed);
        });
    assert_exhausted(&report);
    assert!(report.schedules > 100, "{report}");
    assert!(
        served.into_inner() > 0,
        "no schedule ever handed a request over"
    );
}

/// A crashing combiner and a clean waiter: the poison → reclaim →
/// repost recovery holds in every schedule, and the crash fires.
#[test]
fn exhaustive_two_process_combiner_crash() {
    let _serial = serial();
    let crashed = AtomicU64::new(0);
    let reposted = AtomicU64::new(0);
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(3))
        .explore(|| {
            let run = combining_run(2, true);
            crashed.fetch_add(run.crashed, Ordering::Relaxed);
            reposted.fetch_add(run.reposted, Ordering::Relaxed);
        });
    assert_exhausted(&report);
    assert!(
        crashed.into_inner() > 0,
        "no schedule ever triggered the crash"
    );
    assert!(reposted.into_inner() > 0, "no poisoned owner ever reposted");
}

/// Three processes, random schedules, a combiner dying mid-batch:
/// partially served batches leave served owners with correct results
/// and poisoned owners retrying cleanly.
#[test]
fn random_three_process_crash_mid_batch() {
    let _serial = serial();
    let crashed = AtomicU64::new(0);
    let report = Explorer::random(0x0C0B_17E5, 1_000).explore(|| {
        crashed.fetch_add(combining_run(3, true).crashed, Ordering::Relaxed);
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0, "{report}");
    assert!(
        crashed.into_inner() > 0,
        "the mid-batch crash never triggered"
    );
}

/// Three clean processes: batches serving both waiters stay
/// exactly-once.
#[test]
fn random_three_process_batches() {
    let _serial = serial();
    let report = Explorer::random(0xBA7C4, 1_000).explore(|| {
        assert_eq!(combining_run(3, false).crashed, 0);
    });
    report.assert_ok();
    assert_eq!(report.pruned, 0, "{report}");
}
