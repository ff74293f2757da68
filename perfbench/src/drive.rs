//! The closed-loop load generator: set up an object, run pinned workers on it
//! for a fixed time, and check what came out against what went in.

use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant};

use cso_locks::{ProcLock, StarvationFree, TasLock};
use cso_memory::counting::{AccessCounts, CountScope};

use crate::check::{conserved, Digest, Fifo};
use crate::gen::Bursts;
use crate::hist::{Kept, Live};
use crate::host;
use crate::pin::pin_current;
use crate::target::{ObjStats, Put, Take, Target};

/// Capacity of every object.
pub const CAPACITY: usize = 8192;
/// Values put in before the workers start: half the capacity.
pub const PREFILL: usize = CAPACITY / 2;
/// One latency sample is taken per this many operations. Reading the
/// clock twice costs more than a fast-path call, so denser timing slows
/// the very calls it measures.
pub const SAMPLE_EVERY: u32 = 512;
/// A sample times this many consecutive operations and records their
/// mean. An operation is one value stored or returned, with every call
/// it took: aborted attempts and, on the pipeline, the Full/Empty
/// answers retried until the other side made room or a value. Timed
/// alone, a ~40 ns fast-path call is dwarfed by the ~40 ns clock read
/// around it, whose own cost moves by a third with the host's state;
/// and the single-call quantiles of a contended pair sit between a
/// fast-path mode and a locked mode and jump between them.
pub const TIMED_OPS: u32 = 8;
/// Throughput and latency are kept per window of this length, so that a
/// window in which a worker lost its CPU can be left out.
pub const WINDOW: Duration = Duration::from_millis(100);
/// A window counts as clean when no worker lost more than this share of
/// it against its will: waiting on a run queue for its CPU, or with its
/// CPU stolen by the host. On a shared host that happens in bursts of up
/// to seconds, and a contended workload then runs alone at several
/// times its contended rate. Time a worker spends blocked by the
/// program's own choice (parked, sleeping) is not lost: it counts
/// against the program.
pub const LOST_FRACTION: f64 = 0.1;
/// Bursts between two reads of the stop flag, and per traced span.
const BATCH_BURSTS: usize = 8;

/// How the workers use the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Every worker issues seeded bursts of puts then takes, so the
    /// depth stays near the prefill and Full/Empty answers are failures.
    Bursts,
    /// Worker 0 puts the sequence `PREFILL, PREFILL+1, …`, worker 1 takes;
    /// each retries on Full/Empty, which count as wasted attempts.
    Pipeline,
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Plan {
    pub shape: Shape,
    pub workers: usize,
    pub seed: u64,
    /// Record spans around batches of calls.
    pub traced: bool,
    /// Worker `w` is pinned to `cpus[w]`.
    pub cpus: Vec<usize>,
}

/// What one worker did.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls made into the object.
    pub attempted: u64,
    /// Calls that stored or returned a value.
    pub succeeded: u64,
    /// Calls that answered Full/Empty where the shape rules it out.
    pub failed: u64,
    /// Full/Empty answers where the shape allows them.
    pub wasted: u64,
    pub stored: Digest,
    pub removed: Digest,
    pub fifo: Fifo,
    /// Shared-memory accesses the worker's thread counted.
    pub accesses: AccessCounts,
    /// Time inside traced spans, and the calls they covered.
    pub span_ns: u64,
    pub span_calls: u64,
    /// Why the worker could not be pinned, if it could not.
    pub unpinned: Option<String>,
}

/// One window of the measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Successful calls.
    pub ops: u64,
    pub secs: f64,
    /// No worker lost more than [`LOST_FRACTION`] of it: see there.
    pub clean: bool,
}

/// What one run did.
pub struct Report {
    /// Construction, prefill, and spawning and pinning the workers.
    pub setup: Duration,
    /// Length of the measured phase.
    pub elapsed: Duration,
    /// The measured phase, window by window, the warm-up window left out.
    pub windows: Vec<Window>,
    /// Largest anonymous resident memory seen with the workers running.
    pub rss_anon_peak_kb: f64,
    pub workers: Vec<Tally>,
    /// Sampled call latencies, warm-up window left out.
    pub latency: Kept,
    pub stats: ObjStats,
    /// Every correctness check that failed.
    pub violations: Vec<String>,
}

impl Report {
    /// Successful operations per second over the clean windows, or over
    /// all of them if none is clean; over the whole run if it had no
    /// window after the warm-up. A rate over the pooled windows rather
    /// than their median: a host drifting between faster and slower
    /// stretches then moves it by the share of time spent in each, where
    /// a median would jump between the two.
    pub fn throughput(&self) -> f64 {
        let rate = |ws: Vec<&Window>| {
            ws.iter().map(|w| w.ops).sum::<u64>() as f64 / ws.iter().map(|w| w.secs).sum::<f64>()
        };
        let clean: Vec<&Window> = self.windows.iter().filter(|w| w.clean).collect();
        match (self.windows.is_empty(), clean.is_empty()) {
            (true, _) => self.sum(|t| t.succeeded) as f64 / self.elapsed.as_secs_f64().max(1e-9),
            (false, false) => rate(clean),
            (false, true) => rate(self.windows.iter().collect()),
        }
    }

    /// Windows after the warm-up, and how many of them were clean.
    pub fn windows_clean(&self) -> (usize, usize) {
        let clean = self.windows.iter().filter(|w| w.clean).count();
        (self.windows.len(), clean)
    }

    /// Adds a later run of the same plan to this one, as if its measured
    /// phase had followed this one's. Each run was checked on its own.
    pub fn absorb(&mut self, other: Report) {
        self.elapsed += other.elapsed;
        self.windows.extend(other.windows);
        self.rss_anon_peak_kb = self.rss_anon_peak_kb.max(other.rss_anon_peak_kb);
        for (t, o) in self.workers.iter_mut().zip(other.workers) {
            t.attempted += o.attempted;
            t.succeeded += o.succeeded;
            t.failed += o.failed;
            t.wasted += o.wasted;
            t.accesses = t.accesses + o.accesses;
            t.span_ns += o.span_ns;
            t.span_calls += o.span_calls;
            t.unpinned = t.unpinned.take().or(o.unpinned);
        }
        self.latency.absorb(&other.latency);
        self.stats.absorb(&other.stats);
        self.violations.extend(other.violations);
    }

    /// Sum of one per-worker count.
    pub fn sum(&self, f: impl Fn(&Tally) -> u64) -> u64 {
        self.workers.iter().map(f).sum()
    }

    /// Latency samples recorded.
    pub fn latency_samples(&self) -> u64 {
        self.latency.len()
    }

    /// Op latency (p50, p99) in ns: see [`crate::hist`].
    pub fn latency(&self) -> (f64, f64) {
        self.latency.quantiles()
    }

    /// Mean nanoseconds per call inside traced spans.
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.sum(|t| t.span_ns), self.sum(|t| t.span_calls))
    }

    /// The workers' shared-memory accesses.
    pub fn accesses(&self) -> AccessCounts {
        self.workers
            .iter()
            .fold(AccessCounts::default(), |a, t| a + t.accesses)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What the main thread and the workers share besides the object.
struct Control {
    /// The start line. Its waits spin and yield rather than sleep:
    /// waking a sleeping thread on this kind of host takes from
    /// microseconds to a scheduler tick, which would make set-up time
    /// measure the wake-up.
    ready: AtomicUsize,
    go: AtomicBool,
    stop: AtomicBool,
    /// The window being measured; window 0 is the warm-up.
    window: AtomicU32,
    /// Each worker's kernel thread id.
    tids: Vec<AtomicI32>,
    /// Each worker's successful calls so far.
    progress: Vec<Slot>,
}

/// A worker's progress counter, on cache lines of its own.
#[repr(align(128))]
struct Slot(AtomicU64);

impl Control {
    fn new(workers: usize) -> Control {
        Control {
            ready: AtomicUsize::new(0),
            go: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            window: AtomicU32::new(0),
            tids: (0..workers).map(|_| AtomicI32::new(0)).collect(),
            progress: (0..workers).map(|_| Slot(AtomicU64::new(0))).collect(),
        }
    }

    fn ready_and_wait(&self) {
        self.ready.fetch_add(1, Ordering::Release);
        while !self.go.load(Ordering::Acquire) {
            thread::yield_now();
        }
    }

    fn all_ready(&self, workers: usize) {
        while self.ready.load(Ordering::Acquire) < workers {
            thread::yield_now();
        }
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// The value worker `w` of `workers` puts as its `k`-th value; tag
/// `workers` marks prefill values. The values are 32 bits wide, the
/// objects' value width, and wrap after 2³² of them: the conservation
/// digest compares multisets, so repeated values still balance, and the
/// FIFO check follows the pipeline's sequence across the wrap.
fn value(k: u64, w: usize, workers: usize) -> u32 {
    k.wrapping_mul(workers as u64 + 1).wrapping_add(w as u64) as u32
}

/// Runs `plan` for `duration` on the object `make` builds, calling
/// `tick` with the object at the end of every window.
pub fn run<T: Target>(
    plan: &Plan,
    duration: Duration,
    make: impl FnOnce() -> T,
    mut tick: impl FnMut(&T),
) -> Report {
    let live = Live::new();
    let mut latency = Kept::new();
    let started = Instant::now();
    let target = make();
    let mut stored = Digest::default();
    let mut violations = Vec::new();
    prefill(&target, plan, &mut stored, &mut violations);
    let ctl = Control::new(plan.workers);
    let (setup, elapsed, windows, rss_anon_peak_kb, joined) = thread::scope(|s| {
        let handles: Vec<_> = (0..plan.workers)
            .map(|w| {
                let (target, ctl, live) = (&target, &ctl, &live);
                s.spawn(move || worker(w, plan, target, ctl, live))
            })
            .collect();
        ctl.all_ready(plan.workers);
        let setup = started.elapsed();
        ctl.go.store(true, Ordering::Release);
        let mut rss = host::rss_anon_kb();
        let t0 = Instant::now();
        let mut windows = Vec::new();
        let (mut last_at, mut last_ops) = (t0, 0u64);
        // Each worker's involuntary loss so far: run-queue wait plus the
        // steal of the CPU it is pinned to (of every CPU if unpinned).
        let lost = || -> Vec<u64> {
            let steal = host::steal_ns();
            ctl.tids
                .iter()
                .enumerate()
                .map(|(w, t)| {
                    let cpu_steal = match plan.cpus.get(w) {
                        Some(&cpu) => steal.get(cpu + 1).copied().unwrap_or(0),
                        None => steal[0],
                    };
                    host::thread_wait_ns(t.load(Ordering::Relaxed)) + cpu_steal
                })
                .collect()
        };
        let mut last_lost = lost();
        let mut k = 1u32;
        while t0.elapsed() < duration {
            let due = (t0 + WINDOW * k).min(t0 + duration);
            thread::sleep(due.saturating_duration_since(Instant::now()));
            let now = Instant::now();
            let now_lost = lost();
            let ops: u64 = ctl
                .progress
                .iter()
                .map(|p| p.0.load(Ordering::Relaxed))
                .sum();
            let secs = (now - last_at).as_secs_f64();
            let kept_cpu =
                |(n, l): (&u64, &u64)| n.saturating_sub(*l) as f64 <= LOST_FRACTION * secs * 1e9;
            let is_clean = now_lost.iter().zip(&last_lost).all(kept_cpu);
            if k > 1 {
                windows.push(Window {
                    ops: ops - last_ops,
                    secs,
                    clean: is_clean,
                });
            }
            (last_at, last_ops, last_lost) = (now, ops, now_lost);
            ctl.window.store(k, Ordering::Relaxed);
            latency.close(&live, k - 1, is_clean);
            tick(&target);
            rss = rss.max(host::rss_anon_kb());
            k += 1;
        }
        ctl.stop.store(true, Ordering::Relaxed);
        let elapsed = t0.elapsed();
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (setup, elapsed, windows, rss, joined)
    });
    let stats = target.stats();
    let mut workers = Vec::new();
    for (w, j) in joined.into_iter().enumerate() {
        match j {
            Ok(t) => workers.push(t),
            Err(_) => {
                violations.push(format!("worker {w} panicked"));
                workers.push(Tally::default());
            }
        }
    }
    let mut removed = Digest::default();
    workers.iter().for_each(|t| {
        stored.merge(&t.stored);
        removed.merge(&t.removed);
    });
    // The consumer's order check continues through the drain.
    let mut fifo = workers.last().map(|t| t.fifo).unwrap_or_default();
    drain(&target, &mut removed, &mut fifo);
    if let Err(e) = conserved(&stored, &removed) {
        violations.push(e);
    }
    if plan.shape == Shape::Pipeline && T::FIFO {
        if let Err(e) = fifo.verdict() {
            violations.push(e);
        }
    }
    Report {
        setup,
        elapsed,
        windows,
        rss_anon_peak_kb,
        workers,
        latency,
        stats,
        violations,
    }
}

fn prefill<T: Target>(target: &T, plan: &Plan, stored: &mut Digest, violations: &mut Vec<String>) {
    for k in 0..PREFILL {
        let (w, v) = match plan.shape {
            // Evenly through each worker's process identity.
            Shape::Bursts => (
                k % plan.workers,
                value(k as u64, plan.workers, plan.workers),
            ),
            Shape::Pipeline => (0, k as u32),
        };
        loop {
            match target.put(w, v) {
                Put::Stored => break stored.add(v),
                Put::Aborted => continue,
                Put::Full => {
                    violations.push(format!("prefill answered Full after {k} values"));
                    return;
                }
            }
        }
    }
}

fn drain<T: Target>(target: &T, removed: &mut Digest, fifo: &mut Fifo) {
    loop {
        match target.take(0) {
            Take::Got(v) => {
                removed.add(v);
                fifo.see(v);
            }
            Take::Aborted => continue,
            Take::Empty => return,
        }
    }
}

/// One worker's calls into the object.
struct Caller<'a, T> {
    target: &'a T,
    ctl: &'a Control,
    latency: &'a Live,
    w: usize,
    /// Successful operations left until the current sample ends.
    countdown: u32,
    /// Start of the timed stretch and the op kind of its first operation.
    timed: (Instant, usize),
    tally: Tally,
}

impl<T: Target> Caller<'_, T> {
    /// Makes one call into the object.
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce(&T, usize) -> R) -> R {
        self.tally.attempted += 1;
        f(self.target, self.w)
    }

    /// Starts an operation of `kind` (0 put, 1 take). The last
    /// `TIMED_OPS` successful operations of every `SAMPLE_EVERY` are
    /// timed as one sample, each with all the calls it took.
    #[inline]
    fn begin(&mut self, kind: usize) {
        if self.countdown == TIMED_OPS {
            self.timed = (Instant::now(), kind);
        }
    }

    /// Ends an operation that stored or returned a value.
    #[inline]
    fn succeeded(&mut self) {
        self.tally.succeeded += 1;
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = SAMPLE_EVERY;
            let ns = self.timed.0.elapsed().as_nanos() as u64 / u64::from(TIMED_OPS);
            self.latency
                .record(self.ctl.window.load(Ordering::Relaxed), self.timed.1, ns);
        }
    }

    /// Puts `v` until it is stored or the run stops; an abort retries.
    /// A Full answer retries too when `full_is_wasted`, and otherwise
    /// fails the operation. Returns whether `v` was stored.
    #[inline]
    fn put_until(&mut self, v: u32, full_is_wasted: bool) -> bool {
        self.begin(0);
        loop {
            match self.call(|t, w| t.put(w, v)) {
                Put::Stored => {
                    self.tally.stored.add(v);
                    self.succeeded();
                    return true;
                }
                Put::Full if !full_is_wasted => {
                    self.tally.failed += 1;
                    return false;
                }
                Put::Full => self.tally.wasted += 1,
                Put::Aborted => {}
            }
            if self.ctl.stopped() {
                return false;
            }
        }
    }

    /// The take twin of [`Caller::put_until`].
    #[inline]
    fn take_until(&mut self, empty_is_wasted: bool) -> Option<u32> {
        self.begin(1);
        loop {
            match self.call(|t, w| t.take(w)) {
                Take::Got(v) => {
                    self.tally.removed.add(v);
                    self.succeeded();
                    return Some(v);
                }
                Take::Empty if !empty_is_wasted => {
                    self.tally.failed += 1;
                    return None;
                }
                Take::Empty => self.tally.wasted += 1,
                Take::Aborted => {}
            }
            if self.ctl.stopped() {
                return None;
            }
        }
    }
}

fn worker<T: Target>(w: usize, plan: &Plan, target: &T, ctl: &Control, latency: &Live) -> Tally {
    let unpinned = match plan.cpus.get(w) {
        Some(&cpu) => pin_current(cpu).err().map(|e| format!("cpu {cpu}: {e}")),
        None => Some(format!("no cpu for worker {w}")),
    };
    let mut c = Caller {
        target,
        ctl,
        latency,
        w,
        countdown: SAMPLE_EVERY,
        timed: (Instant::now(), 0),
        tally: Tally {
            unpinned,
            ..Tally::default()
        },
    };
    let mut bursts = Bursts::new(plan.seed, w);
    let mut k = 0u64;
    ctl.tids[w].store(host::tid(), Ordering::Relaxed);
    ctl.ready_and_wait();
    let counts = CountScope::start();
    while !ctl.stopped() {
        let span = plan.traced.then(Instant::now);
        let calls = c.tally.attempted;
        for _ in 0..BATCH_BURSTS {
            let r = bursts.next_len();
            match (plan.shape, w) {
                (Shape::Bursts, _) => {
                    for _ in 0..r {
                        k += u64::from(c.put_until(value(k, w, plan.workers), false));
                    }
                    for _ in 0..r {
                        c.take_until(false);
                    }
                }
                (Shape::Pipeline, 0) => {
                    for _ in 0..r {
                        let v = (PREFILL as u64).wrapping_add(k) as u32;
                        k += u64::from(c.put_until(v, true));
                    }
                }
                (Shape::Pipeline, _) => {
                    for _ in 0..r {
                        if let Some(v) = c.take_until(true) {
                            c.tally.fifo.see(v);
                        }
                    }
                }
            }
        }
        if let Some(t) = span {
            c.tally.span_ns += t.elapsed().as_nanos() as u64;
            c.tally.span_calls += c.tally.attempted - calls;
        }
        ctl.progress[w]
            .0
            .store(c.tally.succeeded, Ordering::Relaxed);
    }
    c.tally.accesses = counts.take();
    c.tally
}

/// Nanoseconds per `StarvationFree<TasLock>` lock/unlock pair with
/// `workers` pinned threads hammering it for `duration`, and the pairs
/// made.
pub fn handoff(workers: usize, cpus: &[usize], duration: Duration) -> (f64, u64) {
    const PAIRS_PER_SPAN: u64 = 64;
    let lock = StarvationFree::new(TasLock::new(), workers);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(workers + 1);
    let spans: Vec<(u64, u64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (lock, stop, barrier) = (&lock, &stop, &barrier);
                let cpu = cpus.get(w).copied();
                s.spawn(move || {
                    // Unpinned if pinning fails: the run reports pinning
                    // from the workload's own workers.
                    let _ = cpu.map(pin_current);
                    barrier.wait();
                    let (mut ns, mut pairs) = (0u64, 0u64);
                    while !stop.load(Ordering::Relaxed) {
                        let t = Instant::now();
                        for _ in 0..PAIRS_PER_SPAN {
                            lock.lock(w);
                            lock.unlock(w);
                        }
                        ns += t.elapsed().as_nanos() as u64;
                        pairs += PAIRS_PER_SPAN;
                    }
                    (ns, pairs)
                })
            })
            .collect();
        barrier.wait();
        thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("lock worker"))
            .collect()
    });
    let ns: u64 = spans.iter().map(|s| s.0).sum();
    let pairs: u64 = spans.iter().map(|s| s.1).sum();
    (ratio(ns, pairs), pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_queue::CsQueue;
    use cso_stack::CsStack;
    use std::sync::atomic::AtomicU32;

    fn plan(shape: Shape, workers: usize) -> Plan {
        let cpus = crate::pin::allowed_cpus().expect("affinity readable");
        Plan {
            shape,
            workers,
            seed: 3,
            traced: true,
            cpus,
        }
    }

    const SHORT: Duration = Duration::from_millis(150);

    #[test]
    fn honest_runs_pass_every_check() {
        let r = run(
            &plan(Shape::Bursts, 2),
            SHORT,
            || CsStack::<u32>::new(CAPACITY, 2),
            |_| {},
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        assert_eq!(r.sum(|t| t.failed), 0);
        assert!(r.sum(|t| t.succeeded) > 0 && r.latency_samples() > 0);
        assert!(r.latency().0 > 0.0);
        assert!(r.ns_per_call() > 0.0);
        let q = run(
            &plan(Shape::Pipeline, 2),
            SHORT,
            || CsQueue::<u32>::new(CAPACITY, 2),
            |_| {},
        );
        assert!(q.violations.is_empty(), "{:?}", q.violations);
    }

    #[test]
    fn a_solo_stack_counts_six_accesses_per_call() {
        let r = run(
            &plan(Shape::Bursts, 1),
            SHORT,
            || CsStack::<u32>::new(CAPACITY, 1),
            |_| {},
        );
        assert_eq!(r.accesses().total(), 6 * r.sum(|t| t.attempted));
    }

    /// Reports the 101st put (a prefill value) as stored without storing it.
    struct LosesOne {
        inner: CsStack<u32>,
        puts: AtomicU32,
    }

    impl Target for LosesOne {
        const FIFO: bool = false;
        fn put(&self, w: usize, v: u32) -> Put {
            if self.puts.fetch_add(1, Ordering::Relaxed) == 100 {
                return Put::Stored;
            }
            self.inner.put(w, v)
        }
        fn take(&self, w: usize) -> Take {
            self.inner.take(w)
        }
        fn stats(&self) -> ObjStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_planted_lost_value_fails_conservation() {
        let r = run(
            &plan(Shape::Bursts, 1),
            SHORT,
            || LosesOne {
                inner: CsStack::new(CAPACITY, 1),
                puts: AtomicU32::new(0),
            },
            |_| {},
        );
        assert!(
            r.violations.iter().any(|v| v.starts_with("conservation")),
            "{:?}",
            r.violations
        );
    }

    /// Stores the prefill values 10 and 11 in swapped order.
    struct SwapsTwo {
        inner: CsQueue<u32>,
    }

    impl Target for SwapsTwo {
        const FIFO: bool = true;
        fn put(&self, w: usize, v: u32) -> Put {
            match v {
                10 => Put::Stored,
                11 => {
                    assert_eq!(self.inner.put(w, 11), Put::Stored);
                    self.inner.put(w, 10)
                }
                _ => self.inner.put(w, v),
            }
        }
        fn take(&self, w: usize) -> Take {
            self.inner.take(w)
        }
        fn stats(&self) -> ObjStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_planted_swap_fails_the_fifo_check() {
        // Both values are stored, so only the order check can catch it.
        let r = run(
            &plan(Shape::Pipeline, 2),
            SHORT,
            || SwapsTwo {
                inner: CsQueue::new(CAPACITY, 2),
            },
            |_| {},
        );
        assert!(
            r.violations.iter().any(|v| v.starts_with("FIFO")),
            "{:?}",
            r.violations
        );
        assert!(!r.violations.iter().any(|v| v.starts_with("conservation")));
    }

    #[test]
    fn values_wrap_instead_of_running_out() {
        // Past 2³² values a worker's values wrap rather than fail.
        let k = u64::from(u32::MAX);
        assert_eq!(value(k, 1, 2), value(k + (1 << 32), 1, 2));
        assert_eq!(value(k / 3, 0, 2), u32::MAX);
        assert_eq!(value(k / 3, 2, 2), 1);
    }

    /// Answers Empty to nine of the consumer's takes in ten before
    /// asking the queue.
    struct MostlyEmpty {
        inner: CsQueue<u32>,
        takes: AtomicU32,
    }

    impl Target for MostlyEmpty {
        const FIFO: bool = true;
        fn put(&self, w: usize, v: u32) -> Put {
            self.inner.put(w, v)
        }
        fn take(&self, w: usize) -> Take {
            if w == 1 && self.takes.fetch_add(1, Ordering::Relaxed) % 10 != 0 {
                return Take::Empty;
            }
            self.inner.take(w)
        }
        fn stats(&self) -> ObjStats {
            self.inner.stats()
        }
    }

    #[test]
    fn latency_samples_successful_operations_only() {
        let r = run(
            &plan(Shape::Pipeline, 2),
            Duration::from_millis(300),
            || MostlyEmpty {
                inner: CsQueue::new(CAPACITY, 2),
                takes: AtomicU32::new(0),
            },
            |_| {},
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        let (attempted, succeeded) = (r.sum(|t| t.attempted), r.sum(|t| t.succeeded));
        assert!(attempted > 2 * succeeded, "{attempted} {succeeded}");
        // At most one sample per SAMPLE_EVERY successful operations per
        // worker; sampling calls would give about twice as many.
        let most = succeeded / u64::from(SAMPLE_EVERY) + 2;
        assert!(
            r.latency_samples() <= most,
            "{} > {most}",
            r.latency_samples()
        );
        assert!(r.latency_samples() > 0);
    }

    #[test]
    fn the_lock_handoff_is_timed() {
        let (ns, pairs) = handoff(1, &[], SHORT);
        assert!(ns > 0.0 && pairs > 0);
    }
}
