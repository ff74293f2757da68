//! The metric primitives and the registry that aggregates them.
//!
//! # Counting: one system, per-writer rows
//!
//! Every event counter in the workspace lives in a [`CounterBlock`]: a
//! set of cache-padded rows, one row per writer, each row holding up
//! to [`ROW_SLOTS`] of one object's `u64` counters (one 128-byte line).
//! An object owns one block and indexes its statistics by slot; its
//! stats views sum (or, for high-water marks, take the maximum of) a
//! slot over the rows, and `attach_metrics` registers views of the
//! same slots ([`CounterBlock::counter`]) under their exported names.
//! No event is counted twice.
//!
//! A slot is written in exactly one of two ways:
//!
//! * **owned** ([`CounterBlock::add_owned`]): the writer passes its
//!   process id, and row `proc` has that single writer — the ownership
//!   rule of `cso_memory::registry` (every participating thread owns a
//!   distinct id). A relaxed load and store suffice, with no locked
//!   instruction;
//! * **shared** ([`CounterBlock::add`]): writers without an id bump
//!   their thread's *home row* with one relaxed `fetch_add`. Home rows
//!   are assigned round-robin at a thread's first use over
//!   [`thread_rows`] rows, worked out once per process.
//!
//! Mixing the two on one slot would let an owner's store overwrite a
//! shared increment, so each object fixes the mode per slot.
//!
//! # `snapshot()` consistency model
//!
//! [`Registry::snapshot`] reads every metric with relaxed loads and no
//! global lock-out of writers, so it is a *per-metric-consistent*
//! view, not a cross-metric atomic cut:
//!
//! * each counter value is the sum of its rows as they were read —
//!   monotone between snapshots (until a `reset_*` zeroes the object's
//!   block), but an increment racing the snapshot may appear in one
//!   counter and not yet in a logically-related one (e.g.
//!   `ops_fast_total` may momentarily lag `ops_total`);
//! * timer quantiles summarize *some recent prefix* of samples (see
//!   `LogHistogram::snapshot`);
//! * polled gauges run their closures at snapshot time.
//!
//! This is the standard contract of scrape-based metrics (Prometheus
//! makes the same trade); rates and ratios computed across metrics are
//! accurate to within the in-flight operations at scrape time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cso_memory::CachePadded;
use cso_trace::{HistSnapshot, LogHistogram};

/// Counters per row: sixteen `u64`s fill one 128-byte cache line.
pub const ROW_SLOTS: usize = 16;

type Row = CachePadded<[AtomicU64; ROW_SLOTS]>;

/// Rows in a shared-mode block: the host's `available_parallelism`
/// rounded up to a power of two, at most 16 (the workspace's bench
/// range, `CSO_MAX_THREADS` ≤ 16). Worked out once per process: the
/// lookup reads cgroup files, far too slow for every constructor.
pub fn thread_rows() -> usize {
    static ROWS: OnceLock<usize> = OnceLock::new();
    *ROWS.get_or_init(|| {
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        cpus.next_power_of_two().min(16)
    })
}

/// This thread's home row in `0..thread_rows()`, assigned round-robin
/// at first use.
#[inline]
fn home_row() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    HOME.with(|h| {
        let mut row = h.get();
        if row == usize::MAX {
            row = NEXT.fetch_add(1, Ordering::Relaxed) % thread_rows();
            h.set(row);
        }
        row
    })
}

/// One object's counters: cache-padded rows of [`ROW_SLOTS`] slots,
/// one row per writer (see the module docs for the two write modes).
/// Cloning is shallow (an `Arc` bump); every clone sees the same
/// counts.
#[derive(Clone, Debug)]
pub struct CounterBlock {
    rows: Arc<[Row]>,
}

impl CounterBlock {
    /// A zeroed block of `rows` rows: one per process id for a block
    /// with owned slots, [`thread_rows`] for a shared-mode block.
    ///
    /// # Panics
    ///
    /// If `rows == 0`.
    pub fn new(rows: usize) -> CounterBlock {
        assert!(rows > 0, "a counter block needs at least one row");
        CounterBlock {
            rows: (0..rows)
                .map(|_| CachePadded::new(Default::default()))
                .collect(),
        }
    }

    /// Adds `n` to `slot` of row `row`, whose only writer is the
    /// caller: a relaxed load and store, no locked instruction.
    ///
    /// # Panics
    ///
    /// If `row` or `slot` is out of range.
    #[inline]
    pub fn add_owned(&self, row: usize, slot: usize, n: u64) {
        let c = &self.rows[row][slot];
        c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
    }

    /// Raises `slot` of the caller's own row `row` to at least `v`.
    ///
    /// # Panics
    ///
    /// If `row` or `slot` is out of range.
    #[inline]
    pub fn max_owned(&self, row: usize, slot: usize, v: u64) {
        let c = &self.rows[row][slot];
        if v > c.load(Ordering::Relaxed) {
            c.store(v, Ordering::Relaxed);
        }
    }

    /// The calling thread's cell of `slot` (the modulo only runs for
    /// blocks with fewer rows than [`thread_rows`]).
    #[inline]
    fn home(&self, slot: usize) -> &AtomicU64 {
        let (row, rows) = (home_row(), self.rows.len());
        &self.rows[if row < rows { row } else { row % rows }][slot]
    }

    /// Adds `n` to `slot` from any thread: one relaxed `fetch_add` on
    /// the thread's home row.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    #[inline]
    pub fn add(&self, slot: usize, n: u64) {
        self.home(slot).fetch_add(n, Ordering::Relaxed);
    }

    /// Raises `slot` to at least `v` from any thread (a relaxed
    /// `fetch_max` on the thread's home row).
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    #[inline]
    pub fn max(&self, slot: usize, v: u64) {
        self.home(slot).fetch_max(v, Ordering::Relaxed);
    }

    /// The total of `slot` over all rows.
    pub fn sum(&self, slot: usize) -> u64 {
        self.rows
            .iter()
            .map(|r| r[slot].load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }

    /// The largest value of `slot` over all rows (for slots written
    /// with [`CounterBlock::max_owned`] / [`CounterBlock::max`]).
    pub fn peak(&self, slot: usize) -> u64 {
        self.rows
            .iter()
            .map(|r| r[slot].load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Zeroes every slot of every row. Racy against writers: call it
    /// while the object is quiescent for exact zeros.
    pub fn reset(&self) {
        let cells = self.rows.iter().flat_map(|row| row.iter());
        cells.for_each(|c| c.store(0, Ordering::Relaxed));
    }

    /// A [`Counter`] view of `slot` — what `attach_metrics` registers,
    /// so the export reads the object's own count.
    ///
    /// # Panics
    ///
    /// If `slot` is out of range.
    pub fn counter(&self, slot: usize) -> Counter {
        assert!(slot < ROW_SLOTS, "counter slot out of range");
        Counter {
            block: self.clone(),
            slot,
        }
    }
}

/// A monotone event counter: one slot of a [`CounterBlock`]. Cloning
/// is shallow; every clone observes the same value.
///
/// [`Registry::counter`] makes counters in shared mode, so
/// [`Counter::add`] is safe from any thread. A counter an object
/// registered for its own statistics is written by the object in
/// owned mode — read it, do not add to it.
#[derive(Clone)]
pub struct Counter {
    block: CounterBlock,
    slot: usize,
}

impl Counter {
    /// Adds `n`. Wait-free: one relaxed `fetch_add` on the calling
    /// thread's home row.
    #[inline]
    pub fn add(&self, n: u64) {
        self.block.add(self.slot, n);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total (sum over rows; monotone between reads).
    #[must_use]
    pub fn value(&self) -> u64 {
        self.block.sum(self.slot)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A last-write-wins instantaneous value (stored as `f64` bits in one
/// atomic). Clones share the value.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge. Wait-free (one relaxed store).
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A latency recorder backed by a [`LogHistogram`] (≤6.25% relative
/// quantile error, wait-free recording). Clones share the histogram.
///
/// [`Registry::timer`] makes shared timers: [`Timer::record`] is safe
/// from any thread. An object that times its own operations builds an
/// owned timer ([`Timer::owned`]) with one row per process id, records
/// with [`Timer::record_owned`], and registers it with
/// [`Registry::register_timer`]; its rows are allocated at each
/// process's first record.
#[derive(Clone)]
pub struct Timer {
    hist: Arc<LogHistogram>,
}

impl Timer {
    fn new() -> Timer {
        Timer {
            hist: Arc::new(LogHistogram::new()),
        }
    }

    /// A timer with one owned row per process id in `0..rows` (plus the
    /// shared row [`Timer::record`] writes to).
    #[must_use]
    pub fn owned(rows: usize) -> Timer {
        Timer {
            hist: Arc::new(LogHistogram::with_owned_rows(rows)),
        }
    }

    /// Records one duration sample from any thread.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.hist.record(d);
    }

    /// Records one sample in nanoseconds from any thread.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.hist.record_ns(ns);
    }

    /// Records one duration sample into row `row`, whose only writer is
    /// the caller: a relaxed load and store per word, no locked
    /// instruction.
    ///
    /// # Panics
    ///
    /// If `row` is not below the `rows` given to [`Timer::owned`].
    #[inline]
    pub fn record_owned(&self, row: usize, d: Duration) {
        self.hist.record_owned(row, d);
    }

    /// Times a closure and records its wall duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed());
        out
    }

    /// A point-in-time percentile summary.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        self.hist.snapshot()
    }
}

impl std::fmt::Debug for Timer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Timer(count={})", self.snapshot().count)
    }
}

/// A polled gauge: evaluated at snapshot time.
type PolledFn = Box<dyn Fn() -> f64 + Send + Sync>;

#[derive(Default)]
struct Inner {
    counters: Mutex<Vec<(String, Counter)>>,
    gauges: Mutex<Vec<(String, Gauge)>>,
    polled: Mutex<Vec<(String, PolledFn)>>,
    timers: Mutex<Vec<(String, Timer)>>,
}

/// A named collection of metrics. Cloning is shallow; all clones feed
/// the same snapshot. Registration takes a short-lived lock (do it at
/// setup time); recording into the returned handles never locks.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// `true` for names Prometheus accepts: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn register<T: Clone>(table: &Mutex<Vec<(String, T)>>, name: &str, make: impl FnOnce() -> T) -> T {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, existing)) = table.iter().find(|(n, _)| n == name) {
        return existing.clone();
    }
    let made = make();
    table.push((name.to_owned(), made.clone()));
    made
}

/// Registers `value` under `name`, replacing any entry of that name.
fn replace<T>(table: &Mutex<Vec<(String, T)>>, name: &str, value: T) {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let mut table = table.lock().unwrap_or_else(|e| e.into_inner());
    match table.iter_mut().find(|(n, _)| n == name) {
        Some(entry) => entry.1 = value,
        None => table.push((name.to_owned(), value)),
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or retrieves) the counter named `name`.
    ///
    /// Idempotent: a second registration under the same name returns a
    /// handle to the same counter, so independent components can share
    /// a series without coordination.
    ///
    /// # Panics
    ///
    /// If `name` is not a valid Prometheus metric name
    /// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub fn counter(&self, name: &str) -> Counter {
        register(&self.inner.counters, name, || {
            CounterBlock::new(thread_rows()).counter(0)
        })
    }

    /// Registers `counter` — typically an object's own statistic, from
    /// [`CounterBlock::counter`] — under `name`, replacing any counter
    /// of that name, so [`Registry::counter`] and every snapshot read
    /// the object's count directly instead of a mirror.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::counter`]).
    pub fn register_counter(&self, name: &str, counter: Counter) {
        replace(&self.inner.counters, name, counter);
    }

    /// Registers (or retrieves) the gauge named `name`. See
    /// [`Registry::counter`] for naming and idempotence.
    pub fn gauge(&self, name: &str) -> Gauge {
        register(&self.inner.gauges, name, Gauge::new)
    }

    /// Registers (or retrieves) the timer named `name`. See
    /// [`Registry::counter`] for naming and idempotence.
    pub fn timer(&self, name: &str) -> Timer {
        register(&self.inner.timers, name, Timer::new)
    }

    /// Registers `timer` — typically an object's own, from
    /// [`Timer::owned`] — under `name`, replacing any timer of that
    /// name (see [`Registry::register_counter`]).
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::counter`]).
    pub fn register_timer(&self, name: &str, timer: Timer) {
        replace(&self.inner.timers, name, timer);
    }

    /// Registers a *polled* gauge: `f` runs at every snapshot and its
    /// return value is reported under `name`. Re-registering a name
    /// replaces the closure.
    ///
    /// # Panics
    ///
    /// If `name` is invalid (see [`Registry::counter`]).
    pub fn gauge_fn(&self, name: &str, f: impl Fn() -> f64 + Send + Sync + 'static) {
        replace(&self.inner.polled, name, Box::new(f));
    }

    /// Registers the build-identity and uptime series:
    ///
    /// * `cso_build_info` — always `1` (a presence marker, scrapeable
    ///   as "the process is up and identified");
    /// * `cso_build_version_major` / `_minor` / `_patch` — the crate
    ///   version, spread over three series because the registry is
    ///   label-free by design;
    /// * `cso_feature_trace` / `cso_feature_chaos` /
    ///   `cso_feature_model` — `1` when the corresponding compile-time
    ///   capability was enabled for this build, else `0`;
    /// * `cso_process_uptime_seconds` — polled; seconds since this
    ///   method ran (call it once at startup so the gauge tracks
    ///   process lifetime).
    pub fn register_build_info(&self) {
        self.gauge("cso_build_info").set(1.0);
        let mut parts = env!("CARGO_PKG_VERSION")
            .split('.')
            .map(|p| p.parse::<u64>().unwrap_or(0));
        for name in [
            "cso_build_version_major",
            "cso_build_version_minor",
            "cso_build_version_patch",
        ] {
            self.gauge(name).set(parts.next().unwrap_or(0) as f64);
        }
        for (name, enabled) in [
            ("cso_feature_trace", cfg!(feature = "trace")),
            ("cso_feature_chaos", cfg!(feature = "chaos")),
            ("cso_feature_model", cfg!(feature = "model")),
        ] {
            self.gauge(name).set(f64::from(u8::from(enabled)));
        }
        let start = Instant::now();
        self.gauge_fn("cso_process_uptime_seconds", move || {
            start.elapsed().as_secs_f64()
        });
    }

    /// Registers the `cso_trace_ring_dropped` polled gauge: probe
    /// events lost to ring wrap-around since the last `probe::clear()`
    /// (always `0` without the `trace` feature). Surfacing the drop
    /// count means a truncated trace is visible on the dashboard, not
    /// just in the collected artifact.
    pub fn register_probe_drop_gauge(&self) {
        self.gauge_fn("cso_trace_ring_dropped", || {
            cso_trace::probe::dropped() as f64
        });
    }

    /// A point-in-time view of every registered metric, sorted by
    /// name. See the module docs for the consistency model.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters: BTreeMap<String, u64> = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, c)| (n.clone(), c.value()))
            .collect();
        let mut gauges: BTreeMap<String, f64> = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        for (name, f) in self
            .inner
            .polled
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            gauges.insert(name.clone(), f());
        }
        let timers: BTreeMap<String, HistSnapshot> = self
            .inner
            .timers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(n, t)| (n.clone(), t.snapshot()))
            .collect();
        Snapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            timers: timers.into_iter().collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(
            f,
            "Registry({} counters, {} gauges, {} timers)",
            s.counters.len(),
            s.gauges.len(),
            s.timers.len()
        )
    }
}

/// A point-in-time view of a [`Registry`], ready for export. All three
/// lists are sorted by metric name.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, polled gauges included.
    pub gauges: Vec<(String, f64)>,
    /// `(name, summary)` per timer.
    pub timers: Vec<(String, HistSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spawns `threads` threads that each add one `per_thread` times
    /// to `c`.
    fn hammer(c: &Counter, threads: usize, per_thread: u64) {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn counter_sums_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("ops_total");
        hammer(&c, 8, 10_000);
        assert_eq!(c.value(), 80_000);
        assert_eq!(
            reg.snapshot().counters,
            vec![("ops_total".to_owned(), 80_000)]
        );
        // A block with fewer rows than threads: home rows alias, and
        // the shared-mode `fetch_add` still sums exactly.
        let narrow = CounterBlock::new(1).counter(3);
        let threads = thread_rows() + 3;
        hammer(&narrow, threads, 10_000);
        assert_eq!(narrow.value(), threads as u64 * 10_000);
    }

    #[test]
    fn owned_rows_sum_and_peak() {
        let block = CounterBlock::new(4);
        let handles: Vec<_> = (0..4)
            .map(|proc| {
                let block = block.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        block.add_owned(proc, 0, 1);
                        block.max_owned(proc, 1, (proc * 1_000 + i) as u64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(block.sum(0), 4_000);
        assert_eq!(block.peak(1), 3_999);
        let view = block.counter(0);
        block.reset();
        assert_eq!(view.value(), 0);
        assert_eq!(block.peak(1), 0);
    }

    #[test]
    fn registered_counters_are_the_objects_own() {
        let reg = Registry::new();
        let block = CounterBlock::new(2);
        reg.counter("obj_ops_total").add(5);
        reg.register_counter("obj_ops_total", block.counter(2));
        block.add_owned(1, 2, 7);
        assert_eq!(reg.counter("obj_ops_total").value(), 7);
        assert_eq!(
            reg.snapshot().counters,
            vec![("obj_ops_total".to_owned(), 7)]
        );
    }

    #[test]
    fn thread_rows_is_a_bounded_power_of_two() {
        let rows = thread_rows();
        assert!(rows.is_power_of_two() && rows <= 16);
        assert_eq!(rows, thread_rows());
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.value(), 7, "same series");
        assert_eq!(reg.snapshot().counters.len(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("no spaces allowed");
    }

    #[test]
    fn gauges_and_polled_gauges_snapshot() {
        let reg = Registry::new();
        reg.gauge("ewma").set(0.25);
        reg.gauge_fn("polled", || 42.0);
        let snap = reg.snapshot();
        assert_eq!(
            snap.gauges,
            vec![("ewma".to_owned(), 0.25), ("polled".to_owned(), 42.0)]
        );
    }

    #[test]
    fn timer_snapshots_quantiles() {
        let reg = Registry::new();
        let t = reg.timer("fast_ns");
        for i in 1..=100 {
            t.record_ns(i * 1000);
        }
        let snap = t.snapshot();
        assert_eq!(snap.count, 100);
        assert!(snap.p50_ns >= 50_000 && snap.p50_ns <= 56_000, "{snap:?}");
        let out = t.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(t.snapshot().count, 101);
    }

    #[test]
    fn registered_timers_are_the_objects_own() {
        let reg = Registry::new();
        reg.timer("obj_ns").record_ns(5);
        let own = Timer::owned(2);
        reg.register_timer("obj_ns", own.clone());
        own.record_owned(1, Duration::from_nanos(700));
        own.record_owned(0, Duration::from_nanos(300));
        let snap = reg.snapshot();
        assert_eq!(snap.timers.len(), 1);
        assert_eq!(snap.timers[0].1.count, 2, "the replaced timer is gone");
        assert_eq!(snap.timers[0].1.max_ns, 700);
        assert_eq!(reg.timer("obj_ns").snapshot().count, 2);
    }

    #[test]
    fn probe_drop_gauge_is_wired() {
        let reg = Registry::new();
        reg.register_probe_drop_gauge();
        let snap = reg.snapshot();
        let (name, v) = &snap.gauges[0];
        assert_eq!(name, "cso_trace_ring_dropped");
        // 0 in un-traced builds; >= 0 in traced builds (other tests in
        // this process may have wrapped rings).
        assert!(*v >= 0.0);
    }

    #[test]
    fn build_info_reports_identity_features_and_uptime() {
        let reg = Registry::new();
        reg.register_build_info();
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.gauges
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing gauge {name}"))
                .1
        };
        assert_eq!(get("cso_build_info"), 1.0);
        let version = format!(
            "{}.{}.{}",
            get("cso_build_version_major"),
            get("cso_build_version_minor"),
            get("cso_build_version_patch")
        );
        assert_eq!(version, "0.1.0");
        for feature in ["trace", "chaos", "model"] {
            let v = get(&format!("cso_feature_{feature}"));
            assert!(v == 0.0 || v == 1.0, "{feature}: {v}");
        }
        assert_eq!(
            get("cso_feature_trace"),
            f64::from(u8::from(cfg!(feature = "trace")))
        );
        assert!(get("cso_process_uptime_seconds") >= 0.0);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("z_total");
        reg.counter("a_total");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }
}
