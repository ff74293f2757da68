//! Log-bucketed latency histograms (HDR-style), std-only.
//!
//! A [`LogHistogram`] keeps one counter per *log-linear* bucket:
//! values below 16 ns get exact buckets; above that, each power of two
//! is split into 16 linear sub-buckets, bounding the relative error of
//! any reported quantile by 1/16 (6.25%) — the same precision/footprint
//! trade HdrHistogram makes at 4 significant bits.
//!
//! # Rows
//!
//! The counters live in cache-padded *rows*, one per writer, each
//! holding all 976 bucket `AtomicU64`s plus the exact count, sum and
//! max (≈7.8 KiB per row). A histogram has `n` **owned** rows (built
//! with [`LogHistogram::with_owned_rows`]) and one **shared** row:
//!
//! * an owned row `row` has a single writer, which records with
//!   [`LogHistogram::record_owned`]: a relaxed load and store per
//!   word, no locked instruction, and no line shared with any other
//!   writer — the per-writer rule of `cso_metrics::CounterBlock`;
//! * the shared row takes [`LogHistogram::record_ns`] from any number
//!   of threads: four relaxed atomic RMWs (bucket, count, sum, max).
//!
//! Every row is allocated at its writer's first record, so a histogram
//! that never fires costs a few pointers. [`LogHistogram::snapshot`]
//! sums the allocated rows; a snapshot taken mid-recording is a
//! consistent-enough view for percentile reporting.
//!
//! Unlike the [`probe`](crate::probe) machinery this module is **always
//! compiled** — it is plain data, costs nothing unless used, and the
//! bench harness needs it in un-traced builds to report per-path
//! latency tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use cso_memory::CachePadded;

/// Exact buckets cover `0..LINEAR_LIMIT`; log-linear buckets above.
const LINEAR_LIMIT: u64 = 16;
/// Sub-buckets per power of two (4 significant bits).
const SUB_BUCKETS: usize = 16;
/// 16 exact + 16 per msb for msb in 4..=63.
const NUM_BUCKETS: usize = LINEAR_LIMIT as usize + (64 - 4) * SUB_BUCKETS;

/// Maps a value to its bucket index. Total order preserving.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_LIMIT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4 here
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    (msb - 4) * SUB_BUCKETS + LINEAR_LIMIT as usize + sub
}

/// The largest value a bucket can hold — the representative reported
/// for quantiles falling in it (conservative: never under-reports).
fn bucket_upper_bound(idx: usize) -> u64 {
    if idx < LINEAR_LIMIT as usize {
        return idx as u64;
    }
    let rel = idx - LINEAR_LIMIT as usize;
    let msb = rel / SUB_BUCKETS + 4;
    let sub = (rel % SUB_BUCKETS) as u64;
    // Bucket covers [base + sub*width, base + (sub+1)*width). The top
    // bucket's exclusive end is 2^64, which does not fit in a u64 —
    // saturate so its representative is u64::MAX rather than a wrap to
    // zero (which would report the largest samples as the smallest).
    let base = 1u64 << msb;
    let width = 1u64 << (msb - 4);
    match base.checked_add((sub + 1) * width) {
        Some(end) => end - 1,
        None => u64::MAX,
    }
}

/// One writer's counters: every bucket plus the exact count, sum and
/// max.
struct Row {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Row {
    fn boxed() -> Box<CachePadded<Row>> {
        Box::new(CachePadded::new(Row {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }
}

/// Adds `n` to a cell whose only writer is the caller: a relaxed load
/// and store, no locked instruction.
#[inline]
fn bump_owned(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// A concurrent log-bucketed histogram of `u64` samples (nanoseconds
/// by convention — [`LogHistogram::record`] takes a [`Duration`]).
/// See the module docs for its owned and shared rows.
pub struct LogHistogram {
    /// The owned rows `0..n`, then the shared row; each allocated at
    /// its first record.
    rows: Box<[OnceLock<Box<CachePadded<Row>>>]>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram with only the shared row, for
    /// [`record_ns`](Self::record_ns) from any thread.
    #[must_use]
    pub fn new() -> Self {
        Self::with_owned_rows(0)
    }

    /// An empty histogram with `n` owned rows, one per writer id in
    /// `0..n` (see [`record_owned`](Self::record_owned)), plus
    /// the shared row. Allocates no row yet.
    #[must_use]
    pub fn with_owned_rows(n: usize) -> Self {
        LogHistogram {
            rows: (0..=n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Row `idx`, allocated on first use.
    #[inline]
    fn row(&self, idx: usize) -> &Row {
        self.rows[idx].get_or_init(Row::boxed)
    }

    /// The rows allocated so far.
    fn live_rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter_map(|r| r.get().map(|r| &***r))
    }

    /// How many rows have been allocated: one per writer that has
    /// recorded at least once.
    #[cfg(test)]
    fn allocated_rows(&self) -> usize {
        self.live_rows().count()
    }

    /// Records one sample, in nanoseconds, into the shared row from any
    /// thread. Wait-free: four relaxed atomic RMWs (bucket, count, sum,
    /// max).
    pub fn record_ns(&self, ns: u64) {
        let row = self.row(self.rows.len() - 1);
        row.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        row.count.fetch_add(1, Ordering::Relaxed);
        row.sum.fetch_add(ns, Ordering::Relaxed);
        row.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// [`record_owned`](Self::record_owned) in nanoseconds.
    #[inline]
    fn record_owned_ns(&self, row: usize, ns: u64) {
        assert!(row + 1 < self.rows.len(), "owned row out of range");
        let row = self.row(row);
        bump_owned(&row.buckets[bucket_index(ns)], 1);
        bump_owned(&row.count, 1);
        bump_owned(&row.sum, ns);
        if ns > row.max.load(Ordering::Relaxed) {
            row.max.store(ns, Ordering::Relaxed);
        }
    }

    /// Records one sample as a [`Duration`] (saturating at `u64` ns)
    /// into the shared row.
    pub fn record(&self, d: Duration) {
        self.record_ns(saturating_ns(d));
    }

    /// Records one sample as a [`Duration`] (saturating at `u64` ns)
    /// into owned row `row`, whose only writer is the caller: a relaxed
    /// load and store per word.
    ///
    /// # Panics
    ///
    /// If `row` is not below the `n` given at construction.
    #[inline]
    pub fn record_owned(&self, row: usize, d: Duration) {
        self.record_owned_ns(row, saturating_ns(d));
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live_rows()
            .all(|r| r.count.load(Ordering::Relaxed) == 0)
    }

    /// A point-in-time percentile summary over every allocated row.
    ///
    /// Taken with relaxed loads, so a snapshot racing concurrent
    /// records may miss in-flight samples or observe a sample in the
    /// buckets before it is reflected in the sum (and vice versa);
    /// quantiles are computed against the bucket mass actually seen, so
    /// the result is always a valid summary of *some* recent prefix of
    /// samples. Quantile values are bucket upper bounds: within 6.25%
    /// above the true sample. The rows are summed one at a time into a
    /// single bucket array, so the cost is one pass per allocated row.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; NUM_BUCKETS];
        let (mut sum, mut max) = (0u64, 0u64);
        for row in self.live_rows() {
            for (c, b) in counts.iter_mut().zip(row.buckets.iter()) {
                *c += b.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(row.sum.load(Ordering::Relaxed));
            max = max.max(row.max.load(Ordering::Relaxed));
        }
        let total: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if total == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, clamped.
            let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
            let mut seen = 0u64;
            for (idx, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(idx);
                }
            }
            bucket_upper_bound(NUM_BUCKETS - 1)
        };
        HistSnapshot {
            count: total,
            mean_ns: sum.checked_div(total).unwrap_or(0),
            p50_ns: quantile(0.50),
            p90_ns: quantile(0.90),
            p99_ns: quantile(0.99),
            max_ns: max,
        }
    }

    /// Resets every allocated row to zero (rows stay allocated). Not
    /// atomic with respect to concurrent recorders; reset between
    /// measurement cells.
    pub fn clear(&self) {
        for row in self.live_rows() {
            for b in row.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
            row.count.store(0, Ordering::Relaxed);
            row.sum.store(0, Ordering::Relaxed);
            row.max.store(0, Ordering::Relaxed);
        }
    }
}

/// `d` in nanoseconds, saturating at `u64::MAX`.
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A point-in-time summary of a [`LogHistogram`], in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean (exact: kept as a running sum, not bucketed).
    pub mean_ns: u64,
    /// Median (bucket upper bound; ≤6.25% above the true sample).
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Largest sample (exact).
    pub max_ns: u64,
}

impl HistSnapshot {
    /// Formats nanoseconds with an adaptive unit (`ns`/`µs`/`ms`/`s`),
    /// matching the bench harness's table style.
    #[must_use]
    pub fn fmt_ns(ns: u64) -> String {
        if ns < 1_000 {
            format!("{ns}ns")
        } else if ns < 1_000_000 {
            format!("{:.2}µs", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            format!("{:.2}ms", ns as f64 / 1e6)
        } else {
            format!("{:.2}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..16 {
            h.record_ns(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 16);
        assert_eq!(s.max_ns, 15);
        assert_eq!(s.p50_ns, 7, "8th of 16 samples is value 7, exact bucket");
    }

    #[test]
    fn bucket_index_is_monotonic_and_in_range() {
        let mut values: Vec<u64> = Vec::new();
        for shift in 0..64 {
            for off in [0u64, 1, 3] {
                values.push((1u64 << shift).saturating_add(off));
            }
        }
        values.sort_unstable();
        let mut prev = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= prev, "index must not decrease: v={v}");
            prev = idx;
            assert!(
                bucket_upper_bound(idx) >= v,
                "upper bound {} < value {v}",
                bucket_upper_bound(idx)
            );
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let h = LogHistogram::new();
        // All samples identical: every quantile must land within 1/16.
        for _ in 0..1000 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        for q in [s.p50_ns, s.p90_ns, s.p99_ns] {
            assert!(q >= 1_000_000, "upper-bound representative");
            assert!(
                q <= 1_000_000 + 1_000_000 / 16 + 1,
                "q={q} exceeds 1/16 relative error"
            );
        }
        assert_eq!(s.max_ns, 1_000_000, "max is exact");
        assert_eq!(s.mean_ns, 1_000_000, "mean is exact");
    }

    #[test]
    fn top_bucket_saturates_instead_of_overflowing() {
        // The last bucket's exclusive end is 2^64; its representative
        // must saturate to u64::MAX, not wrap (a wrap would make the
        // largest samples report as the smallest).
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);

        let h = LogHistogram::new();
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.max_ns, u64::MAX, "max is exact");
        for q in [s.p50_ns, s.p90_ns, s.p99_ns] {
            assert_eq!(q, u64::MAX, "top-bucket quantile saturates");
        }
        // Every bucket's representative must cover the bucket.
        for idx in 0..NUM_BUCKETS - 1 {
            assert!(bucket_upper_bound(idx) < bucket_upper_bound(idx + 1));
        }
    }

    #[test]
    fn quantile_error_bounded_on_log_uniform_samples() {
        // Property test: across log-uniformly distributed samples (the
        // regime latency data lives in), every reported quantile must
        // sit in [true, true * (1 + 1/16)] — the documented ≤6.25%
        // relative error of 16 sub-buckets per power of two.
        let mut rng = cso_memory::backoff::XorShift64::new(0x5eed_cafe);
        for round in 0..8u64 {
            let h = LogHistogram::new();
            let mut samples: Vec<u64> = Vec::with_capacity(4096);
            for _ in 0..4096 {
                // Pick an exponent 4..=47, then a uniform mantissa.
                let e = 4 + (rng.next_u64() % 44) as u32;
                let v = (1u64 << e) | (rng.next_u64() & ((1u64 << e) - 1));
                samples.push(v);
                h.record_ns(v);
            }
            samples.sort_unstable();
            let s = h.snapshot();
            for (q, got) in [(0.50, s.p50_ns), (0.90, s.p90_ns), (0.99, s.p99_ns)] {
                let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
                let truth = samples[rank - 1];
                assert!(got >= truth, "round {round} q{q}: {got} < true {truth}");
                assert!(
                    got <= truth + truth / 16 + 1,
                    "round {round} q{q}: {got} exceeds 6.25% above true {truth}"
                );
            }
            assert_eq!(s.max_ns, *samples.last().unwrap(), "max is exact");
        }
    }

    #[test]
    fn percentiles_order_correctly() {
        let h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record_ns(i * 100);
        }
        let s = h.snapshot();
        assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns);
        // Quantiles are bucket *upper bounds*, so p99 may exceed the
        // exact max — but never by more than the 1/16 bucket width.
        assert!(s.p99_ns <= s.max_ns + s.max_ns / 16 + 1);
        // p50 of uniform 100..=1_000_000 is ~500_000; allow bucket width.
        assert!((450_000..=600_000).contains(&s.p50_ns), "p50={}", s.p50_ns);
        assert!(s.p99_ns >= 950_000, "p99={}", s.p99_ns);
    }

    #[test]
    fn concurrent_recording_loses_nothing_at_quiescence() {
        let h = std::sync::Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record_ns(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
    }

    #[test]
    fn owned_rows_snapshot_like_one_row() {
        // Two writers record the same seeded samples, each into its
        // own row; the summary must equal one shared row fed both.
        let mut rng = cso_memory::backoff::XorShift64::new(0x0dd_5eed);
        let samples: std::sync::Arc<Vec<u64>> = std::sync::Arc::new(
            (0..5_000)
                .map(|_| 16 + rng.next_u64() % 2_000_000)
                .collect(),
        );
        let owned = std::sync::Arc::new(LogHistogram::with_owned_rows(2));
        let writers: Vec<_> = (0..2)
            .map(|row| {
                let (owned, samples) = (owned.clone(), samples.clone());
                std::thread::spawn(move || {
                    for &v in samples.iter() {
                        owned.record_owned_ns(row, v);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let shared = LogHistogram::new();
        for &v in samples.iter().chain(samples.iter()) {
            shared.record_ns(v);
        }
        assert_eq!(owned.allocated_rows(), 2, "only the owned rows fired");
        let (got, want) = (owned.snapshot(), shared.snapshot());
        assert_eq!(got.count, 10_000);
        assert_eq!(got, want);
        owned.clear();
        assert!(owned.is_empty());
        assert_eq!(owned.snapshot().count, 0);
    }

    #[test]
    fn unrecorded_histogram_allocates_nothing() {
        let h = LogHistogram::with_owned_rows(4);
        assert_eq!(h.allocated_rows(), 0);
        assert!(h.is_empty());
        h.clear();
        assert_eq!(h.allocated_rows(), 0, "clear allocates nothing");
        assert_eq!(
            h.snapshot(),
            HistSnapshot {
                count: 0,
                mean_ns: 0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
                max_ns: 0
            }
        );
        h.record_owned_ns(3, 500);
        assert_eq!(h.allocated_rows(), 1, "a row per writer that fired");
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "owned row out of range")]
    fn the_shared_row_takes_no_owned_records() {
        LogHistogram::with_owned_rows(2).record_owned_ns(2, 1);
    }

    #[test]
    fn clear_resets() {
        let h = LogHistogram::new();
        h.record_ns(42);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(
            h.snapshot(),
            HistSnapshot {
                count: 0,
                mean_ns: 0,
                p50_ns: 0,
                p90_ns: 0,
                p99_ns: 0,
                max_ns: 0
            }
        );
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(HistSnapshot::fmt_ns(999), "999ns");
        assert_eq!(HistSnapshot::fmt_ns(1_500), "1.50µs");
        assert_eq!(HistSnapshot::fmt_ns(2_500_000), "2.50ms");
        assert_eq!(HistSnapshot::fmt_ns(3_000_000_000), "3.00s");
    }
}
