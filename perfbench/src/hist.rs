//! Latency samples and their quantiles, per 100 ms window.
//!
//! A sample is the mean time per operation of a short stretch of
//! successful operations (see `drive::TIMED_OPS`). Workers record into
//! one of two shared histograms per op kind, chosen by the parity of
//! the current window. When a window ends the main thread moves its
//! samples out and takes each kind's p50 and p99 of that window; the
//! warm-up window is dropped. A run reports, per kind, the mean of its
//! windows' quantiles weighted by their sample counts, over the *clean*
//! windows (no worker lost its CPU for long).
//!
//! Why not quantiles of every sample pooled: the host drifts between a
//! faster and a slower state every few seconds, and a fast-path call
//! costs about a third more in the slow one, so the pooled samples form
//! two modes and their median sits between them, jumping from one to
//! the other as the share of time spent in each moves from run to run.
//! A window's median lies in one mode; the mean over windows moves by
//! the share of time spent in each, as throughput does.
//!
//! The run reports the mean over op kinds of each kind's quantile: when
//! puts and takes (or a producer and a consumer) cost differently, a
//! median over both would sit between two modes for the same reason.
//!
//! Buckets are exact to 1 ns below 2048 ns, then 64 per power of two
//! (under 1.6% error). Quantiles interpolate inside their bucket, so a
//! median of integer-nanosecond samples keeps its fractional digits.

use std::sync::atomic::{AtomicU32, Ordering};

/// The clean windows are used when they hold this many samples of every
/// op kind that has samples.
const MIN_SAMPLES: u64 = 1000;

const LINEAR_BITS: u32 = 11;
const LINEAR: u64 = 1 << LINEAR_BITS;
const SUB_BITS: u32 = 6;
const BUCKETS: usize = LINEAR as usize + ((64 - LINEAR_BITS as usize) << SUB_BITS);

fn index(ns: u64) -> usize {
    if ns < LINEAR {
        ns as usize
    } else {
        let e = 63 - ns.leading_zeros();
        let sub = (ns >> (e - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        LINEAR as usize + (((e - LINEAR_BITS) as usize) << SUB_BITS) + sub as usize
    }
}

/// The lower bound and width of bucket `i`.
fn bucket(i: usize) -> (f64, f64) {
    if (i as u64) < LINEAR {
        (i as f64, 1.0)
    } else {
        let j = i - LINEAR as usize;
        let e = (j >> SUB_BITS) as u32 + LINEAR_BITS;
        let sub = (j & ((1 << SUB_BITS) - 1)) as u64;
        let width = 1u64 << (e - SUB_BITS);
        (((1u64 << e) + sub * width) as f64, width as f64)
    }
}

/// Bucket counts, every bucket written at creation, so that the pages
/// are resident before anything is measured.
fn buckets<T>(zero: impl Fn() -> T) -> Vec<T> {
    (0..BUCKETS).map(|_| zero()).collect()
}

fn total(counts: &[u64]) -> u64 {
    counts.iter().sum()
}

/// The `q`-quantile of the samples counted in `counts`, or 0 if none.
fn quantile(counts: &[u64], q: f64) -> f64 {
    let rank = q.clamp(0.0, 1.0) * total(counts) as f64;
    let mut below = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 && (below + c) as f64 >= rank {
            let (lo, width) = bucket(i);
            return lo + width * (rank - below as f64) / c as f64;
        }
        below += c;
    }
    0.0
}

/// The histograms the workers record into: [window parity][op kind].
pub struct Live([Vec<AtomicU32>; 4]);

impl Live {
    pub fn new() -> Live {
        Live([(); 4].map(|_| buckets(|| AtomicU32::new(0))))
    }

    /// Records a sample of op `kind` (0 put, 1 take) taken in `window`.
    #[inline]
    pub fn record(&self, window: u32, kind: usize, ns: u64) {
        self.0[(window as usize & 1) * 2 + kind][index(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Quantiles of one op kind's windows: their sums weighted by each
/// window's sample count, and that count.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    samples: u64,
    p50: f64,
    p99: f64,
}

impl Sums {
    fn add(&mut self, o: &Sums) {
        self.samples += o.samples;
        self.p50 += o.p50;
        self.p99 += o.p99;
    }
}

/// A run's latency quantiles per op kind, owned by the main thread.
pub struct Kept {
    clean: [Sums; 2],
    unclean: [Sums; 2],
    /// One window's counts of one kind, reused from window to window.
    scratch: Vec<u64>,
}

impl Kept {
    pub fn new() -> Kept {
        Kept {
            clean: [Sums::default(); 2],
            unclean: [Sums::default(); 2],
            scratch: buckets(|| 0u64),
        }
    }

    /// Ends `window`: moves its samples out of `live`, whose buffers
    /// then serve window + 2, and keeps each kind's quantiles of the
    /// window. The warm-up window 0 is dropped.
    pub fn close(&mut self, live: &Live, window: u32, clean: bool) {
        let into = if clean {
            &mut self.clean
        } else {
            &mut self.unclean
        };
        for (kind, sums) in into.iter_mut().enumerate() {
            let from = &live.0[(window as usize & 1) * 2 + kind];
            for (slot, count) in from.iter().zip(self.scratch.iter_mut()) {
                *count = u64::from(slot.swap(0, Ordering::Relaxed));
            }
            let n = total(&self.scratch);
            if window > 0 && n > 0 {
                sums.add(&Sums {
                    samples: n,
                    p50: n as f64 * quantile(&self.scratch, 0.50),
                    p99: n as f64 * quantile(&self.scratch, 0.99),
                });
            }
        }
    }

    /// Adds another run's windows.
    pub fn absorb(&mut self, other: &Kept) {
        let pairs = self.clean.iter_mut().zip(&other.clean);
        for (a, b) in pairs.chain(self.unclean.iter_mut().zip(&other.unclean)) {
            a.add(b);
        }
    }

    /// The clean windows if they hold `MIN_SAMPLES` of every kind that
    /// has samples, else every window.
    fn used(&self) -> [Sums; 2] {
        let enough = self
            .clean
            .iter()
            .zip(&self.unclean)
            .all(|(c, u)| c.samples >= MIN_SAMPLES || c.samples + u.samples == 0);
        let mut used = self.clean;
        if !enough {
            used.iter_mut()
                .zip(&self.unclean)
                .for_each(|(a, u)| a.add(u));
        }
        used
    }

    /// Samples the quantiles are taken from.
    pub fn len(&self) -> u64 {
        self.used().iter().map(|s| s.samples).sum()
    }

    /// Op latency (p50, p99) in ns: see the module docs.
    pub fn quantiles(&self) -> (f64, f64) {
        let kinds: Vec<Sums> = self.used().into_iter().filter(|s| s.samples > 0).collect();
        if kinds.is_empty() {
            return (0.0, 0.0);
        }
        let n = kinds.len() as f64;
        let mean =
            |f: fn(&Sums) -> f64| kinds.iter().map(|s| f(s) / s.samples as f64).sum::<f64>() / n;
        (mean(|s| s.p50), mean(|s| s.p99))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for ns in [0u64, 1, 2047, 2048, 2049, 10_000, 1 << 20, u64::MAX / 3] {
            let (lo, width) = bucket(index(ns));
            assert!(lo <= ns as f64 && (ns as f64) < lo + width, "{ns}");
        }
        assert!(index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let mut c = buckets(|| 0u64);
        (1..=1000).for_each(|ns| c[index(ns)] += 1);
        assert!((quantile(&c, 0.5) - 500.0).abs() <= 1.0);
        assert!((quantile(&c, 0.99) - 990.0).abs() <= 1.0);
        let mut wide = buckets(|| 0u64);
        wide[index(1_000_000)] += 1;
        let q = quantile(&wide, 0.5);
        assert!((q - 1_000_000.0).abs() / 1_000_000.0 < 0.02, "{q}");
    }

    #[test]
    fn warm_up_and_unclean_windows_are_left_out_and_kinds_averaged() {
        let live = Live::new();
        let mut kept = Kept::new();
        for w in 0..6u32 {
            // Window 0 is warm-up and window 3 is unclean.
            let slow = if w == 0 || w == 3 { 10_000 } else { 0 };
            for i in 0..1000 {
                live.record(w, 0, 100 + i % 10 + slow);
                live.record(w, 1, 300 + i % 10 + slow);
            }
            kept.close(&live, w, w != 3);
        }
        assert_eq!(kept.len(), 2 * 4 * 1000);
        let (p50, p99) = kept.quantiles();
        // Puts ≈ 105, takes ≈ 305: the mean of the kinds.
        assert!((p50 - 205.0).abs() <= 2.0, "{p50}");
        assert!((p99 - 210.0).abs() <= 2.0, "{p99}");
    }

    #[test]
    fn too_few_clean_samples_use_every_window() {
        let live = Live::new();
        let mut kept = Kept::new();
        live.record(1, 0, 40);
        kept.close(&live, 1, true);
        live.record(2, 0, 44);
        kept.close(&live, 2, false);
        assert_eq!(kept.len(), 2);
        // The windows' medians are 40.5 and 44.5.
        assert!((kept.quantiles().0 - 42.5).abs() < 1e-9);
        assert_eq!(Kept::new().quantiles(), (0.0, 0.0));
    }

    #[test]
    fn fast_and_slow_windows_move_the_median_by_their_share() {
        let live = Live::new();
        let mut kept = Kept::new();
        // Windows 1-6 fast (~40 ns), 7-10 slow (~60 ns), 7 and 8 with
        // twice the samples. Pooled, the median would be a fast sample.
        for w in 1..=10u32 {
            let (ns, n) = match w {
                1..=6 => (40, 1000),
                7 | 8 => (60, 2000),
                _ => (60, 1000),
            };
            (0..n).for_each(|i| live.record(w, 0, ns + i % 2));
            kept.close(&live, w, true);
        }
        let (p50, _) = kept.quantiles();
        let expected = (6.0 * 1000.0 * 41.0 + 6000.0 * 61.0) / 12_000.0;
        assert!((p50 - expected).abs() < 0.01, "{p50} vs {expected}");
        // Both runs' windows, merged, weigh the same.
        let mut twice = Kept::new();
        twice.absorb(&kept);
        twice.absorb(&kept);
        assert_eq!(twice.len(), 2 * kept.len());
        assert!((twice.quantiles().0 - p50).abs() < 1e-9);
    }
}
