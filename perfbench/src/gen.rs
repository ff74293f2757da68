//! The seeded op-stream generator.
//!
//! Every worker issues *bursts*: `r` puts followed by `r` takes, with
//! `r` drawn from `1..=MAX_BURST`. A worker's own contribution to the
//! object's depth therefore stays in `0..=MAX_BURST`, so with `w`
//! workers the depth stays within `prefill..=prefill + w·MAX_BURST`
//! whatever the interleaving. A 50/50 random walk would instead drift
//! by √ops and, over a long run, into Full/Empty answers that change an
//! operation's cost mid-run.

/// Longest burst a worker issues.
pub const MAX_BURST: u32 = 32;

/// SplitMix64 (Steele, Lea & Flood): the benchmark's own seeded
/// generator, so its inputs do not change when the library does.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }
}

/// SplitMix64's finalizer: a bijective 64-bit mix.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One worker's burst lengths, fixed by the run's seed and the worker.
#[derive(Debug, Clone)]
pub struct Bursts(SplitMix64);

impl Bursts {
    /// The stream of `worker` under `seed`.
    pub fn new(seed: u64, worker: usize) -> Bursts {
        Bursts(SplitMix64::new(mix64(seed) ^ mix64(worker as u64 + 1)))
    }

    /// The next burst length, in `1..=MAX_BURST`.
    pub fn next_len(&mut self) -> u32 {
        1 + (self.0.next_u64() % u64::from(MAX_BURST)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed, worker| {
            let mut b = Bursts::new(seed, worker);
            (0..64).map(|_| b.next_len()).collect::<Vec<_>>()
        };
        assert_eq!(take(7, 0), take(7, 0));
        assert_ne!(take(7, 0), take(8, 0));
        assert_ne!(take(7, 0), take(7, 1));
    }

    #[test]
    fn lengths_cover_the_whole_range() {
        let mut b = Bursts::new(1, 0);
        let mut seen = [false; MAX_BURST as usize + 1];
        for _ in 0..10_000 {
            let r = b.next_len();
            assert!((1..=MAX_BURST).contains(&r));
            seen[r as usize] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    /// Interleaves the workers' streams one operation at a time in a
    /// seeded random order and checks the depth never leaves its bound.
    #[test]
    fn depth_stays_within_its_bound_under_any_interleaving() {
        const PREFILL: i64 = 4096;
        for seed in 0..20u64 {
            let workers = 1 + (seed % 4) as usize;
            // Per worker: the operations left in its current burst, as
            // (puts left, takes left).
            let mut gens: Vec<Bursts> = (0..workers).map(|w| Bursts::new(seed, w)).collect();
            let mut left = vec![(0u32, 0u32); workers];
            let mut order = SplitMix64::new(seed ^ 0xABCD);
            let mut depth = PREFILL;
            let bound = PREFILL + i64::from(MAX_BURST) * workers as i64;
            for _ in 0..200_000 {
                let w = (order.next_u64() % workers as u64) as usize;
                if left[w] == (0, 0) {
                    let r = gens[w].next_len();
                    left[w] = (r, r);
                }
                if left[w].0 > 0 {
                    left[w].0 -= 1;
                    depth += 1;
                } else {
                    left[w].1 -= 1;
                    depth -= 1;
                }
                assert!(
                    (PREFILL..=bound).contains(&depth),
                    "seed {seed}: depth {depth} left {PREFILL}..={bound}"
                );
            }
        }
    }
}
