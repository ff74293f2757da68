//! The correctness checks every run makes on the program's outputs.
//!
//! Recording every value of a run that moves hundreds of millions of
//! them would not fit in memory, so conservation compares *multiset
//! digests*: the count, the sum, and the sum of a bijective 64-bit mix
//! of the values put in, against those taken out. A lost, duplicated
//! or invented value changes the count or, when a loss and a duplicate
//! cancel out in the count, the mixed sum (with probability ~1 − 2⁻⁶⁴).

use crate::gen::mix64;

/// A multiset digest of 32-bit values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    count: u64,
    sum: u64,
    mixed: u64,
}

impl Digest {
    /// Adds one value to the multiset.
    #[inline]
    pub fn add(&mut self, v: u32) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(u64::from(v));
        self.mixed = self.mixed.wrapping_add(mix64(u64::from(v)));
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Digest) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.mixed = self.mixed.wrapping_add(other.mixed);
    }
}

/// Checks that what was put in (prefill and every stored value) was
/// taken out exactly once (popped during the run or drained after it).
pub fn conserved(stored: &Digest, removed: &Digest) -> Result<(), String> {
    if stored == removed {
        Ok(())
    } else {
        Err(format!(
            "conservation: {} values stored but {} taken out, or the values differ",
            stored.count, removed.count
        ))
    }
}

/// Checks that a single consumer sees a single producer's sequence
/// `0, 1, 2, …` in strict order, with nothing skipped or repeated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fifo {
    next: u32,
    violations: u64,
}

impl Fifo {
    /// Records the next value the consumer received.
    #[inline]
    pub fn see(&mut self, v: u32) {
        if v != self.next {
            self.violations += 1;
        }
        self.next = v.wrapping_add(1);
    }

    /// The verdict over every value seen so far.
    pub fn verdict(&self) -> Result<(), String> {
        if self.violations == 0 {
            Ok(())
        } else {
            Err(format!(
                "FIFO: {} values out of the producer's order",
                self.violations
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(values: &[u32]) -> Digest {
        let mut d = Digest::default();
        values.iter().for_each(|&v| d.add(v));
        d
    }

    #[test]
    fn order_does_not_matter() {
        assert!(conserved(&digest(&[1, 2, 3]), &digest(&[3, 1, 2])).is_ok());
    }

    #[test]
    fn loss_duplicate_and_substitution_fail() {
        let stored = digest(&[1, 2, 3, 4]);
        assert!(conserved(&stored, &digest(&[1, 2, 3])).is_err());
        assert!(conserved(&stored, &digest(&[1, 2, 3, 3])).is_err());
        // Same count and sum, different multiset.
        assert!(conserved(&stored, &digest(&[1, 2, 2, 5])).is_err());
    }

    #[test]
    fn fifo_accepts_the_sequence_and_rejects_a_swap() {
        let mut f = Fifo::default();
        (0..100).for_each(|v| f.see(v));
        assert!(f.verdict().is_ok());
        let mut f = Fifo::default();
        [0, 2, 1, 3].iter().for_each(|&v| f.see(v));
        assert!(f.verdict().is_err());
    }

    #[test]
    fn the_checks_hold_across_the_value_wrap() {
        // A long pipeline run's sequence wraps past u32::MAX.
        let mut f = Fifo {
            next: u32::MAX - 1,
            violations: 0,
        };
        [u32::MAX - 1, u32::MAX, 0, 1]
            .iter()
            .for_each(|&v| f.see(v));
        assert!(f.verdict().is_ok());
        // Values repeated after the wrap still balance as multisets.
        assert!(conserved(&digest(&[7, 7, 8]), &digest(&[8, 7, 7])).is_ok());
        assert!(conserved(&digest(&[7, 7, 8]), &digest(&[8, 8, 7])).is_err());
    }
}
