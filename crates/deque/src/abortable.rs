//! The HLM deque as an abortable object (single-attempt operations).

use std::marker::PhantomData;

use cso_core::{Abortable, Aborted, BatchCounters, BatchStats};
use cso_memory::bits::Bits32;
use cso_memory::fail_point;
use cso_memory::packed::{DequeState, DequeWord};
use cso_memory::reg::Reg64;
use cso_metrics::{thread_rows, CounterBlock};
use cso_trace::{probe, Event};

use crate::outcome::{DequeOp, DequePopOutcome, DequePushOutcome, DequeResponse, End};

/// Slots of the deque's counter block (shared mode: the attempts
/// carry no process id).
const ATTEMPTS: usize = 0;
const ABORTS: usize = 1;

/// One attempt of an HLM deque operation (the body of the
/// obstruction-free loop), packaged as an [`Abortable`] object.
///
/// The array `A[0..=m]` (with `m = capacity + 1`) always matches
/// `LN⁺ DATA* RN⁺`; `A[0]` stays `LN` and `A[m]` stays `RN` forever
/// (the sentinels). An operation:
///
/// 1. **scans** for its boundary (leftmost `RN` for right-end
///    operations, rightmost `LN` for left-end ones), remembering the
///    neighbour word read on the way;
/// 2. for the `Full`/`Empty` answers, **re-validates** both boundary
///    words (sequence numbers make re-reads conclusive) and
///    linearizes at the validated instant;
/// 3. otherwise performs the HLM two-`C&S`: *bump* the neighbour's
///    sequence number, then convert the boundary slot. Any failed
///    `C&S` aborts — and the bump alone changes no abstract state, so
///    aborts are effect-free.
///
/// Solo attempts never abort; concurrent attempts at either end may
/// abort each other (even push-vs-push at *opposite* ends when the
/// deque is near-empty — the boundaries touch), which is exactly why
/// naive retrying yields only obstruction-freedom.
///
/// ```
/// use cso_deque::{AbortableDeque, DequePushOutcome, DequePopOutcome, End};
///
/// let deque: AbortableDeque<u32> = AbortableDeque::new(4);
/// assert_eq!(deque.try_push(End::Right, 7), Ok(DequePushOutcome::Pushed));
/// assert_eq!(deque.try_pop(End::Left), Ok(DequePopOutcome::Popped(7)));
/// assert_eq!(deque.try_pop(End::Right), Ok(DequePopOutcome::Empty));
/// ```
#[derive(Debug)]
pub struct AbortableDeque<V> {
    slots: Box<[Reg64]>,
    /// Attempt/abort counters (slots [`ATTEMPTS`], [`ABORTS`]).
    counts: CounterBlock,
    batch: BatchCounters,
    _values: PhantomData<V>,
}

impl<V: Bits32> AbortableDeque<V> {
    /// Creates an empty deque over a `capacity + 2`-slot arena.
    ///
    /// Capacity is shared between the two ends per the linear-HLM
    /// rules: each end can absorb as many pushes as there are nulls
    /// on its side. Initially the nulls split as evenly as possible
    /// (left gets the extra slot when `capacity` is odd).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `capacity > 60_000`.
    #[must_use]
    pub fn new(capacity: usize) -> AbortableDeque<V> {
        assert!(capacity > 0, "deque capacity must be positive");
        assert!(capacity <= 60_000, "deque capacity out of range");
        let m = capacity + 1;
        // LN block: indices 0..=capacity/2 + (odd bonus); RN the rest.
        let left_block = 1 + capacity.div_ceil(2);
        let slots = (0..=m)
            .map(|i| {
                let state = if i < left_block {
                    DequeState::LeftNull
                } else {
                    DequeState::RightNull
                };
                Reg64::new(
                    DequeWord {
                        state,
                        seq: 0,
                        value: 0,
                    }
                    .pack(),
                )
            })
            .collect();
        AbortableDeque {
            slots,
            counts: CounterBlock::new(thread_rows()),
            batch: BatchCounters::new(),
            _values: PhantomData,
        }
    }

    /// The total value capacity of the arena.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len() - 2
    }

    /// Racy snapshot of the number of stored values (exact only in
    /// quiescence).
    #[must_use]
    pub fn len(&self) -> usize {
        (0..self.slots.len())
            .filter(|&i| DequeWord::unpack(self.slots[i].read()).state == DequeState::Data)
            .count()
    }

    /// Racy emptiness snapshot.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn word(&self, i: usize) -> DequeWord {
        DequeWord::unpack(self.slots[i].read())
    }

    /// Finds the right boundary: the leftmost `RN` index `k` plus the
    /// neighbour word `A[k-1]` read just before it. `None` on a torn
    /// scan (concurrent restructuring) — the caller aborts.
    fn right_boundary(&self) -> Option<(usize, DequeWord, DequeWord)> {
        let mut prev = self.word(0);
        if prev.state == DequeState::RightNull {
            return None; // A[0] must be LN; torn read under concurrency
        }
        for k in 1..self.slots.len() {
            let cur = self.word(k);
            if cur.state == DequeState::RightNull {
                return Some((k, prev, cur));
            }
            prev = cur;
        }
        None
    }

    /// Finds the left boundary: the rightmost `LN` index `j` plus the
    /// neighbour word `A[j+1]` read just before it.
    fn left_boundary(&self) -> Option<(usize, DequeWord, DequeWord)> {
        let m = self.slots.len() - 1;
        let mut next = self.word(m);
        if next.state == DequeState::LeftNull {
            return None;
        }
        for j in (0..m).rev() {
            let cur = self.word(j);
            if cur.state == DequeState::LeftNull {
                return Some((j, cur, next));
            }
            next = cur;
        }
        None
    }

    /// One push attempt at `end`.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥, no effect) when a concurrent operation
    /// interfered. Never aborts solo.
    pub fn try_push(&self, end: End, value: V) -> Result<DequePushOutcome, Aborted> {
        self.counts.add(ATTEMPTS, 1);
        fail_point!("deque::push", {
            self.counts.add(ABORTS, 1);
            return Err(Aborted);
        });
        let result = match end {
            End::Right => self.try_push_right(value),
            End::Left => self.try_push_left(value),
        };
        if result.is_err() {
            self.counts.add(ABORTS, 1);
            probe!(Event::CasFail(match end {
                End::Right => "deque::right",
                End::Left => "deque::left",
            }));
        }
        result
    }

    /// One pop attempt at `end`.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] (⊥, no effect) when a concurrent operation
    /// interfered. Never aborts solo.
    pub fn try_pop(&self, end: End) -> Result<DequePopOutcome<V>, Aborted> {
        self.counts.add(ATTEMPTS, 1);
        fail_point!("deque::pop", {
            self.counts.add(ABORTS, 1);
            return Err(Aborted);
        });
        let result = match end {
            End::Right => self.try_pop_right(),
            End::Left => self.try_pop_left(),
        };
        if result.is_err() {
            self.counts.add(ABORTS, 1);
            probe!(Event::CasFail(match end {
                End::Right => "deque::right",
                End::Left => "deque::left",
            }));
        }
        result
    }

    fn try_push_right(&self, value: V) -> Result<DequePushOutcome, Aborted> {
        let (k, prev, cur) = self.right_boundary().ok_or(Aborted)?;
        if k == self.slots.len() - 1 {
            // Only the right sentinel remains: Full, if the boundary
            // is real — validate both words (seq numbers make equal
            // re-reads conclusive; both held at the instant between).
            if self.word(k - 1) == prev && self.word(k) == cur {
                return Ok(DequePushOutcome::Full);
            }
            return Err(Aborted);
        }
        // The HLM two-C&S: bump the neighbour, then take the slot.
        if !self.slots[k - 1].cas(prev.pack(), prev.bumped().pack()) {
            return Err(Aborted);
        }
        let data = DequeWord {
            state: DequeState::Data,
            seq: cur.seq.wrapping_add(1),
            value: value.to_bits(),
        };
        if self.slots[k].cas(cur.pack(), data.pack()) {
            Ok(DequePushOutcome::Pushed)
        } else {
            Err(Aborted)
        }
    }

    fn try_push_left(&self, value: V) -> Result<DequePushOutcome, Aborted> {
        let (j, cur, next) = self.left_boundary().ok_or(Aborted)?;
        if j == 0 {
            if self.word(j + 1) == next && self.word(j) == cur {
                return Ok(DequePushOutcome::Full);
            }
            return Err(Aborted);
        }
        if !self.slots[j + 1].cas(next.pack(), next.bumped().pack()) {
            return Err(Aborted);
        }
        let data = DequeWord {
            state: DequeState::Data,
            seq: cur.seq.wrapping_add(1),
            value: value.to_bits(),
        };
        if self.slots[j].cas(cur.pack(), data.pack()) {
            Ok(DequePushOutcome::Pushed)
        } else {
            Err(Aborted)
        }
    }

    fn try_pop_right(&self) -> Result<DequePopOutcome<V>, Aborted> {
        let (k, prev, cur) = self.right_boundary().ok_or(Aborted)?;
        if prev.state == DequeState::LeftNull {
            // Nothing between the blocks: Empty, validated.
            if self.word(k - 1) == prev && self.word(k) == cur {
                return Ok(DequePopOutcome::Empty);
            }
            return Err(Aborted);
        }
        // Bump the RN first, then reclaim the data slot (HLM order).
        if !self.slots[k].cas(cur.pack(), cur.bumped().pack()) {
            return Err(Aborted);
        }
        let hole = DequeWord {
            state: DequeState::RightNull,
            seq: prev.seq.wrapping_add(1),
            value: 0,
        };
        if self.slots[k - 1].cas(prev.pack(), hole.pack()) {
            Ok(DequePopOutcome::Popped(V::from_bits(prev.value)))
        } else {
            Err(Aborted)
        }
    }

    fn try_pop_left(&self) -> Result<DequePopOutcome<V>, Aborted> {
        let (j, cur, next) = self.left_boundary().ok_or(Aborted)?;
        if next.state == DequeState::RightNull {
            if self.word(j + 1) == next && self.word(j) == cur {
                return Ok(DequePopOutcome::Empty);
            }
            return Err(Aborted);
        }
        if !self.slots[j].cas(cur.pack(), cur.bumped().pack()) {
            return Err(Aborted);
        }
        let hole = DequeWord {
            state: DequeState::LeftNull,
            seq: next.seq.wrapping_add(1),
            value: 0,
        };
        if self.slots[j + 1].cas(next.pack(), hole.pack()) {
            Ok(DequePopOutcome::Popped(V::from_bits(next.value)))
        } else {
            Err(Aborted)
        }
    }

    /// Attempt/abort counters.
    #[must_use]
    pub fn abort_counts(&self) -> (u64, u64) {
        (self.counts.sum(ATTEMPTS), self.counts.sum(ABORTS))
    }

    /// Combining-batch totals observed through the
    /// [`Abortable::batch_begin`] / [`Abortable::batch_end`] hooks
    /// (all zero unless a combining transformation drives this deque).
    #[must_use]
    pub fn batch_stats(&self) -> BatchStats {
        self.batch.snapshot()
    }
}

impl<V: Bits32> Abortable for AbortableDeque<V> {
    type Op = DequeOp<V>;
    type Response = DequeResponse<V>;

    fn try_apply(&self, op: &DequeOp<V>) -> Result<DequeResponse<V>, Aborted> {
        match op {
            DequeOp::Push(end, v) => self.try_push(*end, *v).map(DequeResponse::Push),
            DequeOp::Pop(end) => self.try_pop(*end).map(DequeResponse::Pop),
        }
    }

    fn batch_begin(&self, pending: usize) {
        self.batch.begin(pending);
    }

    fn batch_end(&self, applied: usize) {
        self.batch.end(applied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_memory::backoff::XorShift64;

    #[test]
    fn deque_semantics_solo() {
        let d: AbortableDeque<u32> = AbortableDeque::new(4);
        assert!(d.is_empty());
        assert_eq!(d.try_push(End::Right, 1), Ok(DequePushOutcome::Pushed));
        assert_eq!(d.try_push(End::Right, 2), Ok(DequePushOutcome::Pushed));
        assert_eq!(d.try_push(End::Left, 0), Ok(DequePushOutcome::Pushed));
        assert_eq!(d.len(), 3);
        // Content is now 0 1 2, left to right.
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(0)));
        assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Popped(2)));
        assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Popped(1)));
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Empty));
        assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Empty));
        let (attempts, aborts) = d.abort_counts();
        assert_eq!(attempts, 8);
        assert_eq!(aborts, 0, "solo attempts never abort");
    }

    #[test]
    fn linear_full_semantics_per_side() {
        // Capacity 2: arena LN LN RN RN (left block 2, right block 2).
        let d: AbortableDeque<u32> = AbortableDeque::new(2);
        assert_eq!(d.try_push(End::Right, 1), Ok(DequePushOutcome::Pushed));
        // The right block is down to its sentinel: right side full...
        assert_eq!(d.try_push(End::Right, 2), Ok(DequePushOutcome::Full));
        // ...but the left side still has a spare null.
        assert_eq!(d.try_push(End::Left, 0), Ok(DequePushOutcome::Pushed));
        assert_eq!(d.try_push(End::Left, 9), Ok(DequePushOutcome::Full));
        assert_eq!(d.len(), 2);
        // Popping right frees right-side space again.
        assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Popped(1)));
        assert_eq!(d.try_push(End::Right, 5), Ok(DequePushOutcome::Pushed));
    }

    #[test]
    fn pops_restore_space_on_the_popping_side() {
        let d: AbortableDeque<u32> = AbortableDeque::new(4);
        for v in 0..2 {
            assert!(d.try_push(End::Right, v).unwrap().is_pushed());
        }
        // Left pops migrate the boundary: left space grows.
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(0)));
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(1)));
        // Left block is now larger; pushes on the left still work.
        assert!(d.try_push(End::Left, 7).unwrap().is_pushed());
        assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Popped(7)));
    }

    #[test]
    fn used_as_stack_from_either_end() {
        let d: AbortableDeque<i32> = AbortableDeque::new(6);
        for v in 1..=3 {
            d.try_push(End::Right, v).unwrap();
        }
        for v in (1..=3).rev() {
            assert_eq!(d.try_pop(End::Right), Ok(DequePopOutcome::Popped(v)));
        }
        for v in 1..=3 {
            d.try_push(End::Left, v).unwrap();
        }
        for v in (1..=3).rev() {
            assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(v)));
        }
    }

    #[test]
    fn used_as_queue_across_ends() {
        let d: AbortableDeque<u32> = AbortableDeque::new(4);
        // Enqueue right, dequeue left = FIFO, within right-side space.
        d.try_push(End::Right, 1).unwrap();
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(1)));
        d.try_push(End::Right, 2).unwrap();
        assert_eq!(d.try_pop(End::Left), Ok(DequePopOutcome::Popped(2)));
    }

    #[test]
    fn abortable_trait_round_trips() {
        let d: AbortableDeque<u32> = AbortableDeque::new(4);
        let resp = d.try_apply(&DequeOp::Push(End::Left, 3)).unwrap();
        assert_eq!(resp.expect_push(), DequePushOutcome::Pushed);
        let resp = d.try_apply(&DequeOp::Pop(End::Right)).unwrap();
        assert_eq!(resp.expect_pop(), DequePopOutcome::Popped(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = AbortableDeque::<u32>::new(0);
    }

    /// Solo differential test against the sequential reference, over
    /// randomized operation sequences.
    #[test]
    fn random_ops_match_sequential_spec() {
        let mut rng = XorShift64::new(0xDE9E_CAFE);
        for _ in 0..256u64 {
            let deque: AbortableDeque<u16> = AbortableDeque::new(6);
            let mut reference = crate::seqspec::SeqDeque::new(6);
            let len = (rng.next_u64() % 200) as usize;
            for _ in 0..len {
                let word = rng.next_u64();
                let end = if word & 2 == 0 { End::Left } else { End::Right };
                let v = (word >> 2) as u16;
                if word & 1 == 0 {
                    let got = deque.try_push(end, v).expect("solo never aborts");
                    assert_eq!(got, reference.push(end, v));
                } else {
                    let got = deque.try_pop(end).expect("solo never aborts");
                    assert_eq!(got, reference.pop(end));
                }
            }
            assert_eq!(deque.len(), reference.len());
        }
    }
}

/// The HLM arena's representation invariant on the real deque, over
/// the schedules of racing attempts at both ends: at quiescence the
/// slots read `LN⁺ DATA* RN⁺` — a left-null block with its sentinel, the
/// values, a right-null block with its sentinel — and the values are
/// exactly what a solo drain then pops.
#[cfg(all(test, feature = "model"))]
mod model_invariants {
    use super::*;
    use cso_sched::{spawn, Explorer};
    use std::sync::Arc;

    /// The values left to right; panics unless the arena is
    /// `LN⁺ DATA* RN⁺`.
    fn arena_values(deque: &AbortableDeque<u32>) -> Vec<u32> {
        let words: Vec<DequeWord> = deque
            .slots
            .iter()
            .map(|s| DequeWord::unpack(s.peek()))
            .collect();
        let left = words
            .iter()
            .take_while(|w| w.state == DequeState::LeftNull)
            .count();
        let data = words[left..]
            .iter()
            .take_while(|w| w.state == DequeState::Data)
            .count();
        let right = &words[left + data..];
        assert!(
            left >= 1
                && !right.is_empty()
                && right.iter().all(|w| w.state == DequeState::RightNull),
            "LN+ DATA* RN+ violated: {words:?}"
        );
        words[left..left + data].iter().map(|w| w.value).collect()
    }

    #[test]
    fn arena_is_ln_data_rn() {
        let report = Explorer::exhaustive()
            .with_preemption_bound(Some(3))
            .explore(|| {
                let deque = Arc::new(AbortableDeque::<u32>::new(3));
                deque.try_push(End::Right, 5).unwrap();
                let child = {
                    let deque = Arc::clone(&deque);
                    spawn(move || {
                        let _ = deque.try_push(End::Left, 2);
                        let _ = deque.try_pop(End::Right);
                    })
                };
                let _ = deque.try_push(End::Right, 1);
                let _ = deque.try_pop(End::Left);
                child.join();
                let content = arena_values(&deque);
                let mut drained = Vec::new();
                while let DequePopOutcome::Popped(v) = deque.try_pop(End::Left).expect("solo") {
                    drained.push(v);
                }
                assert_eq!(content, drained);
                assert!(arena_values(&deque).is_empty());
            });
        report.assert_ok();
        assert!(report.exhausted, "{report}");
        assert_eq!(report.pruned, 0, "{report}");
    }
}
