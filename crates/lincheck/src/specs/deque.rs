//! Sequential specification of the bounded linear-HLM deque.
//!
//! The Herlihy–Luchangco–Moir deque stores its values in a fixed
//! arena `LN⁺ DATA* RN⁺`: a block of left nulls, the data, and a block
//! of right nulls, with one sentinel null at each wall. A push at one
//! end consumes a null on *that* side only, so it returns `Full` once
//! its side is down to the sentinel even when the other side still
//! has room; a pop returns the freed slot to its own side. This is
//! the specification `cso_deque::AbortableDeque` and `CsDeque`
//! linearize to (it mirrors `cso_deque::SeqDeque`, including the
//! initial split: the left side gets the odd slot).

use std::collections::VecDeque;

use crate::spec::SeqSpec;

/// One end of the deque (checker-side mirror of `cso_deque::End`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecEnd {
    /// The left end.
    Left,
    /// The right end.
    Right,
}

/// Deque operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecDequeOp {
    /// Push a value at an end.
    Push(SpecEnd, u32),
    /// Pop from an end.
    Pop(SpecEnd),
}

impl std::fmt::Display for SpecDequeOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecDequeOp::Push(end, v) => write!(f, "push_{end:?}({v})"),
            SpecDequeOp::Pop(end) => write!(f, "pop_{end:?}()"),
        }
    }
}

/// Deque responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecDequeResp {
    /// The value was pushed.
    Pushed,
    /// The pushing side was down to its sentinel.
    Full,
    /// The popped value.
    Popped(u32),
    /// The deque was empty.
    Empty,
}

impl std::fmt::Display for SpecDequeResp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecDequeResp::Pushed => write!(f, "ok"),
            SpecDequeResp::Full => write!(f, "full"),
            SpecDequeResp::Popped(v) => write!(f, "{v}"),
            SpecDequeResp::Empty => write!(f, "empty"),
        }
    }
}

/// The abstract arena: null counts per side and the data between.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DequeState {
    /// Left nulls, sentinel included.
    pub left_nulls: usize,
    /// Right nulls, sentinel included.
    pub right_nulls: usize,
    /// The values, left to right.
    pub items: VecDeque<u32>,
}

/// The linear-HLM deque specification over a `capacity + 2`-slot
/// arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DequeSpec {
    capacity: usize,
}

impl DequeSpec {
    /// A deque of capacity `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> DequeSpec {
        assert!(capacity > 0, "deque capacity must be positive");
        DequeSpec { capacity }
    }
}

impl SeqSpec for DequeSpec {
    type State = DequeState;
    type Op = SpecDequeOp;
    type Resp = SpecDequeResp;

    fn initial(&self) -> DequeState {
        let left = 1 + self.capacity.div_ceil(2);
        DequeState {
            left_nulls: left,
            right_nulls: self.capacity + 2 - left,
            items: VecDeque::new(),
        }
    }

    fn apply(&self, state: &DequeState, op: &SpecDequeOp) -> (DequeState, SpecDequeResp) {
        let mut next = state.clone();
        let resp = match *op {
            SpecDequeOp::Push(end, v) => {
                let nulls = match end {
                    SpecEnd::Left => &mut next.left_nulls,
                    SpecEnd::Right => &mut next.right_nulls,
                };
                if *nulls == 1 {
                    SpecDequeResp::Full
                } else {
                    *nulls -= 1;
                    match end {
                        SpecEnd::Left => next.items.push_front(v),
                        SpecEnd::Right => next.items.push_back(v),
                    }
                    SpecDequeResp::Pushed
                }
            }
            SpecDequeOp::Pop(end) => {
                let popped = match end {
                    SpecEnd::Left => next.items.pop_front(),
                    SpecEnd::Right => next.items.pop_back(),
                };
                match popped {
                    Some(v) => {
                        match end {
                            SpecEnd::Left => next.left_nulls += 1,
                            SpecEnd::Right => next.right_nulls += 1,
                        }
                        SpecDequeResp::Popped(v)
                    }
                    None => SpecDequeResp::Empty,
                }
            }
        };
        (next, resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_linearizable;
    use crate::history::History;

    #[test]
    fn per_side_space_and_both_end_order() {
        let spec = DequeSpec::new(2); // arena: LN LN RN RN
        let s = spec.initial();
        let (s, r) = spec.apply(&s, &SpecDequeOp::Push(SpecEnd::Right, 1));
        assert_eq!(r, SpecDequeResp::Pushed);
        let (s, r) = spec.apply(&s, &SpecDequeOp::Push(SpecEnd::Right, 2));
        assert_eq!(r, SpecDequeResp::Full, "right side is down to its sentinel");
        let (s, r) = spec.apply(&s, &SpecDequeOp::Push(SpecEnd::Left, 0));
        assert_eq!(r, SpecDequeResp::Pushed);
        let (s, r) = spec.apply(&s, &SpecDequeOp::Pop(SpecEnd::Right));
        assert_eq!(r, SpecDequeResp::Popped(1));
        let (s, r) = spec.apply(&s, &SpecDequeOp::Pop(SpecEnd::Right));
        assert_eq!(r, SpecDequeResp::Popped(0));
        let (_, r) = spec.apply(&s, &SpecDequeOp::Pop(SpecEnd::Left));
        assert_eq!(r, SpecDequeResp::Empty);
    }

    #[test]
    fn double_pop_of_one_value_is_not_linearizable() {
        let mut h = History::new();
        h.invoke(0, SpecDequeOp::Push(SpecEnd::Left, 7));
        h.ret(0, SpecDequeResp::Pushed);
        h.invoke(1, SpecDequeOp::Pop(SpecEnd::Left));
        h.invoke(2, SpecDequeOp::Pop(SpecEnd::Right));
        h.ret(1, SpecDequeResp::Popped(7));
        h.ret(2, SpecDequeResp::Popped(7));
        assert!(!check_linearizable(&DequeSpec::new(4), &h).is_linearizable());
    }
}
