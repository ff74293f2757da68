//! Ready-made sequential specifications for the paper's objects.

pub mod deque;
pub mod queue;
pub mod register;
pub mod relaxed;
pub mod stack;
