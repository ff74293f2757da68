//! Linearizability stress for the HLM deque family.
//!
//! The deque's sequential specification — the linear-HLM arena
//! semantics (per-side space) — is `cso_lincheck::specs::deque`,
//! plugged into the generic Wing–Gong checker. Aborted (⊥) attempts
//! are cancelled per the abortable-object contract; a secretly-effective abort (e.g. a push
//! whose first "bump" C&S changed abstract state) would make the
//! remaining history non-linearizable and fail here.

use cso::deque::{AbortableDeque, CsDeque, DequePopOutcome, DequePushOutcome, End};
use cso::lincheck::checker::check_linearizable;
use cso::lincheck::recorder::Recorder;
use cso::lincheck::specs::deque::{DequeSpec, SpecDequeOp, SpecDequeResp, SpecEnd};

const CAPACITY: usize = 4;
const THREADS: usize = 3;
const OPS: usize = 7;

/// The checker-side name of a deque end.
fn spec_end(end: End) -> SpecEnd {
    match end {
        End::Left => SpecEnd::Left,
        End::Right => SpecEnd::Right,
    }
}

#[test]
fn abortable_deque_histories_linearize() {
    let spec = DequeSpec::new(CAPACITY);
    for round in 0..200 {
        let deque: AbortableDeque<u32> = AbortableDeque::new(CAPACITY);
        let recorder: Recorder<SpecDequeOp, SpecDequeResp> = Recorder::new();
        std::thread::scope(|s| {
            for proc in 0..THREADS {
                let deque = &deque;
                let recorder = recorder.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        let end = if (proc + i) % 2 == 0 {
                            End::Left
                        } else {
                            End::Right
                        };
                        if (proc * 31 + i * 17 + round) % 3 != 0 {
                            let v = (round * 100 + proc * OPS + i) as u32;
                            recorder.invoke(proc, SpecDequeOp::Push(spec_end(end), v));
                            match deque.try_push(end, v) {
                                Ok(DequePushOutcome::Pushed) => {
                                    recorder.ret(proc, SpecDequeResp::Pushed)
                                }
                                Ok(DequePushOutcome::Full) => {
                                    recorder.ret(proc, SpecDequeResp::Full)
                                }
                                Err(_) => recorder.cancel(proc),
                            }
                        } else {
                            recorder.invoke(proc, SpecDequeOp::Pop(spec_end(end)));
                            match deque.try_pop(end) {
                                Ok(DequePopOutcome::Popped(v)) => {
                                    recorder.ret(proc, SpecDequeResp::Popped(v));
                                }
                                Ok(DequePopOutcome::Empty) => {
                                    recorder.ret(proc, SpecDequeResp::Empty)
                                }
                                Err(_) => recorder.cancel(proc),
                            }
                        }
                        if i % 2 == round % 2 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let history = recorder.finish();
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round}: deque history not linearizable"
        );
    }
}

#[test]
fn cs_deque_histories_linearize() {
    let spec = DequeSpec::new(CAPACITY);
    for round in 0..120 {
        let deque: CsDeque<u32> = CsDeque::new(CAPACITY, THREADS);
        let recorder: Recorder<SpecDequeOp, SpecDequeResp> = Recorder::new();
        std::thread::scope(|s| {
            for proc in 0..THREADS {
                let deque = &deque;
                let recorder = recorder.clone();
                s.spawn(move || {
                    for i in 0..OPS {
                        let end = if (proc + i) % 2 == 0 {
                            End::Left
                        } else {
                            End::Right
                        };
                        if (proc + i + round) % 2 == 0 {
                            let v = (round * 100 + proc * OPS + i) as u32;
                            recorder.invoke(proc, SpecDequeOp::Push(spec_end(end), v));
                            let resp = match deque.push(proc, end, v) {
                                DequePushOutcome::Pushed => SpecDequeResp::Pushed,
                                DequePushOutcome::Full => SpecDequeResp::Full,
                            };
                            recorder.ret(proc, resp);
                        } else {
                            recorder.invoke(proc, SpecDequeOp::Pop(spec_end(end)));
                            let resp = match deque.pop(proc, end) {
                                DequePopOutcome::Popped(v) => SpecDequeResp::Popped(v),
                                DequePopOutcome::Empty => SpecDequeResp::Empty,
                            };
                            recorder.ret(proc, resp);
                        }
                    }
                });
            }
        });
        let history = recorder.finish();
        assert!(
            check_linearizable(&spec, &history).is_linearizable(),
            "round {round}: cs-deque history not linearizable"
        );
    }
}
