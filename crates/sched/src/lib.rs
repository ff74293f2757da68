//! # cso-sched — deterministic-interleaving runtime
//!
//! A loom-style controlled scheduler that drives *real* threads
//! running *production* code through exhaustively enumerated (or
//! seeded-random, or replayed) interleavings. It is the engine behind
//! the `model` feature of `cso-memory`: when that feature is on, every
//! counted register access in `cso_memory::reg` (and every uncounted
//! peek and protocol-word access in `cso_memory::proto`) calls
//! [`yield_access`] and every spin-wait calls [`yield_spin`], turning
//! each shared-memory step into a scheduling decision this crate
//! controls.
//!
//! ## How it works
//!
//! - **Serialization.** A [`Explorer::explore`] session runs the test
//!   body as model thread 0 and [`spawn`]s further model threads as
//!   real OS threads, but only one holds the *grant* at a time: at
//!   every yield point the running thread parks and the scheduler
//!   picks the next, so interleavings of counted accesses are fully
//!   under scheduler control. Code *between* yield points executes as
//!   one atomic block of the schedule — which is exactly the paper's
//!   cost model, where only counted base-object accesses are steps.
//! - **DFS over a `Path`.** Each execution records its branch
//!   decisions; after the body finishes, the deepest branch with an
//!   untried alternative is stepped and the body re-runs from the top
//!   (the program is its own checkpoint). Forced moves are not
//!   recorded, keeping traces short.
//! - **Bounded preemption.** An involuntary switch away from a
//!   runnable, non-spinning thread counts against a small budget
//!   (CHESS-style): most real bugs need 1–2 preemptions, and the bound
//!   turns an exponential space into a polynomial one.
//! - **Spin discipline.** A thread that reports a spin-wait is
//!   scheduled again only when no fresh thread is runnable, pruning
//!   stutter re-reads (sound for safety oracles) and guaranteeing the
//!   grant escapes uncounted busy-wait loops.
//! - **Replay.** A violation prints a dot-separated branch trace;
//!   [`Explorer::replay`] forces a new run through it, reproducing the
//!   failure deterministically.
//! - **Crashes.** [`crash_after`] stops a spawned thread forever after
//!   k more yield points; a test loops k to crash an operation
//!   at every step. A survivor blocked behind the corpse is pruned by
//!   the step budget and shows up in [`Report::pruned`].
//!
//! ## Determinism contract
//!
//! Bodies must be schedule-deterministic: no wall-clock branching, no
//! OS randomness. Under the `model` feature `cso-memory` routes its
//! entropy (`XorShift64::from_entropy`) and chaos fail-point draws
//! through [`entropy_seed`] / [`chaos_draw`], so the production
//! structures satisfy the contract unchanged. A diverging replay
//! panics with a "not schedule-deterministic" message rather than
//! exploring garbage.

mod explore;
mod path;
mod rng;
mod session;

pub use explore::{Explorer, Mode, Report, Violation};
pub use path::{format_trace, parse_trace, Decision};
pub use rng::SplitMix64;
pub use session::{
    active, chaos_draw, crash_after, entropy_seed, spawn, yield_access, yield_spin, JoinHandle,
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    /// A deliberately racy read-modify-write: `yield_access` before
    /// each shared access stands in for the instrumented registers.
    fn racy_increment(x: &AtomicU64) {
        yield_access();
        let v = x.load(Ordering::SeqCst);
        yield_access();
        x.store(v + 1, Ordering::SeqCst);
    }

    fn lost_update_body() {
        let x = Arc::new(AtomicU64::new(0));
        let t = {
            let x = Arc::clone(&x);
            spawn(move || racy_increment(&x))
        };
        racy_increment(&x);
        t.join();
        yield_access();
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
    }

    #[test]
    fn exhaustive_finds_lost_update() {
        let report = Explorer::exhaustive().explore(lost_update_body);
        let v = report.assert_violation();
        assert!(v.message.contains("lost update"), "got: {}", v.message);
        assert!(!v.trace.is_empty(), "branching schedule must leave a trace");
    }

    #[test]
    fn replay_reproduces_the_violation() {
        let found = Explorer::exhaustive().explore(lost_update_body);
        let v = found.assert_violation().clone();
        let replayed = Explorer::replay(&v.trace).explore(lost_update_body);
        let rv = replayed.assert_violation();
        assert_eq!(rv.message, v.message);
        assert_eq!(rv.trace, v.trace);
    }

    #[test]
    fn zero_preemptions_cannot_find_it() {
        // With no involuntary switches each thread's read-modify-write
        // runs atomically, so the race is invisible — evidence the
        // bound really prunes and the finder above really interleaves.
        let report = Explorer::exhaustive()
            .with_preemption_bound(Some(0))
            .explore(lost_update_body);
        assert!(report.violation.is_none(), "{report}");
        assert!(report.exhausted);
    }

    #[test]
    fn correct_code_exhausts_clean() {
        let report = Explorer::exhaustive().explore(|| {
            let x = Arc::new(AtomicU64::new(0));
            let t = {
                let x = Arc::clone(&x);
                spawn(move || {
                    yield_access();
                    x.fetch_add(1, Ordering::SeqCst);
                })
            };
            yield_access();
            x.fetch_add(1, Ordering::SeqCst);
            t.join();
            yield_access();
            assert_eq!(x.load(Ordering::SeqCst), 2);
        });
        report.assert_ok();
        assert!(report.exhausted);
        assert!(report.schedules > 1, "two threads must branch");
    }

    /// Every interleaving of two threads of two steps each is run:
    /// all C(4, 2) = 6 orders of the steps show up. (Thread exit and
    /// join are scheduling points too, so some orders recur.)
    #[test]
    fn exhaustive_covers_every_interleaving_of_two_two_step_threads() {
        let orders = Arc::new(std::sync::Mutex::new(Vec::new()));
        let report = {
            let orders = Arc::clone(&orders);
            Explorer::exhaustive()
                .with_preemption_bound(None)
                .explore(move || {
                    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
                    let steps = |log: &std::sync::Mutex<Vec<u8>>, me: u8| {
                        for _ in 0..2 {
                            yield_access();
                            log.lock().unwrap().push(me);
                        }
                    };
                    let t = {
                        let log = Arc::clone(&log);
                        spawn(move || steps(&log, 1))
                    };
                    steps(&log, 0);
                    t.join();
                    let order = log.lock().unwrap().clone();
                    orders.lock().unwrap().push(order);
                })
        };
        report.assert_ok();
        assert!(report.exhausted, "{report}");
        let mut orders = orders.lock().unwrap().clone();
        assert_eq!(orders.len(), report.schedules);
        orders.sort();
        orders.dedup();
        let all: Vec<Vec<u8>> = vec![
            vec![0, 0, 1, 1],
            vec![0, 1, 0, 1],
            vec![0, 1, 1, 0],
            vec![1, 0, 0, 1],
            vec![1, 0, 1, 0],
            vec![1, 1, 0, 0],
        ];
        assert_eq!(orders, all);
    }

    #[test]
    fn solo_body_has_a_single_schedule() {
        let report = Explorer::exhaustive().explore(|| {
            let x = AtomicU64::new(0);
            for _ in 0..5 {
                yield_access();
                x.fetch_add(1, Ordering::SeqCst);
            }
            assert_eq!(x.load(Ordering::SeqCst), 5);
        });
        report.assert_ok();
        assert!(report.exhausted);
        assert_eq!(report.schedules, 1);
    }

    /// A thread that busy-waits through counted accesses (not
    /// `yield_spin`) diverges in the schedule that never runs its
    /// partner; the step budget prunes that schedule instead of
    /// hanging, and the others still finish.
    #[test]
    fn step_budget_prunes_divergent_schedules() {
        let report = Explorer::exhaustive()
            .with_preemption_bound(Some(1))
            .with_max_steps(64)
            .explore(|| {
                let flag = Arc::new(AtomicBool::new(false));
                let t = {
                    let flag = Arc::clone(&flag);
                    spawn(move || {
                        yield_access();
                        flag.store(true, Ordering::SeqCst);
                    })
                };
                loop {
                    yield_access();
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                }
                t.join();
            });
        report.assert_ok();
        assert!(report.exhausted, "{report}");
        assert!(report.pruned > 0, "the divergent schedule: {report}");
        assert!(report.schedules > report.pruned, "{report}");
    }

    /// A one-shot CAS attempt (read, then CAS; ⊥ when the CAS fails):
    /// serial schedules never abort it, some interleaving does, and an
    /// abort always leaves the other attempt's effect in place.
    #[test]
    fn aborts_appear_only_in_interleaved_schedules() {
        fn attempt(x: &AtomicU64) -> bool {
            yield_access();
            let seen = x.load(Ordering::SeqCst);
            yield_access();
            x.compare_exchange(seen, seen + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        }
        let run = |bound: Option<usize>| {
            let aborted = Arc::new(AtomicBool::new(false));
            let report = {
                let aborted = Arc::clone(&aborted);
                Explorer::exhaustive()
                    .with_preemption_bound(bound)
                    .explore(move || {
                        let x = Arc::new(AtomicU64::new(0));
                        let t = {
                            let x = Arc::clone(&x);
                            spawn(move || attempt(&x))
                        };
                        let mine = attempt(&x);
                        let theirs = t.join();
                        let wins = u64::from(mine) + u64::from(theirs);
                        assert!(wins >= 1, "both attempts aborted");
                        assert_eq!(x.load(Ordering::SeqCst), wins, "⊥ took effect");
                        if wins < 2 {
                            aborted.store(true, Ordering::SeqCst);
                        }
                    })
            };
            report.assert_ok();
            assert!(report.exhausted, "{report}");
            aborted.load(Ordering::SeqCst)
        };
        assert!(!run(Some(0)), "a serial schedule aborted");
        assert!(run(None), "no interleaving aborted");
    }

    #[test]
    fn spin_waits_terminate() {
        // The waiter spins (uncounted busy-wait) until the flag flips;
        // without the yield discipline the DFS would either hang (the
        // spinner holds the grant forever) or blow up on stutter
        // branches. With it, exploration exhausts quickly.
        let report = Explorer::exhaustive().explore(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let t = {
                let flag = Arc::clone(&flag);
                spawn(move || {
                    while !flag.load(Ordering::SeqCst) {
                        assert!(yield_spin(), "must run under a session");
                    }
                })
            };
            yield_access();
            flag.store(true, Ordering::SeqCst);
            t.join();
        });
        report.assert_ok();
        assert!(report.exhausted);
    }

    #[test]
    fn random_mode_is_seed_deterministic() {
        let run = |seed| {
            Explorer::random(seed, 64)
                .explore(lost_update_body)
                .violation
                .map(|v| (v.schedule, v.trace))
        };
        let a = run(7);
        assert_eq!(a, run(7), "same seed, same outcome");
        assert!(a.is_some(), "64 random schedules should trip the race");
    }

    #[test]
    fn chaos_draws_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            Explorer::exhaustive()
                .with_seed(seed)
                .explore(move || {
                    for _ in 0..8 {
                        if chaos_draw(3) == Some(true) {
                            h.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
                .assert_ok();
            hits.load(Ordering::SeqCst)
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn entropy_is_deterministic_per_execution() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let record = {
            let seen = Arc::clone(&seen);
            move || {
                let s = entropy_seed().expect("inside a session");
                seen.lock().unwrap().push(s);
            }
        };
        Explorer::exhaustive().explore(&record).assert_ok();
        let first = seen.lock().unwrap().clone();
        seen.lock().unwrap().clear();
        Explorer::exhaustive().explore(&record).assert_ok();
        assert_eq!(*seen.lock().unwrap(), first);
    }

    #[test]
    fn hooks_are_noops_outside_sessions() {
        assert!(!active());
        yield_access(); // must not panic
        assert!(!yield_spin());
        assert_eq!(chaos_draw(2), None);
        assert_eq!(entropy_seed(), None);
    }

    /// A crashed thread stops at the chosen yield point and never runs
    /// again; teardown unwinds it without the body joining it.
    #[test]
    fn crashed_thread_stops_at_its_kth_yield_point() {
        for k in 0..4u64 {
            let report = Explorer::exhaustive().explore(move || {
                let x = Arc::new(AtomicU64::new(0));
                let _corpse = {
                    let x = Arc::clone(&x);
                    spawn(move || {
                        crash_after(k as usize);
                        for _ in 0..3 {
                            yield_access();
                            x.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                };
                // Let the victim run to its crash or its end.
                for _ in 0..8 {
                    yield_access();
                }
                assert!(x.load(Ordering::SeqCst) <= k.min(3));
            });
            report.assert_ok();
            assert_eq!(report.pruned, 0, "k={k}: {report}");
        }
    }

    /// A survivor that waits forever for a corpse is reported through
    /// the step budget (pruned), not as a hang or a violation.
    #[test]
    fn survivor_blocked_by_a_corpse_is_pruned() {
        let report = Explorer::exhaustive().with_max_steps(200).explore(|| {
            let held = Arc::new(AtomicBool::new(false));
            let _corpse = {
                let held = Arc::clone(&held);
                spawn(move || {
                    yield_access();
                    held.store(true, Ordering::SeqCst);
                    crash_after(0);
                    yield_access(); // dies holding the "lock"
                    held.store(false, Ordering::SeqCst);
                })
            };
            loop {
                yield_access();
                if held.load(Ordering::SeqCst) {
                    break;
                }
            }
            while held.load(Ordering::SeqCst) {
                yield_spin();
            }
        });
        report.assert_ok();
        assert!(report.exhausted, "{report}");
        assert!(report.pruned > 0, "the survivor must be blocked: {report}");
    }

    #[test]
    fn joining_a_corpse_is_a_deadlock() {
        let report = Explorer::exhaustive().explore(|| {
            let corpse = spawn(|| {
                crash_after(0);
                yield_access();
            });
            corpse.join();
        });
        let v = report.assert_violation();
        assert!(v.message.contains("deadlock"), "{}", v.message);
    }

    #[test]
    fn unjoined_children_are_drained() {
        // The body forgets to join; teardown must still let the child
        // finish rather than leaking a parked thread.
        let report = Explorer::exhaustive().with_max_schedules(8).explore(|| {
            let _ = spawn(|| {
                yield_access();
            });
        });
        report.assert_ok();
    }
}
