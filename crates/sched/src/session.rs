//! The controlled-scheduling session: real threads, one grant at a time.
//!
//! A session serializes a set of *model threads* (real OS threads) so
//! that exactly one runs at any moment. Every shared-memory access of
//! the counted registers (`cso_memory::reg` under the `model` feature)
//! is a **yield point**: the running thread pauses, the scheduler
//! picks who performs the next access (consulting the DFS [`Path`],
//! the seeded RNG, or a replayed trace), and the chosen thread runs
//! until *its* next yield point. Interleavings of counted accesses are
//! therefore fully controlled; code between two yield points (which
//! also include uncounted peeks and protocol-word accesses) executes
//! as an atomic block of the schedule.
//!
//! # Spin discipline
//!
//! Busy-wait loops (`Spinner`/`Backoff` in `cso_memory::backoff`)
//! report themselves via the spin hint, which marks the thread
//! *yielded*: it is not scheduled again while any non-yielded thread
//! is runnable. This is loom's treatment of `yield_now`, and it is
//! what keeps exhaustive exploration of spin loops finite — the
//! stuttering re-read branches (schedule the spinner again before
//! anything changed) are pruned, which is sound for safety oracles
//! because a failed re-check of an unchanged register has no effect.
//!
//! # Stopping
//!
//! A violation (any panic in the body or a spawned thread), a pruned
//! execution (step budget exceeded), or a deadlock (every live thread
//! blocked on a join) flips the session to a *stopping* state: parked
//! threads wake and unwind with a private sentinel panic, and
//! teardown code (drops) runs **free** — scheduling points become
//! no-ops while the thread is already panicking, so destructors never
//! double-panic through the scheduler.
//!
//! # Crashes
//!
//! [`crash_after`] arms the calling model thread to stop forever at a
//! chosen yield point: the paper's crash (§2.1), a process that simply
//! takes no more steps. A crashed thread is never scheduled again and
//! must not be joined. Survivors run on; one that waits forever for
//! the corpse spins until the step budget prunes the execution, which
//! is how a blocked survivor is reported. Once every other thread has
//! finished, teardown unwinds the corpse with the same sentinel.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use crate::path::{Decision, Path};
use crate::rng::{self, SplitMix64};

/// `State::active` value meaning "nobody holds the grant" (all model
/// threads finished).
const NO_ACTIVE: usize = usize::MAX;

/// Sentinel panic payload used to unwind model threads when the
/// session stops. Never surfaces to users: the spawn wrapper and the
/// explorer swallow it.
pub(crate) struct ModelAbort;

/// Why a session stopped before the body completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// A thread panicked — an oracle fired or the code under test hit
    /// a bug.
    Violation,
    /// The execution exceeded the per-schedule step budget.
    Pruned,
    /// Every unfinished thread was blocked (join cycle).
    Deadlock,
}

/// Run state of one model thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Run {
    /// Runnable (possibly parked awaiting the grant).
    Ready,
    /// Waiting for thread `.0` to finish (inside `JoinHandle::join`).
    Blocked(usize),
    /// Stopped forever by [`crash_after`]: never scheduled again.
    Crashed,
    /// Finished (or never started because the session stopped).
    Finished,
}

#[derive(Debug)]
struct Th {
    run: Run,
    /// Set by the spin hint; cleared when granted. Yielded threads are
    /// scheduled only when no fresh thread is runnable.
    yielded: bool,
    /// Entropy requests served to this thread (see
    /// [`Session::entropy_seed`]).
    entropy_ctr: u64,
    /// Yield points left before the thread crashes ([`crash_after`]).
    crash_in: Option<usize>,
}

impl Th {
    fn ready() -> Th {
        Th {
            run: Run::Ready,
            yielded: false,
            entropy_ctr: 0,
            crash_in: None,
        }
    }
}

/// How the session chooses at branch points.
#[derive(Debug, Default)]
pub(crate) enum Chooser {
    /// DFS over the [`Path`] (exhaustive mode).
    Dfs(Path),
    /// Seeded random choice (sweep mode).
    Random(SplitMix64),
    /// Forced decisions from a parsed failure trace.
    Replay {
        decisions: Vec<Decision>,
        pos: usize,
    },
    /// Placeholder after the explorer takes the chooser back.
    #[default]
    Taken,
}

/// Per-execution limits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Scheduling decisions before the execution is pruned.
    pub max_steps: usize,
    /// Involuntary context switches allowed (`None` = unbounded).
    pub preemption_bound: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct State {
    threads: Vec<Th>,
    active: usize,
    steps: usize,
    preemptions: usize,
    children_alive: usize,
    status: Option<Stop>,
    /// Set at teardown once only crashed threads are left: they wake
    /// and unwind.
    draining: bool,
    violation: Option<String>,
    chooser: Chooser,
    /// Branch decisions taken this execution, for trace printing.
    trace: Vec<Decision>,
    limits: Limits,
    /// Per-execution seed: chaos draws, random scheduling, and model
    /// entropy derive from it.
    seed: u64,
}

/// One exploration execution's shared scheduler state.
pub(crate) struct Session {
    mx: Mutex<State>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Session>, usize)>> = const { RefCell::new(None) };
}

/// The calling thread's session registration, if any.
pub(crate) fn current() -> Option<(Arc<Session>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(v: Option<(Arc<Session>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

/// Unwind out of a stopped session — unless the thread is already
/// panicking (teardown drops), in which case scheduling is a no-op.
fn bail() {
    if !thread::panicking() {
        panic::panic_any(ModelAbort);
    }
}

impl Session {
    pub(crate) fn new(limits: Limits, chooser: Chooser, seed: u64) -> Session {
        Session {
            mx: Mutex::new(State {
                threads: vec![Th::ready()],
                active: 0,
                steps: 0,
                preemptions: 0,
                children_alive: 0,
                status: None,
                draining: false,
                violation: None,
                chooser,
                trace: Vec::new(),
                limits,
                seed,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.mx.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Picks the next thread to run. `from` is the thread releasing
    /// the grant (it is a candidate iff still `Ready`). On success the
    /// grant has moved and waiters were notified.
    fn decide(&self, st: &mut State, from: usize) -> Result<(), Stop> {
        let enabled: Vec<usize> = (0..st.threads.len())
            .filter(|&i| st.threads[i].run == Run::Ready)
            .collect();
        if enabled.is_empty() {
            // Crashed threads never run again, so they neither count
            // as deadlocked nor keep the session alive.
            if st.threads.iter().any(|t| matches!(t.run, Run::Blocked(_))) {
                return Err(Stop::Deadlock);
            }
            st.active = NO_ACTIVE;
            self.cv.notify_all();
            return Ok(());
        }
        let fresh: Vec<usize> = enabled
            .iter()
            .copied()
            .filter(|&i| !st.threads[i].yielded)
            .collect();
        if fresh.is_empty() {
            // Every runnable thread is parked in a voluntary spin-wait.
            // Branching here would square the schedule space with each
            // poll pair, and charging the switch as a preemption pins a
            // busy-waiter until the step limit; neither models anything
            // real — stutter steps of busy-waiters commute. Rotate
            // round-robin instead: deterministic, free, and every
            // waiter keeps making poll progress, so the one whose
            // condition has become true eventually runs.
            let chosen = enabled
                .iter()
                .copied()
                .find(|&i| i > from)
                .unwrap_or(enabled[0]);
            st.active = chosen;
            st.threads[chosen].yielded = false;
            self.cv.notify_all();
            return Ok(());
        }
        let mut cands = fresh;
        // Prefer continuing the current thread: the first DFS branch
        // runs each thread to its next voluntary pause, and every
        // schedule beyond it costs explicit context switches.
        if let Some(p) = cands.iter().position(|&c| c == from) {
            cands.rotate_left(p);
        }
        let continuable = cands.first() == Some(&from);
        if continuable {
            if let Some(bound) = st.limits.preemption_bound {
                if st.preemptions >= bound {
                    cands.truncate(1);
                }
            }
        }
        let branching = cands.len() > 1;
        let chosen = match &mut st.chooser {
            Chooser::Dfs(path) => path.choose_sched(&cands),
            Chooser::Random(rng) => cands[rng.next_below(cands.len() as u64) as usize],
            Chooser::Replay { decisions, pos } => {
                if branching {
                    let d = decisions.get(*pos).copied();
                    *pos += 1;
                    match d {
                        Some(Decision::Sched(t)) if cands.contains(&t) => t,
                        _ => cands[0],
                    }
                } else {
                    cands[0]
                }
            }
            Chooser::Taken => cands[0],
        };
        if branching {
            st.trace.push(Decision::Sched(chosen));
        }
        if chosen != from && continuable {
            st.preemptions += 1;
        }
        st.active = chosen;
        st.threads[chosen].yielded = false;
        self.cv.notify_all();
        Ok(())
    }

    /// Applies a `Stop`, recording a deadlock description if needed.
    fn stop_with(&self, st: &mut State, stop: Stop) {
        if st.status.is_none() {
            st.status = Some(stop);
            if stop == Stop::Deadlock && st.violation.is_none() {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t.run {
                        Run::Blocked(on) => Some(format!("thread {i} joined-on {on}")),
                        _ => None,
                    })
                    .collect();
                st.violation = Some(format!("model deadlock: {}", blocked.join(", ")));
            }
        }
        self.cv.notify_all();
    }

    /// The scheduling point: pause, let the scheduler pick, resume
    /// when granted. `spin` marks the caller as busy-waiting.
    pub(crate) fn yield_point(self: &Arc<Session>, me: usize, spin: bool) {
        let mut st = self.lock();
        if st.status.is_some() || st.draining {
            drop(st);
            return bail();
        }
        debug_assert_eq!(st.active, me, "yield point from a non-granted thread");
        match st.threads[me].crash_in {
            Some(0) => return self.crash(st, me),
            Some(left) => st.threads[me].crash_in = Some(left - 1),
            None => {}
        }
        if spin {
            st.threads[me].yielded = true;
        }
        st.steps += 1;
        if st.steps > st.limits.max_steps {
            self.stop_with(&mut st, Stop::Pruned);
            drop(st);
            return bail();
        }
        if let Err(stop) = self.decide(&mut st, me) {
            self.stop_with(&mut st, stop);
            drop(st);
            return bail();
        }
        while st.active != me {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.status.is_some() {
                drop(st);
                return bail();
            }
        }
    }

    /// Stops `me` forever: hands the grant on and parks until the
    /// session stops or teardown drains the corpse.
    fn crash(&self, mut st: MutexGuard<'_, State>, me: usize) {
        st.threads[me].run = Run::Crashed;
        st.threads[me].crash_in = None;
        if let Err(stop) = self.decide(&mut st, me) {
            self.stop_with(&mut st, stop);
        }
        while st.status.is_none() && !st.draining {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        drop(st);
        bail();
    }

    /// Registers a new model thread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.lock();
        st.threads.push(Th::ready());
        st.children_alive += 1;
        st.threads.len() - 1
    }

    /// Marks `me` finished, unblocks its joiners, and hands the grant
    /// on. Children also decrement the live count.
    pub(crate) fn finish_thread(&self, me: usize, is_child: bool) {
        let mut st = self.lock();
        st.threads[me].run = Run::Finished;
        if is_child {
            st.children_alive -= 1;
        }
        for t in &mut st.threads {
            if t.run == Run::Blocked(me) {
                t.run = Run::Ready;
            }
        }
        if st.status.is_none() && !st.draining {
            if let Err(stop) = self.decide(&mut st, me) {
                self.stop_with(&mut st, stop);
            }
        }
        self.cv.notify_all();
    }

    /// Blocks `me` until `child` finishes (scheduler-aware join).
    pub(crate) fn join_wait(self: &Arc<Session>, me: usize, child: usize) {
        let mut st = self.lock();
        if st.status.is_some() {
            drop(st);
            return bail();
        }
        if st.threads[child].run == Run::Finished {
            return;
        }
        st.threads[me].run = Run::Blocked(child);
        st.steps += 1;
        if st.steps > st.limits.max_steps {
            self.stop_with(&mut st, Stop::Pruned);
            drop(st);
            return bail();
        }
        if let Err(stop) = self.decide(&mut st, me) {
            self.stop_with(&mut st, stop);
            drop(st);
            return bail();
        }
        while st.active != me {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            if st.status.is_some() {
                drop(st);
                return bail();
            }
        }
    }

    /// Records the first real violation and flips the session to
    /// stopping. `ModelAbort` payloads are not violations.
    pub(crate) fn record_panic(&self, who: usize, payload: &(dyn std::any::Any + Send)) {
        if payload.is::<ModelAbort>() {
            return;
        }
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut st = self.lock();
        if st.violation.is_none() {
            st.violation = Some(format!("thread {who} panicked: {msg}"));
        }
        self.stop_with(&mut st, Stop::Violation);
    }

    /// Schedule-deterministic fire/skip draw for a `one_in` chaos
    /// plan (the `model` replacement for the fail-point registry's
    /// wall-clock-ordered RNG).
    pub(crate) fn chaos_draw(&self, one_in: u64) -> bool {
        let mut st = self.lock();
        if one_in <= 1 {
            return true;
        }
        let seed = st.seed;
        let fired = match &mut st.chooser {
            Chooser::Dfs(path) => path.choose_chaos(one_in, seed),
            Chooser::Random(rng) => rng.next_below(one_in) == 0,
            Chooser::Replay { decisions, pos } => {
                let d = decisions.get(*pos).copied();
                *pos += 1;
                match d {
                    Some(Decision::Chaos(fired)) => fired,
                    _ => false,
                }
            }
            Chooser::Taken => false,
        };
        st.trace.push(Decision::Chaos(fired));
        fired
    }

    /// A deterministic "entropy" seed for thread-local RNGs of code
    /// under test (e.g. the exchanger's slot picker): a pure function
    /// of the execution seed, the thread id, and a per-thread counter,
    /// so replays reseed identically.
    pub(crate) fn entropy_seed(&self, me: usize) -> u64 {
        let mut st = self.lock();
        let ctr = st.threads[me].entropy_ctr;
        st.threads[me].entropy_ctr += 1;
        rng::mix(
            st.seed
                ^ (me as u64).wrapping_mul(0x9E6D_62D0_6F6A_9A9B)
                ^ ctr.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    /// Teardown driver, run by the explorer after the body returned
    /// or unwound: marks thread 0 finished, lets any unjoined children
    /// drain, and waits until every child OS thread has left the
    /// session. Returns the execution's outcome.
    pub(crate) fn shutdown(&self, body_panic: Option<&(dyn std::any::Any + Send)>) -> RunOutcome {
        if let Some(payload) = body_panic {
            self.record_panic(0, payload);
        }
        let mut st = self.lock();
        st.threads[0].run = Run::Finished;
        if st.status.is_none() {
            if let Err(stop) = self.decide(&mut st, 0) {
                self.stop_with(&mut st, stop);
            }
        } else {
            self.cv.notify_all();
        }
        while st.children_alive > 0 {
            // Only corpses left: unwind them (they never finish alone).
            if !st.draining
                && st
                    .threads
                    .iter()
                    .all(|t| matches!(t.run, Run::Finished | Run::Crashed))
            {
                st.draining = true;
                self.cv.notify_all();
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        RunOutcome {
            stop: st.status,
            violation: st.violation.take(),
            trace: std::mem::take(&mut st.trace),
            chooser: std::mem::take(&mut st.chooser),
        }
    }
}

/// What one execution produced (collected by the explorer).
pub(crate) struct RunOutcome {
    pub stop: Option<Stop>,
    pub violation: Option<String>,
    pub trace: Vec<Decision>,
    pub chooser: Chooser,
}

/// Runs `body` as model thread 0 of a fresh session and tears the
/// session down afterwards.
pub(crate) fn run_once(
    limits: Limits,
    chooser: Chooser,
    seed: u64,
    body: &(dyn Fn() + Sync),
) -> RunOutcome {
    let sess = Arc::new(Session::new(limits, chooser, seed));
    set_current(Some((Arc::clone(&sess), 0)));
    let result = panic::catch_unwind(AssertUnwindSafe(body));
    set_current(None);
    sess.shutdown(result.err().as_deref())
}

/// Handle to a thread spawned inside a model session (the
/// scheduler-aware analogue of [`std::thread::JoinHandle`]).
pub struct JoinHandle<T> {
    os: thread::JoinHandle<()>,
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
    sess: Arc<Session>,
}

impl<T> JoinHandle<T> {
    /// The thread's model id (as printed in replay traces; the body
    /// is thread 0, spawned threads count up from 1).
    #[must_use]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Waits — under scheduler control — for the thread to finish and
    /// returns its value.
    ///
    /// # Panics
    ///
    /// Unwinds with the session's abort sentinel if the session
    /// stopped (violation elsewhere, prune, deadlock); the explorer
    /// catches it.
    pub fn join(self) -> T {
        let (sess, me) = current().expect("join outside a model session");
        debug_assert!(Arc::ptr_eq(&sess, &self.sess), "join across sessions");
        sess.join_wait(me, self.tid);
        // The child already finished its model work; the OS join is
        // immediate and never carries a panic (the wrapper catches).
        self.os.join().expect("model thread wrapper never panics");
        self.result
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("model thread finished without a value")
    }
}

/// Spawns a model thread in the calling thread's session.
///
/// The child does not run until the scheduler grants it a step, so
/// the spawn itself is invisible to the schedule: the child becomes a
/// candidate at the parent's next yield point.
///
/// # Panics
///
/// Panics if the calling thread is not inside a model session (use
/// [`crate::Explorer::explore`] to start one).
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (sess, _parent) = current().expect("cso-sched: spawn outside a model session");
    let tid = sess.register();
    let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let os = {
        let sess = Arc::clone(&sess);
        let result = Arc::clone(&result);
        thread::Builder::new()
            .name(format!("model-{tid}"))
            .spawn(move || {
                // Wait for the first grant before touching anything.
                {
                    let mut st = sess.lock();
                    loop {
                        if st.status.is_some() {
                            // Session stopped before we ever ran.
                            drop(st);
                            sess.finish_thread(tid, true);
                            return;
                        }
                        if st.active == tid {
                            break;
                        }
                        st = sess.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                set_current(Some((Arc::clone(&sess), tid)));
                let out = panic::catch_unwind(AssertUnwindSafe(f));
                set_current(None);
                match out {
                    Ok(v) => {
                        *result.lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                    }
                    Err(payload) => sess.record_panic(tid, payload.as_ref()),
                }
                sess.finish_thread(tid, true);
            })
            .expect("failed to spawn model thread")
    };
    JoinHandle {
        os,
        tid,
        result,
        sess,
    }
}

/// Yield point hook: called before every counted register access,
/// uncounted peek and protocol-word access (`cso_memory::reg`,
/// `cso_memory::proto`) under the `model` feature.
/// No-op when the calling thread is not in a session.
pub fn yield_access() {
    if let Some((sess, me)) = current() {
        sess.yield_point(me, false);
    }
}

/// Spin hint hook: a yield point that also marks the thread as
/// busy-waiting. Returns `true` if a session absorbed the wait (the
/// caller should skip its real spinning/sleeping).
pub fn yield_spin() -> bool {
    match current() {
        Some((sess, me)) => {
            sess.yield_point(me, true);
            true
        }
        None => false,
    }
}

/// Arms the calling model thread to crash: it runs through `k` more
/// yield points (performing the shared accesses that follow them) and
/// stops forever at the next one. A crashed thread is never scheduled
/// again and must not be joined (a join on it deadlocks); teardown
/// unwinds it once every other thread has finished. Loop `k` from 0
/// upwards to crash an operation at every step. A later call re-arms.
///
/// # Panics
///
/// Panics outside a model session, or on the body thread (thread 0).
pub fn crash_after(k: usize) {
    let (sess, me) = current().expect("cso-sched: crash_after outside a model session");
    assert_ne!(
        me, 0,
        "cso-sched: the body thread cannot crash (crash a spawned thread)"
    );
    sess.lock().threads[me].crash_in = Some(k);
}

/// Chaos hook: schedule-deterministic fire/skip draw for a `one_in`
/// fail-point plan. `None` when no session is active (the caller
/// falls back to its own RNG).
#[must_use]
pub fn chaos_draw(one_in: u64) -> Option<bool> {
    current().map(|(sess, _)| sess.chaos_draw(one_in))
}

/// Deterministic replacement for entropy seeding of thread-local
/// RNGs. `None` when no session is active.
#[must_use]
pub fn entropy_seed() -> Option<u64> {
    current().map(|(sess, me)| sess.entropy_seed(me))
}

/// Whether the calling thread runs under a model session.
#[must_use]
pub fn active() -> bool {
    current().is_some()
}
