//! Mutation self-tests: proof the model harness can actually fail.
//!
//! A verification harness that has never caught a planted bug proves
//! nothing. This file plants two.
//!
//! **Figure 1 help reordering.** A test-only copy of the Figure 1
//! abortable stack with **one deliberate mutation**: the helping write
//! (lines 02/15–16, which completes the previous operation's lazy slot
//! update) is moved from *before* the decisive `TOP` C&S to *after*
//! it. Solo the mutant is indistinguishable — same results, same
//! five counted accesses — but the paper's key invariant ("a new TOP
//! is only installed after the current top slot is finalized") is
//! broken: a concurrent pop can read the stale below-top slot and
//! resurrect a dead value. The explorer must find that interleaving
//! within a bounded schedule count, and its printed trace must replay
//! to the same violation.
//!
//! **Combining claim without CAS.** A test-local help-or-self-serve
//! handoff over the production `PubRecord`, whose helper claims a
//! posted request by a plain load of the status followed by a write
//! whose verdict it ignores, instead of `try_claim`'s CAS. Serially the
//! two steps never separate, so the mutant passes; interleaved, the
//! owner retracts its request between them and applies it itself, and
//! the helper applies it again — a double application the explorer
//! must find and replay.
//!
//! Requires `--features model`.

use std::collections::BTreeSet;
use std::sync::Arc;

use cso::memory::combining::{PubRecord, RecordState};
use cso::memory::packed::{SlotWord, TopWord};
use cso::memory::reg::{Reg64, RegUsize};
use cso::sched::{spawn, yield_spin, Explorer};

/// `⊥` — the paper's "no value" sentinel (must match the real stack's
/// convention of using the value-field zero state for ⊥; the mutant
/// only ever stores non-zero payloads).
const BOTTOM: u32 = 0;

/// The Figure 1 stack with a switch to reorder the helping write.
/// Faithful to `cso_stack::AbortableStack` in structure and counted
/// cost; stripped of stats, elimination, and fail points.
struct MutableStack {
    top: Reg64,
    slots: Vec<Reg64>,
    /// `false` = faithful Figure 1; `true` = help AFTER the TOP C&S.
    help_after_cas: bool,
}

impl MutableStack {
    fn new(capacity: usize, help_after_cas: bool) -> MutableStack {
        let top = Reg64::new(
            TopWord {
                index: 0,
                seq: 0,
                value: BOTTOM,
            }
            .pack(),
        );
        let slots = (0..=capacity)
            .map(|x| {
                let seq = if x == 0 { u16::MAX } else { 0 };
                Reg64::new(SlotWord { value: BOTTOM, seq }.pack())
            })
            .collect();
        MutableStack {
            top,
            slots,
            help_after_cas,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len() - 1
    }

    /// Lines 15–16: finish the pending lazy write of the operation
    /// that installed `top`.
    fn help(&self, top: TopWord) {
        let slot = &self.slots[usize::from(top.index)];
        let current = SlotWord::unpack(slot.read());
        let old = SlotWord {
            value: current.value,
            seq: top.seq.wrapping_sub(1),
        };
        let new = SlotWord {
            value: top.value,
            seq: top.seq,
        };
        let _ = slot.cas(old.pack(), new.pack());
    }

    /// Lines 01–07, with the help either in its rightful place
    /// (line 02) or mutated to after the decisive C&S.
    fn weak_push(&self, value: u32) -> Result<bool, ()> {
        let observed = TopWord::unpack(self.top.read());
        if !self.help_after_cas {
            self.help(observed);
        }
        if usize::from(observed.index) == self.capacity() {
            if self.help_after_cas {
                self.help(observed);
            }
            return Ok(false); // full
        }
        let next_slot = SlotWord::unpack(self.slots[usize::from(observed.index) + 1].read());
        let newtop = TopWord {
            index: observed.index + 1,
            value,
            seq: next_slot.seq.wrapping_add(1),
        };
        if self.top.cas(observed.pack(), newtop.pack()) {
            if self.help_after_cas {
                // THE MUTATION: the previous top slot gets finalized
                // only after the new TOP is already visible — a window
                // in which a concurrent pop reads the stale slot.
                self.help(observed);
            }
            Ok(true)
        } else {
            Err(())
        }
    }

    /// Lines 08–14 (faithful in both variants; the push-side mutation
    /// is what poisons the slot this reads).
    fn weak_pop(&self) -> Result<Option<u32>, ()> {
        let observed = TopWord::unpack(self.top.read());
        self.help(observed);
        if observed.index == 0 {
            return Ok(None); // empty
        }
        let below = SlotWord::unpack(self.slots[usize::from(observed.index) - 1].read());
        let newtop = TopWord {
            index: observed.index - 1,
            value: below.value,
            seq: below.seq.wrapping_add(1),
        };
        if self.top.cas(observed.pack(), newtop.pack()) {
            Ok(Some(observed.value))
        } else {
            Err(())
        }
    }

    /// Retry loops turning the weak ops strong (Figure 2).
    fn push(&self, value: u32) -> bool {
        loop {
            if let Ok(done) = self.weak_push(value) {
                return done;
            }
        }
    }

    fn pop(&self) -> Option<u32> {
        loop {
            if let Ok(v) = self.weak_pop() {
                return v;
            }
        }
    }
}

/// The conservation body both variants run: push {1, 2} from two
/// threads (1 solo before spawning, 2 concurrently with a pop), then
/// drain and demand the popped multiset is exactly {1, 2}.
fn conservation_body(help_after_cas: bool) {
    let stack = Arc::new(MutableStack::new(3, help_after_cas));
    assert!(stack.push(1), "solo push cannot fail");
    let child = {
        let stack = Arc::clone(&stack);
        spawn(move || {
            assert!(stack.push(2), "capacity 3 cannot fill");
        })
    };
    let mut got = Vec::new();
    if let Some(v) = stack.pop() {
        got.push(v);
    }
    child.join();
    while let Some(v) = stack.pop() {
        got.push(v);
    }
    let distinct: BTreeSet<u32> = got.iter().copied().collect();
    assert_eq!(got.len(), 2, "conservation violated: popped {got:?}");
    assert_eq!(
        distinct,
        BTreeSet::from([1, 2]),
        "conservation violated: popped {got:?}"
    );
}

/// The unmutated control: the faithful Figure 1 ordering survives the
/// identical exhaustive exploration.
#[test]
fn faithful_ordering_survives_exploration() {
    let report = Explorer::exhaustive().explore(|| conservation_body(false));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// The planted bug is found, within a bounded schedule count.
#[test]
fn mutant_is_killed_within_bounded_schedules() {
    let report = Explorer::exhaustive()
        .with_max_schedules(2_000)
        .explore(|| conservation_body(true));
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("conservation violated"),
        "wrong oracle fired: {}",
        violation.message
    );
    assert!(
        report.schedules <= 2_000,
        "took {} schedules to kill the mutant",
        report.schedules
    );
    assert!(
        !violation.trace.is_empty(),
        "a racing schedule must have branch decisions"
    );

    // The printed trace replays to the same violation, first try.
    let replayed = Explorer::replay(&violation.trace).explore(|| conservation_body(true));
    let again = replayed.assert_violation();
    assert_eq!(again.message, violation.message, "replay diverged");
    assert_eq!(replayed.schedules, 1, "replay is a single execution");
}

/// The mutation needs real interleaving to matter: with preemptions
/// forbidden the mutant passes every (serial) schedule — evidence the
/// kill above came from the explorer's interleavings, not from a
/// sequential bug in the copy.
#[test]
fn mutant_survives_serial_schedules() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(0))
        .explore(|| conservation_body(true));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
}

// ---------------------------------------------------------------
// The combining claim mutant.
// ---------------------------------------------------------------

/// The request every run hands over: add 1 to the total.
const REQUEST: usize = 1;

/// A help-or-self-serve handoff through one production publication
/// record: the owner posts a request, then either retracts it and
/// applies it itself or collects a helper's response.
struct Handoff {
    rec: PubRecord<usize, usize>,
    total: RegUsize,
    /// `false` = the faithful CAS claim; `true` = load, then store.
    load_store_claim: bool,
}

impl Handoff {
    fn apply(&self, v: usize) -> usize {
        self.total.fetch_add(v) + v
    }

    /// The helper: a few looks at the record, serving it if posted.
    fn help(&self) {
        for _ in 0..2 {
            if self.load_store_claim {
                if self.rec.state() == RecordState::Posted {
                    // THE MUTATION: the decision was the load above;
                    // the claim's verdict is ignored, as a plain store
                    // would be.
                    let claimed = self.rec.try_claim().is_some();
                    let resp = self.apply(REQUEST);
                    if claimed {
                        self.rec.complete(resp);
                    }
                    return;
                }
            } else if let Some(op) = self.rec.try_claim() {
                // SAFETY: the claim pins the owner until completion.
                let resp = self.apply(unsafe { *op });
                self.rec.complete(resp);
                return;
            }
            yield_spin();
        }
    }
}

/// The owner on the body thread, one helper beside it; afterwards the
/// request must have been applied exactly once.
fn handoff_body(load_store_claim: bool) {
    let handoff = Arc::new(Handoff {
        rec: PubRecord::new(),
        total: RegUsize::new(0),
        load_store_claim,
    });
    let helper = {
        let handoff = Arc::clone(&handoff);
        spawn(move || handoff.help())
    };
    let request = REQUEST;
    // SAFETY: `request` outlives the loop below, which returns only
    // after consuming a terminal state (retract or response).
    unsafe { handoff.rec.post(&request) };
    let resp = loop {
        match handoff.rec.state() {
            RecordState::Done => break handoff.rec.take_response(),
            RecordState::Posted if handoff.rec.try_retract() => break handoff.apply(request),
            _ => {
                yield_spin();
            }
        }
    };
    helper.join();
    assert_eq!(resp, REQUEST);
    assert_eq!(
        handoff.total.read(),
        REQUEST,
        "double application: the request was applied twice"
    );
}

/// The faithful CAS claim survives every schedule.
#[test]
fn faithful_claim_survives_exploration() {
    let report = Explorer::exhaustive().explore(|| handoff_body(false));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
    assert!(report.schedules > 1, "{report}");
}

/// The load+store claim double-applies, and the trace replays.
#[test]
fn load_store_claim_is_killed_and_replayed() {
    let report = Explorer::exhaustive().explore(|| handoff_body(true));
    let violation = report.assert_violation();
    assert!(
        violation.message.contains("double application"),
        "wrong oracle fired: {}",
        violation.message
    );
    assert!(!violation.trace.is_empty());
    let replayed = Explorer::replay(&violation.trace).explore(|| handoff_body(true));
    assert_eq!(replayed.assert_violation().message, violation.message);
}

/// The bug needs an interleaving: serial schedules never split the
/// load from the store.
#[test]
fn load_store_claim_survives_serial_schedules() {
    let report = Explorer::exhaustive()
        .with_preemption_bound(Some(0))
        .explore(|| handoff_body(true));
    report.assert_ok();
    assert!(report.exhausted, "{report}");
}
