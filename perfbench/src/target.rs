//! The objects under test, each behind one uniform put/take surface.
//!
//! The load generator only ever calls these methods, and each method makes
//! exactly one call into the object's public API; retrying an aborted
//! weak operation is the load generator's business, so the weak layers are
//! measured as single attempts.

use cso_metrics::prom::render_prometheus;
use cso_metrics::Registry;
use cso_queue::{AbortableQueue, CsQueue, DequeueOutcome, EnqueueOutcome};
use cso_shard::{RouterStats, ShardConfig, ShardedCsStack};
use cso_stack::{AbortableStack, CsStack, NonBlockingStack, PopOutcome, PushOutcome};

/// The answer to a put (push or enqueue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Put {
    /// The value is in the object.
    Stored,
    /// The object was full; nothing changed.
    Full,
    /// A weak operation aborted (⊥); nothing changed.
    Aborted,
}

/// The answer to a take (pop or dequeue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Take {
    /// The value removed.
    Got(u32),
    /// The object was empty; nothing changed.
    Empty,
    /// A weak operation aborted (⊥); nothing changed.
    Aborted,
}

/// The object's own counters, read after the workers stop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjStats {
    /// Operations completed on the lock-free fast path.
    pub fast: u64,
    /// Operations completed by elimination.
    pub eliminated: u64,
    /// Operations completed under the lock.
    pub locked: u64,
    /// Weak-operation attempts, and those that aborted.
    pub weak_attempts: u64,
    pub weak_aborts: u64,
    /// The shard router's counters, for sharded objects.
    pub router: Option<RouterStats>,
}

impl ObjStats {
    /// Adds the object counters of another run; router counters are not
    /// added.
    pub fn absorb(&mut self, o: &ObjStats) {
        self.fast += o.fast;
        self.eliminated += o.eliminated;
        self.locked += o.locked;
        self.weak_attempts += o.weak_attempts;
        self.weak_aborts += o.weak_aborts;
    }
}

/// A concurrent object the load generator can run.
pub trait Target: Sync {
    /// Whether the object promises FIFO order.
    const FIFO: bool;
    /// Puts `v` on behalf of worker `w`.
    fn put(&self, w: usize, v: u32) -> Put;
    /// Takes a value on behalf of worker `w`.
    fn take(&self, w: usize) -> Take;
    /// The object's counters.
    fn stats(&self) -> ObjStats;
}

fn pushed(o: PushOutcome) -> Put {
    match o {
        PushOutcome::Pushed => Put::Stored,
        PushOutcome::Full => Put::Full,
    }
}

fn popped(o: PopOutcome<u32>) -> Take {
    match o {
        PopOutcome::Popped(v) => Take::Got(v),
        PopOutcome::Empty => Take::Empty,
    }
}

fn enqueued(o: EnqueueOutcome) -> Put {
    match o {
        EnqueueOutcome::Enqueued => Put::Stored,
        EnqueueOutcome::Full => Put::Full,
    }
}

fn dequeued(o: DequeueOutcome<u32>) -> Take {
    match o {
        DequeueOutcome::Dequeued(v) => Take::Got(v),
        DequeueOutcome::Empty => Take::Empty,
    }
}

impl Target for AbortableStack<u32> {
    const FIFO: bool = false;
    fn put(&self, _: usize, v: u32) -> Put {
        self.weak_push(v).map_or(Put::Aborted, pushed)
    }
    fn take(&self, _: usize) -> Take {
        self.weak_pop().map_or(Take::Aborted, popped)
    }
    fn stats(&self) -> ObjStats {
        let a = self.abort_stats();
        ObjStats {
            weak_attempts: a.push_attempts + a.pop_attempts,
            weak_aborts: a.push_aborts + a.pop_aborts,
            ..ObjStats::default()
        }
    }
}

impl Target for NonBlockingStack<u32> {
    const FIFO: bool = false;
    fn put(&self, _: usize, v: u32) -> Put {
        pushed(self.push(v))
    }
    fn take(&self, _: usize) -> Take {
        popped(self.pop())
    }
    fn stats(&self) -> ObjStats {
        self.as_abortable().stats()
    }
}

impl Target for CsStack<u32> {
    const FIFO: bool = false;
    fn put(&self, w: usize, v: u32) -> Put {
        pushed(self.push(w, v))
    }
    fn take(&self, w: usize) -> Take {
        popped(self.pop(w))
    }
    fn stats(&self) -> ObjStats {
        let p = self.path_stats();
        let a = self.abort_stats();
        ObjStats {
            fast: p.fast,
            eliminated: p.eliminated,
            locked: p.locked,
            weak_attempts: a.push_attempts + a.pop_attempts,
            weak_aborts: a.push_aborts + a.pop_aborts,
            router: None,
        }
    }
}

/// The sharded stack every traced run replays its op stream through:
/// two relaxed lanes, elastic, so the router's split/merge and
/// spill/steal run.
pub fn sharded(n: usize) -> ShardedCsStack<u32> {
    ShardedCsStack::new(
        crate::drive::CAPACITY,
        n,
        ShardConfig::relaxed(2, crate::drive::CAPACITY).with_elastic(),
    )
}

impl Target for ShardedCsStack<u32> {
    const FIFO: bool = false;
    fn put(&self, w: usize, v: u32) -> Put {
        pushed(self.push(w, v))
    }
    fn take(&self, w: usize) -> Take {
        popped(self.pop(w))
    }
    fn stats(&self) -> ObjStats {
        let mut s = (0..self.lanes()).fold(ObjStats::default(), |mut s, i| {
            s.absorb(&self.lane(i).stats());
            s
        });
        s.router = Some(self.router_stats());
        s
    }
}

impl Target for AbortableQueue<u32> {
    const FIFO: bool = true;
    fn put(&self, _: usize, v: u32) -> Put {
        self.weak_enqueue(v).map_or(Put::Aborted, enqueued)
    }
    fn take(&self, _: usize) -> Take {
        self.weak_dequeue().map_or(Take::Aborted, dequeued)
    }
    fn stats(&self) -> ObjStats {
        let a = self.abort_stats();
        ObjStats {
            weak_attempts: a.enq_attempts + a.deq_attempts,
            weak_aborts: a.enq_aborts + a.deq_aborts,
            ..ObjStats::default()
        }
    }
}

impl Target for CsQueue<u32> {
    const FIFO: bool = true;
    fn put(&self, w: usize, v: u32) -> Put {
        enqueued(self.enqueue(w, v))
    }
    fn take(&self, w: usize) -> Take {
        dequeued(self.dequeue(w))
    }
    fn stats(&self) -> ObjStats {
        let p = self.path_stats();
        let a = self.abort_stats();
        ObjStats {
            fast: p.fast,
            eliminated: p.eliminated,
            locked: p.locked,
            weak_attempts: a.enq_attempts + a.deq_attempts,
            weak_aborts: a.enq_aborts + a.deq_aborts,
            router: None,
        }
    }
}

/// A [`CsQueue`] with its live metrics attached to a registry of its
/// own, which the main thread scrapes while the workers run.
pub struct MeteredQueue {
    queue: CsQueue<u32>,
    registry: Registry,
}

impl MeteredQueue {
    /// A queue for `n` processes with metrics attached.
    pub fn new(n: usize) -> MeteredQueue {
        let queue = CsQueue::new(crate::drive::CAPACITY, n);
        let registry = Registry::new();
        queue.attach_metrics(&registry, "queue");
        MeteredQueue { queue, registry }
    }

    /// One scrape: a registry snapshot rendered as a Prometheus page.
    /// Returns the page length so the work cannot be discarded.
    pub fn scrape(&self) -> usize {
        render_prometheus(&self.registry.snapshot()).len()
    }
}

impl Target for MeteredQueue {
    const FIFO: bool = true;
    fn put(&self, w: usize, v: u32) -> Put {
        self.queue.put(w, v)
    }
    fn take(&self, w: usize) -> Take {
        self.queue.take(w)
    }
    fn stats(&self) -> ObjStats {
        self.queue.stats()
    }
}
