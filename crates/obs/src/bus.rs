//! Multi-subscriber event bus with a no-subscriber fast path.
//!
//! The contract that makes instrumentation free to leave in hot paths:
//! [`Bus::emit`] first does a single relaxed atomic load of the subscriber
//! count and returns immediately when it is zero. Call sites that would
//! pay to *construct* an event (formatting a path, cloning an `Arc`)
//! should use [`Bus::emit_with`], which only runs its closure once a
//! subscriber is known to exist.
//!
//! Each subscriber owns a bounded queue (drop-oldest on overflow, with a
//! drop counter so lossy observation is detectable, never silent).
//!
//! # Ordering contract
//!
//! A dispatched event takes its `seq` and is pushed onto every subscriber
//! queue (the flight recorder's among them) while the emitter holds the
//! subscriber-list lock. So dispatch order *is* `seq` order: every
//! subscriber queue sees one strictly increasing `seq` stream, whatever
//! threads emit. A receiver with `dropped() == 0` that was the only
//! consumer of `seq` (no [`Bus::stamp`] callers in between) sees no gaps
//! either. [`Bus::stamp`] on its own takes a `seq`
//! but promises nothing about where that event lands in any log.

use crate::event::{thread_ordinal, Event, EventKind};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-subscriber queue capacity. Sized so a full 1-year demo run
/// (a few thousand tasks, tens of thousands of kernel/step events) fits
/// without drops when the consumer drains at the end.
pub const DEFAULT_CAPACITY: usize = 65_536;

struct SubShared {
    queue: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
    closed: AtomicBool,
}

struct BusInner {
    subs: Mutex<Vec<Arc<SubShared>>>,
    /// Cached `subs.len()` so `is_active` never takes the lock.
    nsubs: AtomicUsize,
    seq: AtomicU64,
    epoch: Instant,
}

/// A cheaply cloneable handle to one event stream.
///
/// Clones share subscribers: an event emitted through any clone reaches
/// every receiver subscribed through any other clone.
#[derive(Clone)]
pub struct Bus {
    inner: Arc<BusInner>,
}

impl Default for Bus {
    fn default() -> Self {
        Self::new()
    }
}

impl Bus {
    pub fn new() -> Self {
        Bus {
            inner: Arc::new(BusInner {
                subs: Mutex::new(Vec::new()),
                nsubs: AtomicUsize::new(0),
                seq: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
        }
    }

    /// True when at least one receiver is attached. One relaxed load.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.inner.nsubs.load(Ordering::Relaxed) > 0
    }

    /// Emit an already-constructed event kind. Returns immediately (one
    /// relaxed atomic load) when nobody is listening.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if self.is_active() {
            self.dispatch(kind);
        }
    }

    /// Emit an event whose construction itself has a cost; the closure
    /// runs only when a subscriber is attached.
    #[inline]
    pub fn emit_with<F: FnOnce() -> EventKind>(&self, f: F) {
        if self.is_active() {
            self.dispatch(f());
        }
    }

    /// Microseconds since this bus's epoch — the clock every event
    /// timestamp is measured on. Lets callers (e.g. the dataflow timing
    /// log) record intervals directly comparable to event timestamps.
    pub fn now_micros(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// Stamp an event (seq / timestamp / thread) *without* dispatching it.
    /// Used by components that keep their own per-object event logs (e.g.
    /// `hpcwaas` execution handles) while still sharing the bus clock.
    pub fn stamp(&self, kind: EventKind) -> Event {
        Event {
            seq: self.inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_micros: self.inner.epoch.elapsed().as_micros() as u64,
            thread: thread_ordinal(),
            span: crate::trace::current_span_id(),
            kind,
        }
    }

    #[cold]
    fn dispatch(&self, kind: EventKind) {
        // Stamp under the lock: two emitters that stamped a < b outside
        // it could enqueue b first (module docs, "Ordering contract").
        let mut subs = self.inner.subs.lock().unwrap();
        let event = self.stamp(kind);
        let mut any_closed = false;
        for sub in subs.iter() {
            if sub.closed.load(Ordering::Relaxed) {
                any_closed = true;
                continue;
            }
            let mut q = sub.queue.lock().unwrap();
            if q.len() >= sub.capacity {
                q.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
            }
            q.push_back(event.clone());
        }
        if any_closed {
            subs.retain(|s| !s.closed.load(Ordering::Relaxed));
            self.inner.nsubs.store(subs.len(), Ordering::Relaxed);
        }
    }

    /// Attach a receiver with an explicit bounded capacity. When the queue
    /// is full the *oldest* event is dropped (and counted) so the stream
    /// stays current rather than stalling the emitter.
    pub fn subscribe_with_capacity(&self, capacity: usize) -> EventReceiver {
        let shared = Arc::new(SubShared {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        let mut subs = self.inner.subs.lock().unwrap();
        subs.push(Arc::clone(&shared));
        self.inner.nsubs.store(subs.len(), Ordering::Relaxed);
        drop(subs);
        EventReceiver { shared }
    }
}

/// Receiving side of a [`Bus`] subscription.
///
/// Dropping the receiver detaches it; once the last receiver on a bus is
/// gone the emitters fall back to the single-atomic-load fast path.
pub struct EventReceiver {
    shared: Arc<SubShared>,
}

impl EventReceiver {
    /// Take everything currently queued.
    pub fn drain(&self) -> Vec<Event> {
        self.shared.queue.lock().unwrap().drain(..).collect()
    }

    /// A copy of everything currently queued, leaving the queue as it is;
    /// `None` when the queue is locked, so a caller never waits on it.
    pub fn try_snapshot(&self) -> Option<Vec<Event>> {
        let q = match self.shared.queue.try_lock() {
            Ok(q) => q,
            Err(std::sync::TryLockError::Poisoned(q)) => q.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(q.iter().cloned().collect())
    }

    /// Events lost to the drop-oldest policy since subscription.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

impl Drop for EventReceiver {
    fn drop(&mut self) {
        // Mark closed; the emitting side prunes us (and fixes nsubs) on
        // its next dispatch. For the common subscribe-then-quiesce case
        // we cannot reach the bus from here, and a stale nsubs only costs
        // one dispatch that finds no live queue.
        self.shared.closed.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ready(task: u64) -> EventKind {
        EventKind::TaskReady { task }
    }

    #[test]
    fn inactive_bus_emits_nothing() {
        let bus = Bus::new();
        assert!(!bus.is_active());
        bus.emit(ready(1));
        let mut ran = false;
        bus.emit_with(|| {
            ran = true;
            ready(2)
        });
        assert!(!ran, "emit_with must not build the event with no subscriber");
        assert_eq!(bus.inner.seq.load(Ordering::Relaxed), 0, "nothing stamped");
    }

    #[test]
    fn fan_out_reaches_every_subscriber() {
        let bus = Bus::new();
        let a = bus.subscribe_with_capacity(DEFAULT_CAPACITY);
        let b = bus.subscribe_with_capacity(DEFAULT_CAPACITY);
        assert!(bus.is_active());
        bus.emit(ready(7));
        bus.emit(ready(8));
        let got_a: Vec<u64> = a.drain().iter().map(|e| e.seq).collect();
        let got_b: Vec<u64> = b.drain().iter().map(|e| e.seq).collect();
        assert_eq!(got_a, vec![0, 1]);
        assert_eq!(got_a, got_b);
    }

    #[test]
    fn drop_oldest_when_full() {
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(2);
        for t in 0..5 {
            bus.emit(ready(t));
        }
        assert_eq!(rx.dropped(), 3);
        let kept: Vec<EventKind> = rx.drain().into_iter().map(|e| e.kind).collect();
        assert_eq!(kept, vec![ready(3), ready(4)]);
    }

    #[test]
    fn dropped_receiver_deactivates_bus() {
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(DEFAULT_CAPACITY);
        bus.emit(ready(1));
        drop(rx);
        // The next dispatch prunes the closed subscriber...
        bus.emit(ready(2));
        // ...after which the fast path is restored.
        assert!(!bus.is_active());
    }

    /// The ordering contract under contention: emitters on several
    /// threads, one subscriber, and the drained stream is gap-free and
    /// strictly increasing in `seq`.
    #[test]
    fn concurrent_emitters_deliver_in_seq_order_without_gaps() {
        const THREADS: u64 = 6;
        const PER_THREAD: u64 = 4000;
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity((THREADS * PER_THREAD) as usize);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (bus, start) = (&bus, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        bus.emit(ready(t * PER_THREAD + i));
                    }
                });
            }
        });
        assert_eq!(rx.dropped(), 0);
        let seqs: Vec<u64> = rx.drain().iter().map(|e| e.seq).collect();
        assert_eq!(seqs.len() as u64, THREADS * PER_THREAD);
        for (i, &seq) in seqs.iter().enumerate() {
            assert_eq!(seq, i as u64, "queue position {i} holds seq {seq}");
        }
    }

    #[test]
    fn timestamps_and_seq_are_monotonic() {
        let bus = Bus::new();
        let rx = bus.subscribe_with_capacity(DEFAULT_CAPACITY);
        for t in 0..100 {
            bus.emit(ready(t));
        }
        let events = rx.drain();
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
            assert!(w[0].ts_micros <= w[1].ts_micros);
        }
    }
}
