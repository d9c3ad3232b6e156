//! Request batching for the serving layer (DESIGN.md §16).
//!
//! [`BatchQueue`] is a closeable MPMC queue whose consumers drain *runs*
//! of pending items instead of single elements: a worker blocks until
//! something is queued, then takes everything available up to its batch
//! cap in FIFO order. Batch composition is therefore a pure function of
//! arrival order and cap — no timers, no wall clock — which keeps the
//! serving read path inside the workspace determinism rules.
//!
//! The queue may carry a *capacity* ([`BatchQueue::bounded`]): a full
//! queue refuses new work with [`PushOutcome::Full`] (load shedding) or
//! parks the producer in [`BatchQueue::push_wait`] until a consumer
//! drains space (bounded-wait admission). Either way memory and queueing
//! delay are bounded by the capacity — overload degrades into typed
//! refusals, never into unbounded growth.
//!
//! [`ResponseSlot`] is the matching one-shot reply cell. Producers park
//! on [`ResponseSlot::wait`]; the serving worker fulfills every slot of
//! a batch exactly once, even when a query panics (the server wraps
//! batches in `catch_unwind` and fulfills survivors with an error). A
//! client that stops caring can [`ResponseSlot::abandon`] its slot: the
//! consumer's later `fulfill` is refused and the value dropped, so an
//! abandoned query can neither block its client nor leak its response.
//!
//! [`EpochCell`] is the artifact hot-swap cell: an epoch-counted slot
//! holding an `Arc<T>`. Readers snapshot `(epoch, Arc)` per batch — the
//! lock is held only for the clone, never across any user code — and a
//! swap installs a new value for *subsequent* loads, so every in-flight
//! batch finishes entirely on the epoch it started with.
//!
//! These types synchronize *coordination*, not shared prediction state:
//! the artifact itself is read lock-free behind an `Arc`, and lamolint's
//! `serve-read-lock` rule keeps lock acquisitions out of `lamo-serve`
//! entirely — which is why these primitives live here.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// What happened to a pushed item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushOutcome {
    /// The item was enqueued.
    Queued,
    /// The queue was at capacity and the item was refused (shed).
    /// `depth` is the capacity it was full at.
    Full { depth: usize },
    /// The queue is closed; the item was refused — producers racing a
    /// shutdown see the refusal instead of a silently lost request.
    Closed,
}

impl PushOutcome {
    /// Whether the item made it into the queue.
    pub fn is_queued(self) -> bool {
        self == PushOutcome::Queued
    }
}

/// Closeable FIFO queue with batched consumption and optional capacity.
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    /// Capacity; `usize::MAX` means unbounded.
    capacity: usize,
    /// Signalled when items arrive or the queue closes (consumer side).
    ready: Condvar,
    /// Signalled when space frees up or the queue closes (producer
    /// side, only used by [`BatchQueue::push_wait`]).
    space: Condvar,
}

impl<T> Default for BatchQueue<T> {
    fn default() -> Self {
        BatchQueue::new()
    }
}

impl<T> BatchQueue<T> {
    /// An open, empty, *unbounded* queue.
    pub fn new() -> BatchQueue<T> {
        BatchQueue::with_capacity(usize::MAX)
    }

    /// An open, empty queue refusing pushes beyond `capacity` pending
    /// items. A zero capacity is promoted to 1 — a queue that can hold
    /// nothing could never hand a request to a worker.
    pub fn bounded(capacity: usize) -> BatchQueue<T> {
        BatchQueue::with_capacity(capacity.max(1))
    }

    fn with_capacity(capacity: usize) -> BatchQueue<T> {
        BatchQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity,
            ready: Condvar::new(),
            space: Condvar::new(),
        }
    }

    /// The capacity, or `None` when unbounded.
    pub fn capacity(&self) -> Option<usize> {
        (self.capacity != usize::MAX).then_some(self.capacity)
    }

    /// Enqueue one item without ever blocking. A closed queue refuses
    /// with [`PushOutcome::Closed`]; a full one sheds with
    /// [`PushOutcome::Full`]. The item is dropped on refusal.
    pub fn push(&self, item: T) -> PushOutcome {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return PushOutcome::Closed;
        }
        if state.items.len() >= self.capacity {
            return PushOutcome::Full {
                depth: self.capacity,
            };
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        PushOutcome::Queued
    }

    /// Enqueue one item, parking while the queue is full until a
    /// consumer drains space or the queue closes. Never returns
    /// [`PushOutcome::Full`]: the outcome is `Queued`, or `Closed` when
    /// the queue shut down before space appeared.
    pub fn push_wait(&self, item: T) -> PushOutcome {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if state.closed {
                return PushOutcome::Closed;
            }
            if state.items.len() < self.capacity {
                state.items.push_back(item);
                drop(state);
                self.ready.notify_one();
                return PushOutcome::Queued;
            }
            state = self
                .space
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Block until at least one item is queued (or the queue closes),
    /// then move up to `max_batch` items into `out` in FIFO order.
    /// Returns `false` once the queue is closed *and* drained — the
    /// consumer's signal to exit. `out` is cleared first, so a worker
    /// can reuse one buffer across its whole life.
    pub fn pop_batch(&self, max_batch: usize, out: &mut Vec<T>) -> bool {
        out.clear();
        let cap = max_batch.max(1);
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !state.items.is_empty() {
                while out.len() < cap {
                    match state.items.pop_front() {
                        Some(item) => out.push(item),
                        None => break,
                    }
                }
                // More work left: wake a sibling consumer that may have
                // been notified for an item this batch just swallowed.
                let more = !state.items.is_empty();
                drop(state);
                if more {
                    self.ready.notify_one();
                }
                // Space freed: wake producers parked in push_wait.
                self.space.notify_all();
                return true;
            }
            if state.closed {
                return false;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: future pushes are refused, parked producers and
    /// blocked consumers wake, consumers drain what remains and then see
    /// `false`. Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Whether [`close`](BatchQueue::close) has run.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).closed
    }

    /// Items currently queued (snapshot; for tests and reporting).
    pub fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).items.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

enum SlotState<R> {
    Empty,
    Full(R),
    Taken,
}

/// One-shot rendezvous cell: a producer parks on [`wait`]
/// (ResponseSlot::wait) until a consumer [`fulfill`]s
/// (ResponseSlot::fulfill) it.
pub struct ResponseSlot<R> {
    state: Mutex<SlotState<R>>,
    filled: Condvar,
}

impl<R> Default for ResponseSlot<R> {
    fn default() -> Self {
        ResponseSlot::new()
    }
}

impl<R> ResponseSlot<R> {
    /// An unfulfilled slot.
    pub fn new() -> ResponseSlot<R> {
        ResponseSlot {
            state: Mutex::new(SlotState::Empty),
            filled: Condvar::new(),
        }
    }

    /// Deliver the response. Returns `false` if the slot was already
    /// fulfilled, taken, or abandoned (the value is dropped) — double
    /// delivery is a caller bug the server's panic-recovery path must
    /// tolerate, not a panic; delivery to an abandoned slot is the
    /// normal fate of a query whose client stopped waiting.
    pub fn fulfill(&self, value: R) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, SlotState::Empty) {
            *state = SlotState::Full(value);
            drop(state);
            self.filled.notify_all();
            true
        } else {
            false
        }
    }

    /// Block until the response arrives and take it. A second `wait` on
    /// the same slot would block forever, so slots are single-consumer
    /// by convention (the server hands each one to exactly one client).
    pub fn wait(&self) -> R {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *state, SlotState::Taken) {
                SlotState::Full(value) => return value,
                other => *state = other,
            }
            state = self
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Take the response if it has already arrived (non-blocking).
    pub fn try_take(&self) -> Option<R> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match std::mem::replace(&mut *state, SlotState::Taken) {
            SlotState::Full(value) => Some(value),
            other => {
                *state = other;
                None
            }
        }
    }

    /// Abandon the slot: the client stops caring about the response. A
    /// response already delivered is dropped here; one delivered later
    /// is refused by [`fulfill`](ResponseSlot::fulfill) and dropped
    /// there. Either way nothing leaks and no future `wait` could hang
    /// on this slot. Returns `true` if a delivered response was
    /// discarded.
    pub fn abandon(&self) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        matches!(
            std::mem::replace(&mut *state, SlotState::Taken),
            SlotState::Full(_)
        )
    }
}

/// Epoch-counted hot-swap cell for an immutable shared value.
///
/// Readers call [`EpochCell::load`] to snapshot `(epoch, Arc<T>)`; a
/// writer calls [`EpochCell::swap`] to install a new value and bump the
/// epoch. The internal lock is held only long enough to clone the `Arc`
/// (a reference-count increment), so readers never block behind user
/// code and a swap never waits for readers: queries in flight keep the
/// `Arc` they loaded and finish entirely on that epoch.
pub struct EpochCell<T> {
    state: Mutex<(u64, Arc<T>)>,
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> EpochCell<T> {
        EpochCell {
            state: Mutex::new((0, initial)),
        }
    }

    /// Snapshot the current `(epoch, value)` pair. The two are read
    /// under one lock, so a load never pairs an old epoch with a new
    /// value or vice versa.
    pub fn load(&self) -> (u64, Arc<T>) {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (state.0, Arc::clone(&state.1))
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).0
    }

    /// Install `value` as the new current, bumping the epoch. Returns
    /// the new epoch. Loads that already happened keep their old `Arc`;
    /// loads from now on see the new pair.
    pub fn swap(&self, value: Arc<T>) -> u64 {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.0 += 1;
        state.1 = value;
        state.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn batches_preserve_fifo_order() {
        let q = BatchQueue::new();
        for i in 0..7 {
            assert!(q.push(i).is_queued());
        }
        let mut batch = Vec::new();
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, vec![0, 1, 2]);
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, vec![3, 4, 5]);
        assert!(q.pop_batch(3, &mut batch));
        assert_eq!(batch, vec![6]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q = BatchQueue::new();
        assert!(q.push(1).is_queued());
        q.close();
        assert_eq!(q.push(2), PushOutcome::Closed, "closed queue must refuse new work");
        let mut batch = Vec::new();
        assert!(q.pop_batch(8, &mut batch), "pending work survives close");
        assert_eq!(batch, vec![1]);
        assert!(!q.pop_batch(8, &mut batch), "drained + closed ⇒ exit");
        assert!(batch.is_empty());
        assert!(q.is_closed());
    }

    #[test]
    fn zero_cap_still_makes_progress() {
        let q = BatchQueue::new();
        assert!(q.push(9).is_queued());
        let mut batch = Vec::new();
        assert!(q.pop_batch(0, &mut batch));
        assert_eq!(batch, vec![9]);
    }

    #[test]
    fn bounded_queue_sheds_at_capacity() {
        let q = BatchQueue::bounded(2);
        assert_eq!(q.capacity(), Some(2));
        assert!(q.push(1).is_queued());
        assert!(q.push(2).is_queued());
        assert_eq!(q.push(3), PushOutcome::Full { depth: 2 });
        assert_eq!(q.len(), 2, "the shed item was dropped, not queued");
        // Draining restores admission.
        let mut batch = Vec::new();
        assert!(q.pop_batch(1, &mut batch));
        assert_eq!(batch, vec![1]);
        assert!(q.push(3).is_queued());
        assert_eq!(q.push(4), PushOutcome::Full { depth: 2 });
    }

    #[test]
    fn zero_capacity_promoted_to_one() {
        let q = BatchQueue::bounded(0);
        assert_eq!(q.capacity(), Some(1));
        assert!(q.push(7).is_queued());
        assert_eq!(q.push(8), PushOutcome::Full { depth: 1 });
    }

    #[test]
    fn unbounded_queue_reports_no_capacity() {
        let q: BatchQueue<u32> = BatchQueue::new();
        assert_eq!(q.capacity(), None);
    }

    #[test]
    fn push_wait_parks_until_space() {
        let q = Arc::new(BatchQueue::bounded(1));
        assert!(q.push(0).is_queued());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(1))
        };
        // Drain one item; the parked producer must then get through.
        let mut batch = Vec::new();
        assert!(q.pop_batch(1, &mut batch));
        assert_eq!(batch, vec![0]);
        assert_eq!(
            producer.join().expect("producer thread must not panic"),
            PushOutcome::Queued
        );
        assert!(q.pop_batch(1, &mut batch));
        assert_eq!(batch, vec![1]);
    }

    #[test]
    fn push_wait_wakes_on_close() {
        let q = Arc::new(BatchQueue::bounded(1));
        assert!(q.push(0).is_queued());
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push_wait(1))
        };
        q.close();
        assert_eq!(
            producer.join().expect("producer thread must not panic"),
            PushOutcome::Closed
        );
    }

    #[test]
    fn cross_thread_handoff() {
        let q = Arc::new(BatchQueue::new());
        let total: usize = 100;
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut batch = Vec::new();
                while q.pop_batch(4, &mut batch) {
                    seen.extend(batch.iter().copied());
                }
                seen
            })
        };
        for i in 0..total {
            assert!(q.push_wait(i).is_queued());
        }
        q.close();
        let seen = consumer.join().expect("consumer thread must not panic");
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_cross_thread_handoff_loses_nothing() {
        let q = Arc::new(BatchQueue::bounded(3));
        let total: usize = 200;
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                let mut batch = Vec::new();
                while q.pop_batch(2, &mut batch) {
                    seen.extend(batch.iter().copied());
                }
                seen
            })
        };
        for i in 0..total {
            assert!(q.push_wait(i).is_queued());
        }
        q.close();
        let seen = consumer.join().expect("consumer thread must not panic");
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
    }

    #[test]
    fn slot_fulfill_then_wait() {
        let slot = ResponseSlot::new();
        assert!(slot.try_take().is_none());
        assert!(slot.fulfill(41));
        assert!(!slot.fulfill(42), "second delivery is refused");
        assert_eq!(slot.wait(), 41);
        assert!(slot.try_take().is_none(), "a response is taken once");
    }

    #[test]
    fn slot_wait_blocks_until_fulfilled() {
        let slot = Arc::new(ResponseSlot::new());
        let waiter = {
            let slot = Arc::clone(&slot);
            std::thread::spawn(move || slot.wait())
        };
        slot.fulfill("done");
        assert_eq!(
            waiter.join().expect("waiter thread must not panic"),
            "done"
        );
    }

    #[test]
    fn abandoned_slot_refuses_late_delivery() {
        let slot: ResponseSlot<u32> = ResponseSlot::new();
        assert!(!slot.abandon(), "nothing delivered yet, nothing discarded");
        assert!(!slot.fulfill(9), "delivery to an abandoned slot is refused");
        assert!(slot.try_take().is_none());
    }

    #[test]
    fn abandon_discards_a_delivered_response() {
        let slot = ResponseSlot::new();
        assert!(slot.fulfill(5));
        assert!(slot.abandon(), "the delivered response is discarded");
        assert!(slot.try_take().is_none());
    }

    #[test]
    fn epoch_cell_swaps_and_counts() {
        let cell = EpochCell::new(Arc::new(10u32));
        assert_eq!(cell.epoch(), 0);
        let (e0, v0) = cell.load();
        assert_eq!((e0, *v0), (0, 10));
        assert_eq!(cell.swap(Arc::new(20)), 1);
        let (e1, v1) = cell.load();
        assert_eq!((e1, *v1), (1, 20));
        // The old snapshot is untouched by the swap.
        assert_eq!(*v0, 10);
        assert_eq!(cell.swap(Arc::new(30)), 2);
        assert_eq!(cell.epoch(), 2);
    }

    /// Panic while holding `lock`'s guard, leaving the mutex poisoned.
    fn poison<T>(lock: &Mutex<T>) {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
            panic!("poisoning the state mutex");
        }));
        assert!(caught.is_err());
        assert!(lock.is_poisoned());
    }

    #[test]
    fn poisoned_state_mutexes_keep_working() {
        let q = BatchQueue::bounded(2);
        assert!(q.push(1).is_queued());
        poison(&q.state);
        assert!(q.push(2).is_queued());
        assert_eq!(q.push(3), PushOutcome::Full { depth: 2 });
        assert_eq!(q.len(), 2);
        let mut batch = Vec::new();
        assert!(q.pop_batch(1, &mut batch));
        assert_eq!(batch, vec![1]);
        assert_eq!(q.push_wait(3), PushOutcome::Queued);
        q.close();
        assert!(q.is_closed());
        assert!(q.pop_batch(8, &mut batch));
        assert_eq!(batch, vec![2, 3]);
        assert!(!q.pop_batch(8, &mut batch));

        let slot = ResponseSlot::new();
        poison(&slot.state);
        assert!(slot.fulfill(7));
        assert!(!slot.fulfill(8), "second delivery is still refused");
        assert_eq!(slot.wait(), 7);
        assert!(slot.try_take().is_none());
        assert!(!slot.abandon());

        let cell = EpochCell::new(Arc::new(1u32));
        poison(&cell.state);
        assert_eq!(cell.swap(Arc::new(2)), 1);
        let (epoch, value) = cell.load();
        assert_eq!((epoch, *value), (1, 2));
        assert_eq!(cell.epoch(), 1);
    }

    #[test]
    fn epoch_cell_pairs_epoch_with_value() {
        let cell = Arc::new(EpochCell::new(Arc::new(0u64)));
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for _ in 0..1000 {
                    let (epoch, value) = cell.load();
                    // The invariant: value == epoch, atomically paired.
                    assert_eq!(*value, epoch);
                }
            })
        };
        for i in 1..=100u64 {
            assert_eq!(cell.swap(Arc::new(i)), i);
        }
        reader.join().expect("reader thread must not panic");
    }
}
