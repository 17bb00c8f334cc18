//! Bounded single-producer/single-consumer rings — the DPDK `rte_ring`
//! stand-in that connects each RX queue to exactly one worker thread.
//!
//! NBA's data plane never shares a queue between threads: the NIC steers a
//! packet to one RX queue (RSS) and exactly one worker drains that queue, so
//! every ring has one producer and one consumer by construction. That
//! protocol is encoded in the types here: [`channel`] hands back a
//! [`Producer`]/[`Consumer`] pair and neither half is `Clone`, so the
//! single-producer/single-consumer discipline is enforced at compile time.
//!
//! The implementation keeps the classic lock-free shape — two monotonically
//! increasing cursors (`head` for the consumer, `tail` for the producer),
//! each written by exactly one side and read by the other with
//! acquire/release ordering — plus the payload slots, grouped into *pages*
//! of consecutive `Option<T>` cells behind one `Mutex` each. The workspace
//! forbids `unsafe`, so the cells sit behind a mutex instead of an
//! `UnsafeCell`. The page length is derived from the capacity (a quarter of
//! the ring, clamped to `[1, 64]`), never configured, so every ring has
//! several pages. A side holds at most one page lock at a time, so there is
//! no lock order to get wrong; the two sides meet on one page only while
//! the ring holds less than a page, and then the loser waits for a few cell
//! moves. The cursors remain the only cross-thread synchronization that
//! decides what a side may touch.
//!
//! **The burst is the unit of synchronization.** [`Producer::push_burst`]
//! fills as many slots as the ring has room for, locking each page it
//! touches once, and publishes them with *one* release store of `tail`;
//! [`Consumer::pop_burst`] drains up to a burst the same way and retires it
//! with *one* release store of `head` (the `rte_ring` bulk
//! enqueue/dequeue). A 64-item burst therefore takes one or two page locks
//! per side, not 64. Slots, capacity, occupancy and every gauge stay
//! packet-granular — a burst is how often the cursors move, not what the
//! ring holds. [`Producer::push`]/[`Consumer::pop`] are the one-item forms
//! (the offload command rings use them); each locks one page.
//!
//! **Cursor traffic is kept off the other side's cache line.** `head` and
//! `tail` each sit on their own 64-byte line, and each half caches the last
//! value it saw of the *opposite* cursor, re-loading it only when the cached
//! value cannot satisfy the request (too little room for the producer, too
//! few items for the consumer). With a backlog — or with slack — in the
//! ring, a side touches the other's line once per several bursts, not once
//! per operation.
//!
//! Every ring also keeps always-on occupancy statistics in its control
//! block; [`RingGauges`] is a cheap `Clone`-able observer handle over that
//! block, so a third thread can watch a ring whose two halves have long
//! since moved into other threads. The gauges are single-writer (the
//! producer) and live on a third line, so maintaining them costs plain
//! loads and stores, never a read-modify-write:
//!
//! * `occupancy` — `tail − head`, a racy snapshot in packets;
//! * `high_water` — a never-under mark of the highest occupancy at push
//!   time, `≤ capacity` (`head` is re-read only when the cached one would
//!   raise the mark; the consumer may drain between that read and the
//!   store, so the mark can over-state, never under-state);
//! * `enqueue_failed` — push *attempts* the ring refused in whole or in
//!   part: a refused `push` counts one, a `push_burst` that could not place
//!   its whole burst counts one however many items were left over.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Aligns (and thereby pads) a value to its own 64-byte cache line.
#[derive(Debug)]
#[repr(align(64))]
struct Line<T>(T);

/// The producer-written occupancy statistics of one ring.
#[derive(Debug)]
struct ProducerStats {
    /// Highest occupancy ever observed at push time.
    high_water: AtomicUsize,
    /// Push attempts refused in whole or in part.
    enqueue_failed: AtomicU64,
}

/// The non-generic control block of one ring: the two cursors, the close
/// flags, and the occupancy statistics. Shared (via [`RingGauges`]) with
/// observers that never touch the payload slots.
#[derive(Debug)]
struct Control {
    /// Consumer cursor: next slot index to pop. Monotonic, wraps via `% cap`.
    /// Written only by the consumer.
    head: Line<AtomicUsize>,
    /// Producer cursor: next slot index to push. Monotonic, wraps via `% cap`.
    /// Written only by the producer.
    tail: Line<AtomicUsize>,
    /// Written only by the producer (plain load + store, relaxed: gauges,
    /// not synchronization points), off both cursor lines.
    stats: Line<ProducerStats>,
    /// Set when the producer is dropped; the consumer drains then reports
    /// disconnection.
    closed: AtomicBool,
    /// Set when the consumer is dropped: nobody will ever drain this ring
    /// again. Producers probe this to detect a crashed worker instead of
    /// silently accumulating `enqueue_failed` against a dead ring.
    consumer_gone: AtomicBool,
    /// Slot count, kept here so observers need no generic access.
    capacity: usize,
}

/// One page of payload cells, on lines of its own so that the two sides
/// locking neighbouring pages never share a lock word's line.
type Page<T> = Line<Mutex<Box<[Option<T>]>>>;

struct Inner<T> {
    /// The slots in pages of `page_len` cells (the last may be shorter).
    pages: Box<[Page<T>]>,
    page_len: usize,
    ctl: Arc<Control>,
}

/// Cells per page of a ring of `capacity` slots: a quarter of the ring, so
/// every ring has several pages, and at most one 64-item burst.
fn page_len(capacity: usize) -> usize {
    (capacity / 4).clamp(1, 64)
}

impl<T> Inner<T> {
    /// Applies `f` to the `n` cells from cursor `at` on, in ring order,
    /// taking each page's lock once. `f` runs under the page lock. A
    /// poisoned page (a sink that panicked) is still consistent: every cell
    /// is either filled or empty.
    fn for_cells(&self, at: usize, n: usize, mut f: impl FnMut(&mut Option<T>)) {
        let cap = self.ctl.capacity;
        let mut slot = at % cap;
        let mut left = n;
        while left > 0 {
            let page = &self.pages[slot / self.page_len].0;
            let mut cells = page.lock().unwrap_or_else(PoisonError::into_inner);
            let cells = &mut cells[slot % self.page_len..];
            let k = cells.len().min(left);
            cells[..k].iter_mut().for_each(&mut f);
            left -= k;
            slot = (slot + k) % cap;
        }
    }
}

/// The sending half of a bounded SPSC ring. Not `Clone`; dropping it closes
/// the ring. `Send` but not `Sync`: the cached cursor makes sharing a
/// `&Producer` across threads a compile error, which is the protocol.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Last `head` this side loaded; never ahead of the real one, so the
    /// free space computed from it is a safe under-estimate.
    cached_head: Cell<usize>,
}

/// The receiving half of a bounded SPSC ring. Not `Clone`; `Send` but not
/// `Sync`, like [`Producer`].
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Last `tail` this side loaded; never ahead of the real one, so the
    /// items computed from it are all published.
    cached_tail: Cell<usize>,
}

/// A read-only observer handle over one ring's occupancy statistics.
/// `Clone`-able and payload-type-erased: take one before moving the
/// producer/consumer halves into their threads and poll it from anywhere
/// (the live runtime's reporter and stats endpoint do exactly that). It
/// keeps reading the final state after both halves are gone.
#[derive(Clone, Debug)]
pub struct RingGauges {
    ctl: Arc<Control>,
}

impl RingGauges {
    /// Items currently queued (racy snapshot; relaxed loads).
    pub fn occupancy(&self) -> usize {
        let tail = self.ctl.tail.0.load(Ordering::Relaxed);
        let head = self.ctl.head.0.load(Ordering::Relaxed);
        tail.saturating_sub(head)
    }

    /// Highest occupancy ever observed at push time: a never-under mark,
    /// at most [`capacity`](Self::capacity).
    pub fn high_water(&self) -> usize {
        self.ctl.stats.0.high_water.load(Ordering::Relaxed)
    }

    /// Cumulative push attempts the ring refused in whole or in part (a
    /// partially placed burst counts once).
    pub fn enqueue_failed(&self) -> u64 {
        self.ctl.stats.0.enqueue_failed.load(Ordering::Relaxed)
    }

    /// True once the consumer has been dropped (post-mortem observers use
    /// this to attribute whatever occupancy remains as lost-in-ring).
    pub fn consumer_gone(&self) -> bool {
        self.ctl.consumer_gone.load(Ordering::Acquire)
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.ctl.capacity
    }
}

/// Creates a bounded SPSC ring holding at most `capacity` items.
///
/// # Panics
/// Panics if `capacity` is zero.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "spsc ring capacity must be non-zero");
    let page_len = page_len(capacity);
    let pages = (0..capacity)
        .step_by(page_len)
        .map(|first| {
            let cells = (first..capacity.min(first + page_len)).map(|_| None);
            Line(Mutex::new(cells.collect()))
        })
        .collect();
    let inner = Arc::new(Inner {
        pages,
        page_len,
        ctl: Arc::new(Control {
            head: Line(AtomicUsize::new(0)),
            tail: Line(AtomicUsize::new(0)),
            stats: Line(ProducerStats {
                high_water: AtomicUsize::new(0),
                enqueue_failed: AtomicU64::new(0),
            }),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            capacity,
        }),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            cached_head: Cell::new(0),
        },
        Consumer {
            inner,
            cached_tail: Cell::new(0),
        },
    )
}

impl<T> Producer<T> {
    /// Free slots at `tail`, re-loading the consumer's cursor only when the
    /// cached one cannot satisfy `want`.
    fn room(&self, tail: usize, want: usize) -> usize {
        let cap = self.inner.ctl.capacity;
        let mut free = cap - (tail - self.cached_head.get());
        if free < want {
            // Pairs with the consumer's release store of `head`: the slots
            // it retired are empty before we refill them.
            self.cached_head
                .set(self.inner.ctl.head.0.load(Ordering::Acquire));
            free = cap - (tail - self.cached_head.get());
        }
        free
    }

    /// Publishes `tail` (one release store: everything written to the slots
    /// before it is visible to a consumer that acquires it) and maintains
    /// the single-writer gauges with plain loads and stores.
    fn publish(&self, tail: usize, refused: bool) {
        let ctl = &self.inner.ctl;
        ctl.tail.0.store(tail, Ordering::Release);
        let stats = &ctl.stats.0;
        let mark = stats.high_water.load(Ordering::Relaxed);
        if tail - self.cached_head.get() > mark {
            // The cached head only ever under-states what the consumer
            // drained, so before raising the mark look again: otherwise a
            // consumer that keeps up would still read as a full ring once
            // `capacity` items had gone by.
            self.cached_head.set(ctl.head.0.load(Ordering::Acquire));
            let occupancy = tail - self.cached_head.get();
            if occupancy > mark {
                stats.high_water.store(occupancy, Ordering::Relaxed);
            }
        }
        if refused {
            self.count_refusal();
        }
    }

    fn count_refusal(&self) {
        let failed = &self.inner.ctl.stats.0.enqueue_failed;
        failed.store(failed.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Enqueues `v`, or returns it back when the ring is full (counting the
    /// refusal in the ring's gauges).
    pub fn push(&self, v: T) -> Result<(), T> {
        let tail = self.inner.ctl.tail.0.load(Ordering::Relaxed);
        if self.room(tail, 1) == 0 {
            self.count_refusal();
            return Err(v);
        }
        // The consumer will not touch this cell until it observes the tail
        // advance in `publish`.
        let mut v = Some(v);
        self.inner.for_cells(tail, 1, |cell| *cell = v.take());
        self.publish(tail + 1, false);
        Ok(())
    }

    /// Enqueues items from the front of `burst`, in order, until the ring
    /// is full, and publishes them with one release store. The enqueued
    /// items are removed from `burst` (whatever the ring refused stays, in
    /// order, for the caller to retry or give up on); returns how many were
    /// enqueued. A burst larger than the ring's free space makes partial
    /// progress and counts *one* refusal.
    pub fn push_burst(&self, burst: &mut Vec<T>) -> usize {
        if burst.is_empty() {
            return 0;
        }
        let tail = self.inner.ctl.tail.0.load(Ordering::Relaxed);
        let n = self.room(tail, burst.len()).min(burst.len());
        let mut items = burst.drain(..n);
        self.inner.for_cells(tail, n, |cell| *cell = items.next());
        drop(items);
        if n > 0 {
            self.publish(tail + n, !burst.is_empty());
        } else {
            self.count_refusal();
        }
        n
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        let tail = self.inner.ctl.tail.0.load(Ordering::Relaxed);
        let head = self.inner.ctl.head.0.load(Ordering::Acquire);
        tail - head
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.inner.ctl.capacity
    }

    /// True once the consumer has been dropped: every item already queued
    /// (and any pushed from now on) will never be drained. The producer's
    /// signal that the thread on the other end died.
    pub fn is_receiver_gone(&self) -> bool {
        self.inner.ctl.consumer_gone.load(Ordering::Acquire)
    }

    /// A `Clone`-able observer over this ring's occupancy statistics.
    pub fn gauges(&self) -> RingGauges {
        RingGauges {
            ctl: Arc::clone(&self.inner.ctl),
        }
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.ctl.closed.store(true, Ordering::Release);
    }
}

impl<T> Consumer<T> {
    /// Items published at `head`, re-loading the producer's cursor only
    /// when the cached one shows fewer than `want`.
    fn ready(&self, head: usize, want: usize) -> usize {
        if self.cached_tail.get() - head < want {
            // Pairs with the producer's release store of `tail`: the slots
            // it filled are written before we read them.
            self.cached_tail
                .set(self.inner.ctl.tail.0.load(Ordering::Acquire));
        }
        self.cached_tail.get() - head
    }

    /// Dequeues the oldest item, or `None` when the ring is currently empty.
    pub fn pop(&self) -> Option<T> {
        let head = self.inner.ctl.head.0.load(Ordering::Relaxed);
        if self.ready(head, 1) == 0 {
            return None;
        }
        let mut v = None;
        self.inner.for_cells(head, 1, |cell| v = cell.take());
        self.inner.ctl.head.0.store(head + 1, Ordering::Release);
        v
    }

    /// Dequeues up to `max` of the oldest items into `sink`, in order, and
    /// retires them with one release store. Returns how many were dequeued
    /// (0 when the ring is currently empty). `sink` runs while the items'
    /// page is locked, so it must not use this ring.
    pub fn pop_burst(&self, max: usize, mut sink: impl FnMut(T)) -> usize {
        let head = self.inner.ctl.head.0.load(Ordering::Relaxed);
        let n = self.ready(head, max).min(max);
        self.inner.for_cells(head, n, |cell| {
            if let Some(v) = cell.take() {
                sink(v);
            }
        });
        if n > 0 {
            self.inner.ctl.head.0.store(head + n, Ordering::Release);
        }
        n
    }

    /// Number of items currently queued.
    pub fn len(&self) -> usize {
        let head = self.inner.ctl.head.0.load(Ordering::Relaxed);
        let tail = self.inner.ctl.tail.0.load(Ordering::Acquire);
        tail - head
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when the producer is gone AND the ring is drained — the
    /// consumer's termination condition.
    pub fn is_disconnected(&self) -> bool {
        // Order matters: check closed before emptiness so a push racing the
        // producer's drop is never missed (close happens-after the last
        // push's release store). Emptiness is judged on a fresh load of
        // `tail`, never the cached cursor, which may predate that push.
        self.inner.ctl.closed.load(Ordering::Acquire) && self.is_empty()
    }

    /// A `Clone`-able observer over this ring's occupancy statistics.
    pub fn gauges(&self) -> RingGauges {
        RingGauges {
            ctl: Arc::clone(&self.inner.ctl),
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.ctl.consumer_gone.store(true, Ordering::Release);
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity_bound() {
        let (tx, rx) = channel(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert_eq!(tx.push(99), Err(99), "5th push must report full");
        assert_eq!(tx.len(), 4);
        for i in 0..4 {
            assert_eq!(rx.pop(), Some(i));
        }
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wraps_around_many_times() {
        let (tx, rx) = channel(3);
        for i in 0..1000u32 {
            tx.push(i).unwrap();
            assert_eq!(rx.pop(), Some(i));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn pages_tile_the_ring() {
        for (capacity, page, pages) in [(1, 1, 1), (7, 1, 7), (9, 2, 5), (32, 8, 4), (4096, 64, 64)]
        {
            let (tx, _rx) = channel::<u8>(capacity);
            let inner = &tx.inner;
            assert_eq!(
                (inner.page_len, inner.pages.len()),
                (page, pages),
                "capacity {capacity}"
            );
            let cells: usize = inner.pages.iter().map(|p| p.0.lock().unwrap().len()).sum();
            assert_eq!(cells, capacity);
        }
    }

    #[test]
    fn bursts_straddle_pages_and_a_short_last_page() {
        // Nine slots in pages of 2, 2, 2, 2 and 1: bursts of 4 start at
        // every offset, cross page boundaries and wrap mid-page.
        let (tx, rx) = channel::<u32>(9);
        let mut next = 0;
        let mut expect = 0;
        for _ in 0..40 {
            let mut burst: Vec<u32> = (next..next + 4).collect();
            assert_eq!(tx.push_burst(&mut burst), 4);
            next += 4;
            rx.pop_burst(3, |v| {
                assert_eq!(v, expect);
                expect += 1;
            });
            if tx.len() > 4 {
                rx.pop_burst(4, |v| {
                    assert_eq!(v, expect);
                    expect += 1;
                });
            }
        }
        rx.pop_burst(9, |v| {
            assert_eq!(v, expect);
            expect += 1;
        });
        assert_eq!(expect, next);
    }

    #[test]
    fn disconnect_after_drain() {
        let (tx, rx) = channel::<u32>(8);
        tx.push(1).unwrap();
        drop(tx);
        assert!(!rx.is_disconnected(), "still holds an item");
        assert_eq!(rx.pop(), Some(1));
        assert!(rx.is_disconnected());
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn gauges_track_occupancy_high_water_and_failures() {
        let (tx, rx) = channel::<u32>(4);
        let g = tx.gauges();
        assert_eq!(g.capacity(), 4);
        assert_eq!(
            (g.occupancy(), g.high_water(), g.enqueue_failed()),
            (0, 0, 0)
        );

        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(g.occupancy(), 2);
        assert_eq!(g.high_water(), 2);

        assert_eq!(rx.pop(), Some(1));
        assert_eq!(g.occupancy(), 1, "occupancy follows the consumer");
        assert_eq!(g.high_water(), 2, "high water does not recede");

        for v in 3..6 {
            tx.push(v).unwrap();
        }
        assert_eq!(g.occupancy(), 4);
        assert_eq!(g.high_water(), 4);
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(tx.push(98), Err(98));
        assert_eq!(g.enqueue_failed(), 2);
        // Failed pushes never move the high-water mark past capacity.
        assert_eq!(g.high_water(), 4);

        // Both halves hand out the same underlying gauges.
        let g2 = rx.gauges();
        assert_eq!(g2.enqueue_failed(), 2);
        assert_eq!(g2.occupancy(), g.occupancy());
    }

    #[test]
    fn burst_moves_in_order_and_makes_partial_progress() {
        let (tx, rx) = channel::<u32>(4);
        let mut burst: Vec<u32> = (0..6).collect();
        assert_eq!(tx.push_burst(&mut burst), 4, "fills what fits");
        assert_eq!(burst, [4, 5], "the refused tail stays, in order");
        let mut got = Vec::new();
        assert_eq!(rx.pop_burst(3, |v| got.push(v)), 3, "bounded by max");
        assert_eq!(tx.push_burst(&mut burst), 2);
        assert!(burst.is_empty());
        assert_eq!(rx.pop_burst(64, |v| got.push(v)), 3, "bounded by queued");
        assert_eq!(got, [0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.pop_burst(64, |v| got.push(v)), 0);
        assert_eq!(tx.push_burst(&mut burst), 0, "empty burst is a no-op");
        assert_eq!(tx.gauges().enqueue_failed(), 1, "only the partial burst");
    }

    #[test]
    fn refused_bursts_count_once_each_and_gauges_outlive_the_ring() {
        const REFUSED: u64 = 7;
        let (tx, rx) = channel::<u32>(8);
        let g = rx.gauges();
        // Partially refused (8 of 12 fit), then wholly refused, then a
        // refused single push: one count per attempt, not per item.
        let mut burst: Vec<u32> = (0..12).collect();
        assert_eq!(tx.push_burst(&mut burst), 8);
        for _ in 1..REFUSED - 1 {
            assert_eq!(tx.push_burst(&mut burst), 0);
            assert_eq!(burst.len(), 4, "a refused burst is left untouched");
        }
        assert_eq!(tx.push(99), Err(99));
        assert_eq!(g.enqueue_failed(), REFUSED);
        assert_eq!(g.high_water(), 8);
        assert!(g.high_water() <= g.capacity());
        drop(tx);
        drop(rx);
        assert_eq!(
            (g.occupancy(), g.high_water(), g.enqueue_failed()),
            (8, 8, REFUSED)
        );
        assert!(g.consumer_gone());
    }

    #[test]
    fn high_water_follows_a_consumer_that_keeps_up() {
        // The producer caches `head`; the mark must still reflect what was
        // really queued, not how many items have gone by.
        let (tx, rx) = channel::<u32>(64);
        for round in 0..100 {
            let mut burst = vec![round; 4];
            assert_eq!(tx.push_burst(&mut burst), 4);
            assert_eq!(rx.pop_burst(4, drop), 4);
        }
        assert_eq!(tx.gauges().high_water(), 4);
    }

    #[test]
    fn producer_observes_consumer_death() {
        let (tx, rx) = channel::<u32>(4);
        let g = tx.gauges();
        tx.push(1).unwrap();
        assert!(!tx.is_receiver_gone());
        assert!(!g.consumer_gone());
        drop(rx);
        assert!(tx.is_receiver_gone(), "drop of the consumer must be seen");
        assert!(g.consumer_gone());
        // Pushes into a dead ring still succeed while there is space — the
        // caller decides what to do with the signal.
        tx.push(2).unwrap();
        assert_eq!(g.occupancy(), 2, "undrained items remain attributable");
    }

    #[test]
    fn gauges_outlive_both_halves() {
        let (tx, rx) = channel::<u32>(2);
        let g = tx.gauges();
        tx.push(7).unwrap();
        drop(tx);
        drop(rx);
        // The observer still reads the final state of the control block.
        assert_eq!(g.occupancy(), 1);
        assert_eq!(g.high_water(), 1);
    }

    #[test]
    fn cross_thread_stress_preserves_sequence() {
        let (tx, rx) = channel::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.push(next) {
                    Ok(()) => next += 1,
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        let mut expect = 0u64;
        let gauges = rx.gauges();
        while expect < N {
            match rx.pop() {
                Some(v) => {
                    assert_eq!(v, expect, "ring reordered or duplicated");
                    expect += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert!(rx.is_disconnected());
        assert!(gauges.high_water() <= gauges.capacity());
    }

    #[test]
    fn cross_thread_burst_stress_preserves_sequence() {
        let (tx, rx) = channel::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut burst = Vec::with_capacity(48);
            while next < N || !burst.is_empty() {
                // Bursts of mixed size, some larger than the free space.
                while burst.len() < 1 + (next % 48) as usize && next < N {
                    burst.push(next);
                    next += 1;
                }
                if tx.push_burst(&mut burst) == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut expect = 0u64;
        let gauges = rx.gauges();
        while !rx.is_disconnected() {
            let got = rx.pop_burst(32, |v| {
                assert_eq!(v, expect, "ring reordered or duplicated");
                expect += 1;
            });
            if got == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(expect, N, "disconnect hid queued items");
        assert!(gauges.high_water() <= gauges.capacity());
    }
}
