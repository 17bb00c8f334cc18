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
//! (no runtime path uses them; benchmarks and tests do); each locks one
//! page.
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
//!
//! **A refused producer can wait for progress.** A producer that must not
//! drop what a full ring refused calls [`Producer::wait_for_room`]: it
//! marks itself waiting, re-checks, and parks until the consumer has
//! drained the ring to its *low watermark*, half the capacity, or has been
//! dropped. A retire that leaves the ring at or under the watermark reads
//! the waiting flag once, after it publishes `head`, and unparks the
//! producer only when the flag is set, clearing the flag as it does: one
//! wake-up per half ring, not one per burst. The flag and `head` form a
//! Dekker pair: each side stores its own with `SeqCst` and then loads the
//! other's with `SeqCst`, so at least one of them sees the other, and a
//! wake-up is never lost. A retire that leaves the ring above the
//! watermark skips the flag and the fence: no waiting producer is due a
//! wake-up yet. Dropping the consumer wakes a waiting producer too, so it
//! sees [`Producer::is_receiver_gone`] at once. The wait's timeout is a
//! safety net for the caller's own stop conditions, not a poll: a producer
//! that waits out its timeout has not been refused again, and gets `false`
//! back to decide whether to wait more.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

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
    /// Set while the producer waits in [`Producer::wait_for_room`]; the
    /// consumer clears it when it wakes the producer.
    producer_waiting: AtomicBool,
    /// The waiting producer's thread, for the consumer to unpark.
    producer_thread: Mutex<Option<Thread>>,
    /// Slot count, kept here so observers need no generic access.
    capacity: usize,
}

impl Control {
    /// The occupancy a waiting producer is woken at: half the ring.
    fn low_watermark(&self) -> usize {
        self.capacity / 2
    }

    /// Unparks the producer waiting in [`Producer::wait_for_room`], if one
    /// still waits (the flag is taken, so each wait gets one wake-up).
    fn wake_producer(&self) {
        if self.producer_waiting.swap(false, Ordering::SeqCst) {
            let thread = self.producer_thread.lock();
            if let Some(t) = thread.unwrap_or_else(PoisonError::into_inner).as_ref() {
                t.unpark();
            }
        }
    }
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
            producer_waiting: AtomicBool::new(false),
            producer_thread: Mutex::new(None),
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

    /// Blocks until the consumer has drained the ring to its low watermark
    /// (half the capacity) or has been dropped, or until `timeout` elapses.
    /// Returns `false` on the timeout alone. Meant for after a refusal: it
    /// returns at once when the ring is already at the watermark, so a
    /// caller that retries after it is refused at most once per half ring
    /// of progress.
    pub fn wait_for_room(&self, timeout: Duration) -> bool {
        let ctl = &self.inner.ctl;
        let deadline = Instant::now() + timeout;
        *ctl.producer_thread
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(std::thread::current());
        let woken = loop {
            // Re-armed on every round: the consumer takes the flag when it
            // wakes us, and a wake-up may also be a stale or spurious one.
            // SeqCst store, then SeqCst loads: the Dekker pair with the
            // consumer's retire and drop.
            ctl.producer_waiting.store(true, Ordering::SeqCst);
            if ctl.consumer_gone.load(Ordering::SeqCst) {
                break true;
            }
            let tail = ctl.tail.0.load(Ordering::Relaxed);
            self.cached_head.set(ctl.head.0.load(Ordering::SeqCst));
            if tail - self.cached_head.get() <= ctl.low_watermark() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            std::thread::park_timeout(deadline - now);
        };
        ctl.producer_waiting.store(false, Ordering::SeqCst);
        woken
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

    /// Retires every slot before `head` (one publish, releasing the slots
    /// to the producer), then wakes a waiting producer once the ring is at
    /// its low watermark. `SeqCst` store, then `SeqCst` load of the flag:
    /// the Dekker pair with [`Producer::wait_for_room`]. The flag is read
    /// once per retire at or under the watermark, and `tail` only while
    /// the flag is set (a waiting producer pushes nothing, so that load is
    /// exact).
    fn retire(&self, head: usize) {
        let ctl = &self.inner.ctl;
        if head + ctl.low_watermark() < self.cached_tail.get() {
            // Above the watermark even by the cached `tail`, which is never
            // ahead of the real one: no waiting producer is due a wake-up,
            // and the retire that brings the ring down to the watermark
            // looks at the flag. A plain release store spares the consumer
            // the full fence on the upper half of the ring.
            ctl.head.0.store(head, Ordering::Release);
            return;
        }
        ctl.head.0.store(head, Ordering::SeqCst);
        if ctl.producer_waiting.load(Ordering::SeqCst)
            && ctl.tail.0.load(Ordering::Acquire) - head <= ctl.low_watermark()
        {
            ctl.wake_producer();
        }
    }

    /// Dequeues the oldest item, or `None` when the ring is currently empty.
    pub fn pop(&self) -> Option<T> {
        let head = self.inner.ctl.head.0.load(Ordering::Relaxed);
        if self.ready(head, 1) == 0 {
            return None;
        }
        let mut v = None;
        self.inner.for_cells(head, 1, |cell| v = cell.take());
        self.retire(head + 1);
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
            self.retire(head + n);
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
        // SeqCst, then the flag: the same Dekker pair as `retire`, so a
        // producer waiting on a ring nobody will drain again hears of it.
        let ctl = &self.inner.ctl;
        ctl.consumer_gone.store(true, Ordering::SeqCst);
        if ctl.producer_waiting.load(Ordering::SeqCst) {
            ctl.wake_producer();
        }
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

    /// Far longer than any wake-up takes, even on one busy CPU, and far
    /// shorter than the 60 s the blocked producers ask for: a producer
    /// slower than this was woken by its timeout, not by the consumer.
    const PROMPT: Duration = Duration::from_secs(10);

    fn waiting(g: &RingGauges) -> bool {
        g.ctl.producer_waiting.load(Ordering::SeqCst)
    }

    /// Polls until the producer of `g`'s ring is waiting.
    fn await_waiting(g: &RingGauges) {
        let t0 = Instant::now();
        while !waiting(g) {
            assert!(t0.elapsed() < PROMPT, "the producer never waited");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A producer blocked in `wait_for_room(60 s)` on its own thread;
    /// joins to its result, how long it waited, and the producer.
    fn blocked_producer(
        tx: Producer<u32>,
    ) -> std::thread::JoinHandle<(bool, Duration, Producer<u32>)> {
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let woken = tx.wait_for_room(Duration::from_secs(60));
            (woken, t0.elapsed(), tx)
        })
    }

    /// A full ring of `capacity` slots.
    fn full(capacity: usize) -> (Producer<u32>, Consumer<u32>) {
        let (tx, rx) = channel(capacity);
        let mut burst: Vec<u32> = (0..capacity as u32 + 1).collect();
        assert_eq!(tx.push_burst(&mut burst), capacity);
        (tx, rx)
    }

    #[test]
    fn a_parked_producer_wakes_once_the_ring_is_drained_to_half() {
        let (tx, rx) = full(8);
        let g = rx.gauges();
        let h = blocked_producer(tx);
        await_waiting(&g);
        // Three of eight drained: five queued, still above the watermark.
        assert_eq!(rx.pop_burst(3, drop), 3);
        std::thread::sleep(Duration::from_millis(50));
        assert!(!h.is_finished(), "woken above the watermark");
        assert!(waiting(&g), "the flag must outlive a drain above half");
        // The fourth brings the ring to half: one wake-up.
        assert_eq!(rx.pop(), Some(3));
        let (woken, waited, tx) = h.join().unwrap();
        assert!(woken, "timed out instead of being woken");
        assert!(waited < PROMPT, "woken after {waited:?}");
        assert!(!waiting(&g));
        assert_eq!(tx.len(), 4);
    }

    #[test]
    fn dropping_the_consumer_wakes_a_parked_producer() {
        let (tx, rx) = full(8);
        let g = rx.gauges();
        let h = blocked_producer(tx);
        await_waiting(&g);
        drop(rx);
        let (woken, waited, tx) = h.join().unwrap();
        assert!(woken, "timed out instead of being woken");
        assert!(waited < PROMPT, "woken after {waited:?}");
        assert!(tx.is_receiver_gone());
        assert_eq!(tx.len(), 8, "nothing was drained");
    }

    #[test]
    fn a_timed_out_wait_leaves_no_waiting_flag_behind() {
        let (tx, rx) = full(8);
        let g = rx.gauges();
        let t0 = Instant::now();
        assert!(!tx.wait_for_room(Duration::from_millis(5)));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(!waiting(&g));
        // A later wait still registers, so a drain to half still wakes it.
        let h = blocked_producer(tx);
        await_waiting(&g);
        assert_eq!(rx.pop_burst(4, drop), 4);
        let (woken, waited, _tx) = h.join().unwrap();
        assert!(woken, "timed out instead of being woken");
        assert!(waited < PROMPT, "woken after {waited:?}");
        assert!(!waiting(&g));
    }

    #[test]
    fn a_ring_already_at_half_does_not_park() {
        let (tx, rx) = full(8);
        assert_eq!(rx.pop_burst(4, drop), 4);
        let t0 = Instant::now();
        assert!(tx.wait_for_room(Duration::from_secs(60)));
        assert!(t0.elapsed() < PROMPT);
        assert!(!waiting(&rx.gauges()));
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

    #[test]
    fn cross_thread_parked_producer_is_never_stranded() {
        // The burst stress with a producer that parks on every refusal: a
        // lost wake-up strands it for the whole 60 s, and the run counts
        // one refusal per half ring of progress at most.
        let (tx, rx) = channel::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            let mut burst = Vec::with_capacity(48);
            while next < N || !burst.is_empty() {
                while burst.len() < 1 + (next % 48) as usize && next < N {
                    burst.push(next);
                    next += 1;
                }
                tx.push_burst(&mut burst);
                if !burst.is_empty() {
                    assert!(tx.wait_for_room(Duration::from_secs(60)), "stranded");
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
        assert!(gauges.enqueue_failed() <= N.div_ceil(32) + 1);
    }
}
