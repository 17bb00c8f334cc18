//! Receive-side scaling for the live runtime: a thread-side fanout that
//! mirrors [`crate::port::Port::deliver`] over real SPSC rings.
//!
//! The DES NIC model steers frames into simulated queues; the live runtime
//! needs the same flow-affine steering but across OS threads. [`RssFanout`]
//! owns one [`spsc::Producer`] per RX queue and performs exactly the NIC's
//! sequence — read the receive descriptor's RSS hash, pick a queue through
//! the indirection table, stamp the packet's ingress port and queue
//! ([`RssFanout::steer`]), enqueue — so a flow's packets always land on the
//! same worker, in order. That is [`crate::port::Port::admit`]'s rule. As on
//! a NIC, the hash comes with the frame: every source stamps
//! `Packet::rss_hash` when it writes one ([`crate::port::rss_hash`] of its
//! bytes), so steering parses no header and hashes nothing. The live IO
//! threads steer a whole generated burst, stage it per destination queue,
//! and enqueue each stage with one [`RssFanout::push_burst`];
//! [`RssFanout::deliver`] is the one-packet form of the same two steps.

use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::packet::Packet;
use crate::spsc;

/// Entries in the RSS indirection table. Hardware RSS units use a 128-entry
/// table ([`crate::toeplitz::queue_for_hash`] keys on `hash & 0x7f`); making
/// the table a real, swappable structure (instead of a modulo) is what lets
/// the live runtime re-steer a dead worker's buckets at runtime.
pub const RSS_BUCKETS: usize = 128;

/// The RSS bucket→worker indirection table, shared by every IO thread of a
/// run.
///
/// The boot-time assignment `entry[i] = i % workers` reduces to exactly the
/// modulo steering of [`queue_for_hash`], so a run where nothing fails is
/// bit-identical to the fixed-function path. When a worker dies, the
/// supervisor atomically reassigns *only that worker's buckets* onto
/// survivors ([`RssTable::remap_dead`]) — flows hashing to untouched buckets
/// keep their affinity — and a recovered worker re-acquires its home buckets
/// ([`RssTable::restore`]). Lookups are single relaxed loads; rewrites are
/// per-entry atomic stores, so IO threads never lock and never observe a
/// torn table.
#[derive(Debug)]
pub struct RssTable {
    entries: Vec<AtomicU16>,
    workers: u16,
    epoch: AtomicU64,
}

impl RssTable {
    /// Builds the boot table for `workers` queues: `entry[i] = i % workers`,
    /// the same mapping [`queue_for_hash`] computes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: u16) -> RssTable {
        assert!(workers > 0, "an RSS table needs at least one worker");
        RssTable {
            entries: (0..RSS_BUCKETS as u16)
                .map(|i| AtomicU16::new(i % workers))
                .collect(),
            workers,
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of workers the table was built for.
    pub fn worker_count(&self) -> u16 {
        self.workers
    }

    /// The bucket a hash indexes (low 7 bits, as in hardware).
    pub fn bucket_of(hash: u32) -> usize {
        (hash & (RSS_BUCKETS as u32 - 1)) as usize
    }

    /// The worker currently owning the bucket `hash` indexes.
    pub fn worker_for(&self, hash: u32) -> u16 {
        self.entries[Self::bucket_of(hash)].load(Ordering::Relaxed)
    }

    /// The boot-time ("home") owner of a bucket.
    pub fn home(&self, bucket: usize) -> u16 {
        bucket as u16 % self.workers
    }

    /// Reassigns every bucket currently owned by `dead` round-robin onto
    /// `survivors`, leaving all other buckets untouched (flow affinity is
    /// preserved for every live worker). Returns the number of buckets
    /// moved. A no-op when `survivors` is empty.
    pub fn remap_dead(&self, dead: u16, survivors: &[u16]) -> usize {
        if survivors.is_empty() {
            return 0;
        }
        let mut moved = 0usize;
        for e in &self.entries {
            if e.load(Ordering::Relaxed) == dead {
                e.store(survivors[moved % survivors.len()], Ordering::Relaxed);
                moved += 1;
            }
        }
        if moved > 0 {
            self.epoch.fetch_add(1, Ordering::Release);
        }
        moved
    }

    /// Hands every *home* bucket of `worker` back to it (recovery path).
    /// Buckets whose home is another worker are never touched. Returns the
    /// number of buckets re-acquired.
    pub fn restore(&self, worker: u16) -> usize {
        let mut moved = 0usize;
        for (i, e) in self.entries.iter().enumerate() {
            if self.home(i) == worker && e.load(Ordering::Relaxed) != worker {
                e.store(worker, Ordering::Relaxed);
                moved += 1;
            }
        }
        if moved > 0 {
            self.epoch.fetch_add(1, Ordering::Release);
        }
        moved
    }

    /// Number of remap/restore rewrites so far (observers cheaply detect
    /// re-steering without diffing the table).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A copy of the current bucket→worker assignment.
    pub fn snapshot(&self) -> Vec<u16> {
        self.entries
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .collect()
    }
}

/// Per-queue delivery counters of one fanout.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueCounters {
    /// Frames enqueued to this RX queue.
    pub delivered: u64,
    /// Frames dropped because this RX queue was full.
    pub dropped: u64,
}

/// Steers packets from one IO thread into per-worker SPSC rings, the way a
/// multi-queue NIC's RSS unit steers frames into RX queues.
pub struct RssFanout {
    port_id: u16,
    queues: Vec<spsc::Producer<Packet>>,
    counters: Vec<QueueCounters>,
    table: Arc<RssTable>,
}

impl RssFanout {
    /// Creates a fanout for `port_id` over the given per-queue rings, with
    /// its own private boot-state indirection table (steering identical to
    /// [`queue_for_hash`]).
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty.
    pub fn new(port_id: u16, queues: Vec<spsc::Producer<Packet>>) -> RssFanout {
        let table = Arc::new(RssTable::new(queues.len() as u16));
        RssFanout::with_table(port_id, queues, table)
    }

    /// Creates a fanout steering through a shared, externally rewritable
    /// indirection table (the self-healing runtime hands the same table to
    /// every IO thread so a supervisor can re-steer all of them at once).
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty or its length disagrees with the table.
    pub fn with_table(
        port_id: u16,
        queues: Vec<spsc::Producer<Packet>>,
        table: Arc<RssTable>,
    ) -> RssFanout {
        assert!(!queues.is_empty(), "a fanout needs at least one queue");
        assert_eq!(
            usize::from(table.worker_count()),
            queues.len(),
            "indirection table and queue set disagree on worker count"
        );
        let counters = vec![QueueCounters::default(); queues.len()];
        RssFanout {
            port_id,
            queues,
            counters,
            table,
        }
    }

    /// Steers one packet by the descriptor RSS hash its source stamped:
    /// stamps the ingress port and RX queue on it and returns the queue the
    /// indirection table currently selects. Nothing is enqueued; whoever
    /// decides the packet's fate next (an overload shedder, the enqueue)
    /// reads the stamps.
    pub fn steer(&self, pkt: &mut Packet) -> u16 {
        let q = self.table.worker_for(pkt.rss_hash);
        pkt.port_in = self.port_id;
        pkt.queue_in = q;
        q
    }

    /// Enqueues steered packets bound for queue `q` from the front of
    /// `staged`, in order, with one ring publish; returns how many the ring
    /// took. Whatever a full ring refused stays in `staged` so the caller
    /// chooses NIC semantics (count drops) or lossless semantics
    /// ([`wait_for_room`](Self::wait_for_room), then retry).
    pub fn push_burst(&mut self, q: u16, staged: &mut Vec<Packet>) -> usize {
        let n = self.queues[usize::from(q)].push_burst(staged);
        self.counters[usize::from(q)].delivered += n as u64;
        n
    }

    /// Parks the calling thread until queue `q`'s worker has drained its
    /// ring to half or is gone, for at most `timeout` (see
    /// [`spsc::Producer::wait_for_room`]); `false` when the timeout ran
    /// out first. The lossless answer to a refused
    /// [`push_burst`](Self::push_burst).
    pub fn wait_for_room(&self, q: u16, timeout: Duration) -> bool {
        self.queues[usize::from(q)].wait_for_room(timeout)
    }

    /// Steers and enqueues one packet ([`steer`](Self::steer), then a
    /// single push). On a full ring the stamped packet comes back via `Err`.
    pub fn deliver(&mut self, mut pkt: Packet) -> Result<u16, Packet> {
        let q = self.steer(&mut pkt);
        self.queues[usize::from(q)].push(pkt)?;
        self.counters[usize::from(q)].delivered += 1;
        Ok(q)
    }

    /// Packets queued on queue `q`'s ring right now and the ring's
    /// capacity — the load an overload shedder weighs before enqueue.
    pub fn queue_load(&self, q: u16) -> (usize, usize) {
        let ring = &self.queues[usize::from(q)];
        (ring.len(), ring.capacity())
    }

    /// True once queue `q`'s consumer (its worker thread) is gone: items
    /// pushed there will never be drained. IO threads use this to raise the
    /// ring-disconnect post-mortem.
    pub fn receiver_gone(&self, q: u16) -> bool {
        self.queues[usize::from(q)].is_receiver_gone()
    }

    /// Swaps in a fresh ring for queue `q` (worker respawn) and returns the
    /// abandoned producer so the caller controls when the old ring closes.
    pub fn replace_queue(
        &mut self,
        q: u16,
        producer: spsc::Producer<Packet>,
    ) -> spsc::Producer<Packet> {
        std::mem::replace(&mut self.queues[usize::from(q)], producer)
    }

    /// Records `n` drops against queue `q` (the caller gave up on what a
    /// full ring refused).
    pub fn count_drops(&mut self, q: u16, n: u64) {
        self.counters[usize::from(q)].dropped += n;
    }

    /// Per-queue counters, indexed by queue id.
    pub fn counters(&self) -> &[QueueCounters] {
        &self.counters
    }

    /// Total frames dropped across all queues.
    pub fn total_dropped(&self) -> u64 {
        self.counters.iter().map(|c| c.dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buf::Mempool;
    use crate::gen::{TrafficConfig, TrafficGen};
    use crate::toeplitz::queue_for_hash;
    use nba_sim::Time;

    fn fanout(queues: usize, depth: usize) -> (RssFanout, Vec<spsc::Consumer<Packet>>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..queues).map(|_| spsc::channel(depth)).unzip();
        (RssFanout::new(3, txs), rxs)
    }

    #[test]
    fn stamps_metadata_and_steers_flow_affine() {
        let (mut f, rxs) = fanout(4, 256);
        let pool = Mempool::new(1024);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut pkts = Vec::new();
        gen.generate(Time::from_us(50), &pool, &mut |p| pkts.push(p));
        assert!(pkts.len() > 16, "generator produced {}", pkts.len());
        for pkt in pkts {
            let q = f.deliver(pkt).expect("ring has room");
            let got = rxs[usize::from(q)].pop().expect("just enqueued");
            assert_eq!(got.port_in, 3);
            assert_eq!(got.queue_in, q);
            // Same steering decision as the DES NIC model.
            assert_eq!(q, queue_for_hash(got.rss_hash, 4));
        }
    }

    #[test]
    fn staged_bursts_keep_per_queue_generation_order() {
        // steer + push_burst is deliver, a burst at a time: same stamps,
        // same queue, and within a queue the order packets were generated.
        let (mut f, rxs) = fanout(3, 64);
        let pool = Mempool::new(1024);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut staged: Vec<Vec<Packet>> = (0..3).map(|_| Vec::new()).collect();
        let mut expect: Vec<Vec<Vec<u8>>> = vec![Vec::new(); 3];
        gen.generate(Time::from_us(10), &pool, &mut |mut p| {
            let q = usize::from(f.steer(&mut p));
            assert_eq!((p.port_in, p.queue_in), (3, q as u16));
            assert_eq!(q as u16, queue_for_hash(p.rss_hash, 3));
            expect[q].push(p.data().to_vec());
            staged[q].push(p);
        });
        for (q, stage) in staged.iter_mut().enumerate() {
            let n = stage.len();
            assert!(n > 0 && n <= 64);
            assert_eq!(f.queue_load(q as u16), (0, 64));
            assert_eq!(f.push_burst(q as u16, stage), n);
            assert_eq!(f.queue_load(q as u16), (n, 64));
            assert_eq!(f.counters()[q].delivered, n as u64);
            let mut got = Vec::new();
            rxs[q].pop_burst(n, |p| got.push(p.data().to_vec()));
            assert_eq!(got, expect[q]);
        }
    }

    #[test]
    fn boot_table_matches_fixed_function_steering() {
        // The swappable table must reduce to queue_for_hash before any
        // remap, for every bucket and several worker counts — this is what
        // keeps a clean live run bit-identical to the DES NIC model.
        for workers in [1u16, 2, 3, 4, 7, 16] {
            let t = RssTable::new(workers);
            for h in (0..4096u32).map(|i| i.wrapping_mul(0x9e37_79b9)) {
                assert_eq!(t.worker_for(h), queue_for_hash(h, workers));
            }
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn remap_never_moves_a_live_workers_buckets() {
        // Property: across random kill sequences, remapping a dead shard's
        // buckets (a) empties the dead shard, (b) leaves every bucket owned
        // by a survivor exactly where it was, and (c) keeps every bucket on
        // some survivor.
        let mut seed = 0x5eed_u64;
        for trial in 0..200 {
            let workers = 2 + (splitmix(&mut seed) % 7) as u16; // 2..=8
            let t = RssTable::new(workers);
            let mut alive: Vec<u16> = (0..workers).collect();
            let kills = 1 + (splitmix(&mut seed) % u64::from(workers - 1)) as usize;
            for _ in 0..kills {
                let dead = alive.remove((splitmix(&mut seed) as usize) % alive.len());
                let before = t.snapshot();
                let moved = t.remap_dead(dead, &alive);
                let after = t.snapshot();
                assert_eq!(
                    moved,
                    before.iter().filter(|&&o| o == dead).count(),
                    "trial {trial}: every dead-owned bucket moves, none twice"
                );
                for (b, (&was, &now)) in before.iter().zip(&after).enumerate() {
                    if was == dead {
                        assert!(
                            alive.contains(&now),
                            "trial {trial}: bucket {b} must land on a survivor"
                        );
                    } else {
                        assert_eq!(
                            was, now,
                            "trial {trial}: bucket {b} of live worker {was} moved"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn restore_reacquires_only_home_buckets() {
        let t = RssTable::new(4);
        let survivors: Vec<u16> = vec![0, 1, 3];
        t.remap_dead(2, &survivors);
        assert!(t.snapshot().iter().all(|&o| o != 2));
        let before = t.snapshot();
        let restored = t.restore(2);
        let after = t.snapshot();
        assert_eq!(restored, RSS_BUCKETS / 4);
        for (b, (&was, &now)) in before.iter().zip(&after).enumerate() {
            if t.home(b) == 2 {
                assert_eq!(now, 2, "home bucket {b} returns to its owner");
            } else {
                assert_eq!(was, now, "foreign bucket {b} must not move");
            }
        }
        // The table is back to boot state; epoch recorded both rewrites.
        assert_eq!(after, RssTable::new(4).snapshot());
        assert_eq!(t.epoch(), 2);
    }

    #[test]
    fn remap_with_no_survivors_is_a_noop() {
        let t = RssTable::new(1);
        assert_eq!(t.remap_dead(0, &[]), 0);
        assert_eq!(t.epoch(), 0);
        assert!(t.snapshot().iter().all(|&o| o == 0));
    }

    #[test]
    fn fanout_steers_through_shared_table_after_remap() {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..4).map(|_| spsc::channel(256)).unzip();
        let table = Arc::new(RssTable::new(4));
        let mut f = RssFanout::with_table(1, txs, Arc::clone(&table));
        let pool = Mempool::new(1024);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut pkts = Vec::new();
        gen.generate(Time::from_us(50), &pool, &mut |p| pkts.push(p));
        let half = pkts.len() / 2;
        let tail: Vec<_> = pkts.drain(half..).collect();
        for pkt in pkts {
            f.deliver(pkt).expect("ring has room");
        }
        let before_q2 = rxs[2].len();
        table.remap_dead(2, &[0, 1, 3]);
        for pkt in tail {
            let q = f.deliver(pkt).expect("ring has room");
            assert_ne!(q, 2, "no packet may steer to the dead worker");
        }
        assert_eq!(rxs[2].len(), before_q2, "dead ring stopped growing");
    }

    #[test]
    fn replace_queue_swaps_ring_and_reports_dead_consumer() {
        let (mut f, rxs) = fanout(2, 8);
        assert!(!f.receiver_gone(0));
        drop(rxs);
        assert!(f.receiver_gone(0));
        assert!(f.receiver_gone(1));
        let (ntx, nrx) = spsc::channel(8);
        let old = f.replace_queue(0, ntx);
        assert!(old.is_receiver_gone());
        assert!(!f.receiver_gone(0), "fresh ring has a live consumer");
        drop(nrx);
        assert!(f.receiver_gone(0));
    }

    #[test]
    fn full_ring_returns_packet() {
        let (mut f, _rxs) = fanout(1, 2);
        let pool = Mempool::new(16);
        let mut gen = TrafficGen::new(TrafficConfig::default());
        let mut pkts = Vec::new();
        gen.generate(Time::from_us(20), &pool, &mut |p| pkts.push(p));
        let mut dropped = 0u64;
        for pkt in pkts {
            if let Err(p) = f.deliver(pkt) {
                f.count_drops(p.queue_in, 1);
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(f.total_dropped(), dropped);
        assert_eq!(f.counters()[0].delivered, 2);
    }
}
