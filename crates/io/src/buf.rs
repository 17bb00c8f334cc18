//! Packet buffers and buffer pools, modeled on DPDK's mbuf/mempool design.
//!
//! A [`PacketBuf`] is a fixed-capacity byte area with *headroom*: the packet
//! data starts at an offset so that encapsulating elements (e.g. the IPsec
//! ESP encapsulator) can prepend headers without copying the payload.
//!
//! # What a buffer costs in memory
//!
//! A buffer has a *logical* capacity and *physical* bytes. The logical
//! capacity ([`PacketBuf::capacity`]: 2048 bytes, 128 of them headroom, by
//! default) is what every operation checks against: [`PacketBuf::fill`],
//! [`PacketBuf::set_region`], [`PacketBuf::append`], [`PacketBuf::prepend`],
//! [`PacketBuf::headroom`] and [`PacketBuf::tailroom`] answer exactly as a
//! zero-filled buffer of that size would. The physical bytes
//! ([`PacketBuf::allocated`]) cover only `[0, headroom + len)` plus 64 bytes
//! of slack, rounded up to a multiple of 64: a 64 B frame behind the default
//! headroom holds 256 bytes, a 1024 B frame 1216, and either still has room
//! for an ESP trailer. They grow on demand, up to the logical capacity, when
//! a call needs bytes beyond them, keep every byte written so far, and keep
//! their size when the buffer is recycled. A buffer fresh from a [`Mempool`]
//! allocates nothing until it is written. Bytes exposed for the first time
//! read as zero, as they would in a zero-filled full-size buffer, so no
//! caller can tell the two apart. A pool's budget counts buffers, never
//! bytes.
//!
//! A [`Mempool`] recycles buffers: the paper leans on DPDK's NUMA-aware
//! mempools to make batch-split allocation affordable, and the framework's
//! cost model charges allocation/release costs whenever these are used on the
//! data path.
//!
//! The pool is one mutex-guarded free list, so what it costs is how often
//! it is locked. The per-packet calls ([`Mempool::alloc`], [`Mempool::free`])
//! lock once each; the burst calls ([`Mempool::alloc_bulk`],
//! [`Mempool::free_bulk`]) lock once per burst; and a [`MempoolCache`] — the
//! DPDK per-lcore mempool cache — lets one thread allocate packet by packet
//! while touching the shared pool once per burst. Accounting is the same on
//! every path and is exact: a buffer is *outstanding* from the moment the
//! pool hands it out (to a caller or into a cache) until it is freed back,
//! and the budget bounds outstanding buffers, cached ones included.
//!
//! A buffer knows nothing of its pool: whoever retires it sends it home, as
//! in DPDK, and a buffer lost with its packet is written off with
//! [`Mempool::forget`], so the books still close.

use std::sync::{Arc, Mutex};

/// Default buffer capacity: one full Ethernet frame plus encap slack.
pub const DEFAULT_BUF_CAPACITY: usize = 2048;
/// Default headroom reserved before packet data (DPDK uses 128).
pub const DEFAULT_HEADROOM: usize = 128;
/// Physical bytes a buffer keeps past the end of its data when it grows, so
/// an ESP encapsulation (header, IV, padding and ICV: at most 53 bytes)
/// lands without a second allocation.
const SLACK: usize = 64;
/// Physical sizes are whole multiples of one cache line, so the allocator
/// sees few distinct sizes.
const GRAIN: usize = 64;

/// A packet byte buffer with headroom: a fixed logical capacity over
/// physical bytes sized to what it has held (see the module docs).
///
/// Offset, length and logical capacity are stored as `u16` (a buffer holds
/// at most 64 KiB), which keeps a [`crate::Packet`] at 48 bytes: three
/// 16-byte words, so the packet moves between batches, rings and TX vectors
/// in aligned copies.
#[derive(Debug, Clone)]
pub struct PacketBuf {
    /// The physical bytes: the first `bytes.len()` of the logical area.
    /// They only grow, and cover the data whenever there is any.
    bytes: Box<[u8]>,
    /// Offset of the first data byte.
    data_off: u16,
    /// Length of valid data starting at `data_off`.
    data_len: u16,
    /// The logical capacity every operation checks against.
    capacity: u16,
}

impl PacketBuf {
    /// Creates an empty buffer with the given capacity and headroom. It
    /// allocates nothing until it is written.
    ///
    /// # Panics
    ///
    /// Panics if `headroom > capacity` or `capacity` exceeds 65 535 bytes.
    pub fn with_capacity(capacity: usize, headroom: usize) -> PacketBuf {
        assert!(headroom <= capacity, "headroom exceeds capacity");
        let capacity = u16::try_from(capacity).expect("capacity exceeds 65535 bytes");
        PacketBuf {
            bytes: Box::default(),
            data_off: headroom as u16,
            data_len: 0,
            capacity,
        }
    }

    /// Creates an empty buffer with default capacity and headroom.
    pub fn new() -> PacketBuf {
        PacketBuf::with_capacity(DEFAULT_BUF_CAPACITY, DEFAULT_HEADROOM)
    }

    /// Total byte capacity (logical: what the buffer may hold).
    pub fn capacity(&self) -> usize {
        usize::from(self.capacity)
    }

    /// Physical bytes the buffer holds now; never more than
    /// [`capacity`](Self::capacity).
    pub fn allocated(&self) -> usize {
        self.bytes.len()
    }

    /// Bytes available before the data (for prepending).
    pub fn headroom(&self) -> usize {
        usize::from(self.data_off)
    }

    /// Bytes available after the data (for appending).
    pub fn tailroom(&self) -> usize {
        self.capacity() - self.headroom() - self.len()
    }

    /// Length of the valid data.
    pub fn len(&self) -> usize {
        usize::from(self.data_len)
    }

    /// `true` if the buffer holds no data.
    pub fn is_empty(&self) -> bool {
        self.data_len == 0
    }

    /// The valid data bytes.
    pub fn data(&self) -> &[u8] {
        // Only an empty region can lie past the physical bytes.
        let (off, len) = (self.headroom(), self.len());
        self.bytes.get(off..off + len).unwrap_or_default()
    }

    /// The valid data bytes, mutably.
    pub fn data_mut(&mut self) -> &mut [u8] {
        let (off, len) = (self.headroom(), self.len());
        self.bytes.get_mut(off..off + len).unwrap_or_default()
    }

    /// Sets the data region; callers have checked it fits the logical
    /// capacity, so both ends fit a `u16`.
    fn set(&mut self, off: usize, len: usize) {
        debug_assert!(off + len <= self.capacity());
        self.data_off = off as u16;
        self.data_len = len as u16;
    }

    /// Makes the physical bytes cover `[0, end)`, `end` being within the
    /// logical capacity.
    fn reserve(&mut self, end: usize) {
        if end > self.bytes.len() {
            self.grow(end);
        }
    }

    /// Reallocates the physical bytes to cover `end` plus the slack, keeping
    /// every byte held so far; the new ones read as zero.
    #[cold]
    fn grow(&mut self, end: usize) {
        let size = (end + SLACK).next_multiple_of(GRAIN).min(self.capacity());
        let mut bytes = vec![0u8; size].into_boxed_slice();
        bytes[..self.bytes.len()].copy_from_slice(&self.bytes);
        self.bytes = bytes;
    }

    /// Replaces the contents with `payload`, restoring default headroom.
    ///
    /// # Panics
    ///
    /// Panics if the payload does not fit behind the headroom.
    pub fn fill(&mut self, headroom: usize, payload: &[u8]) {
        let end = headroom + payload.len();
        assert!(
            end <= self.capacity(),
            "payload of {} bytes does not fit (headroom {}, capacity {})",
            payload.len(),
            headroom,
            self.capacity()
        );
        self.reserve(end);
        self.set(headroom, payload.len());
        self.bytes[headroom..end].copy_from_slice(payload);
    }

    /// Extends the data area at the front by `n` bytes and returns the new
    /// prefix for writing, like DPDK's `rte_pktmbuf_prepend`.
    ///
    /// Returns `None` if there is not enough headroom.
    pub fn prepend(&mut self, n: usize) -> Option<&mut [u8]> {
        let off = self.headroom().checked_sub(n)?;
        self.reserve(self.headroom() + self.len());
        self.set(off, self.len() + n);
        Some(&mut self.bytes[off..off + n])
    }

    /// Extends the data area at the back by `n` bytes and returns the new
    /// suffix for writing, like `rte_pktmbuf_append`.
    ///
    /// Returns `None` if there is not enough tailroom.
    pub fn append(&mut self, n: usize) -> Option<&mut [u8]> {
        if n > self.tailroom() {
            return None;
        }
        let start = self.headroom() + self.len();
        self.reserve(start + n);
        self.set(self.headroom(), self.len() + n);
        Some(&mut self.bytes[start..start + n])
    }

    /// Removes `n` bytes from the front of the data (`rte_pktmbuf_adj`).
    ///
    /// Returns `false` (and leaves the buffer unchanged) if `n > len`.
    pub fn adj(&mut self, n: usize) -> bool {
        if n > self.len() {
            return false;
        }
        self.set(self.headroom() + n, self.len() - n);
        true
    }

    /// Removes `n` bytes from the back of the data (`rte_pktmbuf_trim`).
    ///
    /// Returns `false` (and leaves the buffer unchanged) if `n > len`.
    pub fn trim(&mut self, n: usize) -> bool {
        if n > self.len() {
            return false;
        }
        self.set(self.headroom(), self.len() - n);
        true
    }

    /// Sets the data region to `len` bytes at `headroom` and returns it for
    /// writing (contents are whatever the recycled buffer held).
    ///
    /// # Panics
    ///
    /// Panics if the region does not fit in the buffer.
    pub fn set_region(&mut self, headroom: usize, len: usize) -> &mut [u8] {
        let end = headroom + len;
        assert!(
            end <= self.capacity(),
            "region of {len} bytes at {headroom} exceeds capacity {}",
            self.capacity()
        );
        self.reserve(end);
        self.set(headroom, len);
        &mut self.bytes[headroom..end]
    }

    /// Clears the data and restores the given headroom.
    pub fn reset(&mut self, headroom: usize) {
        self.set(headroom, 0);
    }
}

impl Default for PacketBuf {
    fn default() -> Self {
        PacketBuf::new()
    }
}

/// Allocation statistics of a [`Mempool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Buffers handed out.
    pub allocs: u64,
    /// Buffers returned.
    pub frees: u64,
    /// Allocations that failed because the pool was exhausted.
    pub exhausted: u64,
    /// Buffers written off as lost ([`Mempool::forget`]).
    pub forgotten: u64,
}

#[derive(Debug)]
struct PoolInner {
    free: Vec<PacketBuf>,
    capacity: usize,
    outstanding: usize,
    buf_capacity: usize,
    headroom: usize,
    stats: MempoolStats,
}

/// A recycling pool of [`PacketBuf`]s with a hard buffer budget.
///
/// Clones share the same pool. The pool is thread-safe so its buffers can
/// cross worker threads in the live runtime, where the IO thread allocates
/// through a [`MempoolCache`] and workers free whole bursts with
/// [`Mempool::free_bulk`], so the lock is taken per burst from either side.
/// The discrete-event runtime calls
/// [`Mempool::alloc`] from its single engine thread (an uncontended lock)
/// once per frame its simulated NIC admits — a frame the NIC refuses
/// takes no buffer — which keeps pool exhaustion exact per packet. An
/// exhausted pool loses the frame but not the slot's random draws, so
/// what a source offers never depends on the receiver's pool.
#[derive(Debug)]
pub struct Mempool {
    inner: Arc<Mutex<PoolInner>>,
}

impl Clone for Mempool {
    fn clone(&self) -> Self {
        Mempool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Mempool {
    /// Creates a pool that will hand out at most `capacity` buffers.
    pub fn new(capacity: usize) -> Mempool {
        Mempool::with_buf_shape(capacity, DEFAULT_BUF_CAPACITY, DEFAULT_HEADROOM)
    }

    /// Creates a pool with custom buffer capacity/headroom.
    pub fn with_buf_shape(capacity: usize, buf_capacity: usize, headroom: usize) -> Mempool {
        Mempool {
            inner: Arc::new(Mutex::new(PoolInner {
                free: Vec::new(),
                capacity,
                outstanding: 0,
                buf_capacity,
                headroom,
                stats: MempoolStats::default(),
            })),
        }
    }

    /// Takes a cleared buffer from the pool: a recycled one, or a fresh one
    /// that allocates nothing until it is written.
    ///
    /// Returns `None` when the pool budget is exhausted (DPDK behaviour:
    /// allocation failure, caller drops the packet).
    pub fn alloc(&self) -> Option<PacketBuf> {
        let mut p = self.inner.lock().expect("mempool poisoned");
        if p.outstanding >= p.capacity {
            p.stats.exhausted += 1;
            return None;
        }
        p.outstanding += 1;
        p.stats.allocs += 1;
        let headroom = p.headroom;
        match p.free.pop() {
            Some(mut buf) => {
                buf.reset(headroom);
                Some(buf)
            }
            None => Some(PacketBuf::with_capacity(p.buf_capacity, headroom)),
        }
    }

    /// Returns a buffer to the pool.
    pub fn free(&self, buf: PacketBuf) {
        self.free_bulk(std::iter::once(buf));
    }

    /// Takes up to `n` cleared buffers under one lock, appending them to
    /// `out`; returns how many were granted. A short grant is whatever the
    /// budget still allowed and is not an error; a grant of *none* counts
    /// one [`MempoolStats::exhausted`] event (per refused call, not per
    /// buffer asked for).
    pub fn alloc_bulk(&self, n: usize, out: &mut Vec<PacketBuf>) -> usize {
        if n == 0 {
            return 0;
        }
        let mut p = self.inner.lock().expect("mempool poisoned");
        let grant = n.min(p.capacity - p.outstanding);
        if grant == 0 {
            p.stats.exhausted += 1;
            return 0;
        }
        p.outstanding += grant;
        p.stats.allocs += grant as u64;
        let recycled = grant.min(p.free.len());
        let keep = p.free.len() - recycled;
        let (buf_capacity, headroom) = (p.buf_capacity, p.headroom);
        out.extend(p.free.drain(keep..).map(|mut buf| {
            buf.reset(headroom);
            buf
        }));
        // What the free list could not supply is fresh and allocates nothing.
        out.extend((recycled..grant).map(|_| PacketBuf::with_capacity(buf_capacity, headroom)));
        grant
    }

    /// Returns a burst of buffers to the pool under one lock. The iterator
    /// runs while the lock is held, so it should only hand buffers over.
    pub fn free_bulk(&self, bufs: impl IntoIterator<Item = PacketBuf>) {
        let mut p = self.inner.lock().expect("mempool poisoned");
        for buf in bufs {
            debug_assert!(p.outstanding > 0, "double free into mempool");
            p.outstanding = p.outstanding.saturating_sub(1);
            p.stats.frees += 1;
            if p.free.len() < p.capacity {
                p.free.push(buf);
            }
        }
    }

    /// Writes off `n` outstanding buffers that will never come back (they
    /// were deallocated with their packets): the budget gets them back, and
    /// [`MempoolStats::forgotten`] counts them.
    pub fn forget(&self, n: u64) {
        let mut p = self.inner.lock().expect("mempool poisoned");
        debug_assert!(p.outstanding as u64 >= n, "forgot more than outstanding");
        p.outstanding = p.outstanding.saturating_sub(n as usize);
        p.stats.forgotten += n;
    }

    /// Drops the idle buffers on the free list, handing their memory back
    /// to the allocator. The budget and the books are unchanged: a later
    /// allocation makes a fresh buffer.
    pub fn shrink(&self) {
        let idle = std::mem::take(&mut self.inner.lock().expect("mempool poisoned").free);
        // Freed after the lock is released.
        drop(idle);
    }

    /// Buffers currently handed out.
    pub fn outstanding(&self) -> usize {
        self.inner.lock().expect("mempool poisoned").outstanding
    }

    /// Remaining allocatable buffers.
    pub fn available(&self) -> usize {
        let p = self.inner.lock().expect("mempool poisoned");
        p.capacity - p.outstanding
    }

    /// A copy of the pool statistics.
    pub fn stats(&self) -> MempoolStats {
        self.inner.lock().expect("mempool poisoned").stats
    }
}

/// One thread's private stash of buffers from a [`Mempool`] — DPDK's
/// per-lcore mempool cache. [`MempoolCache::alloc`] serves from the stash
/// and refills it with one [`Mempool::alloc_bulk`] of `burst` buffers when
/// it runs dry, so a thread allocating packet by packet locks the shared
/// pool once per burst. The buffers it serves carry no pool handle: the
/// thread that retires them frees them back in bursts.
///
/// Deliberately not `Clone` and owned by the thread that uses it. Cached
/// buffers count as outstanding against the pool's budget (they were
/// granted), and dropping the cache flushes them back, so after every
/// buffer is freed and every cache is gone `outstanding() == 0` and
/// `allocs == frees`.
#[derive(Debug)]
pub struct MempoolCache {
    pool: Mempool,
    bufs: Vec<PacketBuf>,
    burst: usize,
}

impl MempoolCache {
    /// A cache over `pool` that refills `burst` buffers at a time (at
    /// least one) and never holds more than that.
    pub fn new(pool: Mempool, burst: usize) -> MempoolCache {
        let burst = burst.max(1);
        MempoolCache {
            pool,
            bufs: Vec::with_capacity(burst),
            burst,
        }
    }

    /// Takes a cleared buffer, refilling from the shared pool when the
    /// stash is empty. `None` when the refill was refused: the pool's
    /// budget is exhausted (counted once there, per refused refill).
    pub fn alloc(&mut self) -> Option<PacketBuf> {
        if self.bufs.is_empty() {
            self.pool.alloc_bulk(self.burst, &mut self.bufs);
        }
        self.bufs.pop()
    }

    /// Buffers currently stashed.
    pub fn cached(&self) -> usize {
        self.bufs.len()
    }
}

impl Drop for MempoolCache {
    fn drop(&mut self) {
        if !self.bufs.is_empty() {
            self.pool.free_bulk(self.bufs.drain(..));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepend_and_append_grow_data() {
        let mut b = PacketBuf::with_capacity(64, 16);
        b.fill(16, b"hello");
        b.prepend(3).unwrap().copy_from_slice(b"<<<");
        b.append(3).unwrap().copy_from_slice(b">>>");
        assert_eq!(b.data(), b"<<<hello>>>");
        assert_eq!(b.headroom(), 13);
    }

    #[test]
    fn prepend_fails_without_headroom() {
        let mut b = PacketBuf::with_capacity(64, 4);
        b.fill(4, b"x");
        assert!(b.prepend(5).is_none());
        assert_eq!(b.data(), b"x");
    }

    #[test]
    fn append_fails_without_tailroom() {
        let mut b = PacketBuf::with_capacity(8, 0);
        b.fill(0, b"12345678");
        assert!(b.append(1).is_none());
    }

    #[test]
    fn adj_and_trim_shrink_data() {
        let mut b = PacketBuf::with_capacity(64, 8);
        b.fill(8, b"abcdef");
        assert!(b.adj(2));
        assert!(b.trim(1));
        assert_eq!(b.data(), b"cde");
        assert!(!b.adj(10));
        assert!(!b.trim(10));
        assert_eq!(b.data(), b"cde");
    }

    #[test]
    fn physical_bytes_follow_the_frame_and_survive_recycling() {
        let mut b = PacketBuf::new();
        assert_eq!(
            (b.allocated(), b.data()),
            (0, &[][..]),
            "empty costs nothing"
        );
        b.fill(DEFAULT_HEADROOM, &[7; 64]);
        // 128 + 64 bytes of frame, 64 of slack.
        assert_eq!(b.allocated(), 256);
        assert_eq!((b.capacity(), b.tailroom()), (2048, 2048 - 192));
        // An ESP-sized trailer lands in the slack.
        b.append(53).unwrap().fill(1);
        assert_eq!(b.allocated(), 256);
        // Recycled: the bytes stay, and so does what they held.
        b.reset(DEFAULT_HEADROOM);
        assert_eq!(b.allocated(), 256);
        let region = b.set_region(DEFAULT_HEADROOM, 1024);
        assert_eq!(&region[..64], &[7; 64][..]);
        assert_eq!(&region[64..117], &[1; 53][..]);
        assert!(region[117..].iter().all(|&x| x == 0), "new bytes are zero");
        assert_eq!(b.allocated(), 1216);
        // Never beyond the logical capacity.
        b.set_region(DEFAULT_HEADROOM, 2048 - DEFAULT_HEADROOM);
        assert_eq!(b.allocated(), 2048);
        let mut small = PacketBuf::with_capacity(100, 10);
        small.fill(10, &[3; 80]);
        assert_eq!(small.allocated(), 100);
    }

    #[test]
    fn an_unwritten_buffer_prepends_into_zeroed_headroom() {
        let mut b = PacketBuf::with_capacity(256, 32);
        assert!(b.data_mut().is_empty());
        assert_eq!(b.prepend(4).unwrap(), &[0; 4][..]);
        assert_eq!((b.headroom(), b.len(), b.tailroom()), (28, 4, 224));
        assert!(b.allocated() >= 32);
    }

    #[test]
    fn mempool_budget_is_enforced() {
        let pool = Mempool::new(2);
        let a = pool.alloc().unwrap();
        let _b = pool.alloc().unwrap();
        assert!(pool.alloc().is_none());
        assert_eq!(pool.stats().exhausted, 1);
        pool.free(a);
        assert!(pool.alloc().is_some());
    }

    #[test]
    fn mempool_recycles_buffers_cleared() {
        let pool = Mempool::with_buf_shape(4, 256, 32);
        let mut a = pool.alloc().unwrap();
        assert_eq!(a.allocated(), 0, "a fresh buffer allocates nothing");
        a.fill(32, b"dirty");
        pool.free(a);
        let b = pool.alloc().unwrap();
        assert!(b.is_empty());
        assert_eq!(b.headroom(), 32);
        assert_eq!(b.allocated(), 128, "recycled with its bytes");
        assert_eq!(pool.stats().allocs, 2);
        assert_eq!(pool.stats().frees, 1);
        // Shrunk, the pool hands out a fresh buffer again.
        pool.free(b);
        pool.shrink();
        assert_eq!(pool.alloc().unwrap().allocated(), 0);
    }

    #[test]
    fn bulk_calls_share_the_budget_and_the_ledger() {
        let pool = Mempool::with_buf_shape(6, 256, 32);
        let mut held = Vec::new();
        assert_eq!(pool.alloc_bulk(4, &mut held), 4);
        assert_eq!(pool.alloc_bulk(4, &mut held), 2, "short grant at budget");
        assert_eq!(pool.stats().exhausted, 0, "a short grant is not refused");
        assert_eq!(pool.alloc_bulk(4, &mut held), 0);
        assert!(pool.alloc().is_none());
        assert_eq!(pool.stats().exhausted, 2, "once per refused call");
        assert_eq!((pool.outstanding(), pool.available()), (6, 0));
        held[0].fill(32, b"dirty");
        pool.free_bulk(held.drain(..));
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.alloc_bulk(6, &mut held), 6);
        assert!(held.iter().all(|b| b.is_empty() && b.headroom() == 32));
        let stats = pool.stats();
        assert_eq!((stats.allocs, stats.frees), (12, 6));
    }

    #[test]
    fn cache_refills_per_burst_and_flushes_on_drop() {
        let pool = Mempool::new(10);
        let mut cache = MempoolCache::new(pool.clone(), 4);
        let a = cache.alloc().unwrap();
        assert_eq!(cache.cached(), 3);
        assert_eq!(pool.outstanding(), 4, "cached buffers are outstanding");
        let mut held = vec![a];
        held.extend(std::iter::from_fn(|| cache.alloc()));
        assert_eq!(held.len(), 10, "the whole budget is reachable");
        assert_eq!(pool.stats().exhausted, 1, "one refused refill");
        assert!(cache.alloc().is_none());
        assert_eq!(pool.stats().exhausted, 2);
        pool.free_bulk(held.drain(..5));
        held.push(cache.alloc().unwrap());
        assert_eq!((cache.cached(), pool.outstanding()), (3, 9));
        drop(cache);
        assert_eq!(pool.outstanding(), held.len(), "drop flushes the stash");
    }

    #[test]
    fn cached_buffers_go_home_by_burst() {
        // Two homes, as two IO threads' pools: the caches (over clones)
        // serve bare buffers, and one bulk free per home closes each ledger.
        let homes = [Mempool::new(64), Mempool::new(64)];
        let mut caches = homes.each_ref().map(|h| MempoolCache::new(h.clone(), 16));
        let held: Vec<Vec<PacketBuf>> = (caches.iter_mut())
            .map(|c| std::iter::from_fn(|| c.alloc()).take(20).collect())
            .collect();
        assert_eq!(homes.each_ref().map(Mempool::outstanding), [32, 32]);
        for (home, bufs) in homes.iter().zip(held) {
            home.free_bulk(bufs);
        }
        drop(caches);
        for home in &homes {
            let s = home.stats();
            assert_eq!((home.outstanding(), s.allocs, s.frees), (0, 32, 32));
        }
    }
}
