//! The packet object handed to elements.
//!
//! A [`Packet`] owns a pooled [`PacketBuf`] plus receive metadata. When a
//! packet is dropped (explicitly discarded or simply falls out of scope) its
//! buffer automatically returns to the originating [`Mempool`], so buffer
//! accounting can never leak across the modular pipeline — the property DPDK
//! forces NBA to maintain manually. That per-packet drop is the safety net;
//! a path that retires a whole burst at once (the worker's TX) hands it to
//! [`Packet::recycle`], which returns the buffers with one pool lock per
//! same-pool run instead of one per packet.

use crate::buf::{Mempool, PacketBuf};
use nba_sim::Time;

/// Ethernet wire overhead per frame: preamble (7) + SFD (1) + IFG (12).
pub const WIRE_OVERHEAD_BYTES: usize = 20;
/// Minimum Ethernet frame length (including FCS).
pub const MIN_FRAME_LEN: usize = 64;
/// Maximum standard Ethernet frame length (including FCS).
pub const MAX_FRAME_LEN: usize = 1518;

/// A packet traversing the pipeline.
#[derive(Debug)]
pub struct Packet {
    buf: Option<PacketBuf>,
    pool: Option<Mempool>,
    /// NIC port the packet arrived on.
    pub port_in: u16,
    /// RX queue (RSS bucket) the packet arrived on.
    pub queue_in: u16,
    /// RSS hash computed by the NIC.
    pub rss_hash: u32,
    /// Virtual time the packet was put on the wire by the generator; the
    /// round-trip latency figures subtract this from TX completion.
    pub ts_gen: Time,
}

impl Packet {
    /// Wraps an unpooled buffer (tests and generators without a pool).
    pub fn from_buf(buf: PacketBuf) -> Packet {
        Packet {
            buf: Some(buf),
            pool: None,
            port_in: 0,
            queue_in: 0,
            rss_hash: 0,
            ts_gen: Time::ZERO,
        }
    }

    /// Wraps a pooled buffer; the buffer returns to `pool` on drop.
    pub fn from_pool(buf: PacketBuf, pool: Mempool) -> Packet {
        Packet {
            buf: Some(buf),
            pool: Some(pool),
            ..Packet::from_buf(PacketBuf::with_capacity(0, 0))
        }
    }

    /// Builds an unpooled packet holding `frame` (test helper).
    pub fn from_bytes(frame: &[u8]) -> Packet {
        let mut buf = PacketBuf::new();
        buf.fill(crate::buf::DEFAULT_HEADROOM, frame);
        Packet::from_buf(buf)
    }

    /// Frame length in bytes (excluding wire overhead).
    pub fn len(&self) -> usize {
        self.buf().len()
    }

    /// `true` if the frame is empty (never the case for received packets).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits this frame occupies on the wire, including preamble and IFG.
    pub fn wire_bits(&self) -> u64 {
        ((self.len() + WIRE_OVERHEAD_BYTES) * 8) as u64
    }

    /// Frame bits (the unit the paper's Gbps numbers count).
    pub fn frame_bits(&self) -> u64 {
        (self.len() * 8) as u64
    }

    /// The frame bytes.
    pub fn data(&self) -> &[u8] {
        self.buf().data()
    }

    /// The frame bytes, mutably.
    pub fn data_mut(&mut self) -> &mut [u8] {
        self.buf_mut().data_mut()
    }

    /// The underlying buffer.
    pub fn buf(&self) -> &PacketBuf {
        self.buf.as_ref().expect("packet buffer already taken")
    }

    /// The underlying buffer, mutably (prepend/append/trim for encap).
    pub fn buf_mut(&mut self) -> &mut PacketBuf {
        self.buf.as_mut().expect("packet buffer already taken")
    }

    /// Retires a burst of packets, returning each pooled buffer to *its
    /// own* pool with one lock per run of consecutive same-pool packets
    /// (a TX burst from one ingress pool is a single run). Unpooled packets
    /// are simply dropped. Equivalent to dropping every packet one by one,
    /// in order — just cheaper.
    pub fn recycle(pkts: impl IntoIterator<Item = Packet>) {
        let mut pkts = pkts.into_iter().peekable();
        while let Some(mut first) = pkts.next() {
            let (Some(buf), Some(pool)) = (first.buf.take(), first.pool.take()) else {
                continue;
            };
            let rest = std::iter::from_fn(|| {
                let same = |p: &Packet| p.pool.as_ref().is_some_and(|q| q.same_pool(&pool));
                pkts.next_if(same)?.buf.take()
            });
            pool.free_bulk(std::iter::once(buf).chain(rest));
        }
    }
}

impl Drop for Packet {
    fn drop(&mut self) {
        if let (Some(buf), Some(pool)) = (self.buf.take(), self.pool.take()) {
            pool.free(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_accounting_for_min_frame() {
        let p = Packet::from_bytes(&[0u8; 64]);
        assert_eq!(p.len(), 64);
        assert_eq!(p.frame_bits(), 512);
        assert_eq!(p.wire_bits(), 672);
    }

    #[test]
    fn drop_returns_buffer_to_pool() {
        let pool = Mempool::new(1);
        {
            let buf = pool.alloc().unwrap();
            let _p = Packet::from_pool(buf, pool.clone());
            assert_eq!(pool.outstanding(), 1);
        }
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.stats().frees, 1);
    }

    #[test]
    fn unpooled_packet_drop_is_harmless() {
        let p = Packet::from_bytes(b"abc");
        drop(p);
    }

    #[test]
    fn packet_is_three_16_byte_words() {
        assert_eq!(std::mem::size_of::<Packet>(), 48);
    }

    #[test]
    fn data_mut_edits_frame() {
        let mut p = Packet::from_bytes(b"abc");
        p.data_mut()[0] = b'x';
        assert_eq!(p.data(), b"xbc");
    }
}
