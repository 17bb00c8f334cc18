//! The packet object handed to elements.
//!
//! A [`Packet`] owns a [`PacketBuf`] plus receive metadata. Whoever retires
//! a packet sends its buffer home ([`Packet::into_buf`]): the worker frees a
//! whole burst with one [`Mempool::free_bulk`] per home, the pool its
//! [`port_in`](Packet::port_in) names. So a packet made on the burst path
//! ([`Packet::from_buf`]) carries no pool reference and building or retiring
//! it touches no shared counter. A packet made with [`Packet::from_pool`]
//! carries a handle and frees its buffer there when dropped: the per-packet
//! API, for callers with no exit routine.

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
            port_in: 0,
            queue_in: 0,
            rss_hash: 0,
            ts_gen: Time::ZERO,
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

    /// True when the packet carries a pool handle ([`Packet::from_pool`])
    /// and so frees its buffer itself if dropped.
    pub fn has_pool(&self) -> bool {
        self.pool.is_some()
    }

    /// Takes the buffer out to send it home; a pool handle the packet
    /// carried is released with it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer was already taken.
    pub fn into_buf(mut self) -> PacketBuf {
        self.buf.take().expect("packet buffer already taken")
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
    fn buffers_go_home_by_drop_or_by_hand() {
        let pool = Mempool::new(1);
        let p = Packet::from_pool(pool.alloc().unwrap(), pool.clone());
        assert!(p.has_pool());
        drop(p);
        assert_eq!((pool.outstanding(), pool.stats().frees), (0, 1));
        // A handle-free packet's buffer goes home only by hand.
        let bare = Packet::from_buf(pool.alloc().unwrap());
        assert!(!bare.has_pool());
        pool.free(bare.into_buf());
        assert_eq!((pool.outstanding(), pool.stats().frees), (0, 2));
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
