//! The multi-queue NIC port model.
//!
//! Each port has `n` RX queues (RSS spreads flows across them, one queue per
//! worker thread, as in Figure 6 of the paper) and a TX path modeled as a
//! serializing wire: frames occupy the wire for `wire_bits / speed` and a
//! bounded hardware TX ring absorbs bursts. When the ring is full the frame
//! is dropped, which is how the simulation expresses "the port is the
//! bottleneck, not the CPU" — exactly the regime of the paper's line-rate
//! results.
//!
//! RX has one admission rule, [`Port::admit`]: the RSS hash picks a queue
//! and a queue with no free descriptor refuses the frame. A NIC decides
//! this from the receive descriptor, before the frame reaches host memory,
//! so the simulated sources ([`crate::PacketSource::offer`]) ask *before*
//! they take a buffer or write a byte, and a refused frame costs the host
//! nothing. [`Port::deliver`] is the same rule for a frame that already
//! exists: hash its headers, admit, enqueue.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use nba_sim::{SimQueue, Time};

use crate::packet::Packet;
use crate::proto::{self, ether::EtherView, ipv4::Ipv4View, ipv6::Ipv6View, l4::UdpView};
use crate::rss::RssTable;
use crate::toeplitz::{queue_for_hash, Toeplitz};

/// Counters of one port.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortCounters {
    /// Frames delivered into RX queues.
    pub rx_delivered: u64,
    /// Frames refused because their RX queue was full ([`Port::admit`]).
    pub rx_dropped: u64,
    /// Admitted frames lost because the pool had no buffer for them
    /// (DPDK's `rx_nombuf`). They never reach an RX queue.
    pub rx_nombuf: u64,
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Sum of transmitted frame bits (the paper's Gbps accounting).
    pub tx_frame_bits: u64,
    /// Sum of transmitted wire bits (frames + preamble + IFG).
    pub tx_wire_bits: u64,
    /// Frames dropped because the TX ring was full.
    pub tx_dropped: u64,
}

/// Outcome of a transmit attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Frame accepted; it leaves the wire at the given time.
    Sent {
        /// Wire departure completion time (used for latency accounting).
        done_at: Time,
    },
    /// The TX ring was full; the frame was dropped.
    Dropped,
}

/// One simulated NIC port.
pub struct Port {
    /// Port index in the topology.
    pub id: u16,
    speed_bps: f64,
    rx_queues: Vec<SimQueue<Packet>>,
    hasher: Toeplitz,
    tx_busy_until: Time,
    /// Longest TX backlog (in wire time) the hardware ring may hold.
    tx_ring_horizon: Time,
    counters: PortCounters,
    /// Optional swappable RSS indirection (the self-healing runtime's
    /// re-steer plane). `None` keeps the static `queue_for_hash` demux.
    rss: Option<Arc<RssTable>>,
}

/// A shared handle to a port (the engine is single-threaded).
pub type PortHandle = Rc<RefCell<Port>>;

/// Default RX descriptor ring size per queue.
pub const DEFAULT_RXQ_DEPTH: usize = 4096;

impl Port {
    /// Creates a port with `rx_queues` RSS queues of `rxq_depth` descriptors.
    ///
    /// # Panics
    ///
    /// Panics if `rx_queues` is zero or the speed is not positive.
    pub fn new(id: u16, speed_gbps: f64, rx_queues: u16, rxq_depth: usize) -> Port {
        assert!(rx_queues > 0, "a port needs at least one RX queue");
        assert!(speed_gbps > 0.0, "port speed must be positive");
        Port {
            id,
            speed_bps: speed_gbps * 1e9,
            rx_queues: (0..rx_queues)
                .map(|_| SimQueue::bounded(rxq_depth))
                .collect(),
            hasher: Toeplitz::default(),
            tx_busy_until: Time::ZERO,
            // 512 descriptors of full-size frames at line rate.
            tx_ring_horizon: Time::from_secs_f64(512.0 * 1538.0 * 8.0 / (speed_gbps * 1e9)),
            counters: PortCounters::default(),
            rss: None,
        }
    }

    /// Installs a shared RSS indirection table. The table's boot state maps
    /// bucket `i` to queue `i % workers`, identical to [`queue_for_hash`],
    /// so installing a fresh table never changes packet placement — only a
    /// supervisor's `remap_dead`/`restore` does.
    ///
    /// # Panics
    ///
    /// Panics if the table was built for a different queue count.
    pub fn set_rss_table(&mut self, table: Arc<RssTable>) {
        assert_eq!(
            table.worker_count(),
            self.rx_queue_count(),
            "RSS table queue count must match the port"
        );
        self.rss = Some(table);
    }

    /// Wraps the port into a shared handle.
    pub fn into_handle(self) -> PortHandle {
        Rc::new(RefCell::new(self))
    }

    /// Number of RX queues.
    pub fn rx_queue_count(&self) -> u16 {
        self.rx_queues.len() as u16
    }

    /// A handle to RX queue `q` (workers poll these).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn rx_queue(&self, q: u16) -> SimQueue<Packet> {
        self.rx_queues[usize::from(q)].clone()
    }

    /// Time a frame of `wire_bits` occupies the wire.
    pub fn wire_time(&self, wire_bits: u64) -> Time {
        Time::from_secs_f64(wire_bits as f64 / self.speed_bps)
    }

    /// The port's one admission rule: the RX queue a frame with RSS hash
    /// `hash` steers to, if that queue has a free descriptor. A refusal is
    /// counted as an RX drop. A source holds the port mutably from this
    /// answer until it enqueues the frame, so an admitted frame always fits.
    pub fn admit(&mut self, hash: u32) -> Option<u16> {
        let q = match &self.rss {
            Some(t) => t.worker_for(hash),
            None => queue_for_hash(hash, self.rx_queue_count()),
        };
        if self.rx_queues[usize::from(q)].free_space() == 0 {
            self.counters.rx_dropped += 1;
            return None;
        }
        Some(q)
    }

    /// Places a frame [`admit`](Port::admit) accepted onto RX queue `q`,
    /// stamping its ingress port and queue. The frame already carries the
    /// RSS hash it was admitted by: every source stamps the descriptor hash
    /// when it writes a frame.
    ///
    /// # Panics
    ///
    /// Panics if queue `q` is full, i.e. the frame was not admitted.
    pub(crate) fn enqueue(&mut self, q: u16, mut pkt: Packet) {
        pkt.port_in = self.id;
        pkt.queue_in = q;
        let pushed = self.rx_queues[usize::from(q)].push(pkt).is_ok();
        assert!(pushed, "RX queue {q} is full: the frame was never admitted");
        self.counters.rx_delivered += 1;
    }

    /// Counts a frame [`admit`](Port::admit) accepted that got no buffer
    /// ([`PortCounters::rx_nombuf`]); its descriptor stays free.
    pub(crate) fn nombuf(&mut self) {
        self.counters.rx_nombuf += 1;
    }

    /// Delivers a frame that already exists: hashes its headers and stamps
    /// the hash, then [`admit`](Port::admit)s and enqueues it (or drops it
    /// on overflow).
    pub fn deliver(&mut self, mut pkt: Packet) {
        pkt.rss_hash = rss_hash(&self.hasher, pkt.data());
        if let Some(q) = self.admit(pkt.rss_hash) {
            self.enqueue(q, pkt);
        }
    }

    /// Attempts to transmit a frame at virtual time `now`.
    pub fn transmit(&mut self, now: Time, pkt: &Packet) -> TxOutcome {
        let start = self.tx_busy_until.max(now);
        if start - now > self.tx_ring_horizon {
            self.counters.tx_dropped += 1;
            return TxOutcome::Dropped;
        }
        let done_at = start + self.wire_time(pkt.wire_bits());
        self.tx_busy_until = done_at;
        self.counters.tx_frames += 1;
        self.counters.tx_frame_bits += pkt.frame_bits();
        self.counters.tx_wire_bits += pkt.wire_bits();
        TxOutcome::Sent { done_at }
    }

    /// A copy of the counters.
    pub fn counters(&self) -> PortCounters {
        self.counters
    }
}

/// Computes the RSS hash of a frame the way the modelled NIC does: the
/// 4-tuple for UDP, the address 2-tuple for TCP and other IP, 0 for non-IP.
///
/// The NIC does not hash TCP ports, so a TCP flow's hash depends on its
/// addresses alone — never on a header field that changes along the flow.
pub fn rss_hash(hasher: &Toeplitz, frame: &[u8]) -> u32 {
    let Ok(eth) = EtherView::parse(frame) else {
        return 0;
    };
    match eth.ethertype() {
        proto::ETHERTYPE_IPV4 => {
            let Ok(ip) = Ipv4View::parse(eth.payload()) else {
                return 0;
            };
            match (ip.protocol(), UdpView::parse(ip.payload())) {
                (proto::IPPROTO_UDP, Ok(udp)) => {
                    hasher.hash_ipv4_l4(ip.src(), ip.dst(), udp.src_port(), udp.dst_port())
                }
                _ => hasher.hash_ipv4(ip.src(), ip.dst()),
            }
        }
        proto::ETHERTYPE_IPV6 => {
            let Ok(ip) = Ipv6View::parse(eth.payload()) else {
                return 0;
            };
            match (ip.next_header(), UdpView::parse(ip.payload())) {
                (proto::IPPROTO_UDP, Ok(udp)) => {
                    hasher.hash_ipv6_l4(ip.src(), ip.dst(), udp.src_port(), udp.dst_port())
                }
                _ => hasher.hash_ipv6(ip.src(), ip.dst()),
            }
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FrameBuilder;

    fn udp_frame(src: u32, dst: u32, len: usize) -> Packet {
        let mut bytes = vec![0u8; len];
        FrameBuilder::default().build_ipv4(&mut bytes, len, src, dst);
        Packet::from_bytes(&bytes)
    }

    #[test]
    fn rss_spreads_flows_stably() {
        let mut port = Port::new(0, 10.0, 4, 64);
        for i in 0..256 {
            port.deliver(udp_frame(0x0a000000 + i, 0xc0a80001, 64));
        }
        let total: usize = (0..4).map(|q| port.rx_queue(q).len()).sum();
        assert_eq!(total, 256);
        assert_eq!(port.counters().rx_delivered, 256);
        // Same flow always lands on the same queue.
        let mut p2 = Port::new(0, 10.0, 4, 64);
        p2.deliver(udp_frame(0x0a000001, 0xc0a80001, 64));
        p2.deliver(udp_frame(0x0a000001, 0xc0a80001, 64));
        let landed: Vec<usize> = (0..4).map(|q| p2.rx_queue(q).len()).collect();
        assert_eq!(landed.iter().filter(|&&n| n > 0).count(), 1);
        assert_eq!(landed.iter().sum::<usize>(), 2);
    }

    #[test]
    fn rx_overflow_drops() {
        let mut port = Port::new(0, 10.0, 1, 4);
        for i in 0..10 {
            port.deliver(udp_frame(i, 2, 64));
        }
        let c = port.counters();
        assert_eq!(c.rx_delivered, 4);
        assert_eq!(c.rx_dropped, 6);
    }

    #[test]
    fn admit_refuses_a_full_queue_and_counts_the_drop() {
        // Two one-descriptor queues; hashes 0 and 2 steer to queue 0, 1 to 1.
        let mut port = Port::new(3, 10.0, 2, 1);
        assert_eq!(port.admit(0), Some(0));
        port.enqueue(0, udp_frame(1, 2, 64));
        assert_eq!(port.admit(2), None);
        assert_eq!(port.admit(1), Some(1));
        let c = port.counters();
        assert_eq!((c.rx_delivered, c.rx_dropped), (1, 1));
        let pkt = port.rx_queue(0).pop().unwrap();
        assert_eq!((pkt.rss_hash, pkt.port_in, pkt.queue_in), (0, 3, 0));
        // `deliver` is the same rule behind a header hash.
        let frame = udp_frame(7, 9, 64);
        let q = queue_for_hash(rss_hash(&Toeplitz::default(), frame.data()), 2);
        port.deliver(frame);
        assert_eq!(port.rx_queue(q).len(), 1);
    }

    #[test]
    fn wire_time_of_min_frame_at_10g() {
        let port = Port::new(0, 10.0, 1, 64);
        // 672 bits at 10 Gbps = 67.2 ns.
        let t = port.wire_time(672);
        assert_eq!(t.as_ps(), 67_200);
    }

    #[test]
    fn tx_serializes_frames() {
        let mut port = Port::new(0, 10.0, 1, 64);
        let p = udp_frame(1, 2, 64);
        let TxOutcome::Sent { done_at: t1 } = port.transmit(Time::ZERO, &p) else {
            panic!("expected send");
        };
        let TxOutcome::Sent { done_at: t2 } = port.transmit(Time::ZERO, &p) else {
            panic!("expected send");
        };
        assert_eq!(t2 - t1, port.wire_time(672));
        assert_eq!(port.counters().tx_frames, 2);
        assert_eq!(port.counters().tx_frame_bits, 1024);
    }

    #[test]
    fn tx_ring_overflow_drops() {
        let mut port = Port::new(0, 10.0, 1, 64);
        let p = udp_frame(1, 2, 1514);
        let mut sent = 0u32;
        let mut dropped = 0u32;
        for _ in 0..2000 {
            match port.transmit(Time::ZERO, &p) {
                TxOutcome::Sent { .. } => sent += 1,
                TxOutcome::Dropped => dropped += 1,
            }
        }
        // The ring holds roughly 512 full frames of backlog.
        assert!((512..=520).contains(&sent), "sent = {sent}");
        assert!(dropped > 0);
        assert_eq!(port.counters().tx_dropped as u32, dropped);
    }

    #[test]
    fn tcp_hashes_on_addresses_whatever_the_sequence_number() {
        // A sequence number whose high half would read as a valid UDP
        // length must not move the flow to another queue.
        let hasher = Toeplitz::default();
        let b = FrameBuilder {
            src_port: 40_000,
            dst_port: 80,
            ..FrameBuilder::default()
        };
        for seq in [0, 7 << 16, 16 << 16, 40 << 16] {
            let mut frame = vec![0u8; 128];
            b.build_ipv4_tcp(
                &mut frame,
                128,
                0x0a00_0001,
                0xc0a8_0001,
                proto::TCP_ACK,
                seq,
            );
            assert_eq!(
                rss_hash(&hasher, &frame),
                hasher.hash_ipv4(0x0a00_0001, 0xc0a8_0001),
                "seq {seq:#x}"
            );
        }
    }

    #[test]
    fn non_ip_frames_hash_to_zero() {
        let hasher = Toeplitz::default();
        let mut frame = vec![0u8; 64];
        frame[12..14].copy_from_slice(&0x0806u16.to_be_bytes()); // ARP.
        assert_eq!(rss_hash(&hasher, &frame), 0);
        assert_eq!(rss_hash(&hasher, &[0u8; 4]), 0);
    }
}
