//! `nba-io`: the packet I/O substrate standing in for Intel DPDK + NICs.
//!
//! NBA sits on DPDK for zero-copy burst packet I/O, NUMA-aware mempools,
//! multi-queue NICs with receive-side scaling, and lock-free rings. This
//! crate rebuilds that layer for the simulated testbed:
//!
//! * [`buf`] — mbuf-style packet buffers with headroom and recycling
//!   [`buf::Mempool`]s,
//! * [`packet`] — the [`packet::Packet`] object elements manipulate,
//! * [`proto`] — zero-copy Ethernet/IPv4/IPv6/UDP/TCP/ESP header views with
//!   real checksums and a frame builder,
//! * [`checksum`] — RFC 1071 Internet checksum + RFC 1624 incremental update,
//! * [`toeplitz`] — the Microsoft RSS Toeplitz hash (verified against the
//!   specification's test vectors),
//! * [`port`] — the multi-queue NIC port model (RSS demux, serializing TX
//!   wire, bounded rings with drop accounting),
//! * [`gen`] — deterministic offered-load traffic generators (fixed-size,
//!   IMIX, CAIDA-like mixes over Zipf flow populations),
//! * [`pcap`] — classic pcap capture and rate-controlled trace replay,
//! * [`spsc`] — bounded single-producer/single-consumer rings (the
//!   `rte_ring` stand-in connecting RX queues to worker threads),
//! * [`rss`] — the live runtime's receive-side-scaling fanout steering
//!   packets into per-worker rings.

#![forbid(unsafe_code)]

pub mod buf;
pub mod checksum;
pub mod gen;
pub mod packet;
pub mod pcap;
pub mod port;
pub mod proto;
pub mod rss;
pub mod spsc;
pub mod toeplitz;

pub use buf::{Mempool, MempoolCache, PacketBuf};
pub use gen::{IpVersion, L4Proto, PayloadFill, SizeDist, TrafficConfig, TrafficGen};
pub use packet::Packet;
pub use pcap::{Limited, PacketSource, PcapWriter, Replay, TraceRecord};
pub use port::{Port, PortHandle, TxOutcome};
pub use rss::{RssFanout, RssTable, RSS_BUCKETS};
pub use toeplitz::Toeplitz;
