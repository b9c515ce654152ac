//! # splidt-net — the network ingress subsystem
//!
//! Everything between a wire and [`splidt_core`]'s engines: frame
//! sources (UDP socket, pcap replay, in-memory), per-shard bounded SPSC
//! rings with drop-and-count backpressure, run-to-completion shard
//! consumers, exact ingress accounting, and a loopback traffic
//! generator.
//!
//! ```text
//!  splidt-gen ──UDP loopback──▶ UdpSource ─▶ run_ingress ─▶ ShardedEngine
//!  (churn schedule replay)        │             │  per-shard SPSC rings,
//!  pcap file ──────────────▶ PcapSource ────────┘  backpressure, stats
//! ```
//!
//! The accounting invariant every run must satisfy (checked by
//! [`IngressStats::reconciles`](splidt_core::runtime::IngressStats::reconciles)):
//! `received == steered + dropped_ring_full + dropped_malformed`, and
//! every steered frame is consumed before the final report — graceful
//! shutdown drains, it does not discard.

#![deny(unsafe_code)]

pub mod gen;
pub mod pcap;
pub mod service;
pub mod source;

/// The SPSC frame ring lives in `splidt-core` beside the engine it feeds;
/// this crate's ingress service is its one user, and `splidt_net::ring::*`
/// paths resolve through this re-export.
pub use splidt_core::ring;

pub use gen::{replay_udp, GenConfig, GenReport};
pub use pcap::{write_pcap, PcapSource};
pub use ring::{ring, Consumer, Producer, PushError};
pub use service::{classified_flows, run_ingress, IngressConfig, IngressOutcome};
pub use source::{FrameBurst, FrameSource, ReplaySource, UdpSource, STOP_SENTINEL};
