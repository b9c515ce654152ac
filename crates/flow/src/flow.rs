//! Flows and packet traces.
//!
//! A [`FlowTrace`] is a labelled, bidirectional sequence of packets sharing
//! a canonical 5-tuple. Traces are what the synthetic dataset generators
//! produce, what the feature extractor consumes, and what the runtime
//! serializes into real frames for the data-plane simulator.

/// Direction of a packet relative to the flow initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Initiator → responder (client → server).
    Fwd,
    /// Responder → initiator.
    Bwd,
}

/// The canonical 5-tuple identifying a flow, oriented initiator → responder.
///
/// By construction (and by the convention the data-plane direction table
/// relies on), the responder port is a well-known service port `< 1024` and
/// the initiator port is ephemeral `≥ 32768`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FiveTuple {
    /// Initiator IPv4 address.
    pub src_ip: u32,
    /// Responder IPv4 address.
    pub dst_ip: u32,
    /// Initiator (ephemeral) port.
    pub src_port: u16,
    /// Responder (service) port.
    pub dst_port: u16,
    /// IP protocol (6 = TCP, 17 = UDP).
    pub proto: u8,
}

/// One packet of a flow trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracePacket {
    /// Timestamp in microseconds from trace epoch.
    pub ts_us: u64,
    /// Frame length in bytes (on-wire).
    pub frame_len: u16,
    /// L2+L3+L4 header bytes (payload = frame_len − hdr_len).
    pub hdr_len: u16,
    /// TCP flags (0 for UDP).
    pub tcp_flags: u8,
    /// Direction.
    pub dir: Dir,
}

impl TracePacket {
    /// Payload bytes carried by the packet.
    pub fn payload_len(&self) -> u16 {
        self.frame_len.saturating_sub(self.hdr_len)
    }
}

/// A labelled flow: its tuple, packets (time-ordered), and ground truth.
#[derive(Debug, Clone)]
pub struct FlowTrace {
    /// Canonical 5-tuple.
    pub tuple: FiveTuple,
    /// Packets in timestamp order.
    pub packets: Vec<TracePacket>,
    /// Ground-truth class.
    pub label: u16,
}

impl FlowTrace {
    /// Flow size in packets (what the flow-size shim carries).
    pub fn size_pkts(&self) -> usize {
        self.packets.len()
    }

    /// Total bytes across both directions.
    pub fn total_bytes(&self) -> u64 {
        self.packets.iter().map(|p| p.frame_len as u64).sum()
    }

    /// Duration from first to last packet, in microseconds.
    pub fn duration_us(&self) -> u64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.ts_us - a.ts_us,
            _ => 0,
        }
    }

    /// Checks timestamps are non-decreasing (generator invariant).
    pub fn is_time_ordered(&self) -> bool {
        self.packets.windows(2).all(|w| w[0].ts_us <= w[1].ts_us)
    }

    /// The on-wire 5-tuple of packet `i`: Bwd packets swap src/dst.
    pub fn wire_tuple(&self, i: usize) -> FiveTuple {
        let t = self.tuple;
        match self.packets[i].dir {
            Dir::Fwd => t,
            Dir::Bwd => FiveTuple {
                src_ip: t.dst_ip,
                dst_ip: t.src_ip,
                src_port: t.dst_port,
                dst_port: t.src_port,
                proto: t.proto,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowTrace {
        FlowTrace {
            tuple: FiveTuple {
                src_ip: 0x0a000001,
                dst_ip: 0x0a000002,
                src_port: 40000,
                dst_port: 443,
                proto: 6,
            },
            packets: vec![
                TracePacket { ts_us: 0, frame_len: 100, hdr_len: 54, tcp_flags: 2, dir: Dir::Fwd },
                TracePacket { ts_us: 50, frame_len: 80, hdr_len: 54, tcp_flags: 18, dir: Dir::Bwd },
                TracePacket {
                    ts_us: 90,
                    frame_len: 1500,
                    hdr_len: 54,
                    tcp_flags: 16,
                    dir: Dir::Fwd,
                },
            ],
            label: 3,
        }
    }

    #[test]
    fn basic_accessors() {
        let f = flow();
        assert_eq!(f.size_pkts(), 3);
        assert_eq!(f.total_bytes(), 1680);
        assert_eq!(f.duration_us(), 90);
        assert!(f.is_time_ordered());
        assert_eq!(f.packets[0].payload_len(), 46);
    }

    #[test]
    fn wire_tuple_swaps_for_bwd() {
        let f = flow();
        let fwd = f.wire_tuple(0);
        let bwd = f.wire_tuple(1);
        assert_eq!(fwd.src_port, 40000);
        assert_eq!(bwd.src_port, 443);
        assert_eq!(bwd.dst_ip, f.tuple.src_ip);
        assert_eq!(bwd.proto, fwd.proto);
    }

    #[test]
    fn time_order_detects_violation() {
        let mut f = flow();
        f.packets[2].ts_us = 10;
        assert!(!f.is_time_ordered());
    }
}
