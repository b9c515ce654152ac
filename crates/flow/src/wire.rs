//! On-wire frame emission for flow traces: serializes trace packets into
//! the Ethernet + flow-size-shim + IPv4 + TCP frames the testbed
//! generator (MoonGen in the paper, `splidt-gen` here) would put on the
//! wire. This is the single source of truth for the frame format — the
//! evaluation session and the network traffic generator both call it,
//! so a frame built by the sender parses identically on the receiver.

use crate::flow::FlowTrace;
use splidt_dataplane::packet::PacketBuilder;

/// L2+L3+L4 header bytes of an emitted frame (Ethernet 14 + shim 4 +
/// IPv4 20 + TCP 20): payload length is `frame_len − FRAME_HDR_LEN`.
pub const FRAME_HDR_LEN: u16 = 58;

/// Serializes packet `j` of a flow into an on-wire frame, allocating the
/// returned buffer. Batch loops should reuse a buffer via
/// [`frame_for_into`].
pub fn frame_for(flow: &FlowTrace, j: usize) -> Vec<u8> {
    let mut out = Vec::new();
    frame_for_into(flow, j, &mut out);
    out
}

/// Like [`frame_for`], serializing into a reusable buffer (cleared first)
/// so batch loops allocate nothing per packet once the buffer is warm.
///
/// Direction matters: backward packets swap src/dst on the wire
/// ([`FlowTrace::wire_tuple`]), exactly as the responder's traffic would
/// appear at the switch.
pub fn frame_for_into(flow: &FlowTrace, j: usize, out: &mut Vec<u8>) {
    let p = &flow.packets[j];
    let wt = flow.wire_tuple(j);
    let payload = p.frame_len.saturating_sub(FRAME_HDR_LEN);
    PacketBuilder::tcp(wt.src_ip, wt.dst_ip, wt.src_port, wt.dst_port)
        .flags(p.tcp_flags)
        .payload(payload)
        .flow_size(flow.size_pkts() as u16)
        .build_into(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Dir, FiveTuple, TracePacket};

    fn two_way_flow() -> FlowTrace {
        FlowTrace {
            tuple: FiveTuple {
                src_ip: 0x0a00_0001,
                dst_ip: 0x0b00_0002,
                src_port: 40_000,
                dst_port: 443,
                proto: 6,
            },
            packets: vec![
                TracePacket {
                    ts_us: 0,
                    frame_len: 120,
                    hdr_len: 58,
                    tcp_flags: 0x02,
                    dir: Dir::Fwd,
                },
                TracePacket {
                    ts_us: 50,
                    frame_len: 90,
                    hdr_len: 58,
                    tcp_flags: 0x10,
                    dir: Dir::Bwd,
                },
            ],
            label: 0,
        }
    }

    #[test]
    fn emitted_frames_parse_back_to_the_wire_tuple() {
        let flow = two_way_flow();
        let mut buf = Vec::new();
        for j in 0..flow.packets.len() {
            frame_for_into(&flow, j, &mut buf);
            assert_eq!(buf.len() as u16, flow.packets[j].frame_len.max(FRAME_HDR_LEN));
            let t = splidt_dataplane::peek_flow_tuple(&buf).unwrap();
            let wt = flow.wire_tuple(j);
            assert_eq!(
                (t.src_ip, t.dst_ip, t.sport, t.dport),
                (wt.src_ip, wt.dst_ip, wt.src_port, wt.dst_port)
            );
        }
    }

    #[test]
    fn owned_and_into_variants_agree() {
        let flow = two_way_flow();
        let mut buf = vec![0xAA; 4]; // stale contents must be cleared
        frame_for_into(&flow, 0, &mut buf);
        assert_eq!(buf, frame_for(&flow, 0));
    }
}
