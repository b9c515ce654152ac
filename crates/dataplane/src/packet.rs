//! Byte-level packet construction: Ethernet / flow-size shim / IPv4 / TCP|UDP.
//!
//! SpliDT assumes a datacenter transport that carries the flow's total size
//! in a header (Homa \[52\] and NDP \[37\] both do), so the switch can derive
//! window boundaries without buffering. We model this as a 4-byte shim
//! between Ethernet and IPv4 — structurally a VLAN-style tag with a local
//! experimental EtherType — carrying the flow size in packets.
//!
//! ```text
//! | Ethernet (14B) | shim: ethertype 0x88B5, flow_size:u16 | IPv4 | TCP/UDP | payload |
//! ```

/// EtherType of the flow-size shim (IEEE 802 local experimental).
pub const FLOW_SHIM_ETHERTYPE: u16 = 0x88B5;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// IPv4 protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IPv4 protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    pub const RST: u8 = 0x04;
    /// PSH flag.
    pub const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;
    /// URG flag.
    pub const URG: u8 = 0x20;

    /// True when all bits in `mask` are set.
    pub fn has(self, mask: u8) -> bool {
        self.0 & mask == mask
    }
}

/// Builder for test and trace packets.
///
/// Produces a fully formed frame; lengths and header fields are consistent,
/// checksums are zeroed (the simulator does not verify them, like most
/// switch pipelines which delegate to MAC blocks).
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    tcp_flags: u8,
    ttl: u8,
    payload_len: u16,
    flow_size: Option<u16>,
}

impl PacketBuilder {
    /// Starts a TCP packet for the given 5-tuple.
    pub fn tcp(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IPPROTO_TCP,
            tcp_flags: TcpFlags::ACK,
            ttl: 64,
            payload_len: 0,
            flow_size: None,
        }
    }

    /// Starts a UDP packet for the given 5-tuple.
    pub fn udp(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16) -> Self {
        Self {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: IPPROTO_UDP,
            tcp_flags: 0,
            ttl: 64,
            payload_len: 0,
            flow_size: None,
        }
    }

    /// Sets TCP flags (ignored for UDP).
    pub fn flags(mut self, flags: u8) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// Sets the IPv4 TTL.
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the payload length in bytes.
    pub fn payload(mut self, len: u16) -> Self {
        self.payload_len = len;
        self
    }

    /// Attaches the flow-size shim declaring the flow's total packet count.
    pub fn flow_size(mut self, packets: u16) -> Self {
        self.flow_size = Some(packets);
        self
    }

    /// Serializes the frame.
    pub fn build(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.build_into(&mut buf);
        buf
    }

    /// Serializes the frame into a reusable buffer (cleared first). After
    /// the buffer has grown to the largest frame in a batch, subsequent
    /// calls allocate nothing — the hot-loop companion to [`Self::build`].
    pub fn build_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.frame_len());
        self.serialize(out);
    }

    /// Appends the frame, multi-byte fields in network (big-endian) order.
    fn serialize(&self, buf: &mut Vec<u8>) {
        let l4_len: u16 = match self.proto {
            IPPROTO_TCP => 20,
            IPPROTO_UDP => 8,
            _ => 0,
        };
        let ip_total = 20 + l4_len + self.payload_len;
        // Ethernet
        buf.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x01]); // dst MAC
        buf.extend_from_slice(&[0x02, 0, 0, 0, 0, 0x02]); // src MAC
        if let Some(fs) = self.flow_size {
            buf.extend_from_slice(&FLOW_SHIM_ETHERTYPE.to_be_bytes());
            buf.extend_from_slice(&fs.to_be_bytes());
        }
        buf.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
        // IPv4 (no options)
        buf.extend_from_slice(&[0x45, 0]); // version/IHL, DSCP/ECN
        buf.extend_from_slice(&ip_total.to_be_bytes());
        buf.extend_from_slice(&[0, 0, 0, 0]); // id, flags/frag
        buf.extend_from_slice(&[self.ttl, self.proto]);
        buf.extend_from_slice(&[0, 0]); // checksum (unverified)
        buf.extend_from_slice(&self.src_ip.to_be_bytes());
        buf.extend_from_slice(&self.dst_ip.to_be_bytes());
        // L4
        match self.proto {
            IPPROTO_TCP => {
                buf.extend_from_slice(&self.src_port.to_be_bytes());
                buf.extend_from_slice(&self.dst_port.to_be_bytes());
                buf.extend_from_slice(&[0; 8]); // seq, ack
                buf.extend_from_slice(&[5 << 4, self.tcp_flags]); // data offset, flags
                buf.extend_from_slice(&0xFFFFu16.to_be_bytes()); // window
                buf.extend_from_slice(&[0; 4]); // checksum, urgent
            }
            IPPROTO_UDP => {
                buf.extend_from_slice(&self.src_port.to_be_bytes());
                buf.extend_from_slice(&self.dst_port.to_be_bytes());
                buf.extend_from_slice(&(8 + self.payload_len).to_be_bytes());
                buf.extend_from_slice(&[0, 0]); // checksum
            }
            _ => {}
        }
        buf.resize(buf.len() + self.payload_len as usize, 0);
    }

    /// Total frame length this builder will produce.
    pub fn frame_len(&self) -> usize {
        let l4: usize = if self.proto == IPPROTO_TCP { 20 } else { 8 };
        14 + if self.flow_size.is_some() { 4 } else { 0 } + 20 + l4 + self.payload_len as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_frame_shape() {
        let pkt = PacketBuilder::tcp(0x0a000001, 0x0a000002, 1234, 80)
            .flags(TcpFlags::SYN)
            .payload(100)
            .flow_size(32)
            .build();
        assert_eq!(pkt.len(), 14 + 4 + 20 + 20 + 100);
        // shim ethertype at offset 12
        assert_eq!(u16::from_be_bytes([pkt[12], pkt[13]]), FLOW_SHIM_ETHERTYPE);
        assert_eq!(u16::from_be_bytes([pkt[14], pkt[15]]), 32);
        assert_eq!(u16::from_be_bytes([pkt[16], pkt[17]]), ETHERTYPE_IPV4);
        // proto at IPv4 offset 9 (headers start at 18)
        assert_eq!(pkt[18 + 9], IPPROTO_TCP);
    }

    #[test]
    fn udp_without_shim() {
        let pkt = PacketBuilder::udp(1, 2, 53, 53).build();
        assert_eq!(pkt.len(), 14 + 20 + 8);
        assert_eq!(u16::from_be_bytes([pkt[12], pkt[13]]), ETHERTYPE_IPV4);
        assert_eq!(pkt[14 + 9], IPPROTO_UDP);
    }

    #[test]
    fn frame_len_matches_build() {
        let b = PacketBuilder::tcp(1, 2, 3, 4).payload(7).flow_size(9);
        assert_eq!(b.frame_len(), b.build().len());
        let b = PacketBuilder::udp(1, 2, 3, 4).payload(11);
        assert_eq!(b.frame_len(), b.build().len());
    }

    #[test]
    fn flags_helpers() {
        let f = TcpFlags(TcpFlags::SYN | TcpFlags::ACK);
        assert!(f.has(TcpFlags::SYN));
        assert!(f.has(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.has(TcpFlags::FIN));
    }
}
