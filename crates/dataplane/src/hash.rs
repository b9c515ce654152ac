//! CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), the hash SpliDT
//! uses to map a flow's 5-tuple onto register indices (paper §3.1.1).
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time, let the
//! CRC register absorb eight bytes per step with one lookup into each
//! table; a tail shorter than eight bytes goes through the first table a
//! byte at a time, which alone is the classic table-driven CRC. Both
//! paths compute the same polynomial division, so the result is
//! bit-identical to the bytewise CRC for every input.
//!
//! Every flow hash starts from the same 13 tuple bytes, so the register
//! after them (`tuple_crc`) is the one per-packet state: [`flow_index`]
//! finalises it directly and [`flow_fingerprint`] runs it on over the
//! salt bytes. The wave executor keeps that state per packet, so a
//! packet's tuple is hashed once however many hashes it takes.

/// `TABLES[0]` is the bytewise table; `TABLES[k][i]` advances
/// `TABLES[k - 1][i]` by one more zero byte.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let c = t[k - 1][i];
            t[k][i] = (c >> 8) ^ t[0][(c & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Runs the (pre-inverted) CRC register `c` over `data`.
#[inline]
fn update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 of a byte slice (IEEE, as used by Ethernet FCS and zlib).
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0, data)
}

/// Salt mixed into the ownership-lane fingerprint hash so it is
/// independent of the register-index hash (hardware uses a second hash
/// engine with a different seed for exactly this reason: a fingerprint
/// correlated with the index would collide deterministically).
pub const FP_SALT: u64 = 0x051D_7F1A_60DD_BA11;

/// Width (bits) of the ownership-lane fingerprint. The lane's high word
/// shares its 32 bits between the fingerprint and the lifecycle-policy
/// bits (decided, pinned, verdict class) — see
/// `splidt_dataplane::register::owner_lane` for the full cell layout.
pub const FP_BITS: u32 = 24;

/// Mask selecting the fingerprint bits.
pub const FP_MASK: u64 = (1 << FP_BITS) - 1;

/// Canonically orders a flow tuple so both directions hash identically:
/// the `(ip, port)` pair that compares smaller becomes the source side.
/// The single source of truth for the ordering every hash consumer
/// (register index, ownership fingerprint, shard routing) must share.
pub fn canonical_order(
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
) -> (u32, u32, u16, u16) {
    if (src_ip, src_port) > (dst_ip, dst_port) {
        (dst_ip, src_ip, dst_port, src_port)
    } else {
        (src_ip, dst_ip, src_port, dst_port)
    }
}

/// Hashes a 5-tuple into a register index in `0..slots`.
///
/// `slots` must be a power of two (register arrays are sized that way so the
/// hardware can mask instead of divide).
pub fn flow_index(
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    slots: usize,
) -> usize {
    assert!(slots.is_power_of_two(), "slots must be a power of two");
    (!tuple_crc(src_ip, dst_ip, src_port, dst_port, proto)) as usize & (slots - 1)
}

/// Salted CRC32 of a 5-tuple — the second, index-independent hash the
/// ownership lane uses as a flow fingerprint. The salt bytes are appended
/// to the tuple bytes before hashing, modelling a hash engine seeded
/// differently from the one computing [`flow_index`].
pub fn flow_fingerprint(
    src_ip: u32,
    dst_ip: u32,
    src_port: u16,
    dst_port: u16,
    proto: u8,
    salt: u64,
) -> u32 {
    salted(tuple_crc(src_ip, dst_ip, src_port, dst_port, proto), salt)
}

/// The CRC register after a 5-tuple's 13 big-endian bytes, before the
/// final inversion: the state every hash of that tuple continues from.
#[inline]
pub(crate) fn tuple_crc(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> u32 {
    let mut buf = [0u8; 13];
    buf[0..4].copy_from_slice(&src_ip.to_be_bytes());
    buf[4..8].copy_from_slice(&dst_ip.to_be_bytes());
    buf[8..10].copy_from_slice(&src_port.to_be_bytes());
    buf[10..12].copy_from_slice(&dst_port.to_be_bytes());
    buf[12] = proto;
    update(!0, &buf)
}

/// [`flow_fingerprint`] from a [`tuple_crc`] state: the salt bytes are
/// appended to the tuple bytes.
#[inline]
pub(crate) fn salted(state: u32, salt: u64) -> u32 {
    !update(state, &salt.to_be_bytes())
}

/// The canonical ownership-lane fingerprint of a 5-tuple: the salted hash
/// truncated to [`FP_BITS`] and forced nonzero (0 means "slot free").
/// The tuple must already be canonically ordered (as for [`flow_index`]);
/// the compiled pipeline reproduces this value with
/// `HashFlow { salt: FP_SALT, mask: FP_MASK }` followed by `Max(·, 1)`.
pub fn owner_fingerprint(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> u64 {
    (flow_fingerprint(src_ip, dst_ip, src_port, dst_port, proto, FP_SALT) as u64 & FP_MASK).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bytewise table-driven CRC, the reference slicing-by-8 is held
    /// to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length() {
        // xorshift64: random bytes without a dependency.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut data = Vec::new();
        for len in 0..=64 {
            for _ in 0..16 {
                data.clear();
                data.extend((0..len).map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                }));
                assert_eq!(crc32(&data), crc32_bytewise(&data), "{data:?}");
            }
        }
    }

    #[test]
    fn flow_index_in_range_and_deterministic() {
        let a = flow_index(0x0a000001, 0x0a000002, 1234, 80, 6, 1 << 16);
        let b = flow_index(0x0a000001, 0x0a000002, 1234, 80, 6, 1 << 16);
        assert_eq!(a, b);
        assert!(a < (1 << 16));
    }

    #[test]
    fn different_tuples_usually_differ() {
        let a = flow_index(1, 2, 3, 4, 6, 1 << 20);
        let b = flow_index(1, 2, 3, 5, 6, 1 << 20);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        flow_index(1, 2, 3, 4, 6, 1000);
    }

    #[test]
    fn fingerprint_independent_of_index() {
        // Two tuples that share a register index must not be forced to
        // share a fingerprint: the salt decorrelates the two hashes.
        let fp = owner_fingerprint(0x0a000001, 0x0a000002, 1234, 80, 6);
        assert!((1..=FP_MASK).contains(&fp));
        assert_eq!(fp, owner_fingerprint(0x0a000001, 0x0a000002, 1234, 80, 6));
        let other = owner_fingerprint(0x0a000001, 0x0a000002, 1235, 80, 6);
        assert_ne!(fp, other, "distinct tuples should fingerprint differently");
        // salted hash differs from the unsalted index hash stream
        assert_ne!(
            flow_fingerprint(1, 2, 3, 4, 6, FP_SALT) as usize & 0xFFFF,
            flow_index(1, 2, 3, 4, 6, 1 << 16) & 0xFFFF,
        );
    }
}
