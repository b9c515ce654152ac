//! Ternary match values and range→ternary utilities used by TCAM tables.
//!
//! A [`Ternary`] is a `(value, mask)` pair: a packet field `v` matches when
//! `v & mask == value & mask`. Ranges over unsigned integer domains are
//! matched in TCAMs via prefix expansion; the canonical algorithm lives in
//! `splidt-ranging`, but the primitive matcher lives here with the tables.

/// A ternary (value/mask) match over one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ternary {
    /// Match value (bits outside `mask` are ignored).
    pub value: u64,
    /// Care mask: 1-bits must match.
    pub mask: u64,
}

impl Ternary {
    /// A ternary that matches exactly `value` on a `bits`-wide field.
    pub fn exact(value: u64, bits: u8) -> Self {
        let mask = width_mask(bits);
        Self { value: value & mask, mask }
    }

    /// A ternary that matches anything.
    pub const ANY: Ternary = Ternary { value: 0, mask: 0 };

    /// A raw value/mask pair.
    pub fn new(value: u64, mask: u64) -> Self {
        Self { value: value & mask, mask }
    }

    /// Whether `v` matches.
    pub fn matches(&self, v: u64) -> bool {
        v & self.mask == self.value
    }

    /// Number of care bits (TCAM cost heuristic).
    pub fn care_bits(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Mask covering the low `bits` bits.
pub fn width_mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_matches_only_value() {
        let t = Ternary::exact(5, 8);
        assert!(t.matches(5));
        assert!(!t.matches(4));
        // high bits outside the width are ignored at construction
        let t2 = Ternary::exact(0x105, 8);
        assert!(t2.matches(0x05));
    }

    #[test]
    fn any_matches_everything() {
        assert!(Ternary::ANY.matches(0));
        assert!(Ternary::ANY.matches(u64::MAX));
        assert_eq!(Ternary::ANY.care_bits(), 0);
    }

    #[test]
    fn masked_match() {
        // match high nibble = 0xA
        let t = Ternary::new(0xA0, 0xF0);
        assert!(t.matches(0xA5));
        assert!(t.matches(0xAF));
        assert!(!t.matches(0xB0));
        assert_eq!(t.care_bits(), 4);
    }

    #[test]
    fn width_masks() {
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(8), 0xFF);
        assert_eq!(width_mask(64), u64::MAX);
    }
}
