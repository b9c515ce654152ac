//! The Range-Marking encoding (NetBeacon \[85\], adopted by SpliDT §3.2.1).
//!
//! For a feature with sorted distinct thresholds `t_0 < t_1 < … < t_{m−1}`,
//! the *range mark* of a value `v` is an `m`-bit thermometer code: bit `j`
//! is 1 iff `v > t_j`. Two properties make this the right TCAM encoding:
//!
//! 1. every decision-tree predicate `v ≤ t_j` / `v > t_j` is a single-bit
//!    ternary constraint on the mark, so **each leaf's conjunction is one
//!    TCAM rule** (no rule explosion);
//! 2. the value → mark translation table has exactly `m + 1` entries (one
//!    per elementary range), each installable as a handful of prefixes.

use crate::ternary::{range_to_prefixes, Prefix};

/// Thermometer encoder for one feature within one subtree.
#[derive(Debug, Clone)]
pub struct ThermometerEncoder {
    thresholds: Vec<u64>,
    domain_bits: u8,
}

/// One bit constraint on a mark: `(bit index, required value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitConstraint {
    /// Which mark bit.
    pub bit: u8,
    /// Required bit value (`v > t_bit`?).
    pub value: bool,
}

/// An elementary range of the feature domain with its mark.
#[derive(Debug, Clone)]
pub struct ElementaryRange {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
    /// Thermometer mark for values in the range.
    pub mark: u64,
    /// Prefix expansion of `[lo, hi]`.
    pub prefixes: Vec<Prefix>,
}

impl ThermometerEncoder {
    /// Builds an encoder from integer thresholds (deduplicated and sorted
    /// internally) over a `domain_bits`-wide value domain.
    ///
    /// Thresholds at or above the domain maximum are dropped: `v ≤ max` is
    /// always true and would waste a mark bit.
    pub fn new(mut thresholds: Vec<u64>, domain_bits: u8) -> Self {
        assert!((1..=64).contains(&domain_bits));
        let max = if domain_bits == 64 { u64::MAX } else { (1u64 << domain_bits) - 1 };
        thresholds.retain(|&t| t < max);
        thresholds.sort_unstable();
        thresholds.dedup();
        assert!(thresholds.len() <= 63, "too many thresholds for one feature");
        Self { thresholds, domain_bits }
    }

    /// Number of mark bits (= number of thresholds).
    pub fn mark_bits(&self) -> u8 {
        self.thresholds.len() as u8
    }

    /// The sorted thresholds.
    pub fn thresholds(&self) -> &[u64] {
        &self.thresholds
    }

    /// Value domain width.
    pub fn domain_bits(&self) -> u8 {
        self.domain_bits
    }

    /// The thermometer mark of a value: bit `j` set iff `value > t_j`.
    pub fn mark_of(&self, value: u64) -> u64 {
        let mut m = 0u64;
        for (j, &t) in self.thresholds.iter().enumerate() {
            if value > t {
                m |= 1 << j;
            }
        }
        m
    }

    /// The single-bit constraint for a tree predicate on threshold `t`.
    ///
    /// `went_left` means the path took `v ≤ t`. Returns `None` when `t`
    /// was dropped (≥ domain max and `went_left`: always true).
    pub fn constraint(&self, threshold: u64, went_left: bool) -> Option<BitConstraint> {
        match self.thresholds.binary_search(&threshold) {
            Ok(j) => Some(BitConstraint { bit: j as u8, value: !went_left }),
            Err(_) => None,
        }
    }

    /// The `m + 1` elementary ranges with marks and prefix expansions.
    pub fn elementary_ranges(&self) -> Vec<ElementaryRange> {
        let max = if self.domain_bits == 64 { u64::MAX } else { (1u64 << self.domain_bits) - 1 };
        let mut out = Vec::with_capacity(self.thresholds.len() + 1);
        let mut lo = 0u64;
        for (i, &t) in self.thresholds.iter().enumerate() {
            let mark = if i == 0 { 0 } else { (1u64 << i) - 1 };
            out.push(ElementaryRange {
                lo,
                hi: t,
                mark,
                prefixes: range_to_prefixes(lo, t, self.domain_bits),
            });
            lo = t + 1;
        }
        let mark = if self.thresholds.is_empty() { 0 } else { (1u64 << self.thresholds.len()) - 1 };
        out.push(ElementaryRange {
            lo,
            hi: max,
            mark,
            prefixes: range_to_prefixes(lo, max, self.domain_bits),
        });
        out
    }

    /// Total TCAM entries needed by this feature's translation table.
    pub fn table_entries(&self) -> usize {
        self.elementary_ranges().iter().map(|r| r.prefixes.len()).sum()
    }
}

/// Elementary cut points of a set of closed intervals: the sorted, distinct
/// values at which interval membership can change (`lo` of each range plus
/// `hi + 1`, when in domain). Between consecutive cuts — and before the
/// first / after the last — every input range either fully covers or fully
/// misses the elementary interval, so per-interval matching decisions can
/// be precomputed once and resolved by binary search ([`interval_of`]).
///
/// This is the same decomposition [`ThermometerEncoder::elementary_ranges`]
/// performs for threshold sets, generalized to arbitrary (possibly
/// overlapping) `[lo, hi]` ranges; the dataplane's ternary index resolves
/// its prefix groups with it.
pub fn elementary_cuts(ranges: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
    let mut cuts = Vec::new();
    for (lo, hi) in ranges {
        if lo > 0 {
            cuts.push(lo);
        }
        if let Some(after) = hi.checked_add(1) {
            cuts.push(after);
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// Index of the elementary interval containing `v`, for `cuts` produced by
/// [`elementary_cuts`]: interval `i` spans `[cuts[i-1], cuts[i])` (with
/// virtual endpoints `0` and `u64::MAX + 1`).
pub fn interval_of(cuts: &[u64], v: u64) -> usize {
    cuts.partition_point(|&c| c <= v)
}

/// Converts a CART threshold (`f32`, `v ≤ t` goes left) into the integer
/// threshold with identical semantics on integer-valued features.
pub fn integer_threshold(t: f32) -> u64 {
    if t <= 0.0 {
        0
    } else {
        t.floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_are_thermometer_codes() {
        let e = ThermometerEncoder::new(vec![10, 20, 30], 8);
        assert_eq!(e.mark_bits(), 3);
        assert_eq!(e.mark_of(5), 0b000);
        assert_eq!(e.mark_of(10), 0b000);
        assert_eq!(e.mark_of(11), 0b001);
        assert_eq!(e.mark_of(20), 0b001);
        assert_eq!(e.mark_of(25), 0b011);
        assert_eq!(e.mark_of(31), 0b111);
    }

    #[test]
    fn dedup_and_sort() {
        let e = ThermometerEncoder::new(vec![30, 10, 10, 20], 8);
        assert_eq!(e.thresholds(), &[10, 20, 30]);
    }

    #[test]
    fn constraints_match_predicates() {
        let e = ThermometerEncoder::new(vec![10, 20], 8);
        let c = e.constraint(10, true).unwrap();
        assert_eq!((c.bit, c.value), (0, false)); // v ≤ 10 → bit0 = 0
        let c = e.constraint(20, false).unwrap();
        assert_eq!((c.bit, c.value), (1, true)); // v > 20 → bit1 = 1
        assert!(e.constraint(15, true).is_none(), "unknown threshold");
    }

    #[test]
    fn elementary_ranges_partition_domain() {
        let e = ThermometerEncoder::new(vec![10, 200], 8);
        let rs = e.elementary_ranges();
        assert_eq!(rs.len(), 3);
        assert_eq!((rs[0].lo, rs[0].hi, rs[0].mark), (0, 10, 0b00));
        assert_eq!((rs[1].lo, rs[1].hi, rs[1].mark), (11, 200, 0b01));
        assert_eq!((rs[2].lo, rs[2].hi, rs[2].mark), (201, 255, 0b11));
        // every domain value falls in exactly one range with matching mark
        for v in 0u64..=255 {
            let hits: Vec<_> = rs.iter().filter(|r| r.lo <= v && v <= r.hi).collect();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].mark, e.mark_of(v), "value {v}");
            // prefix expansion agrees
            assert!(hits[0].prefixes.iter().any(|p| p.matches(v)));
        }
    }

    #[test]
    fn threshold_at_domain_max_dropped() {
        let e = ThermometerEncoder::new(vec![255], 8);
        assert_eq!(e.mark_bits(), 0);
        assert_eq!(e.elementary_ranges().len(), 1);
    }

    #[test]
    fn no_thresholds_single_range() {
        let e = ThermometerEncoder::new(vec![], 16);
        assert_eq!(e.mark_bits(), 0);
        let rs = e.elementary_ranges();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].hi, 0xFFFF);
        assert_eq!(e.table_entries(), 1);
    }

    #[test]
    fn elementary_cuts_decompose_overlapping_ranges() {
        // Ranges [5,10], [8,20], [0,3]: membership changes at 4, 5, 8, 11, 21.
        let cuts = elementary_cuts([(5, 10), (8, 20), (0, 3)]);
        assert_eq!(cuts, vec![4, 5, 8, 11, 21]);
        // Every value in an elementary interval has the same membership set.
        for v in 0u64..40 {
            let idx = interval_of(&cuts, v);
            for (lo, hi) in [(5, 10), (8, 20), (0, 3)] {
                let start = if idx == 0 { 0 } else { cuts[idx - 1] };
                let inside_start = lo <= start && start <= hi;
                let inside_v = lo <= v && v <= hi;
                assert_eq!(inside_start, inside_v, "v={v} idx={idx}");
            }
        }
    }

    #[test]
    fn elementary_cuts_handle_domain_extremes() {
        // hi = u64::MAX must not overflow; lo = 0 adds no leading cut.
        let cuts = elementary_cuts([(0, u64::MAX)]);
        assert!(cuts.is_empty());
        assert_eq!(interval_of(&cuts, 0), 0);
        assert_eq!(interval_of(&cuts, u64::MAX), 0);
        // Degenerate single-point range.
        let cuts = elementary_cuts([(7, 7)]);
        assert_eq!(cuts, vec![7, 8]);
        assert_eq!(interval_of(&cuts, 6), 0);
        assert_eq!(interval_of(&cuts, 7), 1);
        assert_eq!(interval_of(&cuts, 8), 2);
    }

    #[test]
    fn integer_threshold_floor_semantics() {
        // CART midpoints are x.5 on integer data: v ≤ 10.5 ⟺ v ≤ 10.
        assert_eq!(integer_threshold(10.5), 10);
        assert_eq!(integer_threshold(10.0), 10);
        assert_eq!(integer_threshold(-3.0), 0);
        assert_eq!(integer_threshold(0.4), 0);
    }
}
