//! Packet Header Vector (PHV): the per-packet working set of header and
//! metadata fields that flows through the match-action pipeline.
//!
//! Real RMT hardware allocates header fields into a fixed pool of PHV
//! containers; programs address them symbolically. We model the symbolic
//! layer: a [`PhvLayout`] registers named fields with bit widths (≤ 64) and
//! produces [`Phv`] instances. Values are always masked to their declared
//! width, which is how container-width truncation shows up in hardware.

use serde::{Deserialize, Serialize};

/// Identifier of a field within a [`PhvLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FieldId(pub(crate) u16);

impl FieldId {
    /// Raw index of the field in its layout.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Declaration of a single PHV field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FieldSpec {
    name: String,
    bits: u8,
}

impl FieldSpec {
    /// Field name (unique within a layout).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared width in bits (1..=64).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Bit mask selecting the field's valid bits.
    pub fn mask(&self) -> u64 {
        if self.bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }
}

/// The set of fields a program's PHVs carry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PhvLayout {
    fields: Vec<FieldSpec>,
}

impl PhvLayout {
    /// An empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a field and returns its id.
    ///
    /// # Panics
    /// Panics if `bits` is 0 or > 64, or if the name is already taken —
    /// layouts are built by compilers, so a clash is a programming error.
    pub fn add_field(&mut self, name: impl Into<String>, bits: u8) -> FieldId {
        let name = name.into();
        assert!((1..=64).contains(&bits), "field {name}: width {bits} out of range");
        assert!(self.fields.iter().all(|f| f.name != name), "duplicate field name: {name}");
        assert!(self.fields.len() < u16::MAX as usize, "too many PHV fields");
        let id = FieldId(self.fields.len() as u16);
        self.fields.push(FieldSpec { name, bits });
        id
    }

    /// Number of registered fields.
    pub fn n_fields(&self) -> usize {
        self.fields.len()
    }

    /// Specification of a field.
    pub fn spec(&self, id: FieldId) -> &FieldSpec {
        &self.fields[id.index()]
    }

    /// Finds a field by name.
    pub fn by_name(&self, name: &str) -> Option<FieldId> {
        self.fields.iter().position(|f| f.name == name).map(|i| FieldId(i as u16))
    }

    /// Iterates every field id in declaration order (backends walk the
    /// full layout to emit headers/metadata declarations).
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.fields.len()).map(|i| FieldId(i as u16))
    }

    /// Total declared PHV bits (a loose proxy for container pressure).
    pub fn total_bits(&self) -> usize {
        self.fields.iter().map(|f| f.bits as usize).sum()
    }

    /// Creates a zeroed PHV for this layout.
    pub fn new_phv(&self) -> Phv {
        Phv { values: vec![0; self.fields.len()] }
    }
}

/// A concrete per-packet header vector. All fields start at zero.
///
/// The `Default` instance carries no fields — it exists so hot paths can
/// `std::mem::take` a scratch PHV out of a struct without allocating.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Phv {
    values: Vec<u64>,
}

impl Phv {
    /// Reads a field.
    pub fn get(&self, id: FieldId) -> u64 {
        self.values[id.index()]
    }

    /// Writes a field. The value is masked to the field's declared width by
    /// the pipeline when it executes actions; direct `set` stores verbatim
    /// and is intended for test setup and parsers, which already mask.
    pub fn set(&mut self, id: FieldId, value: u64) {
        self.values[id.index()] = value;
    }

    /// Writes a field masked to `spec`'s width.
    pub fn set_masked(&mut self, id: FieldId, value: u64, layout: &PhvLayout) {
        self.values[id.index()] = value & layout.spec(id).mask();
    }

    /// The field values, indexed by [`FieldId::index`].
    pub(crate) fn values(&self) -> &[u64] {
        &self.values
    }

    /// The field values, indexed by [`FieldId::index`]; writers mask.
    pub(crate) fn values_mut(&mut self) -> &mut [u64] {
        &mut self.values
    }

    /// Resets every field to zero in place (no allocation) so one PHV can
    /// be reused across packets.
    pub fn zero(&mut self) {
        self.values.fill(0);
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the PHV carries no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_read_fields() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 16);
        let b = l.add_field("b", 32);
        assert_eq!(l.n_fields(), 2);
        assert_eq!(l.spec(a).name(), "a");
        assert_eq!(l.spec(b).bits(), 32);
        assert_eq!(l.by_name("b"), Some(b));
        assert_eq!(l.by_name("missing"), None);
        assert_eq!(l.total_bits(), 48);
    }

    #[test]
    fn masks() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let f = l.add_field("full", 64);
        assert_eq!(l.spec(a).mask(), 0xFF);
        assert_eq!(l.spec(f).mask(), u64::MAX);
    }

    #[test]
    fn phv_roundtrip_and_masked_set() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let mut phv = l.new_phv();
        assert_eq!(phv.get(a), 0);
        phv.set_masked(a, 0x1FF, &l);
        assert_eq!(phv.get(a), 0xFF);
        phv.set(a, 7);
        assert_eq!(phv.get(a), 7);
    }

    #[test]
    #[should_panic(expected = "duplicate field name")]
    fn duplicate_name_panics() {
        let mut l = PhvLayout::new();
        l.add_field("x", 8);
        l.add_field("x", 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let mut l = PhvLayout::new();
        l.add_field("x", 0);
    }
}
