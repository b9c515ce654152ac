//! The control-plane table-install manifest.
//!
//! P4 declares tables; a controller fills them. The manifest is the
//! loader-facing half of an emission: for every table, the key encoding
//! (field → P4 lvalue → width → match kind) and every compiled entry
//! (value/mask/range patterns, priority, action symbol), plus the
//! register inventory with its flow-bank placement — everything a
//! bf-runtime-style loader needs to replay the compiled model onto a
//! switch running the emitted program. Serialization is a hand-rolled,
//! deterministic JSON writer (the build environment has no registry
//! access, so there is no serde_json).

/// Provenance block: where a regenerated manifest came from, so the
/// artifact describes itself. Carries `staged_generation` (the live
/// engine generation the program was captured at; 0 for a fresh compile)
/// and the physical `bank_*` layout so a manifest alone answers "what
/// hardware state does this install assume".
///
/// ```
/// use splidt_p4::manifest::Provenance;
///
/// let p = Provenance {
///     emitter: "splidt_p4 0.2.0".into(),
///     fixture: "default".into(),
///     flow_slots: 4096,
///     idle_timeout_us: 5_000_000,
///     policy: "flow_agnostic".into(),
///     staged_generation: 0,
///     bank_cell_bytes_per_flow: 39,
///     bank_stride_bytes: 64,
///     bank_lines_per_flow: 1,
/// };
/// assert_eq!(p.flow_slots, 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Emitting crate and version.
    pub emitter: String,
    /// Fixture / program source name (`default`, `tcp`, `chained`, …).
    pub fixture: String,
    /// Slot-domain depth of every per-flow register array.
    pub flow_slots: usize,
    /// Idle-eviction threshold compiled into the ownership probes.
    pub idle_timeout_us: u64,
    /// Lifecycle policy summary (`flow_agnostic`, `tcp pin=[…] …`).
    pub policy: String,
    /// Live engine generation the program was captured at (0 = fresh
    /// compile, bumps on every `swap_staged`).
    pub staged_generation: u64,
    /// Packed flow-state bytes per slot (`BankPhysical::cell_bytes_per_flow`).
    pub bank_cell_bytes_per_flow: usize,
    /// Per-slot arena pitch (`BankPhysical::stride_bytes`).
    pub bank_stride_bytes: usize,
    /// Cache lines one flow spans (`BankPhysical::lines_per_flow`).
    pub bank_lines_per_flow: usize,
}

/// One key field of a table: logical name, emitted P4 lvalue, width and
/// match kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyField {
    /// PHV field name (`m.sid`, `ipv4.proto`, …).
    pub field: String,
    /// Emitted P4 lvalue (`meta.m_sid`, `hdr.ipv4.protocol`, …).
    pub p4: String,
    /// Field width in bits.
    pub bits: u8,
    /// Match kind: `exact`, `ternary` or `range`.
    pub match_kind: &'static str,
}

/// One key component of an installed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyValue {
    /// Exact value.
    Exact(u64),
    /// Ternary value/mask pattern.
    Ternary {
        /// Match value (bits outside `mask` ignored).
        value: u64,
        /// Care mask.
        mask: u64,
    },
    /// Closed interval `[lo, hi]`.
    Range {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

/// One installed entry: key patterns, priority (ternary/range) and the
/// P4 action symbol to bind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Key patterns, one per key field.
    pub key: Vec<KeyValue>,
    /// Priority (higher wins); `None` for exact tables.
    pub priority: Option<u32>,
    /// Emitted P4 action symbol.
    pub action: String,
}

/// One table: declaration metadata plus its full install list.
///
/// ```
/// use splidt_p4::manifest::{KeyField, KeyValue, ManifestEntry, ManifestTable};
///
/// let t = ManifestTable {
///     name: "own".into(),
///     p4: "own".into(),
///     stage: 1,
///     kind: "ternary",
///     size: 8,
///     key: vec![KeyField {
///         field: "ig.is_resubmit".into(),
///         p4: "meta.is_resubmit".into(),
///         bits: 1,
///         match_kind: "ternary",
///     }],
///     default_action: "a0_nop".into(),
///     entries: vec![ManifestEntry {
///         key: vec![KeyValue::Ternary { value: 0, mask: 1 }],
///         priority: Some(1),
///         action: "a1_probe".into(),
///     }],
/// };
/// assert_eq!(t.entries.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestTable {
    /// Logical table name from the program.
    pub name: String,
    /// Emitted P4 symbol.
    pub p4: String,
    /// Pipeline stage the table is allocated to.
    pub stage: usize,
    /// Match kind: `exact`, `ternary` or `range`.
    pub kind: &'static str,
    /// Declared capacity (`size =` in the emitted P4).
    pub size: usize,
    /// Key encoding.
    pub key: Vec<KeyField>,
    /// Default (miss) action symbol.
    pub default_action: String,
    /// Install list in compile order.
    pub entries: Vec<ManifestEntry>,
}

/// Flow-bank placement of one register array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Coalesced into a bank at a fixed byte offset.
    Banked {
        /// Bank index.
        bank: usize,
        /// Byte offset of this cell inside the per-slot record.
        offset: usize,
        /// Physical cell width in bytes (1/2/4/8).
        cell_bytes: usize,
    },
    /// Standalone array (no bank coalescing applies).
    Split,
}

/// One register array: declaration metadata plus bank placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestRegister {
    /// Logical register name from the program.
    pub name: String,
    /// Emitted P4 symbol.
    pub p4: String,
    /// Stage whose SALUs own the array.
    pub stage: usize,
    /// Cell width in bits.
    pub width_bits: u8,
    /// Array depth (flow slots).
    pub slots: usize,
    /// Flow-bank placement.
    pub placement: Placement,
}

/// The full manifest: provenance + tables + registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Program name (matches the emitted P4 banner).
    pub program: String,
    /// Provenance block.
    pub provenance: Provenance,
    /// Tables with their install lists, in table-id order.
    pub tables: Vec<ManifestTable>,
    /// Register inventory, in register-id order.
    pub registers: Vec<ManifestRegister>,
}

impl Manifest {
    /// Total installed entries across all tables.
    pub fn n_entries(&self) -> usize {
        self.tables.iter().map(|t| t.entries.len()).sum()
    }

    /// Deterministic pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.open('{');
        w.str_field("schema", "splidt-p4-manifest/v1");
        w.str_field("program", &self.program);
        w.key("provenance");
        w.open('{');
        w.str_field("emitter", &self.provenance.emitter);
        w.str_field("fixture", &self.provenance.fixture);
        w.num_field("flow_slots", self.provenance.flow_slots as u64);
        w.num_field("idle_timeout_us", self.provenance.idle_timeout_us);
        w.str_field("policy", &self.provenance.policy);
        w.num_field("staged_generation", self.provenance.staged_generation);
        w.num_field("bank_cell_bytes_per_flow", self.provenance.bank_cell_bytes_per_flow as u64);
        w.num_field("bank_stride_bytes", self.provenance.bank_stride_bytes as u64);
        w.num_field("bank_lines_per_flow", self.provenance.bank_lines_per_flow as u64);
        w.close('}');
        w.key("tables");
        w.open('[');
        for t in &self.tables {
            w.open('{');
            w.str_field("name", &t.name);
            w.str_field("p4", &t.p4);
            w.num_field("stage", t.stage as u64);
            w.str_field("kind", t.kind);
            w.num_field("size", t.size as u64);
            w.key("key");
            w.open('[');
            for k in &t.key {
                w.open('{');
                w.str_field("field", &k.field);
                w.str_field("p4", &k.p4);
                w.num_field("bits", u64::from(k.bits));
                w.str_field("match", k.match_kind);
                w.close('}');
            }
            w.close(']');
            w.str_field("default_action", &t.default_action);
            w.key("entries");
            w.open('[');
            for e in &t.entries {
                w.open('{');
                if let Some(p) = e.priority {
                    w.num_field("priority", u64::from(p));
                }
                w.key("key");
                w.open('[');
                for kv in &e.key {
                    w.open('{');
                    match kv {
                        KeyValue::Exact(v) => w.hex_field("value", *v),
                        KeyValue::Ternary { value, mask } => {
                            w.hex_field("value", *value);
                            w.hex_field("mask", *mask);
                        }
                        KeyValue::Range { lo, hi } => {
                            w.hex_field("lo", *lo);
                            w.hex_field("hi", *hi);
                        }
                    }
                    w.close('}');
                }
                w.close(']');
                w.str_field("action", &e.action);
                w.close('}');
            }
            w.close(']');
            w.close('}');
        }
        w.close(']');
        w.key("registers");
        w.open('[');
        for r in &self.registers {
            w.open('{');
            w.str_field("name", &r.name);
            w.str_field("p4", &r.p4);
            w.num_field("stage", r.stage as u64);
            w.num_field("width_bits", u64::from(r.width_bits));
            w.num_field("slots", r.slots as u64);
            w.key("placement");
            w.open('{');
            match r.placement {
                Placement::Banked { bank, offset, cell_bytes } => {
                    w.str_field("kind", "banked");
                    w.num_field("bank", bank as u64);
                    w.num_field("offset_bytes", offset as u64);
                    w.num_field("cell_bytes", cell_bytes as u64);
                }
                Placement::Split => w.str_field("kind", "split"),
            }
            w.close('}');
            w.close('}');
        }
        w.close(']');
        w.close('}');
        w.finish()
    }
}

/// Minimal deterministic JSON pretty-printer (2-space indent).
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has a member (comma needed).
    has_member: Vec<bool>,
    /// A `"key": ` was just written; the next `open` attaches inline.
    pending_key: bool,
}

impl JsonWriter {
    fn new() -> Self {
        Self { out: String::new(), indent: 0, has_member: Vec::new(), pending_key: false }
    }

    fn newline_for_member(&mut self) {
        if let Some(last) = self.has_member.last_mut() {
            if *last {
                self.out.push(',');
            }
            *last = true;
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self, c: char) {
        if self.pending_key {
            self.pending_key = false;
        } else {
            self.newline_for_member();
        }
        self.out.push(c);
        self.indent += 1;
        self.has_member.push(false);
    }

    fn close(&mut self, c: char) {
        let had = self.has_member.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push(c);
    }

    fn key(&mut self, k: &str) {
        self.newline_for_member();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\": ");
        self.pending_key = true;
    }

    fn str_field(&mut self, k: &str, v: &str) {
        self.newline_for_member();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\": \"");
        for ch in v.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    fn num_field(&mut self, k: &str, v: u64) {
        self.newline_for_member();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\": ");
        self.out.push_str(&v.to_string());
    }

    fn hex_field(&mut self, k: &str, v: u64) {
        self.newline_for_member();
        self.out.push('"');
        self.out.push_str(k);
        self.out.push_str("\": \"0x");
        self.out.push_str(&format!("{v:X}"));
        self.out.push('"');
    }

    fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Manifest {
        Manifest {
            program: "t".into(),
            provenance: Provenance {
                emitter: "splidt_p4 test".into(),
                fixture: "tiny".into(),
                flow_slots: 16,
                idle_timeout_us: 1,
                policy: "flow_agnostic".into(),
                staged_generation: 0,
                bank_cell_bytes_per_flow: 2,
                bank_stride_bytes: 64,
                bank_lines_per_flow: 1,
            },
            tables: vec![ManifestTable {
                name: "t0".into(),
                p4: "t0".into(),
                stage: 0,
                kind: "exact",
                size: 4,
                key: vec![KeyField {
                    field: "f0".into(),
                    p4: "meta.f0".into(),
                    bits: 8,
                    match_kind: "exact",
                }],
                default_action: "a0_nop".into(),
                entries: vec![ManifestEntry {
                    key: vec![KeyValue::Exact(3)],
                    priority: None,
                    action: "a1_hit".into(),
                }],
            }],
            registers: vec![ManifestRegister {
                name: "r0".into(),
                p4: "r0".into(),
                stage: 0,
                width_bits: 16,
                slots: 16,
                placement: Placement::Split,
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_balanced() {
        let m = tiny();
        let a = m.to_json();
        let b = m.to_json();
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
        assert!(a.contains("\"staged_generation\": 0"));
        assert!(a.contains("\"bank_stride_bytes\": 64"));
        assert!(a.contains("\"value\": \"0x3\""));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn n_entries_sums_tables() {
        assert_eq!(tiny().n_entries(), 1);
    }
}
