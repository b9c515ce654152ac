//! Analytic resource estimation and feasibility testing (paper §3.2.1,
//! "Resource Estimation and Feasibility Testing").
//!
//! The paper estimates TCAM blocks, register space and pipeline stages
//! with a target-specific analytical model (theirs wraps BF-SDE/P4Insight;
//! ours wraps [`splidt_dataplane::resources::TargetSpec`]) and feeds the
//! verdict back into the design search. Capacity intuition: per-flow
//! stateful state is `k` feature slots + reserved registers (SID, packet
//! and window counters) + shared dependency-chain registers; the SRAM the
//! target can dedicate to register arrays divides by that per-flow footprint
//! to give the supported flow count.

use crate::model::PartitionedTree;
use splidt_dataplane::resources::TargetSpec;
use splidt_flow::features::{catalog, DepRegister};
use std::collections::BTreeSet;

/// Summary statistics of a model relevant to resource fitting — extracted
/// from a [`PartitionedTree`] or constructed directly for baselines.
#[derive(Debug, Clone)]
pub struct ModelFootprint {
    /// Feature slots per flow (SpliDT: `k`; top-k baselines: `k` global).
    pub slots: usize,
    /// Bits per slot (32-bit cells at default precision; 16/8 when
    /// quantized — Figure 12).
    pub slot_bits: usize,
    /// Distinct dependency-chain registers (32-bit each, per flow).
    pub dep_registers: usize,
    /// Reserved per-flow bits (SID + packet counter + window counter for
    /// SpliDT; phase state for NetBeacon; counters for Leo).
    pub reserved_bits: usize,
    /// Per-flow bits of the flow-state lifecycle's ownership lane
    /// (fingerprint ‖ last-seen ‖ decided) — what buys dynamic admission,
    /// idle eviction and slot recycling under churn. 0 for baselines that
    /// assume a statically pre-admitted flow set.
    pub lifecycle_bits: usize,
    /// Total installed TCAM entries (feature tables + model tables).
    pub tcam_entries: usize,
    /// Widest ternary key in bits (model table).
    pub max_key_bits: usize,
    /// Logical pipeline stages of control/compute/match logic.
    pub stages: usize,
}

/// Bits of the ownership-lane register per flow slot (64-bit cell).
pub const OWNER_LANE_BITS: usize = 64;

/// Bits of the per-slot pressure counter register (32-bit cell): the
/// suppressed-packet telemetry operators size `flow_slots` from.
pub const SLOT_PRESSURE_BITS: usize = 32;

/// Per-flow bits of the full lifecycle substrate: ownership lane +
/// pressure counter.
pub const LIFECYCLE_BITS: usize = OWNER_LANE_BITS + SLOT_PRESSURE_BITS;

impl ModelFootprint {
    /// Per-flow stateful bits (the capacity divisor).
    pub fn per_flow_bits(&self) -> u64 {
        (self.slots * self.slot_bits
            + self.dep_registers * 32
            + self.reserved_bits
            + self.lifecycle_bits) as u64
    }

    /// The paper's Table 3 "Register Size (bits)" metric: feature-slot
    /// bits per flow.
    pub fn feature_register_bits(&self) -> usize {
        self.slots * self.slot_bits
    }
}

/// Derives the footprint of a SpliDT partitioned tree.
pub fn splidt_footprint(model: &PartitionedTree) -> ModelFootprint {
    let cat = catalog();
    // Dependency registers: union over all subtrees' slot programs.
    let mut deps: BTreeSet<DepRegister> = BTreeSet::new();
    for st in &model.subtrees {
        for f in st.features() {
            if let Some(p) = cat.slot_program(f) {
                deps.extend(p.deps());
            }
        }
    }
    let rules = crate::compile::model_rules(model);
    let slot_bits = slot_bits_for(model.config.feature_bits);
    ModelFootprint {
        slots: model.config.k,
        slot_bits,
        dep_registers: deps.len(),
        // SID (8) + packet counter (24) + window counter (16).
        reserved_bits: 48,
        lifecycle_bits: LIFECYCLE_BITS,
        tcam_entries: rules.tcam_entries,
        max_key_bits: rules.model_key_bits,
        // hash/dir + ownership lane + lifecycle + state + deps + compute
        // + slot stages + load + keygen + model ≈ 9 + ceil(k / 8).
        stages: 9 + model.config.k.div_ceil(8),
    }
}

/// Rounds feature precision to the register cell width it occupies.
pub fn slot_bits_for(feature_bits: u8) -> usize {
    match feature_bits {
        0..=8 => 8,
        9..=16 => 16,
        _ => 32,
    }
}

/// Physical host-side layout of the flow bank backing a footprint's
/// per-flow registers (see `splidt_dataplane::register::FlowBank`).
///
/// This is deliberately separate from [`ModelFootprint::per_flow_bits`]
/// and [`estimate`]: the Tofino feasibility model keeps attributing each
/// logical register to its pipeline stage (the hardware has per-stage
/// SRAM, not a coalesced arena), while this struct answers the software
/// data-plane question — how many cache lines one flow's state occupies
/// and how large the arena grows at a given slot count. The wave
/// executor issues one prefetch per line, so `lines_per_flow` is also
/// its per-packet prefetch count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankPhysical {
    /// Packed state bytes per flow slot (cells padded to 1/2/4/8-byte
    /// physical widths, packed descending so natural alignment adds no
    /// interior padding).
    pub cell_bytes_per_flow: usize,
    /// Bank stride: `cell_bytes_per_flow` rounded up to a whole number
    /// of cache lines — the per-slot pitch of the arena.
    pub stride_bytes: usize,
    /// Cache lines one flow's state spans (1 for ≤64 B, 2 beyond).
    pub lines_per_flow: usize,
}

impl BankPhysical {
    /// Arena size at `flow_slots` slots.
    pub fn arena_bytes(&self, flow_slots: usize) -> usize {
        self.stride_bytes * flow_slots
    }
}

/// Derives the physical bank layout the compiled pipeline materializes
/// for `fp` — mirroring the compiler's register emission: ownership lane
/// (64 b), pressure counter (32 b), SID (8 b), packet counter (24 b),
/// window counter (16 b), one 32-bit cell per dependency register, and
/// `k` feature-slot cells at the quantized width.
pub fn bank_physical(fp: &ModelFootprint) -> BankPhysical {
    use splidt_dataplane::register::{bank_cell_bytes, BANK_LINE_BYTES};
    let mut bytes = 0usize;
    if fp.lifecycle_bits >= OWNER_LANE_BITS {
        bytes += bank_cell_bytes(64); // r.owner
    }
    if fp.lifecycle_bits >= LIFECYCLE_BITS {
        bytes += bank_cell_bytes(32); // r.pressure
    }
    if fp.reserved_bits > 0 {
        // SID (8) + packet counter (24) + window counter (16); other
        // reserve shapes (baseline phase state) pack as 8-bit cells.
        if fp.reserved_bits == 48 {
            bytes += bank_cell_bytes(8) + bank_cell_bytes(24) + bank_cell_bytes(16);
        } else {
            bytes += fp.reserved_bits.div_ceil(8);
        }
    }
    bytes += fp.dep_registers * bank_cell_bytes(32);
    bytes += fp.slots * bank_cell_bytes(fp.slot_bits as u8);
    let stride_bytes = bytes.next_multiple_of(BANK_LINE_BYTES).max(BANK_LINE_BYTES);
    BankPhysical {
        cell_bytes_per_flow: bytes,
        stride_bytes,
        lines_per_flow: stride_bytes / BANK_LINE_BYTES,
    }
}

/// Resource estimate of a model at a given flow count.
#[derive(Debug, Clone)]
pub struct Estimate {
    /// Stateful SRAM bits for `n_flows` flows.
    pub state_bits: u64,
    /// SRAM bits the target can devote to register arrays.
    pub state_budget_bits: u64,
    /// TCAM blocks needed.
    pub tcam_blocks: usize,
    /// TCAM blocks available.
    pub tcam_budget_blocks: usize,
    /// Pipeline stages needed.
    pub stages: usize,
    /// Violations (empty = feasible).
    pub violations: Vec<String>,
}

impl Estimate {
    /// Whether the model fits.
    pub fn feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Fraction of a pipe's stages whose SRAM can host register arrays (the
/// remainder is reserved for match logic / action memories). Chosen so the
/// classic anchors hold on Tofino1: k = 2 ⇒ ≈1 M flows, k = 6 ⇒ a few
/// hundred K (paper footnote 1 and Table 3's register-size rows).
pub const REGISTER_STAGE_FRACTION: f64 = 0.67;

/// Estimates resource usage of a footprint at `n_flows` on `target`.
pub fn estimate(fp: &ModelFootprint, target: &TargetSpec, n_flows: u64) -> Estimate {
    let mut violations = Vec::new();
    let state_bits = fp.per_flow_bits() * n_flows;
    let state_budget_bits =
        (target.total_sram_bits() as f64 * REGISTER_STAGE_FRACTION * target.pipes as f64) as u64;
    if state_bits > state_budget_bits {
        violations.push(format!(
            "stateful SRAM: {state_bits} bits exceed register budget {state_budget_bits}"
        ));
    }
    let tcam_blocks =
        target.tcam_blocks_for_ternary(fp.tcam_entries.max(1), fp.max_key_bits.max(8));
    let tcam_budget_blocks = target.n_stages * target.tcam_blocks_per_stage;
    if tcam_blocks > tcam_budget_blocks {
        violations.push(format!("TCAM: {tcam_blocks} blocks exceed budget {tcam_budget_blocks}"));
    }
    if fp.stages > target.n_stages {
        violations.push(format!("stages: {} exceed target {}", fp.stages, target.n_stages));
    }
    if fp.max_key_bits > target.max_key_bits {
        violations.push(format!(
            "key width: {} bits exceed max {}",
            fp.max_key_bits, target.max_key_bits
        ));
    }
    Estimate {
        state_bits,
        state_budget_bits,
        tcam_blocks,
        tcam_budget_blocks,
        stages: fp.stages,
        violations,
    }
}

/// Maximum concurrent flows the footprint supports on `target` (0 when
/// even one flow does not fit).
pub fn max_flows(fp: &ModelFootprint, target: &TargetSpec) -> u64 {
    if !estimate(fp, target, 1).feasible() {
        return 0;
    }
    let budget =
        (target.total_sram_bits() as f64 * REGISTER_STAGE_FRACTION * target.pipes as f64) as u64;
    budget / fp.per_flow_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(k: usize, slot_bits: usize) -> ModelFootprint {
        ModelFootprint {
            slots: k,
            slot_bits,
            dep_registers: 1,
            reserved_bits: 48,
            lifecycle_bits: LIFECYCLE_BITS,
            tcam_entries: 2000,
            max_key_bits: 100,
            stages: 10,
        }
    }

    #[test]
    fn per_flow_bits_math() {
        let f = fp(4, 32);
        assert_eq!(f.per_flow_bits(), (4 * 32 + 32 + 48 + 96) as u64);
        assert_eq!(f.feature_register_bits(), 128);
    }

    #[test]
    fn capacity_anchors_on_tofino1() {
        let t = TargetSpec::tofino1();
        // k = 2: high hundreds of K (the paper's 1M-flow rows predate the
        // 64-bit ownership lane each flow now carries for churn support).
        let m2 = max_flows(&fp(2, 32), &t);
        assert!((450_000..1_500_000).contains(&m2), "k=2 capacity {m2}");
        // k = 6: several hundred K (paper reports ~65K–200K for one-shot
        // models which also pin *all* phases simultaneously).
        let m6 = max_flows(&fp(6, 32), &t);
        assert!(m6 < m2, "capacity must fall with k");
        // halving precision raises capacity (Figure 12); the gain is well
        // below 2× because reserved/dependency/lifecycle overhead is
        // unaffected by feature precision.
        let m2_16 = max_flows(&fp(2, 16), &t);
        assert!(m2_16 as f64 > m2 as f64 * 1.1, "16-bit {m2_16} vs 32-bit {m2}");
    }

    #[test]
    fn infeasible_when_too_many_stages() {
        let t = TargetSpec::tofino1();
        let mut f = fp(4, 32);
        f.stages = 20;
        assert_eq!(max_flows(&f, &t), 0);
        assert!(!estimate(&f, &t, 1).feasible());
    }

    #[test]
    fn tcam_violation_detected() {
        let t = TargetSpec::tofino1();
        let mut f = fp(4, 32);
        f.tcam_entries = 10_000_000;
        let e = estimate(&f, &t, 1000);
        assert!(!e.feasible());
        assert!(e.violations.iter().any(|v| v.contains("TCAM")));
    }

    #[test]
    fn bank_physical_one_line_at_default_k() {
        // owner 8 + pressure 4 + sid 1 + pkt 4 + win 2 + dep 4 + 4×4 = 39 B.
        let b = bank_physical(&fp(4, 32));
        assert_eq!(b.cell_bytes_per_flow, 39);
        assert_eq!(b.stride_bytes, 64);
        assert_eq!(b.lines_per_flow, 1);
        assert_eq!(b.arena_bytes(1 << 21), 64 << 21);
    }

    #[test]
    fn bank_physical_spills_to_two_lines_at_high_k() {
        // Same fixed 23 B overhead + 16×4 = 87 B → two lines.
        let b = bank_physical(&fp(16, 32));
        assert_eq!(b.cell_bytes_per_flow, 87);
        assert_eq!(b.stride_bytes, 128);
        assert_eq!(b.lines_per_flow, 2);
        // Quantizing to 8-bit features pulls it back under one line.
        assert_eq!(bank_physical(&fp(16, 8)).lines_per_flow, 1);
    }

    #[test]
    fn bank_physical_is_independent_of_logical_attribution() {
        // The Tofino estimate divides bits across stages; the bank packs
        // bytes. Changing feasibility inputs that don't add registers
        // (key width, TCAM entries, stages) must not move the layout.
        let mut f = fp(4, 32);
        let before = bank_physical(&f);
        f.tcam_entries = 1_000_000;
        f.max_key_bits = 600;
        f.stages = 20;
        assert_eq!(bank_physical(&f), before);
    }

    #[test]
    fn smartnic_supports_fewer_flows() {
        let f = fp(4, 32);
        let big = max_flows(&f, &TargetSpec::tofino1());
        let small = max_flows(&f, &TargetSpec::smartnic_dpu());
        assert!(small < big);
    }
}
