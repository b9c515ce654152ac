//! Hardware resource model: per-stage SRAM/TCAM block budgets and the
//! feasibility check that plays the role of BF-SDE's allocator.
//!
//! Budgets follow the publicly known Tofino1 shape the paper evaluates
//! against: 12 MAU stages per pipe; per stage 80 SRAM blocks of 128 Kb and
//! 24 TCAM blocks of 512 × 44 b (≈ 6.4 Mb TCAM per pipe, matching Table 3's
//! caption). A register array must fit within one stage, exact tables
//! consume SRAM blocks, and ternary tables consume TCAM blocks in
//! (width-unit × depth-unit) tiles — the granularities that create the
//! paper's flows-vs-features trade-off.

use crate::program::Program;
use crate::table::MatchKind;
use serde::{Deserialize, Serialize};

/// A hardware target's resource budgets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TargetSpec {
    /// Target name.
    pub name: String,
    /// Number of match-action stages.
    pub n_stages: usize,
    /// SRAM blocks per stage.
    pub sram_blocks_per_stage: usize,
    /// Bits per SRAM block.
    pub sram_block_bits: u64,
    /// TCAM blocks per stage.
    pub tcam_blocks_per_stage: usize,
    /// Entries per TCAM block.
    pub tcam_block_entries: usize,
    /// Match width (bits) per TCAM block.
    pub tcam_block_width_bits: usize,
    /// Maximum logical tables per stage.
    pub max_tables_per_stage: usize,
    /// Maximum key width (bits) of any single table.
    pub max_key_bits: usize,
    /// Recirculation/resubmission bandwidth in Gb/s.
    pub recirc_gbps: f64,
    /// Line rate in Gb/s (total pipe throughput).
    pub line_rate_gbps: f64,
    /// Independent pipeline instances (pipes); stateful register capacity
    /// scales with pipes because flows shard across them by port.
    pub pipes: u32,
}

impl TargetSpec {
    /// Tofino1-class budgets (the paper's primary target).
    pub fn tofino1() -> Self {
        Self {
            name: "tofino1".into(),
            n_stages: 12,
            sram_blocks_per_stage: 80,
            sram_block_bits: 128 * 1024,
            tcam_blocks_per_stage: 24,
            tcam_block_entries: 512,
            tcam_block_width_bits: 44,
            max_tables_per_stage: 16,
            max_key_bits: 512,
            recirc_gbps: 100.0,
            line_rate_gbps: 3200.0,
            pipes: 2,
        }
    }

    /// Tofino2-class budgets (20 stages, more memory) — used by ablations.
    pub fn tofino2() -> Self {
        Self {
            name: "tofino2".into(),
            n_stages: 20,
            sram_blocks_per_stage: 100,
            sram_block_bits: 128 * 1024,
            tcam_blocks_per_stage: 24,
            tcam_block_entries: 512,
            tcam_block_width_bits: 44,
            max_tables_per_stage: 16,
            max_key_bits: 512,
            recirc_gbps: 200.0,
            line_rate_gbps: 6400.0,
            pipes: 4,
        }
    }

    /// A Pensando-DPU-like SmartNIC: fewer stages and less memory (the
    /// paper's footnote 1 reports ~64 K flows at k = 4 on this class).
    pub fn smartnic_dpu() -> Self {
        Self {
            name: "smartnic-dpu".into(),
            n_stages: 8,
            sram_blocks_per_stage: 48,
            sram_block_bits: 128 * 1024,
            tcam_blocks_per_stage: 12,
            tcam_block_entries: 512,
            tcam_block_width_bits: 44,
            max_tables_per_stage: 16,
            max_key_bits: 512,
            recirc_gbps: 50.0,
            line_rate_gbps: 400.0,
            pipes: 1,
        }
    }

    /// Total TCAM bits across all stages.
    pub fn total_tcam_bits(&self) -> u64 {
        (self.n_stages
            * self.tcam_blocks_per_stage
            * self.tcam_block_entries
            * self.tcam_block_width_bits) as u64
    }

    /// Total SRAM bits across all stages.
    pub fn total_sram_bits(&self) -> u64 {
        self.n_stages as u64 * self.sram_blocks_per_stage as u64 * self.sram_block_bits
    }

    /// SRAM blocks needed by a register array of `total_bits`.
    pub fn sram_blocks_for_register(&self, total_bits: u64) -> usize {
        total_bits.div_ceil(self.sram_block_bits) as usize
    }

    /// SRAM blocks for an exact table of `entries` with `key_bits` keys
    /// (plus a fixed 32-bit action-data overhead per entry).
    pub fn sram_blocks_for_exact(&self, entries: usize, key_bits: usize) -> usize {
        let bits = entries as u64 * (key_bits as u64 + 32);
        bits.div_ceil(self.sram_block_bits) as usize
    }

    /// TCAM blocks for a ternary table: width units × depth units.
    pub fn tcam_blocks_for_ternary(&self, entries: usize, key_bits: usize) -> usize {
        let width_units = key_bits.div_ceil(self.tcam_block_width_bits).max(1);
        let depth_units = entries.div_ceil(self.tcam_block_entries).max(1);
        width_units * depth_units
    }
}

/// Resource usage of one stage.
#[derive(Debug, Clone, Default)]
pub struct StageUsage {
    /// SRAM blocks consumed.
    pub sram_blocks: usize,
    /// TCAM blocks consumed.
    pub tcam_blocks: usize,
    /// Logical tables placed.
    pub tables: usize,
    /// Gateways: one per distinct gate field among the stage's tables
    /// ([`Program::gate`]).
    pub gateways: usize,
}

/// Outcome of fitting a program onto a target.
#[derive(Debug, Clone)]
pub struct ResourceReport {
    /// Per-stage usage (indexed by stage).
    pub per_stage: Vec<StageUsage>,
    /// Total installed TCAM entries.
    pub tcam_entries: usize,
    /// Total TCAM bits consumed (blocks × block size).
    pub tcam_bits: u64,
    /// Total SRAM bits consumed (blocks × block size).
    pub sram_bits: u64,
    /// Human-readable constraint violations (empty = feasible).
    pub violations: Vec<String>,
}

impl ResourceReport {
    /// True when the program fits the target.
    pub fn feasible(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Fits `program` onto `target`, reporting per-stage usage and violations.
pub fn check(program: &Program, target: &TargetSpec) -> ResourceReport {
    let mut per_stage = vec![StageUsage::default(); program.stages().len().max(target.n_stages)];
    let mut violations = Vec::new();

    if program.stages().len() > target.n_stages {
        violations.push(format!(
            "program uses {} stages, target {} has {}",
            program.stages().len(),
            target.name,
            target.n_stages
        ));
    }

    for (s, alloc) in program.stages().iter().enumerate() {
        let usage = &mut per_stage[s];
        for &rid in &alloc.registers {
            let spec = &program.registers()[rid.index()];
            usage.sram_blocks += target.sram_blocks_for_register(spec.total_bits());
        }
        let mut gates: Vec<_> = alloc.tables.iter().filter_map(|&t| program.gate(t)).collect();
        gates.sort_unstable();
        gates.dedup();
        usage.gateways = gates.len();
        for &tid in &alloc.tables {
            let table = program.table(tid);
            let key_bits = table.key_bits(program.layout());
            if key_bits > target.max_key_bits {
                violations.push(format!(
                    "table {} key {} bits exceeds max {}",
                    table.spec().name,
                    key_bits,
                    target.max_key_bits
                ));
            }
            usage.tables += 1;
            match table.spec().kind {
                MatchKind::Exact => {
                    usage.sram_blocks +=
                        target.sram_blocks_for_exact(table.spec().max_entries, key_bits);
                }
                MatchKind::Ternary | MatchKind::Range => {
                    usage.tcam_blocks +=
                        target.tcam_blocks_for_ternary(table.spec().max_entries, key_bits);
                }
            }
        }
        if usage.sram_blocks > target.sram_blocks_per_stage {
            violations.push(format!(
                "stage {s}: {} SRAM blocks exceed budget {}",
                usage.sram_blocks, target.sram_blocks_per_stage
            ));
        }
        if usage.tcam_blocks > target.tcam_blocks_per_stage {
            violations.push(format!(
                "stage {s}: {} TCAM blocks exceed budget {}",
                usage.tcam_blocks, target.tcam_blocks_per_stage
            ));
        }
        if usage.tables > target.max_tables_per_stage {
            violations.push(format!(
                "stage {s}: {} tables exceed budget {}",
                usage.tables, target.max_tables_per_stage
            ));
        }
    }

    let tcam_bits = per_stage.iter().map(|u| u.tcam_blocks as u64).sum::<u64>()
        * (target.tcam_block_entries * target.tcam_block_width_bits) as u64;
    let sram_bits =
        per_stage.iter().map(|u| u.sram_blocks as u64).sum::<u64>() * target.sram_block_bits;

    ResourceReport {
        per_stage,
        tcam_entries: program.tcam_entries(),
        tcam_bits,
        sram_bits,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::register::RegisterSpec;
    use crate::table::TableSpec;

    #[test]
    fn tofino1_budgets() {
        let t = TargetSpec::tofino1();
        // ≈6.48 Mb of TCAM, as cited in the paper's Table 3 caption.
        let mbits = t.total_tcam_bits() as f64 / 1e6;
        assert!((6.0..7.0).contains(&mbits), "tcam {mbits} Mb");
        assert_eq!(t.n_stages, 12);
    }

    #[test]
    fn register_block_math() {
        let t = TargetSpec::tofino1();
        // 65536 × 32 b = 2 Mb = 16 blocks of 128 Kb
        assert_eq!(t.sram_blocks_for_register(65536 * 32), 16);
        assert_eq!(t.sram_blocks_for_register(1), 1);
    }

    #[test]
    fn ternary_block_math() {
        let t = TargetSpec::tofino1();
        // 100 entries of 40 bits: 1 width unit × 1 depth unit.
        assert_eq!(t.tcam_blocks_for_ternary(100, 40), 1);
        // 600 entries of 90 bits: 3 width units × 2 depth units.
        assert_eq!(t.tcam_blocks_for_ternary(600, 90), 6);
    }

    #[test]
    fn small_program_fits() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 16);
        b.add_register(RegisterSpec::new("r", 32, 1024), 0);
        b.add_table(TableSpec::ternary("t", vec![f], 256), 0);
        let p = b.build().unwrap();
        let report = check(&p, &TargetSpec::tofino1());
        assert!(report.feasible(), "{:?}", report.violations);
        assert_eq!(report.per_stage[0].sram_blocks, 1);
        assert_eq!(report.per_stage[0].tcam_blocks, 1);
    }

    #[test]
    fn gateways_count_distinct_gate_fields_per_stage() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 16);
        let (g, h) = (b.add_meta("g", 1), b.add_meta("h", 1));
        for (name, stage, gate) in [
            ("a", 0, Some(g)),
            ("b", 0, Some(g)),
            ("c", 0, Some(h)),
            ("d", 0, None),
            ("e", 1, None),
        ] {
            let t = b.add_table(TableSpec::exact(name, vec![f], 4), stage);
            if let Some(gate) = gate {
                b.gate_table(t, gate);
            }
        }
        let report = check(&b.build().unwrap(), &TargetSpec::tofino1());
        assert_eq!((report.per_stage[0].gateways, report.per_stage[1].gateways), (2, 0));
    }

    #[test]
    fn oversized_register_violates() {
        let mut b = ProgramBuilder::new();
        let _f = b.add_meta("f", 16);
        // 2^25 × 64 b = 2 Gb in one stage: far beyond 80 × 128 Kb.
        b.add_register(RegisterSpec::new("huge", 64, 1 << 25), 0);
        let p = b.build().unwrap();
        let report = check(&p, &TargetSpec::tofino1());
        assert!(!report.feasible());
        assert!(report.violations[0].contains("SRAM"));
    }

    #[test]
    fn too_many_stages_violates() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        b.add_table(TableSpec::exact("t", vec![f], 4), 15); // stage 15 > 11
        let p = b.build().unwrap();
        let report = check(&p, &TargetSpec::tofino1());
        assert!(!report.feasible());
        assert!(report.violations.iter().any(|v| v.contains("stages")));
    }

    #[test]
    fn wide_key_violates() {
        let mut b = ProgramBuilder::new();
        let keys: Vec<_> = (0..10).map(|i| b.add_meta(format!("k{i}"), 64)).collect();
        b.add_table(TableSpec::ternary("wide", keys, 4), 0);
        let p = b.build().unwrap();
        let report = check(&p, &TargetSpec::tofino1());
        assert!(!report.feasible());
        assert!(report.violations.iter().any(|v| v.contains("key")));
    }

    #[test]
    fn targets_are_ordered_by_capacity() {
        let t1 = TargetSpec::tofino1();
        let t2 = TargetSpec::tofino2();
        let nic = TargetSpec::smartnic_dpu();
        assert!(t2.total_sram_bits() > t1.total_sram_bits());
        assert!(nic.total_sram_bits() < t1.total_sram_bits());
    }
}
