//! Program assembly: PHV layout + tables + registers placed into stages.
//!
//! A [`ProgramBuilder`] plays the role of the P4 compiler front-end: it
//! registers metadata fields, declares tables and register arrays, assigns
//! them to pipeline stages, installs rules, and validates the structural
//! constraints the hardware imposes — most importantly that a table may only
//! touch register arrays living in **its own stage** (Tofino stateful-ALU
//! locality), which is exactly the constraint that forces SpliDT to reuse
//! registers across partitions instead of allocating more.

use crate::action::{Action, Primitive};
use crate::parser::StandardFields;
use crate::phv::{FieldId, PhvLayout};
use crate::register::{RegId, RegisterSpec};
use crate::table::{EntryKey, MatchKind, Table, TableError, TableId, TableSpec};
use crate::tcam::Ternary;

/// Errors detected while assembling or validating a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A table references a register outside its stage.
    CrossStageRegister {
        /// Offending table name.
        table: String,
        /// Register name.
        register: String,
        /// Stage of the table.
        table_stage: usize,
        /// Stage of the register.
        register_stage: usize,
    },
    /// Entry installation failed.
    Table(TableError),
    /// A stage index is beyond the builder's declared stage count.
    StageOutOfRange {
        /// What was being placed.
        what: String,
        /// The requested stage.
        stage: usize,
    },
    /// A table's gate field is not exactly 1 bit wide. The executors
    /// apply a gated table when the field reads 1 and a P4 gateway
    /// compares it with `1w1`; any wider field would make the two
    /// disagree.
    GateWidth {
        /// The gated table.
        table: String,
        /// The gate field.
        field: String,
        /// Its declared width.
        bits: u8,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::CrossStageRegister { table, register, table_stage, register_stage } => {
                write!(
                    f,
                    "table {table} (stage {table_stage}) accesses register {register} \
                     (stage {register_stage}); registers are stage-local"
                )
            }
            ProgramError::Table(e) => write!(f, "{e}"),
            ProgramError::StageOutOfRange { what, stage } => {
                write!(f, "{what} placed in out-of-range stage {stage}")
            }
            ProgramError::GateWidth { table, field, bits } => {
                write!(f, "table {table} is gated on {field}, a {bits}-bit field; gates are 1 bit")
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<TableError> for ProgramError {
    fn from(e: TableError) -> Self {
        ProgramError::Table(e)
    }
}

/// Per-stage allocation.
#[derive(Debug, Clone, Default)]
pub struct StageAlloc {
    /// Tables applied in this stage, in order.
    pub tables: Vec<TableId>,
    /// Register arrays resident in this stage.
    pub registers: Vec<RegId>,
}

/// A complete, validated pipeline program.
#[derive(Debug, Clone)]
pub struct Program {
    layout: PhvLayout,
    tables: Vec<Table>,
    registers: Vec<RegisterSpec>,
    stages: Vec<StageAlloc>,
    /// Per table: the 1-bit field that must read 1 for it to apply.
    gates: Vec<Option<FieldId>>,
    digest_fields: Vec<FieldId>,
    resubmit_limit: usize,
}

impl Program {
    /// PHV layout.
    pub fn layout(&self) -> &PhvLayout {
        &self.layout
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// A table by id.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Register declarations.
    pub fn registers(&self) -> &[RegisterSpec] {
        &self.registers
    }

    /// Stage allocations.
    pub fn stages(&self) -> &[StageAlloc] {
        &self.stages
    }

    /// The gate of table `id`: when set, the table applies only on a
    /// pass where that 1-bit field reads 1 at its slot. A gated-off
    /// visit runs no action and counts neither a hit nor a miss.
    pub fn gate(&self, id: TableId) -> Option<FieldId> {
        self.gates[id.index()]
    }

    /// The same program with every gate removed, so each table applies
    /// on every pass. This is the reference for the property that gating
    /// a compiled program changes nothing observable; nothing executes it
    /// otherwise.
    pub fn ungated(mut self) -> Program {
        self.gates.fill(None);
        self
    }

    /// Fields exported in digests.
    pub fn digest_fields(&self) -> &[FieldId] {
        &self.digest_fields
    }

    /// Maximum resubmissions per packet.
    pub fn resubmit_limit(&self) -> usize {
        self.resubmit_limit
    }

    /// Total installed entries across ternary tables (paper's "#TCAM
    /// entries" metric).
    pub fn tcam_entries(&self) -> usize {
        self.tables
            .iter()
            .filter(|t| t.spec().kind == MatchKind::Ternary)
            .map(|t| t.n_entries())
            .sum()
    }

    /// The stage a register array is resident in — the stage whose SALUs
    /// are the only ones that may touch it (RMT stage-locality).
    pub fn stage_of_register(&self, id: RegId) -> Option<usize> {
        self.stages.iter().position(|s| s.registers.contains(&id))
    }

    pub(crate) fn tables_mut(&mut self) -> &mut Vec<Table> {
        &mut self.tables
    }

    /// Installs an entry into `table`, checked against this program's
    /// layout ([`Table::install_in`]).
    pub(crate) fn install(
        &mut self,
        table: TableId,
        key: EntryKey,
        action: Action,
    ) -> Result<(), TableError> {
        self.tables[table.index()].install_in(&self.layout, key, action)
    }
}

/// Builder/assembler for [`Program`]s.
#[derive(Debug)]
pub struct ProgramBuilder {
    layout: PhvLayout,
    std_fields: Option<StandardFields>,
    tables: Vec<Table>,
    table_stage: Vec<usize>,
    gates: Vec<Option<FieldId>>,
    registers: Vec<RegisterSpec>,
    register_stage: Vec<usize>,
    digest_fields: Vec<FieldId>,
    resubmit_limit: usize,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self {
            layout: PhvLayout::new(),
            std_fields: None,
            tables: Vec::new(),
            table_stage: Vec::new(),
            gates: Vec::new(),
            registers: Vec::new(),
            register_stage: Vec::new(),
            digest_fields: Vec::new(),
            resubmit_limit: 8,
        }
    }

    /// Registers the standard parsed-header fields (idempotent).
    pub fn standard_fields(&mut self) -> StandardFields {
        if self.std_fields.is_none() {
            self.std_fields = Some(StandardFields::register(&mut self.layout));
        }
        self.std_fields.unwrap()
    }

    /// Adds a metadata field.
    pub fn add_meta(&mut self, name: impl Into<String>, bits: u8) -> FieldId {
        self.layout.add_field(name, bits)
    }

    /// Declares a register array resident in `stage`.
    pub fn add_register(&mut self, spec: RegisterSpec, stage: usize) -> RegId {
        let id = RegId(self.registers.len() as u16);
        self.registers.push(spec);
        self.register_stage.push(stage);
        id
    }

    /// Declares a table applied in `stage`. Tables in a stage execute in
    /// declaration order (the hardware runs them in parallel; SpliDT's
    /// compiler never creates same-stage dependencies).
    pub fn add_table(&mut self, spec: TableSpec, stage: usize) -> TableId {
        let id = TableId(self.tables.len() as u16);
        self.tables.push(Table::new(spec));
        self.table_stage.push(stage);
        self.gates.push(None);
        id
    }

    /// Gates `table` on the 1-bit field `field`: the table applies only
    /// when `field` reads 1 as its slot runs (a P4 gateway). `build`
    /// rejects a field of any other width.
    pub fn gate_table(&mut self, table: TableId, field: FieldId) {
        self.gates[table.index()] = Some(field);
    }

    /// Installs an exact entry. Refuses a value wider than its key field
    /// ([`TableError::ValueTooWide`]) besides what [`Table::install`]
    /// refuses.
    pub fn add_exact_entry(
        &mut self,
        table: TableId,
        values: Vec<u64>,
        action: Action,
    ) -> Result<(), ProgramError> {
        self.tables[table.index()].install_in(&self.layout, EntryKey::Exact(values), action)?;
        Ok(())
    }

    /// Installs a ternary entry.
    pub fn add_ternary_entry(
        &mut self,
        table: TableId,
        fields: Vec<Ternary>,
        priority: u32,
        action: Action,
    ) -> Result<(), ProgramError> {
        self.tables[table.index()].install(EntryKey::Ternary { fields, priority }, action)?;
        Ok(())
    }

    /// Installs a range entry.
    pub fn add_range_entry(
        &mut self,
        table: TableId,
        fields: Vec<(u64, u64)>,
        priority: u32,
        action: Action,
    ) -> Result<(), ProgramError> {
        self.tables[table.index()].install(EntryKey::Range { fields, priority }, action)?;
        Ok(())
    }

    /// Sets a table's default (miss) action.
    pub fn set_default(&mut self, table: TableId, action: Action) {
        self.tables[table.index()].set_default(action);
    }

    /// Declares the field set exported by `Digest` primitives.
    pub fn set_digest_fields(&mut self, fields: Vec<FieldId>) {
        self.digest_fields = fields;
    }

    /// Sets the resubmit loop bound.
    pub fn set_resubmit_limit(&mut self, n: usize) {
        self.resubmit_limit = n;
    }

    /// Number of stages implied by current placements.
    pub fn n_stages(&self) -> usize {
        self.table_stage
            .iter()
            .chain(self.register_stage.iter())
            .copied()
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Validates and produces the program.
    pub fn build(self) -> Result<Program, ProgramError> {
        let n_stages = self.n_stages();
        let mut stages = vec![StageAlloc::default(); n_stages];
        for (i, &s) in self.table_stage.iter().enumerate() {
            stages[s].tables.push(TableId(i as u16));
        }
        for (i, &s) in self.register_stage.iter().enumerate() {
            stages[s].registers.push(RegId(i as u16));
        }
        for (table, gate) in self.tables.iter().zip(&self.gates) {
            let Some(field) = *gate else { continue };
            let spec = self.layout.spec(field);
            if spec.bits() != 1 {
                return Err(ProgramError::GateWidth {
                    table: table.spec().name.clone(),
                    field: spec.name().to_string(),
                    bits: spec.bits(),
                });
            }
        }
        // Stateful-ALU locality: every RegRmw in a table's actions (installed
        // entries and default) must target a register in the table's stage.
        for (ti, table) in self.tables.iter().enumerate() {
            let t_stage = self.table_stage[ti];
            let check = |action: &Action| -> Result<(), ProgramError> {
                for p in &action.prims {
                    if let Primitive::RegRmw { reg, .. } | Primitive::OwnerUpdate { reg, .. } = p {
                        let r_stage = self.register_stage[reg.index()];
                        if r_stage != t_stage {
                            return Err(ProgramError::CrossStageRegister {
                                table: table.spec().name.clone(),
                                register: self.registers[reg.index()].name.clone(),
                                table_stage: t_stage,
                                register_stage: r_stage,
                            });
                        }
                    }
                }
                Ok(())
            };
            for e in table.entries() {
                check(&e.action)?;
            }
            check(table.default_action())?;
        }
        Ok(Program {
            layout: self.layout,
            tables: self.tables,
            registers: self.registers,
            stages,
            gates: self.gates,
            digest_fields: self.digest_fields,
            resubmit_limit: self.resubmit_limit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{AluOp, Source};

    /// An exact value with bits above its key field's width could never
    /// match; the builder refuses it before it takes capacity.
    #[test]
    fn exact_value_wider_than_its_field_is_rejected() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let g = b.add_meta("g", 1);
        let t = b.add_table(TableSpec::exact("t", vec![f, g], 4), 0);
        b.add_exact_entry(t, vec![255, 1], Action::nop()).unwrap();
        let err = b.add_exact_entry(t, vec![256, 0], Action::nop()).unwrap_err();
        assert_eq!(
            err,
            ProgramError::Table(TableError::ValueTooWide {
                table: "t".into(),
                field: "f".into(),
                value: 256,
                bits: 8,
            })
        );
        assert!(b.add_exact_entry(t, vec![0, 2], Action::nop()).is_err(), "1-bit field");
        let p = b.build().unwrap();
        assert_eq!(p.table(t).n_entries(), 1, "only the in-width entry is installed");
    }

    #[test]
    fn builds_simple_program() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let t = b.add_table(TableSpec::exact("t", vec![f], 4), 0);
        b.add_exact_entry(t, vec![1], Action::nop()).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.stages().len(), 1);
        assert_eq!(p.tables().len(), 1);
        assert_eq!(p.table(t).n_entries(), 1);
    }

    #[test]
    fn cross_stage_register_rejected() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let r = b.add_register(
            RegisterSpec::new("r", 32, 16),
            1, // register in stage 1
        );
        let t = b.add_table(TableSpec::exact("t", vec![f], 4), 0); // table in stage 0
        b.add_exact_entry(
            t,
            vec![1],
            Action::new("bump").with(Primitive::RegRmw {
                reg: r,
                index: Source::Const(0),
                op: AluOp::Add,
                operand: Source::Const(1),
                out: None,
            }),
        )
        .unwrap();
        let err = b.build().unwrap_err();
        assert!(matches!(err, ProgramError::CrossStageRegister { .. }));
    }

    #[test]
    fn wide_gate_rejected() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let wide = b.add_meta("wide", 16);
        let bit = b.add_meta("bit", 1);
        let t = b.add_table(TableSpec::exact("t", vec![f], 4), 0);
        let u = b.add_table(TableSpec::exact("u", vec![f], 4), 0);
        b.gate_table(t, bit);
        b.gate_table(u, wide);
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            ProgramError::GateWidth { table: "u".into(), field: "wide".into(), bits: 16 }
        );

        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let bit = b.add_meta("bit", 1);
        let t = b.add_table(TableSpec::exact("t", vec![f], 4), 0);
        let u = b.add_table(TableSpec::exact("u", vec![f], 4), 0);
        b.gate_table(t, bit);
        let p = b.build().unwrap();
        assert_eq!((p.gate(t), p.gate(u)), (Some(bit), None));
        assert_eq!(p.ungated().gate(t), None);
    }

    #[test]
    fn same_stage_register_accepted() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let r = b.add_register(RegisterSpec::new("r", 32, 16), 2);
        let t = b.add_table(TableSpec::exact("t", vec![f], 4), 2);
        b.add_exact_entry(
            t,
            vec![1],
            Action::new("bump").with(Primitive::RegRmw {
                reg: r,
                index: Source::Const(0),
                op: AluOp::Add,
                operand: Source::Const(1),
                out: None,
            }),
        )
        .unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.stages().len(), 3);
        assert_eq!(p.stages()[2].tables.len(), 1);
        assert_eq!(p.stages()[2].registers.len(), 1);
    }

    #[test]
    fn standard_fields_idempotent() {
        let mut b = ProgramBuilder::new();
        let f1 = b.standard_fields();
        let f2 = b.standard_fields();
        assert_eq!(f1.ipv4_src, f2.ipv4_src);
    }

    #[test]
    fn tcam_entry_count() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let t1 = b.add_table(TableSpec::ternary("t1", vec![f], 8), 0);
        let t2 = b.add_table(TableSpec::exact("t2", vec![f], 8), 0);
        b.add_ternary_entry(t1, vec![Ternary::ANY], 0, Action::nop()).unwrap();
        b.add_ternary_entry(t1, vec![Ternary::exact(1, 8)], 1, Action::nop()).unwrap();
        b.add_exact_entry(t2, vec![1], Action::nop()).unwrap();
        let p = b.build().unwrap();
        assert_eq!(p.tcam_entries(), 2);
    }
}
