//! The P4-16 emitter: [`Program`] + [`ExecPlan`] → Tofino-style source.
//!
//! One [`emit`] call produces an [`Emission`]: the `.p4` text and the
//! control-plane install [`Manifest`]. The
//! lowering is deliberately mechanical — every construct in the emitted
//! program traces back to exactly one IR construct:
//!
//! | IR construct                    | emitted P4                                   |
//! |---------------------------------|----------------------------------------------|
//! | `PhvLayout` standard fields     | headers + parser (`peek_flow_tuple` walk)    |
//! | `PhvLayout` metadata fields     | `metadata_t` struct members                  |
//! | `Table` / `MatchKind`           | `table` declaration (`exact`/`ternary`/`range`) |
//! | `ExecPlan` interned actions     | `action` declarations (shared across tables) |
//! | `RegisterSpec` + stage          | `@stage`-annotated `Register` extern         |
//! | `Primitive::RegRmw`             | `RegisterAction` (one SALU program)          |
//! | `Primitive::OwnerUpdate`        | `RegisterAction` over the 64-bit lane        |
//! | `Primitive::HashFlow`           | `Hash` extern + canonicalized tuple          |
//! | `Primitive::Resubmit`/`Digest`/`Drop` | deparser intrinsic writes              |
//! | `BankLayout` placements         | per-register bank annotation comments        |
//!
//! The output is deterministic: same program + options → byte-identical
//! text, which is what the golden-file suite pins down.

use std::collections::HashMap;
use std::fmt::Write as _;

use splidt_dataplane::action::{Action, AluOut, OwnerMode, Primitive, Source};
use splidt_dataplane::phv::FieldId;
use splidt_dataplane::plan::{ActionId, ExecPlan, PlanSlot};
use splidt_dataplane::program::Program;
use splidt_dataplane::register::{RegAluOp, RegPlacement};
use splidt_dataplane::table::{EntryKey, MatchKind};

use crate::manifest::{
    KeyField, KeyValue, Manifest, ManifestEntry, ManifestRegister, ManifestTable, Placement,
    Provenance,
};

/// A finished emission: the P4 source plus the install manifest.
#[derive(Debug, Clone)]
pub struct Emission {
    /// The generated P4-16 program.
    pub p4: String,
    /// The control-plane table-install manifest.
    pub manifest: Manifest,
}

/// Options for one emission.
#[derive(Debug, Clone)]
pub struct EmitOptions {
    /// Program name used in the banner and manifest.
    pub program_name: String,
    /// Manifest provenance block.
    pub provenance: Provenance,
}

impl EmitOptions {
    /// Options for an ad-hoc program with no model provenance (unit
    /// tests, property tests).
    pub fn adhoc(program_name: &str) -> Self {
        Self {
            program_name: program_name.to_string(),
            provenance: Provenance {
                emitter: emitter_version(),
                fixture: "adhoc".into(),
                flow_slots: 0,
                idle_timeout_us: 0,
                policy: "none".into(),
                staged_generation: 0,
                bank_cell_bytes_per_flow: 0,
                bank_stride_bytes: 0,
                bank_lines_per_flow: 0,
            },
        }
    }
}

/// `"splidt_p4 <version>"` — stamped into banners and provenance.
pub fn emitter_version() -> String {
    format!("splidt_p4 {}", env!("CARGO_PKG_VERSION"))
}

/// A typed reason the emitter refused a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The program declares no tables — nothing to emit.
    EmptyProgram,
    /// Two distinct IR names sanitize to the same P4 symbol.
    SymbolClash {
        /// The colliding symbol.
        symbol: String,
    },
    /// An `OwnerUpdate` targets a register narrower than the 64-bit
    /// ownership lane it bit-slices.
    OwnerLaneWidth {
        /// The register's name.
        register: String,
        /// Its declared width.
        width_bits: u8,
    },
    /// A `HashFlow` primitive exists but the layout lacks the standard
    /// 5-tuple fields the hash extern needs.
    HashTupleUnavailable,
    /// A `Digest` primitive exists but the program exports no digest
    /// fields.
    DigestWithoutFields,
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::EmptyProgram => write!(f, "program declares no tables"),
            EmitError::SymbolClash { symbol } => {
                write!(f, "two IR names sanitize to the same P4 symbol `{symbol}`")
            }
            EmitError::OwnerLaneWidth { register, width_bits } => write!(
                f,
                "OwnerUpdate needs a 64-bit lane but register `{register}` is {width_bits}-bit"
            ),
            EmitError::HashTupleUnavailable => {
                write!(f, "HashFlow used without the standard 5-tuple fields")
            }
            EmitError::DigestWithoutFields => {
                write!(f, "Digest primitive used but the program exports no digest fields")
            }
        }
    }
}

impl std::error::Error for EmitError {}

/// Appends a formatted line.
macro_rules! w {
    ($dst:expr) => { let _ = writeln!($dst); };
    ($dst:expr, $($arg:tt)*) => { let _ = writeln!($dst, $($arg)*); };
}

/// Lowers `program` to Tofino-style P4-16 plus an install manifest.
///
/// ```
/// use splidt_dataplane::action::{Action, AluOp, Primitive, Source};
/// use splidt_dataplane::program::ProgramBuilder;
/// use splidt_dataplane::register::RegisterSpec;
/// use splidt_dataplane::table::TableSpec;
/// use splidt_p4::{emit, EmitOptions};
///
/// let mut b = ProgramBuilder::new();
/// let f = b.add_meta("f0", 16);
/// let r = b.add_register(RegisterSpec::new("r0", 16, 16), 0);
/// let t = b.add_table(TableSpec::exact("t0", vec![f], 4), 0);
/// let hit = Action::new("hit").with(Primitive::RegRmw {
///     reg: r,
///     index: Source::Const(0),
///     op: AluOp::Add,
///     operand: Source::Field(f),
///     out: None,
/// });
/// b.add_exact_entry(t, vec![7], hit).unwrap();
/// let program = b.build().unwrap();
///
/// let out = emit(&program, &EmitOptions::adhoc("tiny")).unwrap();
/// assert!(out.p4.contains("table t0"));
/// assert!(out.p4.contains("RegisterAction"));
/// assert_eq!(out.manifest.tables.len(), 1);
/// ```
pub fn emit(program: &Program, opts: &EmitOptions) -> Result<Emission, EmitError> {
    if program.tables().is_empty() {
        return Err(EmitError::EmptyProgram);
    }
    let plan = ExecPlan::build(program);
    Emitter::new(program, &plan, opts)?.run()
}

/// Standard-field P4 lvalues for the fixed wire format.
const STD_MAP: [(&str, &str); 12] = [
    ("ipv4.src", "hdr.ipv4.src_addr"),
    ("ipv4.dst", "hdr.ipv4.dst_addr"),
    ("ipv4.proto", "hdr.ipv4.protocol"),
    ("ipv4.len", "hdr.ipv4.total_len"),
    ("ipv4.ttl", "hdr.ipv4.ttl"),
    ("l4.sport", "meta.l4_sport"),
    ("l4.dport", "meta.l4_dport"),
    ("tcp.flags", "meta.tcp_flags"),
    ("shim.flow_size", "hdr.flow_shim.flow_size"),
    ("ig.ts_us", "meta.ts_us"),
    ("ig.is_resubmit", "meta.is_resubmit"),
    ("ig.frame_len", "meta.frame_len"),
];

/// Standard field names that live in headers, not `metadata_t`.
const HEADER_BACKED: [&str; 6] =
    ["ipv4.src", "ipv4.dst", "ipv4.proto", "ipv4.len", "ipv4.ttl", "shim.flow_size"];

struct FieldInfo {
    /// Emitted lvalue (`meta.m_sid`, `hdr.ipv4.protocol`).
    lv: String,
    /// Width in bits.
    bits: u8,
    /// Logical name.
    name: String,
}

struct SaluDecl {
    sym: String,
    text: String,
}

struct Emitter<'a> {
    program: &'a Program,
    plan: &'a ExecPlan,
    opts: &'a EmitOptions,
    /// Per-field emitted lvalue / width.
    fields: Vec<FieldInfo>,
    /// `metadata_t` members: (member name, bits), in field-id order.
    meta_members: Vec<(String, u8)>,
    /// Whether the standard wire-format fields are present (emit the
    /// full Ethernet → shim → IPv4 → TCP/UDP parser).
    standard: bool,
    /// Per-register emitted symbol.
    reg_syms: Vec<String>,
    /// Per-register stage.
    reg_stage: Vec<usize>,
    /// Per-table stage.
    table_stage: Vec<usize>,
    /// Per-table emitted symbol.
    table_syms: Vec<String>,
    /// Per-action (plan arena) emitted symbol.
    action_syms: Vec<String>,
    /// Interned RegisterActions, declaration order.
    salus: Vec<SaluDecl>,
    /// Primitive → index into `salus`.
    salu_ix: HashMap<Primitive, usize>,
    /// Interned hash engines: (salt, symbol).
    hashes: Vec<(u64, String)>,
    /// Whether a non-power-of-two `DivConst` needs the extern helper.
    needs_div_const: bool,
    /// Per-table plan slot.
    slot_by_table: Vec<usize>,
}

fn sanitize(name: &str) -> String {
    let mut s = String::with_capacity(name.len());
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            s.push(c);
        } else {
            s.push('_');
        }
    }
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

fn mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// A sized P4 literal, masked to `bits`.
fn lit(bits: u8, v: u64) -> String {
    let v = v & mask(bits);
    if v > 9 {
        format!("{bits}w0x{v:X}")
    } else {
        format!("{bits}w{v}")
    }
}

impl<'a> Emitter<'a> {
    fn new(
        program: &'a Program,
        plan: &'a ExecPlan,
        opts: &'a EmitOptions,
    ) -> Result<Self, EmitError> {
        let layout = program.layout();
        let std_lv: HashMap<&str, &str> = STD_MAP.iter().copied().collect();
        let standard = STD_MAP.iter().all(|(n, _)| layout.by_name(n).is_some());

        let mut fields = Vec::with_capacity(layout.n_fields());
        let mut meta_members = Vec::new();
        let mut member_set = HashMap::new();
        for fid in layout.field_ids() {
            let spec = layout.spec(fid);
            let name = spec.name().to_string();
            let bits = spec.bits();
            let lv = if standard && std_lv.contains_key(name.as_str()) {
                std_lv[name.as_str()].to_string()
            } else {
                format!("meta.{}", sanitize(&name))
            };
            let header_backed = standard && HEADER_BACKED.contains(&name.as_str());
            if !header_backed {
                let member =
                    lv.strip_prefix("meta.").expect("non-header field is meta").to_string();
                if let Some(prev) = member_set.insert(member.clone(), name.clone()) {
                    if prev != name {
                        return Err(EmitError::SymbolClash { symbol: member });
                    }
                }
                meta_members.push((member, bits));
            }
            fields.push(FieldInfo { lv, bits, name });
        }

        // Stage maps from the program's per-stage allocations.
        let mut reg_stage = vec![0usize; program.registers().len()];
        let mut table_stage = vec![0usize; program.tables().len()];
        for (s, alloc) in program.stages().iter().enumerate() {
            for rid in &alloc.registers {
                reg_stage[rid.index()] = s;
            }
            for tid in &alloc.tables {
                table_stage[tid.index()] = s;
            }
        }

        // Register / table symbols, clash-checked in one namespace.
        let mut symbols: HashMap<String, String> = HashMap::new();
        let mut claim = |kind: &str, name: &str| -> Result<String, EmitError> {
            let sym = sanitize(name);
            let tag = format!("{kind}:{name}");
            if let Some(prev) = symbols.insert(sym.clone(), tag.clone()) {
                if prev != tag {
                    return Err(EmitError::SymbolClash { symbol: sym });
                }
            }
            Ok(sym)
        };
        let reg_syms = program
            .registers()
            .iter()
            .map(|r| claim("register", &r.name))
            .collect::<Result<Vec<_>, _>>()?;
        let table_syms = program
            .tables()
            .iter()
            .map(|t| claim("table", &t.spec().name))
            .collect::<Result<Vec<_>, _>>()?;

        // Action symbols are indexed, so they cannot clash.
        let action_syms = plan
            .actions()
            .iter()
            .enumerate()
            .map(|(i, a)| format!("a{i}_{}", sanitize(&a.name)))
            .collect();

        let mut slot_by_table = vec![usize::MAX; program.tables().len()];
        for (i, slot) in plan.slots().iter().enumerate() {
            slot_by_table[slot.table as usize] = i;
        }

        Ok(Self {
            program,
            plan,
            opts,
            fields,
            meta_members,
            standard,
            reg_syms,
            reg_stage,
            table_stage,
            table_syms,
            action_syms,
            salus: Vec::new(),
            salu_ix: HashMap::new(),
            hashes: Vec::new(),
            needs_div_const: false,
            slot_by_table,
        })
    }

    fn src_expr(&self, s: Source, want: u8) -> String {
        match s {
            Source::Const(c) => lit(want, c),
            Source::Field(f) => {
                let fi = &self.fields[f.index()];
                if fi.bits == want {
                    fi.lv.clone()
                } else {
                    format!("(bit<{want}>){}", fi.lv)
                }
            }
        }
    }

    fn field_lv(&self, f: FieldId) -> &str {
        &self.fields[f.index()].lv
    }

    fn field_bits(&self, f: FieldId) -> u8 {
        self.fields[f.index()].bits
    }

    /// Interns the hash engine for `salt`, returning its symbol.
    fn hash_sym(&mut self, salt: u64) -> String {
        if let Some((_, sym)) = self.hashes.iter().find(|(s, _)| *s == salt) {
            return sym.clone();
        }
        let sym = if salt == 0 {
            "hash_idx".to_string()
        } else {
            format!("hash_fp_{}", self.hashes.iter().filter(|(s, _)| *s != 0).count())
        };
        self.hashes.push((salt, sym.clone()));
        sym
    }

    /// Interns the RegisterAction for a stateful primitive, returning
    /// its symbol. Declaration text is produced once, on first use.
    fn salu_sym(&mut self, p: &Primitive) -> Result<String, EmitError> {
        if let Some(&i) = self.salu_ix.get(p) {
            return Ok(self.salus[i].sym.clone());
        }
        let i = self.salus.len();
        let decl = match p {
            Primitive::RegRmw { reg, op, operand, out, .. } => {
                let ri = reg.index();
                let spec = &self.program.registers()[ri];
                let rsym = &self.reg_syms[ri];
                let wb = spec.width_bits;
                let sym = format!("salu{i}_{rsym}_{}", rmw_tag(*op));
                let operand_e = self.src_expr(*operand, wb);
                let mut b = String::new();
                let stage =
                    self.program.stage_of_register(*reg).expect("register allocated to a stage");
                w!(b, "    /* SALU @ stage {stage} (stage-local to {rsym}) */");
                w!(b, "    RegisterAction<bit<{wb}>, bit<32>, bit<{wb}>>({rsym}) {sym} = {{");
                w!(b, "        void apply(inout bit<{wb}> cell, out bit<{wb}> rv) {{");
                let nv = match op {
                    RegAluOp::Read => "cell".to_string(),
                    RegAluOp::Write => operand_e.clone(),
                    RegAluOp::Add => format!("cell + {operand_e}"),
                    RegAluOp::Sub => format!("cell - {operand_e}"),
                    RegAluOp::Min => format!("(cell < {operand_e}) ? cell : {operand_e}"),
                    RegAluOp::Max => format!("(cell > {operand_e}) ? cell : {operand_e}"),
                };
                w!(b, "            bit<{wb}> nv = {nv};");
                if let Some(cap) = spec.cap {
                    let cap_l = lit(wb, cap);
                    if *op == RegAluOp::Add {
                        w!(b, "            /* saturating ALU mode: clamp at the cap */");
                        w!(b, "            if (nv < cell || nv > {cap_l}) {{ nv = {cap_l}; }}");
                    } else {
                        w!(b, "            if (nv > {cap_l}) {{ nv = {cap_l}; }}");
                    }
                }
                let rv = match out {
                    Some((_, AluOut::Old)) => "cell",
                    _ => "nv",
                };
                w!(b, "            rv = {rv};");
                w!(b, "            cell = nv;");
                w!(b, "        }}");
                w!(b, "    }};");
                SaluDecl { sym, text: b }
            }
            Primitive::OwnerUpdate {
                reg,
                fp,
                now,
                idle_timeout_us,
                pinned_timeout_us,
                mode,
                claim,
                release,
                pin,
                class,
                state_out,
                ..
            } => {
                let ri = reg.index();
                let spec = &self.program.registers()[ri];
                if spec.width_bits != 64 {
                    return Err(EmitError::OwnerLaneWidth {
                        register: spec.name.clone(),
                        width_bits: spec.width_bits,
                    });
                }
                let rsym = &self.reg_syms[ri];
                let sw = self.field_bits(*state_out);
                let tag = match mode {
                    OwnerMode::Probe => "probe",
                    OwnerMode::Decide => "decide",
                };
                let sym = format!("salu{i}_{rsym}_{tag}");
                let fp_e = self.src_expr(*fp, 24);
                let now_e = self.src_expr(*now, 32);
                let st = |s: u64, name: &str| format!("state = {}; /* {name} */", lit(sw, s));
                let mut b = String::new();
                let stage =
                    self.program.stage_of_register(*reg).expect("register allocated to a stage");
                w!(b, "    /* ownership-lane {tag} (claim={claim}, release={release}, pin={pin})");
                w!(
                    b,
                    "       @ stage {stage}. Lane layout: decided[63] | pinned[62] | class[61:56]"
                );
                w!(b, "       | fp[55:32] | last_seen_us[31:0]. On silicon the two SALU halves");
                w!(b, "       compute (fp == lane.fp) and (now - last_seen > timeout) as");
                w!(b, "       condition_lo/hi and the predicated write selects refresh / claim /");
                w!(b, "       leave -- the pForest register-reuse shape. */");
                w!(b, "    RegisterAction<bit<64>, bit<32>, bit<{sw}>>({rsym}) {sym} = {{");
                w!(b, "        void apply(inout bit<64> lane, out bit<{sw}> state) {{");
                w!(b, "            bit<24> fp_ = {fp_e};");
                w!(b, "            bit<32> now_ = {now_e};");
                match mode {
                    OwnerMode::Probe => {
                        w!(b, "            bit<32> age_ = now_ - lane[31:0];");
                        w!(b, "            if (lane[55:32] == fp_) {{");
                        if *release {
                            w!(
                                b,
                                "                if (lane[63:63] == 1w1 && lane[62:62] == 1w0) {{"
                            );
                            w!(b, "                    /* trailing FIN of an early-exit flow: free in-band */");
                            w!(b, "                    lane = 64w0;");
                            w!(b, "                    {}", st(7, "OwnerRelease"));
                            w!(b, "                }} else if (lane[63:63] == 1w1) {{");
                        } else {
                            w!(b, "                if (lane[63:63] == 1w1) {{");
                        }
                        w!(b, "                    /* decided owner: refresh recency, keep flags+class */");
                        w!(b, "                    lane = lane[63:56] ++ fp_ ++ now_;");
                        w!(b, "                    {}", st(5, "OwnerDecided"));
                        w!(b, "                }} else {{");
                        w!(b, "                    lane = lane[63:56] ++ fp_ ++ now_;");
                        w!(b, "                    {}", st(0, "Owner"));
                        w!(b, "                }}");
                        w!(b, "            }} else if (lane[55:32] == 24w0) {{");
                        if *claim {
                            w!(b, "                lane = 8w0 ++ fp_ ++ now_;");
                            w!(b, "                {}", st(1, "ClaimFree"));
                        } else {
                            w!(b, "                /* no claim permission (non-SYN probe) */");
                            w!(b, "                {}", st(6, "Unsolicited"));
                        }
                        w!(b, "            }} else if (lane[63:62] == 2w3) {{");
                        w!(b, "                if (age_ > {}) {{", lit(32, *pinned_timeout_us));
                        if *claim {
                            w!(b, "                    lane = 8w0 ++ fp_ ++ now_;");
                            w!(b, "                    {}", st(8, "TakeoverPinned"));
                        } else {
                            w!(b, "                    {}", st(6, "Unsolicited"));
                        }
                        w!(b, "                }} else {{");
                        w!(b, "                    {}", st(9, "PinnedDefended"));
                        w!(b, "                }}");
                        w!(b, "            }} else if (lane[63:63] == 1w1) {{");
                        if *claim {
                            w!(b, "                lane = 8w0 ++ fp_ ++ now_;");
                            w!(b, "                {}", st(3, "TakeoverDecided"));
                        } else {
                            w!(b, "                {}", st(6, "Unsolicited"));
                        }
                        w!(b, "            }} else if (age_ > {}) {{", lit(32, *idle_timeout_us));
                        if *claim {
                            w!(b, "                lane = 8w0 ++ fp_ ++ now_;");
                            w!(b, "                {}", st(2, "TakeoverIdle"));
                        } else {
                            w!(b, "                {}", st(6, "Unsolicited"));
                        }
                        w!(b, "            }} else {{");
                        w!(b, "                {}", st(4, "LiveCollision"));
                        w!(b, "            }}");
                    }
                    OwnerMode::Decide => {
                        w!(b, "            if (lane[55:32] == fp_) {{");
                        if *release && !*pin {
                            w!(b, "                /* in-band FIN/RST release */");
                            w!(b, "                lane = 64w0;");
                            w!(b, "                {}", st(7, "OwnerRelease"));
                        } else {
                            let pin_b = u64::from(*pin);
                            let class_e = self.src_expr(*class, 6);
                            w!(b, "                lane = 1w1 ++ 1w{pin_b} ++ {class_e} ++ fp_ ++ now_;");
                            w!(b, "                {}", st(5, "OwnerDecided"));
                        }
                        w!(b, "            }} else {{");
                        w!(b, "                /* lane already recycled: leave it alone */");
                        w!(b, "                {}", st(5, "OwnerDecided"));
                        w!(b, "            }}");
                    }
                }
                w!(b, "        }}");
                w!(b, "    }};");
                SaluDecl { sym, text: b }
            }
            _ => unreachable!("salu_sym is only called for stateful primitives"),
        };
        let sym = decl.sym.clone();
        self.salu_ix.insert(p.clone(), i);
        self.salus.push(decl);
        Ok(sym)
    }

    /// Emits one action's body statements (indented for action scope).
    fn action_body(&mut self, action: &Action) -> Result<String, EmitError> {
        let mut b = String::new();
        let mut hash_n = 0usize;
        for p in &action.prims {
            match p {
                Primitive::Set { dst, src } => {
                    let wbits = self.field_bits(*dst);
                    w!(b, "        {} = {};", self.field_lv(*dst), self.src_expr(*src, wbits));
                }
                Primitive::Add { dst, a, b: rhs } => {
                    let wbits = self.field_bits(*dst);
                    w!(
                        b,
                        "        {} = {} + {};",
                        self.field_lv(*dst),
                        self.src_expr(*a, wbits),
                        self.src_expr(*rhs, wbits)
                    );
                }
                Primitive::Sub { dst, a, b: rhs } => {
                    let wbits = self.field_bits(*dst);
                    w!(
                        b,
                        "        {} = {} - {};",
                        self.field_lv(*dst),
                        self.src_expr(*a, wbits),
                        self.src_expr(*rhs, wbits)
                    );
                }
                Primitive::Min { dst, a, b: rhs } => {
                    let wbits = self.field_bits(*dst);
                    let (x, y) = (self.src_expr(*a, wbits), self.src_expr(*rhs, wbits));
                    w!(
                        b,
                        "        {} = ({x} < {y}) ? {x} : {y}; /* compare-select ALU */",
                        self.field_lv(*dst)
                    );
                }
                Primitive::Max { dst, a, b: rhs } => {
                    let wbits = self.field_bits(*dst);
                    let (x, y) = (self.src_expr(*a, wbits), self.src_expr(*rhs, wbits));
                    w!(
                        b,
                        "        {} = ({x} > {y}) ? {x} : {y}; /* compare-select ALU */",
                        self.field_lv(*dst)
                    );
                }
                Primitive::DivConst { dst, a, divisor } => {
                    let wbits = self.field_bits(*dst);
                    let lv = self.field_lv(*dst).to_string();
                    if divisor.is_power_of_two() {
                        let shift = divisor.trailing_zeros();
                        w!(b, "        {lv} = {} >> {shift};", self.src_expr(*a, wbits));
                    } else {
                        self.needs_div_const = true;
                        let a_e = self.src_expr(*a, 32);
                        let cast =
                            if wbits == 32 { String::new() } else { format!("(bit<{wbits}>)") };
                        w!(
                            b,
                            "        {lv} = {cast}div_const({a_e}, {}); /* MathUnit lookup */",
                            lit(32, *divisor)
                        );
                    }
                }
                Primitive::HashFlow { dst, mask: m, salt } => {
                    let hf = self.plan.hash_flow().ok_or(EmitError::HashTupleUnavailable)?;
                    let sym = self.hash_sym(*salt);
                    let wbits = self.field_bits(*dst);
                    let (src, dst_ip) = (
                        self.field_lv(hf.src_ip).to_string(),
                        self.field_lv(hf.dst_ip).to_string(),
                    );
                    let (sp, dp) =
                        (self.field_lv(hf.sport).to_string(), self.field_lv(hf.dport).to_string());
                    let proto = self.field_lv(hf.proto).to_string();
                    let j = hash_n;
                    hash_n += 1;
                    w!(b, "        /* canonical 5-tuple: both directions hash identically */");
                    w!(b, "        bit<32> h{j}_ip_lo = ({src} < {dst_ip}) ? {src} : {dst_ip};");
                    w!(b, "        bit<32> h{j}_ip_hi = ({src} < {dst_ip}) ? {dst_ip} : {src};");
                    w!(b, "        bit<16> h{j}_pt_lo = ({sp} < {dp}) ? {sp} : {dp};");
                    w!(b, "        bit<16> h{j}_pt_hi = ({sp} < {dp}) ? {dp} : {sp};");
                    w!(
                        b,
                        "        {} = (bit<{wbits}>)({sym}.get({{ h{j}_ip_lo, h{j}_ip_hi, h{j}_pt_lo, h{j}_pt_hi, {proto} }}) & {});",
                        self.field_lv(*dst),
                        lit(32, *m)
                    );
                }
                Primitive::RegRmw { index, out, .. } => {
                    let sym = self.salu_sym(p)?;
                    let idx_e = self.src_expr(*index, 32);
                    match out {
                        Some((f, _)) => {
                            let ob = self.field_bits(*f);
                            let reg_w = match p {
                                Primitive::RegRmw { reg, .. } => {
                                    self.program.registers()[reg.index()].width_bits
                                }
                                _ => unreachable!(),
                            };
                            let cast =
                                if ob == reg_w { String::new() } else { format!("(bit<{ob}>)") };
                            w!(b, "        {} = {cast}{sym}.execute({idx_e});", self.field_lv(*f));
                        }
                        None => {
                            w!(b, "        {sym}.execute({idx_e});");
                        }
                    }
                }
                Primitive::OwnerUpdate { index, state_out, .. } => {
                    let sym = self.salu_sym(p)?;
                    let idx_e = self.src_expr(*index, 32);
                    w!(b, "        {} = {sym}.execute({idx_e});", self.field_lv(*state_out));
                }
                Primitive::Resubmit => {
                    w!(b, "        /* decide pass: recirculate via the resubmit path */");
                    w!(b, "        ig_dprsr_md.resubmit_type = RESUB_DECIDE;");
                }
                Primitive::Digest => {
                    if self.program.digest_fields().is_empty() {
                        return Err(EmitError::DigestWithoutFields);
                    }
                    w!(b, "        ig_dprsr_md.digest_type = DIGEST_VERDICT;");
                }
                Primitive::Drop => {
                    w!(b, "        ig_dprsr_md.drop_ctl = 3w1;");
                }
            }
        }
        Ok(b)
    }

    /// The distinct action symbols a table binds (entries + default),
    /// first-use order.
    fn table_actions(&self, slot: &PlanSlot, n_entries: usize) -> Vec<ActionId> {
        let mut ids: Vec<ActionId> = Vec::new();
        for e in 0..n_entries {
            let id = self.plan.entry_action(slot, e);
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        if !ids.contains(&slot.default_action) {
            ids.push(slot.default_action);
        }
        ids
    }

    fn run(mut self) -> Result<Emission, EmitError> {
        // Pre-pass: intern every SALU / hash engine and render every
        // action body in plan-arena order, so declaration order is
        // deterministic and independent of table layout.
        let actions: Vec<Action> = self.plan.actions().to_vec();
        let mut action_bodies = Vec::with_capacity(actions.len());
        for a in &actions {
            action_bodies.push(self.action_body(a)?);
        }

        let mut manifest_tables = Vec::new();
        for (ti, table) in self.program.tables().iter().enumerate() {
            let spec = table.spec();
            let kind = match spec.kind {
                MatchKind::Exact => "exact",
                MatchKind::Ternary => "ternary",
                MatchKind::Range => "range",
            };
            let slot = &self.plan.slots()[self.slot_by_table[ti]];
            let key = spec
                .key
                .iter()
                .map(|f| KeyField {
                    field: self.fields[f.index()].name.clone(),
                    p4: self.field_lv(*f).to_string(),
                    bits: self.field_bits(*f),
                    match_kind: kind,
                })
                .collect();
            let entries = table
                .entries()
                .iter()
                .enumerate()
                .map(|(e, entry)| {
                    let (key, priority) = match &entry.key {
                        EntryKey::Exact(vals) => {
                            (vals.iter().map(|&v| KeyValue::Exact(v)).collect(), None)
                        }
                        EntryKey::Ternary { fields, priority } => (
                            fields
                                .iter()
                                .map(|t| KeyValue::Ternary { value: t.value, mask: t.mask })
                                .collect(),
                            Some(*priority),
                        ),
                        EntryKey::Range { fields, priority } => (
                            fields.iter().map(|&(lo, hi)| KeyValue::Range { lo, hi }).collect(),
                            Some(*priority),
                        ),
                    };
                    ManifestEntry {
                        key,
                        priority,
                        action: self.action_syms[self.plan.entry_action(slot, e).index()].clone(),
                    }
                })
                .collect();
            manifest_tables.push(ManifestTable {
                name: spec.name.clone(),
                p4: self.table_syms[ti].clone(),
                stage: self.table_stage[ti],
                kind,
                size: spec.max_entries,
                key,
                default_action: self.action_syms[slot.default_action.index()].clone(),
                entries,
            });
        }

        let placements = self.plan.bank_layout().placements();
        let manifest_registers = self
            .program
            .registers()
            .iter()
            .enumerate()
            .map(|(ri, spec)| ManifestRegister {
                name: spec.name.clone(),
                p4: self.reg_syms[ri].clone(),
                stage: self.reg_stage[ri],
                width_bits: spec.width_bits,
                slots: spec.len,
                placement: match placements[ri] {
                    RegPlacement::Banked { bank, offset, cell_bytes } => Placement::Banked {
                        bank: bank as usize,
                        offset: offset as usize,
                        cell_bytes: cell_bytes as usize,
                    },
                    RegPlacement::Split => Placement::Split,
                },
            })
            .collect();

        let p4 = self.render(&action_bodies);
        let manifest = Manifest {
            program: self.opts.program_name.clone(),
            provenance: self.opts.provenance.clone(),
            tables: manifest_tables,
            registers: manifest_registers,
        };
        Ok(Emission { p4, manifest })
    }

    /// Renders the final P4 text from the pre-passed pieces.
    fn render(&self, action_bodies: &[String]) -> String {
        let mut o = String::new();
        let name = &self.opts.program_name;
        let prov = &self.opts.provenance;
        w!(o, "/* {name} -- generated by {} from the compiled SpliDT pipeline.", prov.emitter);
        w!(o, " *");
        w!(o, " * GENERATED FILE -- DO NOT EDIT. Regenerate with:");
        w!(o, " *   SPLIDT_P4_BLESS=1 cargo test -p splidt-p4 --test golden");
        w!(o, " *");
        w!(
            o,
            " * fixture: {} | policy: {} | flow_slots: {} | staged_generation: {}",
            prov.fixture,
            prov.policy,
            prov.flow_slots,
            prov.staged_generation
        );
        w!(
            o,
            " * flow bank: {}B/flow packed, {}B stride, {} line(s)/flow",
            prov.bank_cell_bytes_per_flow,
            prov.bank_stride_bytes,
            prov.bank_lines_per_flow
        );
        w!(o, " */");
        w!(o);
        w!(o, "#include <core.p4>");
        w!(o, "#include <tna.p4>");
        w!(o);
        w!(o, "const bit<16> ETHERTYPE_IPV4      = 16w0x0800;");
        w!(o, "const bit<16> ETHERTYPE_FLOW_SHIM = 16w0x88B5;");
        w!(o, "const bit<8>  IPPROTO_TCP         = 8w6;");
        w!(o, "const bit<8>  IPPROTO_UDP         = 8w17;");
        w!(o, "/* deparser dispatch codes */");
        w!(o, "const bit<3>  DIGEST_VERDICT      = 3w1;");
        w!(o, "const bit<3>  RESUB_DECIDE        = 3w1;");
        if self.needs_div_const {
            w!(o);
            w!(o, "/* Small-constant division (window_len = flow_size / p): realized on");
            w!(o, "   Tofino as a MathUnit lookup; modeled as a pure helper extern. */");
            w!(o, "extern bit<32> div_const(in bit<32> dividend, in bit<32> divisor);");
        }
        w!(o);
        self.render_headers(&mut o);
        self.render_parser(&mut o);
        self.render_ingress(&mut o, action_bodies);
        self.render_deparser(&mut o);
        self.render_egress(&mut o);
        w!(o, "Pipeline(SplidtIngressParser(),");
        w!(o, "         SplidtIngress(),");
        w!(o, "         SplidtIngressDeparser(),");
        w!(o, "         SplidtEgressParser(),");
        w!(o, "         SplidtEgress(),");
        w!(o, "         SplidtEgressDeparser()) pipe;");
        w!(o);
        w!(o, "Switch(pipe) main;");
        o
    }

    fn render_headers(&self, o: &mut String) {
        w!(o, "/* -------- headers: the peek_flow_tuple wire format -------- */");
        w!(o);
        w!(o, "header ethernet_h {{");
        w!(o, "    bit<48> dst_addr;");
        w!(o, "    bit<48> src_addr;");
        w!(o, "    bit<16> ether_type;");
        w!(o, "}}");
        w!(o);
        if self.standard {
            w!(o, "/* optional 4-byte flow-size shim the synthetic generator prepends */");
            w!(o, "header flow_shim_h {{");
            w!(o, "    bit<16> flow_size;");
            w!(o, "    bit<16> next_ether_type;");
            w!(o, "}}");
            w!(o);
            w!(o, "header ipv4_h {{");
            w!(o, "    bit<4>  version;");
            w!(o, "    bit<4>  ihl;");
            w!(o, "    bit<8>  diffserv;");
            w!(o, "    bit<16> total_len;");
            w!(o, "    bit<16> identification;");
            w!(o, "    bit<3>  flags;");
            w!(o, "    bit<13> frag_offset;");
            w!(o, "    bit<8>  ttl;");
            w!(o, "    bit<8>  protocol;");
            w!(o, "    bit<16> hdr_checksum;");
            w!(o, "    bit<32> src_addr;");
            w!(o, "    bit<32> dst_addr;");
            w!(o, "}}");
            w!(o);
            w!(o, "header tcp_h {{");
            w!(o, "    bit<16> src_port;");
            w!(o, "    bit<16> dst_port;");
            w!(o, "    bit<32> seq_no;");
            w!(o, "    bit<32> ack_no;");
            w!(o, "    bit<4>  data_offset;");
            w!(o, "    bit<4>  res;");
            w!(o, "    bit<8>  flags;");
            w!(o, "    bit<16> window;");
            w!(o, "    bit<16> checksum;");
            w!(o, "    bit<16> urgent_ptr;");
            w!(o, "}}");
            w!(o);
            w!(o, "header udp_h {{");
            w!(o, "    bit<16> src_port;");
            w!(o, "    bit<16> dst_port;");
            w!(o, "    bit<16> hdr_length;");
            w!(o, "    bit<16> checksum;");
            w!(o, "}}");
            w!(o);
            w!(o, "struct headers_t {{");
            w!(o, "    ethernet_h  ethernet;");
            w!(o, "    flow_shim_h flow_shim;");
            w!(o, "    ipv4_h      ipv4;");
            w!(o, "    tcp_h       tcp;");
            w!(o, "    udp_h       udp;");
            w!(o, "}}");
        } else {
            w!(o, "struct headers_t {{");
            w!(o, "    ethernet_h ethernet;");
            w!(o, "}}");
        }
        w!(o);
        w!(o, "/* -------- metadata: the PHV fields the pipeline computes -------- */");
        w!(o);
        w!(o, "struct metadata_t {{");
        for (member, bits) in &self.meta_members {
            w!(o, "    bit<{bits}> {member};");
        }
        w!(o, "}}");
        w!(o);
        w!(o, "struct empty_headers_t {{ }}");
        w!(o, "struct empty_metadata_t {{ }}");
        w!(o);
    }

    fn render_parser(&self, o: &mut String) {
        w!(o, "/* -------- ingress parser: Ethernet -> [shim] -> IPv4 -> TCP/UDP -------- */");
        w!(o);
        w!(o, "parser SplidtIngressParser(packet_in pkt,");
        w!(o, "        out headers_t hdr,");
        w!(o, "        out metadata_t meta,");
        w!(o, "        out ingress_intrinsic_metadata_t ig_intr_md) {{");
        w!(o, "    state start {{");
        w!(o, "        pkt.extract(ig_intr_md);");
        w!(o, "        pkt.advance(PORT_METADATA_SIZE);");
        w!(o, "        transition parse_ethernet;");
        w!(o, "    }}");
        w!(o, "    state parse_ethernet {{");
        w!(o, "        pkt.extract(hdr.ethernet);");
        if self.standard {
            w!(o, "        transition select(hdr.ethernet.ether_type) {{");
            w!(o, "            ETHERTYPE_FLOW_SHIM : parse_flow_shim;");
            w!(o, "            ETHERTYPE_IPV4      : parse_ipv4;");
            w!(o, "            default             : accept;");
            w!(o, "        }}");
            w!(o, "    }}");
            w!(o, "    state parse_flow_shim {{");
            w!(o, "        pkt.extract(hdr.flow_shim);");
            w!(o, "        transition parse_ipv4;");
            w!(o, "    }}");
            w!(o, "    state parse_ipv4 {{");
            w!(o, "        pkt.extract(hdr.ipv4);");
            w!(o, "        transition select(hdr.ipv4.protocol) {{");
            w!(o, "            IPPROTO_TCP : parse_tcp;");
            w!(o, "            IPPROTO_UDP : parse_udp;");
            w!(o, "            default     : accept;");
            w!(o, "        }}");
            w!(o, "    }}");
            w!(o, "    state parse_tcp {{");
            w!(o, "        pkt.extract(hdr.tcp);");
            w!(o, "        meta.l4_sport = hdr.tcp.src_port;");
            w!(o, "        meta.l4_dport = hdr.tcp.dst_port;");
            w!(o, "        meta.tcp_flags = hdr.tcp.flags;");
            w!(o, "        transition accept;");
            w!(o, "    }}");
            w!(o, "    state parse_udp {{");
            w!(o, "        pkt.extract(hdr.udp);");
            w!(o, "        meta.l4_sport = hdr.udp.src_port;");
            w!(o, "        meta.l4_dport = hdr.udp.dst_port;");
            w!(o, "        meta.tcp_flags = 8w0;");
            w!(o, "        transition accept;");
            w!(o, "    }}");
        } else {
            w!(o, "        transition accept;");
            w!(o, "    }}");
        }
        w!(o, "}}");
        w!(o);
    }

    fn render_ingress(&self, o: &mut String, action_bodies: &[String]) {
        w!(o, "/* -------- ingress: the compiled SpliDT pipeline -------- */");
        w!(o);
        w!(o, "control SplidtIngress(");
        w!(o, "        inout headers_t hdr,");
        w!(o, "        inout metadata_t meta,");
        w!(o, "        in ingress_intrinsic_metadata_t ig_intr_md,");
        w!(o, "        in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,");
        w!(o, "        inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,");
        w!(o, "        inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {{");
        w!(o);
        if !self.hashes.is_empty() {
            for (salt, sym) in &self.hashes {
                if *salt == 0 {
                    w!(o, "    /* canonical flow index hash */");
                    w!(o, "    Hash<bit<32>>(HashAlgorithm_t.CRC32) {sym};");
                } else {
                    w!(o, "    /* ownership-lane fingerprint: independently seeded engine");
                    w!(
                        o,
                        "       (salt {}) so the fp cannot correlate with the index. */",
                        lit(32, *salt)
                    );
                    w!(o, "    Hash<bit<32>>(HashAlgorithm_t.CRC32, CRCPolynomial<bit<32>>(");
                    w!(
                        o,
                        "        32w0x04C11DB7, true, true, false, {}, 32w0xFFFFFFFF)) {sym};",
                        lit(32, *salt)
                    );
                }
            }
            w!(o);
        }
        // Registers, annotated with stage + flow-bank placement.
        let placements = self.plan.bank_layout().placements();
        for (ri, spec) in self.program.registers().iter().enumerate() {
            let stage = self.reg_stage[ri];
            let bank_note = match placements[ri] {
                RegPlacement::Banked { bank, offset, cell_bytes } => {
                    format!("flow bank {bank} @ +{offset}B ({cell_bytes}B cell)")
                }
                RegPlacement::Split => "split (no bank sibling)".to_string(),
            };
            let cap_note = match spec.cap {
                Some(c) => format!(", cap {c}"),
                None => String::new(),
            };
            w!(o, "    /* {} -- {bank_note}{cap_note} */", spec.name);
            w!(o, "    @stage({stage})");
            w!(
                o,
                "    Register<bit<{}>, bit<32>>({}) {};",
                spec.width_bits,
                spec.len,
                self.reg_syms[ri]
            );
        }
        w!(o);
        for salu in &self.salus {
            o.push_str(&salu.text);
            w!(o);
        }
        // Action declarations, plan-arena order.
        for (i, body) in action_bodies.iter().enumerate() {
            w!(o, "    action {}() {{", self.action_syms[i]);
            if body.is_empty() {
                w!(o, "        /* no-op */");
            } else {
                o.push_str(body);
            }
            w!(o, "    }}");
            w!(o);
        }
        // Table declarations, id order.
        for (ti, table) in self.program.tables().iter().enumerate() {
            let spec = table.spec();
            let kind = match spec.kind {
                MatchKind::Exact => "exact",
                MatchKind::Ternary => "ternary",
                MatchKind::Range => "range",
            };
            let slot = &self.plan.slots()[self.slot_by_table[ti]];
            w!(o, "    @stage({})", self.table_stage[ti]);
            w!(o, "    table {} {{", self.table_syms[ti]);
            if !spec.key.is_empty() {
                w!(o, "        key = {{");
                for f in &spec.key {
                    w!(o, "            {} : {kind};", self.field_lv(*f));
                }
                w!(o, "        }}");
            }
            w!(o, "        actions = {{");
            for id in self.table_actions(slot, table.n_entries()) {
                w!(o, "            {};", self.action_syms[id.index()]);
            }
            w!(o, "        }}");
            w!(
                o,
                "        const default_action = {}();",
                self.action_syms[slot.default_action.index()]
            );
            w!(o, "        size = {};", spec.max_entries);
            w!(o, "    }}");
            w!(o);
        }
        // Apply: stage-major, the interpreter's pass order.
        w!(o, "    apply {{");
        if self.standard {
            w!(o, "        /* intrinsic -> PHV bridge */");
            w!(o, "        meta.ts_us = ig_prsr_md.global_tstamp; /* ns on silicon; the model's");
            w!(o, "            us clock is a controller-configured divide */");
            w!(o, "        meta.is_resubmit = ig_intr_md.resubmit_flag;");
            w!(o, "        meta.frame_len = hdr.ipv4.total_len + 16w14;");
            w!(o, "        /* bump-in-the-wire: reflect out the ingress port */");
            w!(o, "        ig_tm_md.ucast_egress_port = ig_intr_md.ingress_port;");
        }
        for (s, alloc) in self.program.stages().iter().enumerate() {
            w!(o, "        /* ---- stage {s} ---- */");
            // Each maximal run of same-gate tables shares one gateway.
            for run in alloc.tables.chunk_by(|a, b| self.program.gate(*a) == self.program.gate(*b))
            {
                let gate = self.program.gate(run[0]);
                let indent = if gate.is_some() { "            " } else { "        " };
                if let Some(g) = gate {
                    w!(o, "        if ({} == 1w1) {{", self.field_lv(g));
                }
                for tid in run {
                    w!(o, "{indent}{}.apply();", self.table_syms[tid.index()]);
                }
                if gate.is_some() {
                    w!(o, "        }}");
                }
            }
        }
        w!(
            o,
            "        /* resubmit budget: at most {} passes per packet */",
            self.program.resubmit_limit()
        );
        w!(o, "    }}");
        w!(o, "}}");
        w!(o);
    }

    fn render_deparser(&self, o: &mut String) {
        let digest = self.program.digest_fields();
        w!(o, "/* -------- ingress deparser: digest + resubmit wiring -------- */");
        w!(o);
        if !digest.is_empty() {
            w!(o, "/* verdict export to the controller (the digest ring's wire shape) */");
            w!(o, "struct verdict_digest_t {{");
            for (i, f) in digest.iter().enumerate() {
                w!(
                    o,
                    "    bit<{}> f{i}_{};",
                    self.field_bits(*f),
                    sanitize(&self.fields[f.index()].name)
                );
            }
            w!(o, "}}");
            w!(o);
        }
        w!(o, "control SplidtIngressDeparser(packet_out pkt,");
        w!(o, "        inout headers_t hdr,");
        w!(o, "        in metadata_t meta,");
        w!(o, "        in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {{");
        if !digest.is_empty() {
            w!(o, "    Digest<verdict_digest_t>() verdict_digest;");
        }
        w!(o, "    Resubmit() resubmit;");
        w!(o, "    apply {{");
        if !digest.is_empty() {
            w!(o, "        if (ig_dprsr_md.digest_type == DIGEST_VERDICT) {{");
            w!(o, "            verdict_digest.pack({{");
            for (i, f) in digest.iter().enumerate() {
                let comma = if i + 1 == digest.len() { "" } else { "," };
                w!(o, "                {}{comma}", self.field_lv(*f));
            }
            w!(o, "            }});");
            w!(o, "        }}");
        }
        w!(o, "        if (ig_dprsr_md.resubmit_type == RESUB_DECIDE) {{");
        w!(o, "            resubmit.emit();");
        w!(o, "        }}");
        w!(o, "        pkt.emit(hdr);");
        w!(o, "    }}");
        w!(o, "}}");
        w!(o);
    }

    fn render_egress(&self, o: &mut String) {
        w!(o, "/* -------- egress: pass-through (inference is ingress-only) -------- */");
        w!(o);
        w!(o, "parser SplidtEgressParser(packet_in pkt,");
        w!(o, "        out empty_headers_t hdr,");
        w!(o, "        out empty_metadata_t meta,");
        w!(o, "        out egress_intrinsic_metadata_t eg_intr_md) {{");
        w!(o, "    state start {{");
        w!(o, "        pkt.extract(eg_intr_md);");
        w!(o, "        transition accept;");
        w!(o, "    }}");
        w!(o, "}}");
        w!(o);
        w!(o, "control SplidtEgress(");
        w!(o, "        inout empty_headers_t hdr,");
        w!(o, "        inout empty_metadata_t meta,");
        w!(o, "        in egress_intrinsic_metadata_t eg_intr_md,");
        w!(o, "        in egress_intrinsic_metadata_from_parser_t eg_prsr_md,");
        w!(o, "        inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,");
        w!(o, "        inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {{");
        w!(o, "    apply {{ }}");
        w!(o, "}}");
        w!(o);
        w!(o, "control SplidtEgressDeparser(packet_out pkt,");
        w!(o, "        inout empty_headers_t hdr,");
        w!(o, "        in empty_metadata_t meta,");
        w!(o, "        in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {{");
        w!(o, "    apply {{");
        w!(o, "        pkt.emit(hdr);");
        w!(o, "    }}");
        w!(o, "}}");
        w!(o);
    }
}

fn rmw_tag(op: RegAluOp) -> &'static str {
    match op {
        RegAluOp::Read => "read",
        RegAluOp::Write => "write",
        RegAluOp::Add => "add",
        RegAluOp::Sub => "sub",
        RegAluOp::Min => "min",
        RegAluOp::Max => "max",
    }
}
