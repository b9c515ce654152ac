//! Compiler: a trained [`PartitionedTree`] → an executable data-plane
//! [`Program`] (the role the paper's P4 program + bfrt controller play).
//!
//! Pipeline layout (10 stages, within Tofino1's 12):
//!
//! | stage | contents |
//! |---|---|
//! | 0 | flow hash + fingerprint, direction, `window_len`, payload |
//! | 1 | the **ownership lane** register (fingerprint ‖ last-seen ‖ decided) |
//! | 2 | the lifecycle MAT (slot state → claim/alien bits + counters) |
//! | 3 | SID / packet-counter / window-counter registers |
//! | 4 | dependency-chain registers (`last_ts` per scope) |
//! | 5 | IAT arithmetic, validity bits, window-first, boundary detection |
//! | 6 | the `k` feature-slot registers + operator-selection MATs |
//! | 7 | per-SID load transforms (cap / negate / since-timestamp); applied only on a boundary pass |
//! | 8 | `k` match-key generator MATs (value → range mark); applied only on a boundary pass |
//! | 9 | the model MAT (marks → next SID / class), resubmit, digest; applied only on a boundary pass |
//!
//! Stages 7–9 are gated on `m.boundary` ([`ProgramBuilder::gate_table`]).
//! Only the model MAT reads what stages 7 and 8 write (the transformed
//! `m.fval_*` and the marks), and no digest field is one of them. Every
//! model entry requires `boundary = 1` or `final = 1`, the boundary MAT
//! runs on every pass and sets `final` only together with `boundary`,
//! and the model's default action is empty. So off a boundary the three
//! stages change nothing observable, and the packet skips them, as a
//! switch gateway (`if (meta.m_boundary == 1w1)`) skips them.
//!
//! Register reuse via recirculation (paper §3.1.3): the model MAT marks the
//! boundary packet for resubmission with `next_sid` in metadata; on the
//! resubmitted pass every stateful table matches `is_resubmit = 1` and
//! resets its register (SID ← next_sid, counters/slots/deps ← 0).
//!
//! ## Flow-state lifecycle
//!
//! Flows are **learned on the wire**, not pre-admitted. Stage 1 probes the
//! slot's ownership lane (one dual-ALU [`Primitive::OwnerUpdate`] per
//! packet): a matching fingerprint refreshes recency; a free lane — or a
//! lane whose owner is idle past `idle_timeout_us` or already decided — is
//! claimed, and stage 2 raises the `m.claim` bit so every downstream
//! stateful table resets its cell and applies the first-packet update in
//! the same pass (fresh state = op(0, x), so claim entries run `Write x`).
//! A fingerprint mismatch against a *live* lane raises `m.alien` instead:
//! the packet's register updates and boundary detection are suppressed —
//! counted by the lifecycle MAT, never merged into the owner's state. At a
//! verdict (early exit *or* flow end) the model MAT resubmits with the
//! DONE sentinel; the decide pass marks the lane, making the slot
//! immediately reclaimable in-band and releasable by the controller (the
//! engine compare-and-releases lanes when it drains the verdict digest,
//! which carries the fingerprint). This is pForest's register-reuse
//! discipline (arXiv:1909.05680), compiled.

// One function per stage of the table above; none may grow past
// `clippy.toml`'s `too-many-lines-threshold`.
#![deny(clippy::too_many_lines)]

use crate::model::{LeafTarget, PartitionedTree};
use splidt_dataplane::action::{Action, AluOp, AluOut, OwnerMode, Primitive, SlotState, Source};
use splidt_dataplane::hash::{FP_BITS, FP_MASK, FP_SALT};
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::phv::FieldId;
use splidt_dataplane::program::{Program, ProgramBuilder, ProgramError};
use splidt_dataplane::register::{RegId, RegisterSpec};
use splidt_dataplane::table::{TableId, TableSpec};
use splidt_dataplane::tcam::Ternary;
use splidt_flow::features::{
    catalog, flags, DepRegister, FeatureKind, Guard, LoadTransform, Operand, Scope, SlotProgram,
    StatelessKind, UpdateOp, FEATURE_CAP,
};
use splidt_ranging::{generate_rules, range_to_prefixes, SubtreeRules};
use std::collections::BTreeMap;

/// Compile-time errors.
#[derive(Debug)]
pub enum CompileError {
    /// Program assembly failed.
    Program(ProgramError),
    /// The model is structurally invalid.
    InvalidModel(String),
    /// Unsupported configuration (e.g. k > 8 slots in one stage).
    Unsupported(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Program(e) => write!(f, "program error: {e}"),
            CompileError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            CompileError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ProgramError> for CompileError {
    fn from(e: ProgramError) -> Self {
        CompileError::Program(e)
    }
}

/// Rule-generation summary used by resource estimation (and Table 3 / Fig 9
/// accounting) without building a full program.
#[derive(Debug, Clone)]
pub struct RulesSummary {
    /// `(sid, rules)` per subtree.
    pub subtree_rules: Vec<(u16, SubtreeRules)>,
    /// Mark-field width in bits per slot (max over subtrees).
    pub slot_mark_bits: Vec<u8>,
    /// Canonical TCAM entry count: feature-table entries + one model entry
    /// per leaf (the paper's accounting).
    pub tcam_entries: usize,
    /// Feature-table entries only.
    pub feature_entries: usize,
    /// Model entries (= total leaves).
    pub model_entries: usize,
    /// Model-MAT key width: flags(2) + sid(8) + Σ slot mark bits.
    pub model_key_bits: usize,
}

/// Slot position of each feature within a subtree: features sorted
/// ascending, slot = rank.
pub fn slot_assignment(features: &[usize]) -> BTreeMap<usize, usize> {
    features.iter().enumerate().map(|(slot, &f)| (f, slot)).collect()
}

/// Generates Range-Marking rules for every subtree and aggregates the
/// accounting the paper reports.
pub fn model_rules(model: &PartitionedTree) -> RulesSummary {
    let bits = model.config.feature_bits;
    let mut subtree_rules = Vec::with_capacity(model.subtrees.len());
    let mut slot_mark_bits = vec![0u8; model.config.k];
    let mut feature_entries = 0usize;
    let mut model_entries = 0usize;
    for st in &model.subtrees {
        let rules = generate_rules(&st.tree, bits);
        let slots = slot_assignment(&rules.features);
        for ft in &rules.feature_tables {
            let slot = slots[&ft.feature];
            slot_mark_bits[slot] = slot_mark_bits[slot].max(ft.encoder.mark_bits());
            feature_entries += ft.rules.len();
        }
        model_entries += rules.model.len();
        subtree_rules.push((st.sid, rules));
    }
    let model_key_bits = 2 + 8 + slot_mark_bits.iter().map(|&b| b as usize).sum::<usize>();
    RulesSummary {
        subtree_rules,
        slot_mark_bits,
        tcam_entries: feature_entries + model_entries,
        feature_entries,
        model_entries,
        model_key_bits,
    }
}

/// Default owner idle timeout: a live flow silent this long (µs) forfeits
/// its slot to the next colliding arrival. Larger than any intra-flow gap
/// the synthetic traces produce (≤ 4 s), so only genuinely dead flows are
/// evicted under default settings.
pub const DEFAULT_IDLE_TIMEOUT_US: u64 = 5_000_000;

/// Default pinned timeout: how long a decided lane of a *pinned* verdict
/// class resists takeover (4× the idle timeout).
pub const DEFAULT_PINNED_TIMEOUT_US: u64 = 4 * DEFAULT_IDLE_TIMEOUT_US;

/// Protocol- and verdict-aware flow-lifecycle policy, fixed at compile
/// time: the admission/release MAT entries it generates are part of the
/// compiled program, exactly like the paper's P4 control installs them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifecyclePolicy {
    /// TCP-aware admission and release. When set, a TCP packet may claim
    /// a slot **only when it carries SYN** — non-SYN packets of unknown
    /// flows (scans, backscatter, mid-capture tails) are counted as
    /// `unsolicited` and never admitted — and the verdict pass of a
    /// FIN/RST packet releases the lane **in-band**, without waiting for
    /// the controller's digest drain. Non-TCP traffic keeps flow-agnostic
    /// admission.
    pub tcp_aware: bool,
    /// Verdict classes (e.g. suspected-malicious) whose decided lanes are
    /// **pinned**: they resist takeover and in-band release until
    /// [`LifecyclePolicy::pinned_timeout_us`] of silence or an explicit
    /// operator release (`Engine::release_pinned`).
    pub pinned_classes: Vec<u16>,
    /// Idle threshold (µs) past which even a pinned lane is evictable.
    pub pinned_timeout_us: u64,
}

impl Default for LifecyclePolicy {
    fn default() -> Self {
        Self::flow_agnostic()
    }
}

impl LifecyclePolicy {
    /// The policy PR 4 shipped: any packet of an unknown flow claims a
    /// slot, releases only via verdicts and the controller.
    pub fn flow_agnostic() -> Self {
        Self {
            tcp_aware: false,
            pinned_classes: Vec::new(),
            pinned_timeout_us: DEFAULT_PINNED_TIMEOUT_US,
        }
    }

    /// TCP-aware admission/release (SYN claims, FIN/RST in-band release).
    pub fn tcp() -> Self {
        Self { tcp_aware: true, ..Self::flow_agnostic() }
    }

    /// Marks a verdict class pinned (builder style).
    pub fn pin_class(mut self, class: u16) -> Self {
        if !self.pinned_classes.contains(&class) {
            self.pinned_classes.push(class);
            self.pinned_classes.sort_unstable();
        }
        self
    }

    /// Sets the pinned-lane idle threshold (builder style).
    pub fn pinned_timeout_us(mut self, us: u64) -> Self {
        self.pinned_timeout_us = us;
        self
    }
}

/// Compile-time knobs beyond the model itself.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Register depth (power of two).
    pub flow_slots: usize,
    /// Ownership-lane idle timeout in µs.
    pub idle_timeout_us: u64,
    /// Flow-lifecycle policy (admission, release, pinned eviction).
    pub policy: LifecyclePolicy,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            flow_slots: 1 << 16,
            idle_timeout_us: DEFAULT_IDLE_TIMEOUT_US,
            policy: LifecyclePolicy::default(),
        }
    }
}

/// Install order of the lifecycle MAT's first-pass entries — the entry
/// hit counters are the data plane's lifecycle counters, read back by the
/// engine through these indices.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleEntryIdx {
    /// Owner packets (fingerprint match, lane live).
    pub owner: usize,
    /// Free-lane claims (first admission of the slot).
    pub admit_free: usize,
    /// Takeovers of idle owners.
    pub takeover_idle: usize,
    /// Takeovers of decided owners.
    pub takeover_decided: usize,
    /// Suppressed packets of flows colliding with a live owner.
    pub live_collision: usize,
    /// Trailing packets of an already-decided owner.
    pub post_verdict: usize,
    /// Non-SYN packets of unknown flows refused admission (TCP policy).
    pub unsolicited: usize,
    /// Takeovers of pinned lanes past the pinned timeout.
    pub takeover_pinned: usize,
    /// Packets suppressed by a pinned lane inside its pinned timeout.
    pub pinned_defended: usize,
    /// In-band FIN/RST lane releases on the decide pass.
    pub released_fin: usize,
}

/// Handles into the compiled program the runtime needs.
#[derive(Debug, Clone)]
pub struct CompiledIo {
    /// Standard parsed fields.
    pub fields: StandardFields,
    /// Flow-slot count (register depth).
    pub flow_slots: usize,
    /// Ownership-lane idle timeout the program was compiled with (µs).
    pub idle_timeout_us: u64,
    /// The flow-lifecycle policy the program was compiled with.
    pub policy: LifecyclePolicy,
    /// Digest layout: `[ipv4.src, ipv4.dst, class, sid, flow_idx, fp]`.
    pub digest_src: usize,
    /// Index of class within digest values.
    pub digest_class: usize,
    /// Index of sid within digest values.
    pub digest_sid: usize,
    /// Index of the canonical register slot within digest values — the
    /// collation key the runtime uses to attribute digests to flows.
    pub digest_flow_idx: usize,
    /// Index of the flow fingerprint within digest values — what the
    /// controller compares before releasing a decided lane.
    pub digest_fp: usize,
    /// Index of the flow-end flag within digest values: 1 when the
    /// verdict came from the flow's final packet (safe to release the
    /// lane — no trailing traffic), 0 for early exits (the lane stays
    /// decided so trailing packets remain inert).
    pub digest_final: usize,
    /// The model table id (hit statistics).
    pub model_table: TableId,
    /// The ownership-lane register array.
    pub owner_reg: RegId,
    /// The per-slot pressure counter register (suppressed packets:
    /// live collisions + unsolicited + pinned-defended, per slot).
    pub pressure_reg: RegId,
    /// The lifecycle MAT (entry hit counters = lifecycle counters).
    pub lifecycle_table: TableId,
    /// Entry indices into the lifecycle MAT.
    pub lifecycle_entries: LifecycleEntryIdx,
}

/// A compiled model: executable program + IO handles + rule summary.
#[derive(Debug)]
pub struct CompiledModel {
    /// The data-plane program.
    pub program: Program,
    /// Runtime handles.
    pub io: CompiledIo,
    /// Rule accounting.
    pub summary: RulesSummary,
}

/// Per-(sid, slot) feature binding.
#[derive(Debug, Clone, Copy)]
struct Binding {
    feature: usize,
    kind: BindKind,
}

/// How a bound feature is materialized in its slot.
#[derive(Debug, Clone, Copy)]
enum BindKind {
    /// Stateful register-slot program.
    Slot(SlotProgram),
    /// Stateless header field: the slot register simply latches the
    /// (canonicalized) field on every packet, so the boundary packet's
    /// value is what the key generator matches — identical to the software
    /// extractor's "stateless = boundary packet" semantics.
    Stateless(StatelessKind),
}

const MAX_SLOT_TABLE_ENTRIES: usize = 4096;

/// Fixed (non-validity) fields of the slot-table key: `[is_resubmit,
/// claim, alien, sid, dir, tcp_flags, frame_len, payload, win_first]`.
const SLOT_KEY_FIXED: usize = 9;

/// Install order of the lifecycle MAT's first-pass entries (see
/// [`Compiler::lifecycle`]).
const LIFECYCLE_ENTRIES: LifecycleEntryIdx = LifecycleEntryIdx {
    owner: 0,
    admit_free: 1,
    takeover_idle: 2,
    takeover_decided: 3,
    live_collision: 4,
    post_verdict: 5,
    unsolicited: 6,
    takeover_pinned: 7,
    pinned_defended: 8,
    released_fin: 9,
};

/// A ternary entry waiting for its table, which is declared with the
/// exact capacity once every entry is known (TCAM allocation follows
/// declared capacity, like hardware).
type PendingEntry = (Vec<Ternary>, u32, Action);

/// Compiles a partitioned tree into a pipeline program with `flow_slots`
/// register entries (power of two) and the default idle timeout.
pub fn compile(model: &PartitionedTree, flow_slots: usize) -> Result<CompiledModel, CompileError> {
    compile_with(model, &CompileOptions { flow_slots, ..Default::default() })
}

/// Pipeline stage of each compiled layer (see the module docs).
mod stage {
    pub const PREP: usize = 0;
    pub const OWN: usize = 1;
    pub const LIFECYCLE: usize = 2;
    pub const STATE: usize = 3;
    pub const DEP: usize = 4;
    pub const COMPUTE: usize = 5;
    pub const SLOT: usize = 6;
    pub const LOAD: usize = 7;
    pub const KEYGEN: usize = 8;
    pub const MODEL: usize = 9;
}

/// Compiles a partitioned tree with explicit [`CompileOptions`], one
/// stage of the module table at a time, in stage order.
pub fn compile_with(
    model: &PartitionedTree,
    opts: &CompileOptions,
) -> Result<CompiledModel, CompileError> {
    let mut c = Compiler::new(model, opts)?;
    c.prep()?;
    let owner_reg = c.ownership()?;
    let (lifecycle_table, pressure_reg) = c.lifecycle()?;
    c.state()?;
    c.deps()?;
    c.compute()?;
    let slots = c.slots()?;
    c.loads(&slots)?;
    c.keygen(&slots)?;
    let model_table = c.model(&slots)?;
    c.finish(owner_reg, pressure_reg, lifecycle_table, model_table)
}

/// Rejects what the data plane cannot hold: an invalid model, more than
/// 8 slots, a flow-slot count that is not a power of two, and a pinned
/// class the lane or the model cannot represent.
fn check(model: &PartitionedTree, opts: &CompileOptions) -> Result<(), CompileError> {
    model.validate().map_err(CompileError::InvalidModel)?;
    if model.config.k > 8 {
        return Err(CompileError::Unsupported("k > 8 feature slots".into()));
    }
    if !opts.flow_slots.is_power_of_two() {
        return Err(CompileError::Unsupported("flow_slots must be a power of two".into()));
    }
    let policy = &opts.policy;
    for &c in &policy.pinned_classes {
        // The lane stores the verdict class in CLASS_BITS bits; a pinned
        // class outside that range could never be recognized.
        if u64::from(c) > splidt_dataplane::register::owner_lane::CLASS_MASK {
            return Err(CompileError::Unsupported(format!(
                "pinned class {c} exceeds the lane's class field"
            )));
        }
        if usize::from(c) >= model.n_classes {
            return Err(CompileError::InvalidModel(format!(
                "pinned class {c} outside the model's {} classes",
                model.n_classes
            )));
        }
    }
    // Only meaningful when something is actually pinned — the default
    // policy must keep accepting any idle timeout, as it always has.
    if !policy.pinned_classes.is_empty() && policy.pinned_timeout_us < opts.idle_timeout_us {
        return Err(CompileError::Unsupported(
            "pinned_timeout_us must be >= idle_timeout_us (pinning may only strengthen)".into(),
        ));
    }
    Ok(())
}

/// Binds every subtree's features to slots (`(sid, slot)` → binding) and
/// collects the dependency registers they read, sorted.
#[allow(clippy::type_complexity)]
fn bind(
    model: &PartitionedTree,
) -> Result<(BTreeMap<(u16, usize), Binding>, Vec<DepRegister>), CompileError> {
    let cat = catalog();
    let mut bindings = BTreeMap::new();
    let mut deps: Vec<DepRegister> = Vec::new();
    for st in &model.subtrees {
        for (f, slot) in slot_assignment(&st.features()) {
            let kind = match &cat.defs()[f].kind {
                FeatureKind::Slot(p) => {
                    for d in p.deps() {
                        if !deps.contains(&d) {
                            deps.push(d);
                        }
                    }
                    BindKind::Slot(*p)
                }
                FeatureKind::Stateless(k) => BindKind::Stateless(*k),
                FeatureKind::Software(_) => {
                    return Err(CompileError::InvalidModel(format!(
                        "feature {f} ({}) is software-only",
                        cat.defs()[f].name
                    )));
                }
            };
            bindings.insert((st.sid, slot), Binding { feature: f, kind });
        }
    }
    deps.sort();
    Ok((bindings, deps))
}

/// The metadata fields of one dependency scope's `last_ts` chain.
struct DepMeta {
    /// `m.last_*`: the previous in-scope timestamp (0: none yet).
    last: FieldId,
    /// `m.iat_*`: the capped gap since then.
    iat: FieldId,
    /// `m.neg_iat_*`: `FEATURE_CAP − iat`.
    neg_iat: FieldId,
    /// `m.valid_*`: whether `last` holds a timestamp.
    valid: FieldId,
}

/// The metadata fields more than one stage reads. [`Meta::declare`] adds
/// them in the order written here, which fixes their PHV field ids.
struct Meta {
    flow_idx: FieldId,
    fp: FieldId,
    state: FieldId,
    claim: FieldId,
    alien: FieldId,
    sid: FieldId,
    next_sid: FieldId,
    /// `next_sid − 1`, the form `r.sid` stores.
    next_store: FieldId,
    class: FieldId,
    pkt_count: FieldId,
    win_count: FieldId,
    window_len: FieldId,
    dir: FieldId,
    now: FieldId,
    payload: FieldId,
    win_first: FieldId,
    boundary: FieldId,
    is_final: FieldId,
    diff_win: FieldId,
    diff_flow: FieldId,
    /// Per dependency scope.
    dep: BTreeMap<Scope, DepMeta>,
    /// `FEATURE_CAP − frame length`.
    neg_len: FieldId,
    /// Canonical (initiator-oriented) source and destination ports.
    csport: FieldId,
    cdport: FieldId,
}

impl Meta {
    fn declare(b: &mut ProgramBuilder, flow_slots: usize, deps: &[DepRegister]) -> Self {
        let slot_bits_log2 = flow_slots.trailing_zeros() as u8;
        Meta {
            flow_idx: b.add_meta("m.flow_idx", slot_bits_log2.max(1)),
            fp: b.add_meta("m.fp", FP_BITS as u8),
            state: b.add_meta("m.state", SlotState::BITS),
            claim: b.add_meta("m.claim", 1),
            alien: b.add_meta("m.alien", 1),
            sid: b.add_meta("m.sid", 8),
            next_sid: b.add_meta("m.next_sid", 8),
            next_store: b.add_meta("m.next_sid_store", 8),
            class: b.add_meta("m.class", 8),
            pkt_count: b.add_meta("m.pkt_count", 24),
            win_count: b.add_meta("m.win_count", 16),
            window_len: b.add_meta("m.window_len", 16),
            dir: b.add_meta("m.dir", 1),
            now: b.add_meta("m.now", 32),
            payload: b.add_meta("m.payload", 16),
            win_first: b.add_meta("m.win_first", 1),
            boundary: b.add_meta("m.boundary", 1),
            is_final: b.add_meta("m.final", 1),
            diff_win: b.add_meta("m.diff_win", 16),
            diff_flow: b.add_meta("m.diff_flow", 24),
            dep: deps
                .iter()
                .map(|&DepRegister::LastTs(s)| {
                    let tag = scope_tag(s);
                    let dep = DepMeta {
                        last: b.add_meta(format!("m.last_{tag}"), 32),
                        iat: b.add_meta(format!("m.iat_{tag}"), 32),
                        neg_iat: b.add_meta(format!("m.neg_iat_{tag}"), 32),
                        valid: b.add_meta(format!("m.valid_{tag}"), 1),
                    };
                    (s, dep)
                })
                .collect(),
            neg_len: b.add_meta("m.neg_len", 32),
            csport: b.add_meta("m.csport", 16),
            cdport: b.add_meta("m.cdport", 16),
        }
    }
}

/// One feature slot's handles, declared by [`Compiler::slots`].
struct SlotMeta {
    /// `m.fval_i`: the slot's feature value.
    fval: FieldId,
    /// `m.mark_i`: its range mark.
    mark: FieldId,
    /// `r.slot_i`.
    reg: RegId,
}

/// One compile in progress: the builder and what more than one stage
/// reads. Each stage method declares its fields, registers and tables in
/// stage order, so their ids are those of the module table.
struct Compiler<'a> {
    tree: &'a PartitionedTree,
    opts: &'a CompileOptions,
    b: ProgramBuilder,
    f: StandardFields,
    m: Meta,
    /// `(sid, slot)` → the feature bound there.
    bindings: BTreeMap<(u16, usize), Binding>,
    /// The dependency registers the bound features read, sorted.
    deps: Vec<DepRegister>,
    summary: RulesSummary,
}

impl<'a> Compiler<'a> {
    /// Checks and binds the model, then declares the standard and shared
    /// metadata fields.
    fn new(tree: &'a PartitionedTree, opts: &'a CompileOptions) -> Result<Self, CompileError> {
        check(tree, opts)?;
        let (bindings, deps) = bind(tree)?;
        let mut b = ProgramBuilder::new();
        let f = b.standard_fields();
        let m = Meta::declare(&mut b, opts.flow_slots, &deps);
        Ok(Self { tree, opts, b, f, m, bindings, deps, summary: model_rules(tree) })
    }

    /// A read-modify-write of `reg` at the flow's slot (`m.flow_idx`).
    fn rmw(
        &self,
        reg: RegId,
        op: AluOp,
        operand: Source,
        out: Option<(FieldId, AluOut)>,
    ) -> Primitive {
        Primitive::RegRmw { reg, index: Source::Field(self.m.flow_idx), op, operand, out }
    }

    /// A per-flow register named `name` of `bits` in `stage`.
    fn register(&mut self, name: impl Into<String>, bits: u8, stage: usize) -> RegId {
        self.b.add_register(RegisterSpec::new(name, bits, self.opts.flow_slots), stage)
    }

    /// Declares the exact table `spec` in `stage` and installs `entries`
    /// in order.
    fn exact_table(
        &mut self,
        spec: TableSpec,
        stage: usize,
        entries: Vec<(Vec<u64>, Action)>,
    ) -> Result<(), CompileError> {
        let t = self.b.add_table(spec, stage);
        for (values, action) in entries {
            self.b.add_exact_entry(t, values, action)?;
        }
        Ok(())
    }

    /// Stage 0, no registers. Table `prep` (default only) hashes the flow
    /// to `m.flow_idx` and `m.fp` and derives `m.now`, `m.window_len`,
    /// `m.payload`, `m.neg_len` and `m.next_sid_store`. Table `dir` sets
    /// `m.dir` and the canonical ports `m.csport` / `m.cdport`.
    fn prep(&mut self) -> Result<(), CompileError> {
        let (f, m) = (self.f, &self.m);
        let t_prep =
            self.b.add_table(TableSpec::ternary("prep", vec![f.is_resubmit], 2), stage::PREP);
        self.b.set_default(
            t_prep,
            Action::new("prep")
                .with(Primitive::HashFlow {
                    dst: m.flow_idx,
                    mask: (self.opts.flow_slots - 1) as u64,
                    salt: 0,
                })
                // The ownership fingerprint: an independently salted hash,
                // forced nonzero (0 means "lane free").
                .with(Primitive::HashFlow { dst: m.fp, mask: FP_MASK, salt: FP_SALT })
                .with(Primitive::Max { dst: m.fp, a: Source::Field(m.fp), b: Source::Const(1) })
                .with(Primitive::Set { dst: m.now, src: Source::Field(f.ts_us) })
                .with(Primitive::DivConst {
                    dst: m.window_len,
                    a: Source::Field(f.flow_size),
                    divisor: self.tree.n_partitions() as u64,
                })
                .with(Primitive::Max {
                    dst: m.window_len,
                    a: Source::Field(m.window_len),
                    b: Source::Const(1),
                })
                .with(Primitive::Sub {
                    dst: m.payload,
                    a: Source::Field(f.ip_len),
                    b: Source::Const(40),
                })
                .with(Primitive::Sub {
                    dst: m.neg_len,
                    a: Source::Const(FEATURE_CAP),
                    b: Source::Field(f.frame_len),
                })
                // The SID register stores `sid − 1` so that zero-initialized
                // flow slots start in subtree 1 without a per-flow init pass;
                // precompute the stored form of next_sid for resubmissions.
                .with(Primitive::Sub {
                    dst: m.next_store,
                    a: Source::Field(m.next_sid),
                    b: Source::Const(1),
                }),
        );
        let t_dir = self.b.add_table(TableSpec::ternary("dir", vec![f.dport], 4), stage::PREP);
        // dport < 1024 ⇒ toward the service ⇒ forward direction. Canonical
        // (initiator-oriented) ports are derived alongside.
        self.b.add_ternary_entry(
            t_dir,
            vec![Ternary::new(0, !0x3FFu64 & 0xFFFF)],
            1,
            Action::new("fwd")
                .with(Primitive::set_const(m.dir, 1))
                .with(Primitive::set_field(m.csport, f.sport))
                .with(Primitive::set_field(m.cdport, f.dport)),
        )?;
        self.b.set_default(
            t_dir,
            Action::new("bwd")
                .with(Primitive::set_const(m.dir, 0))
                .with(Primitive::set_field(m.csport, f.dport))
                .with(Primitive::set_field(m.cdport, f.sport)),
        );
        Ok(())
    }

    /// Stage 1: register `r.owner`, the ownership lane, and table `own`,
    /// which runs one dual-ALU [`Primitive::OwnerUpdate`] per pass as the
    /// lifecycle policy dispatches it. First passes probe (claim
    /// permission per entry — the TCP-aware policy grants it only to SYN
    /// packets), the DONE-sentinel resubmission decides (with
    /// per-pinned-class and FIN/RST-release twins), other resubmitted
    /// passes leave the lane alone. Returns `r.owner`.
    fn ownership(&mut self) -> Result<RegId, CompileError> {
        let r_owner = self.register("r.owner", 64, stage::OWN);
        let (f, m, opts) = (self.f, &self.m, self.opts);
        let policy = &opts.policy;
        let own_capacity = 3 + policy.pinned_classes.len() + if policy.tcp_aware { 6 } else { 0 };
        // The flow-agnostic, nothing-pinned policy needs none of the policy
        // keys — keep the 2-field key so the default hot path pays nothing
        // for the policy machinery.
        let own_fields = if policy.tcp_aware || !policy.pinned_classes.is_empty() {
            vec![f.is_resubmit, m.next_sid, m.class, f.ip_proto, f.tcp_flags]
        } else {
            vec![f.is_resubmit, m.next_sid]
        };
        let own_key_len = own_fields.len();
        let t_own =
            self.b.add_table(TableSpec::ternary("own", own_fields, own_capacity), stage::OWN);
        let update = |name: &str, mode: OwnerMode, claim: bool, release: bool, pin: bool| {
            Action::new(name).with(Primitive::OwnerUpdate {
                reg: r_owner,
                index: Source::Field(m.flow_idx),
                fp: Source::Field(m.fp),
                now: Source::Field(m.now),
                idle_timeout_us: opts.idle_timeout_us,
                pinned_timeout_us: policy.pinned_timeout_us,
                mode,
                claim,
                release,
                pin,
                class: Source::Field(m.class),
                state_out: m.state,
            })
        };
        // Key patterns: `[is_resubmit, next_sid, class, ip_proto,
        // tcp_flags]`, cut to the table's key.
        let key = |pats: [Ternary; 5]| pats[..own_key_len].to_vec();
        let any = Ternary::ANY;
        let (first, resub, done, tcp) = (
            Ternary::exact(0, 1),
            Ternary::exact(1, 1),
            Ternary::exact(255, 8),
            Ternary::exact(6, 8),
        );
        let flag = |bit: u8| Ternary::new(bit as u64, bit as u64);
        let mut entries = Vec::new();
        // Pinned verdict classes: the decide pass writes the pinned flag so
        // the lane resists takeover (and in-band release) afterwards.
        for &c in &policy.pinned_classes {
            let class = Ternary::exact(c as u64, 8);
            let action = update(&format!("decide_pin_{c}"), OwnerMode::Decide, false, false, true);
            entries.push((key([resub, done, class, any, any]), 12, action));
        }
        if policy.tcp_aware {
            // FIN/RST verdict packets release the lane in-band: the slot is
            // reclaimable the moment the flow ends, no digest drain needed.
            for (bit, name) in [(flags::FIN, "decide_fin"), (flags::RST, "decide_rst")] {
                let action = update(name, OwnerMode::Decide, false, true, false);
                entries.push((key([resub, done, any, tcp, flag(bit)]), 11, action));
            }
        }
        let decide = update("decide", OwnerMode::Decide, false, false, false);
        entries.push((key([resub, done, any, any, any]), 10, decide));
        entries.push((key([resub, any, any, any, any]), 5, Action::new("carry")));
        if policy.tcp_aware {
            // First-pass FIN/RST packets release the owner's own *decided*
            // (unpinned) lane — the early-exit flow's trailing close. For
            // unknown flows these entries probe without claim permission like
            // any other non-SYN packet.
            for (bit, name) in [(flags::FIN, "probe_fin"), (flags::RST, "probe_rst")] {
                let action = update(name, OwnerMode::Probe, false, true, false);
                entries.push((key([first, any, any, tcp, flag(bit)]), 5, action));
            }
            // SYN packets may claim; any other TCP packet probes without
            // claim permission (unknown flows surface as `unsolicited`).
            let syn = update("probe_syn", OwnerMode::Probe, true, false, false);
            entries.push((key([first, any, any, tcp, flag(flags::SYN)]), 4, syn));
            let no_claim = update("probe_no_claim", OwnerMode::Probe, false, false, false);
            entries.push((key([first, any, any, tcp, any]), 3, no_claim));
        }
        // Default (every first pass under the flow-agnostic policy; non-TCP
        // traffic under the TCP-aware one): probe with claim permission.
        let probe = update("probe", OwnerMode::Probe, true, false, false);
        for (key, prio, action) in entries {
            self.b.add_ternary_entry(t_own, key, prio, action)?;
        }
        self.b.set_default(t_own, probe);
        Ok(r_owner)
    }

    /// Stage 2: register `r.pressure`, the per-slot count of suppressed
    /// packets (live collisions, unsolicited refusals, pinned defenses) —
    /// the contention signal operators size `flow_slots` from
    /// (`Engine::slot_pressure`) — and table `lifecycle`, which maps the
    /// probed slot state onto the `m.claim` / `m.alien` bits the stateful
    /// tables key on. Its per-entry hit counters ARE the lifecycle
    /// counters (admissions, takeovers, live collisions), read back by
    /// the engine at the fixed install order [`LIFECYCLE_ENTRIES`].
    /// Returns the table and `r.pressure`.
    fn lifecycle(&mut self) -> Result<(TableId, RegId), CompileError> {
        let r_pressure = self.register("r.pressure", 32, stage::LIFECYCLE);
        let (f, m) = (self.f, &self.m);
        let life_entry = |claim: u64, alien: u64, name: &str| {
            Action::new(name)
                .with(Primitive::set_const(m.claim, claim))
                .with(Primitive::set_const(m.alien, alien))
        };
        // Suppressed packets additionally bump the slot's pressure counter —
        // the entry hit counters aggregate, the register localizes.
        let pressure_bump = self.rmw(r_pressure, AluOp::Add, Source::Const(1), None);
        let lifecycle_states = [
            (SlotState::Owner, 0u64, 0u64, "owner"),
            (SlotState::ClaimFree, 1, 0, "admit_free"),
            (SlotState::TakeoverIdle, 1, 0, "takeover_idle"),
            (SlotState::TakeoverDecided, 1, 0, "takeover_decided"),
            (SlotState::LiveCollision, 0, 1, "live_collision"),
            (SlotState::OwnerDecided, 0, 0, "post_verdict"),
            (SlotState::Unsolicited, 0, 1, "unsolicited"),
            (SlotState::TakeoverPinned, 1, 0, "takeover_pinned"),
            (SlotState::PinnedDefended, 0, 1, "pinned_defended"),
        ];
        let state = |s: SlotState| Ternary::exact(s.code(), SlotState::BITS);
        let mut entries = Vec::new();
        for (s, claim, alien, name) in lifecycle_states {
            let mut action = life_entry(claim, alien, name);
            if alien == 1 {
                action = action.with(pressure_bump.clone());
            }
            entries.push((vec![Ternary::exact(0, 1), state(s)], 10, action));
        }
        // In-band FIN/RST releases announce themselves through the state
        // field on either kind of pass: the decide pass of a flow-end verdict
        // riding a FIN/RST, or the first pass of an early-exit flow's
        // trailing close. One entry counts both. Every other resubmitted
        // pass is the owner's: clear both bits so the stage-keyed resubmit
        // entries below stay unambiguous.
        let released = life_entry(0, 0, "released_fin");
        entries.push((vec![Ternary::ANY, state(SlotState::OwnerRelease)], 8, released));
        let clear = life_entry(0, 0, "resubmit_clear");
        entries.push((vec![Ternary::exact(1, 1), Ternary::ANY], 5, clear));
        let t_life = self.b.add_table(
            TableSpec::ternary("lifecycle", vec![f.is_resubmit, m.state], 11),
            stage::LIFECYCLE,
        );
        for (key, prio, action) in entries {
            self.b.add_ternary_entry(t_life, key, prio, action)?;
        }
        Ok((t_life, r_pressure))
    }

    /// Stage 3: registers `r.sid` (stored as `sid − 1`, so a zeroed slot
    /// starts in subtree 1), `r.pkt_count` and `r.win_count`, and exact
    /// tables `sid` on `[is_resubmit, claim]` and `pkt_count`,
    /// `win_count` on `[is_resubmit, claim, alien]`. Claim packets write
    /// first-packet state in-pass (fresh = op(0, x)); alien packets read
    /// without modifying.
    fn state(&mut self) -> Result<(), CompileError> {
        let r_sid = self.register("r.sid", 8, stage::STATE);
        let r_pkt = self.register("r.pkt_count", 24, stage::STATE);
        let r_win = self.register("r.win_count", 16, stage::STATE);
        let (f, m) = (self.f, &self.m);
        let (zero, one) = (Source::Const(0), Source::Const(1));
        let sid = |name: &str, op, operand, out| {
            Action::new(name)
                .with(self.rmw(r_sid, op, operand, Some((m.sid, out))))
                .with(Primitive::Add { dst: m.sid, a: Source::Field(m.sid), b: one })
        };
        let sid_entries = vec![
            (vec![0, 0], sid("read_sid", AluOp::Read, zero, AluOut::Old)),
            // Claiming a (possibly recycled) slot restarts it in subtree 1:
            // the stored form is sid − 1, so write 0 and read back 1.
            (vec![0, 1], sid("claim_sid", AluOp::Write, zero, AluOut::New)),
            // Resubmitted passes always carry claim = 0 (the lifecycle MAT's
            // resubmit_clear entry), so [1, 0] is the only resubmit key.
            (vec![1, 0], sid("write_sid", AluOp::Write, Source::Field(m.next_store), AluOut::New)),
        ];
        let counter = |reg, name: &str, op, operand, out| {
            Action::new(name).with(self.rmw(reg, op, operand, out))
        };
        let pkt = |out| Some((m.pkt_count, out));
        let pkt_read = counter(r_pkt, "read", AluOp::Read, zero, pkt(AluOut::Old));
        let pkt_entries = vec![
            (vec![0, 0, 0], counter(r_pkt, "inc", AluOp::Add, one, pkt(AluOut::New))),
            (vec![0, 1, 0], counter(r_pkt, "claim", AluOp::Write, one, pkt(AluOut::New))),
            (vec![0, 0, 1], pkt_read.clone()),
            (vec![1, 0, 0], pkt_read),
        ];
        let win = |out| Some((m.win_count, out));
        let win_entries = vec![
            (vec![0, 0, 0], counter(r_win, "inc", AluOp::Add, one, win(AluOut::New))),
            (vec![0, 1, 0], counter(r_win, "claim", AluOp::Write, one, win(AluOut::New))),
            (vec![0, 0, 1], counter(r_win, "peek", AluOp::Read, zero, win(AluOut::Old))),
            (vec![1, 0, 0], counter(r_win, "reset", AluOp::Write, zero, None)),
        ];
        let (sid_key, counter_key) =
            (vec![f.is_resubmit, m.claim], vec![f.is_resubmit, m.claim, m.alien]);
        self.exact_table(TableSpec::exact("sid", sid_key, 4), stage::STATE, sid_entries)?;
        let pkt_spec = TableSpec::exact("pkt_count", counter_key.clone(), 4);
        self.exact_table(pkt_spec, stage::STATE, pkt_entries)?;
        self.exact_table(TableSpec::exact("win_count", counter_key, 4), stage::STATE, win_entries)
    }

    /// Stage 4, per dependency scope `s` in `all` / `fwd` / `bwd`:
    /// register `r.last_s` and exact table `last_s` on `[is_resubmit,
    /// claim, alien]`, plus `dir` for a directed scope. In-scope packets
    /// write `m.now` and export the old cell to `m.last_s`. Claim packets
    /// overwrite the (possibly stale) cell and export 0 — exactly what a
    /// pristine slot would have exported — so validity bits downstream
    /// see a fresh flow; alien packets read without modifying.
    fn deps(&mut self) -> Result<(), CompileError> {
        for DepRegister::LastTs(s) in self.deps.clone() {
            let tag = scope_tag(s);
            let reg = self.register(format!("r.last_{tag}"), 32, stage::DEP);
            let (f, m) = (self.f, &self.m);
            let out = m.dep[&s].last;
            let (now, zero) = (Source::Field(m.now), Source::Const(0));
            let rmw = |name: &str, op, operand, export: bool| {
                Action::new(name).with(self.rmw(
                    reg,
                    op,
                    operand,
                    export.then_some((out, AluOut::Old)),
                ))
            };
            let claim = |name: &str, operand| {
                rmw(name, AluOp::Write, operand, false).with(Primitive::set_const(out, 0))
            };
            let (key, capacity, entries) = match s {
                Scope::All => (
                    vec![f.is_resubmit, m.claim, m.alien],
                    4,
                    vec![
                        (vec![0, 0, 0], rmw("upd", AluOp::Write, now, true)),
                        (vec![0, 1, 0], claim("claim", now)),
                        (vec![0, 0, 1], rmw("peek", AluOp::Read, zero, true)),
                        (vec![1, 0, 0], rmw("reset", AluOp::Write, zero, false)),
                    ],
                ),
                Scope::Fwd | Scope::Bwd => {
                    let want = u64::from(s == Scope::Fwd);
                    let mut entries = vec![
                        (vec![0, 0, 0, want], rmw("upd", AluOp::Write, now, true)),
                        (vec![0, 0, 0, 1 - want], rmw("read", AluOp::Read, zero, true)),
                        (vec![0, 1, 0, want], claim("claim_upd", now)),
                        (vec![0, 1, 0, 1 - want], claim("claim_rst", zero)),
                    ];
                    for dir in [0u64, 1] {
                        entries.push((vec![0, 0, 1, dir], rmw("peek", AluOp::Read, zero, true)));
                        entries.push((vec![1, 0, 0, dir], rmw("reset", AluOp::Write, zero, false)));
                    }
                    (vec![f.is_resubmit, m.claim, m.alien, m.dir], 8, entries)
                }
            };
            self.exact_table(
                TableSpec::exact(format!("last_{tag}"), key, capacity),
                stage::DEP,
                entries,
            )?;
        }
        Ok(())
    }

    /// Stage 5, no registers. Table `compute` (default only) derives
    /// `m.diff_win`, `m.diff_flow` and per scope the capped `m.iat_*` and
    /// `m.neg_iat_*`. Tables `valid_*` (per scope: `m.valid_* = last ≠
    /// 0`), `win_first` (`m.win_first = win_count == 1`) and `boundary`
    /// (`m.boundary`, `m.final`) follow.
    fn compute(&mut self) -> Result<(), CompileError> {
        let (f, m) = (self.f, &self.m);
        let t_compute =
            self.b.add_table(TableSpec::ternary("compute", vec![f.is_resubmit], 2), stage::COMPUTE);
        let mut compute = Action::new("compute")
            .with(Primitive::Sub {
                dst: m.diff_win,
                a: Source::Field(m.win_count),
                b: Source::Field(m.window_len),
            })
            .with(Primitive::Sub {
                dst: m.diff_flow,
                a: Source::Field(m.pkt_count),
                b: Source::Field(f.flow_size),
            });
        for DepRegister::LastTs(s) in &self.deps {
            let d = &m.dep[s];
            compute = compute
                .with(Primitive::Sub {
                    dst: d.iat,
                    a: Source::Field(m.now),
                    b: Source::Field(d.last),
                })
                .with(Primitive::Min {
                    dst: d.iat,
                    a: Source::Field(d.iat),
                    b: Source::Const(FEATURE_CAP),
                })
                .with(Primitive::Sub {
                    dst: d.neg_iat,
                    a: Source::Const(FEATURE_CAP),
                    b: Source::Field(d.iat),
                });
        }
        self.b.set_default(t_compute, compute);
        for DepRegister::LastTs(s) in &self.deps {
            let d = &m.dep[s];
            let t = self.b.add_table(
                TableSpec::ternary(format!("valid_{}", scope_tag(*s)), vec![d.last], 2),
                stage::COMPUTE,
            );
            self.b.add_ternary_entry(
                t,
                vec![Ternary::exact(0, 32)],
                1,
                Action::new("invalid").with(Primitive::set_const(d.valid, 0)),
            )?;
            self.b.set_default(t, Action::new("valid").with(Primitive::set_const(d.valid, 1)));
        }
        let t_first =
            self.b.add_table(TableSpec::ternary("win_first", vec![m.win_count], 2), stage::COMPUTE);
        self.b.add_ternary_entry(
            t_first,
            vec![Ternary::exact(1, 16)],
            1,
            Action::new("first").with(Primitive::set_const(m.win_first, 1)),
        )?;
        self.b.set_default(
            t_first,
            Action::new("not_first").with(Primitive::set_const(m.win_first, 0)),
        );

        let t_boundary = self.b.add_table(
            TableSpec::ternary(
                "boundary",
                vec![f.is_resubmit, m.alien, m.diff_win, m.diff_flow],
                5,
            ),
            stage::COMPUTE,
        );
        let set = |name: &str, boundary: u64, is_final: u64| {
            Action::new(name)
                .with(Primitive::set_const(m.boundary, boundary))
                .with(Primitive::set_const(m.is_final, is_final))
        };
        let (any, first) = (Ternary::ANY, Ternary::exact(0, 1));
        // Alien packets never reach the model MAT: their counters were not
        // advanced, so any boundary they would signal is the owner's, not
        // theirs.
        let entries = [
            (vec![any, Ternary::exact(1, 1), any, any], 20, set("alien_none", 0, 0)),
            (vec![first, any, any, Ternary::exact(0, 24)], 10, set("final", 1, 1)),
            (vec![first, any, Ternary::exact(0, 16), any], 5, set("window", 1, 0)),
        ];
        let none = set("none", 0, 0);
        for (key, prio, action) in entries {
            self.b.add_ternary_entry(t_boundary, key, prio, action)?;
        }
        self.b.set_default(t_boundary, none);
        Ok(())
    }

    /// Stage 6, per slot `i`: fields `m.fval_i` and `m.mark_i`, register
    /// `r.slot_i` and table `slot_i`, the operator-selection MAT. Its key
    /// is `[is_resubmit, claim, alien, sid, dir, tcp_flags, frame_len,
    /// payload, win_first, valid…]` (see [`guard_keys`]); its entries are
    /// the lifecycle catch entries ([`Compiler::catch_entries`]) and each
    /// bound feature's guarded operator ([`Compiler::operator_entries`]);
    /// its default loads the cell into `m.fval_i`.
    fn slots(&mut self) -> Result<Vec<SlotMeta>, CompileError> {
        let (f, m) = (self.f, &self.m);
        let mut slot_key = vec![
            f.is_resubmit,
            m.claim,
            m.alien,
            m.sid,
            m.dir,
            f.tcp_flags,
            f.frame_len,
            m.payload,
            m.win_first,
        ];
        slot_key.extend(self.deps.iter().map(|DepRegister::LastTs(s)| m.dep[s].valid));
        let k = self.tree.config.k;
        let mut slots = Vec::with_capacity(k);
        let mut entries = Vec::with_capacity(k);
        for slot in 0..k {
            let fval = self.b.add_meta(format!("m.fval_{slot}"), 32);
            let mark =
                self.b.add_meta(format!("m.mark_{slot}"), self.summary.slot_mark_bits[slot].max(1));
            let reg = self.register(format!("r.slot_{slot}"), 32, stage::SLOT);
            let meta = SlotMeta { fval, mark, reg };
            entries.push(self.catch_entries(&meta, slot_key.len()));
            slots.push(meta);
        }
        self.operator_entries(&slots, slot_key.len(), &mut entries)?;
        for (slot, (meta, entries)) in slots.iter().zip(entries).enumerate() {
            let n = entries.len().min(MAX_SLOT_TABLE_ENTRIES);
            let table = self.b.add_table(
                TableSpec::ternary(format!("slot_{slot}"), slot_key.clone(), n.max(1)),
                stage::SLOT,
            );
            let load =
                self.rmw(meta.reg, AluOp::Read, Source::Const(0), Some((meta.fval, AluOut::New)));
            self.b.set_default(table, Action::new("load").with(load));
            for (key, prio, action) in entries {
                self.b.add_ternary_entry(table, key, prio, action)?;
            }
        }
        Ok(slots)
    }

    /// A slot table's lifecycle catch entries, outranking or backing up
    /// every operator: resubmitted passes reset the cell, alien packets
    /// only load it, and claim packets no operator fires for reset it.
    fn catch_entries(&self, slot: &SlotMeta, key_len: usize) -> Vec<PendingEntry> {
        // Sets 1-bit key positions: 0 is_resubmit, 1 claim, 2 alien.
        let key = |bits: &[(usize, u64)]| {
            let mut key = vec![Ternary::ANY; key_len];
            for &(i, v) in bits {
                key[i] = Ternary::exact(v, 1);
            }
            key
        };
        let action = |name: &str, op, out| {
            Action::new(name).with(self.rmw(slot.reg, op, Source::Const(0), out))
        };
        let load = Some((slot.fval, AluOut::New));
        vec![
            // reset on resubmission
            (key(&[(0, 1)]), 1_000_000, action("reset", AluOp::Write, None)),
            // alien packets must never run an operator: read-only load
            (key(&[(0, 0), (2, 1)]), 900_000, action("alien_load", AluOp::Read, load)),
            // claim packets whose (sid = 1) operator guard does not fire still
            // reset the recycled cell to fresh state
            (key(&[(0, 0), (1, 1)]), 50, action("claim_reset", AluOp::Write, load)),
        ]
    }

    /// Appends each binding's operator-selection entries to its slot's:
    /// one per guard key at priority 100 and, in SID 1, a claim twin per
    /// key at priority 200.
    fn operator_entries(
        &self,
        slots: &[SlotMeta],
        key_len: usize,
        entries: &mut [Vec<PendingEntry>],
    ) -> Result<(), CompileError> {
        let valid_pos: BTreeMap<Scope, usize> = self
            .deps
            .iter()
            .enumerate()
            .map(|(i, DepRegister::LastTs(s))| (*s, SLOT_KEY_FIXED + i))
            .collect();
        for (&(sid, slot), binding) in &self.bindings {
            let meta = &slots[slot];
            let (guard, op, operand) = self.operator(binding)?;
            let out = Some((meta.fval, AluOut::New));
            let action = Action::new(format!("s{sid}_f{}", binding.feature))
                .with(self.rmw(meta.reg, op, operand, out));
            for key in guard_keys(&guard, sid, key_len, &valid_pos) {
                entries[slot].push((key, 100, action.clone()));
            }
            // Claim packets land in subtree 1 over a just-reset cell, so the
            // first-packet update folds into one RMW: fresh = op(0, x) = x for
            // every slot operator (Add, Max, Write) ⇒ the claim twin writes
            // the operand outright.
            if sid == 1 {
                let claim = Action::new(format!("claim_s{sid}_f{}", binding.feature))
                    .with(self.rmw(meta.reg, AluOp::Write, operand, out));
                for mut key in guard_keys(&guard, sid, key_len, &valid_pos) {
                    key[1] = Ternary::exact(1, 1);
                    entries[slot].push((key, 200, claim.clone()));
                }
            }
        }
        Ok(())
    }

    /// A binding's guard, ALU op and operand. A stateless feature writes
    /// its (canonicalized) field on every packet.
    fn operator(&self, binding: &Binding) -> Result<(Guard, AluOp, Source), CompileError> {
        let (f, m) = (self.f, &self.m);
        Ok(match &binding.kind {
            BindKind::Slot(prog) => {
                let op = match prog.op {
                    UpdateOp::Add => AluOp::Add,
                    UpdateOp::Max => AluOp::Max,
                    UpdateOp::Write => AluOp::Write,
                };
                (prog.guard, op, self.operand(prog.operand)?)
            }
            BindKind::Stateless(k) => {
                let field = match k {
                    StatelessKind::FrameLen => f.frame_len,
                    StatelessKind::Ttl => f.ttl,
                    StatelessKind::TcpFlags => f.tcp_flags,
                    StatelessKind::SrcPort => m.csport,
                    StatelessKind::DstPort => m.cdport,
                    StatelessKind::Proto => f.ip_proto,
                };
                (Guard::scope(Scope::All), AluOp::Write, Source::Field(field))
            }
        })
    }

    /// The source a slot operand reads.
    fn operand(&self, op: Operand) -> Result<Source, CompileError> {
        let dep = |s: Scope, what: &str| {
            self.m
                .dep
                .get(&s)
                .ok_or_else(|| CompileError::InvalidModel(format!("missing {what} dep")))
        };
        Ok(match op {
            Operand::One => Source::Const(1),
            Operand::FrameLen => Source::Field(self.f.frame_len),
            Operand::NegFrameLen => Source::Field(self.m.neg_len),
            Operand::HdrLen => Source::Const(58), // fixed L2+shim+L3+L4 header
            Operand::PayloadLen => Source::Field(self.m.payload),
            Operand::NowUs => Source::Field(self.m.now),
            Operand::Iat(s) => Source::Field(dep(s, "iat")?.iat),
            Operand::NegIat(s) => Source::Field(dep(s, "neg iat")?.neg_iat),
        })
    }

    /// Stage 7, gated on `m.boundary`, no registers: tables `load_i`,
    /// exact on `m.sid`, one entry per bound `(sid, i)` that applies the
    /// feature's load transform to `m.fval_i` ([`load_action`]).
    fn loads(&mut self, slots: &[SlotMeta]) -> Result<(), CompileError> {
        let mut tables = Vec::with_capacity(slots.len());
        for slot in 0..slots.len() {
            let spec = TableSpec::exact(format!("load_{slot}"), vec![self.m.sid], 512);
            let t = self.b.add_table(spec, stage::LOAD);
            self.b.gate_table(t, self.m.boundary);
            tables.push(t);
        }
        for (&(sid, slot), binding) in &self.bindings {
            let load = match &binding.kind {
                BindKind::Slot(prog) => prog.load,
                BindKind::Stateless(_) => LoadTransform::Identity,
            };
            let action = load_action(load, slots[slot].fval, self.m.now);
            self.b.add_exact_entry(tables[slot], vec![sid as u64], action)?;
        }
        Ok(())
    }

    /// Stage 8, gated on `m.boundary`, no registers: tables `keygen_i` on
    /// `[sid, m.fval_i]`, one entry per Range-Marking rule of slot `i`'s
    /// feature, setting `m.mark_i` (default 0).
    fn keygen(&mut self, slots: &[SlotMeta]) -> Result<(), CompileError> {
        let mut entries: Vec<Vec<PendingEntry>> = vec![Vec::new(); slots.len()];
        for (sid, rules) in &self.summary.subtree_rules {
            let assignment = slot_assignment(&rules.features);
            for ft in &rules.feature_tables {
                let slot = assignment[&ft.feature];
                for rule in &ft.rules {
                    entries[slot].push((
                        vec![
                            Ternary::exact(*sid as u64, 8),
                            Ternary::new(rule.prefix.value, rule.prefix.mask),
                        ],
                        10,
                        Action::new("mark").with(Primitive::set_const(slots[slot].mark, rule.mark)),
                    ));
                }
            }
        }
        for (slot, (meta, entries)) in slots.iter().zip(entries).enumerate() {
            let t = self.b.add_table(
                TableSpec::ternary(
                    format!("keygen_{slot}"),
                    vec![self.m.sid, meta.fval],
                    entries.len().max(1),
                ),
                stage::KEYGEN,
            );
            self.b.gate_table(t, self.m.boundary);
            self.b.set_default(t, Action::new("zero").with(Primitive::set_const(meta.mark, 0)));
            for (key, prio, action) in entries {
                self.b.add_ternary_entry(t, key, prio, action)?;
            }
        }
        Ok(())
    }

    /// Stage 9, gated on `m.boundary`, no registers: table `model` on
    /// `[boundary, final, sid, mark…]`. Per leaf, a flow-end entry and,
    /// below the last partition, a progress entry (`advance` into the
    /// next subtree or `early_exit`). Returns the table.
    fn model(&mut self, slots: &[SlotMeta]) -> Result<TableId, CompileError> {
        let m = &self.m;
        let k = slots.len();
        let mut model_key = vec![m.boundary, m.is_final, m.sid];
        model_key.extend(slots.iter().map(|s| s.mark));
        let mut entries: Vec<PendingEntry> = Vec::new();
        for (sid, rules) in &self.summary.subtree_rules {
            let st = self.tree.subtree(*sid);
            let assignment = slot_assignment(&rules.features);
            let last_partition = st.partition + 1 == self.tree.n_partitions();
            for mr in &rules.model {
                // build mark patterns positioned by slot
                let mut key_progress = vec![Ternary::ANY; 3 + k];
                key_progress[0] = Ternary::exact(1, 1); // boundary
                key_progress[1] = Ternary::exact(0, 1); // not final
                key_progress[2] = Ternary::exact(*sid as u64, 8);
                let mut key_final = vec![Ternary::ANY; 3 + k];
                key_final[1] = Ternary::exact(1, 1); // final
                key_final[2] = Ternary::exact(*sid as u64, 8);
                for (fi, &(val, mask)) in mr.mark_patterns.iter().enumerate() {
                    let slot = assignment[&rules.features[fi]];
                    key_progress[3 + slot] = Ternary::new(val, mask);
                    key_final[3 + slot] = Ternary::new(val, mask);
                }
                let target = st.leaf_targets[mr.leaf_index as usize];
                // flow-end entry: digest the best-known class, then resubmit
                // with the DONE sentinel so the decide pass marks the
                // ownership lane (slot becomes reclaimable) and parks the SID
                // register on 255.
                let final_class = match target {
                    LeafTarget::Class(c) => c,
                    LeafTarget::Next { fallback, .. } => fallback,
                };
                entries.push((
                    key_final,
                    20,
                    Action::new("flow_end")
                        .with(Primitive::set_const(m.class, final_class as u64))
                        .with(Primitive::Digest)
                        .with(Primitive::set_const(m.next_sid, 255))
                        .with(Primitive::Resubmit),
                ));
                // progress entry (skip for last partition: classification there
                // only happens at flow end)
                if !last_partition {
                    let action = match target {
                        LeafTarget::Next { sid: next, fallback } => Action::new("advance")
                            .with(Primitive::set_const(m.next_sid, next as u64))
                            .with(Primitive::set_const(m.class, fallback as u64))
                            .with(Primitive::Resubmit),
                        LeafTarget::Class(c) => Action::new("early_exit")
                            .with(Primitive::set_const(m.class, c as u64))
                            .with(Primitive::Digest)
                            // DONE sentinel: stored 254 → sid 255, which no
                            // table entry matches.
                            .with(Primitive::set_const(m.next_sid, 255))
                            .with(Primitive::Resubmit),
                    };
                    entries.push((key_progress, 10, action));
                }
            }
        }
        let t_model = self
            .b
            .add_table(TableSpec::ternary("model", model_key, entries.len().max(1)), stage::MODEL);
        self.b.gate_table(t_model, m.boundary);
        for (key, prio, action) in entries {
            self.b.add_ternary_entry(t_model, key, prio, action)?;
        }
        Ok(t_model)
    }

    /// Declares the digest and the resubmit limit, builds the program and
    /// checks that every register shares the flow-slot domain.
    fn finish(
        mut self,
        owner_reg: RegId,
        pressure_reg: RegId,
        lifecycle_table: TableId,
        model_table: TableId,
    ) -> Result<CompiledModel, CompileError> {
        let (f, m) = (self.f, &self.m);
        // The canonical register slot (m.flow_idx) rides in the digest so the
        // controller can attribute verdicts exactly, even when initiator IPs
        // repeat across flows; the fingerprint (m.fp) and flow-end flag
        // (m.final) ride along so the controller can compare-and-release the
        // decided ownership lane when the flow is truly over.
        let digest = vec![f.ipv4_src, f.ipv4_dst, m.class, m.sid, m.flow_idx, m.fp, m.is_final];
        self.b.set_digest_fields(digest);
        self.b.set_resubmit_limit(4);
        let program = self.b.build()?;
        let flow_slots = self.opts.flow_slots;
        // Every compiled register is flow-indexed by the canonical slot hash,
        // so all of them must share the `flow_slots` domain — that is what
        // lets the execution plan coalesce the ownership lane, the pressure
        // counter and every per-partition state register into one
        // cache-line bank, the one thing the wave executor prefetches. A
        // register with a different depth would silently fall out of the
        // bank into an unprefetched split array, so fail compilation instead.
        if let Some(spec) = program.registers().iter().find(|s| s.len != flow_slots) {
            return Err(CompileError::Unsupported(format!(
                "register '{}' has depth {} but the flow-slot domain is {flow_slots}; \
                 all per-flow registers must share one slot domain to bank",
                spec.name, spec.len
            )));
        }
        Ok(CompiledModel {
            program,
            io: CompiledIo {
                fields: f,
                flow_slots,
                idle_timeout_us: self.opts.idle_timeout_us,
                policy: self.opts.policy.clone(),
                digest_src: 0,
                digest_class: 2,
                digest_sid: 3,
                digest_flow_idx: 4,
                digest_fp: 5,
                digest_final: 6,
                model_table,
                owner_reg,
                pressure_reg,
                lifecycle_table,
                lifecycle_entries: LIFECYCLE_ENTRIES,
            },
            summary: self.summary,
        })
    }
}

/// The stage-7 load transform of `fval`: `cap` (`Identity`), `negcap`
/// (`NegCap`) or `since` (`SinceTs`, against `now`).
fn load_action(load: LoadTransform, fval: FieldId, now: FieldId) -> Action {
    let cap = Primitive::Min { dst: fval, a: Source::Field(fval), b: Source::Const(FEATURE_CAP) };
    match load {
        LoadTransform::Identity => Action::new("cap").with(cap),
        LoadTransform::NegCap => Action::new("negcap").with(cap).with(Primitive::Sub {
            dst: fval,
            a: Source::Const(FEATURE_CAP),
            b: Source::Field(fval),
        }),
        LoadTransform::SinceTs => Action::new("since")
            .with(Primitive::Sub { dst: fval, a: Source::Field(now), b: Source::Field(fval) })
            .with(cap),
    }
}

fn scope_tag(s: Scope) -> &'static str {
    match s {
        Scope::All => "all",
        Scope::Fwd => "fwd",
        Scope::Bwd => "bwd",
    }
}

/// Expands a slot guard into ternary keys over the slot-table key layout:
/// `[is_resubmit, claim, alien, sid, dir, tcp_flags, frame_len, payload,
/// win_first, valid…]`. Claim and alien are left wildcard — the lifecycle
/// catch entries (priorities 900 000 / 200 / 50) disambiguate.
fn guard_keys(
    guard: &Guard,
    sid: u16,
    key_len: usize,
    valid_pos: &BTreeMap<Scope, usize>,
) -> Vec<Vec<Ternary>> {
    let mut base = vec![Ternary::ANY; key_len];
    base[0] = Ternary::exact(0, 1);
    base[3] = Ternary::exact(sid as u64, 8);
    match guard.scope {
        Scope::All => {}
        Scope::Fwd => base[4] = Ternary::exact(1, 1),
        Scope::Bwd => base[4] = Ternary::exact(0, 1),
    }
    if guard.flags_mask != 0 {
        base[5] = Ternary::new(guard.flags_mask as u64, guard.flags_mask as u64);
    }
    if guard.win_first_only {
        base[8] = Ternary::exact(1, 1);
    }
    if let Some(s) = guard.require_prev {
        let pos = valid_pos[&s];
        base[pos] = Ternary::exact(1, 1);
    }
    // range guards expand into prefix cross products
    let len_prefixes = match guard.len_range {
        Some((lo, hi)) => range_to_prefixes(lo as u64, hi as u64, 16),
        None => vec![splidt_ranging::Prefix { value: 0, mask: 0 }],
    };
    let payload_prefixes = match guard.payload_range {
        Some((lo, hi)) => range_to_prefixes(lo as u64, hi as u64, 16),
        None => vec![splidt_ranging::Prefix { value: 0, mask: 0 }],
    };
    let mut out = Vec::with_capacity(len_prefixes.len() * payload_prefixes.len());
    for lp in &len_prefixes {
        for pp in &payload_prefixes {
            let mut key = base.clone();
            key[6] = Ternary::new(lp.value, lp.mask);
            key[7] = Ternary::new(pp.value, pp.mask);
            out.push(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplidtConfig;
    use crate::model::Subtree;
    use crate::train::train_partitioned;
    use splidt_dataplane::table::EntryKey;
    use splidt_dt::tree::{Node, Tree};
    use splidt_flow::{
        generate, select_flows, spec, stratified_split, windowed_dataset, DatasetId,
    };

    fn small_model() -> PartitionedTree {
        let flows = generate(DatasetId::D2, 300, 21);
        let (tr, _) = stratified_split(&flows, 0.3, 5);
        let wd =
            windowed_dataset(&select_flows(&flows, &tr), 3, spec(DatasetId::D2).n_classes as usize);
        let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
        train_partitioned(&wd, &cfg, &catalog().hardware_eligible())
    }

    #[test]
    fn compiles_and_fits_tofino1() {
        let model = small_model();
        let compiled = compile(&model, 1 << 14).expect("compiles");
        assert!(compiled.program.stages().len() <= 10);
        let report = splidt_dataplane::resources::check(
            &compiled.program,
            &splidt_dataplane::resources::TargetSpec::tofino1(),
        );
        assert!(report.feasible(), "violations: {:?}", report.violations);
        assert!(compiled.program.tcam_entries() > 0);
    }

    /// The boundary gate costs one gateway in each of stages 7–9 (load,
    /// keygen, model) and none anywhere else.
    #[test]
    fn boundary_stages_count_one_gateway_each() {
        let compiled = compile(&small_model(), 1 << 14).expect("compiles");
        let report = splidt_dataplane::resources::check(
            &compiled.program,
            &splidt_dataplane::resources::TargetSpec::tofino1(),
        );
        let gateways: Vec<usize> = report.per_stage.iter().map(|u| u.gateways).collect();
        let mut want = vec![0; gateways.len()];
        want[stage::LOAD..=stage::MODEL].fill(1);
        assert_eq!(gateways, want);
    }

    #[test]
    fn rules_summary_accounting() {
        let model = small_model();
        let s = model_rules(&model);
        assert_eq!(s.subtree_rules.len(), model.n_subtrees());
        assert_eq!(s.tcam_entries, s.feature_entries + s.model_entries);
        let total_leaves: usize = model.subtrees.iter().map(|st| st.tree.n_leaves() as usize).sum();
        assert_eq!(s.model_entries, total_leaves);
        assert!(s.model_key_bits >= 10);
    }

    #[test]
    fn rejects_bad_flow_slots() {
        let model = small_model();
        assert!(matches!(compile(&model, 1000), Err(CompileError::Unsupported(_))));
    }

    #[test]
    fn tcp_policy_compiles_and_fits() {
        let model = small_model();
        let opts = CompileOptions {
            flow_slots: 1 << 12,
            policy: LifecyclePolicy::tcp().pin_class(1).pin_class(3),
            ..Default::default()
        };
        let compiled = compile_with(&model, &opts).expect("compiles");
        assert_eq!(compiled.io.policy.pinned_classes, vec![1, 3]);
        assert!(compiled.io.policy.tcp_aware);
        assert!(compiled.program.stages().len() <= 10, "policy adds entries, not stages");
        let report = splidt_dataplane::resources::check(
            &compiled.program,
            &splidt_dataplane::resources::TargetSpec::tofino1(),
        );
        assert!(report.feasible(), "violations: {:?}", report.violations);
    }

    #[test]
    fn rejects_bad_lifecycle_policies() {
        let model = small_model();
        // Pinned class outside the model's class set.
        let opts =
            CompileOptions { policy: LifecyclePolicy::tcp().pin_class(200), ..Default::default() };
        assert!(matches!(compile_with(&model, &opts), Err(CompileError::Unsupported(_))));
        let opts = CompileOptions {
            policy: LifecyclePolicy::tcp().pin_class(model.n_classes as u16),
            ..Default::default()
        };
        assert!(matches!(compile_with(&model, &opts), Err(CompileError::InvalidModel(_))));
        // A pinned timeout weaker than the idle timeout is a policy bug —
        // but only once something is actually pinned; the flow-agnostic
        // default must keep accepting any idle timeout.
        let opts = CompileOptions {
            idle_timeout_us: 1_000_000,
            policy: LifecyclePolicy::flow_agnostic().pin_class(1).pinned_timeout_us(10),
            ..Default::default()
        };
        assert!(matches!(compile_with(&model, &opts), Err(CompileError::Unsupported(_))));
        let opts = CompileOptions {
            idle_timeout_us: 30_000_000, // above DEFAULT_PINNED_TIMEOUT_US
            policy: LifecyclePolicy::flow_agnostic(),
            ..Default::default()
        };
        assert!(compile_with(&model, &opts).is_ok(), "nothing pinned: any idle timeout is fine");
    }

    #[test]
    fn pin_class_dedupes_and_sorts() {
        let p = LifecyclePolicy::flow_agnostic().pin_class(3).pin_class(1).pin_class(3);
        assert_eq!(p.pinned_classes, vec![1, 3]);
    }

    #[test]
    fn guard_key_expansion() {
        let g = Guard {
            scope: Scope::Fwd,
            flags_mask: 0x08,
            len_range: Some((0, 128)),
            payload_range: None,
            require_prev: None,
            win_first_only: false,
        };
        let keys = guard_keys(&g, 3, 10, &BTreeMap::new());
        assert!(!keys.is_empty());
        for k in &keys {
            assert_eq!(k[0], Ternary::exact(0, 1), "first-pass only");
            assert_eq!(k[1], Ternary::ANY, "claim left to catch entries");
            assert_eq!(k[2], Ternary::ANY, "alien left to catch entries");
            assert_eq!(k[3], Ternary::exact(3, 8));
            assert_eq!(k[4], Ternary::exact(1, 1));
            assert_eq!(k[5], Ternary::new(0x08, 0x08));
        }
    }

    /// A one-subtree model on catalogue feature `name` alone, compiled;
    /// returns the feature's catalogue index too.
    fn compile_feature(name: &str) -> (usize, CompiledModel) {
        let cat = catalog();
        let f = cat.defs().iter().position(|d| d.name == name).expect("catalogue feature");
        let tree = Tree::from_arena(
            vec![
                Node::Split { feature: f, threshold: 100.0, left: 1, right: 2 },
                Node::Leaf { label: 0, n_samples: 1, leaf_index: 0 },
                Node::Leaf { label: 1, n_samples: 1, leaf_index: 1 },
            ],
            0,
            cat.defs().len(),
        );
        let model = PartitionedTree {
            config: SplidtConfig { partitions: vec![1], k: 1, ..Default::default() },
            subtrees: vec![Subtree {
                sid: 1,
                partition: 0,
                tree,
                leaf_targets: vec![LeafTarget::Class(0), LeafTarget::Class(1)],
            }],
            n_classes: 2,
        };
        (f, compile(&model, 1 << 8).expect("compiles"))
    }

    /// Pins what feature `name`'s binding installs as a one-feature
    /// model's only feature. In `slot_0`: the SID-1 operator entry
    /// (priority 100, `op`) and its claim twin (priority 200, claim = 1,
    /// `Write`), both keyed on direction `dir` and window-first `first`
    /// and both one `RegRmw` of `operand` into `r.slot_0` exporting the
    /// new value to `m.fval_0`. In `load_0`: SID 1's `load` action.
    fn pin_arm(
        name: &str,
        (dir, first): (Ternary, Ternary),
        op: AluOp,
        operand: impl Fn(&CompiledModel) -> Source,
        load: impl Fn(&CompiledModel) -> Action,
    ) {
        let (f, c) = compile_feature(name);
        let p = &c.program;
        let field = |n: &str| p.layout().by_name(n).expect("field");
        let table = |n: &str| p.tables().iter().find(|t| t.spec().name == n).expect("table");
        let any = Ternary::ANY;
        let key = |claim| {
            vec![Ternary::exact(0, 1), claim, any, Ternary::exact(1, 8), dir, any, any, any, first]
        };
        let got: Vec<_> = table("slot_0")
            .entries()
            .iter()
            .filter(|e| e.action.name.ends_with(&format!("s1_f{f}")))
            .map(|e| (e.key.clone(), e.action.clone()))
            .collect();
        let want = [
            (format!("s1_f{f}"), key(any), 100, op),
            (format!("claim_s1_f{f}"), key(Ternary::exact(1, 1)), 200, AluOp::Write),
        ];
        assert_eq!(got.len(), want.len(), "{name}: {got:?}");
        for ((key, action), (w_name, w_key, w_prio, w_op)) in got.iter().zip(want) {
            let EntryKey::Ternary { fields, priority } = key else { panic!("ternary key") };
            assert_eq!((&action.name, fields, *priority), (&w_name, &w_key, w_prio), "{name}");
            let [Primitive::RegRmw { reg, index, op, operand: src, out }] = action.prims.as_slice()
            else {
                panic!("{name}: one RegRmw, got {:?}", action.prims)
            };
            assert_eq!(p.registers()[reg.index()].name, "r.slot_0", "{name}");
            assert_eq!(*index, Source::Field(field("m.flow_idx")), "{name}");
            assert_eq!((*op, *src), (w_op, operand(&c)), "{name}");
            assert_eq!(*out, Some((field("m.fval_0"), AluOut::New)), "{name}");
        }
        let loads: Vec<_> =
            table("load_0").entries().iter().map(|e| (e.key.clone(), e.action.clone())).collect();
        assert_eq!(loads.len(), 1, "{name}");
        assert!(matches!(&loads[0].0, EntryKey::Exact(v) if v == &[1]), "{name}");
        assert_eq!(loads[0].1, load(&c), "{name}");
    }

    /// Scope `All`, no window-first condition.
    const ALL: (Ternary, Ternary) = (Ternary::ANY, Ternary::ANY);

    /// `fval_0` capped at `FEATURE_CAP`: the `Identity` load.
    fn cap(c: &CompiledModel) -> Action {
        let fval = c.program.layout().by_name("m.fval_0").unwrap();
        Action::new("cap").with(Primitive::Min {
            dst: fval,
            a: Source::Field(fval),
            b: Source::Const(FEATURE_CAP),
        })
    }

    /// A stateless feature latches its field with `Write` on every
    /// packet: the operand is the field itself.
    fn pin_stateless(name: &str, field: impl Fn(&CompiledModel) -> FieldId) {
        pin_arm(name, ALL, AluOp::Write, |c| Source::Field(field(c)), cap);
    }

    #[test]
    fn stateless_frame_len_arm() {
        pin_stateless("pkt_len", |c| c.io.fields.frame_len);
    }

    #[test]
    fn stateless_ttl_arm() {
        pin_stateless("ttl", |c| c.io.fields.ttl);
    }

    #[test]
    fn stateless_tcp_flags_arm() {
        pin_stateless("tcp_flags", |c| c.io.fields.tcp_flags);
    }

    #[test]
    fn stateless_src_port_arm() {
        pin_stateless("src_port", |c| c.program.layout().by_name("m.csport").unwrap());
    }

    #[test]
    fn stateless_dst_port_arm() {
        pin_stateless("dst_port", |c| c.program.layout().by_name("m.cdport").unwrap());
    }

    #[test]
    fn stateless_proto_arm() {
        pin_stateless("proto", |c| c.io.fields.ip_proto);
    }

    /// `len_min` is a `Max` over `FEATURE_CAP − frame length`, loaded back
    /// through `NegCap`.
    #[test]
    fn operand_neg_frame_len_arm() {
        pin_arm(
            "len_min",
            ALL,
            AluOp::Max,
            |c| Source::Field(c.program.layout().by_name("m.neg_len").unwrap()),
            |c| {
                let fval = c.program.layout().by_name("m.fval_0").unwrap();
                Action { name: "negcap".into(), ..cap(c) }.with(Primitive::Sub {
                    dst: fval,
                    a: Source::Const(FEATURE_CAP),
                    b: Source::Field(fval),
                })
            },
        );
    }

    /// Header bytes are a constant 58 per packet, here on the forward
    /// direction only.
    #[test]
    fn operand_hdr_len_arm() {
        let fwd = (Ternary::exact(1, 1), Ternary::ANY);
        pin_arm("fwd_hdr_bytes", fwd, AluOp::Add, |_| Source::Const(58), cap);
    }

    /// `duration_us` writes `m.now` on a window's first packet and loads
    /// back `min(now − fval, FEATURE_CAP)`: the `NowUs` operand and the
    /// `SinceTs` load, the only catalogue feature with either.
    #[test]
    fn operand_now_us_and_load_since_ts_arms() {
        let first = (Ternary::ANY, Ternary::exact(1, 1));
        pin_arm(
            "duration_us",
            first,
            AluOp::Write,
            |c| Source::Field(c.program.layout().by_name("m.now").unwrap()),
            |c| {
                let layout = c.program.layout();
                let (fval, now) =
                    (layout.by_name("m.fval_0").unwrap(), layout.by_name("m.now").unwrap());
                Action::new("since")
                    .with(Primitive::Sub {
                        dst: fval,
                        a: Source::Field(now),
                        b: Source::Field(fval),
                    })
                    .with(Primitive::Min {
                        dst: fval,
                        a: Source::Field(fval),
                        b: Source::Const(FEATURE_CAP),
                    })
            },
        );
    }
}
