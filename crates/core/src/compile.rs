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

struct SlotMeta {
    fval: FieldId,
    mark: FieldId,
    table: TableId,
    reg: splidt_dataplane::register::RegId,
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

/// Compiles a partitioned tree with explicit [`CompileOptions`].
pub fn compile_with(
    model: &PartitionedTree,
    opts: &CompileOptions,
) -> Result<CompiledModel, CompileError> {
    let flow_slots = opts.flow_slots;
    model.validate().map_err(CompileError::InvalidModel)?;
    if model.config.k > 8 {
        return Err(CompileError::Unsupported("k > 8 feature slots".into()));
    }
    if !flow_slots.is_power_of_two() {
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
    let cat = catalog();
    let k = model.config.k;
    let p = model.n_partitions();
    let summary = model_rules(model);

    // (sid, slot) → binding
    let mut bindings: BTreeMap<(u16, usize), Binding> = BTreeMap::new();
    let mut deps: Vec<DepRegister> = Vec::new();
    for st in &model.subtrees {
        let feats = st.features();
        let slots = slot_assignment(&feats);
        for (&f, &slot) in &slots {
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

    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();

    // --- metadata fields
    let slot_bits_log2 = flow_slots.trailing_zeros() as u8;
    let m_flow_idx = b.add_meta("m.flow_idx", slot_bits_log2.max(1));
    let m_fp = b.add_meta("m.fp", FP_BITS as u8);
    let m_state = b.add_meta("m.state", SlotState::BITS);
    let m_claim = b.add_meta("m.claim", 1);
    let m_alien = b.add_meta("m.alien", 1);
    let m_sid = b.add_meta("m.sid", 8);
    let m_next_sid = b.add_meta("m.next_sid", 8);
    let m_next_store = b.add_meta("m.next_sid_store", 8);
    let m_class = b.add_meta("m.class", 8);
    let m_pkt_count = b.add_meta("m.pkt_count", 24);
    let m_win_count = b.add_meta("m.win_count", 16);
    let m_window_len = b.add_meta("m.window_len", 16);
    let m_dir = b.add_meta("m.dir", 1);
    let m_now = b.add_meta("m.now", 32);
    let m_payload = b.add_meta("m.payload", 16);
    let m_win_first = b.add_meta("m.win_first", 1);
    let m_boundary = b.add_meta("m.boundary", 1);
    let m_final = b.add_meta("m.final", 1);
    let m_diff_win = b.add_meta("m.diff_win", 16);
    let m_diff_flow = b.add_meta("m.diff_flow", 24);
    let mut m_last = BTreeMap::new();
    let mut m_iat = BTreeMap::new();
    let mut m_neg_iat = BTreeMap::new();
    let mut m_valid = BTreeMap::new();
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        let tag = scope_tag(*s);
        m_last.insert(*s, b.add_meta(format!("m.last_{tag}"), 32));
        m_iat.insert(*s, b.add_meta(format!("m.iat_{tag}"), 32));
        m_neg_iat.insert(*s, b.add_meta(format!("m.neg_iat_{tag}"), 32));
        m_valid.insert(*s, b.add_meta(format!("m.valid_{tag}"), 1));
    }
    let m_neg_len = b.add_meta("m.neg_len", 32);

    // --- registers
    let r_owner = b.add_register(RegisterSpec::new("r.owner", 64, flow_slots), stage::OWN);
    // Per-slot pressure counter: suppressed packets (live collisions,
    // unsolicited refusals, pinned defenses) per slot, bumped by the
    // lifecycle MAT in its own stage — the contention signal operators
    // size `flow_slots` from (`Engine::slot_pressure`).
    let r_pressure =
        b.add_register(RegisterSpec::new("r.pressure", 32, flow_slots), stage::LIFECYCLE);
    let r_sid = b.add_register(RegisterSpec::new("r.sid", 8, flow_slots), stage::STATE);
    let r_pkt = b.add_register(RegisterSpec::new("r.pkt_count", 24, flow_slots), stage::STATE);
    let r_win = b.add_register(RegisterSpec::new("r.win_count", 16, flow_slots), stage::STATE);
    let mut r_last = BTreeMap::new();
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        let tag = scope_tag(*s);
        r_last.insert(
            *s,
            b.add_register(RegisterSpec::new(format!("r.last_{tag}"), 32, flow_slots), stage::DEP),
        );
    }

    // --- stage 0: prep + direction
    let t_prep = b.add_table(TableSpec::ternary("prep", vec![fields.is_resubmit], 2), stage::PREP);
    b.set_default(
        t_prep,
        Action::new("prep")
            .with(Primitive::HashFlow { dst: m_flow_idx, mask: (flow_slots - 1) as u64, salt: 0 })
            // The ownership fingerprint: an independently salted hash,
            // forced nonzero (0 means "lane free").
            .with(Primitive::HashFlow { dst: m_fp, mask: FP_MASK, salt: FP_SALT })
            .with(Primitive::Max { dst: m_fp, a: Source::Field(m_fp), b: Source::Const(1) })
            .with(Primitive::Set { dst: m_now, src: Source::Field(fields.ts_us) })
            .with(Primitive::DivConst {
                dst: m_window_len,
                a: Source::Field(fields.flow_size),
                divisor: p as u64,
            })
            .with(Primitive::Max {
                dst: m_window_len,
                a: Source::Field(m_window_len),
                b: Source::Const(1),
            })
            .with(Primitive::Sub {
                dst: m_payload,
                a: Source::Field(fields.ip_len),
                b: Source::Const(40),
            })
            .with(Primitive::Sub {
                dst: m_neg_len,
                a: Source::Const(FEATURE_CAP),
                b: Source::Field(fields.frame_len),
            })
            // The SID register stores `sid − 1` so that zero-initialized
            // flow slots start in subtree 1 without a per-flow init pass;
            // precompute the stored form of next_sid for resubmissions.
            .with(Primitive::Sub {
                dst: m_next_store,
                a: Source::Field(m_next_sid),
                b: Source::Const(1),
            }),
    );
    let m_csport = b.add_meta("m.csport", 16);
    let m_cdport = b.add_meta("m.cdport", 16);
    let t_dir = b.add_table(TableSpec::ternary("dir", vec![fields.dport], 4), stage::PREP);
    // dport < 1024 ⇒ toward the service ⇒ forward direction. Canonical
    // (initiator-oriented) ports are derived alongside.
    b.add_ternary_entry(
        t_dir,
        vec![Ternary::new(0, !0x3FFu64 & 0xFFFF)],
        1,
        Action::new("fwd")
            .with(Primitive::set_const(m_dir, 1))
            .with(Primitive::set_field(m_csport, fields.sport))
            .with(Primitive::set_field(m_cdport, fields.dport)),
    )?;
    b.set_default(
        t_dir,
        Action::new("bwd")
            .with(Primitive::set_const(m_dir, 0))
            .with(Primitive::set_field(m_csport, fields.dport))
            .with(Primitive::set_field(m_cdport, fields.sport)),
    );

    // --- stage 1: the ownership lane. One dual-ALU update per pass,
    // dispatched by the lifecycle policy's MAT entries: first passes
    // probe (claim permission per entry — the TCP-aware policy grants it
    // only to SYN packets), the DONE-sentinel resubmission decides (with
    // per-pinned-class and FIN/RST-release twins), other resubmitted
    // passes leave the lane alone.
    let own_capacity = 3 + policy.pinned_classes.len() + if policy.tcp_aware { 6 } else { 0 };
    // The flow-agnostic, nothing-pinned policy needs none of the policy
    // keys — keep the 2-field key so the default hot path pays nothing
    // for the policy machinery.
    let own_fields = if policy.tcp_aware || !policy.pinned_classes.is_empty() {
        vec![fields.is_resubmit, m_next_sid, m_class, fields.ip_proto, fields.tcp_flags]
    } else {
        vec![fields.is_resubmit, m_next_sid]
    };
    let own_key_len = own_fields.len();
    let t_own = b.add_table(TableSpec::ternary("own", own_fields, own_capacity), stage::OWN);
    let owner_update =
        |mode: OwnerMode, claim: bool, release: bool, pin: bool| Primitive::OwnerUpdate {
            reg: r_owner,
            index: Source::Field(m_flow_idx),
            fp: Source::Field(m_fp),
            now: Source::Field(m_now),
            idle_timeout_us: opts.idle_timeout_us,
            pinned_timeout_us: policy.pinned_timeout_us,
            mode,
            claim,
            release,
            pin,
            class: Source::Field(m_class),
            state_out: m_state,
        };
    let own_key =
        |resub: Ternary, next_sid: Ternary, class: Ternary, proto: Ternary, fl: Ternary| {
            let mut key = vec![resub, next_sid, class, proto, fl];
            key.truncate(own_key_len);
            key
        };
    // Pinned verdict classes: the decide pass writes the pinned flag so
    // the lane resists takeover (and in-band release) afterwards.
    for &c in &policy.pinned_classes {
        b.add_ternary_entry(
            t_own,
            own_key(
                Ternary::exact(1, 1),
                Ternary::exact(255, 8),
                Ternary::exact(c as u64, 8),
                Ternary::ANY,
                Ternary::ANY,
            ),
            12,
            Action::new(format!("decide_pin_{c}")).with(owner_update(
                OwnerMode::Decide,
                false,
                false,
                true,
            )),
        )?;
    }
    if policy.tcp_aware {
        // FIN/RST verdict packets release the lane in-band: the slot is
        // reclaimable the moment the flow ends, no digest drain needed.
        for (bit, name) in [(flags::FIN, "decide_fin"), (flags::RST, "decide_rst")] {
            b.add_ternary_entry(
                t_own,
                own_key(
                    Ternary::exact(1, 1),
                    Ternary::exact(255, 8),
                    Ternary::ANY,
                    Ternary::exact(6, 8),
                    Ternary::new(bit as u64, bit as u64),
                ),
                11,
                Action::new(name).with(owner_update(OwnerMode::Decide, false, true, false)),
            )?;
        }
    }
    b.add_ternary_entry(
        t_own,
        own_key(
            Ternary::exact(1, 1),
            Ternary::exact(255, 8),
            Ternary::ANY,
            Ternary::ANY,
            Ternary::ANY,
        ),
        10,
        Action::new("decide").with(owner_update(OwnerMode::Decide, false, false, false)),
    )?;
    b.add_ternary_entry(
        t_own,
        own_key(Ternary::exact(1, 1), Ternary::ANY, Ternary::ANY, Ternary::ANY, Ternary::ANY),
        5,
        Action::new("carry"),
    )?;
    if policy.tcp_aware {
        // First-pass FIN/RST packets release the owner's own *decided*
        // (unpinned) lane — the early-exit flow's trailing close. For
        // unknown flows these entries probe without claim permission like
        // any other non-SYN packet.
        for (bit, name) in [(flags::FIN, "probe_fin"), (flags::RST, "probe_rst")] {
            b.add_ternary_entry(
                t_own,
                own_key(
                    Ternary::exact(0, 1),
                    Ternary::ANY,
                    Ternary::ANY,
                    Ternary::exact(6, 8),
                    Ternary::new(bit as u64, bit as u64),
                ),
                5,
                Action::new(name).with(owner_update(OwnerMode::Probe, false, true, false)),
            )?;
        }
        // SYN packets may claim; any other TCP packet probes without
        // claim permission (unknown flows surface as `unsolicited`).
        b.add_ternary_entry(
            t_own,
            own_key(
                Ternary::exact(0, 1),
                Ternary::ANY,
                Ternary::ANY,
                Ternary::exact(6, 8),
                Ternary::new(flags::SYN as u64, flags::SYN as u64),
            ),
            4,
            Action::new("probe_syn").with(owner_update(OwnerMode::Probe, true, false, false)),
        )?;
        b.add_ternary_entry(
            t_own,
            own_key(
                Ternary::exact(0, 1),
                Ternary::ANY,
                Ternary::ANY,
                Ternary::exact(6, 8),
                Ternary::ANY,
            ),
            3,
            Action::new("probe_no_claim").with(owner_update(OwnerMode::Probe, false, false, false)),
        )?;
    }
    // Default (every first pass under the flow-agnostic policy; non-TCP
    // traffic under the TCP-aware one): probe with claim permission.
    b.set_default(
        t_own,
        Action::new("probe").with(owner_update(OwnerMode::Probe, true, false, false)),
    );

    // --- stage 2: lifecycle MAT — maps the probed slot state onto the
    // claim/alien metadata bits the stateful tables key on. Its per-entry
    // hit counters ARE the lifecycle counters (admissions, takeovers,
    // live collisions), read back by the engine through
    // `CompiledIo::lifecycle_entries`. Install order is fixed.
    let t_life = b.add_table(
        TableSpec::ternary("lifecycle", vec![fields.is_resubmit, m_state], 11),
        stage::LIFECYCLE,
    );
    let life_entry = |claim: u64, alien: u64, name: &str| {
        Action::new(name)
            .with(Primitive::set_const(m_claim, claim))
            .with(Primitive::set_const(m_alien, alien))
    };
    // Suppressed packets additionally bump the slot's pressure counter —
    // the entry hit counters aggregate, the register localizes.
    let pressure_bump = Primitive::RegRmw {
        reg: r_pressure,
        index: Source::Field(m_flow_idx),
        op: AluOp::Add,
        operand: Source::Const(1),
        out: None,
    };
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
    for (state, claim, alien, name) in lifecycle_states {
        let mut action = life_entry(claim, alien, name);
        if alien == 1 {
            action = action.with(pressure_bump.clone());
        }
        b.add_ternary_entry(
            t_life,
            vec![Ternary::exact(0, 1), Ternary::exact(state.code(), SlotState::BITS)],
            10,
            action,
        )?;
    }
    // In-band FIN/RST releases announce themselves through the state
    // field on either kind of pass: the decide pass of a flow-end verdict
    // riding a FIN/RST, or the first pass of an early-exit flow's
    // trailing close. One entry counts both. Every other resubmitted
    // pass is the owner's: clear both bits so the stage-keyed resubmit
    // entries below stay unambiguous.
    b.add_ternary_entry(
        t_life,
        vec![Ternary::ANY, Ternary::exact(SlotState::OwnerRelease.code(), SlotState::BITS)],
        8,
        life_entry(0, 0, "released_fin"),
    )?;
    b.add_ternary_entry(
        t_life,
        vec![Ternary::exact(1, 1), Ternary::ANY],
        5,
        life_entry(0, 0, "resubmit_clear"),
    )?;
    let lifecycle_entries = LifecycleEntryIdx {
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

    // --- stage 3: sid / counters. Keyed on [is_resubmit, claim(, alien)]:
    // claim packets write first-packet state in-pass (fresh = op(0, x)),
    // alien packets read without modifying.
    let t_sid =
        b.add_table(TableSpec::exact("sid", vec![fields.is_resubmit, m_claim], 4), stage::STATE);
    b.add_exact_entry(
        t_sid,
        vec![0, 0],
        Action::new("read_sid")
            .with(Primitive::RegRmw {
                reg: r_sid,
                index: Source::Field(m_flow_idx),
                op: AluOp::Read,
                operand: Source::Const(0),
                out: Some((m_sid, AluOut::Old)),
            })
            .with(Primitive::Add { dst: m_sid, a: Source::Field(m_sid), b: Source::Const(1) }),
    )?;
    // Claiming a (possibly recycled) slot restarts it in subtree 1: the
    // stored form is sid − 1, so write 0 and read back 1.
    b.add_exact_entry(
        t_sid,
        vec![0, 1],
        Action::new("claim_sid")
            .with(Primitive::RegRmw {
                reg: r_sid,
                index: Source::Field(m_flow_idx),
                op: AluOp::Write,
                operand: Source::Const(0),
                out: Some((m_sid, AluOut::New)),
            })
            .with(Primitive::Add { dst: m_sid, a: Source::Field(m_sid), b: Source::Const(1) }),
    )?;
    // Resubmitted passes always carry claim = 0 (the lifecycle MAT's
    // resubmit_clear entry), so [1, 0] is the only resubmit key.
    let write_sid = Action::new("write_sid")
        .with(Primitive::RegRmw {
            reg: r_sid,
            index: Source::Field(m_flow_idx),
            op: AluOp::Write,
            operand: Source::Field(m_next_store),
            out: Some((m_sid, AluOut::New)),
        })
        .with(Primitive::Add { dst: m_sid, a: Source::Field(m_sid), b: Source::Const(1) });
    b.add_exact_entry(t_sid, vec![1, 0], write_sid)?;
    let t_pkt = b.add_table(
        TableSpec::exact("pkt_count", vec![fields.is_resubmit, m_claim, m_alien], 4),
        stage::STATE,
    );
    b.add_exact_entry(
        t_pkt,
        vec![0, 0, 0],
        Action::new("inc").with(Primitive::RegRmw {
            reg: r_pkt,
            index: Source::Field(m_flow_idx),
            op: AluOp::Add,
            operand: Source::Const(1),
            out: Some((m_pkt_count, AluOut::New)),
        }),
    )?;
    b.add_exact_entry(
        t_pkt,
        vec![0, 1, 0],
        Action::new("claim").with(Primitive::RegRmw {
            reg: r_pkt,
            index: Source::Field(m_flow_idx),
            op: AluOp::Write,
            operand: Source::Const(1),
            out: Some((m_pkt_count, AluOut::New)),
        }),
    )?;
    let pkt_read = Action::new("read").with(Primitive::RegRmw {
        reg: r_pkt,
        index: Source::Field(m_flow_idx),
        op: AluOp::Read,
        operand: Source::Const(0),
        out: Some((m_pkt_count, AluOut::Old)),
    });
    b.add_exact_entry(t_pkt, vec![0, 0, 1], pkt_read.clone())?;
    b.add_exact_entry(t_pkt, vec![1, 0, 0], pkt_read)?;
    let t_win = b.add_table(
        TableSpec::exact("win_count", vec![fields.is_resubmit, m_claim, m_alien], 4),
        stage::STATE,
    );
    b.add_exact_entry(
        t_win,
        vec![0, 0, 0],
        Action::new("inc").with(Primitive::RegRmw {
            reg: r_win,
            index: Source::Field(m_flow_idx),
            op: AluOp::Add,
            operand: Source::Const(1),
            out: Some((m_win_count, AluOut::New)),
        }),
    )?;
    b.add_exact_entry(
        t_win,
        vec![0, 1, 0],
        Action::new("claim").with(Primitive::RegRmw {
            reg: r_win,
            index: Source::Field(m_flow_idx),
            op: AluOp::Write,
            operand: Source::Const(1),
            out: Some((m_win_count, AluOut::New)),
        }),
    )?;
    b.add_exact_entry(
        t_win,
        vec![0, 0, 1],
        Action::new("peek").with(Primitive::RegRmw {
            reg: r_win,
            index: Source::Field(m_flow_idx),
            op: AluOp::Read,
            operand: Source::Const(0),
            out: Some((m_win_count, AluOut::Old)),
        }),
    )?;
    b.add_exact_entry(
        t_win,
        vec![1, 0, 0],
        Action::new("reset").with(Primitive::RegRmw {
            reg: r_win,
            index: Source::Field(m_flow_idx),
            op: AluOp::Write,
            operand: Source::Const(0),
            out: None,
        }),
    )?;

    // --- stage 4: dependency registers. Claim packets overwrite the
    // (possibly stale) cell and export 0 — exactly what a pristine slot
    // would have exported — so validity bits downstream see a fresh flow;
    // alien packets read without modifying.
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        let tag = scope_tag(*s);
        let reg = r_last[s];
        let out = m_last[s];
        let rmw = |op: AluOp, operand: Source, export: bool| Primitive::RegRmw {
            reg,
            index: Source::Field(m_flow_idx),
            op,
            operand,
            out: if export { Some((out, AluOut::Old)) } else { None },
        };
        match s {
            Scope::All => {
                let t = b.add_table(
                    TableSpec::exact(
                        format!("last_{tag}"),
                        vec![fields.is_resubmit, m_claim, m_alien],
                        4,
                    ),
                    stage::DEP,
                );
                b.add_exact_entry(
                    t,
                    vec![0, 0, 0],
                    Action::new("upd").with(rmw(AluOp::Write, Source::Field(m_now), true)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![0, 1, 0],
                    Action::new("claim")
                        .with(rmw(AluOp::Write, Source::Field(m_now), false))
                        .with(Primitive::set_const(out, 0)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![0, 0, 1],
                    Action::new("peek").with(rmw(AluOp::Read, Source::Const(0), true)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![1, 0, 0],
                    Action::new("reset").with(rmw(AluOp::Write, Source::Const(0), false)),
                )?;
            }
            Scope::Fwd | Scope::Bwd => {
                let want = if *s == Scope::Fwd { 1u64 } else { 0 };
                let t = b.add_table(
                    TableSpec::exact(
                        format!("last_{tag}"),
                        vec![fields.is_resubmit, m_claim, m_alien, m_dir],
                        8,
                    ),
                    stage::DEP,
                );
                b.add_exact_entry(
                    t,
                    vec![0, 0, 0, want],
                    Action::new("upd").with(rmw(AluOp::Write, Source::Field(m_now), true)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![0, 0, 0, 1 - want],
                    Action::new("read").with(rmw(AluOp::Read, Source::Const(0), true)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![0, 1, 0, want],
                    Action::new("claim_upd")
                        .with(rmw(AluOp::Write, Source::Field(m_now), false))
                        .with(Primitive::set_const(out, 0)),
                )?;
                b.add_exact_entry(
                    t,
                    vec![0, 1, 0, 1 - want],
                    Action::new("claim_rst")
                        .with(rmw(AluOp::Write, Source::Const(0), false))
                        .with(Primitive::set_const(out, 0)),
                )?;
                for dirv in [0u64, 1] {
                    b.add_exact_entry(
                        t,
                        vec![0, 0, 1, dirv],
                        Action::new("peek").with(rmw(AluOp::Read, Source::Const(0), true)),
                    )?;
                    b.add_exact_entry(
                        t,
                        vec![1, 0, 0, dirv],
                        Action::new("reset").with(rmw(AluOp::Write, Source::Const(0), false)),
                    )?;
                }
            }
        }
    }

    // --- stage 5: arithmetic, validity, window-first, boundary
    let t_compute =
        b.add_table(TableSpec::ternary("compute", vec![fields.is_resubmit], 2), stage::COMPUTE);
    let mut compute = Action::new("compute")
        .with(Primitive::Sub {
            dst: m_diff_win,
            a: Source::Field(m_win_count),
            b: Source::Field(m_window_len),
        })
        .with(Primitive::Sub {
            dst: m_diff_flow,
            a: Source::Field(m_pkt_count),
            b: Source::Field(fields.flow_size),
        });
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        compute = compute
            .with(Primitive::Sub {
                dst: m_iat[s],
                a: Source::Field(m_now),
                b: Source::Field(m_last[s]),
            })
            .with(Primitive::Min {
                dst: m_iat[s],
                a: Source::Field(m_iat[s]),
                b: Source::Const(FEATURE_CAP),
            })
            .with(Primitive::Sub {
                dst: m_neg_iat[s],
                a: Source::Const(FEATURE_CAP),
                b: Source::Field(m_iat[s]),
            });
    }
    b.set_default(t_compute, compute);
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        let tag = scope_tag(*s);
        let t = b.add_table(
            TableSpec::ternary(format!("valid_{tag}"), vec![m_last[s]], 2),
            stage::COMPUTE,
        );
        b.add_ternary_entry(
            t,
            vec![Ternary::exact(0, 32)],
            1,
            Action::new("invalid").with(Primitive::set_const(m_valid[s], 0)),
        )?;
        b.set_default(t, Action::new("valid").with(Primitive::set_const(m_valid[s], 1)));
    }
    let t_first =
        b.add_table(TableSpec::ternary("win_first", vec![m_win_count], 2), stage::COMPUTE);
    b.add_ternary_entry(
        t_first,
        vec![Ternary::exact(1, 16)],
        1,
        Action::new("first").with(Primitive::set_const(m_win_first, 1)),
    )?;
    b.set_default(t_first, Action::new("not_first").with(Primitive::set_const(m_win_first, 0)));

    let t_boundary = b.add_table(
        TableSpec::ternary(
            "boundary",
            vec![fields.is_resubmit, m_alien, m_diff_win, m_diff_flow],
            5,
        ),
        stage::COMPUTE,
    );
    // Alien packets never reach the model MAT: their counters were not
    // advanced, so any boundary they would signal is the owner's, not
    // theirs.
    b.add_ternary_entry(
        t_boundary,
        vec![Ternary::ANY, Ternary::exact(1, 1), Ternary::ANY, Ternary::ANY],
        20,
        Action::new("alien_none")
            .with(Primitive::set_const(m_boundary, 0))
            .with(Primitive::set_const(m_final, 0)),
    )?;
    b.add_ternary_entry(
        t_boundary,
        vec![Ternary::exact(0, 1), Ternary::ANY, Ternary::ANY, Ternary::exact(0, 24)],
        10,
        Action::new("final")
            .with(Primitive::set_const(m_boundary, 1))
            .with(Primitive::set_const(m_final, 1)),
    )?;
    b.add_ternary_entry(
        t_boundary,
        vec![Ternary::exact(0, 1), Ternary::ANY, Ternary::exact(0, 16), Ternary::ANY],
        5,
        Action::new("window")
            .with(Primitive::set_const(m_boundary, 1))
            .with(Primitive::set_const(m_final, 0)),
    )?;
    b.set_default(
        t_boundary,
        Action::new("none")
            .with(Primitive::set_const(m_boundary, 0))
            .with(Primitive::set_const(m_final, 0)),
    );

    // --- stage 6: feature slots (registers + operator-selection MATs).
    // Key layout: `[is_resubmit, claim, alien, sid, dir, tcp_flags,
    // frame_len, payload, win_first, valid…]` (see `guard_keys`).
    let mut slot_key: Vec<FieldId> = vec![
        fields.is_resubmit,
        m_claim,
        m_alien,
        m_sid,
        m_dir,
        fields.tcp_flags,
        fields.frame_len,
        m_payload,
        m_win_first,
    ];
    for d in &deps {
        let DepRegister::LastTs(s) = d;
        slot_key.push(m_valid[s]);
    }
    let valid_pos: BTreeMap<Scope, usize> = deps
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let DepRegister::LastTs(s) = d;
            (*s, SLOT_KEY_FIXED + i)
        })
        .collect();

    // Pre-expand operator-selection entries so each slot table can be
    // declared with its exact capacity (TCAM allocation follows declared
    // capacity, like hardware).
    type PendingEntry = (Vec<Ternary>, u32, Action);
    let mut slot_entries: Vec<Vec<PendingEntry>> = vec![Vec::new(); k];

    let mut slots: Vec<SlotMeta> = Vec::with_capacity(k);
    for (slot, entries) in slot_entries.iter_mut().enumerate() {
        let fval = b.add_meta(format!("m.fval_{slot}"), 32);
        let mark_bits = summary.slot_mark_bits[slot].max(1);
        let mark = b.add_meta(format!("m.mark_{slot}"), mark_bits);
        let reg = b
            .add_register(RegisterSpec::new(format!("r.slot_{slot}"), 32, flow_slots), stage::SLOT);
        let reset = Action::new("reset").with(Primitive::RegRmw {
            reg,
            index: Source::Field(m_flow_idx),
            op: AluOp::Write,
            operand: Source::Const(0),
            out: None,
        });
        // reset on resubmission
        let mut key = vec![Ternary::ANY; slot_key.len()];
        key[0] = Ternary::exact(1, 1);
        entries.push((key, 1_000_000, reset));
        // alien packets must never run an operator: read-only load
        let mut key = vec![Ternary::ANY; slot_key.len()];
        key[0] = Ternary::exact(0, 1);
        key[2] = Ternary::exact(1, 1);
        entries.push((
            key,
            900_000,
            Action::new("alien_load").with(Primitive::RegRmw {
                reg,
                index: Source::Field(m_flow_idx),
                op: AluOp::Read,
                operand: Source::Const(0),
                out: Some((fval, AluOut::New)),
            }),
        ));
        // claim packets whose (sid = 1) operator guard does not fire still
        // reset the recycled cell to fresh state
        let mut key = vec![Ternary::ANY; slot_key.len()];
        key[0] = Ternary::exact(0, 1);
        key[1] = Ternary::exact(1, 1);
        entries.push((
            key,
            50,
            Action::new("claim_reset").with(Primitive::RegRmw {
                reg,
                index: Source::Field(m_flow_idx),
                op: AluOp::Write,
                operand: Source::Const(0),
                out: Some((fval, AluOut::New)),
            }),
        ));
        // table id assigned after entry counting; placeholder via push order
        slots.push(SlotMeta { fval, mark, table: TableId::invalid(), reg });
    }

    // operator-selection entries per (sid, slot)
    for ((sid, slot), binding) in &bindings {
        let meta = &slots[*slot];
        let (guard, op, operand) = match &binding.kind {
            BindKind::Slot(prog) => (
                prog.guard,
                match prog.op {
                    UpdateOp::Add => AluOp::Add,
                    UpdateOp::Max => AluOp::Max,
                    UpdateOp::Write => AluOp::Write,
                },
                operand_source(
                    prog.operand,
                    fields.frame_len,
                    m_payload,
                    m_neg_len,
                    m_now,
                    &m_iat,
                    &m_neg_iat,
                )?,
            ),
            BindKind::Stateless(k) => (
                Guard::scope(Scope::All),
                AluOp::Write,
                match k {
                    StatelessKind::FrameLen => Source::Field(fields.frame_len),
                    StatelessKind::Ttl => Source::Field(fields.ttl),
                    StatelessKind::TcpFlags => Source::Field(fields.tcp_flags),
                    StatelessKind::SrcPort => Source::Field(m_csport),
                    StatelessKind::DstPort => Source::Field(m_cdport),
                    StatelessKind::Proto => Source::Field(fields.ip_proto),
                },
            ),
        };
        let action = Action::new(format!("s{sid}_f{}", binding.feature)).with(Primitive::RegRmw {
            reg: meta.reg,
            index: Source::Field(m_flow_idx),
            op,
            operand,
            out: Some((meta.fval, AluOut::New)),
        });
        for key in guard_keys(&guard, *sid, slot_key.len(), &valid_pos) {
            slot_entries[*slot].push((key, 100, action.clone()));
        }
        // Claim packets land in subtree 1 over a just-reset cell, so the
        // first-packet update folds into one RMW: fresh = op(0, x) = x for
        // every slot operator (Add, Max, Write) ⇒ the claim twin writes
        // the operand outright.
        if *sid == 1 {
            let claim_action =
                Action::new(format!("claim_s{sid}_f{}", binding.feature)).with(Primitive::RegRmw {
                    reg: meta.reg,
                    index: Source::Field(m_flow_idx),
                    op: AluOp::Write,
                    operand,
                    out: Some((meta.fval, AluOut::New)),
                });
            for mut key in guard_keys(&guard, *sid, slot_key.len(), &valid_pos) {
                key[1] = Ternary::exact(1, 1);
                slot_entries[*slot].push((key, 200, claim_action.clone()));
            }
        }
    }

    for slot in 0..k {
        let n = slot_entries[slot].len().min(MAX_SLOT_TABLE_ENTRIES);
        let table = b.add_table(
            TableSpec::ternary(format!("slot_{slot}"), slot_key.clone(), n.max(1)),
            stage::SLOT,
        );
        b.set_default(
            table,
            Action::new("load").with(Primitive::RegRmw {
                reg: slots[slot].reg,
                index: Source::Field(m_flow_idx),
                op: AluOp::Read,
                operand: Source::Const(0),
                out: Some((slots[slot].fval, AluOut::New)),
            }),
        );
        for (key, prio, action) in slot_entries[slot].drain(..) {
            b.add_ternary_entry(table, key, prio, action)?;
        }
        slots[slot].table = table;
    }

    // --- stage 7: load transforms per (sid, slot)
    let load_tables: Vec<TableId> = (0..k)
        .map(|slot| {
            let t = b
                .add_table(TableSpec::exact(format!("load_{slot}"), vec![m_sid], 512), stage::LOAD);
            b.gate_table(t, m_boundary);
            t
        })
        .collect();
    for ((sid, slot), binding) in &bindings {
        let meta = &slots[*slot];
        let fval = meta.fval;
        let load = match &binding.kind {
            BindKind::Slot(prog) => prog.load,
            BindKind::Stateless(_) => LoadTransform::Identity,
        };
        let action = match load {
            LoadTransform::Identity => Action::new("cap").with(Primitive::Min {
                dst: fval,
                a: Source::Field(fval),
                b: Source::Const(FEATURE_CAP),
            }),
            LoadTransform::NegCap => Action::new("negcap")
                .with(Primitive::Min {
                    dst: fval,
                    a: Source::Field(fval),
                    b: Source::Const(FEATURE_CAP),
                })
                .with(Primitive::Sub {
                    dst: fval,
                    a: Source::Const(FEATURE_CAP),
                    b: Source::Field(fval),
                }),
            LoadTransform::SinceTs => Action::new("since")
                .with(Primitive::Sub { dst: fval, a: Source::Field(m_now), b: Source::Field(fval) })
                .with(Primitive::Min {
                    dst: fval,
                    a: Source::Field(fval),
                    b: Source::Const(FEATURE_CAP),
                }),
        };
        b.add_exact_entry(load_tables[*slot], vec![*sid as u64], action)?;
    }

    // --- stage 8: match-key generators (value → range mark)
    let mut keygen_entries: Vec<Vec<PendingEntry>> = vec![Vec::new(); k];
    for (sid, rules) in &summary.subtree_rules {
        let assignment = slot_assignment(&rules.features);
        for ft in &rules.feature_tables {
            let slot = assignment[&ft.feature];
            for rule in &ft.rules {
                keygen_entries[slot].push((
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
    for slot in 0..k {
        let t = b.add_table(
            TableSpec::ternary(
                format!("keygen_{slot}"),
                vec![m_sid, slots[slot].fval],
                keygen_entries[slot].len().max(1),
            ),
            stage::KEYGEN,
        );
        b.gate_table(t, m_boundary);
        b.set_default(t, Action::new("zero").with(Primitive::set_const(slots[slot].mark, 0)));
        for (key, prio, action) in keygen_entries[slot].drain(..) {
            b.add_ternary_entry(t, key, prio, action)?;
        }
    }

    // --- stage 9: model MAT
    let mut model_key: Vec<FieldId> = vec![m_boundary, m_final, m_sid];
    for meta in &slots {
        model_key.push(meta.mark);
    }
    let mut model_entries: Vec<PendingEntry> = Vec::new();
    for (sid, rules) in &summary.subtree_rules {
        let st = model.subtree(*sid);
        let assignment = slot_assignment(&rules.features);
        let last_partition = st.partition + 1 == p;
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
            model_entries.push((
                key_final,
                20,
                Action::new("flow_end")
                    .with(Primitive::set_const(m_class, final_class as u64))
                    .with(Primitive::Digest)
                    .with(Primitive::set_const(m_next_sid, 255))
                    .with(Primitive::Resubmit),
            ));
            // progress entry (skip for last partition: classification there
            // only happens at flow end)
            if !last_partition {
                let action = match target {
                    LeafTarget::Next { sid: next, fallback } => Action::new("advance")
                        .with(Primitive::set_const(m_next_sid, next as u64))
                        .with(Primitive::set_const(m_class, fallback as u64))
                        .with(Primitive::Resubmit),
                    LeafTarget::Class(c) => Action::new("early_exit")
                        .with(Primitive::set_const(m_class, c as u64))
                        .with(Primitive::Digest)
                        // DONE sentinel: stored 254 → sid 255, which no
                        // table entry matches.
                        .with(Primitive::set_const(m_next_sid, 255))
                        .with(Primitive::Resubmit),
                };
                model_entries.push((key_progress, 10, action));
            }
        }
    }
    let t_model = b.add_table(
        TableSpec::ternary("model", model_key, model_entries.len().max(1)),
        stage::MODEL,
    );
    b.gate_table(t_model, m_boundary);
    for (key, prio, action) in model_entries {
        b.add_ternary_entry(t_model, key, prio, action)?;
    }

    // The canonical register slot (m.flow_idx) rides in the digest so the
    // controller can attribute verdicts exactly, even when initiator IPs
    // repeat across flows; the fingerprint (m.fp) and flow-end flag
    // (m.final) ride along so the controller can compare-and-release the
    // decided ownership lane when the flow is truly over.
    b.set_digest_fields(vec![
        fields.ipv4_src,
        fields.ipv4_dst,
        m_class,
        m_sid,
        m_flow_idx,
        m_fp,
        m_final,
    ]);
    b.set_resubmit_limit(4);

    let program = b.build()?;
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
            fields,
            flow_slots,
            idle_timeout_us: opts.idle_timeout_us,
            policy: opts.policy.clone(),
            digest_src: 0,
            digest_class: 2,
            digest_sid: 3,
            digest_flow_idx: 4,
            digest_fp: 5,
            digest_final: 6,
            model_table: t_model,
            owner_reg: r_owner,
            pressure_reg: r_pressure,
            lifecycle_table: t_life,
            lifecycle_entries,
        },
        summary,
    })
}

fn scope_tag(s: Scope) -> &'static str {
    match s {
        Scope::All => "all",
        Scope::Fwd => "fwd",
        Scope::Bwd => "bwd",
    }
}

fn operand_source(
    op: Operand,
    f_len: FieldId,
    m_payload: FieldId,
    m_neg_len: FieldId,
    m_now: FieldId,
    m_iat: &BTreeMap<Scope, FieldId>,
    m_neg_iat: &BTreeMap<Scope, FieldId>,
) -> Result<Source, CompileError> {
    Ok(match op {
        Operand::One => Source::Const(1),
        Operand::FrameLen => Source::Field(f_len),
        Operand::NegFrameLen => Source::Field(m_neg_len),
        Operand::HdrLen => Source::Const(58), // fixed L2+shim+L3+L4 header
        Operand::PayloadLen => Source::Field(m_payload),
        Operand::NowUs => Source::Field(m_now),
        Operand::Iat(s) => Source::Field(
            *m_iat.get(&s).ok_or_else(|| CompileError::InvalidModel("missing iat dep".into()))?,
        ),
        Operand::NegIat(s) => Source::Field(
            *m_neg_iat
                .get(&s)
                .ok_or_else(|| CompileError::InvalidModel("missing neg iat dep".into()))?,
        ),
    })
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
    use crate::train::train_partitioned;
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
}
