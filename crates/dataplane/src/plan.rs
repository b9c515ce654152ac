//! The compiled execution plan: the per-packet schedule of a [`Program`],
//! flattened once at pipeline instantiation so the hot path never touches
//! the heap.
//!
//! A match-action program's schedule is fixed at compile time — the set of
//! tables a packet visits, their order, and the action bound to every entry
//! never change while the pipeline runs (pForest makes the same
//! observation for P4 programs; NeuroCuts for software classifiers). The
//! interpreter used to re-discover that schedule per packet: it cloned each
//! stage's table-id vector and heap-cloned an [`Action`] out of the matched
//! entry on **every lookup of every packet**. [`ExecPlan`] hoists all of
//! that to construction time:
//!
//! * the stage→table schedule flattens into a contiguous slab of
//!   [`PlanSlot`]s; each slot carries its table's gate
//!   ([`Program::gate`]), the 1-bit field a packet must carry set for
//!   the slot to apply to it; a gated-off packet skips the slot with no
//!   lookup, no action and no hit or miss counted;
//! * every distinct action (entry actions and per-table defaults) is
//!   interned once into an action arena and referenced by [`ActionId`];
//! * per-slot entry→action maps live in one flat `entry_actions` slab
//!   (slot offsets, no nested `Vec`s), and so do per-slot key field ids;
//! * every interned action is compiled once into a contiguous range of a
//!   flat op slab: each operand is a PHV index or an immediate, and every
//!   destination's width mask is read from the layout here, not per write;
//! * the PHV fields the `HashFlow` primitive needs are resolved from the
//!   layout by name once, not per packet, and the digest field list is
//!   copied in, so the wave executor reads the plan and never the
//!   [`Program`].
//!
//! ## Steps
//!
//! The wave walks **steps**, not slots ([`ExecPlan::steps`]): a step
//! costs one probe per packet, as a switch stage applies all its tables
//! at once. A fused step is a maximal run of adjacent slots that
//!
//! * (a) share one gate (or none), no member but the last writing it;
//! * (b) key on no field an earlier member's actions write;
//! * (c) touch no register two members touch;
//! * (d) fit one row table of at most `DIRECT_BITS` (10) bits.
//!
//! A member adds row bits in one of two ways. A table whose match index
//! is direct adds its fields' direct domains (a field two members read
//! counts once); an exact one only when each domain spans the field's
//! whole declared width, so no in-width value lies outside it. Any other
//! exact or ternary table of at most `ENTRY_BITS_MAX` (4) entries adds
//! one match bit per entry. Range tables, and tables that can take
//! neither way, stand alone.
//!
//! At build every row of a fused step resolves, by the linear oracle's
//! priority rule, to a **combo**: each member's entry or miss, and those
//! actions' ops concatenated in slot order. Combos are interned, so rows
//! map to combo ids and the ops live once in the step's own slab; the
//! per-table arena, entry→action maps and match indexes stay as they are
//! for the P4 emitter and the entry-walk oracle. The executor reads a
//! packet's row, counts every member's hit or miss and runs the combo's
//! ops. This is exact: within a packet the ops run in slot order on the
//! keys each member would have read (b) under the gate it would have
//! checked (a); across packets each register sees its accesses in the
//! unfused order (c), and counters commute. A one-member step is the
//! slot itself, looked up through its [`MatchIndex`].
//!
//! Then a run of adjacent one-member steps becomes one **shared-key
//! step** when every member's index is [`MatchIndex::Ternary`] over the
//! identical key-field list (same fields, same order) and the run meets
//! (a)–(c), up to `SHARED_MAX` (8) members. The step is probed through one
//! [`TernaryIndex`] built over all the members' rules, ranked
//! member-major: one pivot dispatch and one AND of each filter row finds
//! every member's winner (a table's own ternary index is the one-member
//! case). The executor then counts each member's hit or miss and runs its
//! action's ops in slot order, after the probe; (b) makes that exact, as
//! no member's ops change the key a later member reads. The compiler's
//! `slot_*` feature-update tables are such a run: they key on the same
//! fields and each drives its own register.
//!
//! The wave executor runs the op slabs, never the [`Action`]s themselves
//! (those stay for the entry-walk oracle and the P4 emitter), so the
//! steady-state packet path performs zero heap allocations (verified by
//! `tests/zero_alloc.rs`).
//!
//! Alongside the action arena the plan compiles one
//! [`MatchIndex`] per table — the lookup structure (direct rows for
//! narrow tables, pivot-dispatched ternary groups for the rest) the hot
//! path dispatches through instead of scanning installed entries; each
//! reads its slot's key in place through the key field ids. Runtime entry
//! installation goes through
//! [`Pipeline::install_entry`](crate::pipeline::Pipeline::install_entry),
//! which invalidates and rebuilds the whole plan (indexes included).

use crate::action::{Action, AluOut, OwnerMode, Primitive, Source};
use crate::index::{MatchIndex, TernaryIndex, DIRECT_BITS};
use crate::phv::{FieldId, PhvLayout};
use crate::program::Program;
use crate::register::{BankLayout, RegAluOp};
use crate::table::{EntryKey, MatchKind, Table};
use std::collections::HashMap;

/// Most entries a table may have to join a fused step with one row bit
/// per entry.
const ENTRY_BITS_MAX: usize = 4;

/// Most members a shared-key step may have: the executor holds their
/// winners in a stack array this long.
pub(crate) const SHARED_MAX: usize = 8;

/// A member's miss in a combo's results or a shared probe's winners.
pub(crate) const MISS: u32 = u32::MAX;

/// Index of an interned action in an [`ExecPlan`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionId(u32);

impl ActionId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One table application in the flattened schedule.
#[derive(Debug, Clone, Copy)]
pub struct PlanSlot {
    /// Index of the table in the program's table list.
    pub table: u32,
    /// Interned id of the table's default (miss) action.
    pub default_action: ActionId,
    /// Offset of this slot's entry→action ids in the plan's flat
    /// entry-action slab (resolved via [`ExecPlan::entry_action`]).
    pub entries_start: u32,
    /// Number of entry→action ids (== the table's installed entry count).
    pub entries_len: u32,
    /// The table's gate: when set, the slot applies only to packets whose
    /// PHV holds 1 in this field (see [`Program::gate`]).
    pub gate: Option<FieldId>,
}

/// Pre-resolved PHV field ids for the `HashFlow` primitive (the canonical
/// 5-tuple). `None` when the program's layout lacks the standard fields —
/// legal as long as no `HashFlow` action ever executes.
#[derive(Debug, Clone, Copy)]
pub struct HashFlowFields {
    /// `ipv4.src`.
    pub src_ip: FieldId,
    /// `ipv4.dst`.
    pub dst_ip: FieldId,
    /// `l4.sport`.
    pub sport: FieldId,
    /// `l4.dport`.
    pub dport: FieldId,
    /// `ipv4.proto`.
    pub proto: FieldId,
}

/// A PHV destination with its width mask, read from the layout at build.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dst {
    pub(crate) field: FieldId,
    pub(crate) mask: u64,
}

impl Dst {
    fn resolve(field: FieldId, layout: &PhvLayout) -> Self {
        Self { field, mask: layout.spec(field).mask() }
    }

    /// Writes `x`, masked to the field's width, into the PHV values `v`.
    #[inline]
    pub(crate) fn write(self, v: &mut [u64], x: u64) {
        v[self.field.index()] = x & self.mask;
    }
}

/// One [`Primitive`] pre-resolved for the wave executor: operands are PHV
/// indexes or immediates, destinations carry their masks.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Set(Dst, Source),
    Add(Dst, Source, Source),
    Sub(Dst, Source, Source),
    Min(Dst, Source, Source),
    Max(Dst, Source, Source),
    /// The divisor is already floored at 1.
    DivConst(Dst, Source, u64),
    /// `(dst, index mask, salt)`, as [`Primitive::HashFlow`] declares them.
    HashFlow(Dst, u64, u64),
    RegRmw {
        reg: u32,
        index: Source,
        op: RegAluOp,
        operand: Source,
        out: Option<(Dst, AluOut)>,
    },
    /// Index into the plan's `owners` slab: an `OwnerUpdate` is several
    /// times the size of every other op, and rare.
    OwnerUpdate(u32),
    Resubmit,
    Digest,
    Drop,
}

/// A pre-resolved [`Primitive::OwnerUpdate`]: the parameters the one
/// ownership-lane body (`pipeline::prim_owner_update`) takes, from either
/// executor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OwnerOp {
    pub(crate) reg: usize,
    pub(crate) index: Source,
    pub(crate) fp: Source,
    pub(crate) now: Source,
    pub(crate) class: Source,
    pub(crate) idle_timeout_us: u64,
    pub(crate) pinned_timeout_us: u64,
    pub(crate) mode: OwnerMode,
    pub(crate) claim: bool,
    pub(crate) release: bool,
    pub(crate) pin: bool,
    pub(crate) state_out: Dst,
}

impl OwnerOp {
    /// Resolves `p`, which must be an `OwnerUpdate`, against `layout`.
    pub(crate) fn resolve(p: &Primitive, layout: &PhvLayout) -> Self {
        let Primitive::OwnerUpdate {
            reg,
            index,
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
        } = *p
        else {
            unreachable!("OwnerOp::resolve on {p:?}")
        };
        Self {
            reg: reg.index(),
            index,
            fp,
            now,
            class,
            idle_timeout_us,
            pinned_timeout_us,
            mode,
            claim,
            release,
            pin,
            state_out: Dst::resolve(state_out, layout),
        }
    }
}

/// Appends `action`'s ops to `ops` (and any `OwnerUpdate` to `owners`).
fn compile_action(
    action: &Action,
    layout: &PhvLayout,
    ops: &mut Vec<Op>,
    owners: &mut Vec<OwnerOp>,
) {
    let dst = |f: FieldId| Dst::resolve(f, layout);
    for p in &action.prims {
        ops.push(match *p {
            Primitive::Set { dst: d, src } => Op::Set(dst(d), src),
            Primitive::Add { dst: d, a, b } => Op::Add(dst(d), a, b),
            Primitive::Sub { dst: d, a, b } => Op::Sub(dst(d), a, b),
            Primitive::Min { dst: d, a, b } => Op::Min(dst(d), a, b),
            Primitive::Max { dst: d, a, b } => Op::Max(dst(d), a, b),
            Primitive::DivConst { dst: d, a, divisor } => Op::DivConst(dst(d), a, divisor.max(1)),
            Primitive::HashFlow { dst: d, mask, salt } => Op::HashFlow(dst(d), mask, salt),
            Primitive::RegRmw { reg, index, op, operand, out } => Op::RegRmw {
                reg: reg.index() as u32,
                index,
                op,
                operand,
                out: out.map(|(f, which)| (dst(f), which)),
            },
            Primitive::OwnerUpdate { .. } => {
                owners.push(OwnerOp::resolve(p, layout));
                Op::OwnerUpdate(owners.len() as u32 - 1)
            }
            Primitive::Resubmit => Op::Resubmit,
            Primitive::Digest => Op::Digest,
            Primitive::Drop => Op::Drop,
        });
    }
}

/// The PHV fields `action` writes.
fn writes(action: &Action) -> impl Iterator<Item = FieldId> + '_ {
    action.prims.iter().filter_map(|p| match *p {
        Primitive::Set { dst, .. }
        | Primitive::Add { dst, .. }
        | Primitive::Sub { dst, .. }
        | Primitive::Min { dst, .. }
        | Primitive::Max { dst, .. }
        | Primitive::DivConst { dst, .. }
        | Primitive::HashFlow { dst, .. } => Some(dst),
        Primitive::RegRmw { out, .. } => out.map(|(f, _)| f),
        Primitive::OwnerUpdate { state_out, .. } => Some(state_out),
        Primitive::Resubmit | Primitive::Digest | Primitive::Drop => None,
    })
}

/// One probe of the wave: a run of adjacent plan slots (see the module
/// docs' § Steps).
#[derive(Debug, Clone)]
pub(crate) struct Step {
    /// The members: `slots[start..end]` of the plan.
    pub(crate) start: u32,
    pub(crate) end: u32,
    /// The members' shared gate.
    pub(crate) gate: Option<FieldId>,
    /// Whether the gated lanes must be rebuilt before this step: no
    /// earlier step of the pass built them for this gate, or a step
    /// since wrote the gate field.
    pub(crate) fresh_gate: bool,
    /// How the step is probed.
    pub(crate) probe: StepProbe,
}

/// How a step finds its members' entries.
#[derive(Debug, Clone)]
pub(crate) enum StepProbe {
    /// One member, through its table's [`MatchIndex`].
    Slot,
    /// The members' row table.
    Fused(Fused),
    /// One ternary index over every member's rules, on their one key.
    Shared(TernaryIndex),
}

/// Direct row bits of one PHV field: `(v & domain) << shift`.
#[derive(Debug, Clone, Copy)]
struct RowField {
    field: FieldId,
    domain: u64,
    /// The bits no value of an exact member's field may carry (`!domain`
    /// when one reads it, else 0).
    clip: u64,
    shift: u32,
}

/// One condition of a per-entry row bit: the bit stays set only if
/// `v & mask == value` holds for every condition on it.
#[derive(Debug, Clone, Copy)]
struct RowCond {
    field: FieldId,
    mask: u64,
    value: u64,
    bit: u32,
}

/// A fused step's row table: row → combo, and per combo each member's
/// entry (or [`MISS`]) and the concatenated ops of their actions.
#[derive(Debug, Clone)]
pub(crate) struct Fused {
    fields: Vec<RowField>,
    conds: Vec<RowCond>,
    /// The per-entry bits, all set before `conds` clear the failing ones.
    entry_bits: usize,
    /// Row → combo id.
    rows: Vec<u16>,
    /// Combo-major, one per member.
    results: Vec<u32>,
    members: usize,
    /// Combo `c`'s ops are `ops[op_starts[c]..op_starts[c + 1]]`: the
    /// step's own slab.
    op_starts: Vec<u32>,
    ops: Vec<Op>,
}

impl Fused {
    /// The combo of a packet with PHV values `v`, or `None` when a value
    /// carries bits above an exact member's field width (possible only
    /// through a verbatim [`Phv::set`](crate::phv::Phv::set)): the caller
    /// then visits the members one by one.
    #[inline]
    pub(crate) fn combo(&self, v: &[u64]) -> Option<usize> {
        let mut row = self.entry_bits;
        let mut stray = 0;
        for f in &self.fields {
            let x = v[f.field.index()];
            stray |= x & f.clip;
            row |= ((x & f.domain) as usize) << f.shift;
        }
        for c in &self.conds {
            row &= !(((v[c.field.index()] & c.mask != c.value) as usize) << c.bit);
        }
        (stray == 0).then(|| self.rows[row] as usize)
    }

    /// Each member's entry index in combo `c`, or [`MISS`].
    #[inline]
    pub(crate) fn results(&self, c: usize) -> &[u32] {
        &self.results[c * self.members..(c + 1) * self.members]
    }

    /// Combo `c`'s ops.
    #[inline]
    pub(crate) fn ops(&self, c: usize) -> &[Op] {
        &self.ops[self.op_starts[c] as usize..self.op_starts[c + 1] as usize]
    }
}

/// How a member of a fused step adds row bits.
#[derive(Debug, Clone)]
enum RowMode {
    /// Its key fields' direct domains, in key order.
    Direct(Vec<u64>),
    /// One match bit per entry.
    Entries,
}

/// What step formation needs to know of one slot's table.
struct Member<'a> {
    slot: usize,
    table: &'a Table,
    gate: Option<FieldId>,
    /// Every field any of its actions writes.
    writes: Vec<FieldId>,
    /// Every register any of its actions touches.
    regs: Vec<usize>,
    /// Its direct domains, if it may add them as row bits.
    direct: Option<Vec<u64>>,
    /// Whether its match index is ternary, so it may share a probe.
    ternary: bool,
}

impl<'a> Member<'a> {
    fn of(slot: usize, table: &'a Table, plan: &ExecPlan, layout: &PhvLayout) -> Self {
        let actions = || table.entries().iter().map(|e| &e.action).chain([table.default_action()]);
        let writes = actions().flat_map(writes).collect();
        let regs = actions().flat_map(|a| a.regs_touched()).map(|r| r.index()).collect();
        let spec = table.spec();
        let index = plan.match_index(plan.slots[slot].table as usize);
        let direct = match index {
            // An exact member's domain must span its field's width: a
            // value outside a ternary domain only loses don't-care bits,
            // one outside an exact domain misses.
            MatchIndex::Direct(d) => Some(d.domains().collect::<Vec<_>>()).filter(|doms| {
                spec.kind == MatchKind::Ternary
                    || spec.kind == MatchKind::Exact
                        && spec.key.iter().zip(doms).all(|(&f, &d)| d == layout.spec(f).mask())
            }),
            _ => None,
        };
        let ternary = matches!(index, MatchIndex::Ternary(_));
        Self { slot, table, gate: plan.slots[slot].gate, writes, regs, direct, ternary }
    }

    /// The way it adds row bits as a run's first member, if any.
    fn first_mode(&self) -> Option<RowMode> {
        self.direct.clone().map(RowMode::Direct).or(self.entries_fit().then_some(RowMode::Entries))
    }

    fn entries_fit(&self) -> bool {
        self.table.spec().kind != MatchKind::Range && self.table.n_entries() <= ENTRY_BITS_MAX
    }
}

/// Row bits of direct fields `(field, domain, read by an exact member)`
/// plus `entry_bits`.
fn row_bits(fields: &[(FieldId, u64, bool)], entry_bits: u32) -> u32 {
    fields.iter().map(|&(_, d, _)| u64::BITS - d.leading_zeros()).sum::<u32>() + entry_bits
}

/// A run of adjacent slots growing into a step.
struct Run<'a> {
    members: Vec<Member<'a>>,
    /// Whether it is a shared-key run (see the module docs' § Steps).
    shared: bool,
    /// One per member while the run may grow; empty when its only member
    /// adds no row bits.
    modes: Vec<RowMode>,
    /// The direct members' fields, first read first, each with the union
    /// of their domains.
    fields: Vec<(FieldId, u64, bool)>,
    entry_bits: u32,
}

impl<'a> Run<'a> {
    fn start(m: Member<'a>) -> Self {
        let mut run = Self {
            members: Vec::new(),
            shared: false,
            modes: Vec::new(),
            fields: Vec::new(),
            entry_bits: 0,
        };
        match m.first_mode() {
            Some(mode) => run.push(m, mode),
            None => run.members.push(m),
        }
        run
    }

    /// `fields` with `m`'s direct domains `doms` joined in.
    fn with_direct(&self, m: &Member, doms: &[u64]) -> Vec<(FieldId, u64, bool)> {
        let exact = m.table.spec().kind == MatchKind::Exact;
        let mut fields = self.fields.clone();
        for (&f, &d) in m.table.spec().key.iter().zip(doms) {
            match fields.iter_mut().find(|(g, ..)| *g == f) {
                Some((_, domain, clip)) => (*domain, *clip) = (*domain | d, *clip || exact),
                None => fields.push((f, d, exact)),
            }
        }
        fields
    }

    /// Whether `m` may follow the members under rules (a)–(c).
    fn joins(&self, m: &Member) -> bool {
        let written = |f: FieldId| self.members.iter().any(|p| p.writes.contains(&f));
        let gate = self.members[0].gate;
        let gate_holds = m.gate == gate && !gate.is_some_and(written);
        let keys_hold = !m.table.spec().key.iter().any(|&f| written(f));
        let regs_hold = !self.members.iter().any(|p| p.regs.iter().any(|r| m.regs.contains(r)));
        gate_holds && keys_hold && regs_hold
    }

    /// Whether the one-member run `next` may join this run of one member
    /// or more into a shared-key step: every member's index is ternary
    /// over one key field list, and `next` meets rules (a)–(c).
    fn shares(&self, next: &Run) -> bool {
        let [m] = next.members.as_slice() else { return false };
        let first = &self.members[0];
        (self.shared || self.members.len() == 1)
            && self.members.len() < SHARED_MAX
            && first.ternary
            && m.ternary
            && m.table.spec().key == first.table.spec().key
            && self.joins(m)
    }

    /// The way `m` joins the run, or `None` if one of the rules (a)–(d)
    /// ends the run before it.
    fn admit(&self, m: &Member) -> Option<RowMode> {
        if self.modes.len() != self.members.len() || !self.joins(m) {
            return None;
        }
        // (d): direct bits where the member may add them, else one per entry.
        if let Some(doms) = &m.direct {
            if row_bits(&self.with_direct(m, doms), self.entry_bits) <= DIRECT_BITS {
                return Some(RowMode::Direct(doms.clone()));
            }
        }
        let bits = row_bits(&self.fields, self.entry_bits + m.table.n_entries() as u32);
        (m.entries_fit() && bits <= DIRECT_BITS).then_some(RowMode::Entries)
    }

    fn push(&mut self, m: Member<'a>, mode: RowMode) {
        match &mode {
            RowMode::Direct(doms) => self.fields = self.with_direct(&m, doms),
            RowMode::Entries => self.entry_bits += m.table.n_entries() as u32,
        }
        self.members.push(m);
        self.modes.push(mode);
    }

    /// The step, and every field its members write.
    fn finish(self, plan: &ExecPlan) -> (Step, Vec<FieldId>) {
        let writes = self.members.iter().flat_map(|m| m.writes.iter().copied()).collect();
        let first = &self.members[0];
        let probe = if self.shared {
            let tables: Vec<&Table> = self.members.iter().map(|m| m.table).collect();
            StepProbe::Shared(TernaryIndex::build(&tables))
        } else if self.members.len() > 1 {
            StepProbe::Fused(self.fuse(plan))
        } else {
            StepProbe::Slot
        };
        let step = Step {
            start: first.slot as u32,
            end: first.slot as u32 + self.members.len() as u32,
            gate: first.gate,
            fresh_gate: false,
            probe,
        };
        (step, writes)
    }

    /// Resolves every row to its interned combo.
    fn fuse(&self, plan: &ExecPlan) -> Fused {
        let mut shift = 0;
        let fields: Vec<RowField> = self
            .fields
            .iter()
            .map(|&(field, domain, exact)| {
                let f = RowField { field, domain, clip: if exact { !domain } else { 0 }, shift };
                shift += u64::BITS - domain.leading_zeros();
                f
            })
            .collect();
        // Per-entry bits follow the direct ones; `base[j]` is member j's first.
        let (mut conds, mut entry_bits, mut base) = (Vec::new(), 0usize, Vec::new());
        let mut bit = shift;
        for (m, mode) in self.members.iter().zip(&self.modes) {
            base.push(bit);
            if let RowMode::Direct(_) = mode {
                continue;
            }
            for e in m.table.entries() {
                let key = &m.table.spec().key;
                match &e.key {
                    EntryKey::Exact(values) => {
                        conds.extend(key.iter().zip(values).map(|(&field, &value)| RowCond {
                            field,
                            mask: u64::MAX,
                            value,
                            bit,
                        }))
                    }
                    EntryKey::Ternary { fields, .. } => conds.extend(
                        key.iter().zip(fields).filter(|(_, t)| t.mask != 0 || t.value != 0).map(
                            |(&field, t)| RowCond { field, mask: t.mask, value: t.value, bit },
                        ),
                    ),
                    EntryKey::Range { .. } => unreachable!("range tables never fuse"),
                }
                entry_bits |= 1 << bit;
                bit += 1;
            }
        }
        let mut interned: HashMap<Vec<u32>, u16> = HashMap::new();
        let (mut rows, mut results, mut op_starts, mut ops) =
            (Vec::new(), Vec::new(), vec![0u32], Vec::new());
        let mut key = Vec::new();
        for row in 0..1usize << bit {
            let combo: Vec<u32> = self
                .members
                .iter()
                .zip(&self.modes)
                .zip(&base)
                .map(|((m, mode), &base)| match mode {
                    RowMode::Direct(_) => {
                        key.clear();
                        key.extend(m.table.spec().key.iter().map(|&f| {
                            let rf = fields.iter().find(|r| r.field == f).expect("direct field");
                            (row as u64 >> rf.shift) & rf.domain
                        }));
                        let index = plan.match_index(plan.slots[m.slot].table as usize);
                        index.lookup_key(key.as_slice()).map_or(MISS, |e| e as u32)
                    }
                    RowMode::Entries => winner(m.table, row >> base),
                })
                .collect();
            let next = interned.len() as u16;
            let id = *interned.entry(combo).or_insert_with_key(|combo| {
                results.extend_from_slice(combo);
                for (m, &e) in self.members.iter().zip(combo) {
                    let slot = &plan.slots[m.slot];
                    let action = match e {
                        MISS => slot.default_action,
                        e => plan.entry_action(slot, e as usize),
                    };
                    ops.extend_from_slice(plan.ops(action));
                }
                op_starts.push(ops.len() as u32);
                next
            });
            rows.push(id);
        }
        Fused {
            fields,
            conds,
            entry_bits,
            rows,
            results,
            members: self.members.len(),
            op_starts,
            ops,
        }
    }
}

/// The entry of `table` the linear oracle picks among those whose bit is
/// set in `bits` (bit `e` is entry `e`): the highest priority, ties to
/// the lowest install index.
fn winner(table: &Table, bits: usize) -> u32 {
    let mut best: Option<(u32, usize)> = None;
    for (e, entry) in table.entries().iter().enumerate() {
        let priority = match entry.key {
            EntryKey::Ternary { priority, .. } => priority,
            _ => 0,
        };
        if bits >> e & 1 == 1 && best.is_none_or(|(p, _)| priority > p) {
            best = Some((priority, e));
        }
    }
    best.map_or(MISS, |(_, e)| e as u32)
}

/// Groups `plan`'s slots into steps and marks where the gated lanes go
/// stale.
fn plan_steps(plan: &ExecPlan, program: &Program) -> Vec<Step> {
    let mut runs: Vec<Run> = Vec::new();
    for (si, slot) in plan.slots.iter().enumerate() {
        let m = Member::of(si, &program.tables()[slot.table as usize], plan, program.layout());
        match runs.last().and_then(|r| r.admit(&m)) {
            Some(mode) => runs.last_mut().expect("open run").push(m, mode),
            None => runs.push(Run::start(m)),
        }
    }
    // Adjacent one-member runs on one ternary key share a probe.
    let mut merged: Vec<Run> = Vec::new();
    for mut run in runs {
        match merged.last_mut() {
            Some(prev) if prev.shares(&run) => {
                prev.members.append(&mut run.members);
                prev.shared = true;
            }
            _ => merged.push(run),
        }
    }
    let mut steps: Vec<(Step, Vec<FieldId>)> = merged.into_iter().map(|r| r.finish(plan)).collect();
    // The gate whose lanes are current as each step runs.
    let mut current: Option<FieldId> = None;
    for (step, writes) in &mut steps {
        if let Some(g) = step.gate {
            step.fresh_gate = current != Some(g);
            current = Some(g);
        }
        if current.is_some_and(|g| writes.contains(&g)) {
            current = None;
        }
    }
    steps.into_iter().map(|(step, _)| step).collect()
}

/// A compiled, immutable execution schedule for one [`Program`].
///
/// Built once by [`ExecPlan::build`] (the pipeline does this at
/// instantiation); thereafter the packet loop only indexes into it.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    slots: Vec<PlanSlot>,
    entry_actions: Vec<ActionId>,
    /// Every slot's key field ids; slot `s` owns
    /// `key_fields[key_starts[s]..key_starts[s + 1]]`.
    key_fields: Vec<FieldId>,
    key_starts: Vec<u32>,
    actions: Vec<Action>,
    /// The op slab; action `a` owns `ops[op_starts[a]..op_starts[a + 1]]`.
    ops: Vec<Op>,
    op_starts: Vec<u32>,
    owners: Vec<OwnerOp>,
    digest_fields: Vec<FieldId>,
    /// Compiled lookup index per table (indexed by table index).
    indexes: Vec<MatchIndex>,
    hash_flow: Option<HashFlowFields>,
    /// Compile-time flow-bank assignment: each logical register's
    /// `(bank, offset, width)` placement, computed here so cell
    /// addressing (`base + slot * stride + offset`) is fixed before the
    /// first packet. The pipeline's [`RegisterFile`](crate::register::RegisterFile)
    /// materializes exactly this layout.
    bank: BankLayout,
    /// The probe schedule the wave walks.
    steps: Vec<Step>,
}

impl ExecPlan {
    /// Flattens `program`'s stage→table schedule and interns every action.
    pub fn build(program: &Program) -> Self {
        let mut actions: Vec<Action> = Vec::new();
        let mut entry_actions: Vec<ActionId> = Vec::new();
        let mut slots: Vec<PlanSlot> = Vec::new();
        // Structural interning: identical actions (compilers emit the same
        // action under thousands of expanded ternary keys) share one arena
        // entry.
        let mut interned: HashMap<Action, ActionId> = HashMap::new();
        let mut intern = |a: &Action, actions: &mut Vec<Action>| -> ActionId {
            *interned.entry(a.clone()).or_insert_with(|| {
                actions.push(a.clone());
                ActionId(actions.len() as u32 - 1)
            })
        };
        let mut key_fields: Vec<FieldId> = Vec::new();
        let mut key_starts = vec![0u32];
        for stage in program.stages() {
            for &tid in &stage.tables {
                let table = program.table(tid);
                key_fields.extend_from_slice(&table.spec().key);
                key_starts.push(key_fields.len() as u32);
                let entries_start = entry_actions.len() as u32;
                for e in table.entries() {
                    let id = intern(&e.action, &mut actions);
                    entry_actions.push(id);
                }
                slots.push(PlanSlot {
                    table: tid.index() as u32,
                    default_action: intern(table.default_action(), &mut actions),
                    entries_start,
                    entries_len: table.n_entries() as u32,
                    gate: program.gate(tid),
                });
            }
        }
        let indexes: Vec<MatchIndex> = program.tables().iter().map(MatchIndex::build).collect();
        let layout = program.layout();
        let (mut ops, mut op_starts, mut owners) = (Vec::new(), vec![0u32], Vec::new());
        for a in &actions {
            compile_action(a, layout, &mut ops, &mut owners);
            op_starts.push(ops.len() as u32);
        }
        let hash_flow = match (
            layout.by_name("ipv4.src"),
            layout.by_name("ipv4.dst"),
            layout.by_name("l4.sport"),
            layout.by_name("l4.dport"),
            layout.by_name("ipv4.proto"),
        ) {
            (Some(src_ip), Some(dst_ip), Some(sport), Some(dport), Some(proto)) => {
                Some(HashFlowFields { src_ip, dst_ip, sport, dport, proto })
            }
            _ => None,
        };
        let bank = BankLayout::assign(program.registers());
        // Flow-indexed registers must share the slot domain for banking
        // to coalesce them: every register an `OwnerUpdate` touches is
        // per-flow by definition, so if any exists, all same-length
        // register groups that contain one must have banked together
        // (BankLayout groups strictly by `len`, so this amounts to the
        // ownership lane not being a singleton when flow state exists).
        debug_assert!(
            owners.windows(2).all(|w| {
                program.registers()[w[0].reg].len == program.registers()[w[1].reg].len
            }),
            "ownership lanes must share one slot domain"
        );
        let mut plan = Self {
            slots,
            entry_actions,
            key_fields,
            key_starts,
            actions,
            ops,
            op_starts,
            owners,
            digest_fields: program.digest_fields().to_vec(),
            indexes,
            hash_flow,
            bank,
            steps: Vec::new(),
        };
        plan.steps = plan_steps(&plan, program);
        plan
    }

    /// The flattened schedule, in execution order.
    pub fn slots(&self) -> &[PlanSlot] {
        &self.slots
    }

    /// The probe schedule: each step's member slots, in execution order.
    /// A packet that a step applies to costs it one probe, so the first
    /// member's hits plus misses count the step's probes.
    pub fn steps(&self) -> impl ExactSizeIterator<Item = &[PlanSlot]> + '_ {
        self.steps.iter().map(|s| &self.slots[s.start as usize..s.end as usize])
    }

    /// The steps the wave executes.
    pub(crate) fn exec_steps(&self) -> &[Step] {
        &self.steps
    }

    /// The steps, for a test to replace with a schedule `plan_steps`
    /// would not form.
    #[cfg(test)]
    pub(crate) fn exec_steps_mut(&mut self) -> &mut Vec<Step> {
        &mut self.steps
    }

    /// The interned action arena.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// An interned action by id.
    pub fn action(&self, id: ActionId) -> &Action {
        &self.actions[id.index()]
    }

    /// The action bound to entry `entry` of slot `slot`.
    pub fn entry_action(&self, slot: &PlanSlot, entry: usize) -> ActionId {
        debug_assert!(entry < slot.entries_len as usize);
        self.entry_actions[slot.entries_start as usize + entry]
    }

    /// Key field ids of the slot at index `slot` in [`ExecPlan::slots`]:
    /// the wave reads the key's components in place through them.
    pub(crate) fn slot_key(&self, slot: usize) -> &[FieldId] {
        &self.key_fields[self.key_starts[slot] as usize..self.key_starts[slot + 1] as usize]
    }

    /// The pre-resolved ops of an interned action.
    #[inline]
    pub(crate) fn ops(&self, id: ActionId) -> &[Op] {
        let i = id.index();
        &self.ops[self.op_starts[i] as usize..self.op_starts[i + 1] as usize]
    }

    /// The `OwnerUpdate` an [`Op::OwnerUpdate`] names.
    pub(crate) fn owner_op(&self, i: u32) -> &OwnerOp {
        &self.owners[i as usize]
    }

    /// The program's digest fields, in declaration order.
    pub(crate) fn digest_fields(&self) -> &[FieldId] {
        &self.digest_fields
    }

    /// Pre-resolved `HashFlow` fields (if the layout carries them).
    pub fn hash_flow(&self) -> Option<HashFlowFields> {
        self.hash_flow
    }

    /// The compiled lookup index of table `table` (a raw table index, as
    /// carried by [`PlanSlot::table`]).
    pub fn match_index(&self, table: usize) -> &MatchIndex {
        &self.indexes[table]
    }

    /// The compile-time flow-bank layout (per-register `(bank, offset,
    /// width)` placements).
    pub fn bank_layout(&self) -> &BankLayout {
        &self.bank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{AluOp, Primitive};
    use crate::pipeline::Pipeline;
    use crate::program::ProgramBuilder;
    use crate::register::RegisterSpec;
    use crate::table::{TableId, TableSpec};
    use crate::tcam::Ternary;

    /// Each step's member table indexes.
    fn steps_of(p: &Program) -> Vec<Vec<usize>> {
        ExecPlan::build(p).steps().map(|s| s.iter().map(|m| m.table as usize).collect()).collect()
    }

    /// An exact table on the 1-bit `key` with an entry for 0 and for 1,
    /// both running `action`: its direct domain spans the field.
    fn flag_table(b: &mut ProgramBuilder, name: &str, key: FieldId, action: Action) -> TableId {
        let t = b.add_table(TableSpec::exact(name, vec![key], 4), 0);
        for v in 0..2 {
            b.add_exact_entry(t, vec![v], action.clone()).unwrap();
        }
        t
    }

    fn set(f: FieldId, v: u64) -> Action {
        Action::new("set").with(Primitive::set_const(f, v))
    }

    fn bump(reg: crate::register::RegId) -> Action {
        Action::new("bump").with(Primitive::RegRmw {
            reg,
            index: Source::Const(0),
            op: AluOp::Add,
            operand: Source::Const(1),
            out: None,
        })
    }

    /// Runs every PHV through the wave and the entry walk and asserts the
    /// same outcomes, registers and table statistics.
    fn assert_walks_agree(p: &Program, phvs: &[Vec<(FieldId, u64)>]) {
        let (mut plan, mut walk) = (Pipeline::new(p.clone()), Pipeline::new(p.clone()));
        for (n, vals) in phvs.iter().enumerate() {
            let mut phv = p.layout().new_phv();
            for &(f, v) in vals {
                phv.set(f, v);
            }
            let a = plan.process_phv(phv.clone(), n as u64);
            let b = walk.process_phv_entrywalk(phv, n as u64);
            assert_eq!((a.phv, a.disposition, a.passes), (b.phv, b.disposition, b.passes));
        }
        assert_eq!(format!("{:?}", plan.registers()), format!("{:?}", walk.registers()));
        assert_eq!(
            format!("{:?}", plan.program().tables()),
            format!("{:?}", walk.program().tables())
        );
    }

    #[test]
    fn gate_change_or_gate_write_ends_a_run() {
        let mut b = ProgramBuilder::new();
        let (a, g, out) = (b.add_meta("a", 1), b.add_meta("g", 1), b.add_meta("out", 8));
        flag_table(&mut b, "t0", a, set(out, 1));
        let t1 = flag_table(&mut b, "t1", a, set(out, 2));
        let t2 = flag_table(&mut b, "t2", a, set(g, 0));
        let t3 = flag_table(&mut b, "t3", a, set(out, 3));
        for t in [t1, t2, t3] {
            b.gate_table(t, g);
        }
        let p = b.build().unwrap();
        // t1 joins no ungated run; t2 writes the gate, so t3 sees it anew.
        assert_eq!(steps_of(&p), [vec![0], vec![1, 2], vec![3]]);
        let plan = ExecPlan::build(&p);
        let fresh: Vec<bool> = plan.exec_steps().iter().map(|s| s.fresh_gate).collect();
        assert_eq!(fresh, [false, true, true]);
        let phvs: Vec<_> = (0..4).map(|v| vec![(a, v & 1), (g, v >> 1)]).collect();
        assert_walks_agree(&p, &phvs);
    }

    #[test]
    fn key_read_of_an_earlier_write_ends_a_run() {
        let mut b = ProgramBuilder::new();
        let (a, c, d) = (b.add_meta("a", 1), b.add_meta("c", 1), b.add_meta("d", 1));
        flag_table(
            &mut b,
            "writes_c",
            a,
            Action::new("inc").with(Primitive::Add {
                dst: c,
                a: Source::Field(a),
                b: Source::Const(1),
            }),
        );
        flag_table(&mut b, "reads_d", d, set(d, 0));
        flag_table(&mut b, "reads_c", c, set(d, 1));
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0, 1], vec![2]]);
        let phvs: Vec<_> = (0..8).map(|v| vec![(a, v & 1), (c, v >> 1 & 1), (d, v >> 2)]).collect();
        assert_walks_agree(&p, &phvs);
    }

    #[test]
    fn shared_register_ends_a_run() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 1);
        let r0 = b.add_register(RegisterSpec::new("r0", 32, 4), 0);
        let r1 = b.add_register(RegisterSpec::new("r1", 32, 4), 0);
        flag_table(&mut b, "t0", a, bump(r0));
        flag_table(&mut b, "t1", a, bump(r1));
        flag_table(&mut b, "t2", a, bump(r0));
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0, 1], vec![2]]);
        assert_walks_agree(&p, &[vec![(a, 0)], vec![(a, 1)]]);
    }

    #[test]
    fn row_budget_ends_a_run_and_shared_fields_count_once() {
        let mut b = ProgramBuilder::new();
        let f: Vec<FieldId> = (0..3).map(|i| b.add_meta(format!("f{i}"), 4)).collect();
        let out = b.add_meta("out", 8);
        // Entry 15 stretches each domain over its whole 4-bit field; five
        // entries are too many for one bit each.
        let nibble = |b: &mut ProgramBuilder, name: &str, key: FieldId| {
            let t = b.add_table(TableSpec::exact(name, vec![key], 8), 0);
            for v in [15, 3, 1, 2, 4] {
                b.add_exact_entry(t, vec![v], set(out, v)).unwrap();
            }
        };
        nibble(&mut b, "x", f[0]);
        nibble(&mut b, "y", f[1]);
        nibble(&mut b, "z", f[2]);
        nibble(&mut b, "x_again", f[0]);
        let p = b.build().unwrap();
        // 4 + 4 bits fit, a third field would make 12; `x_again` adds none.
        assert_eq!(steps_of(&p), [vec![0, 1], vec![2, 3]]);
        let phvs: Vec<_> =
            (0..16).map(|v| vec![(f[0], v), (f[1], 15 - v), (f[2], v ^ 3)]).collect();
        assert_walks_agree(&p, &phvs);
    }

    #[test]
    fn small_tables_join_with_one_bit_per_entry() {
        let mut b = ProgramBuilder::new();
        let (a, w, out) = (b.add_meta("a", 1), b.add_meta("w", 16), b.add_meta("out", 8));
        flag_table(&mut b, "flags", a, set(out, 1));
        // Four overlapping patterns over 14 bits (no direct index): the
        // later, higher-priority entries must win where they overlap, and
        // the earlier of two equal ones.
        let t = b.add_table(TableSpec::ternary("few", vec![w], 4), 0);
        let pats = [(0x1000, 0x1000, 1), (0x3000, 0x3000, 2), (0x3000, 0x3000, 2), (0, 0, 0)];
        for (i, (value, mask, prio)) in pats.into_iter().enumerate() {
            let pat = Ternary::new(value, mask);
            b.add_ternary_entry(t, vec![pat], prio, set(out, 10 + i as u64)).unwrap();
        }
        let five = b.add_table(TableSpec::ternary("five", vec![w], 8), 0);
        for v in 0..5 {
            b.add_ternary_entry(five, vec![Ternary::exact(v << 12, 16)], 0, set(out, 20)).unwrap();
        }
        let p = b.build().unwrap();
        assert!(!matches!(ExecPlan::build(&p).match_index(t.index()), MatchIndex::Direct(_)));
        assert_eq!(steps_of(&p), [vec![0, 1], vec![2]]);
        let phvs: Vec<_> = [0, 0x1000, 0x2000, 0x3000, 0x3001, 0xffff]
            .iter()
            .map(|&v| vec![(a, v & 1), (w, v)])
            .collect();
        assert_walks_agree(&p, &phvs);
    }

    #[test]
    fn exact_table_narrower_than_its_field_stays_alone() {
        let mut b = ProgramBuilder::new();
        let (a, byte, out) = (b.add_meta("a", 1), b.add_meta("byte", 8), b.add_meta("out", 8));
        flag_table(&mut b, "flags", a, set(out, 1));
        // Five entries, domain 0b111 of an 8-bit field: byte 9 would
        // land in row 1, so the table keeps its own index.
        let t = b.add_table(TableSpec::exact("narrow", vec![byte], 8), 0);
        for v in 0..5 {
            b.add_exact_entry(t, vec![v], set(out, 2)).unwrap();
        }
        flag_table(&mut b, "after", a, set(out, 3));
        let p = b.build().unwrap();
        assert!(matches!(ExecPlan::build(&p).match_index(t.index()), MatchIndex::Direct(_)));
        assert_eq!(steps_of(&p), [vec![0], vec![1], vec![2]]);
        assert_walks_agree(&p, &[vec![(byte, 1)], vec![(byte, 9)], vec![(a, 1), (byte, 4)]]);
    }

    #[test]
    fn fused_step_walks_members_for_a_value_past_its_width() {
        let mut b = ProgramBuilder::new();
        let (a, out) = (b.add_meta("a", 1), b.add_meta("out", 8));
        flag_table(&mut b, "t0", a, set(out, 1));
        flag_table(&mut b, "t1", a, Action::new("nop"));
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0, 1]]);
        // `Phv::set` stores 3 in the 1-bit field verbatim: both miss.
        assert_walks_agree(&p, &[vec![(a, 3)], vec![(a, 1)]]);
    }

    /// A ternary table on `key` past the direct budget (12-bit care masks
    /// on the first field) and the per-entry one (six entries): entries 0
    /// and 3, and 1 and 4, share a pattern on it under different
    /// priorities, and entry 5 is wildcard on it, tied with entry 4.
    fn wide_table(
        b: &mut ProgramBuilder,
        name: &str,
        key: &[FieldId],
        action: impl Fn(u64) -> Action,
    ) -> TableId {
        let t = b.add_table(TableSpec::ternary(name, key.to_vec(), 8), 0);
        for e in 0..6u64 {
            let mut pats = vec![Ternary::ANY; key.len()];
            if e < 5 {
                pats[0] = Ternary::new((e % 3) << 10, 0xC00);
            }
            if key.len() > 1 {
                pats[1] = Ternary::exact(e & 1, 1);
            }
            b.add_ternary_entry(t, pats, e as u32 / 2, action(e)).unwrap();
        }
        t
    }

    /// PHVs over `w` (past its 16-bit width too) and the flag `a`.
    fn wide_phvs(w: FieldId, a: FieldId) -> Vec<Vec<(FieldId, u64)>> {
        [0, 0x400, 0x800, 0xC00, 0x1FF, 0x10400]
            .iter()
            .flat_map(|&v| [vec![(w, v), (a, 0)], vec![(w, v), (a, 1)]])
            .collect()
    }

    #[test]
    fn same_key_ternary_tables_share_one_probe() {
        let mut b = ProgramBuilder::new();
        let (w, a, out) = (b.add_meta("w", 16), b.add_meta("a", 1), b.add_meta("out", 8));
        for i in 0..3u64 {
            let r = b.add_register(RegisterSpec::new(format!("r{i}"), 32, 4), 0);
            wide_table(&mut b, &format!("t{i}"), &[w, a], |e| {
                bump(r).with(Primitive::set_const(out, 10 * i + e))
            });
        }
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0, 1, 2]]);
        let plan = ExecPlan::build(&p);
        assert!(matches!(plan.exec_steps()[0].probe, StepProbe::Shared(_)));
        assert_walks_agree(&p, &wide_phvs(w, a));
    }

    #[test]
    fn gate_change_or_gate_write_ends_a_shared_run() {
        let mut b = ProgramBuilder::new();
        let (w, a, g) = (b.add_meta("w", 16), b.add_meta("a", 1), b.add_meta("g", 1));
        wide_table(&mut b, "ungated", &[w, a], |e| set(a, e & 1));
        let t1 = wide_table(&mut b, "writes_g", &[w, a], |e| set(g, e & 1));
        let t2 = wide_table(&mut b, "gated", &[w, a], |_| Action::new("nop"));
        for t in [t1, t2] {
            b.gate_table(t, g);
        }
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0], vec![1], vec![2]]);
        let phvs: Vec<_> = wide_phvs(w, a)
            .into_iter()
            .flat_map(|v| [v.clone(), [v, vec![(g, 1)]].concat()])
            .collect();
        assert_walks_agree(&p, &phvs);
    }

    #[test]
    fn key_write_ends_a_shared_run_but_the_last_member_may_write() {
        let mut b = ProgramBuilder::new();
        let (w, a, out) = (b.add_meta("w", 16), b.add_meta("a", 1), b.add_meta("out", 8));
        wide_table(&mut b, "writes_a", &[w, a], |e| set(a, e & 1));
        wide_table(&mut b, "reads_a", &[w, a], |e| set(out, e));
        wide_table(&mut b, "writes_w", &[w, a], |e| set(w, e << 10));
        wide_table(&mut b, "reads_w", &[w, a], |e| set(out, 10 + e));
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0], vec![1, 2], vec![3]]);
        assert_walks_agree(&p, &wide_phvs(w, a));
    }

    #[test]
    fn shared_register_ends_a_shared_run() {
        let mut b = ProgramBuilder::new();
        let (w, a) = (b.add_meta("w", 16), b.add_meta("a", 1));
        let r0 = b.add_register(RegisterSpec::new("r0", 32, 4), 0);
        let r1 = b.add_register(RegisterSpec::new("r1", 32, 4), 0);
        wide_table(&mut b, "t0", &[w, a], |_| bump(r0));
        wide_table(&mut b, "t1", &[w, a], |_| bump(r0));
        wide_table(&mut b, "t2", &[w, a], |_| bump(r1));
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0], vec![1, 2]]);
        assert_walks_agree(&p, &wide_phvs(w, a));
    }

    #[test]
    fn key_field_order_or_index_kind_ends_a_shared_run() {
        let mut b = ProgramBuilder::new();
        let (w, a, out) = (b.add_meta("w", 16), b.add_meta("a", 1), b.add_meta("out", 8));
        wide_table(&mut b, "wa", &[w, a], |e| set(out, e));
        wide_table(&mut b, "aw", &[a, w], |e| set(out, 10 + e));
        wide_table(&mut b, "aw_again", &[a, w], |e| set(out, 20 + e));
        // The same key, but narrow enough for a direct index.
        let t = b.add_table(TableSpec::ternary("narrow", vec![a, w], 8), 0);
        b.add_ternary_entry(t, vec![Ternary::ANY, Ternary::new(1, 1)], 0, set(out, 30)).unwrap();
        let p = b.build().unwrap();
        assert_eq!(steps_of(&p), [vec![0], vec![1, 2], vec![3]]);
        assert_walks_agree(&p, &wide_phvs(w, a));
    }

    #[test]
    fn shared_runs_stop_at_the_member_cap() {
        let mut b = ProgramBuilder::new();
        let (w, a, out) = (b.add_meta("w", 16), b.add_meta("a", 1), b.add_meta("out", 8));
        for i in 0..SHARED_MAX as u64 + 1 {
            wide_table(&mut b, &format!("t{i}"), &[w, a], |e| set(out, 10 * i + e));
        }
        let p = b.build().unwrap();
        let first: Vec<usize> = (0..SHARED_MAX).collect();
        assert_eq!(steps_of(&p), [first, vec![SHARED_MAX]]);
        assert_walks_agree(&p, &wide_phvs(w, a));
    }

    #[test]
    fn flattens_schedule_in_stage_order() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let t1 = b.add_table(TableSpec::exact("later", vec![f], 4), 1);
        let t0 = b.add_table(TableSpec::exact("earlier", vec![f], 4), 0);
        b.add_exact_entry(t0, vec![1], Action::new("a")).unwrap();
        b.add_exact_entry(t1, vec![2], Action::new("b")).unwrap();
        let p = b.build().unwrap();
        let plan = ExecPlan::build(&p);
        // stage 0's table first even though it was declared second
        assert_eq!(plan.slots().len(), 2);
        assert_eq!(plan.slots()[0].table as usize, t0.index());
        assert_eq!(plan.slots()[1].table as usize, t1.index());
    }

    #[test]
    fn interns_identical_actions_once() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        let out = b.add_meta("out", 8);
        let t = b.add_table(TableSpec::exact("t", vec![f], 8), 0);
        // Three entries sharing one structurally identical action.
        for v in 0..3 {
            b.add_exact_entry(t, vec![v], Action::new("same").with(Primitive::set_const(out, 7)))
                .unwrap();
        }
        let p = b.build().unwrap();
        let plan = ExecPlan::build(&p);
        let slot = plan.slots()[0];
        let first = plan.entry_action(&slot, 0);
        assert_eq!(plan.entry_action(&slot, 1), first);
        assert_eq!(plan.entry_action(&slot, 2), first);
        // arena: the shared action + the nop default
        assert_eq!(plan.actions().len(), 2);
    }

    #[test]
    fn resolves_hash_flow_fields_only_with_standard_layout() {
        let mut b = ProgramBuilder::new();
        b.add_meta("f", 8);
        let plain = ExecPlan::build(&b.build().unwrap());
        assert!(plain.hash_flow().is_none());

        let mut b = ProgramBuilder::new();
        let fields = b.standard_fields();
        let p = b.build().unwrap();
        let std_plan = ExecPlan::build(&p);
        let hf = std_plan.hash_flow().expect("standard fields resolve");
        assert_eq!(hf.src_ip, fields.ipv4_src);
        assert_eq!(hf.proto, fields.ip_proto);
    }
}
