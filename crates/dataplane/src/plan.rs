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
//!   [`PlanSlot`]s walked by index; each slot carries its table's gate
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
//! The wave executor runs the op slab, never the [`Action`]s themselves
//! (those stay for the entry-walk oracle and the P4 emitter), so the
//! steady-state packet path performs zero heap allocations (verified by
//! `tests/zero_alloc.rs`).
//!
//! Alongside the action arena the plan compiles one
//! [`MatchIndex`] per table — the lookup structures (direct rows for
//! narrow tables, packed-key exact maps, elementary-interval range
//! indexes, pivot-dispatched ternary groups) the hot path dispatches
//! through instead of scanning installed entries; they read each slot's
//! key in place through its key field ids. Runtime entry
//! installation goes through
//! [`Pipeline::install_entry`](crate::pipeline::Pipeline::install_entry),
//! which invalidates and rebuilds the whole plan (indexes included).

use crate::action::{Action, AluOut, OwnerMode, Primitive, Source};
use crate::index::MatchIndex;
use crate::phv::{FieldId, PhvLayout};
use crate::program::Program;
use crate::register::{BankLayout, RegAluOp};
use std::collections::HashMap;

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
    max_mask_words: usize,
    /// Compile-time flow-bank assignment: each logical register's
    /// `(bank, offset, width)` placement, computed here so cell
    /// addressing (`base + slot * stride + offset`) is fixed before the
    /// first packet. The pipeline's [`RegisterFile`](crate::register::RegisterFile)
    /// materializes exactly this layout.
    bank: BankLayout,
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
        let max_mask_words = indexes.iter().map(MatchIndex::mask_words).max().unwrap_or(0);
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
        Self {
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
            max_mask_words,
            bank,
        }
    }

    /// The flattened schedule, in execution order.
    pub fn slots(&self) -> &[PlanSlot] {
        &self.slots
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

    /// The most scratch words any index needs (see
    /// [`MatchIndex::mask_words`]) — the capacity of the pipeline's
    /// reusable scratch buffer.
    pub fn max_mask_words(&self) -> usize {
        self.max_mask_words
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
    use crate::action::Primitive;
    use crate::program::ProgramBuilder;
    use crate::table::TableSpec;

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
