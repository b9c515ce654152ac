//! Action primitives executed on a table hit.
//!
//! Actions are short straight-line programs over PHV fields and register
//! arrays, mirroring what a single RMT stage's VLIW action engine plus
//! stateful ALUs can do: move/arith on fields, one read-modify-write per
//! register array, and the two pipeline-control effects SpliDT relies on —
//! **resubmit** (the in-band control channel) and **digest** (verdict
//! export to the controller).

use crate::phv::FieldId;
use crate::register::{RegAluOp, RegId};
use serde::{Deserialize, Serialize};

/// An operand: a constant or a PHV field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// Immediate constant.
    Const(u64),
    /// Read a PHV field.
    Field(FieldId),
}

/// Which value a register RMW exports to the PHV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOut {
    /// The value before the update.
    Old,
    /// The value after the update.
    New,
}

/// Re-export of the register ALU op for action declarations.
pub type AluOp = RegAluOp;

/// What an [`Primitive::OwnerUpdate`] does to the slot's ownership lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OwnerMode {
    /// First-pass admission probe: classify the packet against the lane
    /// (owner / claim / takeover / live collision) and claim or refresh
    /// the lane accordingly. A mismatching *live* lane is left untouched.
    /// With `claim = false` (the protocol-aware policy's non-SYN entries)
    /// the probe never claims: a packet that would have admitted a flow
    /// is exported as [`SlotState::Unsolicited`] instead.
    Probe,
    /// Verdict pass: mark the lane decided (keeping the fingerprint) so
    /// trailing owner packets stay inert and any other flow may reclaim
    /// the slot immediately. The verdict class and the policy's pinned
    /// flag are written into the lane; with `release = true` (FIN/RST
    /// entries of the TCP-aware policy) an unpinned lane is freed
    /// outright instead of parked decided. No-op unless the fingerprint
    /// still matches.
    Decide,
}

/// Outcome of an ownership-lane probe, exported to a PHV metadata field.
/// The numeric codes are what match keys and the lifecycle table see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SlotState {
    /// Fingerprint matched a live lane — the packet belongs to the owner.
    Owner = 0,
    /// The lane was free; the flow claimed it (first-ever admission).
    ClaimFree = 1,
    /// The lane's owner idled past the timeout; the flow took the slot
    /// over and must reset the slot's flow state in-pass.
    TakeoverIdle = 2,
    /// The lane's owner already received a verdict; immediate takeover.
    TakeoverDecided = 3,
    /// The lane belongs to a *live* other flow: the packet must not touch
    /// shared state — it is counted and dispositioned, never merged.
    LiveCollision = 4,
    /// Fingerprint matched a decided lane — a trailing packet of a flow
    /// that already has its verdict; fully inert.
    OwnerDecided = 5,
    /// The lane was claimable (free, idle or decided) but the probe ran
    /// without claim permission: under the TCP-aware policy a non-SYN
    /// packet of an unknown flow — scan/backscatter traffic — is counted,
    /// never admitted.
    Unsolicited = 6,
    /// Decide pass on a FIN/RST verdict packet: the lane was released
    /// in-band (freed without waiting for the controller's digest drain).
    OwnerRelease = 7,
    /// A decided-but-**pinned** lane idled past `pinned_timeout_us` and
    /// was finally taken over.
    TakeoverPinned = 8,
    /// A decided-but-pinned lane inside its pinned timeout defended the
    /// slot: the colliding packet is suppressed like a live collision.
    PinnedDefended = 9,
}

impl SlotState {
    /// The numeric code carried in the PHV state field.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Bits needed by the PHV state field.
    pub const BITS: u8 = 4;
}

/// One action primitive.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Primitive {
    /// `dst = src` (masked to `dst` width).
    Set {
        /// Destination field.
        dst: FieldId,
        /// Source operand.
        src: Source,
    },
    /// `dst = a + b` (wrapping, masked to `dst` width).
    Add {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Source,
        /// Right operand.
        b: Source,
    },
    /// `dst = a - b` (wrapping, masked to `dst` width).
    Sub {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Source,
        /// Right operand.
        b: Source,
    },
    /// `dst = min(a, b)` (masked to `dst` width). Used to cap operands
    /// before they feed saturating feature registers.
    Min {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Source,
        /// Right operand.
        b: Source,
    },
    /// `dst = max(a, b)` (masked to `dst` width).
    Max {
        /// Destination field.
        dst: FieldId,
        /// Left operand.
        a: Source,
        /// Right operand.
        b: Source,
    },
    /// `dst = a / divisor` (integer division by a compile-time constant).
    ///
    /// Hardware realizes small-constant division with a multiply-shift in
    /// the ALU or a compact lookup table; SpliDT needs exactly one of these
    /// — `window_len = flow_size / p` — per packet.
    DivConst {
        /// Destination field.
        dst: FieldId,
        /// Dividend.
        a: Source,
        /// Compile-time divisor (> 0).
        divisor: u64,
    },
    /// CRC32 hash of the canonicalized 5-tuple into `dst`, masked by
    /// `mask` (a power-of-two-minus-one selecting the register index
    /// range). Canonicalization orders (src, dst) so both directions of a
    /// flow hash identically — the P4 original does the same with min/max
    /// comparisons before the hash extern. A nonzero `salt` selects a
    /// second, independently seeded hash engine (used for the
    /// ownership-lane fingerprint, which must not correlate with the
    /// register index).
    HashFlow {
        /// Destination field (flow index metadata).
        dst: FieldId,
        /// Index mask (`slots - 1`).
        mask: u64,
        /// Hash-engine seed; 0 = the canonical index hash.
        salt: u64,
    },
    /// One predicated read-modify-write on a slot's **ownership lane**
    /// (see [`crate::register::owner_lane`] for the cell layout): the
    /// dual-ALU compare-and-update shape Tofino SALUs provide and pForest
    /// leans on for register reuse. In [`OwnerMode::Probe`] the primitive
    /// compares `fp` against the stored fingerprint, checks idleness
    /// (`now − last_seen > idle_timeout_us`) and the decided flag, claims
    /// or refreshes the lane, and exports the resulting [`SlotState`]
    /// code; in [`OwnerMode::Decide`] it sets the decided flag if the
    /// fingerprint still matches.
    OwnerUpdate {
        /// The ownership-lane register array (64-bit cells).
        reg: RegId,
        /// Element index source (the flow-hash metadata field).
        index: Source,
        /// The packet's flow fingerprint (24 bits, nonzero).
        fp: Source,
        /// Current time (µs; truncated to 32 bits in the lane).
        now: Source,
        /// Idle threshold in µs beyond which a live owner is evictable.
        idle_timeout_us: u64,
        /// Idle threshold in µs beyond which even a **pinned** decided
        /// lane is evictable (≥ `idle_timeout_us`).
        pinned_timeout_us: u64,
        /// Probe (first pass) or Decide (verdict pass).
        mode: OwnerMode,
        /// Probe: whether this entry's packets may claim a claimable lane
        /// (free / idle / decided). The TCP-aware policy grants claim only
        /// to SYN entries; refused claims export
        /// [`SlotState::Unsolicited`].
        claim: bool,
        /// In-band FIN/RST release. On Decide: free the lane outright
        /// instead of parking it decided (ignored when `pin` is set —
        /// pinned verdicts always keep their lane). On Probe: an owner
        /// packet meeting its own unpinned *decided* lane frees it — the
        /// early-exit flow's trailing FIN. Exports
        /// [`SlotState::OwnerRelease`] either way.
        release: bool,
        /// Decide: mark the lane pinned (class-aware eviction resistance).
        pin: bool,
        /// Decide: the verdict class stored in the lane's class bits.
        class: Source,
        /// PHV field receiving the [`SlotState`] code.
        state_out: FieldId,
    },
    /// Read-modify-write on a register array element.
    RegRmw {
        /// Target register array.
        reg: RegId,
        /// Element index source (e.g. the flow-hash metadata field).
        index: Source,
        /// ALU operation.
        op: AluOp,
        /// ALU operand.
        operand: Source,
        /// Optionally export old/new value into a PHV field.
        out: Option<(FieldId, AluOut)>,
    },
    /// Mark the packet for resubmission (recirculation) after this pass.
    Resubmit,
    /// Emit a digest (the program's digest field set) to the controller.
    Digest,
    /// Drop the packet at the end of the pass.
    Drop,
}

impl Primitive {
    /// Shorthand: `dst = const`.
    pub fn set_const(dst: FieldId, v: u64) -> Self {
        Primitive::Set { dst, src: Source::Const(v) }
    }

    /// Shorthand: `dst = field`.
    pub fn set_field(dst: FieldId, src: FieldId) -> Self {
        Primitive::Set { dst, src: Source::Field(src) }
    }
}

/// A named action: a sequence of primitives executed on a hit.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Action {
    /// Name (for debugging and rule dumps).
    pub name: String,
    /// Primitives, executed in order.
    pub prims: Vec<Primitive>,
}

impl Action {
    /// An action with no primitives.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), prims: Vec::new() }
    }

    /// No-op action (the default for most tables).
    pub fn nop() -> Self {
        Self::new("nop")
    }

    /// Appends a primitive (builder style).
    pub fn with(mut self, p: Primitive) -> Self {
        self.prims.push(p);
        self
    }

    /// The register arrays this action touches.
    pub fn regs_touched(&self) -> Vec<RegId> {
        self.prims
            .iter()
            .filter_map(|p| match p {
                Primitive::RegRmw { reg, .. } | Primitive::OwnerUpdate { reg, .. } => Some(*reg),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phv::PhvLayout;

    #[test]
    fn builder_and_shorthands() {
        let mut l = PhvLayout::new();
        let a = l.add_field("a", 8);
        let b = l.add_field("b", 8);
        let act = Action::new("t")
            .with(Primitive::set_const(a, 5))
            .with(Primitive::set_field(b, a))
            .with(Primitive::Resubmit);
        assert_eq!(act.prims.len(), 3);
        assert_eq!(act.name, "t");
        assert!(act.regs_touched().is_empty());
    }

    #[test]
    fn regs_touched_lists_rmws() {
        let mut l = PhvLayout::new();
        let idx = l.add_field("idx", 16);
        let act = Action::new("r").with(Primitive::RegRmw {
            reg: RegId(3),
            index: Source::Field(idx),
            op: AluOp::Add,
            operand: Source::Const(1),
            out: None,
        });
        assert_eq!(act.regs_touched(), vec![RegId(3)]);
    }
}
