//! The flow-feature catalogue and window feature extraction.
//!
//! This is the reproduction of the paper's (modified) CICFlowMeter: ~70
//! features computed **per window** with state reset at window boundaries.
//! Fidelity to the data plane is by construction: every *deployable*
//! stateful feature is defined as a [`SlotProgram`] — the exact register
//! update rule a SpliDT feature slot runs (guarded saturating
//! add/max/write over a 24-bit domain) plus a load transform applied when
//! the prediction phase reads the register. The software extractor in this
//! module *interprets the same programs*, so software-side training
//! matrices and data-plane register contents agree bit-for-bit (an
//! invariant the integration tests assert).
//!
//! Three availability classes (mirroring the landscape in the paper §2):
//! * **Stateless** — per-packet header fields; all the per-packet baselines
//!   (IIsy \[79\]/Planter \[84\]) may use.
//! * **Deployable stateful** — expressible as one register slot (+ shared
//!   dependency-chain registers): counts, sums, min/max, flag counts,
//!   IAT statistics, durations. NetBeacon/Leo/SpliDT models train on these.
//! * **Software-only** — means, deviations, rates and ratios requiring
//!   division/sqrt; only the unconstrained "ideal" baseline may use them.

use crate::flow::{Dir, FlowTrace, TracePacket};
use crate::window::window_bounds;
use std::sync::OnceLock;

/// Bit width of the feature value domain.
///
/// 2^24 − 1 caps every feature value; the cap (a) matches a saturating
/// stateful-ALU configuration and (b) keeps every value exactly
/// representable in `f32`, which is what makes software training matrices
/// and data-plane integer matching consistent.
pub const FEATURE_BITS: u8 = 24;

/// Saturation cap for feature values: `2^24 − 1`.
pub const FEATURE_CAP: u64 = (1 << FEATURE_BITS) - 1;

/// Direction scope of a stateful feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Both directions.
    All,
    /// Initiator → responder packets only.
    Fwd,
    /// Responder → initiator packets only.
    Bwd,
}

impl Scope {
    /// Whether a packet direction falls in this scope.
    pub fn admits(self, dir: Dir) -> bool {
        matches!((self, dir), (Scope::All, _) | (Scope::Fwd, Dir::Fwd) | (Scope::Bwd, Dir::Bwd))
    }

    /// Short name used in feature names.
    fn tag(self) -> &'static str {
        match self {
            Scope::All => "",
            Scope::Fwd => "fwd_",
            Scope::Bwd => "bwd_",
        }
    }
}

/// The value fed to a slot's ALU when its guard admits a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Constant 1 (counting).
    One,
    /// Frame length in bytes.
    FrameLen,
    /// `FEATURE_CAP − frame length` (for negated minimum encodings).
    NegFrameLen,
    /// Header bytes.
    HdrLen,
    /// Payload bytes.
    PayloadLen,
    /// Ingress timestamp (µs, 32-bit domain — used only by `RawTs` slots).
    NowUs,
    /// Inter-arrival gap vs. the previous packet in `Scope`, capped.
    Iat(Scope),
    /// `FEATURE_CAP − Iat(scope)` (negated minimum encoding).
    NegIat(Scope),
}

/// The register update applied when the guard admits a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Saturating add.
    Add,
    /// Running maximum.
    Max,
    /// Overwrite.
    Write,
}

/// Which kind of register cell backs the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRegKind {
    /// 32-bit cell saturating at [`FEATURE_CAP`] (the common case).
    CappedAccum,
    /// 32-bit raw timestamp cell (no cap; load transform caps the result).
    RawTs,
}

/// Admission predicate for a slot update — realized in hardware as extra
/// match fields on the operator-selection MATs (paper §3.1.1: "to update a
/// stateful feature only on SYN packets … the MATs can include TCP flags as
/// a match condition").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Guard {
    /// Direction filter.
    pub scope: Scope,
    /// All bits of this mask must be set in the packet's TCP flags
    /// (0 = no flag condition).
    pub flags_mask: u8,
    /// Inclusive frame-length range filter.
    pub len_range: Option<(u16, u16)>,
    /// Inclusive payload-length range filter.
    pub payload_range: Option<(u16, u16)>,
    /// Requires a previous packet in `Scope` within the window (IAT
    /// validity; realized by matching the dependency register ≠ 0).
    pub require_prev: Option<Scope>,
    /// Fires only on the first packet of the window (`win_count == 1`).
    pub win_first_only: bool,
}

impl Guard {
    /// A guard admitting every packet in `scope`.
    pub fn scope(scope: Scope) -> Self {
        Self {
            scope,
            flags_mask: 0,
            len_range: None,
            payload_range: None,
            require_prev: None,
            win_first_only: false,
        }
    }

    /// Whether the guard admits this packet. `prev_ts` carries the previous
    /// timestamps per scope (All/Fwd/Bwd), `win_first` whether this is the
    /// window's first packet.
    pub fn admits(&self, pkt: &TracePacket, prev: &PrevState, win_first: bool) -> bool {
        if !self.scope.admits(pkt.dir) {
            return false;
        }
        if self.flags_mask != 0 && pkt.tcp_flags & self.flags_mask != self.flags_mask {
            return false;
        }
        if let Some((lo, hi)) = self.len_range {
            if pkt.frame_len < lo || pkt.frame_len > hi {
                return false;
            }
        }
        if let Some((lo, hi)) = self.payload_range {
            let p = pkt.payload_len();
            if p < lo || p > hi {
                return false;
            }
        }
        if let Some(scope) = self.require_prev {
            if prev.get(scope).is_none() {
                return false;
            }
        }
        if self.win_first_only && !win_first {
            return false;
        }
        true
    }
}

/// How the prediction phase converts the raw register value into the
/// feature value used as a match key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadTransform {
    /// Feature value = register value.
    Identity,
    /// Feature value = `FEATURE_CAP − register` (negated minimums).
    NegCap,
    /// Feature value = `min(now − register, FEATURE_CAP)` (durations; the
    /// register holds a raw timestamp).
    SinceTs,
}

/// A deployable stateful feature: one register slot's complete program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotProgram {
    /// Admission predicate.
    pub guard: Guard,
    /// ALU update.
    pub op: UpdateOp,
    /// ALU operand.
    pub operand: Operand,
    /// Register cell kind.
    pub reg: SlotRegKind,
    /// Read-side transform.
    pub load: LoadTransform,
}

impl SlotProgram {
    /// Dependency-chain registers this slot relies on (shared across
    /// slots; determines the paper's "dependency chain" depth).
    pub fn deps(&self) -> Vec<DepRegister> {
        let mut deps = Vec::new();
        let iat_scope = match self.operand {
            Operand::Iat(s) | Operand::NegIat(s) => Some(s),
            _ => None,
        };
        if let Some(s) = iat_scope {
            deps.push(DepRegister::LastTs(s));
        }
        if let Some(s) = self.guard.require_prev {
            let d = DepRegister::LastTs(s);
            if !deps.contains(&d) {
                deps.push(d);
            }
        }
        deps
    }

    /// Pipeline stages between the dependency registers and the slot
    /// update (the paper's dependency-chain depth; ≤ 3 in our catalogue,
    /// matching §3.1.1's observation).
    pub fn dep_chain_depth(&self) -> u8 {
        match self.operand {
            // last_ts RMW → iat subtraction (+cap) → slot update.
            Operand::Iat(_) | Operand::NegIat(_) => 3,
            // plain operand → slot update.
            _ => 1,
        }
    }
}

/// Shared dependency-chain registers (one 32-bit cell per flow each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepRegister {
    /// Timestamp of the previous packet in scope.
    LastTs(Scope),
}

/// Stateless per-packet features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatelessKind {
    /// Frame length.
    FrameLen,
    /// IPv4 TTL (constant 64 in synthetic traces; kept for API parity).
    Ttl,
    /// Raw TCP flags byte.
    TcpFlags,
    /// Initiator port.
    SrcPort,
    /// Responder port.
    DstPort,
    /// IP protocol.
    Proto,
}

/// Software-only window statistics (require division/sqrt — not deployable
/// on the match-action substrate; used by the "ideal" baseline only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftwareKind {
    /// Mean frame length in scope.
    LenMean(Scope),
    /// Population std-dev of frame length (integer sqrt).
    LenStd,
    /// Population variance of frame length.
    LenVar,
    /// Mean inter-arrival gap in scope.
    IatMean(Scope),
    /// Population std-dev of inter-arrival gaps.
    IatStd,
    /// Population variance of inter-arrival gaps.
    IatVar,
    /// Bytes per second over the window.
    BytesPerSec,
    /// Packets per second over the window.
    PktsPerSec,
    /// `100 × bwd_bytes / fwd_bytes`.
    DownUpByteRatio,
    /// `100 × bwd_pkts / fwd_pkts`.
    DownUpPktRatio,
    /// Mean payload bytes per packet.
    PayloadMean,
}

/// A feature's computation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureKind {
    /// Per-packet header field.
    Stateless(StatelessKind),
    /// Deployable register-slot program.
    Slot(SlotProgram),
    /// Software-only statistic.
    Software(SoftwareKind),
}

/// A named feature.
#[derive(Debug, Clone)]
pub struct FeatureDef {
    /// Stable feature name.
    pub name: String,
    /// Computation class.
    pub kind: FeatureKind,
}

/// The full feature catalogue (fixed order; column `i` of every dataset is
/// feature `i` of the catalogue).
#[derive(Debug, Clone)]
pub struct FeatureCatalog {
    defs: Vec<FeatureDef>,
}

/// TCP flag constants (duplicated from the dataplane crate to keep this
/// substrate free-standing).
pub mod flags {
    /// FIN.
    pub const FIN: u8 = 0x01;
    /// SYN.
    pub const SYN: u8 = 0x02;
    /// RST.
    pub const RST: u8 = 0x04;
    /// PSH.
    pub const PSH: u8 = 0x08;
    /// ACK.
    pub const ACK: u8 = 0x10;
    /// URG.
    pub const URG: u8 = 0x20;
}

fn slot(
    name: String,
    guard: Guard,
    op: UpdateOp,
    operand: Operand,
    reg: SlotRegKind,
    load: LoadTransform,
) -> FeatureDef {
    FeatureDef { name, kind: FeatureKind::Slot(SlotProgram { guard, op, operand, reg, load }) }
}

impl FeatureCatalog {
    /// Builds the standard catalogue (6 stateless + 45 deployable + 15
    /// software-only = 66 features).
    pub fn standard() -> Self {
        use FeatureKind::{Software, Stateless};
        use LoadTransform::{Identity, NegCap, SinceTs};
        use Operand::*;
        use SlotRegKind::{CappedAccum, RawTs};
        use UpdateOp::{Add, Max, Write};

        let mut defs: Vec<FeatureDef> = Vec::with_capacity(66);
        // --- stateless (6)
        for (n, k) in [
            ("pkt_len", StatelessKind::FrameLen),
            ("ttl", StatelessKind::Ttl),
            ("tcp_flags", StatelessKind::TcpFlags),
            ("src_port", StatelessKind::SrcPort),
            ("dst_port", StatelessKind::DstPort),
            ("proto", StatelessKind::Proto),
        ] {
            defs.push(FeatureDef { name: n.into(), kind: Stateless(k) });
        }
        // --- deployable stateful (45)
        for s in [Scope::All, Scope::Fwd, Scope::Bwd] {
            let t = s.tag();
            defs.push(slot(
                format!("{t}pkt_count"),
                Guard::scope(s),
                Add,
                One,
                CappedAccum,
                Identity,
            ));
            defs.push(slot(
                format!("{t}byte_count"),
                Guard::scope(s),
                Add,
                FrameLen,
                CappedAccum,
                Identity,
            ));
            defs.push(slot(
                format!("{t}len_max"),
                Guard::scope(s),
                Max,
                FrameLen,
                CappedAccum,
                Identity,
            ));
            defs.push(slot(
                format!("{t}len_min"),
                Guard::scope(s),
                Max,
                NegFrameLen,
                CappedAccum,
                NegCap,
            ));
            defs.push(slot(
                format!("{t}len_last"),
                Guard::scope(s),
                Write,
                FrameLen,
                CappedAccum,
                Identity,
            ));
            defs.push(slot(
                format!("{t}payload_bytes"),
                Guard::scope(s),
                Add,
                PayloadLen,
                CappedAccum,
                Identity,
            ));
            let gp = Guard { require_prev: Some(s), ..Guard::scope(s) };
            defs.push(slot(format!("{t}iat_max"), gp, Max, Iat(s), CappedAccum, Identity));
            defs.push(slot(format!("{t}iat_min"), gp, Max, NegIat(s), CappedAccum, NegCap));
            defs.push(slot(format!("{t}iat_sum"), gp, Add, Iat(s), CappedAccum, Identity));
        }
        // 27 so far in this block; directional header bytes (2)
        for s in [Scope::Fwd, Scope::Bwd] {
            defs.push(slot(
                format!("{}hdr_bytes", s.tag()),
                Guard::scope(s),
                Add,
                HdrLen,
                CappedAccum,
                Identity,
            ));
        }
        // first-packet length (1)
        defs.push(slot(
            "len_first".into(),
            Guard { win_first_only: true, ..Guard::scope(Scope::All) },
            Write,
            FrameLen,
            CappedAccum,
            Identity,
        ));
        // window duration (1): raw-ts register written on window-first.
        defs.push(slot(
            "duration_us".into(),
            Guard { win_first_only: true, ..Guard::scope(Scope::All) },
            Write,
            NowUs,
            RawTs,
            SinceTs,
        ));
        // flag counts (6 all-scope + 4 directional)
        for (n, m) in [
            ("syn_count", flags::SYN),
            ("ack_count", flags::ACK),
            ("fin_count", flags::FIN),
            ("rst_count", flags::RST),
            ("psh_count", flags::PSH),
            ("urg_count", flags::URG),
        ] {
            defs.push(slot(
                n.into(),
                Guard { flags_mask: m, ..Guard::scope(Scope::All) },
                Add,
                One,
                CappedAccum,
                Identity,
            ));
        }
        for (s, m, n) in [
            (Scope::Fwd, flags::PSH, "fwd_psh_count"),
            (Scope::Bwd, flags::PSH, "bwd_psh_count"),
            (Scope::Fwd, flags::URG, "fwd_urg_count"),
            (Scope::Bwd, flags::URG, "bwd_urg_count"),
        ] {
            defs.push(slot(
                n.into(),
                Guard { flags_mask: m, ..Guard::scope(s) },
                Add,
                One,
                CappedAccum,
                Identity,
            ));
        }
        // size-band counts (3) + zero-payload count (1)
        defs.push(slot(
            "small_pkt_count".into(),
            Guard { len_range: Some((0, 128)), ..Guard::scope(Scope::All) },
            Add,
            One,
            CappedAccum,
            Identity,
        ));
        defs.push(slot(
            "mid_pkt_count".into(),
            Guard { len_range: Some((129, 512)), ..Guard::scope(Scope::All) },
            Add,
            One,
            CappedAccum,
            Identity,
        ));
        defs.push(slot(
            "large_pkt_count".into(),
            Guard { len_range: Some((1024, u16::MAX)), ..Guard::scope(Scope::All) },
            Add,
            One,
            CappedAccum,
            Identity,
        ));
        defs.push(slot(
            "zero_payload_count".into(),
            Guard { payload_range: Some((0, 0)), ..Guard::scope(Scope::All) },
            Add,
            One,
            CappedAccum,
            Identity,
        ));
        // --- software-only (15)
        for (n, k) in [
            ("len_mean", SoftwareKind::LenMean(Scope::All)),
            ("fwd_len_mean", SoftwareKind::LenMean(Scope::Fwd)),
            ("bwd_len_mean", SoftwareKind::LenMean(Scope::Bwd)),
            ("len_std", SoftwareKind::LenStd),
            ("len_var", SoftwareKind::LenVar),
            ("iat_mean", SoftwareKind::IatMean(Scope::All)),
            ("fwd_iat_mean", SoftwareKind::IatMean(Scope::Fwd)),
            ("bwd_iat_mean", SoftwareKind::IatMean(Scope::Bwd)),
            ("iat_std", SoftwareKind::IatStd),
            ("iat_var", SoftwareKind::IatVar),
            ("bytes_per_sec", SoftwareKind::BytesPerSec),
            ("pkts_per_sec", SoftwareKind::PktsPerSec),
            ("down_up_byte_ratio", SoftwareKind::DownUpByteRatio),
            ("down_up_pkt_ratio", SoftwareKind::DownUpPktRatio),
            ("payload_mean", SoftwareKind::PayloadMean),
        ] {
            defs.push(FeatureDef { name: n.into(), kind: Software(k) });
        }
        Self { defs }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if the catalogue is empty (it never is for `standard`).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// All definitions, column-ordered.
    pub fn defs(&self) -> &[FeatureDef] {
        &self.defs
    }

    /// Feature names, column-ordered.
    pub fn names(&self) -> Vec<String> {
        self.defs.iter().map(|d| d.name.clone()).collect()
    }

    /// Index of a feature by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.defs.iter().position(|d| d.name == name)
    }

    /// Column indices of deployable (register-slot) features.
    pub fn deployable(&self) -> Vec<usize> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.kind, FeatureKind::Slot(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Column indices of stateless features.
    pub fn stateless(&self) -> Vec<usize> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.kind, FeatureKind::Stateless(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// Column indices of deployable + stateless features (what NetBeacon,
    /// Leo and SpliDT models may train on).
    pub fn hardware_eligible(&self) -> Vec<usize> {
        self.defs
            .iter()
            .enumerate()
            .filter(|(_, d)| !matches!(d.kind, FeatureKind::Software(_)))
            .map(|(i, _)| i)
            .collect()
    }

    /// The slot program of feature `i`, if deployable.
    pub fn slot_program(&self, i: usize) -> Option<&SlotProgram> {
        match &self.defs[i].kind {
            FeatureKind::Slot(p) => Some(p),
            _ => None,
        }
    }
}

/// The shared standard catalogue.
pub fn catalog() -> &'static FeatureCatalog {
    static CAT: OnceLock<FeatureCatalog> = OnceLock::new();
    CAT.get_or_init(FeatureCatalog::standard)
}

/// Previous-timestamp dependency state (per scope), window-local.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrevState {
    all: Option<u64>,
    fwd: Option<u64>,
    bwd: Option<u64>,
}

impl PrevState {
    /// Previous timestamp in scope, if any.
    pub fn get(&self, s: Scope) -> Option<u64> {
        match s {
            Scope::All => self.all,
            Scope::Fwd => self.fwd,
            Scope::Bwd => self.bwd,
        }
    }

    /// Records a packet's timestamp in all applicable scopes.
    pub fn update(&mut self, dir: Dir, ts: u64) {
        self.all = Some(ts);
        match dir {
            Dir::Fwd => self.fwd = Some(ts),
            Dir::Bwd => self.bwd = Some(ts),
        }
    }
}

/// Capped IAT against the previous packet of `scope`, exactly as the
/// data-plane computes it: `min(now − last_ts, FEATURE_CAP)`.
fn iat_value(scope: Scope, now: u64, prev: &PrevState) -> Option<u64> {
    prev.get(scope).map(|last| (now - last).min(FEATURE_CAP))
}

fn operand_value(op: Operand, pkt: &TracePacket, prev: &PrevState) -> Option<u64> {
    Some(match op {
        Operand::One => 1,
        Operand::FrameLen => pkt.frame_len as u64,
        Operand::NegFrameLen => FEATURE_CAP - (pkt.frame_len as u64).min(FEATURE_CAP),
        Operand::HdrLen => pkt.hdr_len as u64,
        Operand::PayloadLen => pkt.payload_len() as u64,
        Operand::NowUs => pkt.ts_us & 0xFFFF_FFFF,
        Operand::Iat(s) => iat_value(s, pkt.ts_us, prev)?,
        Operand::NegIat(s) => FEATURE_CAP - iat_value(s, pkt.ts_us, prev)?,
    })
}

/// Executes one slot program over a window of packets, mirroring the
/// register semantics (saturating 24-bit accumulators / raw 32-bit
/// timestamp cells) exactly.
pub fn run_slot_program(prog: &SlotProgram, pkts: &[TracePacket]) -> u64 {
    let mut reg: u64 = 0;
    let mut prev = PrevState::default();
    let cap = match prog.reg {
        SlotRegKind::CappedAccum => FEATURE_CAP,
        SlotRegKind::RawTs => 0xFFFF_FFFF,
    };
    for (i, pkt) in pkts.iter().enumerate() {
        if prog.guard.admits(pkt, &prev, i == 0) {
            if let Some(v) = operand_value(prog.operand, pkt, &prev) {
                reg = match prog.op {
                    UpdateOp::Add => reg.saturating_add(v).min(cap),
                    UpdateOp::Max => reg.max(v.min(cap)),
                    UpdateOp::Write => v.min(cap),
                };
            }
        }
        prev.update(pkt.dir, pkt.ts_us);
    }
    // Load transform at the window boundary (the boundary packet is the
    // window's last packet).
    match prog.load {
        LoadTransform::Identity => reg,
        LoadTransform::NegCap => FEATURE_CAP - reg.min(FEATURE_CAP),
        LoadTransform::SinceTs => {
            let now = pkts.last().map(|p| p.ts_us & 0xFFFF_FFFF).unwrap_or(0);
            now.saturating_sub(reg).min(FEATURE_CAP)
        }
    }
}

/// Window aggregates feeding the software-only statistics.
#[derive(Debug, Default, Clone)]
struct WindowStats {
    n: [u64; 3],
    len_sum: [u64; 3],
    len_sumsq: u64,
    iat_n: [u64; 3],
    iat_sum: [u64; 3],
    iat_sumsq: u64,
    payload_sum: u64,
    bytes: u64,
    duration_us: u64,
}

fn scope_idx(s: Scope) -> usize {
    match s {
        Scope::All => 0,
        Scope::Fwd => 1,
        Scope::Bwd => 2,
    }
}

fn window_stats(pkts: &[TracePacket]) -> WindowStats {
    let mut st = WindowStats::default();
    let mut prev = PrevState::default();
    for pkt in pkts {
        let len = pkt.frame_len as u64;
        let scopes: [usize; 2] = [0, if pkt.dir == Dir::Fwd { 1 } else { 2 }];
        for &s in &scopes {
            st.n[s] += 1;
            st.len_sum[s] += len;
        }
        st.len_sumsq += len * len;
        st.payload_sum += pkt.payload_len() as u64;
        st.bytes += len;
        for (s, scope) in [(0, Scope::All), (1, Scope::Fwd), (2, Scope::Bwd)] {
            if scope.admits(pkt.dir) {
                if let Some(iat) = iat_value(scope, pkt.ts_us, &prev) {
                    st.iat_n[s] += 1;
                    st.iat_sum[s] += iat;
                    if s == 0 {
                        st.iat_sumsq += iat * iat;
                    }
                }
            }
        }
        prev.update(pkt.dir, pkt.ts_us);
    }
    st.duration_us = match (pkts.first(), pkts.last()) {
        (Some(a), Some(b)) => b.ts_us - a.ts_us,
        _ => 0,
    };
    st
}

fn ratio(num: u64, den: u64) -> u64 {
    num.checked_div(den).unwrap_or(0)
}

fn software_value(kind: SoftwareKind, st: &WindowStats) -> u64 {
    let v = match kind {
        SoftwareKind::LenMean(s) => ratio(st.len_sum[scope_idx(s)], st.n[scope_idx(s)]),
        SoftwareKind::LenVar | SoftwareKind::LenStd => {
            let n = st.n[0];
            let var = match n {
                0 => 0,
                _ => {
                    let mean = st.len_sum[0] / n;
                    (st.len_sumsq / n).saturating_sub(mean * mean)
                }
            };
            if matches!(kind, SoftwareKind::LenVar) {
                var
            } else {
                var.isqrt()
            }
        }
        SoftwareKind::IatMean(s) => ratio(st.iat_sum[scope_idx(s)], st.iat_n[scope_idx(s)]),
        SoftwareKind::IatVar | SoftwareKind::IatStd => {
            let n = st.iat_n[0];
            let var = match n {
                0 => 0,
                _ => {
                    let mean = st.iat_sum[0] / n;
                    (st.iat_sumsq / n).saturating_sub(mean * mean)
                }
            };
            if matches!(kind, SoftwareKind::IatVar) {
                var
            } else {
                var.isqrt()
            }
        }
        SoftwareKind::BytesPerSec => {
            ratio(st.bytes.saturating_mul(1_000_000), st.duration_us.max(1))
        }
        SoftwareKind::PktsPerSec => ratio(st.n[0].saturating_mul(1_000_000), st.duration_us.max(1)),
        SoftwareKind::DownUpByteRatio => ratio(st.len_sum[2] * 100, st.len_sum[1].max(1)),
        SoftwareKind::DownUpPktRatio => ratio(st.n[2] * 100, st.n[1].max(1)),
        SoftwareKind::PayloadMean => ratio(st.payload_sum, st.n[0]),
    };
    v.min(FEATURE_CAP)
}

fn stateless_value(kind: StatelessKind, flow: &FlowTrace, pkt: &TracePacket) -> u64 {
    match kind {
        StatelessKind::FrameLen => pkt.frame_len as u64,
        StatelessKind::Ttl => 64,
        StatelessKind::TcpFlags => pkt.tcp_flags as u64,
        StatelessKind::SrcPort => flow.tuple.src_port as u64,
        StatelessKind::DstPort => flow.tuple.dst_port as u64,
        StatelessKind::Proto => flow.tuple.proto as u64,
    }
}

/// Extracts the full feature row for one window of a flow.
///
/// Stateless columns use the window's **last** packet (the boundary packet
/// — the one the prediction phase observes).
pub fn extract_window(flow: &FlowTrace, pkts: &[TracePacket], cat: &FeatureCatalog) -> Vec<f32> {
    let st = window_stats(pkts);
    let boundary = pkts.last();
    cat.defs()
        .iter()
        .map(|def| {
            let v = match &def.kind {
                FeatureKind::Stateless(k) => {
                    boundary.map(|p| stateless_value(*k, flow, p)).unwrap_or(0)
                }
                FeatureKind::Slot(p) => run_slot_program(p, pkts),
                FeatureKind::Software(k) => software_value(*k, &st),
            };
            v as f32
        })
        .collect()
}

/// Extracts feature rows for all windows of a flow under `p` partitions.
pub fn extract_windows(flow: &FlowTrace, p: usize, cat: &FeatureCatalog) -> Vec<Vec<f32>> {
    window_bounds(flow.size_pkts(), p)
        .into_iter()
        .map(|(a, b)| extract_window(flow, &flow.packets[a..b], cat))
        .collect()
}

/// Flow-level features: one window spanning the whole flow (what the
/// one-shot baselines — NetBeacon's final phase, Leo, ideal — consume).
pub fn extract_flow_level(flow: &FlowTrace, cat: &FeatureCatalog) -> Vec<f32> {
    extract_window(flow, &flow.packets, cat)
}

/// Features over the first `prefix` packets (NetBeacon's phase datasets:
/// state retained from the flow start).
pub fn extract_prefix(flow: &FlowTrace, prefix: usize, cat: &FeatureCatalog) -> Vec<f32> {
    let end = prefix.min(flow.size_pkts());
    extract_window(flow, &flow.packets[..end], cat)
}

/// Per-packet stateless row (full catalogue width; non-stateless columns
/// zero). The per-packet baseline restricts training to
/// [`FeatureCatalog::stateless`] columns.
pub fn extract_packet(flow: &FlowTrace, i: usize, cat: &FeatureCatalog) -> Vec<f32> {
    let pkt = &flow.packets[i];
    cat.defs()
        .iter()
        .map(|def| match &def.kind {
            FeatureKind::Stateless(k) => stateless_value(*k, flow, pkt) as f32,
            _ => 0.0,
        })
        .collect()
}

/// Quantizes a feature value to `bits` of precision (Figure 12's
/// experiment): keeps the top `bits` of the 24-bit domain.
pub fn quantize(v: f32, bits: u8) -> f32 {
    assert!((1..=FEATURE_BITS).contains(&bits));
    let shift = FEATURE_BITS - bits;
    (((v as u64).min(FEATURE_CAP)) >> shift) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FiveTuple;

    fn mk_flow(pkts: Vec<TracePacket>) -> FlowTrace {
        FlowTrace {
            tuple: FiveTuple { src_ip: 1, dst_ip: 2, src_port: 40000, dst_port: 80, proto: 6 },
            packets: pkts,
            label: 0,
        }
    }

    fn pkt(ts: u64, len: u16, flags: u8, dir: Dir) -> TracePacket {
        TracePacket { ts_us: ts, frame_len: len, hdr_len: 54, tcp_flags: flags, dir }
    }

    #[test]
    fn catalogue_shape() {
        let c = catalog();
        assert_eq!(c.len(), 66);
        assert_eq!(c.stateless().len(), 6);
        assert_eq!(c.deployable().len(), 45);
        assert_eq!(c.len() - c.hardware_eligible().len(), 15);
        // names unique
        let mut names = c.names();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 66);
    }

    #[test]
    fn counts_and_sums() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 100, flags::SYN, Dir::Fwd),
            pkt(10, 200, flags::ACK, Dir::Bwd),
            pkt(30, 300, flags::ACK | flags::PSH, Dir::Fwd),
        ]);
        let row = extract_window(&f, &f.packets, c);
        let v = |n: &str| row[c.index_of(n).unwrap()] as u64;
        assert_eq!(v("pkt_count"), 3);
        assert_eq!(v("fwd_pkt_count"), 2);
        assert_eq!(v("bwd_pkt_count"), 1);
        assert_eq!(v("byte_count"), 600);
        assert_eq!(v("fwd_byte_count"), 400);
        assert_eq!(v("len_max"), 300);
        assert_eq!(v("len_min"), 100);
        assert_eq!(v("len_last"), 300);
        assert_eq!(v("len_first"), 100);
        assert_eq!(v("syn_count"), 1);
        assert_eq!(v("ack_count"), 2);
        assert_eq!(v("psh_count"), 1);
        assert_eq!(v("fwd_psh_count"), 1);
        assert_eq!(v("bwd_psh_count"), 0);
    }

    #[test]
    fn iat_semantics() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 100, 0, Dir::Fwd),
            pkt(10, 100, 0, Dir::Bwd),
            pkt(40, 100, 0, Dir::Fwd),
            pkt(100, 100, 0, Dir::Fwd),
        ]);
        let row = extract_window(&f, &f.packets, c);
        let v = |n: &str| row[c.index_of(n).unwrap()] as u64;
        // gaps: 10, 30, 60 (all-scope)
        assert_eq!(v("iat_max"), 60);
        assert_eq!(v("iat_min"), 10);
        assert_eq!(v("iat_sum"), 100);
        // fwd gaps: 40 (0→40), 60 (40→100)
        assert_eq!(v("fwd_iat_max"), 60);
        assert_eq!(v("fwd_iat_min"), 40);
        // single bwd packet: no gap → min decodes to CAP, max/sum to 0
        assert_eq!(v("bwd_iat_max"), 0);
        assert_eq!(v("bwd_iat_min"), FEATURE_CAP);
        assert_eq!(v("duration_us"), 100);
    }

    #[test]
    fn min_with_no_packets_is_cap() {
        let c = catalog();
        let f = mk_flow(vec![pkt(0, 100, 0, Dir::Fwd)]);
        let row = extract_window(&f, &f.packets, c);
        let v = |n: &str| row[c.index_of(n).unwrap()] as u64;
        // no bwd packets at all → bwd_len_min decodes to CAP
        assert_eq!(v("bwd_len_min"), FEATURE_CAP);
        assert_eq!(v("bwd_pkt_count"), 0);
    }

    #[test]
    fn saturation_at_cap() {
        let prog = SlotProgram {
            guard: Guard::scope(Scope::All),
            op: UpdateOp::Add,
            operand: Operand::Iat(Scope::All),
            reg: SlotRegKind::CappedAccum,
            load: LoadTransform::Identity,
        };
        // huge gaps: each capped, then the sum saturates at CAP
        let pkts = vec![
            pkt(0, 100, 0, Dir::Fwd),
            pkt(20_000_000, 100, 0, Dir::Fwd),
            pkt(40_000_000, 100, 0, Dir::Fwd),
        ];
        // first gap is capped: min(20e6, CAP) = CAP → register saturates
        assert_eq!(run_slot_program(&prog, &pkts), FEATURE_CAP);
    }

    #[test]
    fn band_counts() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 60, 0, Dir::Fwd),
            pkt(1, 128, 0, Dir::Fwd),
            pkt(2, 129, 0, Dir::Fwd),
            pkt(3, 512, 0, Dir::Fwd),
            pkt(4, 1024, 0, Dir::Fwd),
            pkt(5, 1514, 0, Dir::Fwd),
        ]);
        let row = extract_window(&f, &f.packets, c);
        let v = |n: &str| row[c.index_of(n).unwrap()] as u64;
        assert_eq!(v("small_pkt_count"), 2);
        assert_eq!(v("mid_pkt_count"), 2);
        assert_eq!(v("large_pkt_count"), 2);
        // hdr_len 54 → frames of 60 bytes have payload 6; none zero here
        assert_eq!(v("zero_payload_count"), 0);
    }

    #[test]
    fn software_stats() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 100, 0, Dir::Fwd),
            pkt(500_000, 200, 0, Dir::Bwd),
            pkt(1_000_000, 300, 0, Dir::Fwd),
        ]);
        let row = extract_window(&f, &f.packets, c);
        let v = |n: &str| row[c.index_of(n).unwrap()] as u64;
        assert_eq!(v("len_mean"), 200);
        assert_eq!(v("fwd_len_mean"), 200);
        assert_eq!(v("bwd_len_mean"), 200);
        assert_eq!(v("iat_mean"), 500_000);
        // bytes/s: 600 bytes over 1 s
        assert_eq!(v("bytes_per_sec"), 600);
        assert_eq!(v("pkts_per_sec"), 3);
        // bwd 200 bytes / fwd 400 bytes → 50
        assert_eq!(v("down_up_byte_ratio"), 50);
        assert_eq!(v("down_up_pkt_ratio"), 50);
    }

    #[test]
    fn windows_reset_state() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 1000, 0, Dir::Fwd),
            pkt(10, 1000, 0, Dir::Fwd),
            pkt(20, 60, 0, Dir::Fwd),
            pkt(30, 60, 0, Dir::Fwd),
        ]);
        let wins = extract_windows(&f, 2, c);
        assert_eq!(wins.len(), 2);
        let i = c.index_of("len_max").unwrap();
        assert_eq!(wins[0][i] as u64, 1000);
        assert_eq!(wins[1][i] as u64, 60, "window 2 must not see window 1's max");
        // IAT across the boundary (20µs gap between pkt1 and pkt2) must not
        // leak into window 2's gaps.
        let j = c.index_of("iat_max").unwrap();
        assert_eq!(wins[1][j] as u64, 10);
    }

    #[test]
    fn prefix_extraction_retains_state() {
        let c = catalog();
        let f = mk_flow(vec![
            pkt(0, 1000, 0, Dir::Fwd),
            pkt(10, 60, 0, Dir::Fwd),
            pkt(20, 60, 0, Dir::Fwd),
        ]);
        let p2 = extract_prefix(&f, 2, c);
        let p3 = extract_prefix(&f, 3, c);
        let i = c.index_of("pkt_count").unwrap();
        assert_eq!(p2[i] as u64, 2);
        assert_eq!(p3[i] as u64, 3);
        let m = c.index_of("len_max").unwrap();
        assert_eq!(p3[m] as u64, 1000);
    }

    #[test]
    fn packet_rows_are_stateless_only() {
        let c = catalog();
        let f = mk_flow(vec![pkt(0, 777, flags::SYN, Dir::Fwd)]);
        let row = extract_packet(&f, 0, c);
        assert_eq!(row[c.index_of("pkt_len").unwrap()] as u64, 777);
        assert_eq!(row[c.index_of("dst_port").unwrap()] as u64, 80);
        assert_eq!(row[c.index_of("pkt_count").unwrap()] as u64, 0);
    }

    #[test]
    fn quantization() {
        assert_eq!(quantize(FEATURE_CAP as f32, 24), FEATURE_CAP as f32);
        assert_eq!(quantize(255.0, 16), 0.0); // low 8 bits dropped
        assert_eq!(quantize(65536.0, 16), 256.0);
        assert_eq!(quantize(FEATURE_CAP as f32, 8), 255.0);
    }

    #[test]
    fn all_values_capped_and_f32_exact() {
        let c = catalog();
        let f =
            mk_flow((0..200).map(|i| pkt(i * 30_000_000, 1514, flags::ACK, Dir::Fwd)).collect());
        let row = extract_flow_level(&f, c);
        for (i, v) in row.iter().enumerate() {
            assert!(*v <= FEATURE_CAP as f32, "feature {} = {} exceeds cap", c.defs()[i].name, v);
            assert_eq!(*v, (*v as u64) as f32, "feature {} not integer-exact", c.defs()[i].name);
        }
    }

    #[test]
    fn dep_chain_depths() {
        let c = catalog();
        for i in c.deployable() {
            let p = c.slot_program(i).unwrap();
            assert!(p.dep_chain_depth() <= 3, "{}", c.defs()[i].name);
        }
        let iat = c.slot_program(c.index_of("iat_max").unwrap()).unwrap();
        assert_eq!(iat.dep_chain_depth(), 3);
        assert_eq!(iat.deps(), vec![DepRegister::LastTs(Scope::All)]);
    }
}
