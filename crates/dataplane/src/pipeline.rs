//! Pipeline execution: packets (or raw PHVs) walk the stages, hit tables,
//! mutate registers, and may **resubmit** (recirculate) or emit **digests**.
//!
//! Resubmission is SpliDT's in-band control channel (paper §3.1.3): at a
//! window boundary the prediction tables mark the packet for resubmission;
//! the next pass sees `is_resubmit = 1`, and the resubmit-apply table
//! updates the subtree-id register and clears the feature registers. The
//! pipeline meters every resubmission so recirculation bandwidth is
//! directly observable.
//!
//! ## Execution model
//!
//! At instantiation the pipeline compiles its program's fixed schedule into
//! an [`ExecPlan`] — a flat slab of table indices and interned action ids —
//! and **one executor** walks it: the wave ([`Pipeline::wave_push`] /
//! [`Pipeline::wave_flush`]), stage-major over up to `burst` parked
//! packets and one probe per plan step ([`ExecPlan::steps`]), with
//! **zero heap allocations per packet** (lookups read their keys in
//! place in the PHV, parsed headers land in the arena's reusable PHVs,
//! actions run as pre-resolved ops out of the plan's op slabs, lane
//! lists live in the arena, and each packet's 5-tuple is hashed once).
//! A singleton wave is the packet-at-a-time walk, which is how the
//! single-packet inspection calls ([`Pipeline::process_packet`],
//! [`Pipeline::process_phv`]) run. **One oracle** stands beside it: the
//! original entry-walking interpreter with linear table scans
//! ([`Pipeline::process_phv_entrywalk`]), the reference every equivalence
//! test compares the wave against.

use crate::action::{Action, AluOut, Primitive, Source};
use crate::index::PhvKey;
use crate::parser::{parse, parse_into, ParseError, StandardFields};
use crate::phv::{FieldId, Phv, PhvLayout};
use crate::plan::{ExecPlan, HashFlowFields, Op, OwnerOp, StepProbe, MISS, SHARED_MAX};
use crate::program::Program;
use crate::register::RegisterFile;
use crate::table::{EntryKey, Table, TableError, TableId};

/// What happened to a packet after its final pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Forwarded out of the pipeline.
    Forward,
    /// Dropped by an action.
    Drop,
    /// Resubmit was requested but the loop bound was hit (safety stop; a
    /// correct SpliDT program never triggers this).
    ResubmitLimit,
}

/// A digest record pushed to the controller (the materialized, owned
/// form — what [`Pipeline::take_digests`] hands out per batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest {
    /// Ingress timestamp (µs) of the pass that emitted the digest.
    pub ts_us: u64,
    /// Values of the program's digest fields, in declaration order.
    pub values: Vec<u64>,
}

/// A borrowed view of one pending digest inside a [`DigestBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestRef<'a> {
    /// Ingress timestamp (µs) of the pass that emitted the digest.
    pub ts_us: u64,
    /// Values of the program's digest fields, in declaration order.
    pub values: &'a [u64],
}

/// The pipeline's pending-digest ring: a flat structure-of-arrays buffer
/// (one timestamp lane plus one contiguous `values` arena with a fixed
/// per-record stride — the program's digest-field count).
///
/// Boundary packets used to allocate a `Vec<u64>` per emitted digest
/// (~0.03 allocs/packet on the fixture); pushing into this buffer is
/// allocation-free once its capacity is warm, and the warm capacity
/// survives [`DigestBuf::clear`] — so a drain-per-batch regime reaches a
/// zero-allocation steady state, digests included (asserted by the
/// digest-per-packet rows of `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DigestBuf {
    /// Values per record (the digest-field count; may be 0).
    stride: usize,
    /// Per-record emission timestamps.
    ts: Vec<u64>,
    /// Flat value arena, `stride` per record.
    values: Vec<u64>,
}

impl DigestBuf {
    /// An empty buffer for records of `stride` values.
    pub fn with_stride(stride: usize) -> Self {
        Self { stride, ts: Vec::new(), values: Vec::new() }
    }

    /// Values per record.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Pending record count.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether no digests are pending.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Timestamp of record `i`.
    pub fn ts_us(&self, i: usize) -> u64 {
        self.ts[i]
    }

    /// Values of record `i`.
    pub fn values(&self, i: usize) -> &[u64] {
        &self.values[i * self.stride..(i + 1) * self.stride]
    }

    /// Iterates pending records as borrowed views (no allocation).
    pub fn iter(&self) -> impl Iterator<Item = DigestRef<'_>> {
        (0..self.len()).map(move |i| DigestRef { ts_us: self.ts_us(i), values: self.values(i) })
    }

    /// Drops all pending records, keeping the warm capacity.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.values.clear();
    }

    /// Materializes pending records as owned [`Digest`]s (allocates; the
    /// per-batch drain path, not the per-packet push path).
    pub fn to_vec(&self) -> Vec<Digest> {
        (0..self.len())
            .map(|i| Digest { ts_us: self.ts_us(i), values: self.values(i).to_vec() })
            .collect()
    }

    /// An empty buffer with room for `records` records up front.
    fn with_capacity(stride: usize, records: usize) -> Self {
        Self {
            stride,
            ts: Vec::with_capacity(records),
            values: Vec::with_capacity(records * stride),
        }
    }

    /// Appends one record. Allocation-free once capacity is warm.
    pub(crate) fn push(&mut self, ts_us: u64, values: impl IntoIterator<Item = u64>) {
        self.ts.push(ts_us);
        self.values.extend(values);
        debug_assert_eq!(self.values.len(), self.ts.len() * self.stride);
    }

    /// Moves every record of `other` to the end of this buffer, leaving
    /// `other` empty (warm capacity kept on both sides). Allocation-free
    /// once capacities are warm — the wave executor uses this to flush
    /// per-packet staging buffers into the pipeline ring in arrival
    /// order.
    pub(crate) fn append_from(&mut self, other: &mut DigestBuf) {
        debug_assert_eq!(self.stride, other.stride, "digest strides must match");
        self.ts.extend_from_slice(&other.ts);
        self.values.extend_from_slice(&other.values);
        other.clear();
    }
}

/// Aggregate pipeline meters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Meters {
    /// Packets submitted (not counting resubmission passes).
    pub packets: u64,
    /// Total bytes submitted.
    pub bytes: u64,
    /// Total pipeline passes (packets + resubmissions).
    pub passes: u64,
    /// Resubmission events.
    pub resubmissions: u64,
    /// Bytes carried by resubmitted passes (frame length at resubmit time).
    pub resubmit_bytes: u64,
    /// Packets dropped.
    pub drops: u64,
    /// Digests emitted.
    pub digests: u64,
    /// Frames rejected by the parser (never entered the pipeline; not
    /// counted in `packets`/`bytes`).
    pub malformed: u64,
}

impl Meters {
    /// Accumulates another meter set into this one — used when merging
    /// per-shard pipelines into one aggregate report.
    pub fn merge(&mut self, other: &Meters) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.passes += other.passes;
        self.resubmissions += other.resubmissions;
        self.resubmit_bytes += other.resubmit_bytes;
        self.drops += other.drops;
        self.digests += other.digests;
        self.malformed += other.malformed;
    }
}

/// Result of processing one packet to completion (including resubmissions).
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// Final PHV state.
    pub phv: Phv,
    /// Final disposition.
    pub disposition: Disposition,
    /// Number of passes the packet took (1 = no resubmission).
    pub passes: u32,
}

/// Aggregate outcomes of burst (wave) execution, accumulated across
/// [`Pipeline::wave_push`] / [`Pipeline::wave_flush`] calls. The wave
/// path reports dispositions in aggregate: it retires whole waves, not
/// single packets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Parsed frames whose wave has completed (malformed frames never
    /// enter a wave and are counted only in [`Meters::malformed`]).
    pub packets: u64,
    /// Packets dropped by an action.
    pub drops: u64,
    /// Packets that hit the resubmit safety limit.
    pub resubmit_limited: u64,
}

impl WaveStats {
    /// Accumulates another stats set into this one.
    pub fn merge(&mut self, other: &WaveStats) {
        self.packets += other.packets;
        self.drops += other.drops;
        self.resubmit_limited += other.resubmit_limited;
    }
}

/// One packet slot in the wave arena: its parsed PHV, staged digests,
/// and per-pass resubmission bookkeeping.
#[derive(Debug)]
struct WavePacket {
    /// Parsed headers + metadata (reused across waves; never freed).
    phv: Phv,
    /// Digests this packet emitted, staged per-packet so the pipeline
    /// ring can be filled in arrival order at wave end.
    digests: DigestBuf,
    /// Ingress timestamp of the packet.
    ts_us: u64,
    /// Conflict key (canonical flow slot under `conflict_slots`): two
    /// packets with equal keys never share a wave.
    key: u64,
    /// Passes taken so far (resubmission counter).
    passes: u32,
    /// Still executing (not yet forwarded/dropped/limited).
    live: bool,
    /// Resubmit requested in the current pass.
    resubmit: bool,
    /// Drop requested in the current pass.
    drop: bool,
    /// The packet's tuple hash, computed once at push for the conflict
    /// key and reused by every `HashFlow` the packet runs.
    flow: FlowHash,
}

/// A 5-tuple's CRC state (`hash::tuple_crc` of its canonical order),
/// keyed on the raw tuple values it was computed from: a lookup with any
/// other tuple rehashes, so the memo can be stale but never wrong.
#[derive(Debug, Clone, Copy)]
struct FlowHash {
    tuple: [u64; 5],
    state: u32,
}

impl FlowHash {
    /// The state of `tuple` (`src_ip, dst_ip, sport, dport, proto`),
    /// hashed from scratch.
    fn of(tuple: [u64; 5]) -> Self {
        let [sip, dip, sp, dp, proto] = tuple;
        let (sip, dip, sp, dp) =
            crate::hash::canonical_order(sip as u32, dip as u32, sp as u16, dp as u16);
        Self { tuple, state: crate::hash::tuple_crc(sip, dip, sp, dp, proto as u8) }
    }

    /// The state of `tuple`, rehashing only if it is not the memo's.
    #[inline]
    fn state(&mut self, tuple: [u64; 5]) -> u32 {
        if self.tuple != tuple {
            *self = Self::of(tuple);
        }
        self.state
    }
}

/// The preallocated wave arena: `burst + 1` packet slots (the extra slot
/// lets [`Pipeline::wave_push`] parse the incoming frame before deciding
/// whether it cuts the wave).
#[derive(Debug)]
struct WaveScratch {
    pkts: Vec<WavePacket>,
    /// Packets currently accumulated (wave occupancy, not arena size).
    len: usize,
    /// Max packets per wave.
    burst: usize,
    /// Modulus of the conflict-key domain (see [`Pipeline::set_burst`]).
    conflict_slots: usize,
    /// The flow bank whose slot domain is the conflict-key domain, if
    /// any: its lines at a packet's conflict key hold all of that flow's
    /// coalesced state, and [`Pipeline::wave_push`] prefetches them.
    prefetch_bank: Option<usize>,
    /// The live packets' arena indexes, in arrival order, rebuilt each
    /// pass: an ungated step visits these.
    live_lanes: Vec<u32>,
    /// The live packets whose gate field reads 1, for the gated steps
    /// (rebuilt where [`Step::fresh_gate`](crate::plan::Step) says).
    gated_lanes: Vec<u32>,
}

/// Builds a wave arena for `program`/`plan`. Programs without the
/// standard flow fields (no [`ExecPlan::hash_flow`]) cannot compute
/// conflict keys, so their burst is forced to 1 — singleton waves are
/// trivially scalar-equivalent.
fn new_wave(
    program: &Program,
    plan: &ExecPlan,
    regs: &RegisterFile,
    burst: usize,
    conflict_slots: usize,
) -> WaveScratch {
    let burst = if plan.hash_flow().is_some() { burst.max(1) } else { 1 };
    let stride = program.digest_fields().len();
    // The most records one packet can stage: per pass, each plan slot runs
    // one action of its table; a packet takes at most `resubmit_limit + 1`
    // passes. Sized here — arena construction is control-plane — so the
    // first digest through a slot after a build or a live swap allocates
    // nothing.
    let digest_prims =
        |a: &Action| a.prims.iter().filter(|p| matches!(p, Primitive::Digest)).count();
    let staged_max = (program.resubmit_limit() + 1)
        * plan
            .slots()
            .iter()
            .map(|s| {
                let t = &program.tables()[s.table as usize];
                let actions = t.entries().iter().map(|e| &e.action).chain([t.default_action()]);
                actions.map(digest_prims).max().unwrap_or(0)
            })
            .sum::<usize>();
    let pkts = (0..burst + 1)
        .map(|_| WavePacket {
            phv: program.layout().new_phv(),
            digests: DigestBuf::with_capacity(stride, staged_max),
            ts_us: 0,
            key: 0,
            passes: 0,
            live: false,
            resubmit: false,
            drop: false,
            flow: FlowHash::of([0; 5]),
        })
        .collect();
    // Slot domains are distinct across banks, so at most one matches.
    let prefetch_bank = regs.banks().iter().position(|b| b.desc().slots == conflict_slots);
    WaveScratch {
        pkts,
        len: 0,
        burst,
        conflict_slots: conflict_slots.max(1),
        prefetch_bank,
        live_lanes: Vec::with_capacity(burst + 1),
        gated_lanes: Vec::with_capacity(burst + 1),
    }
}

/// An executing pipeline: a program, its compiled execution plan, and live
/// register state.
#[derive(Debug)]
pub struct Pipeline {
    program: Program,
    plan: ExecPlan,
    regs: RegisterFile,
    digests: DigestBuf,
    meters: Meters,
    /// Preallocated wave arena for burst (stage-major) execution.
    wave: WaveScratch,
}

impl Pipeline {
    /// Instantiates register state for a program and compiles its
    /// execution plan (schedule, action arena, per-table match indexes,
    /// and the flow-bank layout the register file materializes).
    pub fn new(program: Program) -> Self {
        Self::with_layout(program, true)
    }

    /// Instantiates with the **split** (one-array-per-register) state
    /// layout — the pre-banking representation, kept as the reference
    /// the `banked_equals_split` differential proptest runs against.
    pub fn new_split(program: Program) -> Self {
        Self::with_layout(program, false)
    }

    fn with_layout(program: Program, banked: bool) -> Self {
        let regs = if banked {
            RegisterFile::new_banked(program.registers())
        } else {
            RegisterFile::new_split(program.registers())
        };
        let plan = ExecPlan::build(&program);
        let digests = DigestBuf::with_stride(program.digest_fields().len());
        let wave = new_wave(&program, &plan, &regs, 1, 1);
        Self { program, plan, regs, digests, meters: Meters::default(), wave }
    }

    /// Installs an entry into a table of the **running** pipeline — the
    /// controller-style runtime rule update. The compiled execution plan
    /// (entry→action arena and the table's match index) is invalidated
    /// and rebuilt, so the next packet sees the new rule; this is a
    /// control-plane cost (full plan rebuild), never a per-packet one.
    /// Refuses what [`Table::install`](crate::table::Table::install)
    /// refuses, and an exact value wider than its key field
    /// ([`TableError::ValueTooWide`]).
    pub fn install_entry(
        &mut self,
        table: TableId,
        key: EntryKey,
        action: Action,
    ) -> Result<(), TableError> {
        assert_eq!(self.wave.len, 0, "install_entry with a wave in flight; wave_flush first");
        self.program.install(table, key, action)?;
        self.plan = ExecPlan::build(&self.program);
        // The new entry may stage digests its table never did.
        self.rebuild_wave(self.wave.burst, self.wave.conflict_slots);
        Ok(())
    }

    /// Rebuilds the (empty) wave arena for the current program and plan.
    fn rebuild_wave(&mut self, burst: usize, conflict_slots: usize) {
        self.wave = new_wave(&self.program, &self.plan, &self.regs, burst, conflict_slots);
    }

    /// Atomically replaces the running program — the pForest-style live
    /// model swap. The new program's tables and compiled plan take over
    /// while **live flow state survives**:
    ///
    /// * register arrays present in both programs under the same
    ///   `(name, width, len, cap)` spec keep their contents (ownership
    ///   lanes, packet/window counters, feature slots); arrays only the new
    ///   program declares start zeroed, and arrays only the old one had are
    ///   dropped — model-dependent registers may differ between
    ///   compilations, so state is matched **by spec, never by index**;
    /// * pending digests stay in the ring (the new program must emit the
    ///   same digest stride);
    /// * meters accumulate across the flip;
    /// * for every `(old, new)` pair in `carry_tables`, per-entry hit
    ///   counters and the miss counter carry from the old program's table
    ///   to the new one's (see
    ///   [`Table::carry_stats_from`](crate::table::Table::carry_stats_from))
    ///   — used for the lifecycle
    ///   MAT, whose entries are policy-determined and identical across
    ///   recompiles.
    ///
    /// The execution plan, match indexes, and wave arena are rebuilt
    /// from the new program — a control-plane cost (same as
    /// [`Pipeline::install_entry`]), never a per-packet one.
    pub fn swap_program(&mut self, mut program: Program, carry_tables: &[(TableId, TableId)]) {
        assert_eq!(self.wave.len, 0, "swap_program with a wave in flight; wave_flush first");
        assert_eq!(
            program.digest_fields().len(),
            self.digests.stride(),
            "swap must preserve the digest record stride"
        );
        let mut regs = if self.regs.is_banked() {
            RegisterFile::new_banked(program.registers())
        } else {
            RegisterFile::new_split(program.registers())
        };
        regs.carry_from(&self.regs);
        for &(old_id, new_id) in carry_tables {
            let old = self.program.table(old_id);
            program.tables_mut()[new_id.index()].carry_stats_from(old);
        }
        self.program = program;
        self.regs = regs;
        self.plan = ExecPlan::build(&self.program);
        // The arena's PHVs follow the new program's layout; the burst
        // configuration survives the flip.
        self.rebuild_wave(self.wave.burst, self.wave.conflict_slots);
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The compiled execution plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }

    /// The live register file (for assertions and controller-style
    /// reads): `registers().read(reg, slot)` regardless of whether the
    /// register landed in a flow bank or a split array.
    pub fn registers(&self) -> &RegisterFile {
        &self.regs
    }

    /// Mutable register access (controller-style writes — lane releases,
    /// test setup).
    pub fn registers_mut(&mut self) -> &mut RegisterFile {
        &mut self.regs
    }

    /// Pending digests (the flat ring buffer; iterate with
    /// [`DigestBuf::iter`] for allocation-free access).
    pub fn digests(&self) -> &DigestBuf {
        &self.digests
    }

    /// Drains all pending digests, materializing them as owned
    /// [`Digest`] records (the per-batch drain path — allocates for the
    /// returned `Vec`s, never on the per-packet push path). The ring's
    /// warm capacity is kept.
    pub fn take_digests(&mut self) -> Vec<Digest> {
        let out = self.digests.to_vec();
        self.digests.clear();
        out
    }

    /// Drops all pending digests without materializing them, keeping the
    /// ring's warm capacity (allocation-free batch disposal).
    pub fn clear_digests(&mut self) {
        self.digests.clear();
    }

    /// Aggregate meters.
    pub fn meters(&self) -> &Meters {
        &self.meters
    }

    /// Returns the pipeline to a fresh session in place: zeroes every
    /// register array, clears pending digests, meters, and table
    /// statistics. The program, its installed entries, and the compiled
    /// execution plan are untouched — this is the cheap alternative to
    /// re-instantiating from the compiled template (no table/entry clones).
    pub fn reset_state(&mut self) {
        // Whole-arena clear: every bank (padding included) and every
        // split array — a partial-bank clear would leak one flow's state
        // into the next session's slot.
        self.regs.clear();
        for t in self.program.tables_mut() {
            t.reset_stats();
        }
        self.digests.clear();
        self.meters = Meters::default();
        // Any accumulated (unflushed) wave packets are discarded with the
        // rest of the session; the warm arena is kept.
        self.wave.len = 0;
        for pkt in &mut self.wave.pkts {
            pkt.digests.clear();
        }
    }

    /// Parses a frame and processes it to completion at time `ts_us` as a
    /// singleton wave, returning the final PHV, disposition and pass
    /// count — the single-packet inspection call. Allocates the returned
    /// PHV; throughput loops use [`Pipeline::wave_push`].
    ///
    /// Panics if a wave is in flight: the packet would execute ahead of
    /// the parked ones ([`Pipeline::wave_flush`] first).
    pub fn process_packet(
        &mut self,
        frame: &[u8],
        ts_us: u64,
        fields: &StandardFields,
    ) -> Result<ProcessOutcome, ParseError> {
        assert_eq!(self.wave.len, 0, "process_packet with a wave in flight; wave_flush first");
        let phv = self.parse_metered(frame, ts_us, fields)?;
        Ok(self.run_single(phv, ts_us, Some(fields)))
    }

    /// Parses `frame` into a fresh PHV stamped `ts_us`, metering it as
    /// submitted (or as malformed on a parse reject).
    fn parse_metered(
        &mut self,
        frame: &[u8],
        ts_us: u64,
        fields: &StandardFields,
    ) -> Result<Phv, ParseError> {
        let mut phv = match parse(frame, self.program.layout(), fields) {
            Ok(phv) => phv,
            Err(e) => {
                self.meters.malformed += 1;
                return Err(e);
            }
        };
        phv.set(fields.ts_us, ts_us);
        self.meters.packets += 1;
        self.meters.bytes += frame.len() as u64;
        Ok(phv)
    }

    /// Runs `phv` as a singleton wave: swapped into arena slot 0 (a
    /// pointer swap — the arena keeps its own PHV), executed by
    /// [`Pipeline::run_wave`], swapped back out with its outcome.
    fn run_single(
        &mut self,
        mut phv: Phv,
        ts_us: u64,
        fields: Option<&StandardFields>,
    ) -> ProcessOutcome {
        let pkt = &mut self.wave.pkts[0];
        std::mem::swap(&mut pkt.phv, &mut phv);
        pkt.ts_us = ts_us;
        self.wave.len = 1;
        let mut stats = WaveStats::default();
        self.run_wave(fields, &mut stats);
        let pkt = &mut self.wave.pkts[0];
        std::mem::swap(&mut pkt.phv, &mut phv);
        let disposition = if stats.drops != 0 {
            Disposition::Drop
        } else if stats.resubmit_limited != 0 {
            Disposition::ResubmitLimit
        } else {
            Disposition::Forward
        };
        ProcessOutcome { phv, disposition, passes: pkt.passes }
    }

    /// Configures burst (wave) execution for the frame path: up to
    /// `burst` packets accumulate in a preallocated arena and execute
    /// **stage-major** — the compiled plan is walked once per pass, and
    /// at each plan step every live packet its gate admits in turn looks
    /// its key up, counts the hits or misses and runs the actions —
    /// instead of packet-major. `burst == 1` (the construction default)
    /// degenerates to scalar execution through the same machinery.
    ///
    /// ## Caller contract (what makes a wave safe)
    ///
    /// Two packets share a wave only if their **conflict keys** differ:
    /// the canonical-flow-tuple index under `conflict_slots`
    /// (`flow_index(canonical 5-tuple) % conflict_slots`). Stage-major
    /// execution reorders work *between* packets of a wave, so the
    /// caller must guarantee that packets with distinct conflict keys
    /// touch **disjoint register state**. That holds whenever every
    /// packet-dependent register index in the program derives from
    /// `HashFlow { salt: 0, mask }` with `conflict_slots` dividing
    /// `mask + 1` (both powers of two): keys that differ under the
    /// smaller modulus differ under every multiple of it, so same-wave
    /// packets can never alias a register slot. SpliDT-compiled engine
    /// programs index all flow state by the canonical flow slot, so the
    /// engine passes `conflict_slots = flow_slots` and the contract
    /// holds by construction. Same-key packets (and every packet of a
    /// program without the standard flow fields, where `burst` is forced
    /// to 1) are serialized in arrival order across waves, so their
    /// register read/write chains are exactly the scalar ones.
    ///
    /// Panics if a wave is in flight (call [`Pipeline::wave_flush`]
    /// first).
    pub fn set_burst(&mut self, burst: usize, conflict_slots: usize) {
        assert_eq!(self.wave.len, 0, "set_burst with a wave in flight; wave_flush first");
        self.rebuild_wave(burst, conflict_slots);
    }

    /// The configured wave capacity (1 = scalar).
    pub fn burst(&self) -> usize {
        self.wave.burst
    }

    /// Packets accumulated in the open wave (0 = quiesced).
    pub fn wave_len(&self) -> usize {
        self.wave.len
    }

    /// Parses a frame into the wave arena, running the accumulated wave
    /// first when it is full or when the frame's conflict key collides
    /// with a packet already in it (the **wave cut** that keeps same-slot
    /// packets serialized in arrival order). Malformed frames are
    /// metered and rejected without disturbing the open wave. Callers
    /// must [`Pipeline::wave_flush`] before observing registers, meters,
    /// digests, or table stats — packets may be parked here un-executed.
    ///
    /// Zero heap allocations per packet once arena and scratch
    /// capacities are warm (asserted by every row of
    /// `tests/zero_alloc.rs`).
    pub fn wave_push(
        &mut self,
        frame: &[u8],
        ts_us: u64,
        fields: &StandardFields,
        stats: &mut WaveStats,
    ) -> Result<(), ParseError> {
        let slot = self.wave.len;
        {
            let pkt = &mut self.wave.pkts[slot];
            if let Err(e) = parse_into(frame, self.program.layout(), fields, &mut pkt.phv) {
                self.meters.malformed += 1;
                return Err(e);
            }
            pkt.phv.set(fields.ts_us, ts_us);
            pkt.ts_us = ts_us;
        }
        self.meters.packets += 1;
        self.meters.bytes += frame.len() as u64;
        // `burst > 1` only with the standard flow fields (see `new_wave`).
        let key = if self.wave.burst > 1 {
            let pkt = &mut self.wave.pkts[slot];
            let index_mask = self.wave.conflict_slots as u64 - 1;
            let tuple = flow_tuple(self.plan.hash_flow(), pkt.phv.values());
            hash_flow_finish(pkt.flow.state(tuple), index_mask, 0)
        } else {
            0
        };
        self.wave.pkts[slot].key = key;
        if self.wave.burst > 1 {
            // The packet's per-flow state sits at its conflict key (the
            // canonical flow slot) — known right here, long before
            // execution. Issue the loads now so they resolve in parallel
            // while the rest of the wave accumulates (parse, hash, cut
            // checks): by wave execution the whole burst's state misses
            // have overlapped with the accumulation window.
            // Packet-at-a-time execution can't do this — it learns the
            // next packet's slot only after finishing the current one.
            // This is one prefetch per line of the slot's bank stride
            // (one line for every compiled program so far), covering the
            // owner lane, pressure word, and every feature cell at once.
            // Spreading the prefetches one packet per push also keeps them
            // inside the CPU's handful of line-fill buffers; a full wave's
            // worth issued at once at execution start would mostly be
            // dropped.
            if let Some(bank) = self.wave.prefetch_bank {
                self.regs.banks()[bank].prefetch(key as usize);
            }
        }
        let cut = slot == self.wave.burst || self.wave.pkts[..slot].iter().any(|p| p.key == key);
        if cut {
            self.run_wave(Some(fields), stats);
            self.wave.pkts.swap(0, slot);
            self.wave.len = 1;
        } else {
            self.wave.len = slot + 1;
        }
        Ok(())
    }

    /// Runs whatever the open wave holds (possibly nothing) and leaves
    /// the pipeline quiesced: every pushed packet fully executed, its
    /// digests in the ring, meters and register state final.
    pub fn wave_flush(&mut self, fields: &StandardFields, stats: &mut WaveStats) {
        self.run_wave(Some(fields), stats);
    }

    /// Executes the accumulated wave to completion — all passes,
    /// including queued resubmissions, which run as **follow-up waves**
    /// over the still-live packets before the arena is released.
    ///
    /// Stage-major structure per pass: for each plan **step** (see
    /// [`ExecPlan::steps`]), one loop over the step's lanes in arrival
    /// order takes each packet through the step in a single visit, as a
    /// packet's visit to a match-action stage is one step. A fused step
    /// reads the packet's row from its key fields in place, counts every
    /// member's hit or miss and runs the row's combo ops; a shared-key
    /// step probes its one ternary index for every member's winner, then
    /// per member in slot order counts the hit or miss and runs the
    /// action's ops; a one-member step looks the key up in its table's
    /// match index, counts the hit or miss and runs the action's ops. An
    /// ungated step visits the live lanes, built once per pass, so later
    /// passes skip finished packets; a gated one visits the live packets
    /// whose gate field reads 1, rebuilt only where a different gate or a
    /// write to this one may have changed them. A gated-off packet gets
    /// no lookup, no action and neither a hit nor a miss.
    /// The loop reads the plan only, so it holds the tables mutably for
    /// the counters. Fusing the visits is exact: a lookup reads only its
    /// own packet's PHV and the immutable entries, the counters commute,
    /// and digests are staged per packet and flushed to the pipeline
    /// ring in arrival order at wave end, so the global digest stream is
    /// the arrival-order one. `fields` is `None` only for a pre-built PHV
    /// ([`Pipeline::process_phv`]), which has no wire length to meter
    /// and no `is_resubmit` field to flag.
    fn run_wave(&mut self, fields: Option<&StandardFields>, stats: &mut WaveStats) {
        let n = self.wave.len;
        if n == 0 {
            return;
        }
        let limit = self.program.resubmit_limit();
        let Pipeline { program, plan, regs, digests, meters, wave, .. } = self;
        let tables = program.tables_mut();
        let WaveScratch { pkts, live_lanes, gated_lanes, .. } = wave;
        for pkt in &mut pkts[..n] {
            pkt.passes = 0;
            pkt.live = true;
        }
        let mut live = n;
        while live != 0 {
            live_lanes.clear();
            for (i, pkt) in pkts[..n].iter_mut().enumerate() {
                if pkt.live {
                    pkt.passes += 1;
                    meters.passes += 1;
                    pkt.resubmit = false;
                    pkt.drop = false;
                    live_lanes.push(i as u32);
                }
            }
            for step in plan.exec_steps() {
                let lanes = match step.gate {
                    None => &live_lanes[..],
                    Some(g) => {
                        if step.fresh_gate {
                            gated_lanes.clear();
                            gated_lanes.extend(
                                live_lanes
                                    .iter()
                                    .copied()
                                    .filter(|&i| pkts[i as usize].phv.values()[g.index()] == 1),
                            );
                        }
                        &gated_lanes[..]
                    }
                };
                let members = &plan.slots()[step.start as usize..step.end as usize];
                match &step.probe {
                    StepProbe::Slot => {
                        for &i in lanes {
                            let pkt = &mut pkts[i as usize];
                            visit_slot(plan, step.start as usize, tables, regs, meters, pkt);
                        }
                    }
                    StepProbe::Fused(fused) => {
                        for &i in lanes {
                            let pkt = &mut pkts[i as usize];
                            let Some(c) = fused.combo(pkt.phv.values()) else {
                                // A value past an exact member's field
                                // width: slot by slot.
                                for si in step.start..step.end {
                                    visit_slot(plan, si as usize, tables, regs, meters, pkt);
                                }
                                continue;
                            };
                            for (slot, &e) in members.iter().zip(fused.results(c)) {
                                record(&mut tables[slot.table as usize], e);
                            }
                            exec_ops(plan, fused.ops(c), regs, meters, pkt);
                        }
                    }
                    StepProbe::Shared(index) => {
                        let key = plan.slot_key(step.start as usize);
                        for &i in lanes {
                            let pkt = &mut pkts[i as usize];
                            let mut won = [MISS; SHARED_MAX];
                            let won = &mut won[..members.len()];
                            index.winners(&PhvKey { values: pkt.phv.values(), fields: key }, won);
                            for (slot, &e) in members.iter().zip(won.iter()) {
                                record(&mut tables[slot.table as usize], e);
                                let action = match e {
                                    MISS => slot.default_action,
                                    e => plan.entry_action(slot, e as usize),
                                };
                                exec_ops(plan, plan.ops(action), regs, meters, pkt);
                            }
                        }
                    }
                }
            }
            for pkt in &mut pkts[..n] {
                if !pkt.live {
                    continue;
                }
                if pkt.drop {
                    meters.drops += 1;
                    stats.drops += 1;
                    pkt.live = false;
                    live -= 1;
                } else if pkt.resubmit {
                    if pkt.passes as usize > limit {
                        stats.resubmit_limited += 1;
                        pkt.live = false;
                        live -= 1;
                    } else {
                        meters.resubmissions += 1;
                        // The Ethernet-minimum floor applies to the wire
                        // length a parsed frame supplied.
                        if let Some(f) = fields {
                            meters.resubmit_bytes += pkt.phv.get(f.frame_len).max(64);
                            pkt.phv.set(f.is_resubmit, 1);
                        }
                    }
                } else {
                    pkt.live = false;
                    live -= 1;
                }
            }
        }
        for pkt in &mut pkts[..n] {
            digests.append_from(&mut pkt.digests);
        }
        stats.packets += n as u64;
        wave.len = 0;
    }

    /// Processes a pre-built PHV (no parsing; useful for unit tests and
    /// synthetic control packets) as a singleton wave. Panics if a wave is
    /// in flight, like [`Pipeline::process_packet`].
    pub fn process_phv(&mut self, phv: Phv, ts_us: u64) -> ProcessOutcome {
        assert_eq!(self.wave.len, 0, "process_phv with a wave in flight; wave_flush first");
        self.meters.packets += 1;
        self.run_single(phv, ts_us, None)
    }

    /// Processes a pre-built PHV with the original **entry-walking
    /// interpreter** (re-reads the stage schedule, resolves lookups by
    /// linear scan and clones the matched action on every table visit).
    /// Kept as the reference implementation: the equivalence tests assert
    /// the wave is observationally identical to it — per-packet PHV and
    /// disposition, digests, meters, registers, table statistics.
    pub fn process_phv_entrywalk(&mut self, mut phv: Phv, ts_us: u64) -> ProcessOutcome {
        self.meters.packets += 1;
        let (disposition, passes) = self.run_inplace(&mut phv, ts_us, None);
        ProcessOutcome { phv, disposition, passes }
    }

    /// Parses a frame and processes it with the entry-walking reference
    /// interpreter (see [`Pipeline::process_phv_entrywalk`]).
    pub fn process_packet_entrywalk(
        &mut self,
        frame: &[u8],
        ts_us: u64,
        fields: &StandardFields,
    ) -> Result<ProcessOutcome, ParseError> {
        let mut phv = self.parse_metered(frame, ts_us, fields)?;
        let (disposition, passes) = self.run_inplace(&mut phv, ts_us, Some(fields));
        Ok(ProcessOutcome { phv, disposition, passes })
    }

    /// The reference interpreter's resubmission loop on `phv`, in place.
    fn run_inplace(
        &mut self,
        phv: &mut Phv,
        ts_us: u64,
        fields: Option<&StandardFields>,
    ) -> (Disposition, u32) {
        assert_eq!(self.wave.len, 0, "entry walk with a wave in flight; wave_flush first");
        let limit = self.program.resubmit_limit();
        let mut passes = 0u32;
        loop {
            passes += 1;
            self.meters.passes += 1;
            let effects = self.one_pass_entrywalk(phv, ts_us);
            if effects.drop {
                self.meters.drops += 1;
                return (Disposition::Drop, passes);
            }
            if effects.resubmit {
                if passes as usize > limit {
                    return (Disposition::ResubmitLimit, passes);
                }
                self.meters.resubmissions += 1;
                // Meter the frame's actual length; the Ethernet minimum
                // floor applies only when a parsed frame supplied one.
                // PHV-only passes carry no wire length to charge.
                self.meters.resubmit_bytes +=
                    fields.map(|f| phv.get(f.frame_len).max(64)).unwrap_or(0);
                if let Some(f) = fields {
                    phv.set(f.is_resubmit, 1);
                }
                continue;
            }
            return (Disposition::Forward, passes);
        }
    }

    /// One pass with the original interpreter: re-reads each stage's table
    /// list, resolves lookups with the linear reference scan
    /// ([`crate::table::Table::lookup_linear`]) and clones the matched
    /// action before executing it; a gated table ([`Program::gate`])
    /// whose gate field does not read 1 is passed over uncounted.
    /// Reference implementation only — allocates per table visit.
    fn one_pass_entrywalk(&mut self, phv: &mut Phv, ts_us: u64) -> PassEffects {
        let mut effects = PassEffects::default();
        let n_stages = self.program.stages().len();
        for stage in 0..n_stages {
            let table_ids: Vec<_> = self.program.stages()[stage].tables.clone();
            for tid in table_ids {
                if self.program.gate(tid).is_some_and(|g| phv.get(g) != 1) {
                    continue;
                }
                let hit = self.program.table(tid).lookup_linear(phv);
                // Clone the action out so we can mutate registers/PHV while
                // bumping counters; actions are small.
                let action: Action = match hit {
                    Some(i) => {
                        let t = &mut self.program.tables_mut()[tid.index()];
                        t.record_hit(i);
                        t.entries()[i].action.clone()
                    }
                    None => {
                        let t = &mut self.program.tables_mut()[tid.index()];
                        t.record_miss();
                        t.default_action().clone()
                    }
                };
                exec_action(
                    &action,
                    &self.plan,
                    self.program.layout(),
                    self.program.digest_fields(),
                    &mut self.regs,
                    &mut self.digests,
                    &mut self.meters,
                    phv,
                    ts_us,
                    &mut effects,
                );
            }
        }
        effects
    }
}

fn resolve(src: Source, phv: &Phv) -> u64 {
    match src {
        Source::Const(c) => c,
        Source::Field(f) => phv.get(f),
    }
}

/// [`resolve`] over a PHV's value slice.
#[inline]
fn operand(src: Source, v: &[u64]) -> u64 {
    match src {
        Source::Const(c) => c,
        Source::Field(f) => v[f.index()],
    }
}

/// Takes one wave packet through plan slot `si` alone: looks its key up
/// in place in the table's match index, counts the hit or miss and runs
/// the action's ops.
#[inline]
fn visit_slot(
    plan: &ExecPlan,
    si: usize,
    tables: &mut [Table],
    regs: &mut RegisterFile,
    meters: &mut Meters,
    pkt: &mut WavePacket,
) {
    let slot = &plan.slots()[si];
    let table = &mut tables[slot.table as usize];
    let key = PhvKey { values: pkt.phv.values(), fields: plan.slot_key(si) };
    let action = match plan.match_index(slot.table as usize).lookup_key(&key) {
        Some(e) => {
            table.record_hit(e);
            plan.entry_action(slot, e)
        }
        None => {
            table.record_miss();
            slot.default_action
        }
    };
    exec_ops(plan, plan.ops(action), regs, meters, pkt);
}

/// Counts a step member's hit on entry `e`, or its miss.
#[inline]
fn record(table: &mut Table, e: u32) {
    match e {
        MISS => table.record_miss(),
        e => table.record_hit(e as usize),
    }
}

/// Runs pre-resolved ops (an interned action's, or a fused step's
/// combo) on one wave packet: the wave's executor, where [`exec_action`]
/// is the entry-walk oracle's.
#[inline]
fn exec_ops(
    plan: &ExecPlan,
    ops: &[Op],
    regs: &mut RegisterFile,
    meters: &mut Meters,
    pkt: &mut WavePacket,
) {
    let WavePacket { phv, digests, ts_us, resubmit, drop, flow, .. } = pkt;
    let v = phv.values_mut();
    for &op in ops {
        match op {
            Op::Set(d, src) => d.write(v, operand(src, v)),
            Op::Add(d, a, b) => d.write(v, operand(a, v).wrapping_add(operand(b, v))),
            Op::Sub(d, a, b) => d.write(v, operand(a, v).wrapping_sub(operand(b, v))),
            Op::Min(d, a, b) => d.write(v, operand(a, v).min(operand(b, v))),
            Op::Max(d, a, b) => d.write(v, operand(a, v).max(operand(b, v))),
            Op::DivConst(d, a, divisor) => d.write(v, operand(a, v) / divisor),
            Op::HashFlow(d, index_mask, salt) => {
                let state = flow.state(flow_tuple(plan.hash_flow(), v));
                d.write(v, hash_flow_finish(state, index_mask, salt))
            }
            Op::RegRmw { reg, index, op, operand: x, out } => {
                let (old, new) =
                    regs.rmw(reg as usize, operand(index, v) as usize, op, operand(x, v));
                match out {
                    Some((d, AluOut::Old)) => d.write(v, old),
                    Some((d, AluOut::New)) => d.write(v, new),
                    None => {}
                }
            }
            Op::OwnerUpdate(i) => prim_owner_update(plan.owner_op(i), regs, v),
            Op::Resubmit => *resubmit = true,
            Op::Digest => {
                digests.push(*ts_us, plan.digest_fields().iter().map(|f| v[f.index()]));
                meters.digests += 1;
            }
            Op::Drop => *drop = true,
        }
    }
}

/// Executes one [`Action`] by interpreting its primitives — the entry-walk
/// oracle's executor, the reference [`exec_ops`] is held to. The two share
/// only the `HashFlow` finalisation and the `OwnerUpdate` body.
#[allow(clippy::too_many_arguments)]
fn exec_action(
    action: &Action,
    plan: &ExecPlan,
    layout: &PhvLayout,
    digest_fields: &[FieldId],
    regs: &mut RegisterFile,
    digests: &mut DigestBuf,
    meters: &mut Meters,
    phv: &mut Phv,
    ts_us: u64,
    effects: &mut PassEffects,
) {
    for p in &action.prims {
        match p {
            Primitive::Set { dst, src } => {
                let v = resolve(*src, phv);
                phv.set_masked(*dst, v, layout);
            }
            Primitive::Add { dst, a, b } => {
                let v = resolve(*a, phv).wrapping_add(resolve(*b, phv));
                phv.set_masked(*dst, v, layout);
            }
            Primitive::Sub { dst, a, b } => {
                let v = resolve(*a, phv).wrapping_sub(resolve(*b, phv));
                phv.set_masked(*dst, v, layout);
            }
            Primitive::Min { dst, a, b } => {
                let v = resolve(*a, phv).min(resolve(*b, phv));
                phv.set_masked(*dst, v, layout);
            }
            Primitive::Max { dst, a, b } => {
                let v = resolve(*a, phv).max(resolve(*b, phv));
                phv.set_masked(*dst, v, layout);
            }
            Primitive::DivConst { dst, a, divisor } => {
                debug_assert!(*divisor > 0, "DivConst divisor must be positive");
                let v = resolve(*a, phv) / divisor.max(&1);
                phv.set_masked(*dst, v, layout);
            }
            Primitive::HashFlow { dst, mask, salt } => {
                let state = FlowHash::of(flow_tuple(plan.hash_flow(), phv.values())).state;
                phv.set_masked(*dst, hash_flow_finish(state, *mask, *salt), layout);
            }
            Primitive::RegRmw { reg, index, op, operand, out } => {
                let idx = resolve(*index, phv) as usize;
                let opv = resolve(*operand, phv);
                let (old, new) = regs.rmw(reg.index(), idx, *op, opv);
                if let Some((dst, which)) = out {
                    let v = match which {
                        AluOut::Old => old,
                        AluOut::New => new,
                    };
                    phv.set_masked(*dst, v, layout);
                }
            }
            Primitive::OwnerUpdate { .. } => {
                prim_owner_update(&OwnerOp::resolve(p, layout), regs, phv.values_mut())
            }
            Primitive::Resubmit => effects.resubmit = true,
            Primitive::Digest => {
                digests.push(ts_us, digest_fields.iter().map(|&f| phv.get(f)));
                meters.digests += 1;
            }
            Primitive::Drop => effects.drop = true,
        }
    }
}

/// The raw 5-tuple `HashFlow` hashes, read from a PHV's value slice.
///
/// Panics when the layout lacks the standard fields (`hf` is `None`):
/// see [`ExecPlan::hash_flow`].
#[inline]
fn flow_tuple(hf: Option<HashFlowFields>, v: &[u64]) -> [u64; 5] {
    // Programs using HashFlow are built via `standard_fields()`.
    let hf = hf.expect("standard fields registered");
    [hf.src_ip, hf.dst_ip, hf.sport, hf.dport, hf.proto].map(|f| v[f.index()])
}

/// `HashFlow` finalisation of a tuple's CRC state: the canonical flow
/// index ([`crate::hash::flow_index`]) under `index_mask + 1` slots
/// (`salt == 0`), or the salted fingerprint
/// ([`crate::hash::flow_fingerprint`]) under `index_mask`. The caller
/// masks the result to the destination field.
#[inline]
fn hash_flow_finish(state: u32, index_mask: u64, salt: u64) -> u64 {
    if salt == 0 {
        !state as u64 & index_mask
    } else {
        crate::hash::salted(state, salt) as u64 & index_mask
    }
}

/// `OwnerUpdate` body: the ownership-lane state machine, over a PHV's
/// value slice `v`.
#[inline]
fn prim_owner_update(o: &OwnerOp, regs: &mut RegisterFile, v: &mut [u64]) {
    let OwnerOp {
        reg: ri,
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
        state_out,
    } = *o;
    use crate::action::{OwnerMode, SlotState};
    use crate::register::owner_lane as lane;
    let idx = operand(index, v) as usize;
    let fpv = operand(fp, v) & crate::hash::FP_MASK;
    let now32 = operand(now, v) & 0xFFFF_FFFF;
    let cell = regs.read(ri, idx);
    let (stored_fp, decided, pinned) = (lane::fp(cell), lane::decided(cell), lane::pinned(cell));
    let idle = |timeout: u64| now32.wrapping_sub(lane::last_seen_us(cell)) & 0xFFFF_FFFF > timeout;
    // Claimable lanes export Unsolicited when the entry has no
    // claim permission (the policy's non-SYN probes).
    let gate = |s: SlotState| if claim { s } else { SlotState::Unsolicited };
    let state = match mode {
        OwnerMode::Probe => {
            let state = if stored_fp == fpv {
                if decided {
                    // A trailing FIN/RST from the owner of an
                    // unpinned decided lane releases it
                    // in-band (the early-exit flow's close).
                    if release && !pinned {
                        SlotState::OwnerRelease
                    } else {
                        SlotState::OwnerDecided
                    }
                } else {
                    SlotState::Owner
                }
            } else if stored_fp == 0 {
                gate(SlotState::ClaimFree)
            } else if decided && pinned {
                // Pinned verdicts hold their slot until the
                // longer pinned timeout (or operator release).
                if idle(pinned_timeout_us) {
                    gate(SlotState::TakeoverPinned)
                } else {
                    SlotState::PinnedDefended
                }
            } else if decided {
                gate(SlotState::TakeoverDecided)
            } else if idle(idle_timeout_us) {
                gate(SlotState::TakeoverIdle)
            } else {
                SlotState::LiveCollision
            };
            match state {
                // Owner traffic refreshes recency (decided
                // lanes keep their flags and class); claims
                // install the new fingerprint undecided.
                SlotState::Owner | SlotState::OwnerDecided => {
                    regs.write(ri, idx, lane::pack(decided, pinned, lane::class(cell), fpv, now32));
                }
                SlotState::ClaimFree
                | SlotState::TakeoverIdle
                | SlotState::TakeoverDecided
                | SlotState::TakeoverPinned => {
                    regs.write(ri, idx, lane::pack(false, false, 0, fpv, now32));
                }
                // Suppressed packets must not corrupt the lane.
                SlotState::LiveCollision | SlotState::Unsolicited | SlotState::PinnedDefended => {}
                SlotState::OwnerRelease => regs.write(ri, idx, lane::FREE),
            }
            state
        }
        OwnerMode::Decide => {
            if stored_fp == fpv {
                if release && !pin {
                    // In-band FIN/RST release: the slot is
                    // reclaimable before any digest drains.
                    regs.write(ri, idx, lane::FREE);
                    SlotState::OwnerRelease
                } else {
                    let classv = operand(class, v) & lane::CLASS_MASK;
                    regs.write(ri, idx, lane::pack(true, pin, classv, fpv, now32));
                    SlotState::OwnerDecided
                }
            } else {
                // The lane was recycled (or released) already:
                // leave it alone.
                SlotState::OwnerDecided
            }
        }
    };
    state_out.write(v, state.code());
}

#[derive(Debug, Default, Clone, Copy)]
struct PassEffects {
    resubmit: bool,
    drop: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, AluOp, Primitive, Source};
    use crate::packet::PacketBuilder;
    use crate::program::ProgramBuilder;
    use crate::register::RegisterSpec;
    use crate::table::TableSpec;
    use crate::tcam::Ternary;

    /// A shared-key step probes once, before any member's ops run: every
    /// member's winner is the one for the key as the step began. Here
    /// `t0` rewrites the key `t1` reads, so rule (b) keeps the plan from
    /// sharing them and the entry walk sees the rewrite; forced into one
    /// shared step, `t1` must not.
    #[test]
    fn shared_step_probes_before_any_member_ops() {
        use crate::index::TernaryIndex;
        use crate::plan::Step;
        let mut b = ProgramBuilder::new();
        let (w, out) = (b.add_meta("w", 16), b.add_meta("out", 8));
        let t0 = b.add_table(TableSpec::ternary("t0", vec![w], 8), 0);
        let t1 = b.add_table(TableSpec::ternary("t1", vec![w], 8), 0);
        let entry = |b: &mut ProgramBuilder, t, v: u64, action: Action| {
            b.add_ternary_entry(t, vec![Ternary::new(v, 0xF00)], 0, action).unwrap();
        };
        entry(&mut b, t0, 0x100, Action::new("rewrite").with(Primitive::set_const(w, 0x200)));
        entry(&mut b, t1, 0x100, Action::new("one").with(Primitive::set_const(out, 1)));
        entry(&mut b, t1, 0x200, Action::new("two").with(Primitive::set_const(out, 2)));
        let p = b.build().unwrap();
        let mut phv = p.layout().new_phv();
        phv.set(w, 0x100);
        let mut walk = Pipeline::new(p.clone());
        assert_eq!(walk.process_phv_entrywalk(phv.clone(), 0).phv.get(out), 2);

        let mut pipe = Pipeline::new(p.clone());
        let shared = TernaryIndex::build(&[&p.tables()[0], &p.tables()[1]]);
        *pipe.plan.exec_steps_mut() = vec![Step {
            start: 0,
            end: 2,
            gate: None,
            fresh_gate: false,
            probe: StepProbe::Shared(shared),
        }];
        let o = pipe.process_phv(phv, 0);
        assert_eq!((o.phv.get(w), o.phv.get(out)), (0x200, 1));
    }

    #[test]
    fn register_accumulation_across_packets() {
        let mut b = ProgramBuilder::new();
        let fields = b.standard_fields();
        let idx = b.add_meta("idx", 16);
        let r = b.add_register(RegisterSpec::new("cnt", 32, 16), 0);
        let t = b.add_table(TableSpec::exact("count", vec![fields.ip_proto], 4), 0);
        b.add_exact_entry(
            t,
            vec![6],
            Action::new("bump").with(Primitive::RegRmw {
                reg: r,
                index: Source::Field(idx),
                op: AluOp::Add,
                operand: Source::Const(1),
                out: None,
            }),
        )
        .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let frame = PacketBuilder::tcp(1, 2, 3, 4).build();
        for i in 0..5 {
            pipe.process_packet(&frame, i, &fields).unwrap();
        }
        assert_eq!(pipe.registers().read(0, 0), 5);
        assert_eq!(pipe.meters().packets, 5);
        assert_eq!(pipe.meters().passes, 5);
    }

    #[test]
    fn resubmission_loops_and_meters() {
        let mut b = ProgramBuilder::new();
        let fields = b.standard_fields();
        let t = b.add_table(TableSpec::exact("go", vec![fields.is_resubmit], 4), 0);
        // First pass (is_resubmit=0): request resubmission.
        b.add_exact_entry(t, vec![0], Action::new("resub").with(Primitive::Resubmit)).unwrap();
        // Second pass (is_resubmit=1): no-op, forward.
        b.add_exact_entry(t, vec![1], Action::nop()).unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let frame = PacketBuilder::tcp(1, 2, 3, 4).build();
        let out = pipe.process_packet(&frame, 0, &fields).unwrap();
        assert_eq!(out.disposition, Disposition::Forward);
        assert_eq!(out.passes, 2);
        assert_eq!(pipe.meters().resubmissions, 1);
        assert!(pipe.meters().resubmit_bytes >= 64);
        assert_eq!(pipe.meters().passes, 2);
        assert_eq!(pipe.meters().packets, 1);
    }

    #[test]
    fn resubmit_bytes_meter_actual_frame_length() {
        let mut b = ProgramBuilder::new();
        let fields = b.standard_fields();
        let t = b.add_table(TableSpec::exact("go", vec![fields.is_resubmit], 4), 0);
        b.add_exact_entry(t, vec![0], Action::new("resub").with(Primitive::Resubmit)).unwrap();
        b.add_exact_entry(t, vec![1], Action::nop()).unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        // A frame well above the Ethernet minimum: the resubmitted pass is
        // charged its actual length, not a 64-byte floor.
        let frame = PacketBuilder::tcp(1, 2, 3, 4).payload(400).build();
        assert!(frame.len() > 64);
        pipe.process_packet(&frame, 0, &fields).unwrap();
        assert_eq!(pipe.meters().resubmit_bytes, frame.len() as u64);
    }

    #[test]
    fn resubmit_bytes_unmetered_without_parsed_frame() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        b.set_resubmit_limit(1);
        let t = b.add_table(TableSpec::ternary("always", vec![f], 4), 0);
        b.add_ternary_entry(t, vec![Ternary::ANY], 0, Action::new("r").with(Primitive::Resubmit))
            .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let phv = pipe.program().layout().new_phv();
        // PHV-only passes have no wire length: nothing to charge.
        pipe.process_phv(phv, 0);
        assert!(pipe.meters().resubmissions > 0);
        assert_eq!(pipe.meters().resubmit_bytes, 0);
    }

    #[test]
    fn resubmit_limit_bounds_loops() {
        let mut b = ProgramBuilder::new();
        let f = b.add_meta("f", 8);
        b.set_resubmit_limit(3);
        let t = b.add_table(TableSpec::ternary("always", vec![f], 4), 0);
        b.add_ternary_entry(
            t,
            vec![Ternary::ANY],
            0,
            Action::new("loop").with(Primitive::Resubmit),
        )
        .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let phv = pipe.program().layout().new_phv();
        let out = pipe.process_phv(phv, 0);
        assert_eq!(out.disposition, Disposition::ResubmitLimit);
        assert_eq!(out.passes, 4); // limit(3) + the first pass
    }

    #[test]
    fn digest_carries_fields() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 16);
        let c = b.add_meta("c", 8);
        b.set_digest_fields(vec![a, c]);
        let t = b.add_table(TableSpec::ternary("t", vec![a], 4), 0);
        b.add_ternary_entry(
            t,
            vec![Ternary::ANY],
            0,
            Action::new("d").with(Primitive::set_const(c, 9)).with(Primitive::Digest),
        )
        .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let mut phv = pipe.program().layout().new_phv();
        phv.set(a, 1234);
        pipe.process_phv(phv, 77);
        assert_eq!(pipe.digests().len(), 1);
        assert_eq!(pipe.digests().values(0), &[1234, 9]);
        assert_eq!(pipe.digests().ts_us(0), 77);
        let drained = pipe.take_digests();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].values, vec![1234, 9]);
        assert_eq!(drained[0].ts_us, 77);
        assert!(pipe.digests().is_empty());
    }

    #[test]
    fn digest_buf_iterates_and_clears_keeping_capacity() {
        let mut buf = DigestBuf::with_stride(2);
        buf.push(1, [10, 11]);
        buf.push(2, [20, 21]);
        let seen: Vec<_> = buf.iter().map(|d| (d.ts_us, d.values.to_vec())).collect();
        assert_eq!(seen, vec![(1, vec![10, 11]), (2, vec![20, 21])]);
        let cap = (buf.ts.capacity(), buf.values.capacity());
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!((buf.ts.capacity(), buf.values.capacity()), cap);
        // Stride-0 records (programs with no digest fields) still count.
        let mut empty = DigestBuf::with_stride(0);
        empty.push(5, []);
        assert_eq!(empty.len(), 1);
        assert_eq!(empty.iter().count(), 1);
        assert_eq!(empty.values(0), &[] as &[u64]);
    }

    #[test]
    fn install_entry_rebuilds_plan_for_running_pipeline() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 16);
        let out_f = b.add_meta("out", 8);
        let t = b.add_table(TableSpec::range("t", vec![a], 8), 0);
        b.add_range_entry(
            t,
            vec![(0, 9)],
            1,
            Action::new("low").with(Primitive::set_const(out_f, 1)),
        )
        .unwrap();
        let mut pipe = Pipeline::new(b.build().unwrap());
        let probe = |pipe: &mut Pipeline, v: u64| {
            let mut phv = pipe.program().layout().new_phv();
            phv.set(a, v);
            pipe.process_phv(phv, 0).phv.get(out_f)
        };
        assert_eq!(probe(&mut pipe, 5), 1);
        assert_eq!(probe(&mut pipe, 15), 0, "no rule covers 15 yet");
        // Controller installs a new rule mid-session; the compiled index
        // must see it on the very next packet.
        pipe.install_entry(
            t,
            EntryKey::Range { fields: vec![(10, 20)], priority: 5 },
            Action::new("mid").with(Primitive::set_const(out_f, 2)),
        )
        .unwrap();
        assert_eq!(probe(&mut pipe, 15), 2);
        assert_eq!(probe(&mut pipe, 5), 1, "old rule still resolves");
        assert_eq!(pipe.program().table(t).entries()[1].hits, 1);
    }

    /// The running pipeline refuses an exact value wider than its key
    /// field, as the builder does, and keeps the table as it was.
    #[test]
    fn install_entry_rejects_value_wider_than_its_field() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 4);
        let t = b.add_table(TableSpec::exact("t", vec![a], 8), 0);
        let mut pipe = Pipeline::new(b.build().unwrap());
        let err = pipe.install_entry(t, EntryKey::Exact(vec![16]), Action::nop()).unwrap_err();
        assert_eq!(
            err,
            TableError::ValueTooWide { table: "t".into(), field: "a".into(), value: 16, bits: 4 }
        );
        assert_eq!(pipe.program().table(t).n_entries(), 0);
        pipe.install_entry(t, EntryKey::Exact(vec![15]), Action::nop()).unwrap();
        assert_eq!(pipe.program().table(t).n_entries(), 1);
    }

    #[test]
    fn drop_stops_packet() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 8);
        let t = b.add_table(TableSpec::ternary("t", vec![a], 4), 0);
        b.add_ternary_entry(t, vec![Ternary::ANY], 0, Action::new("x").with(Primitive::Drop))
            .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let phv = pipe.program().layout().new_phv();
        let out = pipe.process_phv(phv, 0);
        assert_eq!(out.disposition, Disposition::Drop);
        assert_eq!(pipe.meters().drops, 1);
    }

    #[test]
    fn rmw_exports_old_and_new() {
        let mut b = ProgramBuilder::new();
        let trigger = b.add_meta("trigger", 8);
        let old_f = b.add_meta("old", 32);
        let new_f = b.add_meta("new", 32);
        let r = b.add_register(RegisterSpec::new("ts", 32, 4), 0);
        let t1 = b.add_table(TableSpec::ternary("w", vec![trigger], 4), 0);
        b.add_ternary_entry(
            t1,
            vec![Ternary::ANY],
            0,
            Action::new("write").with(Primitive::RegRmw {
                reg: r,
                index: Source::Const(0),
                op: AluOp::Write,
                operand: Source::Const(42),
                out: Some((old_f, AluOut::Old)),
            }),
        )
        .unwrap();
        let t2 = b.add_table(TableSpec::ternary("r", vec![trigger], 4), 0);
        // Second visit is a different table in the same stage — allowed in
        // the simulator for testing; reads new value.
        b.add_ternary_entry(
            t2,
            vec![Ternary::ANY],
            0,
            Action::new("read").with(Primitive::RegRmw {
                reg: r,
                index: Source::Const(0),
                op: AluOp::Read,
                operand: Source::Const(0),
                out: Some((new_f, AluOut::New)),
            }),
        )
        .unwrap();
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let phv = pipe.program().layout().new_phv();
        let out = pipe.process_phv(phv, 0);
        assert_eq!(out.phv.get(old_f), 0);
        assert_eq!(out.phv.get(new_f), 42);
    }

    #[test]
    fn default_action_fires_on_miss() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 8);
        let out_f = b.add_meta("out", 8);
        let t = b.add_table(TableSpec::exact("t", vec![a], 4), 0);
        b.set_default(t, Action::new("miss").with(Primitive::set_const(out_f, 7)));
        let p = b.build().unwrap();
        let mut pipe = Pipeline::new(p);
        let phv = pipe.program().layout().new_phv();
        let out = pipe.process_phv(phv, 0);
        assert_eq!(out.phv.get(out_f), 7);
        assert_eq!(pipe.program().table(t).misses(), 1);
    }

    #[test]
    fn entrywalk_reference_matches_plan() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 16);
        let out_f = b.add_meta("out", 16);
        let r = b.add_register(RegisterSpec::new("acc", 16, 8), 0);
        let t = b.add_table(TableSpec::ternary("t", vec![a], 8), 0);
        b.add_ternary_entry(
            t,
            vec![Ternary::exact(3, 16)],
            5,
            Action::new("hit").with(Primitive::RegRmw {
                reg: r,
                index: Source::Const(1),
                op: AluOp::Add,
                operand: Source::Field(a),
                out: Some((out_f, AluOut::New)),
            }),
        )
        .unwrap();
        b.set_default(t, Action::new("miss").with(Primitive::set_const(out_f, 9)));
        let p = b.build().unwrap();
        let mut plan_pipe = Pipeline::new(p.clone());
        let mut walk_pipe = Pipeline::new(p);
        for v in [3u64, 4, 3, 0] {
            let mut phv1 = plan_pipe.program().layout().new_phv();
            phv1.set(a, v);
            let phv2 = phv1.clone();
            let o1 = plan_pipe.process_phv(phv1, v);
            let o2 = walk_pipe.process_phv_entrywalk(phv2, v);
            assert_eq!(o1.phv, o2.phv);
            assert_eq!(o1.disposition, o2.disposition);
        }
        assert_eq!(plan_pipe.meters(), walk_pipe.meters());
        assert_eq!(plan_pipe.registers().read(0, 1), walk_pipe.registers().read(0, 1));
        assert_eq!(plan_pipe.program().table(t).misses(), walk_pipe.program().table(t).misses());
    }

    /// Builds a tiny program: one register "keep" (32x8) plus an optional
    /// extra register, and one ternary table writing `out = const`.
    fn swap_fixture(extra_reg: Option<&str>, out_val: u64) -> Program {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 16);
        let out_f = b.add_meta("out", 8);
        b.set_digest_fields(vec![a, out_f]);
        let r = b.add_register(RegisterSpec::new("keep", 32, 8), 0);
        let _ = r;
        if let Some(name) = extra_reg {
            b.add_register(RegisterSpec::new(name, 16, 8), 0);
        }
        let t = b.add_table(TableSpec::ternary("t", vec![a], 4), 0);
        b.add_ternary_entry(
            t,
            vec![Ternary::ANY],
            0,
            Action::new("set").with(Primitive::set_const(out_f, out_val)).with(Primitive::Digest),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn swap_program_carries_matching_registers_digests_and_meters() {
        let old = swap_fixture(Some("old_only"), 1);
        let new = swap_fixture(Some("new_only"), 2);
        let a = crate::phv::FieldId(0);
        let out_f = crate::phv::FieldId(1);
        let mut pipe = Pipeline::new(old);
        pipe.registers_mut().write(0, 3, 777); // "keep"
        pipe.registers_mut().write(1, 3, 555); // "old_only"
        let mut phv = pipe.program().layout().new_phv();
        phv.set(a, 42);
        pipe.process_phv(phv, 9); // emits digest [42, 1] under the old model
        let packets_before = pipe.meters().packets;

        pipe.swap_program(new, &[(TableId(0), TableId(0))]);

        // Matching register carried; old-only dropped; new-only zeroed.
        assert_eq!(pipe.registers().spec(0).name, "keep");
        assert_eq!(pipe.registers().read(0, 3), 777);
        assert_eq!(pipe.registers().spec(1).name, "new_only");
        assert_eq!(pipe.registers().read(1, 3), 0);
        // Pending digests and meters survive the flip.
        assert_eq!(pipe.digests().len(), 1);
        assert_eq!(pipe.digests().values(0), &[42, 1]);
        assert_eq!(pipe.meters().packets, packets_before);
        // The new tables actually serve lookups.
        let mut phv = pipe.program().layout().new_phv();
        phv.set(a, 1);
        let o = pipe.process_phv(phv, 10);
        assert_eq!(o.phv.get(out_f), 2, "post-swap packet must see the new model");
        assert_eq!(pipe.digests().len(), 2);
        assert_eq!(pipe.digests().values(1), &[1, 2]);
        assert_eq!(pipe.meters().packets, packets_before + 1);
    }

    /// Wave-test program: stage 0 hashes the canonical flow into `m_idx`
    /// (`slots` conflict domain), stage 1 counts bytes per flow slot and
    /// digests every TCP packet, stage 2 optionally resubmits first-pass
    /// packets and drops flow slot 0 — covering flow state, digest
    /// order, recirculation, and drops in one fixture.
    fn wave_program(
        slots: usize,
        resubmit: bool,
        drop_slot0: bool,
    ) -> (Program, crate::parser::StandardFields) {
        wave_program_with(slots, resubmit, drop_slot0, false)
    }

    /// [`wave_program`], with `rewrite_src` adding 1000 to `ipv4.src` in
    /// stage 0 before the `HashFlow`, on every pass.
    fn wave_program_with(
        slots: usize,
        resubmit: bool,
        drop_slot0: bool,
        rewrite_src: bool,
    ) -> (Program, crate::parser::StandardFields) {
        let mut b = ProgramBuilder::new();
        let fields = b.standard_fields();
        let idx = b.add_meta("m_idx", 16);
        b.set_digest_fields(vec![idx, fields.frame_len]);
        let r = b.add_register(RegisterSpec::new("cnt", 32, slots), 1);
        if rewrite_src {
            let t = b.add_table(TableSpec::exact("rewrite", vec![fields.is_resubmit], 2), 0);
            let src = fields.ipv4_src;
            b.set_default(
                t,
                Action::new("rewrite").with(Primitive::Add {
                    dst: src,
                    a: Source::Field(src),
                    b: Source::Const(1000),
                }),
            );
        }
        let prep = b.add_table(TableSpec::exact("prep", vec![fields.is_resubmit], 2), 0);
        b.set_default(
            prep,
            Action::new("hash").with(Primitive::HashFlow {
                dst: idx,
                mask: (slots - 1) as u64,
                salt: 0,
            }),
        );
        let count = b.add_table(TableSpec::exact("count", vec![fields.ip_proto], 4), 1);
        b.add_exact_entry(
            count,
            vec![6],
            Action::new("bump")
                .with(Primitive::RegRmw {
                    reg: r,
                    index: Source::Field(idx),
                    op: AluOp::Add,
                    operand: Source::Field(fields.frame_len),
                    out: None,
                })
                .with(Primitive::Digest),
        )
        .unwrap();
        if resubmit {
            let go = b.add_table(TableSpec::exact("go", vec![fields.is_resubmit], 4), 2);
            b.add_exact_entry(go, vec![0], Action::new("resub").with(Primitive::Resubmit)).unwrap();
            b.add_exact_entry(go, vec![1], Action::nop()).unwrap();
        }
        if drop_slot0 {
            let d = b.add_table(TableSpec::exact("drop0", vec![idx], 4), 2);
            b.add_exact_entry(d, vec![0], Action::new("drop").with(Primitive::Drop)).unwrap();
        }
        (b.build().unwrap(), fields)
    }

    /// Wave execution must be observationally identical to the entry-walk
    /// oracle — meters, registers, table stats, wave dispositions, and the
    /// **exact digest stream** — across plain, resubmit-heavy, and
    /// dropping programs at several burst sizes (flows repeat across
    /// rounds, so wave cuts fire constantly). A third pipeline takes the
    /// same frames through the single-packet call, whose per-packet PHV,
    /// disposition and pass count must equal the oracle's.
    #[test]
    fn wave_execution_matches_scalar() {
        const SLOTS: usize = 8;
        for &(resubmit, drop0, burst) in
            &[(false, false, 4), (true, false, 8), (true, true, 32), (true, true, 1)]
        {
            let (p, fields) = wave_program(SLOTS, resubmit, drop0);
            let mut oracle = Pipeline::new(p.clone());
            let mut single = Pipeline::new(p.clone());
            let mut wave = Pipeline::new(p);
            wave.set_burst(burst, SLOTS);
            assert_eq!(wave.burst(), burst);
            let frames: Vec<_> = (0..20u32)
                .map(|i| {
                    PacketBuilder::tcp(i, i + 1, 1000 + i as u16, 2)
                        .payload((i % 7) as u16 * 10)
                        .build()
                })
                .collect();
            let mut stats = WaveStats::default();
            let mut expected = WaveStats::default();
            for round in 0..3u64 {
                for (i, f) in frames.iter().enumerate() {
                    let ts = round * 100 + i as u64;
                    let want = oracle.process_packet_entrywalk(f, ts, &fields).unwrap();
                    let got = single.process_packet(f, ts, &fields).unwrap();
                    assert_eq!(got.phv, want.phv);
                    assert_eq!((got.disposition, got.passes), (want.disposition, want.passes));
                    wave.wave_push(f, ts, &fields, &mut stats).unwrap();
                    expected.packets += 1;
                    match want.disposition {
                        Disposition::Drop => expected.drops += 1,
                        Disposition::ResubmitLimit => expected.resubmit_limited += 1,
                        Disposition::Forward => {}
                    }
                }
            }
            wave.wave_flush(&fields, &mut stats);
            assert_eq!(wave.wave_len(), 0);
            assert_eq!(stats, expected);
            let want_digests = oracle.take_digests();
            for mut pipe in [wave, single] {
                assert_eq!(oracle.meters(), pipe.meters());
                for s in 0..SLOTS {
                    assert_eq!(oracle.registers().read(0, s), pipe.registers().read(0, s));
                }
                assert_eq!(want_digests, pipe.take_digests(), "digest streams must match");
                for (to, tp) in oracle.program().tables().iter().zip(pipe.program().tables()) {
                    assert_eq!(to.misses(), tp.misses());
                    for (eo, ep) in to.entries().iter().zip(tp.entries()) {
                        assert_eq!(eo.hits, ep.hits);
                    }
                }
            }
        }
    }

    /// A program that rewrites a tuple field before its `HashFlow` hashes
    /// the rewritten tuple, not the one the packet's memo was computed
    /// from at push: the wave, the single-packet call and the entry walk
    /// agree on every PHV, digest (which carries the hash) and register.
    #[test]
    fn hash_memo_rehashes_a_rewritten_tuple() {
        const SLOTS: usize = 8;
        for burst in [1, 8] {
            let (p, fields) = wave_program_with(SLOTS, true, false, true);
            let mut oracle = Pipeline::new(p.clone());
            let mut single = Pipeline::new(p.clone());
            let mut wave = Pipeline::new(p);
            wave.set_burst(burst, SLOTS);
            let mut stats = WaveStats::default();
            for i in 0..24u32 {
                let frame = PacketBuilder::tcp(i % 12, 7, 1000 + i as u16, 2).build();
                let want = oracle.process_packet_entrywalk(&frame, i as u64, &fields).unwrap();
                let got = single.process_packet(&frame, i as u64, &fields).unwrap();
                assert_eq!(got.phv, want.phv, "packet {i}");
                wave.wave_push(&frame, i as u64, &fields, &mut stats).unwrap();
            }
            wave.wave_flush(&fields, &mut stats);
            let want_digests = oracle.take_digests();
            for mut pipe in [wave, single] {
                assert_eq!(want_digests, pipe.take_digests(), "burst {burst}");
                assert_eq!(oracle.meters(), pipe.meters());
                for s in 0..SLOTS {
                    assert_eq!(oracle.registers().read(0, s), pipe.registers().read(0, s));
                }
            }
        }
    }

    /// The memoised tuple state finalises to the `hash` functions' values:
    /// the flow index, and the salted fingerprint the ownership lane
    /// stores.
    #[test]
    fn flow_hash_memo_equals_flow_index_and_fingerprint() {
        use crate::hash::{canonical_order, flow_fingerprint, flow_index, FP_MASK, FP_SALT};
        let mut memo = FlowHash::of([0; 5]);
        for i in 0..64u64 {
            let tuple = [i * 7919, 0x0a00_0001 + i % 3, 1000 + i, 80 + i % 2, 6 + i % 11];
            let state = memo.state(tuple);
            assert_eq!(state, FlowHash::of(tuple).state, "a stale memo was used");
            let (sip, dip, sp, dp) =
                canonical_order(tuple[0] as u32, tuple[1] as u32, tuple[2] as u16, tuple[3] as u16);
            let proto = tuple[4] as u8;
            assert_eq!(
                hash_flow_finish(state, FP_MASK, FP_SALT),
                flow_fingerprint(sip, dip, sp, dp, proto, FP_SALT) as u64 & FP_MASK
            );
            assert_eq!(
                hash_flow_finish(state, (1 << 16) - 1, 0),
                flow_index(sip, dip, sp, dp, proto, 1 << 16) as u64
            );
        }
    }

    /// A malformed frame is metered and rejected without disturbing the
    /// arena: on an empty wave the half-parsed slot is simply reused by
    /// the next frame, mid-wave the parked packets survive.
    #[test]
    fn wave_push_rejects_malformed_without_losing_wave() {
        let (p, fields) = wave_program(8, false, false);
        let mut pipe = Pipeline::new(p);
        pipe.set_burst(16, 8);
        let mut stats = WaveStats::default();
        assert!(pipe.wave_push(&[0u8; 5], 0, &fields, &mut stats).is_err());
        assert_eq!(pipe.wave_len(), 0);
        let frame = PacketBuilder::tcp(1, 2, 3, 4).build();
        pipe.wave_push(&frame, 1, &fields, &mut stats).unwrap();
        assert!(pipe.wave_push(&[0u8; 5], 2, &fields, &mut stats).is_err());
        assert_eq!(pipe.wave_len(), 1, "parked packet must survive the reject");
        pipe.wave_flush(&fields, &mut stats);
        assert_eq!(stats.packets, 1);
        assert_eq!(pipe.meters().malformed, 2);
        assert_eq!(pipe.meters().packets, 1);
        // The single-packet call meters rejects the same way and recovers.
        assert!(pipe.process_packet(&[0u8; 5], 3, &fields).is_err());
        assert!(pipe.process_packet(&frame, 4, &fields).is_ok());
        assert_eq!((pipe.meters().malformed, pipe.meters().packets), (3, 2));
    }

    /// The single-packet call refuses to jump the queue: with packets
    /// parked in the arena it would execute ahead of them.
    #[test]
    #[should_panic(expected = "wave in flight; wave_flush first")]
    fn process_packet_refuses_open_wave() {
        let (p, fields) = wave_program(8, false, false);
        let mut pipe = Pipeline::new(p);
        pipe.set_burst(16, 8);
        let mut stats = WaveStats::default();
        let frame = PacketBuilder::tcp(1, 2, 3, 4).build();
        pipe.wave_push(&frame, 0, &fields, &mut stats).unwrap();
        assert_ne!(pipe.wave_len(), 0);
        let _ = pipe.process_packet(&frame, 1, &fields);
    }

    /// Programs without the standard flow fields cannot form conflict
    /// keys: burst is forced to 1 and waves stay singleton (trivially
    /// scalar-equivalent).
    #[test]
    fn wave_burst_forced_scalar_without_flow_fields() {
        let mut b = ProgramBuilder::new();
        let a = b.add_meta("a", 8);
        let t = b.add_table(TableSpec::exact("t", vec![a], 4), 0);
        b.set_default(t, Action::nop());
        let mut pipe = Pipeline::new(b.build().unwrap());
        pipe.set_burst(32, 64);
        assert_eq!(pipe.burst(), 1);
    }

    #[test]
    fn swap_program_carries_table_hits() {
        let old = swap_fixture(None, 1);
        let new = swap_fixture(None, 2);
        let a = crate::phv::FieldId(0);
        let mut pipe = Pipeline::new(old);
        for i in 0..5 {
            let mut phv = pipe.program().layout().new_phv();
            phv.set(a, i);
            pipe.process_phv(phv, i);
        }
        assert_eq!(pipe.program().tables()[0].entries()[0].hits, 5);
        pipe.swap_program(new, &[(TableId(0), TableId(0))]);
        assert_eq!(pipe.program().tables()[0].entries()[0].hits, 5, "hits carried");
        // Without a carry pair the counters start fresh.
        let mut pipe2 = Pipeline::new(swap_fixture(None, 1));
        let mut phv = pipe2.program().layout().new_phv();
        phv.set(a, 0);
        pipe2.process_phv(phv, 0);
        pipe2.swap_program(swap_fixture(None, 2), &[]);
        assert_eq!(pipe2.program().tables()[0].entries()[0].hits, 0);
    }
}
