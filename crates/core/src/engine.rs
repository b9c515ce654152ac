//! The streaming inference engine: the canonical way to run traffic
//! through a compiled SpliDT pipeline, plus the backend-agnostic
//! [`Classifier`] contract shared by SpliDT and every baseline.
//!
//! Three layers (paper analogy in parentheses):
//!
//! 1. [`Classifier`] / [`Trainable`] — one train/classify/footprint
//!    contract implemented by [`PartitionedTree`], NetBeacon, Leo,
//!    per-packet and ideal, so benches and tables compare models through a
//!    single loop (the paper's Table 3 / Figure 2 comparisons).
//! 2. [`EngineBuilder`] → [`Engine`] — compile once, then *serve*:
//!    [`Engine::ingest`] / [`Engine::ingest_batch`] push frames at
//!    timestamps and hand back verdict digests, [`Engine::snapshot`]
//!    reads the operational state (the Tofino of the testbed). Scoring
//!    against ground truth is the digest collector's job, outside the
//!    engine: [`Session`](crate::runtime::Session).
//! 3. [`ShardedEngine`] — N independent pipeline shards addressed by
//!    canonical flow hash, fanned out on one scoped thread per shard: the
//!    throughput-scaling knob (one shard ≙ one hardware pipe; Tofino1
//!    has 4).
//!
//! Every digest carries the flow's **canonical register slot** (the same
//! index the data plane's `HashFlow` primitive computes), so a collector
//! attributes verdicts exactly even when initiator addresses repeat
//! across flows.

use crate::compile::{
    compile_with, CompileError, CompileOptions, CompiledIo, CompiledModel, LifecyclePolicy,
    RulesSummary,
};
use crate::error::SplidtError;
use crate::model::PartitionedTree;
use crate::resources::{splidt_footprint, ModelFootprint};
use crate::runtime::{
    canonical_flow_index, shard_of_frame, EngineSnapshot, LifecycleStats, SlotPressure,
    PRESSURE_TOP_K,
};
use crate::stream::DigestTap;
use splidt_dataplane::pipeline::{Digest, Meters, Pipeline, ProcessOutcome, WaveStats};
use splidt_dataplane::program::Program;
use splidt_dataplane::register::owner_lane;
use splidt_dt::metrics::macro_f1;
use splidt_flow::features::catalog;
use splidt_flow::{extract_windows, FlowTrace};

// ---------------------------------------------------------------- verdicts

/// A classification verdict for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Predicted class.
    pub class: u16,
}

impl From<u16> for Verdict {
    fn from(class: u16) -> Self {
        Self { class }
    }
}

// ------------------------------------------------------------- classifiers

/// The backend-agnostic inference contract: every model the paper compares
/// (SpliDT and the four baselines) classifies whole flows and reports a
/// resource footprint through this trait, so evaluation loops are written
/// once against `&dyn Classifier`.
pub trait Classifier {
    /// Short stable name ("splidt", "netbeacon", …) for tables and logs.
    fn name(&self) -> &'static str;

    /// Number of classes the model separates.
    fn n_classes(&self) -> usize;

    /// Classifies one flow in software.
    fn classify_flow(&self, flow: &FlowTrace) -> Verdict;

    /// Per-flow register/TCAM footprint; `None` for models with no
    /// deployable footprint (the resource-unlimited ideal, the stateless
    /// per-packet model).
    fn footprint(&self) -> Option<ModelFootprint>;

    /// Macro-F1 over labelled flows.
    fn evaluate_flows(&self, flows: &[FlowTrace]) -> f64 {
        let truth: Vec<u16> = flows.iter().map(|f| f.label).collect();
        let preds: Vec<u16> = flows.iter().map(|f| self.classify_flow(f).class).collect();
        macro_f1(&truth, &preds, self.n_classes())
    }
}

/// Models trainable from labelled flows through a uniform entry point.
pub trait Trainable: Classifier + Sized {
    /// Hyper-parameters of the model family.
    type Params;

    /// Trains on labelled flows.
    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError>;
}

impl Classifier for PartitionedTree {
    fn name(&self) -> &'static str {
        "splidt"
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn classify_flow(&self, flow: &FlowTrace) -> Verdict {
        let windows = extract_windows(flow, self.n_partitions(), catalog());
        Verdict { class: self.predict(&windows).class }
    }

    fn footprint(&self) -> Option<ModelFootprint> {
        Some(splidt_footprint(self))
    }
}

impl Trainable for PartitionedTree {
    type Params = crate::config::SplidtConfig;

    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError> {
        let wd = splidt_flow::windowed_dataset(flows, params.n_partitions(), n_classes);
        let model = crate::train::train_partitioned(&wd, params, &catalog().hardware_eligible());
        model.validate().map_err(SplidtError::Model)?;
        Ok(model)
    }
}

impl Classifier for crate::baselines::NetBeacon {
    fn name(&self) -> &'static str {
        "netbeacon"
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn classify_flow(&self, flow: &FlowTrace) -> Verdict {
        Verdict { class: self.predict(flow) }
    }

    fn footprint(&self) -> Option<ModelFootprint> {
        Some(crate::baselines::NetBeacon::footprint(self))
    }
}

impl Trainable for crate::baselines::NetBeacon {
    type Params = crate::baselines::NetBeaconParams;

    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError> {
        Ok(Self::train(flows, n_classes, params))
    }
}

impl Classifier for crate::baselines::Leo {
    fn name(&self) -> &'static str {
        "leo"
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn classify_flow(&self, flow: &FlowTrace) -> Verdict {
        Verdict { class: self.predict(flow) }
    }

    fn footprint(&self) -> Option<ModelFootprint> {
        Some(crate::baselines::Leo::footprint(self))
    }
}

impl Trainable for crate::baselines::Leo {
    type Params = crate::baselines::LeoParams;

    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError> {
        Ok(Self::train(flows, n_classes, params))
    }
}

impl Classifier for crate::baselines::PerPacket {
    fn name(&self) -> &'static str {
        "per-packet"
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn classify_flow(&self, flow: &FlowTrace) -> Verdict {
        Verdict { class: self.predict(flow) }
    }

    fn footprint(&self) -> Option<ModelFootprint> {
        None // stateless: no per-flow registers to account
    }
}

impl Trainable for crate::baselines::PerPacket {
    type Params = usize; // tree depth

    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError> {
        Ok(Self::train(flows, n_classes, *params))
    }
}

impl Classifier for crate::baselines::Ideal {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn n_classes(&self) -> usize {
        crate::baselines::Ideal::n_classes(self)
    }

    fn classify_flow(&self, flow: &FlowTrace) -> Verdict {
        Verdict { class: self.predict(flow) }
    }

    fn footprint(&self) -> Option<ModelFootprint> {
        None // resource-unlimited upper bound: deliberately unaccounted
    }
}

impl Trainable for crate::baselines::Ideal {
    type Params = usize; // tree depth

    fn fit(
        flows: &[FlowTrace],
        n_classes: usize,
        params: &Self::Params,
    ) -> Result<Self, SplidtError> {
        Ok(Self::train(flows, n_classes, *params))
    }
}

// ------------------------------------------------------------------ engine

/// Default register depth (64K flow slots).
pub const DEFAULT_FLOW_SLOTS: usize = 1 << 16;

/// Default burst (wave capacity) of the frame hot path: how many packets
/// accumulate before the compiled plan is walked stage-major across the
/// whole wave (see [`Engine::set_burst`]).
pub const DEFAULT_BURST: usize = 32;

/// Builds [`Engine`]s and [`ShardedEngine`]s: configure → compile once →
/// instantiate as many times as needed.
#[derive(Debug, Clone)]
pub struct EngineBuilder<'m> {
    model: &'m PartitionedTree,
    flow_slots: usize,
    idle_timeout_us: u64,
    policy: LifecyclePolicy,
    burst: usize,
}

impl<'m> EngineBuilder<'m> {
    /// Starts a builder for `model` with default slots/timeout/burst and
    /// the flow-agnostic lifecycle policy.
    pub fn new(model: &'m PartitionedTree) -> Self {
        Self {
            model,
            flow_slots: DEFAULT_FLOW_SLOTS,
            idle_timeout_us: crate::compile::DEFAULT_IDLE_TIMEOUT_US,
            policy: LifecyclePolicy::default(),
            burst: DEFAULT_BURST,
        }
    }

    /// Wave capacity of the batch hot path (1 = scalar execution;
    /// default [`DEFAULT_BURST`]). See [`Engine::set_burst`].
    pub fn burst(mut self, burst: usize) -> Self {
        self.burst = burst;
        self
    }

    /// Register depth (must be a power of two).
    pub fn flow_slots(mut self, slots: usize) -> Self {
        self.flow_slots = slots;
        self
    }

    /// Ownership-lane idle timeout (µs): a live flow silent this long
    /// forfeits its slot to the next colliding arrival.
    pub fn idle_timeout_us(mut self, us: u64) -> Self {
        self.idle_timeout_us = us;
        self
    }

    /// Flow-lifecycle policy: TCP-aware admission/release (SYN claims,
    /// FIN/RST in-band release) and per-class pinned eviction. Compiled
    /// into the program's MAT entries.
    pub fn lifecycle_policy(mut self, policy: LifecyclePolicy) -> Self {
        self.policy = policy;
        self
    }

    fn compile_options(&self) -> CompileOptions {
        CompileOptions {
            flow_slots: self.flow_slots,
            idle_timeout_us: self.idle_timeout_us,
            policy: self.policy.clone(),
        }
    }

    /// Compiles the model and instantiates a single-pipeline engine.
    pub fn build(self) -> Result<Engine, SplidtError> {
        let compiled = compile_with(self.model, &self.compile_options())?;
        let mut engine = Engine::from_compiled(self.model.clone(), compiled);
        engine.set_burst(self.burst);
        Ok(engine)
    }

    /// Compiles once and instantiates `n_shards` independent pipelines.
    pub fn build_sharded(self, n_shards: usize) -> Result<ShardedEngine, SplidtError> {
        if n_shards == 0 {
            return Err(SplidtError::Config("ShardedEngine needs ≥ 1 shard".into()));
        }
        let compiled = compile_with(self.model, &self.compile_options())?;
        let shards = (0..n_shards)
            .map(|_| {
                let mut engine = Engine::from_parts(
                    self.model.clone(),
                    compiled.program.clone(),
                    compiled.io.clone(),
                    compiled.summary.clone(),
                );
                engine.set_burst(self.burst);
                engine
            })
            .collect();
        Ok(ShardedEngine { shards, flow_slots: self.flow_slots })
    }
}

/// Summary of one batch pushed through [`Engine::ingest_batch`] (or the
/// sharded equivalent): dispositions tallied per batch instead of
/// returned per packet, digests drained once at the end.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Frames ingested.
    pub packets: u64,
    /// Frames dropped by pipeline actions.
    pub drops: u64,
    /// Frames that hit the resubmission safety stop.
    pub resubmit_limited: u64,
    /// Frames the parser rejected (skipped, not ingested — excluded from
    /// `packets`). Exact by construction, so ingress reconciliation can
    /// balance received frames against pipeline outcomes end-to-end.
    pub malformed: u64,
    /// Digests the batch produced, in drain order — the verdict stream a
    /// collector such as [`Session`](crate::runtime::Session) scores.
    pub digests: Vec<Digest>,
}

impl BatchReport {
    /// Accumulates another batch (shard merge).
    pub fn merge(&mut self, other: BatchReport) {
        self.packets += other.packets;
        self.drops += other.drops;
        self.resubmit_limited += other.resubmit_limited;
        self.malformed += other.malformed;
        self.digests.extend(other.digests);
    }
}

/// A replacement model handed to [`Engine::stage_model`], compiling to a
/// fresh program on its own thread while the live pipeline keeps serving.
struct StagedModel {
    model: PartitionedTree,
    handle: std::thread::JoinHandle<Result<CompiledModel, CompileError>>,
}

/// A streaming engine serving one compiled pipeline.
///
/// Lifecycle: [`EngineBuilder::build`] (compile) → [`Engine::ingest`] /
/// [`Engine::ingest_batch`] (serve; digests come back to the caller) →
/// [`Engine::snapshot`] (observe) → [`Engine::reset`] (reuse the compiled
/// program for a fresh session). No field grows with the traffic served.
pub struct Engine {
    model: PartitionedTree,
    io: CompiledIo,
    summary: RulesSummary,
    pipeline: Pipeline,
    /// Decided ownership lanes the controller released on digest drain
    /// (compare-and-release: only when the lane still carries the
    /// digest's fingerprint).
    released_decided: u64,
    /// Pinned lanes released by explicit operator action
    /// ([`Engine::release_pinned`]).
    released_pinned: u64,
    /// A replacement model compiling off-thread, not yet swapped in.
    staged: Option<StagedModel>,
    /// Online trainer mirror: every drained digest is offered to it.
    tap: Option<DigestTap>,
    /// Completed live model swaps this session.
    swaps: u64,
    /// Staging generation: total models ever staged (swapped or not).
    generation: u64,
}

impl Engine {
    /// Wraps an already-compiled model (the compile-once path).
    pub fn from_compiled(model: PartitionedTree, compiled: CompiledModel) -> Self {
        Self::from_parts(model, compiled.program, compiled.io, compiled.summary)
    }

    fn from_parts(
        model: PartitionedTree,
        program: Program,
        io: CompiledIo,
        summary: RulesSummary,
    ) -> Self {
        Self {
            model,
            io,
            summary,
            pipeline: Pipeline::new(program),
            released_decided: 0,
            released_pinned: 0,
            staged: None,
            tap: None,
            swaps: 0,
            generation: 0,
        }
    }

    /// The model this engine executes.
    pub fn model(&self) -> &PartitionedTree {
        &self.model
    }

    /// Compiled-program IO handles (digest layout, standard fields).
    pub fn io(&self) -> &CompiledIo {
        &self.io
    }

    /// Rule accounting of the compiled program.
    pub fn summary(&self) -> &RulesSummary {
        &self.summary
    }

    /// Live pipeline meters.
    pub fn meters(&self) -> &Meters {
        self.pipeline.meters()
    }

    /// The executing program (tables, registers, hit statistics).
    pub fn program(&self) -> &Program {
        self.pipeline.program()
    }

    /// Live register file — the controller-style read view (ownership
    /// lanes, counters, feature slots). Flow-indexed registers live in a
    /// cache-line-coalesced bank; read them by `(register, slot)`.
    pub fn pipeline_registers(&self) -> &splidt_dataplane::register::RegisterFile {
        self.pipeline.registers()
    }

    /// Register depth of the compiled program.
    pub fn flow_slots(&self) -> usize {
        self.io.flow_slots
    }

    /// Pushes one frame through the pipeline at `ts_us` as a singleton
    /// wave and returns its outcome. No public call returns with a wave
    /// open, so the frame runs after every frame fed before it. Malformed
    /// frames are recoverable errors, not panics. Allocates the returned
    /// PHV; throughput loops use [`Engine::ingest_batch`].
    pub fn ingest(&mut self, frame: &[u8], ts_us: u64) -> Result<ProcessOutcome, SplidtError> {
        let fields = self.io.fields;
        Ok(self.pipeline.process_packet(frame, ts_us, &fields)?)
    }

    /// Reconfigures the wave capacity of the batch hot path: up to
    /// `burst` packets accumulate in the pipeline's preallocated arena
    /// and execute **stage-major** (the compiled plan walked once per
    /// wave) instead of packet-major; `burst == 1` is scalar execution.
    ///
    /// Safe at any burst for compiled SpliDT programs: every
    /// packet-dependent register index the compiler emits derives from
    /// `HashFlow { salt: 0 }` over the canonical flow slot, and the
    /// conflict domain passed to the pipeline is exactly `flow_slots` —
    /// so two packets share a wave only when their register state is
    /// fully disjoint, and same-slot packets serialize in arrival order
    /// (see `Pipeline::set_burst` for the full contract).
    pub fn set_burst(&mut self, burst: usize) {
        self.pipeline.set_burst(burst, self.io.flow_slots);
    }

    /// The configured wave capacity (1 = scalar).
    pub fn burst(&self) -> usize {
        self.pipeline.burst()
    }

    /// Pushes a whole batch of `(frame, ts_us)` pairs through the
    /// pipeline's allocation-free **burst** path (see
    /// [`Engine::set_burst`]): frames accumulate into waves of up to the
    /// configured burst and execute stage-major, dispositions are
    /// tallied instead of returned one-by-one, and digests are drained
    /// **once per batch** rather than per packet and returned in the
    /// report. Malformed frames are skipped and counted
    /// ([`BatchReport::malformed`]) — an untrusted wire source must not
    /// be able to abort a batch mid-way. The wave is always flushed
    /// before returning (which is why no public call returns with a wave
    /// open), so session state (meters, registers, lifecycle) is final
    /// when the report lands — observationally identical to scalar
    /// per-frame ingest at any burst.
    pub fn ingest_batch<'a, I>(&mut self, frames: I) -> Result<BatchReport, SplidtError>
    where
        I: IntoIterator<Item = (&'a [u8], u64)>,
    {
        let fields = self.io.fields;
        let mut stats = WaveStats::default();
        let mut malformed = 0u64;
        for (frame, ts_us) in frames {
            if self.pipeline.wave_push(frame, ts_us, &fields, &mut stats).is_err() {
                malformed += 1;
            }
        }
        self.pipeline.wave_flush(&fields, &mut stats);
        Ok(BatchReport {
            packets: stats.packets,
            drops: stats.drops,
            resubmit_limited: stats.resubmit_limited,
            malformed,
            digests: self.drain_digests(),
        })
    }

    /// Drains digests off the pipeline and returns them to the caller;
    /// the engine keeps no record of them. The drain loop reads the
    /// pipeline's flat digest ring by reference, offering each digest to
    /// the attached tap; only the returned owned records allocate (once
    /// per batch, never per packet).
    ///
    /// A **flow-end** verdict digest also releases the flow's slot: if
    /// the ownership lane is still decided and still carries the digest's
    /// fingerprint, the controller frees it (counted in
    /// [`LifecycleStats::evictions_decided`]). Early-exit digests leave
    /// the lane decided — the flow's trailing packets must stay inert —
    /// so those slots are recycled in-band (decided lanes are claimable
    /// on sight) rather than by the controller. A lane already recycled
    /// by a newer flow fails the fingerprint compare and is left alone.
    pub fn drain_digests(&mut self) -> Vec<Digest> {
        let owner_reg = self.io.owner_reg.index();
        for i in 0..self.pipeline.digests().len() {
            let (slot, class, fp, ended) = {
                let v = self.pipeline.digests().values(i);
                (
                    v[self.io.digest_flow_idx],
                    v[self.io.digest_class] as u16,
                    v[self.io.digest_fp],
                    v[self.io.digest_final] == 1,
                )
            };
            if let Some(tap) = &mut self.tap {
                tap.observe_fp(fp);
            }
            // Pinned classes are exempt from the automatic flow-end
            // release: their lanes persist until the pinned timeout or an
            // explicit `release_pinned` (the operator's call, not the
            // drain loop's).
            if ended && !self.io.policy.pinned_classes.contains(&class) {
                let regs = self.pipeline.registers_mut();
                let cell = regs.read(owner_reg, slot as usize);
                if owner_lane::decided(cell) && owner_lane::fp(cell) == fp {
                    regs.write(owner_reg, slot as usize, owner_lane::FREE);
                    self.released_decided += 1;
                }
            }
        }
        self.pipeline.take_digests()
    }

    // ------------------------------------------------------ live swap

    /// Stages a replacement model: validates it, then launches its
    /// compilation **off-thread** against this engine's exact compile
    /// options (flow slots, idle timeout, lifecycle policy) so the new
    /// program lands in the same resource envelope. The live pipeline is
    /// untouched; [`Engine::swap_staged`] performs the flip. Staging
    /// again before swapping discards the previous staged model.
    pub fn stage_model(&mut self, model: PartitionedTree) -> Result<(), SplidtError> {
        model.validate().map_err(SplidtError::Model)?;
        let opts = CompileOptions {
            flow_slots: self.io.flow_slots,
            idle_timeout_us: self.io.idle_timeout_us,
            policy: self.io.policy.clone(),
        };
        self.discard_staged();
        let input = model.clone();
        let handle = std::thread::spawn(move || compile_with(&input, &opts));
        self.staged = Some(StagedModel { model, handle });
        self.generation += 1;
        Ok(())
    }

    /// Atomically swaps the staged model in (pForest-style): joins the
    /// off-thread compile, then flips the pipeline to the new program
    /// **preserving live flow state** — ownership lanes, pressure
    /// counters, feature slots and lifecycle MAT hit counters all carry
    /// over, pending digests and meters survive, and the controller's
    /// lane-release counters are untouched. Only the table contents (the
    /// model rules) change. In-flight flows keep their slots and finish
    /// under the new model; per-window scratch state washes out at the
    /// next window boundary.
    ///
    /// Errors if nothing is staged or the staged compile failed; the
    /// live pipeline is left untouched in both cases.
    pub fn swap_staged(&mut self) -> Result<(), SplidtError> {
        let staged = self
            .staged
            .take()
            .ok_or_else(|| SplidtError::Config("no staged model to swap".into()))?;
        let compiled = staged
            .handle
            .join()
            .map_err(|_| SplidtError::Config("staged model compile thread panicked".into()))??;
        // No public call returns with a wave open, so no packet straddles
        // two programs; `swap_program` asserts it.
        let carry = [(self.io.lifecycle_table, compiled.io.lifecycle_table)];
        self.pipeline.swap_program(compiled.program, &carry);
        self.model = staged.model;
        self.io = compiled.io;
        self.summary = compiled.summary;
        self.swaps += 1;
        Ok(())
    }

    /// Drops any staged-but-unswapped model, joining its compile thread.
    fn discard_staged(&mut self) {
        if let Some(staged) = self.staged.take() {
            let _ = staged.handle.join();
        }
    }

    /// Whether a staged model is waiting for [`Engine::swap_staged`].
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// Completed live model swaps this session.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// Staging generation: how many models have ever been staged.
    pub fn staged_generation(&self) -> u64 {
        self.generation
    }

    /// Attaches an online-training digest tap: from now on every drained
    /// digest is mirrored into it (see [`DigestTap`]).
    pub fn attach_tap(&mut self, tap: DigestTap) {
        self.tap = Some(tap);
    }

    /// The attached digest tap, if any.
    pub fn tap(&self) -> Option<&DigestTap> {
        self.tap.as_ref()
    }

    /// Mutable access to the attached tap — register fixture flows,
    /// train, or reset observations at a drift alarm.
    pub fn tap_mut(&mut self) -> Option<&mut DigestTap> {
        self.tap.as_mut()
    }

    /// Explicit operator release of a **pinned** lane: frees the slot if
    /// it currently holds a decided, pinned owner, returning `true` when
    /// a lane was actually released (counted in
    /// [`LifecycleStats::evictions_pinned`]). Out-of-range slots return
    /// `false` (they are never wrapped onto another slot's lane).
    pub fn release_pinned(&mut self, slot: usize) -> bool {
        if slot >= self.io.flow_slots {
            return false;
        }
        let owner_reg = self.io.owner_reg.index();
        let regs = self.pipeline.registers_mut();
        let cell = regs.read(owner_reg, slot);
        if owner_lane::decided(cell) && owner_lane::pinned(cell) {
            regs.write(owner_reg, slot, owner_lane::FREE);
            self.released_pinned += 1;
            true
        } else {
            false
        }
    }

    /// Per-slot contention telemetry: scans the compiled pressure
    /// register (suppressed packets per slot — live collisions,
    /// unsolicited refusals, pinned defenses) into totals, the K hottest
    /// slots and a histogram. Operators size `flow_slots` from this.
    pub fn slot_pressure(&self) -> SlotPressure {
        let regs = self.pipeline.registers();
        let pressure_reg = self.io.pressure_reg.index();
        let mut out = SlotPressure::default();
        let mut hot: Vec<(usize, u64)> = Vec::new();
        for slot in 0..self.io.flow_slots {
            let p = regs.read(pressure_reg, slot);
            out.total += p;
            out.histogram[SlotPressure::bucket(p)] += 1;
            if p > 0 {
                hot.push((slot, p));
            }
        }
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(PRESSURE_TOP_K);
        out.hot_slots = hot;
        out
    }

    /// The session's flow-state lifecycle counters: data-plane lifecycle
    /// MAT hits + controller lane releases + a live scan of the ownership
    /// lanes. The counters reconcile exactly
    /// ([`LifecycleStats::reconciles`]).
    pub fn lifecycle(&self) -> LifecycleStats {
        let t = self.pipeline.program().table(self.io.lifecycle_table);
        let e = self.io.lifecycle_entries;
        let hits = |i: usize| t.entries()[i].hits;
        let (mut active, mut decided_pending, mut pinned_pending) = (0u64, 0u64, 0u64);
        let regs = self.pipeline.registers();
        let owner_reg = self.io.owner_reg.index();
        for i in 0..self.io.flow_slots {
            let cell = regs.read(owner_reg, i);
            if owner_lane::fp(cell) != 0 {
                if owner_lane::decided(cell) {
                    decided_pending += 1;
                    pinned_pending += u64::from(owner_lane::pinned(cell));
                } else {
                    active += 1;
                }
            }
        }
        let takeovers = hits(e.takeover_idle) + hits(e.takeover_decided) + hits(e.takeover_pinned);
        LifecycleStats {
            admitted: hits(e.admit_free) + takeovers,
            active_flows: active,
            decided_pending,
            pinned_pending,
            evictions_idle: hits(e.takeover_idle),
            evictions_decided: hits(e.takeover_decided) + self.released_decided,
            evictions_pinned: hits(e.takeover_pinned) + self.released_pinned,
            released_fin: hits(e.released_fin),
            takeovers,
            live_collisions: hits(e.live_collision),
            unsolicited: hits(e.unsolicited),
            pinned_defended: hits(e.pinned_defended),
            post_verdict_pkts: hits(e.post_verdict),
        }
    }

    /// Installs a rule into a table of the running pipeline (the
    /// controller-style runtime update). The pipeline invalidates and
    /// rebuilds its compiled execution plan — match indexes included —
    /// so the next ingested packet sees the rule.
    pub fn install_entry(
        &mut self,
        table: splidt_dataplane::table::TableId,
        key: splidt_dataplane::table::EntryKey,
        action: splidt_dataplane::Action,
    ) -> Result<(), SplidtError> {
        self.pipeline
            .install_entry(table, key, action)
            .map_err(|e| SplidtError::Compile(crate::compile::CompileError::Program(e.into())))
    }

    /// The engine's operational state: meters, lifecycle, slot pressure
    /// and the live-swap counters.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            meters: self.pipeline.meters().clone(),
            lifecycle: self.lifecycle(),
            slot_pressure: self.slot_pressure(),
            swaps: self.swaps,
            staged_generation: self.generation,
        }
    }

    /// Clears session state in place (registers — ownership lanes
    /// included — digests, meters, table stats and with them every
    /// lifecycle counter), keeping the (expensive) compilation. A
    /// previously-decided flow re-admits cleanly after a reset. Also discards any staged-but-unswapped model and wipes the
    /// attached tap (observations *and* registrations) — a reset engine
    /// must behave bit-for-bit like a fresh one.
    pub fn reset(&mut self) {
        self.pipeline.reset_state();
        self.released_decided = 0;
        self.released_pinned = 0;
        self.discard_staged();
        if let Some(tap) = &mut self.tap {
            tap.reset();
        }
        self.swaps = 0;
        self.generation = 0;
    }
}

// ---------------------------------------------------------------- sharding

/// Runs `f(w, &mut items[w])` for every item on its own scoped thread and
/// returns the results in item order. Every thread is joined before the
/// first error is returned, and a thread that panicked comes back as
/// `SplidtError::Config("shard {w} panicked")` — an error, never a hang.
fn fan_out<T, R, F>(items: &mut [T], f: F) -> Result<Vec<R>, SplidtError>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> Result<R, SplidtError> + Sync,
{
    let f = &f;
    let joined: Vec<Result<R, SplidtError>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            items.iter_mut().enumerate().map(|(w, item)| s.spawn(move || f(w, item))).collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(w, h)| {
                h.join().unwrap_or_else(|_| Err(SplidtError::Config(format!("shard {w} panicked"))))
            })
            .collect()
    });
    joined.into_iter().collect()
}

/// N independent pipeline shards addressed by canonical flow hash and
/// fanned out on one scoped thread per shard — the throughput-scaling
/// knob. Flows never share registers across shards (each shard owns a
/// full register file), so per-flow verdicts are identical to a
/// single-shard engine.
pub struct ShardedEngine {
    shards: Vec<Engine>,
    flow_slots: usize,
}

impl ShardedEngine {
    /// Shard count.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a flow hashes to: canonical register slot modulo N, so
    /// assignment agrees with the data plane's `HashFlow` and is stable
    /// across runs.
    pub fn shard_of(&self, flow: &FlowTrace) -> usize {
        canonical_flow_index(flow, self.flow_slots) % self.shards.len()
    }

    /// Per-shard live meters.
    pub fn shard_meters(&self) -> Vec<&Meters> {
        self.shards.iter().map(|s| s.meters()).collect()
    }

    /// Register depth each shard was compiled with (the canonical flow
    /// hash domain — frame steering is `flow_index % flow_slots % n`).
    pub fn flow_slots(&self) -> usize {
        self.flow_slots
    }

    /// The per-shard engines, in shard order (read view).
    pub fn engines(&self) -> &[Engine] {
        &self.shards
    }

    /// Mutable access to the per-shard engines — the hook external
    /// drivers (the network ingress service) use to run one consumer per
    /// shard without funneling every frame through a central batch call.
    pub fn engines_mut(&mut self) -> &mut [Engine] {
        &mut self.shards
    }

    /// The shard a raw frame hashes to, read straight off the wire bytes
    /// by [`runtime::shard_of_frame`](crate::runtime::shard_of_frame) —
    /// the steering `run_ingress` uses too — so batch dispatch agrees
    /// with [`ShardedEngine::shard_of`].
    pub fn shard_of_frame(&self, frame: &[u8]) -> Result<usize, SplidtError> {
        Ok(shard_of_frame(frame, self.flow_slots, self.shards.len())?)
    }

    /// Batch ingest across shards: frames are bucketed by canonical flow
    /// hash (agreeing with the single-shard engine flow-for-flow), each
    /// shard's [`Engine::ingest_batch`] runs over its bucket on its own
    /// scoped thread, borrowing the caller's frames (no copy), and the
    /// per-shard [`BatchReport`]s are merged in shard order. Digests are
    /// drained once per shard per batch — not once per packet — and each
    /// shard runs the burst-mode wave executor. A panicking shard `w`
    /// surfaces as `Err(SplidtError::Config("shard {w} panicked"))`.
    ///
    /// Frames the steering peek rejects are counted into the merged
    /// report's `malformed` **at dispatch** and never reach a shard — the
    /// shard-side parser therefore rejects nothing, which the merge
    /// asserts.
    ///
    /// Frames are **borrowed** (`F: AsRef<[u8]>`), so callers batch
    /// `&[u8]` slices, `Vec<u8>`s or `Bytes` alike without allocating an
    /// owned frame per packet just to build the batch.
    pub fn ingest_batch<F: AsRef<[u8]> + Sync>(
        &mut self,
        frames: &[(F, u64)],
    ) -> Result<BatchReport, SplidtError> {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut merged = BatchReport::default();
        for (i, (frame, _)) in frames.iter().enumerate() {
            match shard_of_frame(frame.as_ref(), self.flow_slots, n) {
                Ok(shard) => buckets[shard].push(i),
                // The steering peek walks the same headers as the shard
                // parser, so a reject here is exactly a parse reject.
                Err(_) => merged.malformed += 1,
            }
        }
        let reports = fan_out(&mut self.shards, |w, shard| {
            shard.ingest_batch(buckets[w].iter().map(|&i| (frames[i].0.as_ref(), frames[i].1)))
        })?;
        for (w, report) in reports.into_iter().enumerate() {
            debug_assert_eq!(
                report.malformed, 0,
                "dispatcher pre-filters malformed frames; shard {w} re-rejected some"
            );
            merged.merge(report);
        }
        Ok(merged)
    }

    /// Explicit operator release of a pinned lane on one shard (see
    /// [`Engine::release_pinned`]; slot ids reported by per-shard
    /// telemetry are shard-local, so the operator addresses the pair).
    pub fn release_pinned(&mut self, shard: usize, slot: usize) -> bool {
        self.shards.get_mut(shard).is_some_and(|s| s.release_pinned(slot))
    }

    /// Every shard's [`Engine::snapshot`], merged: meters, lifecycle and
    /// pressure summed (pressure slot ids are shard-local), swaps summed,
    /// staging generation the maximum.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot::merged(&self.shards)
    }

    /// Resets every shard (keeps compiled programs).
    pub fn reset(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard that panics mid-fan-out is a typed error naming it: the
    /// call returns (no hang) after its siblings ran to completion.
    #[test]
    fn panicking_shard_is_a_typed_error() {
        let mut counters = [0u64; 3];
        let out = fan_out(&mut counters, |w, c| {
            if w == 1 {
                panic!("injected shard failure");
            }
            for _ in 0..10_000 {
                *c += 1;
            }
            Ok(w)
        });
        match out {
            Err(SplidtError::Config(m)) => assert!(m.contains("shard 1"), "{m}"),
            other => panic!("expected a Config error naming shard 1, got {other:?}"),
        }
        assert_eq!(counters, [10_000, 0, 10_000], "shards 0 and 2 run to completion");
    }
}
