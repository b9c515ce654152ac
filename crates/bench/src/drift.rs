//! The drift measurement harness: online retraining + atomic live model
//! swap under churn — the full control loop the `drift_smoke` CI binary
//! gates.
//!
//! Storyline (one deterministic schedule, four phases):
//!
//! 1. **Pre-drift.** A batch-trained model classifies the first half of
//!    a 4096-flow churn schedule; accuracy is the healthy reference.
//!    The engine's [`DigestTap`] mirrors every drained digest into a
//!    streaming trainer the whole time.
//! 2. **Drift.** At flow [`DRIFT_AT`] the schedule rotates class
//!    behaviour ([`DriftProfile`]): flows keep their labels but act like
//!    the next class. Accuracy under the stale model collapses. The
//!    drift alarm resets the tap's observations so retraining sees
//!    post-drift traffic only.
//! 3. **Retrain + stage.** After [`DRIFT_STAGE_AT`] flows the tap's
//!    streaming trainer ([`StreamingTrainer`], SPDT-style histograms)
//!    grows a replacement model; `Engine::stage_model` compiles it
//!    off-thread while live churn keeps flowing.
//! 4. **Swap + recover.** `Engine::swap_staged` flips the pipeline
//!    atomically — ownership lanes, feature slots, lifecycle counters
//!    and pending digests all carry over (asserted exactly) — and the
//!    remaining schedule measures recovered accuracy.
//!
//! Gates: recovered accuracy above [`DRIFT_RECOVERY_FLOOR`] and strictly
//! above the degraded phase; zero flow state lost across the swap
//! instant; lifecycle reconciliation at the end; zero steady-state
//! allocations per packet across a pipeline-level run that swaps
//! programs mid-stream.

use crate::alloc_count::allocation_count;
use crate::churn::drive_batches;
use splidt_core::engine::{Engine, EngineBuilder, DEFAULT_BURST};
use splidt_core::runtime::canonical_flow_fp;
use splidt_core::stream::{DigestTap, StreamingTrainer, StreamingTrainerParams};
use splidt_core::{train_partitioned, PartitionedTree, SplidtConfig};
use splidt_dataplane::pipeline::Pipeline;
use splidt_flow::{
    catalog, churn, generate, select_flows, stratified_split, windowed_dataset, ChurnConfig,
    ChurnSchedule, DatasetId, DriftProfile,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Instant;

/// Register depth of the drift fixture (same pressure as the churn rig).
pub const DRIFT_SLOTS: usize = 256;
/// Distinct flows in the schedule.
pub const DRIFT_FLOWS: usize = 4096;
/// Flow index where class behaviour rotates.
pub const DRIFT_AT: usize = 2048;
/// Flow index where retraining snapshots the tap and staging begins.
pub const DRIFT_STAGE_AT: usize = 3072;
/// Flow index where the staged model is swapped in.
pub const DRIFT_SWAP_AT: usize = 3328;
/// Ownership-lane idle timeout of the fixture (µs).
pub const DRIFT_IDLE_TIMEOUT_US: u64 = 100_000;
/// Dataset seed of the drift fixture.
pub const DRIFT_SEED: u64 = 13;
/// Acceptance floor on post-swap accuracy over the drifted distribution.
/// Calibrated against the fixture's own pre-drift reference (~0.50 —
/// quantized data-plane inference, not software accuracy): the stale
/// model degrades to ~0.15 after the rotation, the stream-retrained one
/// recovers to ~0.43. The run is deterministic, so the floor only needs
/// cross-platform float margin.
pub const DRIFT_RECOVERY_FLOOR: f64 = 0.35;
/// The schedule performs exactly one live swap.
pub const DRIFT_EXPECTED_SWAPS: u64 = 1;

/// One drift measurement, serialized to `BENCH_drift.json`.
///
/// Deliberately has **no** `flow_slots` / `classified_flows` keys — the
/// shared `bench_diff.sh` gates key on those to recognize churn/ingress
/// results; drift gates key on `expected_swaps`.
#[derive(Debug, Clone)]
pub struct DriftStats {
    /// Packets pushed during the measured phases.
    pub packets: u64,
    /// Wall-clock seconds spent pushing packets (training, compile and
    /// swap excluded — those overlap or are control-plane).
    pub elapsed_s: f64,
    /// Packets per second across the measured phases.
    pub pps: f64,
    /// Verdict accuracy before the drift.
    pub pre_acc: f64,
    /// Verdict accuracy after the drift, stale model still live.
    pub degraded_acc: f64,
    /// Verdict accuracy after the live swap.
    pub recovered_acc: f64,
    /// Verdicts scored per phase.
    pub pre_verdicts: u64,
    /// Verdicts scored in the degraded window.
    pub degraded_verdicts: u64,
    /// Verdicts scored after the swap.
    pub recovered_verdicts: u64,
    /// Distinct flows the tap fed to the trainer post-drift.
    pub tap_fed: u64,
    /// Completed live swaps (must equal [`DRIFT_EXPECTED_SWAPS`]).
    pub swaps: u64,
    /// Models staged during the run.
    pub staged_generation: u64,
    /// Whether lifecycle counters, slot pressure and meters were
    /// bit-identical across the swap instant (zero lost flow state).
    pub lifecycle_carried: bool,
    /// Whether lifecycle counters reconciled at the end of the run.
    pub reconciled: bool,
    /// Heap allocations per packet over the pipeline-level drift loop
    /// (program swap mid-stream, swap itself excluded): must be zero.
    pub drift_allocs_per_packet: f64,
}

/// Trains the pre-drift model (the churn fixture's shape) and builds the
/// drifting churn schedule.
pub fn fixture() -> (PartitionedTree, ChurnSchedule) {
    let train = generate(DatasetId::D2, 220, 7);
    let (tr, _) = stratified_split(&train, 0.6, 2);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&select_flows(&train, &tr), 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());

    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: DRIFT_FLOWS,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            drift_at: Some(DRIFT_AT),
            drift_profile: DriftProfile::default(),
            seed: DRIFT_SEED,
            ..Default::default()
        },
    );
    (model, schedule)
}

/// A fresh compiled engine for the drift fixture (256 slots, short idle
/// timeout, permissive lifecycle policy — the drift rig stresses model
/// replacement, not admission).
pub fn engine_for(model: &PartitionedTree) -> Engine {
    EngineBuilder::new(model)
        .flow_slots(DRIFT_SLOTS)
        .idle_timeout_us(DRIFT_IDLE_TIMEOUT_US)
        .build()
        .expect("compiles")
}

/// Pre-serialized `(frame, ts_us)` pairs of the schedule slice covering
/// flows `lo..hi`, in timeline order.
pub fn phase_frames(schedule: &ChurnSchedule, lo: usize, hi: usize) -> Vec<(Vec<u8>, u64)> {
    schedule
        .events()
        .into_iter()
        .filter(|&(_, i, _)| lo <= i && i < hi)
        .map(|(ts, i, j)| (Engine::frame_for(&schedule.flows[i], j), ts))
        .collect()
}

/// Pushes one phase through the engine's batch path and scores its
/// verdict digests against the fingerprint → label map. Returns
/// `(hits, verdicts, packets, seconds)`.
fn ingest_scored(
    engine: &mut Engine,
    frames: &[(Vec<u8>, u64)],
    labels: &HashMap<u64, u16>,
) -> (u64, u64, u64, f64) {
    let io = engine.io().clone();
    let start = Instant::now();
    let report =
        engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");
    let elapsed = start.elapsed().as_secs_f64();
    let (mut hits, mut total) = (0u64, 0u64);
    for d in &report.digests {
        if let Some(&label) = labels.get(&d.values[io.digest_fp]) {
            total += 1;
            hits += u64::from(d.values[io.digest_class] as u16 == label);
        }
    }
    (hits, total, report.packets, elapsed)
}

fn acc(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Runs the full drift → retrain → swap → recover loop once and fills
/// everything in [`DriftStats`] except the allocation probe. Also
/// returns the retrained model so the probe can reuse its program.
pub fn run_drift(
    model: &PartitionedTree,
    schedule: &ChurnSchedule,
) -> (DriftStats, PartitionedTree) {
    let mut engine = engine_for(model);
    let trainer = StreamingTrainer::new(
        model.config.clone(),
        model.n_classes,
        &StreamingTrainerParams::default(),
    );
    let mut tap = DigestTap::new(trainer);
    for f in &schedule.flows {
        tap.register_flow(f);
    }
    engine.attach_tap(tap);

    let labels: HashMap<u64, u16> =
        schedule.flows.iter().map(|f| (canonical_flow_fp(f), f.label)).collect();

    let pre = phase_frames(schedule, 0, DRIFT_AT);
    let degraded = phase_frames(schedule, DRIFT_AT, DRIFT_STAGE_AT);
    let staging = phase_frames(schedule, DRIFT_STAGE_AT, DRIFT_SWAP_AT);
    let recovery = phase_frames(schedule, DRIFT_SWAP_AT, DRIFT_FLOWS);

    // Phase 1: healthy reference under the batch-trained model.
    let (pre_hits, pre_total, p1, t1) = ingest_scored(&mut engine, &pre, &labels);

    // Drift alarm: retraining must see post-drift traffic only.
    engine.tap_mut().expect("tap attached").reset_observations();

    // Phase 2: stale model over drifted traffic; the tap accumulates.
    let (deg_hits, deg_total, p2, t2) = ingest_scored(&mut engine, &degraded, &labels);

    // Phase 3: retrain from the tap, stage (compiles off-thread), and
    // keep serving live churn while the compile runs.
    let tap_fed = engine.tap().expect("tap attached").stats().fed;
    let retrained = engine.tap_mut().expect("tap attached").train().expect("stream retrain");
    engine.stage_model(retrained.clone()).expect("stages");
    let (stg_hits, stg_total, p3, t3) = ingest_scored(&mut engine, &staging, &labels);

    // Phase 4: the atomic flip. Lifecycle counters, slot pressure and
    // meters must be bit-identical across the instant — flow state is
    // carried, not rebuilt.
    let lc_before = engine.lifecycle();
    let pressure_before = engine.slot_pressure().total;
    let packets_before = engine.meters().packets;
    engine.swap_staged().expect("swaps");
    let lifecycle_carried = engine.lifecycle() == lc_before
        && engine.slot_pressure().total == pressure_before
        && engine.meters().packets == packets_before;

    let (rec_hits, rec_total, p4, t4) = ingest_scored(&mut engine, &recovery, &labels);

    let packets = p1 + p2 + p3 + p4;
    let elapsed_s = t1 + t2 + t3 + t4;
    let stats = DriftStats {
        packets,
        elapsed_s,
        pps: packets as f64 / elapsed_s,
        pre_acc: acc(pre_hits, pre_total),
        degraded_acc: acc(deg_hits + stg_hits, deg_total + stg_total),
        recovered_acc: acc(rec_hits, rec_total),
        pre_verdicts: pre_total,
        degraded_verdicts: deg_total + stg_total,
        recovered_verdicts: rec_total,
        tap_fed,
        swaps: engine.swaps(),
        staged_generation: engine.staged_generation(),
        lifecycle_carried,
        reconciled: engine.lifecycle().reconciles(),
        drift_allocs_per_packet: 0.0,
    };
    (stats, retrained)
}

/// The strict zero-allocation probe: drives the pre-drift slice through
/// the production wave path ([`DEFAULT_BURST`], the program's own
/// `flow_slots` as conflict domain; digests cleared per 1024-packet
/// batch), swaps the program to the retrained model **mid-stream** (the
/// swap itself is control-plane and excluded from the count), then drives
/// the post-drift slice. After a warm-up round over both programs, the
/// measured packet loop must allocate **zero** times — the first packets
/// through the arena the swap rebuilt included.
pub fn probe_drift_allocs(
    model: &PartitionedTree,
    retrained: &PartitionedTree,
    pre: &[(Vec<u8>, u64)],
    post: &[(Vec<u8>, u64)],
) -> (u64, u64) {
    let e1 = engine_for(model);
    let e2 = engine_for(retrained);
    let fields = e1.io().fields;
    let mut pipe = Pipeline::new(e1.program().clone());
    pipe.set_burst(DEFAULT_BURST, e1.flow_slots());

    // Warm-up: a full round under each program grows the pipeline-owned
    // scratch (keys, digest ring) to steady state.
    drive_batches(&mut pipe, &fields, pre);
    pipe.swap_program(e2.program().clone(), &[]);
    drive_batches(&mut pipe, &fields, post);
    pipe.swap_program(e1.program().clone(), &[]);
    pipe.reset_state();

    let before = allocation_count();
    drive_batches(&mut pipe, &fields, pre);
    let mut allocs = allocation_count() - before;
    pipe.swap_program(e2.program().clone(), &[]);
    let before = allocation_count();
    drive_batches(&mut pipe, &fields, post);
    allocs += allocation_count() - before;
    (allocs, (pre.len() + post.len()) as u64)
}

/// Writes stats as the flat JSON the CI artifact and `bench_diff.sh`
/// consume. No `flow_slots` key — see [`DriftStats`].
pub fn write_json(path: &str, s: &DriftStats) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\n  \"bench\": \"drift\",\n  \"packets\": {},\n  \"elapsed_s\": {:.6},\n  \
         \"pps\": {:.1},\n  \"pre_acc\": {:.4},\n  \"degraded_acc\": {:.4},\n  \
         \"recovered_acc\": {:.4},\n  \"pre_verdicts\": {},\n  \"degraded_verdicts\": {},\n  \
         \"recovered_verdicts\": {},\n  \"tap_fed\": {},\n  \"swaps\": {},\n  \
         \"expected_swaps\": {},\n  \"staged_generation\": {},\n  \"lifecycle_carried\": {},\n  \
         \"reconciled\": {},\n  \"drift_allocs_per_packet\": {:.6}\n}}",
        s.packets,
        s.elapsed_s,
        s.pps,
        s.pre_acc,
        s.degraded_acc,
        s.recovered_acc,
        s.pre_verdicts,
        s.degraded_verdicts,
        s.recovered_verdicts,
        s.tap_fed,
        s.swaps,
        DRIFT_EXPECTED_SWAPS,
        s.staged_generation,
        u64::from(s.lifecycle_carried),
        u64::from(s.reconciled),
        s.drift_allocs_per_packet,
    )
}
