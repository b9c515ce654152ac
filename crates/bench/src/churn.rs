//! The churn measurement harness: a bounded-slot engine driven by a flow
//! population many times larger than its register file — the flow-state
//! lifecycle's acceptance workload, shared by the `churn_smoke` CI binary
//! and local pre-push checks via `scripts/bench_diff.sh`.
//!
//! Three measurements matter:
//!
//! 1. **Distinct flows classified.** With `flow_slots` = [`CHURN_SLOTS`]
//!    (256) and [`CHURN_FLOWS`] (4096) distinct flows in the schedule,
//!    the engine must produce verdict digests for at least
//!    8 × `flow_slots` distinct flows in one run — slots are recycled
//!    (FIN/RST in-band release, verdict release, idle eviction, in-band
//!    takeover), never leaked. The fixture runs the TCP-aware policy:
//!    [`CHURN_SYN_OPEN_FRAC`] of flows open with SYN (the rest are
//!    mid-capture tails that must be refused as `unsolicited`),
//!    [`CHURN_RST_CLOSE_FRAC`] close abortively with RST, and verdicts
//!    of [`CHURN_PINNED_CLASS`] pin their lanes.
//! 2. **Lifecycle counter reconciliation.** `admitted == active +
//!    decided_pending + evictions_idle + evictions_decided +
//!    evictions_pinned + released_fin`, exactly — plus nonzero
//!    `unsolicited`, `released_fin`, a pinned-class trace, and populated
//!    slot-pressure telemetry.
//! 3. **Steady-state allocations and throughput.** The pipeline-level
//!    churn loop (claims, takeovers, suppressed collisions, decide
//!    passes included) must perform **zero** heap allocations per packet
//!    under the counting allocator, and packets/sec is gated against
//!    `bench/churn_baseline.json` like the hot-path smoke.
//!
//! Everything is deterministic: fixed dataset seed, fixed churn schedule,
//! fixed frame serialization.

use crate::alloc_count::allocation_count;
use splidt_core::engine::{Engine, EngineBuilder, DEFAULT_BURST};
use splidt_core::runtime::{LifecycleStats, PRESSURE_HIST_BUCKETS};
use splidt_core::{train_partitioned, LifecyclePolicy, PartitionedTree, SplidtConfig};
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_flow::{
    catalog, churn, generate, select_flows, stratified_split, windowed_dataset, ChurnConfig,
    DatasetId,
};
use std::collections::HashSet;
use std::io::Write as _;
use std::time::Instant;

/// Register depth of the churn fixture: deliberately tiny so the flow
/// population exceeds it 16×.
pub const CHURN_SLOTS: usize = 256;
/// Distinct flows in the churn schedule.
pub const CHURN_FLOWS: usize = 4096;
/// Acceptance floor: distinct flows classified per run.
pub const CHURN_CLASSIFIED_FLOOR: usize = 8 * CHURN_SLOTS;
/// Ownership-lane idle timeout of the fixture (µs) — short enough that
/// collision-starved flows are evicted and their slots recycled within
/// the schedule.
pub const CHURN_IDLE_TIMEOUT_US: u64 = 100_000;
/// Dataset seed of the churn fixture.
pub const CHURN_SEED: u64 = 11;
/// The verdict class the fixture pins ("suspected malicious"): decided
/// lanes carrying it resist takeover until [`CHURN_PINNED_TIMEOUT_US`].
pub const CHURN_PINNED_CLASS: u16 = 3;
/// Pinned-lane timeout of the fixture (µs): modest, so the schedule still
/// recycles pinned slots within its span.
pub const CHURN_PINNED_TIMEOUT_US: u64 = 150_000;
/// Fraction of churn flows opening with SYN; the rest are mid-capture
/// tails the TCP-aware policy must refuse (`unsolicited`).
pub const CHURN_SYN_OPEN_FRAC: f64 = 0.95;
/// Fraction of churn flows closing abortively with RST instead of FIN.
pub const CHURN_RST_CLOSE_FRAC: f64 = 0.25;

/// One churn measurement, serialized to `BENCH_churn.json`.
#[derive(Debug, Clone, Copy)]
pub struct ChurnStats {
    /// Packets pushed through the engine during the measured region.
    pub packets: u64,
    /// Wall-clock seconds of the measured region.
    pub elapsed_s: f64,
    /// Packets per second through `Engine::ingest_batch` under churn.
    pub pps: f64,
    /// Heap allocations per packet across the engine batch path
    /// (includes the per-batch digest collation — control-plane work).
    pub allocs_per_packet: f64,
    /// Heap allocations per packet over the pipeline-level churn loop —
    /// the strict zero-allocation criterion (claims, takeovers and
    /// decide passes included, collation excluded).
    pub churn_allocs_per_packet: f64,
    /// Register depth the fixture ran with.
    pub flow_slots: u64,
    /// Distinct flows in the schedule.
    pub distinct_flows: u64,
    /// Distinct flows that received a verdict digest.
    pub classified_flows: u64,
    /// Lifecycle counters after one full run.
    pub lifecycle: LifecycleStats,
    /// Whether the lifecycle counters reconciled exactly.
    pub reconciled: bool,
    /// Total suppressed packets across all slots (pressure register sum).
    pub pressure_total: u64,
    /// The hottest slot's suppressed-packet count.
    pub pressure_peak: u64,
    /// Pressure histogram over slots (log₂ buckets; see
    /// `splidt_core::runtime::SlotPressure`).
    pub pressure_hist: [u64; PRESSURE_HIST_BUCKETS],
}

/// Trains the standard fixed-seed model (same shape as the hot-path
/// fixture) and builds the churn schedule, pre-serialized as
/// `(frame, ts_us)` pairs in timeline order.
pub fn fixture() -> (PartitionedTree, Vec<(Vec<u8>, u64)>) {
    let train = generate(DatasetId::D2, 220, 7);
    let (tr, _) = stratified_split(&train, 0.6, 2);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&select_flows(&train, &tr), 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());

    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: CHURN_FLOWS,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            syn_open_frac: CHURN_SYN_OPEN_FRAC,
            rst_close_frac: CHURN_RST_CLOSE_FRAC,
            seed: CHURN_SEED,
            ..Default::default()
        },
    );
    let frames = schedule
        .events()
        .into_iter()
        .map(|(ts, i, j)| (Engine::frame_for(&schedule.flows[i], j), ts))
        .collect();
    (model, frames)
}

/// A fresh compiled engine for the churn fixture (256 slots, short idle
/// timeout, TCP-aware lifecycle policy with one pinned class; flows are
/// learned from the wire — nothing is pre-admitted).
pub fn engine_for(model: &PartitionedTree) -> Engine {
    EngineBuilder::new(model)
        .flow_slots(CHURN_SLOTS)
        .idle_timeout_us(CHURN_IDLE_TIMEOUT_US)
        .lifecycle_policy(
            LifecyclePolicy::tcp()
                .pin_class(CHURN_PINNED_CLASS)
                .pinned_timeout_us(CHURN_PINNED_TIMEOUT_US),
        )
        .build()
        .expect("compiles")
}

/// Runs the schedule once through a fresh session and fills the
/// correctness half of [`ChurnStats`]: distinct flows classified
/// (distinct `(slot, fingerprint)` digest pairs) and the lifecycle
/// counters with their reconciliation check.
pub fn measure_churn_outcome(engine: &mut Engine, frames: &[(Vec<u8>, u64)]) -> ChurnStats {
    engine.reset();
    let mut classified: HashSet<(u64, u64)> = HashSet::new();
    let io = engine.io().clone();
    let report =
        engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");
    for d in &report.digests {
        classified.insert((d.values[io.digest_flow_idx], d.values[io.digest_fp]));
    }
    let lifecycle = engine.lifecycle();
    let pressure = engine.slot_pressure();
    ChurnStats {
        packets: report.packets,
        elapsed_s: 0.0,
        pps: 0.0,
        allocs_per_packet: 0.0,
        churn_allocs_per_packet: 0.0,
        flow_slots: CHURN_SLOTS as u64,
        distinct_flows: CHURN_FLOWS as u64,
        classified_flows: classified.len() as u64,
        lifecycle,
        reconciled: lifecycle.reconciles(),
        pressure_total: pressure.total,
        pressure_peak: pressure.peak(),
        pressure_hist: pressure.histogram,
    }
}

/// Streams the churn schedule through the engine's batch path repeatedly
/// (resetting between rounds) until `min_elapsed_s` of measured work has
/// accumulated; fills throughput and engine-path allocations.
pub fn measure_churn_throughput(
    engine: &mut Engine,
    frames: &[(Vec<u8>, u64)],
    min_elapsed_s: f64,
    stats: &mut ChurnStats,
) {
    engine.reset();
    engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");

    let mut packets = 0u64;
    let allocs_before = allocation_count();
    let start = Instant::now();
    loop {
        engine.reset();
        let report =
            engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");
        packets += report.packets;
        if start.elapsed().as_secs_f64() >= min_elapsed_s {
            break;
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let allocs = allocation_count() - allocs_before;
    stats.packets = packets;
    stats.elapsed_s = elapsed_s;
    stats.pps = packets as f64 / elapsed_s;
    stats.allocs_per_packet = allocs as f64 / packets as f64;
}

/// Drives `frames` through the wave path the way a shard consumer does:
/// 1024-frame batches, the wave flushed and the digest ring cleared per
/// batch (the drain-per-batch regime).
pub(crate) fn drive_batches(
    pipe: &mut Pipeline,
    fields: &StandardFields,
    frames: &[(Vec<u8>, u64)],
) {
    let mut stats = WaveStats::default();
    for chunk in frames.chunks(1024) {
        for (frame, ts) in chunk {
            pipe.wave_push(frame, *ts, fields, &mut stats).expect("parses");
        }
        pipe.wave_flush(fields, &mut stats);
        pipe.clear_digests();
    }
}

/// The strict zero-allocation probe: drives the whole churn schedule
/// through the production wave path ([`DEFAULT_BURST`], the program's own
/// `flow_slots` as conflict domain) after a full warm-up round. Claims,
/// idle takeovers, decided takeovers, live-collision suppression and
/// decide resubmissions all execute in the measured region. Returns total
/// heap allocations observed: **must be zero**.
pub fn probe_churn_allocs(model: &PartitionedTree, frames: &[(Vec<u8>, u64)]) -> (u64, u64) {
    let engine = engine_for(model);
    let mut pipe = Pipeline::new(engine.program().clone());
    pipe.set_burst(DEFAULT_BURST, engine.flow_slots());
    let fields = engine.io().fields;

    // Warm-up: one full round grows every scratch capacity (keys, digest
    // ring) to steady state; reset_state is allocation-free.
    drive_batches(&mut pipe, &fields, frames);
    pipe.reset_state();

    let before = allocation_count();
    drive_batches(&mut pipe, &fields, frames);
    (allocation_count() - before, frames.len() as u64)
}

/// Writes stats as the flat JSON the CI artifact and `bench_diff.sh`
/// consume.
pub fn write_json(path: &str, s: &ChurnStats) -> std::io::Result<()> {
    let hist = s.pressure_hist.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ");
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\n  \"bench\": \"churn\",\n  \"packets\": {},\n  \"elapsed_s\": {:.6},\n  \
         \"pps\": {:.1},\n  \"allocs_per_packet\": {:.6},\n  \
         \"churn_allocs_per_packet\": {:.6},\n  \"flow_slots\": {},\n  \
         \"distinct_flows\": {},\n  \"classified_flows\": {},\n  \"admitted\": {},\n  \
         \"active_flows\": {},\n  \"decided_pending\": {},\n  \"pinned_pending\": {},\n  \
         \"evictions_idle\": {},\n  \"evictions_decided\": {},\n  \
         \"evictions_pinned\": {},\n  \"released_fin\": {},\n  \"takeovers\": {},\n  \
         \"live_collisions\": {},\n  \"unsolicited\": {},\n  \"pinned_defended\": {},\n  \
         \"post_verdict_pkts\": {},\n  \"reconciled\": {},\n  \"pressure_total\": {},\n  \
         \"pressure_peak\": {},\n  \"pressure_hist\": [{}]\n}}",
        s.packets,
        s.elapsed_s,
        s.pps,
        s.allocs_per_packet,
        s.churn_allocs_per_packet,
        s.flow_slots,
        s.distinct_flows,
        s.classified_flows,
        s.lifecycle.admitted,
        s.lifecycle.active_flows,
        s.lifecycle.decided_pending,
        s.lifecycle.pinned_pending,
        s.lifecycle.evictions_idle,
        s.lifecycle.evictions_decided,
        s.lifecycle.evictions_pinned,
        s.lifecycle.released_fin,
        s.lifecycle.takeovers,
        s.lifecycle.live_collisions,
        s.lifecycle.unsolicited,
        s.lifecycle.pinned_defended,
        s.lifecycle.post_verdict_pkts,
        u64::from(s.reconciled),
        s.pressure_total,
        s.pressure_peak,
        hist,
    )
}
