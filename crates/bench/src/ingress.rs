//! Network-ingress smoke harness: a full in-process loopback run
//! (`splidt-gen`'s replayer on one thread → UDP → the ring ingress
//! service on the rest), the ring-consumer zero-allocation probe, and
//! the flat-JSON writer `scripts/bench_diff.sh` gates on.
//!
//! The workload is the churn fixture's schedule (same dataset, seed, and
//! lifecycle knobs as `churn_smoke`), so the classified-flows floor is
//! the same `8 × flow_slots` criterion — but here the frames cross a
//! real socket, per-shard rings, and the graceful-shutdown drain before
//! they reach the pipelines. The emitted JSON deliberately has **no**
//! `flow_slots` key: that key is how `bench_diff.sh` recognises churn
//! candidates, and the ingress gates (`classified_floor`,
//! `ingress_allocs_per_packet`) are keyed separately.

use crate::alloc_count::allocation_count;
use crate::churn::{
    CHURN_CLASSIFIED_FLOOR, CHURN_IDLE_TIMEOUT_US, CHURN_PINNED_CLASS, CHURN_PINNED_TIMEOUT_US,
    CHURN_SLOTS,
};
use splidt_core::engine::{EngineBuilder, ShardedEngine, DEFAULT_BURST};
use splidt_core::{LifecyclePolicy, PartitionedTree};
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_flow::ChurnSchedule;
use splidt_net::gen::{replay_udp, GenConfig, GenReport};
use splidt_net::ring::ring;
use splidt_net::service::{classified_flows, run_ingress, IngressConfig, IngressOutcome};
use splidt_net::source::UdpSource;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// One ingress measurement, serialized to `BENCH_ingress.json`.
#[derive(Debug, Clone, Copy)]
pub struct IngressBenchStats {
    /// Frames the generator put on the wire.
    pub sent: u64,
    /// Frames the receiver pulled off the socket.
    pub received: u64,
    /// Frames steered into shard rings.
    pub steered: u64,
    /// Frames refused by full rings (backpressure drops).
    pub dropped_ring_full: u64,
    /// Frames the steering peek rejected.
    pub dropped_malformed: u64,
    /// Frames the shard consumers drained into the engines.
    pub consumed: u64,
    /// Frames lost inside the kernel's socket buffer (`sent − received`)
    /// — loopback loss outside the subsystem's accounting boundary.
    pub socket_loss: u64,
    /// Wall-clock seconds of the ingress session (replay is paced, so
    /// this tracks the schedule span, not pipeline capacity).
    pub elapsed_s: f64,
    /// Received frames per second over the session.
    pub pps: f64,
    /// Distinct flows that received a verdict digest.
    pub classified_flows: u64,
    /// The gate floor (`8 × flow_slots`, same as `churn_smoke`).
    pub classified_floor: u64,
    /// Whether the ingress accounting reconciled exactly.
    pub reconciled: bool,
    /// Heap allocations per packet over the ring-consumer hot path
    /// (push → peek → wave_push → flush → clear_digests → advance): the
    /// strict zero-allocation criterion for the ingress data path.
    pub ingress_allocs_per_packet: f64,
}

/// A sharded engine with the churn fixture's lifecycle knobs, timeouts
/// stretched by the replay's wall-clock `time_scale` (the generator
/// stretches the wire timeline, so the receiver stretches its idle and
/// pinned lanes to match).
pub fn sharded_engine_for(
    model: &PartitionedTree,
    shards: usize,
    time_scale: f64,
) -> ShardedEngine {
    EngineBuilder::new(model)
        .flow_slots(CHURN_SLOTS)
        .idle_timeout_us((CHURN_IDLE_TIMEOUT_US as f64 * time_scale) as u64)
        .lifecycle_policy(
            LifecyclePolicy::tcp()
                .pin_class(CHURN_PINNED_CLASS)
                .pinned_timeout_us((CHURN_PINNED_TIMEOUT_US as f64 * time_scale) as u64),
        )
        .build_sharded(shards)
        .expect("fixture model compiles")
}

/// The strict zero-allocation probe for the ingress data path: drives the
/// churn frames through a real SPSC ring — push, borrow via `peek`,
/// `Pipeline::wave_push` at [`DEFAULT_BURST`], flush + digest drain,
/// `advance` — after one full warm-up round. Returns `(heap allocations
/// observed, packets)`: **must be zero** allocations.
pub fn probe_ingress_allocs(model: &PartitionedTree, frames: &[(Vec<u8>, u64)]) -> (u64, u64) {
    let engine = sharded_engine_for(model, 1, 1.0);
    let mut pipe = Pipeline::new(engine.engines()[0].program().clone());
    pipe.set_burst(DEFAULT_BURST, engine.flow_slots());
    let fields = engine.engines()[0].io().fields;
    let (mut tx, mut rx) = ring(1024, 2048);
    let mut stats = WaveStats::default();

    let mut round = |pipe: &mut Pipeline| {
        for chunk in frames.chunks(1024) {
            for (frame, ts) in chunk {
                tx.try_push(frame, *ts).expect("ring drained between chunks");
            }
            for i in 0..chunk.len() {
                let (frame, ts) = rx.peek(i);
                pipe.wave_push(frame, ts, &fields, &mut stats).expect("fixture frames parse");
            }
            // Flush before releasing the slots, as the `ingest_batch`
            // inside `run_ingress` does.
            pipe.wave_flush(&fields, &mut stats);
            pipe.clear_digests();
            rx.advance(chunk.len());
        }
    };

    // Warm-up: one full round grows every scratch capacity (ring slots
    // are preallocated; the pipeline's keys/digest ring reach steady
    // state); reset_state is allocation-free.
    round(&mut pipe);
    pipe.reset_state();

    let before = allocation_count();
    round(&mut pipe);
    (allocation_count() - before, frames.len() as u64)
}

/// Runs the full in-process loopback session: replayer thread → UDP →
/// ring ingress into `engine`. Returns the ingress outcome, the
/// generator's report, and the distinct-flows-classified count.
pub fn run_loopback(
    engine: &mut ShardedEngine,
    schedule: &ChurnSchedule,
    time_scale: f64,
) -> (IngressOutcome, GenReport, u64, f64) {
    let source =
        UdpSource::bind("127.0.0.1:0").expect("loopback bind").idle_exit(Duration::from_secs(5));
    let addr = source.local_addr().expect("bound socket has an addr");
    let cfg = IngressConfig {
        ring_capacity: 4096,
        max_frame: 2048,
        batch: 256,
        ..IngressConfig::default()
    };

    let start = Instant::now();
    let (outcome, gen_report) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let gen_cfg = GenConfig { time_scale, ..GenConfig::default() };
            replay_udp(schedule, addr, &gen_cfg).expect("loopback replay")
        });
        let outcome = run_ingress(engine, source, &cfg).expect("ingress session");
        (outcome, sender.join().expect("sender panicked"))
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let io = engine.engines()[0].io();
    let classified =
        classified_flows(io.digest_flow_idx, io.digest_fp, &outcome.batch.digests) as u64;
    (outcome, gen_report, classified, elapsed_s)
}

/// Assembles the stats row from a loopback run plus the alloc probe.
pub fn stats_from(
    outcome: &IngressOutcome,
    gen_report: &GenReport,
    classified: u64,
    elapsed_s: f64,
    allocs: u64,
    alloc_packets: u64,
) -> IngressBenchStats {
    let s = &outcome.stats;
    IngressBenchStats {
        sent: gen_report.sent,
        received: s.received,
        steered: s.steered,
        dropped_ring_full: s.dropped_ring_full,
        dropped_malformed: s.dropped_malformed,
        consumed: s.shards.iter().map(|sh| sh.consumed).sum(),
        socket_loss: gen_report.sent.saturating_sub(s.received),
        elapsed_s,
        pps: s.received as f64 / elapsed_s.max(1e-9),
        classified_flows: classified,
        classified_floor: CHURN_CLASSIFIED_FLOOR as u64,
        reconciled: s.reconciles(),
        ingress_allocs_per_packet: allocs as f64 / alloc_packets.max(1) as f64,
    }
}

/// Writes stats as the flat JSON the CI artifact and `bench_diff.sh`
/// consume. No `flow_slots` key — see the module docs.
pub fn write_json(path: &str, s: &IngressBenchStats) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "{{\n  \"bench\": \"ingress\",\n  \"sent\": {},\n  \"received\": {},\n  \
         \"steered\": {},\n  \"dropped_ring_full\": {},\n  \"dropped_malformed\": {},\n  \
         \"consumed\": {},\n  \"socket_loss\": {},\n  \"elapsed_s\": {:.6},\n  \
         \"pps\": {:.1},\n  \"classified_flows\": {},\n  \"classified_floor\": {},\n  \
         \"reconciled\": {},\n  \"ingress_allocs_per_packet\": {:.6}\n}}",
        s.sent,
        s.received,
        s.steered,
        s.dropped_ring_full,
        s.dropped_malformed,
        s.consumed,
        s.socket_loss,
        s.elapsed_s,
        s.pps,
        s.classified_flows,
        s.classified_floor,
        u64::from(s.reconciled),
        s.ingress_allocs_per_packet,
    )
}
