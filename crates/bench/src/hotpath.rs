//! The hot-path measurement harness: fixed-seed traffic, steady-state
//! throughput, and allocations-per-packet — shared by the `hotpath`
//! criterion bench, the `hotpath_smoke` CI binary, and local pre-push
//! checks via `scripts/bench_diff.sh`.
//!
//! Two measurements matter:
//!
//! 1. **Throughput** (packets/sec) through [`Engine::ingest_batch`] on a
//!    compiled SpliDT model — the end-to-end number the CI `bench-smoke`
//!    job gates on (>15% drop vs `bench/baseline.json` fails the build).
//! 2. **Allocations per packet**, measured with the
//!    [`CountingAlloc`](crate::CountingAlloc) global allocator. The
//!    steady-state pipeline path — the wave, at [`DEFAULT_BURST`] — must
//!    perform **zero** heap allocations per packet;
//!    [`probe_hot_loop_allocs`] drives a digest-free program so even
//!    boundary-event allocations are excluded and the assertion is exact.
//!
//! Everything is deterministic: fixed dataset seed, fixed flow schedule,
//! fixed frame serialization — so two runs differ only by machine speed.
//!
//! Two traffic fixtures share the standard model: the **small fixture**
//! ([`fixture`], 220 flows) keeps the allocation probes and the absolute
//! `pps` gate fast and cache-resident, and the **scaled fixture**
//! ([`scaled_fixture`], hundreds of thousands of flows over a
//! [`SCALED_FLOW_SLOTS`]-slot register file) puts the burst sweep in the
//! memory-bound regime the vectorization gate is about.

use crate::alloc_count::allocation_count;
use splidt_core::engine::{Engine, EngineBuilder, DEFAULT_BURST};
use splidt_core::{train_partitioned, PartitionedTree, SplidtConfig};
use splidt_dataplane::action::{Action, AluOp, Primitive, Source};
use splidt_dataplane::packet::PacketBuilder;
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_dataplane::program::ProgramBuilder;
use splidt_dataplane::register::RegisterSpec;
use splidt_dataplane::table::TableSpec;
use splidt_flow::{
    catalog, generate, select_flows, stratified_split, windowed_dataset, DatasetId, FlowTrace,
};
use std::io::Write as _;
use std::time::Instant;

/// Flow count of the standard fixture (SPLIDT_SCALE-independent: the CI
/// gate needs run-to-run determinism, not configurability).
pub const FIXTURE_FLOWS: usize = 220;
/// Dataset seed of the standard fixture.
pub const FIXTURE_SEED: u64 = 7;

/// Flows *generated* for the scaled-traffic fixture; the test side of a
/// 90/10 split (`SCALED_TEST_FRAC`) becomes the traffic mix, so ~90% of
/// these are offered to admission. Traces are kept **whole** — the
/// vectorization win lives disproportionately in post-verdict packets
/// (cheap per-packet compute, still one owner-lane state touch each),
/// and truncating traces to their early decision windows measurably
/// erases it.
pub const SCALED_TRAFFIC_FLOWS: usize = 200_000;
/// Dataset seed of the scaled traffic (distinct from the training seed —
/// the model never saw these flows).
pub const SCALED_TRAFFIC_SEED: u64 = 11;
/// Share of the generated flows that becomes traffic.
pub const SCALED_TEST_FRAC: f64 = 0.9;
/// Register slot budget of the scaled fixture. At this scale the
/// per-flow state arrays (16 MiB each) dwarf every cache level, which is
/// precisely SpliDT's operating point — the paper's premise is stateful
/// inference over flow counts that no on-chip memory holds, and it is
/// the regime where stage-major waves earn their keep (see
/// `measure_burst_sweep`).
pub const SCALED_FLOW_SLOTS: usize = 1 << 21;

/// One hot-path measurement, serialized to `BENCH_hotpath.json`.
#[derive(Debug, Clone, Copy)]
pub struct HotpathStats {
    /// Packets pushed through the engine during the measured region.
    pub packets: u64,
    /// Wall-clock seconds of the measured region.
    pub elapsed_s: f64,
    /// Packets per second.
    pub pps: f64,
    /// Heap allocations per packet across the full engine batch path
    /// (boundary packets emitting digests may allocate; steady-state
    /// packets must not). Zero unless the counting allocator is installed.
    pub allocs_per_packet: f64,
    /// Heap allocations per packet over the digest-free probe program
    /// (`wave_push`/`wave_flush` at [`DEFAULT_BURST`]) — the strict
    /// zero-allocation criterion.
    pub hot_loop_allocs_per_packet: f64,
    /// Heap allocations per packet over the digest-emitting probe
    /// program (every packet pushes a record into the flat digest ring,
    /// disposed per batch) — the ring's zero-allocation criterion.
    pub digest_ring_allocs_per_packet: f64,
    /// Engine throughput at each [`BURST_SWEEP`] size, measured over the
    /// **scaled-traffic fixture** ([`scaled_fixture`]: hundreds of
    /// thousands of distinct flows at the [`SCALED_FLOW_SLOTS`] budget —
    /// `pps` itself is the small fixture at the default burst).
    /// `pps_burst[2]` (burst 32) vs `pps_burst[0]` (burst 1) is the
    /// vectorization win the CI gate holds at ≥ 1.05× (observed
    /// 1.13–1.20× on the 1-vCPU CI box; the floor sits below the band).
    pub pps_burst: [f64; BURST_SWEEP.len()],
    /// Scaled-fixture throughput at burst 32 through the **banked**
    /// register file (== `pps_burst[2]`, re-exported under its own key so
    /// the baseline can hold an absolute floor on the memory-bound
    /// regime, not just the small compute-bound fixture's `pps`).
    pub pps_scaled: f64,
    /// Scaled-fixture throughput at burst 32 through the legacy
    /// **split** per-stage arrays (one prefetchable array per register) —
    /// the differential baseline for the banking win, measured
    /// interleaved with the sweep so machine drift cancels in the ratio.
    pub pps_scaled_split: f64,
    /// `pps_scaled / pps_scaled_split` — the flow-state banking win the
    /// CI gate holds at ≥ [`BANK_FLOOR`](crate::hotpath).
    pub bank_speedup: f64,
    /// Heap allocations per packet over the banked-path probe (a
    /// multi-register program whose flow state coalesces into one bank,
    /// driven through the wave path at burst 32) — the bank's strict
    /// zero-allocation criterion.
    pub bank_allocs_per_packet: f64,
    /// Heap allocations per packet over the worker-data-path probe (SPSC
    /// ring push → peek → burst execution → advance, single-threaded) —
    /// the persistent-worker hand-off's zero-allocation criterion.
    pub worker_allocs_per_packet: f64,
    /// Provenance: flows offered to / frames in the burst-sweep fixture,
    /// so a snapshot is self-describing (a sweep over the small fixture
    /// cannot masquerade as the scaled memory-bound regime).
    pub sweep_frames: u64,
    /// Provenance: register slot budget the sweep ran at.
    pub sweep_slots: u64,
}

/// Burst sizes the sweep measures (JSON keys `pps_burst1` … `pps_burst64`).
pub const BURST_SWEEP: [usize; 4] = [1, 8, 32, 64];

/// Stability floor for the burst sweep, whatever the caller's time
/// budget: short single-round ratios proved irreproducible (one quick
/// pass per size leaves page-fault warm-up and scheduler noise
/// un-averaged). The sweep keeps interleaving rounds until it has done
/// [`SWEEP_MIN_ROUNDS`] of them **or** every size has accumulated
/// [`SWEEP_STABLE_S`] seconds of measured work — long passes are their
/// own averaging.
pub const SWEEP_MIN_ROUNDS: usize = 3;
/// See [`SWEEP_MIN_ROUNDS`].
pub const SWEEP_STABLE_S: f64 = 10.0;

/// Trains the standard fixed-seed model and pre-serializes its admitted
/// traffic as `(frame, ts_us)` pairs in timeline order.
pub fn fixture() -> (PartitionedTree, Vec<(Vec<u8>, u64)>) {
    let flows = generate(DatasetId::D2, FIXTURE_FLOWS, FIXTURE_SEED);
    let (tr, te) = stratified_split(&flows, 0.4, 2);
    let train_flows = select_flows(&flows, &tr);
    let traffic = select_flows(&flows, &te);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&train_flows, 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let frames = serialize_schedule(&model, &traffic);
    (model, frames)
}

/// The scaled-traffic fixture: the standard model (trained small — the
/// classifier is the same either way) driven by a few hundred thousand
/// distinct flows over a [`SCALED_FLOW_SLOTS`]-slot register file. This
/// is the traffic shape the burst sweep and its vectorization gate run
/// on: per-flow state no cache holds, every wave touching ~32 distinct
/// flow slots.
pub fn scaled_fixture(model: &PartitionedTree) -> Vec<(Vec<u8>, u64)> {
    let flows = generate(DatasetId::D2, SCALED_TRAFFIC_FLOWS, SCALED_TRAFFIC_SEED);
    let (_, te) = stratified_split(&flows, SCALED_TEST_FRAC, 2);
    let traffic = select_flows(&flows, &te);
    serialize_schedule_slots(model, &traffic, SCALED_FLOW_SLOTS)
}

/// Serializes `traffic` exactly as an engine run would feed it: admitted
/// with collision filtering, staggered, merged into one timeline.
pub fn serialize_schedule(model: &PartitionedTree, traffic: &[FlowTrace]) -> Vec<(Vec<u8>, u64)> {
    serialize_schedule_slots(model, traffic, 1 << 16)
}

/// [`serialize_schedule`] with an explicit slot budget — admission
/// filters collisions against the real slot count, so scaled traffic
/// must be admitted at the slot budget it will run with.
pub fn serialize_schedule_slots(
    model: &PartitionedTree,
    traffic: &[FlowTrace],
    flow_slots: usize,
) -> Vec<(Vec<u8>, u64)> {
    let mut engine = engine_with_slots(model, flow_slots);
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    let mut kept: Vec<&FlowTrace> = Vec::new();
    for f in traffic {
        if let Some(a) = engine.admit(f) {
            kept.push(f);
            let idx = kept.len() - 1;
            for (j, p) in f.packets.iter().enumerate() {
                events.push((a.base_us + p.ts_us, idx, j));
            }
        }
    }
    events.sort_unstable();
    events.into_iter().map(|(ts, i, j)| (Engine::frame_for(kept[i], j), ts)).collect()
}

/// A fresh compiled engine for the fixture model (1K µs stagger, 64K
/// slots — the same shape the engine bench uses).
pub fn engine_for(model: &PartitionedTree) -> Engine {
    engine_with_slots(model, 1 << 16)
}

/// [`engine_for`] with an explicit slot budget (the scaled fixture runs
/// at [`SCALED_FLOW_SLOTS`]).
pub fn engine_with_slots(model: &PartitionedTree, flow_slots: usize) -> Engine {
    EngineBuilder::new(model).flow_slots(flow_slots).stagger_us(1_000).build().expect("compiles")
}

/// Streams `frames` through the engine's batch path repeatedly (resetting
/// session state between rounds) until `min_elapsed_s` of measured work
/// has accumulated. Returns the filled [`HotpathStats`] — with
/// allocations-per-packet populated when the counting allocator is the
/// global allocator, zero otherwise.
pub fn measure_engine_throughput(
    engine: &mut Engine,
    frames: &[(Vec<u8>, u64)],
    min_elapsed_s: f64,
) -> HotpathStats {
    // Warm-up round: populate scratch capacities and collation maps.
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
    HotpathStats {
        packets,
        elapsed_s,
        pps: packets as f64 / elapsed_s,
        allocs_per_packet: allocs as f64 / packets as f64,
        hot_loop_allocs_per_packet: 0.0,
        digest_ring_allocs_per_packet: 0.0,
        pps_burst: [0.0; BURST_SWEEP.len()],
        pps_scaled: 0.0,
        pps_scaled_split: 0.0,
        bank_speedup: 0.0,
        bank_allocs_per_packet: 0.0,
        worker_allocs_per_packet: 0.0,
        sweep_frames: 0,
        sweep_slots: 0,
    }
}

/// The burst sweep's result: banked throughput per burst size, plus the
/// split-layout differential baseline at burst 32.
#[derive(Debug, Clone, Copy)]
pub struct BurstSweep {
    /// Banked register file at each [`BURST_SWEEP`] size.
    pub pps_burst: [f64; BURST_SWEEP.len()],
    /// Legacy split per-stage arrays at burst 32 — same program, same
    /// traffic, same wave machinery; only the register layout differs.
    pub pps_split_b32: f64,
}

/// Measures throughput at every [`BURST_SWEEP`] size over the
/// scaled-traffic frames ([`scaled_fixture`]), one fresh engine per size
/// at the [`SCALED_FLOW_SLOTS`] budget — only the burst knob differs.
/// Burst 1 is the packet-at-a-time walk (singleton waves), so the
/// sweep isolates the vectorization win from any other engine change. A
/// **split-layout** engine at burst 32 rides in the same rotation, so the
/// banked/split ratio isolates the flow-bank win the same way.
///
/// The configurations are measured **interleaved**, one fixture pass per
/// configuration per round, and each configuration reports its **best
/// round** (see the estimator note in the body): slow machine-wide drift
/// lands on every configuration equally, and bursty noisy-neighbor
/// interference — which a pooled mean would bake into whichever engine's
/// turn it hit — is shed by taking the max, so the burst-32 / burst-1
/// and banked / split *ratios* the CI gates hold stay meaningful even
/// when the absolute numbers wander between runs.
pub fn measure_burst_sweep(
    model: &PartitionedTree,
    frames: &[(Vec<u8>, u64)],
    min_elapsed_s: f64,
) -> BurstSweep {
    const N: usize = BURST_SWEEP.len() + 1; // + the split baseline
    let mut engines: Vec<Engine> = BURST_SWEEP
        .iter()
        .map(|&burst| {
            EngineBuilder::new(model)
                .flow_slots(SCALED_FLOW_SLOTS)
                .stagger_us(1_000)
                .burst(burst)
                .build()
                .expect("compiles")
        })
        .collect();
    let mut split = EngineBuilder::new(model)
        .flow_slots(SCALED_FLOW_SLOTS)
        .stagger_us(1_000)
        .burst(BURST_SWEEP[2])
        .build()
        .expect("compiles");
    split.use_split_registers();
    engines.push(split);
    // Warm-up pass per configuration: scratch capacities and collation
    // maps.
    for engine in &mut engines {
        engine.reset();
        engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");
    }
    // Per-configuration estimator: the **best full-pass round**. Each
    // round drives the whole fixture (tens of millions of packets), so a
    // round's pps is already a long average — but a noisy neighbor on
    // this shared box can still steal a chunk of one engine's turn, and
    // pooling that turn into a mean permanently understates the engine.
    // Interference only ever *slows* a pass, so max-over-rounds converges
    // on each configuration's true quiet-machine throughput (the
    // min-time-over-repetitions estimator, per configuration).
    let mut best = [0.0f64; N];
    let mut elapsed = [0.0f64; N];
    let mut rounds = 0usize;
    loop {
        for (i, engine) in engines.iter_mut().enumerate() {
            engine.reset();
            let start = Instant::now();
            let report = engine
                .ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts)))
                .expect("ingests");
            let secs = start.elapsed().as_secs_f64();
            elapsed[i] += secs;
            best[i] = best[i].max(report.packets as f64 / secs);
        }
        rounds += 1;
        let total = elapsed.iter().sum::<f64>();
        let enough = total >= min_elapsed_s * N as f64;
        let stable = rounds >= SWEEP_MIN_ROUNDS || total >= SWEEP_STABLE_S * N as f64;
        if enough && stable {
            break;
        }
    }
    let mut out = BurstSweep { pps_burst: [0.0; BURST_SWEEP.len()], pps_split_b32: 0.0 };
    out.pps_burst.copy_from_slice(&best[..BURST_SWEEP.len()]);
    out.pps_split_b32 = best[N - 1];
    out
}

/// Pushes `n` packets (cycling `frames`, timestamps `0..n`) through the
/// wave path and flushes.
fn wave_round(pipe: &mut Pipeline, fields: &StandardFields, frames: &[Vec<u8>], n: u64) {
    let mut stats = WaveStats::default();
    for i in 0..n {
        let f = &frames[(i % frames.len() as u64) as usize];
        pipe.wave_push(f, i, fields, &mut stats).expect("parses");
    }
    pipe.wave_flush(fields, &mut stats);
}

/// Warm-up length of the wave probes: two passes over the 16-flow frame
/// set, so cut-triggered waves and the final flush both exercise every
/// scratch buffer once.
const PROBE_WARMUP: u64 = 32;

/// The strict zero-allocation probe of the hot loop: a digest-free
/// program — flow hash, one stateful accumulator, an exact table and a
/// default action — driven through `wave_push`/`wave_flush` at
/// [`DEFAULT_BURST`] after a warm-up. Returns total heap allocations
/// observed in the steady-state region: **must be zero** (and is asserted
/// to be by `hotpath_smoke`) when the counting allocator is installed.
pub fn probe_hot_loop_allocs(n_packets: u64) -> u64 {
    let (mut pipe, fields, frames, slots) = probe_program();
    pipe.set_burst(DEFAULT_BURST, slots);
    wave_round(&mut pipe, &fields, &frames, PROBE_WARMUP);

    let before = allocation_count();
    wave_round(&mut pipe, &fields, &frames, n_packets);
    allocation_count() - before
}

/// Builds a digest-emitting probe program — every TCP packet sets a
/// verdict class and pushes a digest — and drives `n_packets` through the
/// wave path at [`DEFAULT_BURST`] in batches of [`DIGEST_PROBE_BATCH`],
/// disposing the pending ring between batches (the drain-per-batch
/// steady-state regime). Returns total heap allocations observed in the
/// measured region: **must be zero** now that digests land in the flat
/// [`DigestBuf`](splidt_dataplane::DigestBuf) ring instead of allocating
/// a `Vec<u64>` per event (~0.03 allocs/packet before the ring).
pub fn probe_digest_ring_allocs(n_packets: u64) -> u64 {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let class = b.add_meta("m.class", 8);
    b.set_digest_fields(vec![class, fields.ipv4_src, fields.ipv4_dst]);
    let t = b.add_table(TableSpec::exact("verdict", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        t,
        vec![6],
        Action::new("emit").with(Primitive::set_const(class, 3)).with(Primitive::Digest),
    )
    .expect("installs");
    let program = b.build().expect("builds");
    let mut pipe = Pipeline::new(program);
    // The program keeps no per-flow state: any conflict domain is safe.
    pipe.set_burst(DEFAULT_BURST, 1 << 10);
    let frames = probe_frames();

    // Warm-up: one full batch grows the ring to its steady capacity;
    // clearing keeps that capacity.
    wave_round(&mut pipe, &fields, &frames, DIGEST_PROBE_BATCH);
    pipe.clear_digests();

    let before = allocation_count();
    let mut emitted = 0u64;
    for batch_start in (0..n_packets).step_by(DIGEST_PROBE_BATCH as usize) {
        let batch = DIGEST_PROBE_BATCH.min(n_packets - batch_start);
        wave_round(&mut pipe, &fields, &frames, batch);
        emitted += pipe.digests().len() as u64;
        pipe.clear_digests();
    }
    let allocs = allocation_count() - before;
    assert_eq!(emitted, n_packets, "every probe packet must emit a digest");
    allocs
}

/// Packets per disposal batch in [`probe_digest_ring_allocs`].
pub const DIGEST_PROBE_BATCH: u64 = 1024;

/// The 16-flow frame set every allocation probe cycles through.
fn probe_frames() -> Vec<Vec<u8>> {
    (0u32..16)
        .map(|i| {
            PacketBuilder::tcp(0x0a00_0000 + i, 0x0b00_0000 + (i % 5), 40_000 + i as u16, 443)
                .payload(64 + (i as u16 % 7) * 100)
                .flow_size(64)
                .build()
                .to_vec()
        })
        .collect()
}

/// The digest-free probe program shared by the hot-loop and worker
/// allocation probes, plus its frame set and slot count.
fn probe_program() -> (Pipeline, StandardFields, Vec<Vec<u8>>, usize) {
    let slots: usize = 1 << 10;
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m.idx", 10);
    let r = b.add_register(RegisterSpec::new("r.bytes", 32, slots), 0);
    let t = b.add_table(TableSpec::exact("acct", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        t,
        vec![6],
        Action::new("account")
            .with(Primitive::HashFlow { dst: idx, mask: (slots - 1) as u64, salt: 0 })
            .with(Primitive::RegRmw {
                reg: r,
                index: Source::Field(idx),
                op: AluOp::Add,
                operand: Source::Field(fields.frame_len),
                out: None,
            }),
    )
    .expect("installs");
    let pipe = Pipeline::new(b.build().expect("builds"));
    (pipe, fields, probe_frames(), slots)
}

/// The strict zero-allocation probe for the **banked register path**:
/// unlike the hot-loop probe's program (whose single register is a
/// singleton group and therefore stays split), this one carries three same-depth
/// per-flow registers — so they coalesce into one flow bank — and every
/// packet read-modify-writes all three through the wave path at burst
/// 32. Returns total heap allocations in the measured region — must be
/// zero: bank cell addressing is pure arithmetic into the preallocated
/// arena.
pub fn probe_bank_allocs(n_packets: u64) -> u64 {
    let slots: usize = 1 << 10;
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m.idx", 10);
    let prep = b.add_table(TableSpec::exact("prep", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        prep,
        vec![6],
        Action::new("hash").with(Primitive::HashFlow {
            dst: idx,
            mask: (slots - 1) as u64,
            salt: 0,
        }),
    )
    .expect("installs");
    // One register per stage (the Tofino discipline the compiler follows)
    // — all three share the slot domain, so the plan coalesces them into
    // one bank regardless of stage placement.
    let regs = [
        ("r.bytes", 32u8, AluOp::Add, Source::Field(fields.frame_len)),
        ("r.pkts", 16, AluOp::Add, Source::Const(1)),
        ("r.max", 24, AluOp::Max, Source::Field(fields.frame_len)),
    ];
    for (stage0, (name, width, op, operand)) in regs.into_iter().enumerate() {
        let stage = stage0 + 1;
        let r = b.add_register(RegisterSpec::new(name, width, slots), stage);
        let t =
            b.add_table(TableSpec::exact(format!("acct{stage0}"), vec![fields.ip_proto], 4), stage);
        b.add_exact_entry(
            t,
            vec![6],
            Action::new("account").with(Primitive::RegRmw {
                reg: r,
                index: Source::Field(idx),
                op,
                operand,
                out: None,
            }),
        )
        .expect("installs");
    }
    let mut pipe = Pipeline::new(b.build().expect("builds"));
    assert!(
        pipe.registers().layout().banks().len() == 1
            && pipe.registers().layout().banks()[0].members.len() == 3,
        "probe registers must coalesce into one flow bank"
    );
    pipe.set_burst(DEFAULT_BURST, slots);
    let frames = probe_frames();
    wave_round(&mut pipe, &fields, &frames, PROBE_WARMUP);

    let before = allocation_count();
    wave_round(&mut pipe, &fields, &frames, n_packets);
    allocation_count() - before
}

/// The strict zero-allocation probe for the **persistent-worker data
/// path**, single-threaded so the counting allocator sees every side:
/// frames go dispatcher-style into a real SPSC ring (`try_push`), are
/// borrowed back (`peek`) straight into burst execution, and the slots
/// are released (`advance`) — the exact hand-off
/// `ShardedEngine::ingest_batch` performs per worker per batch. Returns
/// total heap allocations in the measured region — must be zero.
pub fn probe_worker_ring_allocs(n_packets: u64) -> u64 {
    let (mut pipe, fields, frames, slots) = probe_program();
    pipe.set_burst(32, slots);
    let (mut tx, mut rx) = splidt_core::ring::ring(64, 2048);
    let mut stats = WaveStats::default();

    let mut round = |pipe: &mut Pipeline, stats: &mut WaveStats, n: u64| {
        for chunk_start in (0..n).step_by(32) {
            let chunk = (n - chunk_start).min(32);
            for i in 0..chunk {
                let k = ((chunk_start + i) % frames.len() as u64) as usize;
                tx.try_push(&frames[k], chunk_start + i).expect("ring drained between chunks");
            }
            for i in 0..chunk as usize {
                let (frame, ts) = rx.peek(i);
                pipe.wave_push(frame, ts, &fields, stats).expect("parses");
            }
            rx.advance(chunk as usize);
        }
        pipe.wave_flush(&fields, stats);
    };

    // Warm-up round (ring slots are preallocated; wave scratch grows).
    round(&mut pipe, &mut stats, 64);

    let before = allocation_count();
    round(&mut pipe, &mut stats, n_packets);
    allocation_count() - before
}

/// Writes stats as the flat JSON the CI artifact and `bench_diff.sh`
/// consume.
pub fn write_json(path: &str, stats: &HotpathStats) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let bursts: Vec<String> = BURST_SWEEP
        .iter()
        .zip(stats.pps_burst)
        .map(|(b, pps)| format!("  \"pps_burst{b}\": {pps:.1},"))
        .collect();
    writeln!(
        f,
        "{{\n  \"bench\": \"hotpath\",\n  \"packets\": {},\n  \"elapsed_s\": {:.6},\n  \
         \"pps\": {:.1},\n{}\n  \"pps_scaled\": {:.1},\n  \
         \"pps_scaled_split\": {:.1},\n  \
         \"bank_speedup\": {:.4},\n  \
         \"sweep_frames\": {},\n  \
         \"sweep_slots\": {},\n  \
         \"allocs_per_packet\": {:.6},\n  \
         \"hot_loop_allocs_per_packet\": {:.6},\n  \
         \"digest_ring_allocs_per_packet\": {:.6},\n  \
         \"bank_allocs_per_packet\": {:.6},\n  \
         \"worker_allocs_per_packet\": {:.6}\n}}",
        stats.packets,
        stats.elapsed_s,
        stats.pps,
        bursts.join("\n"),
        stats.pps_scaled,
        stats.pps_scaled_split,
        stats.bank_speedup,
        stats.sweep_frames,
        stats.sweep_slots,
        stats.allocs_per_packet,
        stats.hot_loop_allocs_per_packet,
        stats.digest_ring_allocs_per_packet,
        stats.bank_allocs_per_packet,
        stats.worker_allocs_per_packet,
    )
}

/// Reads one numeric field back out of a `BENCH_*.json` file (minimal
/// parser for the flat format [`write_json`] emits).
pub fn read_metric(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end =
        rest.find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}
