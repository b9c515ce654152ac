//! Engine throughput: packets/sec through the streaming engine at shard
//! counts {1, 2, 4, 8}. This is the perf trajectory's throughput
//! benchmark — the `elem/s` column is pipeline packets per second
//! (resubmission passes excluded; they are metered separately).
//!
//! Two drivers per shard count:
//!
//! * `packets/N` — a whole evaluation `Session::run` (admission, frame
//!   serialization, feeding, scoring);
//! * `batch/N` — pre-serialized frames through `ingest_batch`, the
//!   steady-state zero-allocation hot path with digests drained once per
//!   batch. The gap between the two is the session-bookkeeping overhead.
//!
//! Both fan out on one scoped thread per shard, so the scaling curve
//! tracks the machine: on a single-core runner all counts report ~equal
//! throughput; speedup appears as cores do.
//!
//! Run with: `cargo bench --bench engine`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use splidt_core::engine::EngineBuilder;
use splidt_core::{train_partitioned, Session, SplidtConfig};
use splidt_flow::{
    catalog, frame_for, generate, select_flows, stratified_split, windowed_dataset, DatasetId,
    FlowTrace,
};

fn bench_engine(c: &mut Criterion) {
    let flows = generate(DatasetId::D2, 600, 5);
    let (tr, te) = stratified_split(&flows, 0.4, 2);
    let train_flows = select_flows(&flows, &tr);
    let traffic = select_flows(&flows, &te);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&train_flows, 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let total_packets: u64 = traffic.iter().map(|f| f.size_pkts() as u64).sum();
    let builder = || EngineBuilder::new(&model).flow_slots(1 << 16);
    let stagger_us = 1_000;
    // `traffic` as a session would feed it: admitted with collision
    // filtering at the engines' slot budget, staggered, merged into one
    // timeline.
    let (admitter, mut session) = (builder().build().expect("compiles"), Session::new(stagger_us));
    let mut events: Vec<(u64, &FlowTrace, usize)> = Vec::new();
    for f in &traffic {
        if let Some(a) = session.admit(&admitter, f) {
            events.extend(f.packets.iter().enumerate().map(|(j, p)| (a.base_us + p.ts_us, f, j)));
        }
    }
    events.sort_by_key(|&(ts, _, _)| ts);
    let frames: Vec<(Vec<u8>, u64)> =
        events.into_iter().map(|(ts, f, j)| (frame_for(f, j), ts)).collect();

    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(total_packets));
    for shards in [1usize, 2, 4, 8] {
        // Compile once per shard count; the measured loop only resets
        // register state and streams packets.
        let sharded = || builder().build_sharded(shards).expect("compiles");
        let mut engine = sharded();
        group.bench_with_input(BenchmarkId::new("packets", shards), &shards, |b, _| {
            b.iter(|| {
                engine.reset();
                Session::new(stagger_us).run(&mut engine, &traffic).expect("runs")
            })
        });
        let mut engine = sharded();
        group.bench_with_input(BenchmarkId::new("batch", shards), &shards, |b, _| {
            b.iter(|| {
                engine.reset();
                engine.ingest_batch(&frames).expect("ingests")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
