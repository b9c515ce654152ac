//! Hot-path microbenchmarks: the production wave path against
//! one-packet-at-a-time ingest and the entry-walking reference
//! interpreter, on the same fixed-seed traffic.
//!
//! | id | path measured |
//! |---|---|
//! | `hotpath/plan_batch` | `Engine::ingest_batch` → `Pipeline::wave_push` at the default burst (zero-alloc) |
//! | `hotpath/single_packet_ingest` | `Engine::ingest` → `process_packet`: a singleton wave and a returned PHV per frame |
//! | `hotpath/entrywalk_reference` | raw pipeline, the oracle interpreter (linear lookup, clones per table visit) |
//!
//! Run with `cargo bench --bench hotpath`. With the real criterion crate
//! installed, `cargo bench --bench hotpath -- --save-baseline main` saves
//! a named baseline to compare against; under the in-tree shim, use
//! `cargo run --release -p splidt-bench --bin hotpath_smoke` plus
//! `scripts/bench_diff.sh` for before/after comparisons.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use splidt_bench::hotpath::{engine_for, fixture};
use splidt_core::compile;
use splidt_dataplane::pipeline::Pipeline;

fn bench_hotpath(c: &mut Criterion) {
    let (model, frames) = fixture();
    let total_packets = frames.len() as u64;

    let mut group = c.benchmark_group("hotpath");
    group.throughput(Throughput::Elements(total_packets));

    // Engine level: waves vs one packet at a time.
    let mut engine = engine_for(&model);
    group.bench_function("plan_batch", |b| {
        b.iter(|| {
            engine.reset();
            engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests")
        })
    });
    let mut engine = engine_for(&model);
    group.bench_function("single_packet_ingest", |b| {
        b.iter(|| {
            engine.reset();
            for (frame, ts) in &frames {
                engine.ingest(frame, *ts).expect("ingests");
            }
        })
    });

    // Pipeline level: the entry-walking reference.
    let compiled = compile(&model, 1 << 16).expect("compiles");
    let fields = compiled.io.fields;
    let mut pipe = Pipeline::new(compiled.program);
    group.bench_function("entrywalk_reference", |b| {
        b.iter(|| {
            pipe.reset_state();
            for (frame, ts) in &frames {
                pipe.process_packet_entrywalk(frame, *ts, &fields).expect("parses");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hotpath);
criterion_main!(benches);
