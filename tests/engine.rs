//! Integration tests for the streaming engine API: batch-wrapper
//! equivalence, shard-count invariance, streaming ingestion, and the
//! backend-agnostic `Classifier` contract across all five model types.

use splidt::core::runtime::shard_of_frame;
use splidt::flow::frame_for;
use splidt::prelude::*;

fn model_and_flows(n_flows: usize, seed: u64) -> (PartitionedTree, Vec<FlowTrace>) {
    let id = DatasetId::D2;
    let nc = spec(id).n_classes as usize;
    let flows = generate(id, n_flows, seed);
    let (tr, te) = stratified_split(&flows, 0.4, seed ^ 3);
    let train_flows = select_flows(&flows, &tr);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let model = PartitionedTree::fit(&train_flows, nc, &cfg).expect("trains");
    (model, select_flows(&flows, &te))
}

/// The old one-shot `run_flows` and an explicit `EngineBuilder` engine
/// driven by a `Session` must produce identical reports — `run_flows` is
/// now a thin wrapper.
#[test]
fn engine_matches_run_flows() {
    let (model, test_flows) = model_and_flows(260, 11);
    let wrapper = run_flows(&model, &test_flows, 1 << 16, 2_500).unwrap();
    let mut engine = EngineBuilder::new(&model).flow_slots(1 << 16).build().unwrap();
    let direct = Session::new(2_500).run(&mut engine, &test_flows).unwrap();
    assert_eq!(wrapper.flows, direct.flows);
    assert_eq!(wrapper.snapshot.meters, direct.snapshot.meters);
    assert_eq!(wrapper.collisions_skipped, direct.collisions_skipped);
    assert!((wrapper.f1 - direct.f1).abs() < 1e-12);
    assert!((wrapper.software_agreement - direct.software_agreement).abs() < 1e-12);
}

/// Acceptance: a 4-shard engine produces per-flow verdicts identical to
/// the single-shard engine on ≥200 staggered flows, with merged meters.
#[test]
fn sharded_engine_matches_single_shard() {
    let (model, _) = model_and_flows(260, 21);
    // ≥200 staggered flows through both engines.
    let traffic = generate(DatasetId::D2, 230, 77);
    assert!(traffic.len() >= 200);
    let builder = || EngineBuilder::new(&model).flow_slots(1 << 16);
    let single =
        Session::new(1_500).run(&mut builder().build_sharded(1).unwrap(), &traffic).unwrap();
    let mut quad_engine = builder().build_sharded(4).unwrap();
    assert_eq!(quad_engine.n_shards(), 4);
    let quad = Session::new(1_500).run(&mut quad_engine, &traffic).unwrap();

    assert_eq!(single.flows.len(), quad.flows.len());
    assert!(single.flows.len() + single.collisions_skipped == traffic.len());
    // Per-flow verdicts identical, flow for flow.
    for (i, (a, b)) in single.flows.iter().zip(&quad.flows).enumerate() {
        assert_eq!(a, b, "flow {i} diverged between 1 and 4 shards");
    }
    // Merged meters equal the single pipeline's (every packet processed
    // exactly once on exactly one shard).
    assert_eq!(single.snapshot.meters, quad.snapshot.meters);
    assert!((single.f1 - quad.f1).abs() < 1e-12);
    assert_eq!(single.collisions_skipped, quad.collisions_skipped);
    // Work actually spread: with 4 shards no shard saw everything.
    let per_shard: Vec<u64> = quad_engine.shard_meters().iter().map(|m| m.packets).collect();
    assert_eq!(per_shard.iter().sum::<u64>(), quad.snapshot.meters.packets);
    assert!(per_shard.iter().all(|&p| p > 0), "a shard sat idle: {per_shard:?}");
    assert!(per_shard.iter().all(|&p| p < quad.snapshot.meters.packets));
}

/// The sharded engine also matches the plain single-pipeline engine.
#[test]
fn sharded_one_equals_engine() {
    let (model, test_flows) = model_and_flows(220, 31);
    let plain = Session::new(DEFAULT_STAGGER_US)
        .run(&mut EngineBuilder::new(&model).build().unwrap(), &test_flows)
        .unwrap();
    let sharded = Session::new(DEFAULT_STAGGER_US)
        .run(&mut EngineBuilder::new(&model).build_sharded(1).unwrap(), &test_flows)
        .unwrap();
    assert_eq!(plain.flows, sharded.flows);
    assert_eq!(plain.snapshot.meters, sharded.snapshot.meters);
}

/// Streaming ingestion (admit → per-frame ingest → drain → collate →
/// report) equals the batch driver: the engine is genuinely incremental.
#[test]
fn streaming_ingest_equals_batch_run() {
    let (model, test_flows) = model_and_flows(200, 41);
    let mut batch = EngineBuilder::new(&model).build().unwrap();
    let batch_report = Session::new(DEFAULT_STAGGER_US).run(&mut batch, &test_flows).unwrap();

    let mut streaming = EngineBuilder::new(&model).build().unwrap();
    let mut session = Session::new(DEFAULT_STAGGER_US);
    // Admit flows one by one, then feed their frames in timestamp order,
    // draining digests mid-stream to prove collation survives draining.
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    let mut kept: Vec<&FlowTrace> = Vec::new();
    for f in &test_flows {
        if let Some(a) = session.admit(&streaming, f) {
            kept.push(f);
            let idx = kept.len() - 1;
            for (j, p) in f.packets.iter().enumerate() {
                events.push((a.base_us + p.ts_us, idx, j));
            }
        }
    }
    events.sort_unstable();
    let mut drained = 0usize;
    let mut drain = |engine: &mut Engine, session: &mut Session| {
        let digests = engine.drain_digests();
        session.collate(engine, &digests);
        drained += digests.len();
    };
    for (n, (ts, i, j)) in events.iter().enumerate() {
        let frame = frame_for(kept[*i], *j);
        streaming.ingest(&frame, *ts).unwrap();
        if n % 97 == 0 {
            drain(&mut streaming, &mut session);
        }
    }
    drain(&mut streaming, &mut session);
    let streamed = session.report(&streaming);
    assert_eq!(drained as u64, streamed.snapshot.meters.digests);
    assert_eq!(batch_report.flows, streamed.flows);
    assert_eq!(batch_report.snapshot.meters, streamed.snapshot.meters);
}

/// `ingest_batch` is observationally identical to per-frame `ingest` —
/// same meters, same collated digests, same final report — while draining
/// digests once per batch on the allocation-free pipeline path.
#[test]
fn ingest_batch_equals_per_frame_ingest() {
    let (model, test_flows) = model_and_flows(210, 45);
    let build = || EngineBuilder::new(&model).build().unwrap();

    // Schedule identically on both engines.
    let (mut per_frame, mut per_frame_session) = (build(), Session::new(2_000));
    let (mut batched, mut batched_session) = (build(), Session::new(2_000));
    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    let mut kept: Vec<&FlowTrace> = Vec::new();
    for f in &test_flows {
        let a = per_frame_session.admit(&per_frame, f);
        let b = batched_session.admit(&batched, f);
        assert_eq!(a, b);
        if let Some(a) = a {
            kept.push(f);
            let idx = kept.len() - 1;
            for (j, p) in f.packets.iter().enumerate() {
                events.push((a.base_us + p.ts_us, idx, j));
            }
        }
    }
    events.sort_unstable();
    let frames: Vec<(Vec<u8>, u64)> =
        events.iter().map(|&(ts, i, j)| (frame_for(kept[i], j), ts)).collect();

    for (frame, ts) in &frames {
        per_frame.ingest(frame, *ts).unwrap();
    }
    let drained = per_frame.drain_digests();
    per_frame_session.collate(&per_frame, &drained);
    let batch = batched.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();
    batched_session.collate(&batched, &batch.digests);

    assert_eq!(batch.packets as usize, frames.len());
    assert_eq!(batch.digests.len() as u64, batched.meters().digests);
    assert_eq!(per_frame.meters(), batched.meters());
    assert_eq!(per_frame_session.report(&per_frame).flows, batched_session.report(&batched).flows);
}

/// Sharded batch ingest routes every frame to the shard its flow hashes
/// to and produces the same aggregate state as a single-shard engine.
#[test]
fn sharded_ingest_batch_matches_single() {
    let (model, test_flows) = model_and_flows(220, 55);
    let mut single = EngineBuilder::new(&model).build().unwrap();
    let mut session = Session::new(DEFAULT_STAGGER_US);
    let mut frames: Vec<(Vec<u8>, u64)> = Vec::new();
    for f in &test_flows {
        if let Some(a) = session.admit(&single, f) {
            for (j, p) in f.packets.iter().enumerate() {
                frames.push((frame_for(f, j), a.base_us + p.ts_us));
            }
        }
    }
    frames.sort_by_key(|&(_, ts)| ts);
    let single_batch =
        single.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();

    let mut sharded = EngineBuilder::new(&model).build_sharded(4).unwrap();
    let sharded_batch = sharded.ingest_batch(&frames).unwrap();

    assert_eq!(single_batch.packets, sharded_batch.packets);
    assert_eq!(single_batch.drops, sharded_batch.drops);
    // Digest contents (slots, classes, timestamps) must match, not just
    // the count — a shard-routing bug would corrupt values first. Order
    // differs across shards, so compare as sorted multisets.
    let digest_key = |d: &splidt::dataplane::Digest| (d.ts_us, d.values.clone());
    let mut single_digests: Vec<_> = single_batch.digests.iter().map(digest_key).collect();
    let mut sharded_digests: Vec<_> = sharded_batch.digests.iter().map(digest_key).collect();
    single_digests.sort();
    sharded_digests.sort();
    assert_eq!(single_digests, sharded_digests);
    let mut merged = splidt::dataplane::Meters::default();
    for m in sharded.shard_meters() {
        merged.merge(m);
    }
    assert_eq!(&merged, single.meters());
}

/// One steering rule: the shard `runtime::shard_of_frame` reads off each
/// wire frame of a flow, in both directions (what `ingest_batch` and
/// `run_ingress` steer by), is the shard `shard_of` assigns the flow.
#[test]
fn wire_steering_agrees_with_shard_of() {
    let (model, _) = model_and_flows(200, 93);
    let traffic = generate(DatasetId::D2, 200, 95);
    for n in [1usize, 3, 4] {
        let sharded = EngineBuilder::new(&model).build_sharded(n).unwrap();
        let mut hit = vec![false; n];
        for f in &traffic {
            let shard = sharded.shard_of(f);
            hit[shard] = true;
            for j in 0..f.packets.len() {
                let frame = frame_for(f, j);
                assert_eq!(shard_of_frame(&frame, sharded.flow_slots(), n), Ok(shard));
            }
        }
        assert!(hit.iter().all(|&h| h), "{n} shards: some shard steered no flow");
    }
}

/// A reset engine reuses its compiled program and reproduces the run.
#[test]
fn reset_reuses_compilation() {
    let (model, test_flows) = model_and_flows(200, 51);
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let first = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
    engine.reset();
    assert_eq!(engine.lifecycle().admitted, 0);
    let second = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
    assert_eq!(first.flows, second.flows);
    assert_eq!(first.snapshot.meters, second.snapshot.meters);
}

/// Regression: `reset` must clear the flow-state lifecycle too — slot
/// fingerprints, decided flags, and every counter — so a previously
/// *decided* flow re-admits and re-classifies after a reset instead of
/// being treated as a stale owner.
#[test]
fn reset_clears_lifecycle_and_readmits_decided_flow() {
    let (model, test_flows) = model_and_flows(200, 57);
    let one_flow = &test_flows[..1];
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let first = Session::new(DEFAULT_STAGGER_US).run(&mut engine, one_flow).unwrap();
    assert_eq!(first.flows[0].digests, 1);
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 1);
    // The verdict retires the slot: released outright (flow-end digest)
    // or parked decided (early exit, reclaimable on sight) — never still
    // active.
    assert_eq!(lc.active_flows, 0, "a decided flow must not stay active: {lc:?}");
    assert!(lc.evictions_decided + lc.decided_pending >= 1, "{lc:?}");
    assert!(lc.reconciles(), "{lc:?}");

    engine.reset();
    let cleared = engine.lifecycle();
    assert_eq!(cleared, splidt::core::LifecycleStats::default(), "reset must zero the lifecycle");

    // The same (previously decided) flow admits and classifies again.
    let second = Session::new(DEFAULT_STAGGER_US).run(&mut engine, one_flow).unwrap();
    assert_eq!(second.flows, first.flows);
    assert_eq!(second.flows[0].digests, 1, "re-admitted flow must re-classify exactly once");
    assert_eq!(engine.lifecycle().admitted, 1);
}

/// Flows are learned from the wire: ingesting frames of flows that were
/// never pre-registered still claims slots, classifies, and reports
/// verdict digests with exact slot/fingerprint attribution.
#[test]
fn unregistered_flows_are_learned_from_the_wire() {
    let (model, test_flows) = model_and_flows(210, 63);
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    let io = engine.io().clone();
    let subset = &test_flows[..6];
    let mut frames: Vec<(Vec<u8>, u64)> = Vec::new();
    for (i, f) in subset.iter().enumerate() {
        let base = 1_000 + i as u64 * 2_000;
        for j in 0..f.packets.len() {
            frames.push((frame_for(f, j), base + f.packets[j].ts_us));
        }
    }
    frames.sort_by_key(|&(_, ts)| ts);
    // No session admits anything: the data plane learns the flows itself.
    let report = engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, subset.len() as u64);
    assert!(lc.reconciles(), "{lc:?}");
    let classified: std::collections::HashSet<u64> =
        report.digests.iter().map(|d| d.values[io.digest_flow_idx]).collect();
    assert_eq!(classified.len(), subset.len(), "every learned flow classifies");
    for f in subset {
        let slot = splidt::core::canonical_flow_index(f, engine.flow_slots()) as u64;
        assert!(classified.contains(&slot), "flow missing from digests");
    }
}

/// Sessions are cumulative: a second `run` in the same session admits
/// nothing new for repeated flows, never replays packets, and the sharded
/// engine agrees with the single-shard one on the merged report.
#[test]
fn repeated_run_without_reset_is_cumulative() {
    let (model, test_flows) = model_and_flows(210, 91);
    let mut single = EngineBuilder::new(&model).build().unwrap();
    let mut session = Session::new(DEFAULT_STAGGER_US);
    let first = session.run(&mut single, &test_flows).unwrap();
    let second = session.run(&mut single, &test_flows).unwrap();
    assert_eq!(first.flows, second.flows, "re-run must not change outcomes");
    assert_eq!(first.snapshot.meters, second.snapshot.meters, "re-run must not replay packets");
    assert_eq!(second.collisions_skipped, first.collisions_skipped + test_flows.len());

    let mut sharded = EngineBuilder::new(&model).build_sharded(3).unwrap();
    let mut session = Session::new(DEFAULT_STAGGER_US);
    let s1 = session.run(&mut sharded, &test_flows).unwrap();
    let s2 = session.run(&mut sharded, &test_flows).unwrap();
    assert_eq!(s1.flows, s2.flows);
    assert_eq!(s1.snapshot.meters, s2.snapshot.meters);
    assert_eq!(s2.collisions_skipped, s1.collisions_skipped + test_flows.len());
    assert_eq!(s1.flows, first.flows, "sharded and single shard diverged");
}

/// Malformed frames are recoverable errors, not panics.
#[test]
fn malformed_frames_are_recoverable() {
    let (model, test_flows) = model_and_flows(200, 61);
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    assert!(matches!(engine.ingest(&[0u8; 9], 1_000), Err(SplidtError::Parse(_))));
    // The engine keeps working after the error.
    let report = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
    assert!((report.software_agreement - 1.0).abs() < 1e-9);
}

/// Invalid configurations surface as typed errors.
#[test]
fn builder_rejects_bad_config() {
    let (model, _) = model_and_flows(200, 71);
    assert!(matches!(
        EngineBuilder::new(&model).flow_slots(1000).build(),
        Err(SplidtError::Compile(_))
    ));
    assert!(matches!(EngineBuilder::new(&model).build_sharded(0), Err(SplidtError::Config(_))));
}

/// All five model families train and classify through the uniform
/// `Trainable`/`Classifier` contract.
#[test]
fn classifier_round_trip_over_all_backends() {
    let id = DatasetId::D2;
    let nc = spec(id).n_classes as usize;
    let flows = generate(id, 600, 17);
    let (tr, te) = stratified_split(&flows, 0.3, 3);
    let train_flows = select_flows(&flows, &tr);
    let test_flows = select_flows(&flows, &te);

    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let models: Vec<Box<dyn Classifier>> = vec![
        Box::new(PartitionedTree::fit(&train_flows, nc, &cfg).unwrap()),
        Box::new(NetBeacon::fit(&train_flows, nc, &NetBeaconParams::default()).unwrap()),
        Box::new(Leo::fit(&train_flows, nc, &LeoParams::default()).unwrap()),
        Box::new(PerPacket::fit(&train_flows, nc, &8).unwrap()),
        Box::new(Ideal::fit(&train_flows, nc, &14).unwrap()),
    ];
    let names: Vec<&str> = models.iter().map(|m| m.name()).collect();
    assert_eq!(names, vec!["splidt", "netbeacon", "leo", "per-packet", "ideal"]);
    for m in &models {
        assert_eq!(m.n_classes(), nc);
        // classify every test flow; verdicts must be valid classes
        for f in &test_flows {
            assert!((m.classify_flow(f).class as usize) < nc, "{} out of range", m.name());
        }
        let f1 = m.evaluate_flows(&test_flows);
        assert!((0.0..=1.0).contains(&f1), "{}: f1 {f1}", m.name());
        assert!(f1 > 0.15, "{}: above chance, got {f1}", m.name());
    }
    // Deployable models report footprints; unconstrained ones don't.
    assert!(models[0].footprint().is_some());
    assert!(models[1].footprint().is_some());
    assert!(models[2].footprint().is_some());
    assert!(models[3].footprint().is_none());
    assert!(models[4].footprint().is_none());
    // SpliDT's verdicts through the trait equal direct software inference
    // (training is deterministic, so refitting yields the same model).
    let splidt = &models[0];
    let direct = PartitionedTree::fit(&train_flows, nc, &cfg).unwrap();
    for f in test_flows.iter().take(40) {
        assert_eq!(
            splidt.classify_flow(f).class,
            direct.classify_flow(f).class,
            "trait and direct inference diverged"
        );
    }
}

/// Defaults are sane and exported.
#[test]
fn builder_defaults() {
    let (model, test_flows) = model_and_flows(200, 81);
    let mut engine = EngineBuilder::new(&model).build().unwrap();
    assert_eq!(engine.flow_slots(), 1 << 16);
    assert_eq!(DEFAULT_STAGGER_US, 5_000);
    let report = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
    assert_eq!(report.collisions_skipped, 0);
    assert!(report.flows.iter().all(|o| o.digests == 1));
}

/// The burst knob changes execution scheduling, never observable
/// behavior: the same frame schedule at burst 1 (scalar), 8, and 64
/// produces identical reports, meters, flow outcomes, and the **exact**
/// digest stream (a single engine flushes waves in arrival order).
#[test]
fn burst_sizes_are_observationally_identical() {
    let (model, test_flows) = model_and_flows(210, 61);
    let run_at = |burst: usize| {
        let mut engine = EngineBuilder::new(&model).burst(burst).build().unwrap();
        let mut session = Session::new(2_000);
        assert_eq!(engine.burst(), burst);
        let mut frames: Vec<(Vec<u8>, u64)> = Vec::new();
        for f in &test_flows {
            if let Some(a) = session.admit(&engine, f) {
                for (j, p) in f.packets.iter().enumerate() {
                    frames.push((frame_for(f, j), a.base_us + p.ts_us));
                }
            }
        }
        frames.sort_by_key(|&(_, ts)| ts);
        let batch = engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();
        session.collate(&engine, &batch.digests);
        let meters = engine.meters().clone();
        (batch, meters, session.report(&engine).flows)
    };
    let (b1, m1, f1) = run_at(1);
    for burst in [8usize, 64] {
        let (b, m, f) = run_at(burst);
        assert_eq!(b1.packets, b.packets, "burst {burst} packet count diverged");
        assert_eq!(b1.drops, b.drops);
        assert_eq!(b1.resubmit_limited, b.resubmit_limited);
        assert_eq!(b1.malformed, b.malformed);
        assert_eq!(b1.digests, b.digests, "burst {burst} digest stream diverged");
        assert_eq!(m1, m, "burst {burst} meters diverged");
        assert_eq!(f1, f, "burst {burst} flow outcomes diverged");
    }
}
