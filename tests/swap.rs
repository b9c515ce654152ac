//! Live model swap tests: `Engine::stage_model` → `Engine::swap_staged`
//! must replace the executing program atomically while **carrying** live
//! flow state — ownership lanes, pinned verdicts, lifecycle counters,
//! pending digests — and a reset must discard staged models and tap
//! state so a reset engine is indistinguishable from a fresh one.

use proptest::prelude::*;
use splidt::core::stream::{DigestTap, StreamingTrainer, StreamingTrainerParams};
use splidt::dataplane::pipeline::{Digest, Disposition};
use splidt::dataplane::register::owner_lane;
use splidt::flow::{churn, frame_for, ChurnConfig, DriftProfile};
use splidt::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The live model (shared; training dominates test time).
fn model() -> &'static PartitionedTree {
    static MODEL: OnceLock<PartitionedTree> = OnceLock::new();
    MODEL.get_or_init(|| {
        let flows = generate(DatasetId::D2, 160, 21);
        let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
        PartitionedTree::fit(&flows, 4, &cfg).expect("trains")
    })
}

/// A structurally different replacement model (same config shape, other
/// training data — what a retrain produces).
fn model2() -> &'static PartitionedTree {
    static MODEL: OnceLock<PartitionedTree> = OnceLock::new();
    MODEL.get_or_init(|| {
        let flows = generate(DatasetId::D2, 160, 99);
        let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
        PartitionedTree::fit(&flows, 4, &cfg).expect("trains")
    })
}

/// Pre-serialized `(frame, ts_us)` pairs of a deterministic churn
/// schedule.
fn schedule_frames(flows: usize, seed: u64) -> Vec<(Vec<u8>, u64)> {
    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows,
            drift_at: Some(flows / 2),
            drift_profile: DriftProfile::default(),
            seed,
            ..Default::default()
        },
    );
    schedule.events().into_iter().map(|(ts, i, j)| (frame_for(&schedule.flows[i], j), ts)).collect()
}

fn sort_key(d: &Digest) -> (u64, Vec<u64>) {
    (d.ts_us, d.values.clone())
}

/// Swapping to a **clone of the running model** mid-stream must be
/// perfectly transparent: every disposition, digest and lifecycle
/// counter identical to a never-swapped engine — the strongest form of
/// "only the table contents change".
#[test]
fn swap_to_identical_model_is_transparent() {
    let frames = schedule_frames(48, 5);
    let split = frames.len() / 2;

    let mut plain = EngineBuilder::new(model()).flow_slots(64).build().unwrap();
    let mut swapped = EngineBuilder::new(model()).flow_slots(64).build().unwrap();

    let mut digests_plain = Vec::new();
    let mut digests_swapped = Vec::new();
    for (k, (frame, ts)) in frames.iter().enumerate() {
        if k == split {
            swapped.stage_model(model().clone()).expect("stages");
            swapped.swap_staged().expect("swaps");
            assert_eq!(swapped.swaps(), 1);
        }
        let a = plain.ingest(frame, *ts).expect("ingests").disposition;
        let b = swapped.ingest(frame, *ts).expect("ingests").disposition;
        assert_eq!(a, b, "disposition diverged at packet {k}");
        digests_plain.extend(plain.drain_digests());
        digests_swapped.extend(swapped.drain_digests());
    }
    digests_plain.sort_by_key(sort_key);
    digests_swapped.sort_by_key(sort_key);
    assert_eq!(digests_plain, digests_swapped, "digest streams diverged");
    assert_eq!(plain.lifecycle(), swapped.lifecycle(), "lifecycle diverged");
    assert!(swapped.lifecycle().reconciles());
}

/// Deterministic lane survival: at swap time one lane is mid-flight
/// (active) and one holds a pinned verdict. The flip must leave every
/// ownership-lane cell bit-identical, keep the pinned lane releasable by
/// the operator, and let the active flow finish under the new model in
/// its original slot.
#[test]
fn swap_preserves_pinned_and_active_lanes() {
    let slots = 64usize;
    let flows = generate(DatasetId::D2, 6, 77);
    let (p, q) = (&flows[0], &flows[1]);
    assert_ne!(
        canonical_flow_index(p, slots),
        canonical_flow_index(q, slots),
        "fixture flows must own distinct slots"
    );

    // Learn P's data-plane verdict from a throwaway engine so the real
    // engine can pin exactly that class.
    let p_class = {
        let mut probe = EngineBuilder::new(model()).flow_slots(slots).build().unwrap();
        let io = probe.io().clone();
        for j in 0..p.packets.len() {
            probe.ingest(&frame_for(p, j), 1_000 + p.packets[j].ts_us).unwrap();
        }
        let d = probe.drain_digests();
        assert!(!d.is_empty(), "P must classify");
        d[0].values[io.digest_class] as u16
    };

    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .lifecycle_policy(LifecyclePolicy::default().pin_class(p_class))
        .build()
        .unwrap();
    let io = engine.io().clone();

    // P runs to its verdict: a decided, pinned lane.
    for j in 0..p.packets.len() {
        engine.ingest(&frame_for(p, j), 1_000 + p.packets[j].ts_us).unwrap();
    }
    engine.drain_digests();
    // Q runs half its packets: an active, mid-flight lane.
    let half = q.packets.len() / 2;
    for j in 0..half {
        engine.ingest(&frame_for(q, j), 1_000 + q.packets[j].ts_us).unwrap();
    }

    let p_slot = canonical_flow_index(p, slots);
    let q_slot = canonical_flow_index(q, slots);
    let lanes_before: Vec<u64> =
        (0..slots).map(|s| engine.pipeline_registers().read(io.owner_reg.index(), s)).collect();
    assert!(owner_lane::decided(lanes_before[p_slot]) && owner_lane::pinned(lanes_before[p_slot]));
    assert!(
        !owner_lane::decided(lanes_before[q_slot]) && lanes_before[q_slot] != owner_lane::FREE,
        "Q's lane must be active at swap time"
    );
    let lifecycle_before = engine.lifecycle();

    engine.stage_model(model2().clone()).expect("stages");
    engine.swap_staged().expect("swaps");

    let lanes_after: Vec<u64> =
        (0..slots).map(|s| engine.pipeline_registers().read(io.owner_reg.index(), s)).collect();
    assert_eq!(lanes_before, lanes_after, "ownership lanes must carry bit-identically");
    assert_eq!(lifecycle_before, engine.lifecycle(), "lifecycle counters must carry");

    // Q finishes under the new model: its lane keeps tracking (the cell
    // changes as packets land — it was not orphaned by the swap).
    for j in half..q.packets.len() {
        engine.ingest(&frame_for(q, j), 1_000 + q.packets[j].ts_us).unwrap();
    }
    let q_lane = engine.pipeline_registers().read(io.owner_reg.index(), q_slot);
    assert_ne!(q_lane, lanes_after[q_slot], "Q's lane must keep tracking after the swap");
    assert_eq!(owner_lane::fp(q_lane), canonical_flow_fp(q), "Q still owns its slot");
    engine.drain_digests();

    // The pinned verdict survived the swap and is still the operator's
    // to release.
    assert!(engine.release_pinned(p_slot), "pinned lane must stay releasable");
    assert!(engine.lifecycle().reconciles());
}

/// Regression: `Engine::reset` must discard a staged-but-unswapped model
/// and wipe the attached tap (observations *and* registrations) — a
/// reset engine behaves bit-for-bit like a fresh one.
#[test]
fn reset_clears_staged_model_and_tap() {
    let mut engine = EngineBuilder::new(model()).flow_slots(64).build().unwrap();
    let trainer =
        StreamingTrainer::new(model().config.clone(), 4, &StreamingTrainerParams::default());
    let mut tap = DigestTap::new(trainer);
    let flows = generate(DatasetId::D2, 8, 42);
    for f in &flows {
        tap.register_flow(f);
    }
    engine.attach_tap(tap);

    // Observe some traffic (fills the tap) and stage a model (never
    // swapped).
    for f in &flows {
        for j in 0..f.packets.len() {
            engine.ingest(&frame_for(f, j), 1_000 + f.packets[j].ts_us).unwrap();
        }
        engine.drain_digests();
    }
    assert!(engine.tap().unwrap().stats().fed > 0, "tap must have observed traffic");
    engine.stage_model(model2().clone()).expect("stages");
    assert!(engine.has_staged());
    assert_eq!(engine.staged_generation(), 1);

    engine.reset();

    assert!(!engine.has_staged(), "reset must discard the staged model");
    assert_eq!(engine.staged_generation(), 0);
    assert_eq!(engine.swaps(), 0);
    let stats = engine.tap().unwrap().stats();
    assert_eq!(
        (stats.fed, stats.unmatched, stats.registered),
        (0, 0, 0),
        "reset must wipe tap observations and registrations"
    );
    assert_eq!(engine.tap().unwrap().trainer().n_observed(), 0);

    // And the swap machinery still works from the clean slate.
    engine.stage_model(model2().clone()).expect("stages");
    engine.swap_staged().expect("swaps");
    assert_eq!((engine.swaps(), engine.staged_generation()), (1, 1));
}

/// The compiled per-flow registers coalesce into one flow bank; a swap
/// to an identical register set must carry the **whole arena**
/// bit-identically (the fast path copies cache lines, not logical
/// cells), so every lane, counter and feature slot survives exactly.
#[test]
fn swap_carries_bank_arena_bit_identically() {
    let mut engine = EngineBuilder::new(model()).flow_slots(64).build().unwrap();
    for (frame, ts) in schedule_frames(24, 31) {
        engine.ingest(&frame, ts).unwrap();
    }
    let banks: Vec<Vec<u8>> =
        engine.pipeline_registers().banks().iter().map(|b| b.bytes().collect()).collect();
    assert!(!banks.is_empty(), "compiled registers must have banked");
    assert!(
        banks.iter().any(|b| b.iter().any(|&x| x != 0)),
        "traffic must have left state in the arena"
    );

    engine.stage_model(model().clone()).expect("stages");
    engine.swap_staged().expect("swaps");

    let after: Vec<Vec<u8>> =
        engine.pipeline_registers().banks().iter().map(|b| b.bytes().collect()).collect();
    assert_eq!(banks, after, "the bank arena must carry bit-identically across the swap");
}

/// Regression: `Engine::reset` must zero the **whole** bank arena —
/// every member cell of every slot *and* the stride padding — not just
/// the registers a partial clear would reach. A reset engine's arena is
/// indistinguishable from a fresh allocation.
#[test]
fn reset_zeroes_whole_bank_arena() {
    let mut engine = EngineBuilder::new(model()).flow_slots(64).build().unwrap();
    for (frame, ts) in schedule_frames(24, 31) {
        engine.ingest(&frame, ts).unwrap();
    }
    assert!(
        engine.pipeline_registers().banks().iter().any(|b| b.bytes().any(|x| x != 0)),
        "traffic must have left state in the arena"
    );

    engine.reset();

    for (i, bank) in engine.pipeline_registers().banks().iter().enumerate() {
        assert!(
            bank.bytes().all(|x| x == 0),
            "bank {i}: reset must zero the entire arena, padding included"
        );
    }
}

/// Swapping with nothing staged is an error and leaves the engine
/// serving.
#[test]
fn swap_without_stage_errors() {
    let mut engine = EngineBuilder::new(model()).flow_slots(64).build().unwrap();
    assert!(engine.swap_staged().is_err());
    assert_eq!(engine.swaps(), 0);
    let flows = generate(DatasetId::D2, 2, 3);
    engine.ingest(&frame_for(&flows[0], 0), 1_000).expect("still serves");
}

proptest! {
    /// Swapping mid-batch with digests still pending is equivalent to
    /// draining first and then swapping: pending digests survive the
    /// flip and compare-and-release still fires on the **carried**
    /// lanes, so the merged digest stream, every per-packet disposition
    /// and the final lifecycle counters are identical.
    #[test]
    fn swap_mid_batch_equals_drain_then_swap(seed in 0u64..64, frac in 0.1f64..0.9) {
        let frames = schedule_frames(32, 1_000 + seed);
        let split = ((frames.len() as f64 * frac) as usize).clamp(1, frames.len() - 1);

        let run = |drain_before_swap: bool| {
            let mut engine = EngineBuilder::new(model()).flow_slots(32).build().unwrap();
            let mut digests: Vec<Digest> = Vec::new();
            let mut dispositions: Vec<Disposition> = Vec::new();
            for (k, (frame, ts)) in frames.iter().enumerate() {
                if k == split {
                    // Same drain position in both runs; only its order
                    // relative to the swap differs.
                    if drain_before_swap {
                        digests.extend(engine.drain_digests());
                        engine.stage_model(model2().clone()).expect("stages");
                        engine.swap_staged().expect("swaps");
                    } else {
                        engine.stage_model(model2().clone()).expect("stages");
                        engine.swap_staged().expect("swaps");
                        digests.extend(engine.drain_digests());
                    }
                }
                dispositions.push(engine.ingest(frame, *ts).expect("ingests").disposition);
            }
            digests.extend(engine.drain_digests());
            digests.sort_by_key(sort_key);
            (digests, dispositions, engine.lifecycle())
        };

        let (d_mid, o_mid, l_mid) = run(false);
        let (d_drained, o_drained, l_drained) = run(true);
        prop_assert_eq!(d_mid, d_drained, "digest streams diverged");
        prop_assert_eq!(o_mid, o_drained, "dispositions diverged");
        prop_assert_eq!(l_mid, l_drained, "lifecycle counters diverged");
        prop_assert!(l_mid.reconciles(), "lifecycle must reconcile");
    }
}

/// Drift recovery across a live swap — the whole online-training loop on
/// one deterministic 4,096-flow churn schedule over 256 slots: a
/// batch-trained model serves the first half; at flow 2,048 class
/// behaviour rotates (flows keep their labels, act like the next class)
/// and accuracy under the stale model collapses; the digest tap, reset at
/// the drift alarm so it sees post-drift traffic only, retrains a
/// replacement; `stage_model` compiles it off-thread while live churn
/// keeps flowing; `swap_staged` flips the pipeline and the rest of the
/// schedule measures recovery. The floor is calibrated against the
/// fixture's own pre-drift reference (~0.50 — quantized data-plane
/// inference): the stale model degrades to ~0.15, the retrained one
/// recovers to ~0.43, and the run is deterministic, so 0.35 only needs
/// cross-platform float margin.
#[test]
fn retrained_model_recovers_accuracy_across_live_swap() {
    const FLOWS: usize = 4096;
    const DRIFT_AT: usize = 2048;
    const STAGE_AT: usize = 3072;
    const SWAP_AT: usize = 3328;
    const RECOVERY_FLOOR: f64 = 0.35;

    let train = generate(DatasetId::D2, 220, 7);
    let (tr, _) = stratified_split(&train, 0.6, 2);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&select_flows(&train, &tr), 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: FLOWS,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            drift_at: Some(DRIFT_AT),
            drift_profile: DriftProfile::default(),
            seed: 13,
            ..Default::default()
        },
    );

    let mut engine =
        EngineBuilder::new(&model).flow_slots(256).idle_timeout_us(100_000).build().unwrap();
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

    // Feeds the schedule slice covering flows `lo..hi` through the batch
    // path and scores its verdict digests: `(hits, verdicts)`.
    let labels: HashMap<u64, u16> =
        schedule.flows.iter().map(|f| (canonical_flow_fp(f), f.label)).collect();
    let events = schedule.events();
    let phase = |engine: &mut Engine, lo: usize, hi: usize| {
        let frames: Vec<(Vec<u8>, u64)> = events
            .iter()
            .filter(|&&(_, i, _)| lo <= i && i < hi)
            .map(|&(ts, i, j)| (frame_for(&schedule.flows[i], j), ts))
            .collect();
        let io = engine.io().clone();
        let report =
            engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).expect("ingests");
        let (mut hits, mut verdicts) = (0u64, 0u64);
        for d in &report.digests {
            if let Some(&label) = labels.get(&d.values[io.digest_fp]) {
                verdicts += 1;
                hits += u64::from(d.values[io.digest_class] as u16 == label);
            }
        }
        (hits, verdicts)
    };
    let accuracy = |(hits, verdicts): (u64, u64)| hits as f64 / verdicts.max(1) as f64;

    let pre = phase(&mut engine, 0, DRIFT_AT);
    engine.tap_mut().unwrap().reset_observations();
    let stale = phase(&mut engine, DRIFT_AT, STAGE_AT);

    let tap_fed = engine.tap().unwrap().stats().fed;
    let retrained = engine.tap_mut().unwrap().train().expect("stream retrain");
    engine.stage_model(retrained).expect("stages");
    let staging = phase(&mut engine, STAGE_AT, SWAP_AT);

    // Flow state is carried across the flip, not rebuilt.
    let before = (engine.lifecycle(), engine.slot_pressure().total, engine.meters().packets);
    engine.swap_staged().expect("swaps");
    let after = (engine.lifecycle(), engine.slot_pressure().total, engine.meters().packets);
    assert_eq!(before, after, "lifecycle, pressure and meters must carry across the swap instant");

    let recovered = accuracy(phase(&mut engine, SWAP_AT, FLOWS));
    let degraded = accuracy((stale.0 + staging.0, stale.1 + staging.1));
    println!(
        "accuracy: pre-drift {:.3}, degraded {degraded:.3}, recovered {recovered:.3}",
        accuracy(pre)
    );
    assert!(recovered >= RECOVERY_FLOOR, "recovered {recovered:.3} under {RECOVERY_FLOOR}");
    assert!(recovered > degraded, "recovered {recovered:.3} vs degraded {degraded:.3}");
    assert_eq!(engine.swaps(), 1);
    assert!(tap_fed > 0, "the tap must have fed post-drift flows to the trainer");
    assert!(engine.lifecycle().reconciles(), "{:?}", engine.lifecycle());
}
