//! Network-ingress subsystem tests: ring backpressure (drop-and-count,
//! never block), graceful shutdown (close → drain → report, no digest
//! loss), exact accounting reconciliation against malformed input and
//! across a real loopback socket, and the sharded engine's pre-dispatch
//! malformed counting.

use splidt::flow::{churn, frame_for, ChurnConfig, ChurnSchedule};
use splidt::net::{ring, run_ingress, IngressConfig, PushError, ReplaySource};
use splidt::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// The shared small model (training dominates test time).
fn model() -> &'static PartitionedTree {
    static MODEL: OnceLock<PartitionedTree> = OnceLock::new();
    MODEL.get_or_init(|| {
        let flows = generate(DatasetId::D2, 160, 21);
        let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
        PartitionedTree::fit(&flows, 4, &cfg).expect("trains")
    })
}

fn sharded(n: usize) -> ShardedEngine {
    EngineBuilder::new(model())
        .flow_slots(256)
        .idle_timeout_us(100_000)
        .lifecycle_policy(LifecyclePolicy::tcp())
        .build_sharded(n)
        .expect("compiles")
}

/// A modest churn schedule.
fn schedule(flows: usize, seed: u64) -> ChurnSchedule {
    churn(
        DatasetId::D2,
        &ChurnConfig {
            flows,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            syn_open_frac: 0.95,
            rst_close_frac: 0.25,
            seed,
            ..Default::default()
        },
    )
}

/// [`schedule`] serialized to wire frames in timeline order.
fn wire_frames(flows: usize, seed: u64) -> Vec<(Vec<u8>, u64)> {
    let schedule = schedule(flows, seed);
    schedule.events().into_iter().map(|(ts, i, j)| (frame_for(&schedule.flows[i], j), ts)).collect()
}

#[test]
fn full_ring_drops_and_counts_without_blocking() {
    // No consumer ever drains: every push past capacity must fail fast.
    let (mut tx, rx) = ring(8, 2048);
    let frames = wire_frames(4, 5);
    let mut pushed = 0u64;
    let mut refused = 0u64;
    for (frame, ts) in &frames {
        match tx.try_push(frame, *ts) {
            Ok(()) => pushed += 1,
            Err(PushError::Full) => refused += 1,
            Err(PushError::TooLong) => panic!("fixture frames fit the slots"),
        }
    }
    assert_eq!(pushed, 8, "exactly capacity frames accepted");
    assert_eq!(refused, frames.len() as u64 - 8, "every excess frame refused, none lost track of");
    drop(rx);
}

#[test]
fn ingress_accounting_reconciles_with_malformed_input_mixed_in() {
    let mut engine = sharded(2);
    let mut frames = wire_frames(48, 9);
    // Inject garbage the steering peek must reject: truncated runts and a
    // non-IPv4 ethertype, spread through the timeline.
    let n_bad = 7usize;
    for k in 0..n_bad {
        let pos = k * frames.len() / n_bad;
        let bad = match k % 3 {
            0 => vec![0u8; 9],                 // runt
            1 => vec![0xFFu8; 40],             // bogus ethertype
            _ => frames[pos].0[..20].to_vec(), // truncated mid-header
        };
        let ts = frames[pos].1;
        frames.insert(pos, (bad, ts));
    }
    let total = frames.len() as u64;

    // Rings sized to the whole replay: an in-memory source is not paced,
    // so drop-freedom must come from capacity, not from scheduling luck.
    let cfg = IngressConfig {
        ring_capacity: frames.len(),
        max_frame: 2048,
        batch: 256,
        ..IngressConfig::default()
    };
    let outcome = run_ingress(&mut engine, ReplaySource::new(frames), &cfg).unwrap();
    let stats = &outcome.stats;
    assert_eq!(stats.received, total);
    assert_eq!(stats.dropped_malformed, n_bad as u64);
    assert_eq!(stats.dropped_ring_full, 0, "replay source cannot outrun the consumers");
    assert!(stats.reconciles(), "exact reconciliation: {stats:?}");
    // Every steered frame reached a pipeline: ingress accounting balances
    // against pipeline outcomes end-to-end.
    assert_eq!(outcome.batch.packets + outcome.batch.malformed, stats.steered);
    assert_eq!(outcome.batch.malformed, 0, "receiver already filtered malformed frames");
}

#[test]
fn shutdown_drains_rings_with_no_digest_loss() {
    // Reference: the same frames through ShardedEngine::ingest_batch
    // directly (no rings, no threads hand-off).
    let frames = wire_frames(64, 13);
    let mut reference = sharded(2);
    let ref_report = reference.ingest_batch(&frames).unwrap();

    let mut engine = sharded(2);
    // Rings hold the whole replay (no pacing → capacity is the only
    // drop-freedom guarantee); a tiny batch forces many drain cycles and
    // the final close must still account for *every* frame.
    let cfg = IngressConfig {
        ring_capacity: frames.len(),
        max_frame: 2048,
        batch: 3,
        ..IngressConfig::default()
    };
    let outcome = run_ingress(&mut engine, ReplaySource::new(frames), &cfg).unwrap();

    assert!(outcome.stats.reconciles());
    assert_eq!(outcome.stats.dropped_ring_full, 0);
    assert_eq!(outcome.batch.packets, ref_report.packets);
    // Digest multisets match exactly: nothing stranded in a ring at
    // shutdown, nothing double-consumed. (Order differs: shards drain on
    // independent threads.)
    let mut got: Vec<_> = outcome.batch.digests.iter().map(|d| d.values.clone()).collect();
    let mut want: Vec<_> = ref_report.digests.iter().map(|d| d.values.clone()).collect();
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "graceful shutdown loses no digests");
}

#[test]
fn backpressure_overrun_is_counted_not_fatal() {
    // One slot per ring and single-frame batches with 2 shards: the
    // receiver steers the whole replay while consumers crawl, so some
    // frames MUST hit a full ring — and the accounting must still balance.
    let frames = wire_frames(32, 17);
    let total = frames.len() as u64;
    let mut engine = sharded(2);
    let cfg =
        IngressConfig { ring_capacity: 1, max_frame: 2048, batch: 1, ..IngressConfig::default() };
    let outcome = run_ingress(&mut engine, ReplaySource::new(frames), &cfg).unwrap();
    let stats = &outcome.stats;
    assert!(stats.reconciles(), "drops under pressure still reconcile: {stats:?}");
    assert_eq!(stats.received, total);
    assert_eq!(stats.steered + stats.dropped_ring_full, total);
    // The run completes and classifies what got through.
    assert_eq!(outcome.batch.packets, stats.steered);
}

#[test]
fn sharded_ingest_counts_predispatch_malformed_frames() {
    // Satellite (b): garbage fed straight to ShardedEngine::ingest_batch
    // (no ingress front-end) must be counted in the merged BatchReport,
    // not silently dropped during shard bucketing.
    let mut frames = wire_frames(8, 23);
    frames.insert(3, (vec![0u8; 12], frames[3].1));
    frames.insert(7, (vec![0xEEu8; 30], frames[7].1));
    let total = frames.len() as u64;
    let mut engine = sharded(2);
    let report = engine.ingest_batch(&frames).unwrap();
    assert_eq!(report.malformed, 2, "pre-dispatch rejects are counted");
    assert_eq!(report.packets, total - 2);
}

/// The whole service across a real socket, in process: `replay_udp` on a
/// scoped thread → loopback UDP → `UdpSource` → `run_ingress` → one
/// shard, through the stop-sentinel shutdown. Only the accounting is
/// held exactly: the kernel may drop datagrams a slow receiver leaves
/// queued — loss outside the subsystem's boundary, and every lost packet
/// costs a classified flow — so beyond "some flow classifies" the count
/// is not this test's. The floor is `splidt-serve --expect-classified`'s,
/// the paced lossless count `perf_ledger`'s `ingress` workload's.
#[test]
fn udp_loopback_session_reconciles() {
    let schedule = schedule(96, 29);
    let source =
        UdpSource::bind("127.0.0.1:0").expect("loopback bind").idle_exit(Duration::from_secs(5));
    let addr = source.local_addr().expect("bound socket has an addr");
    let mut engine = sharded(1);
    let cfg = IngressConfig { ring_capacity: 4096, ..IngressConfig::default() };

    let (outcome, sent) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            // ~3.5K pps: slow enough that a debug-build consumer sharing two
            // cores with sibling tests keeps up, so whole flows survive.
            let paced = GenConfig { time_scale: 16.0, ..GenConfig::default() };
            replay_udp(&schedule, addr, &paced).expect("loopback replay").sent
        });
        let outcome = run_ingress(&mut engine, source, &cfg).expect("ingress session");
        (outcome, sender.join().expect("sender panicked"))
    });

    let stats = &outcome.stats;
    assert!(stats.reconciles(), "ingress accounting: {stats:?}");
    let consumed: u64 = stats.shards.iter().map(|sh| sh.consumed).sum();
    assert_eq!(consumed, stats.steered, "every steered frame drained before the report");
    assert!(sent >= stats.received, "sent {sent}, received {}", stats.received);
    assert!(outcome.report.lifecycle.reconciles(), "{:?}", outcome.report.lifecycle);
    assert!(!outcome.batch.digests.is_empty(), "the session must classify flows");
}
