//! The ingress service: one receiver thread steering frames off a
//! [`FrameSource`] into per-shard SPSC rings, and one run-to-completion
//! consumer thread per shard draining its ring into the shard's engine.
//!
//! ```text
//!   FrameSource ──▶ receiver ──peek_flow_tuple──▶ ring[hash % N] ─▶ consumer N ─▶ Engine N
//!      (UDP/pcap)      │                              │ (bounded,       (ingest_batch,
//!                      │ malformed? drop+count        │  drop+count      digests, meters)
//!                      ▼                              ▼  when full)
//!                 dropped_malformed            dropped_ring_full
//! ```
//!
//! Invariants the service maintains (and [`IngressStats::reconciles`]
//! checks exactly, no slack):
//!
//! * every received frame is steered into exactly one ring **or** dropped
//!   for exactly one reason: `received == steered + dropped_ring_full +
//!   dropped_malformed`;
//! * shutdown is drain-complete: once the source ends, rings are closed,
//!   consumers drain every queued frame (`consumed == steered`), and the
//!   final digest drain runs before the report is assembled — no frame
//!   and no verdict is stranded in a queue;
//! * the receiver never blocks on a slow shard (rings refuse, never
//!   wait), and the consumer hot path performs zero steady-state heap
//!   allocations (frames are borrowed from ring slots straight into
//!   `Engine::ingest_batch`).
//!
//! Steering is `splidt_core::runtime::shard_of_frame` — the canonical-order
//! flow hash of the data plane's `HashFlow` primitive, shared with
//! `ShardedEngine::ingest_batch` — so a flow's packets always land on the
//! shard that owns its register slot.

use crate::ring::{ring, Consumer, Producer, PushError};
use crate::source::{FrameBurst, FrameSource};
use splidt_core::engine::{BatchReport, Engine, ShardedEngine};
use splidt_core::runtime::{shard_of_frame, EngineSnapshot, IngressShardStats, IngressStats};
use splidt_dataplane::pipeline::Digest;
use std::io;
use std::time::Duration;

/// Ingress service tuning.
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Slots per shard ring.
    pub ring_capacity: usize,
    /// Largest acceptable frame (ring slot size; longer frames are
    /// counted malformed).
    pub max_frame: usize,
    /// Most frames a consumer feeds to `ingest_batch` per drain.
    pub batch: usize,
    /// Most frames the receiver pulls per [`FrameSource::next_burst`]
    /// call (the socket-side burst; `recvmmsg`-style drain for UDP).
    pub recv_burst: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self { ring_capacity: 1024, max_frame: 2048, batch: 256, recv_burst: 32 }
    }
}

/// Everything a finished ingress session produced.
#[derive(Debug, Clone)]
pub struct IngressOutcome {
    /// Front-end accounting (received/steered/dropped per shard).
    pub stats: IngressStats,
    /// Merged pipeline outcomes across shards (packets, drops, digests).
    pub batch: BatchReport,
    /// The engines' merged state after the drain: meters, lifecycle,
    /// slot pressure, swaps. Wire flows have no ground truth, so nothing
    /// is scored.
    pub report: EngineSnapshot,
}

/// How long an idle consumer sleeps before re-polling its ring. Sleeping
/// (rather than spinning) matters on small hosts: the receiver and the
/// consumers share cores with the sender in loopback runs.
const CONSUMER_IDLE: Duration = Duration::from_micros(200);

/// Runs one complete ingress session: receive and steer until `source`
/// ends (file exhausted, stop sentinel, stop flag, or idle exit), then
/// shut down gracefully — stop accepting, close rings, drain every
/// queued frame, final digest drain — and return the reconciled
/// accounting. Only source I/O can fail; a failure still closes the
/// rings and joins the consumers before returning.
pub fn run_ingress<S: FrameSource + Send>(
    engine: &mut ShardedEngine,
    mut source: S,
    cfg: &IngressConfig,
) -> io::Result<IngressOutcome> {
    let n = engine.n_shards();
    let flow_slots = engine.flow_slots();
    let mut producers = Vec::with_capacity(n);
    let mut consumers = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = ring(cfg.ring_capacity, cfg.max_frame);
        producers.push(tx);
        consumers.push(rx);
    }

    let max_frame = cfg.max_frame;
    let batch = cfg.batch;
    let recv_burst = cfg.recv_burst.max(1);
    let (rx_out, shard_outs) = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            receiver_loop(&mut source, &mut producers, flow_slots, max_frame, recv_burst)
        });
        let workers: Vec<_> = engine
            .engines_mut()
            .iter_mut()
            .zip(consumers)
            .map(|(eng, cons)| s.spawn(move || consumer_loop(eng, cons, batch)))
            .collect();
        let rx_out = receiver.join().expect("ingress receiver panicked");
        let shard_outs: Vec<_> =
            workers.into_iter().map(|h| h.join().expect("shard consumer panicked")).collect();
        (rx_out, shard_outs)
    });

    let (io_result, received, dropped_malformed, steered, ring_full) = rx_out;
    io_result?;

    let mut stats = IngressStats {
        received,
        steered: steered.iter().sum(),
        dropped_ring_full: ring_full.iter().sum(),
        dropped_malformed,
        shards: Vec::with_capacity(n),
    };
    let mut batch_report = BatchReport::default();
    for (i, (report, consumed)) in shard_outs.into_iter().enumerate() {
        stats.shards.push(IngressShardStats {
            steered: steered[i],
            dropped_ring_full: ring_full[i],
            consumed,
        });
        batch_report.merge(report);
    }

    Ok(IngressOutcome { stats, batch: batch_report, report: engine.snapshot() })
}

/// The receiver: pull frames a **burst at a time** (one
/// [`FrameSource::next_burst`] wakeup covers every datagram the kernel
/// already queued), validate each with the steering peek, route by
/// canonical flow hash, push without blocking. Closes every ring on the
/// way out — source end *and* source error both drain the consumers.
#[allow(clippy::type_complexity)]
fn receiver_loop<S: FrameSource>(
    source: &mut S,
    producers: &mut [Producer],
    flow_slots: usize,
    max_frame: usize,
    recv_burst: usize,
) -> (io::Result<()>, u64, u64, Vec<u64>, Vec<u64>) {
    let n = producers.len();
    let mut burst = FrameBurst::new(recv_burst, max_frame);
    let mut received = 0u64;
    let mut dropped_malformed = 0u64;
    let mut steered = vec![0u64; n];
    let mut ring_full = vec![0u64; n];
    let result = loop {
        let more = match source.next_burst(&mut burst) {
            Ok(more) => more,
            Err(e) => break Err(e),
        };
        // An exhausted source can still hand back a final partial burst
        // (frames queued ahead of the stop sentinel): steer those too.
        for i in 0..burst.len() {
            let (frame, ts_us) = burst.get(i);
            received += 1;
            let shard = match shard_of_frame(frame, flow_slots, n) {
                Ok(shard) => shard,
                Err(_) => {
                    dropped_malformed += 1;
                    continue;
                }
            };
            match producers[shard].try_push(frame, ts_us) {
                Ok(()) => steered[shard] += 1,
                Err(PushError::Full) => ring_full[shard] += 1,
                // Unreachable with burst slots sized to `max_frame`, but
                // keep the accounting total if the invariant ever changes.
                Err(PushError::TooLong) => dropped_malformed += 1,
            }
        }
        if !more {
            break Ok(());
        }
    };
    for p in producers {
        p.close();
    }
    (result, received, dropped_malformed, steered, ring_full)
}

/// One shard's run-to-completion consumer: drain the ring in batches into
/// the shard engine's allocation-free path; exit only when the ring is
/// closed **and** empty (the graceful-shutdown drain).
fn consumer_loop(engine: &mut Engine, mut ring: Consumer, batch: usize) -> (BatchReport, u64) {
    let mut merged = BatchReport::default();
    let mut consumed = 0u64;
    loop {
        let avail = ring.readable();
        if avail == 0 {
            // Order matters: observe `closed` before re-checking
            // `readable`, so frames pushed before the close are seen.
            if ring.is_closed() && ring.readable() == 0 {
                break;
            }
            std::thread::sleep(CONSUMER_IDLE);
            continue;
        }
        let take = avail.min(batch);
        let report = engine
            .ingest_batch((0..take).map(|i| ring.peek(i)))
            .expect("ingest_batch counts malformed frames instead of failing");
        merged.merge(report);
        consumed += take as u64;
        ring.advance(take);
    }
    (merged, consumed)
}

/// Distinct flows that received a verdict digest, counted exactly as the
/// churn harness does: distinct `(canonical slot, fingerprint)` pairs.
/// `digest_flow_idx`/`digest_fp` come from the engine's compiled IO
/// (`Engine::io`).
pub fn classified_flows(digest_flow_idx: usize, digest_fp: usize, digests: &[Digest]) -> usize {
    let mut seen = std::collections::HashSet::new();
    for d in digests {
        seen.insert((d.values[digest_flow_idx], d.values[digest_fp]));
    }
    seen.len()
}
