//! Evaluation over the streaming [`engine`](crate::engine): a [`Session`]
//! lays flow traces onto one staggered timeline, serializes them into
//! frames, pushes them through an engine's public `ingest_batch`, collates
//! the digests that come back and scores them against ground truth. The
//! engine only serves; every per-flow and per-verdict record lives in the
//! session, as the paper's testbed keeps them in the collector outside
//! the switch (MoonGen → Tofino1 → digest collection).
//!
//! This is where the core fidelity invariant is checked: *data-plane
//! inference must equal the software reference*
//! ([`PartitionedTree::predict`]) flow-for-flow.
//!
//! The operational half of a report — meters, lifecycle, slot pressure,
//! swaps — is one [`EngineSnapshot`], taken by `Engine::snapshot` or
//! `ShardedEngine::snapshot` and shared with the network ingress service.
//!
//! [`run_flows`] compiles per call; hot paths hold an [`Engine`] and
//! drive it with a [`Session`] (`compile once, run many` — see
//! `docs/engine.md`).

use crate::engine::{BatchReport, Classifier, Engine, EngineBuilder, ShardedEngine};
use crate::error::SplidtError;
use crate::model::PartitionedTree;
use splidt_dataplane::hash::{canonical_order, flow_index, owner_fingerprint};
use splidt_dataplane::parser::{peek_flow_tuple, ParseError};
use splidt_dataplane::pipeline::{Digest, Meters};
use splidt_dt::metrics::macro_f1;
use splidt_flow::{frame_for_into, FlowTrace};
use std::collections::{HashMap, HashSet};

/// Per-flow result of a data-plane run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOutcome {
    /// Ground truth.
    pub label: u16,
    /// First digest's class (None = no digest seen — a bug if it happens).
    pub predicted: Option<u16>,
    /// Software-reference prediction for the same flow.
    pub software: u16,
    /// Digests observed for this flow.
    pub digests: usize,
    /// Time-to-detection: first digest time − first packet time (µs).
    pub ttd_us: Option<u64>,
}

/// Flow-state lifecycle counters: how register slots were claimed,
/// recycled and defended over a session. Sourced from the compiled
/// lifecycle MAT's per-entry hit counters plus the engine's
/// controller-side lane releases, so they reflect what the *data plane*
/// actually did, packet by packet.
///
/// The counters reconcile exactly:
/// `admitted == active_flows + decided_pending + evictions_idle +
/// evictions_decided + evictions_pinned + released_fin`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleStats {
    /// Flows granted a slot (free claims + takeovers) — flows are learned
    /// from the wire, so this counts distinct admissions, not packets.
    pub admitted: u64,
    /// Slots currently owned by a live, undecided flow (lane scan).
    pub active_flows: u64,
    /// Slots whose owner has a verdict but has not been released yet
    /// (drained digests release these; lane scan).
    pub decided_pending: u64,
    /// The pinned subset of `decided_pending`: decided lanes whose class
    /// the policy pins (lane scan; informational, not a separate
    /// reconciliation term).
    pub pinned_pending: u64,
    /// Owners displaced after idling past the compiled timeout.
    pub evictions_idle: u64,
    /// Decided owners whose slot was recycled: in-band takeovers plus
    /// controller releases on digest drain.
    pub evictions_decided: u64,
    /// Pinned lanes retired: takeovers past the pinned timeout plus
    /// explicit operator releases (`Engine::release_pinned`).
    pub evictions_pinned: u64,
    /// Lanes released in-band by a FIN/RST verdict pass — the TCP-aware
    /// policy's fast path: no digest drain, no decided parking.
    pub released_fin: u64,
    /// In-band slot takeovers (idle + decided + pinned) — the subset of
    /// evictions performed by the pipeline itself, without controller
    /// involvement.
    pub takeovers: u64,
    /// Packets of flows that collided with a *live* owner: suppressed and
    /// counted, never merged into the owner's state.
    pub live_collisions: u64,
    /// Non-SYN packets of unknown flows the TCP-aware policy refused to
    /// admit (scan/backscatter traffic); suppressed like collisions.
    pub unsolicited: u64,
    /// Packets suppressed by a pinned lane defending its slot inside the
    /// pinned timeout.
    pub pinned_defended: u64,
    /// Trailing packets of already-decided owners (inert).
    pub post_verdict_pkts: u64,
}

impl LifecycleStats {
    /// Accumulates another shard's counters.
    pub fn merge(&mut self, other: &LifecycleStats) {
        self.admitted += other.admitted;
        self.active_flows += other.active_flows;
        self.decided_pending += other.decided_pending;
        self.pinned_pending += other.pinned_pending;
        self.evictions_idle += other.evictions_idle;
        self.evictions_decided += other.evictions_decided;
        self.evictions_pinned += other.evictions_pinned;
        self.released_fin += other.released_fin;
        self.takeovers += other.takeovers;
        self.live_collisions += other.live_collisions;
        self.unsolicited += other.unsolicited;
        self.pinned_defended += other.pinned_defended;
        self.post_verdict_pkts += other.post_verdict_pkts;
    }

    /// Whether the counters reconcile: every admitted flow is either
    /// still active, decided-but-unreleased, or retired through exactly
    /// one of the eviction/release paths.
    pub fn reconciles(&self) -> bool {
        self.admitted
            == self.active_flows
                + self.decided_pending
                + self.evictions_idle
                + self.evictions_decided
                + self.evictions_pinned
                + self.released_fin
    }
}

// ---------------------------------------------------------------- pressure

/// Hottest slots reported by [`SlotPressure`].
pub const PRESSURE_TOP_K: usize = 8;

/// Histogram buckets: bucket 0 counts pressure-free slots, bucket `i`
/// (1 ≤ i ≤ 15) counts slots with pressure in `[2^(i−1), 2^i)`, and the
/// last bucket collects everything ≥ 2^15.
pub const PRESSURE_HIST_BUCKETS: usize = 17;

/// Per-slot contention telemetry read off the compiled pressure register:
/// how many packets each slot suppressed (live collisions + unsolicited
/// refusals + pinned defenses). Operators size `flow_slots` from this —
/// a fat histogram tail or a hot top-K means the register file is too
/// small for the offered flow churn.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotPressure {
    /// Total suppressed packets across all slots.
    pub total: u64,
    /// The K hottest slots as `(slot, suppressed_packets)`, descending.
    pub hot_slots: Vec<(usize, u64)>,
    /// Pressure histogram over slots (see [`PRESSURE_HIST_BUCKETS`]).
    pub histogram: [u64; PRESSURE_HIST_BUCKETS],
}

impl SlotPressure {
    /// The histogram bucket a pressure count falls into.
    pub fn bucket(pressure: u64) -> usize {
        if pressure == 0 {
            0
        } else {
            (64 - pressure.leading_zeros() as usize).min(PRESSURE_HIST_BUCKETS - 1)
        }
    }

    /// Accumulates another shard's telemetry (slot ids are per-shard).
    pub fn merge(&mut self, other: &SlotPressure) {
        self.total += other.total;
        for (b, v) in self.histogram.iter_mut().zip(other.histogram.iter()) {
            *b += v;
        }
        self.hot_slots.extend(other.hot_slots.iter().copied());
        self.hot_slots.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.hot_slots.truncate(PRESSURE_TOP_K);
    }

    /// The hottest slot's suppressed-packet count (0 when pressure-free).
    pub fn peak(&self) -> u64 {
        self.hot_slots.first().map(|&(_, c)| c).unwrap_or(0)
    }
}

// ----------------------------------------------------------------- ingress

/// One shard's slice of the ingress accounting (see [`IngressStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressShardStats {
    /// Frames steered into this shard's ring.
    pub steered: u64,
    /// Frames dropped because the shard's ring was full (backpressure).
    pub dropped_ring_full: u64,
    /// Frames the consumer drained from the ring into the engine.
    pub consumed: u64,
}

/// Front-end accounting for a network ingress session: every frame the
/// receiver pulled off the wire is steered into exactly one shard ring or
/// dropped for exactly one reason, so the counters reconcile *exactly* —
/// `received == steered + dropped_ring_full + dropped_malformed` — with no
/// best-effort slack anywhere.
///
/// Produced by the `splidt_net` ingress service next to the engines'
/// [`EngineSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Frames received off the source (socket datagrams / pcap records).
    pub received: u64,
    /// Frames that passed the steering peek and entered a shard ring.
    pub steered: u64,
    /// Frames dropped at the rings under backpressure (sum over shards).
    pub dropped_ring_full: u64,
    /// Frames the steering peek rejected (truncated/garbage headers).
    pub dropped_malformed: u64,
    /// Per-shard breakdown, in shard order.
    pub shards: Vec<IngressShardStats>,
}

impl IngressStats {
    /// Whether the counters reconcile exactly: every received frame is
    /// accounted once, the per-shard slices sum to the totals, and every
    /// steered frame was drained by a consumer.
    pub fn reconciles(&self) -> bool {
        let steered: u64 = self.shards.iter().map(|s| s.steered).sum();
        let ring_full: u64 = self.shards.iter().map(|s| s.dropped_ring_full).sum();
        let consumed: u64 = self.shards.iter().map(|s| s.consumed).sum();
        self.received == self.steered + self.dropped_ring_full + self.dropped_malformed
            && steered == self.steered
            && ring_full == self.dropped_ring_full
            && consumed == self.steered
    }
}

/// What an engine reports about itself between batches: meters,
/// flow-state lifecycle, slot pressure and the live-swap counters —
/// merged over shards for a `ShardedEngine` (meters, lifecycle and
/// pressure summed, swaps summed, staging generation the maximum).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// Pipeline meters (packets, passes, resubmissions, digests…).
    pub meters: Meters,
    /// Flow-state lifecycle counters (admissions, evictions, takeovers).
    pub lifecycle: LifecycleStats,
    /// Per-slot contention telemetry (top-K hottest slots + histogram).
    pub slot_pressure: SlotPressure,
    /// Completed live model swaps (see `Engine::swap_staged`).
    pub swaps: u64,
    /// Staging generation: total models ever staged for a live swap
    /// (whether or not they were swapped in).
    pub staged_generation: u64,
}

impl EngineSnapshot {
    /// The snapshot of `shards` merged into one.
    pub(crate) fn merged(shards: &[Engine]) -> Self {
        let mut out = Self::default();
        for s in shards.iter().map(Engine::snapshot) {
            out.meters.merge(&s.meters);
            out.lifecycle.merge(&s.lifecycle);
            out.slot_pressure.merge(&s.slot_pressure);
            out.swaps += s.swaps;
            out.staged_generation = out.staged_generation.max(s.staged_generation);
        }
        out
    }
}

/// Aggregate report of an evaluation [`Session`]: the score, next to the
/// engine's [`EngineSnapshot`] at scoring time.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Macro-F1 of data-plane verdicts.
    pub f1: f64,
    /// Fraction of flows where data-plane class == software class.
    pub software_agreement: f64,
    /// Per-flow outcomes, in admission order.
    pub flows: Vec<FlowOutcome>,
    /// Mean resubmissions per admitted flow.
    pub recirc_per_flow: f64,
    /// Flows dropped due to register-slot collisions (hash collisions are
    /// real behaviour; colliding flows are excluded from scoring).
    pub collisions_skipped: usize,
    /// The engine's operational state when the session scored.
    pub snapshot: EngineSnapshot,
}

/// The canonical register index of a flow (must match the pipeline's
/// `HashFlow` primitive: the 5-tuple is ordered before hashing).
pub fn canonical_flow_index(f: &FlowTrace, slots: usize) -> usize {
    let t = f.tuple;
    let (sip, dip, sp, dp) = canonical_order(t.src_ip, t.dst_ip, t.src_port, t.dst_port);
    flow_index(sip, dip, sp, dp, t.proto, slots)
}

/// The shard a raw frame steers to: its canonically ordered 5-tuple,
/// read off the wire bytes, hashed exactly as [`canonical_flow_index`]
/// (`flow_index(…, flow_slots)`), then `% n_shards`. The one steering
/// rule of `ShardedEngine::ingest_batch` and `splidt_net::run_ingress`.
#[inline]
pub fn shard_of_frame(
    frame: &[u8],
    flow_slots: usize,
    n_shards: usize,
) -> Result<usize, ParseError> {
    let t = peek_flow_tuple(frame)?;
    let (sip, dip, sp, dp) = canonical_order(t.src_ip, t.dst_ip, t.sport, t.dport);
    Ok(flow_index(sip, dip, sp, dp, t.proto, flow_slots) % n_shards)
}

/// The ownership-lane fingerprint of a flow (must match the pipeline's
/// salted `HashFlow` + `Max(·, 1)` sequence bit-for-bit).
pub fn canonical_flow_fp(f: &FlowTrace) -> u64 {
    let t = f.tuple;
    let (sip, dip, sp, dp) = canonical_order(t.src_ip, t.dst_ip, t.src_port, t.dst_port);
    owner_fingerprint(sip, dip, sp, dp, t.proto)
}

// ----------------------------------------------------------------- session

/// Default inter-flow stagger when a [`Session`] lays flows onto one
/// timeline (µs).
pub const DEFAULT_STAGGER_US: u64 = 5_000;

/// Frames per `ingest_batch` call when a [`Session`] feeds its timeline.
/// Batch boundaries only flush the open wave, which is observationally
/// identical to feeding the whole timeline at once.
const FEED_CHUNK: usize = 4_096;

/// An engine a [`Session`] can drive — [`Engine`] or [`ShardedEngine`] —
/// through its public serving surface only.
pub trait SessionEngine {
    /// The engines serving traffic, in shard order (one for an [`Engine`]).
    fn shards(&self) -> &[Engine];

    /// Pushes `(frame, ts_us)` pairs through the engine's `ingest_batch`.
    fn ingest_frames(&mut self, frames: &[(&[u8], u64)]) -> Result<BatchReport, SplidtError>;
}

impl SessionEngine for Engine {
    fn shards(&self) -> &[Engine] {
        std::slice::from_ref(self)
    }

    fn ingest_frames(&mut self, frames: &[(&[u8], u64)]) -> Result<BatchReport, SplidtError> {
        self.ingest_batch(frames.iter().copied())
    }
}

impl SessionEngine for ShardedEngine {
    fn shards(&self) -> &[Engine] {
        self.engines()
    }

    fn ingest_frames(&mut self, frames: &[(&[u8], u64)]) -> Result<BatchReport, SplidtError> {
        self.ingest_batch(frames)
    }
}

/// A flow admitted into a [`Session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Dense per-session flow id (admission order).
    pub id: usize,
    /// Timeline offset assigned to the flow's first packet (µs).
    pub base_us: u64,
    /// Canonical register slot the data plane will hash the flow to.
    pub slot: usize,
}

#[derive(Debug)]
struct Admitted {
    flow: FlowTrace,
    base_us: u64,
    slot: usize,
}

/// One evaluation run: admits labelled flows onto a staggered timeline,
/// feeds them through an engine and scores the engine's verdicts against
/// ground truth and the software model.
///
/// Sessions are cumulative: a second [`Session::run`] admits only flows
/// whose slot is still free (repeats count as collisions), feeds only the
/// newly admitted ones and scores every flow admitted so far. A fresh
/// session over a reset engine starts over.
///
/// Callers that feed frames themselves ([`Session::admit`], then
/// `ingest` / `ingest_batch`) hand every drained digest to
/// [`Session::collate`] before [`Session::report`].
#[derive(Debug)]
pub struct Session {
    stagger_us: u64,
    admitted: Vec<Admitted>,
    /// Admitted flows already fed, so a later `run` never replays them.
    fed: usize,
    /// Canonical slots owned by admitted flows.
    owned: HashSet<usize>,
    collisions_skipped: usize,
    /// Per canonical slot: the earliest digest's `(ts_us, class)` and the
    /// digest count.
    collated: HashMap<u64, ((u64, u16), usize)>,
}

impl Session {
    /// An empty session whose flows start `stagger_us` apart.
    pub fn new(stagger_us: u64) -> Self {
        Self {
            stagger_us,
            admitted: Vec::new(),
            fed: 0,
            owned: HashSet::new(),
            collisions_skipped: 0,
            collated: HashMap::new(),
        }
    }

    /// Admits a flow at the next staggered timeline offset. Returns `None`
    /// (and counts a collision) when the flow's canonical register slot is
    /// already owned by an earlier admitted flow — shared state would
    /// corrupt both, so colliding flows are surfaced, not silently merged.
    pub fn admit<E: SessionEngine>(&mut self, engine: &E, flow: &FlowTrace) -> Option<Admission> {
        let slot = canonical_flow_index(flow, engine.shards()[0].flow_slots());
        if !self.owned.insert(slot) {
            self.collisions_skipped += 1;
            return None;
        }
        let id = self.admitted.len();
        let base_us = 1_000 + id as u64 * self.stagger_us;
        self.admitted.push(Admitted { flow: flow.clone(), base_us, slot });
        Some(Admission { id, base_us, slot })
    }

    /// Collates drained digests by canonical register slot (the slot the
    /// data plane's `HashFlow` computed), so attribution is exact even when
    /// initiator addresses repeat across flows.
    pub fn collate<E: SessionEngine>(&mut self, engine: &E, digests: &[Digest]) {
        let io = engine.shards()[0].io();
        for d in digests {
            let first = (d.ts_us, d.values[io.digest_class] as u16);
            let (earliest, n) =
                self.collated.entry(d.values[io.digest_flow_idx]).or_insert((first, 0));
            if first.0 < earliest.0 {
                *earliest = first;
            }
            *n += 1;
        }
    }

    /// Admits `flows`, feeds every newly admitted flow's packets through
    /// `engine` as one time-ordered timeline (so many flows are in flight
    /// concurrently and register-state separation is genuinely exercised),
    /// and scores.
    pub fn run<E: SessionEngine>(
        &mut self,
        engine: &mut E,
        flows: &[FlowTrace],
    ) -> Result<RuntimeReport, SplidtError> {
        for f in flows {
            self.admit(engine, f);
        }
        self.feed(engine)?;
        Ok(self.report(engine))
    }

    /// Serializes the not-yet-fed flows' merged timeline chunk by chunk
    /// into one reused frame arena and pushes each chunk through the
    /// engine. A parse reject means serializer and parser disagree: the
    /// chunk's other frames still run, then it surfaces.
    fn feed<E: SessionEngine>(&mut self, engine: &mut E) -> Result<(), SplidtError> {
        let mut events: Vec<(u64, usize, usize)> = Vec::new();
        for (i, a) in self.admitted.iter().enumerate().skip(self.fed) {
            events.extend(
                a.flow.packets.iter().enumerate().map(|(j, p)| (a.base_us + p.ts_us, i, j)),
            );
        }
        self.fed = self.admitted.len();
        events.sort_unstable();
        // Frame bytes back to back, and each frame's `(end, ts_us)`.
        let (mut arena, mut ends, mut frame) = (Vec::new(), Vec::new(), Vec::new());
        for chunk in events.chunks(FEED_CHUNK) {
            arena.clear();
            ends.clear();
            for &(ts, i, j) in chunk {
                frame_for_into(&self.admitted[i].flow, j, &mut frame);
                arena.extend_from_slice(&frame);
                ends.push((arena.len(), ts));
            }
            let mut start = 0;
            let batch: Vec<(&[u8], u64)> = ends
                .iter()
                .map(|&(end, ts)| (&arena[std::mem::replace(&mut start, end)..end], ts))
                .collect();
            let report = engine.ingest_frames(&batch)?;
            self.collate(engine, &report.digests);
            if report.malformed > 0 {
                return Err(SplidtError::Config(format!(
                    "{} serialized frames failed to parse",
                    report.malformed
                )));
            }
        }
        Ok(())
    }

    /// Scores every admitted flow against the collated digests: per-flow
    /// verdicts and time to detection, macro-F1, agreement with the
    /// serving model in software, and the engine's snapshot.
    pub fn report<E: SessionEngine>(&self, engine: &E) -> RuntimeReport {
        let shards = engine.shards();
        let mut flows = Vec::with_capacity(self.admitted.len());
        let (mut truth, mut preds, mut agree) = (Vec::new(), Vec::new(), 0usize);
        for a in &self.admitted {
            // The model of the engine (shard) that served the flow.
            let software = shards[a.slot % shards.len()].model().classify_flow(&a.flow).class;
            let seen = self.collated.get(&(a.slot as u64));
            let first = seen.map(|&(first, _)| first);
            let outcome = FlowOutcome {
                label: a.flow.label,
                predicted: first.map(|(_, c)| c),
                software,
                digests: seen.map_or(0, |&(_, n)| n),
                ttd_us: first.map(|(ts, _)| ts.saturating_sub(a.base_us + a.flow.packets[0].ts_us)),
            };
            if let Some(c) = outcome.predicted {
                truth.push(a.flow.label);
                preds.push(c);
                agree += usize::from(c == software);
            }
            flows.push(outcome);
        }
        let n_classes = shards[0].model().n_classes;
        let f1 = if truth.is_empty() { 0.0 } else { macro_f1(&truth, &preds, n_classes) };
        let software_agreement =
            if flows.is_empty() { 1.0 } else { agree as f64 / flows.len() as f64 };
        let snapshot = EngineSnapshot::merged(shards);
        let recirc_per_flow = if flows.is_empty() {
            0.0
        } else {
            snapshot.meters.resubmissions as f64 / flows.len() as f64
        };
        RuntimeReport {
            f1,
            software_agreement,
            flows,
            recirc_per_flow,
            collisions_skipped: self.collisions_skipped,
            snapshot,
        }
    }
}

/// Runs `flows` through a freshly compiled pipeline for `model`: one
/// [`Session`] with flows staggered `stagger_us` apart.
///
/// Thin wrapper over [`EngineBuilder`]: it compiles on every call. Hold an
/// [`Engine`] (or a [`ShardedEngine`]) and drive it with a [`Session`] to
/// compile once instead.
pub fn run_flows(
    model: &PartitionedTree,
    flows: &[FlowTrace],
    flow_slots: usize,
    stagger_us: u64,
) -> Result<RuntimeReport, SplidtError> {
    let mut engine = EngineBuilder::new(model).flow_slots(flow_slots).build()?;
    Session::new(stagger_us).run(&mut engine, flows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SplidtConfig;
    use crate::train::train_partitioned;
    use splidt_flow::features::catalog;
    use splidt_flow::{
        generate, select_flows, spec, stratified_split, windowed_dataset, DatasetId, Dir,
        FiveTuple, TracePacket,
    };

    fn model_and_flows() -> (PartitionedTree, Vec<FlowTrace>) {
        let flows = generate(DatasetId::D2, 260, 33);
        let (tr, te) = stratified_split(&flows, 0.25, 6);
        let nc = spec(DatasetId::D2).n_classes as usize;
        let wd = windowed_dataset(&select_flows(&flows, &tr), 3, nc);
        let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
        let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
        (model, select_flows(&flows, &te))
    }

    #[test]
    fn dataplane_matches_software_reference() {
        let (model, test_flows) = model_and_flows();
        let report = run_flows(&model, &test_flows, 1 << 16, 5_000).unwrap();
        assert_eq!(report.collisions_skipped, 0, "choose more slots");
        // every flow classified exactly once, and exactly like software
        for (i, o) in report.flows.iter().enumerate() {
            assert_eq!(o.digests, 1, "flow {i} produced {} digests", o.digests);
            assert_eq!(
                o.predicted,
                Some(o.software),
                "flow {i}: dataplane {:?} vs software {}",
                o.predicted,
                o.software
            );
        }
        assert!((report.software_agreement - 1.0).abs() < 1e-9);
        assert!(report.f1 > 0.4, "f1 {}", report.f1);
    }

    #[test]
    fn recirculation_counts_match_windows() {
        let (model, test_flows) = model_and_flows();
        let report = run_flows(&model, &test_flows, 1 << 16, 5_000).unwrap();
        // each flow crosses ≤ p−1 window boundaries, each costing one
        // resubmission (early exits can add one terminal resubmission)
        let p = model.n_partitions() as f64;
        assert!(report.recirc_per_flow <= p, "recirc/flow {}", report.recirc_per_flow);
        assert!(report.snapshot.meters.resubmissions > 0);
        // TTD recorded and positive
        assert!(report.flows.iter().all(|o| o.ttd_us.is_some()));
    }

    /// Builds a synthetic TCP flow with a chosen tuple: enough packets in
    /// both directions to cross every window boundary.
    fn flow_with_tuple(src_ip: u32, src_port: u16, dst_ip: u32, label: u16) -> FlowTrace {
        let packets = (0..12u64)
            .map(|i| TracePacket {
                ts_us: i * 120,
                frame_len: 80 + (i as u16 % 5) * 100,
                hdr_len: 58,
                tcp_flags: if i == 0 { 0x02 } else { 0x10 },
                dir: if i % 3 == 2 { Dir::Bwd } else { Dir::Fwd },
            })
            .collect();
        FlowTrace {
            tuple: FiveTuple { src_ip, dst_ip, src_port, dst_port: 443, proto: 6 },
            packets,
            label,
        }
    }

    /// Regression: digests used to be collated by `src.min(dst)` IP, which
    /// silently merged any two flows sharing an initiator IP. Collation is
    /// now keyed by canonical register slot, so flows that differ only in
    /// ports (very common: one client, many connections) stay separate.
    #[test]
    fn shared_initiator_ip_flows_stay_separate() {
        let (model, _) = model_and_flows();
        // Same initiator IP (and even the same responder): only the
        // ephemeral source port differs.
        let a = flow_with_tuple(0x0a00_0001, 40_000, 0x0b00_0001, 0);
        let b = flow_with_tuple(0x0a00_0001, 40_001, 0x0b00_0001, 1);
        let report = run_flows(&model, &[a, b], 1 << 16, 3_000).unwrap();
        assert_eq!(report.collisions_skipped, 0);
        assert_eq!(report.flows.len(), 2);
        for (i, o) in report.flows.iter().enumerate() {
            assert_eq!(o.digests, 1, "flow {i} saw {} digests (mis-collated?)", o.digests);
            assert_eq!(o.predicted, Some(o.software), "flow {i} mis-attributed");
        }
    }
}
