//! Batch runtime wrappers over the streaming [`engine`](crate::engine):
//! serialize flow traces into frames, interleave them on a shared
//! timeline, push them through the compiled pipeline, and score the
//! digests against ground truth.
//!
//! This is the reproduction's equivalent of the paper's testbed run
//! (MoonGen → Tofino1 → digest collection), and the place where the core
//! fidelity invariant is checked: *data-plane inference must equal the
//! software reference* ([`PartitionedTree::predict`]) flow-for-flow.
//!
//! [`run_flows`] compiles per call; hot paths should hold an
//! [`Engine`] and reuse it (`compile once, run
//! many` — see `docs/engine.md`). Feeding streams the timeline through the
//! same wave path as [`Engine::ingest_batch`], which executes the compiled
//! [`ExecPlan`](splidt_dataplane::plan::ExecPlan) with zero heap
//! allocations per steady-state packet.

use crate::compile::CompiledModel;
use crate::engine::{Engine, EngineBuilder};
use crate::error::SplidtError;
use crate::model::PartitionedTree;
use splidt_dataplane::hash::{canonical_order, flow_index, owner_fingerprint};
use splidt_dataplane::parser::{peek_flow_tuple, ParseError};
use splidt_dataplane::pipeline::Meters;
use splidt_flow::FlowTrace;

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
/// Produced by the `splidt_net` ingress service and carried on
/// [`RuntimeReport::ingress`] (`None` for in-process runs with no network
/// front-end).
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

/// Aggregate report of a data-plane run.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Macro-F1 of data-plane verdicts.
    pub f1: f64,
    /// Fraction of flows where data-plane class == software class.
    pub software_agreement: f64,
    /// Per-flow outcomes.
    pub flows: Vec<FlowOutcome>,
    /// Pipeline meters (packets, passes, resubmissions, digests…).
    pub meters: Meters,
    /// Mean resubmissions per flow.
    pub recirc_per_flow: f64,
    /// Flows dropped due to register-slot collisions (hash collisions are
    /// real behaviour; colliding flows are excluded from scoring).
    pub collisions_skipped: usize,
    /// Flow-state lifecycle counters (admissions, evictions, takeovers).
    pub lifecycle: LifecycleStats,
    /// Per-slot contention telemetry (top-K hottest slots + histogram).
    pub slot_pressure: SlotPressure,
    /// Network-ingress accounting when the run was fed off a wire source
    /// (`None` for in-process runs).
    pub ingress: Option<IngressStats>,
    /// Completed live model swaps during the session (see
    /// `Engine::swap_staged`).
    pub swaps: u64,
    /// Staging generation of the engine: total models ever staged for a
    /// live swap (whether or not they were swapped in).
    pub staged_generation: u64,
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

/// Runs `flows` through a freshly compiled pipeline for `model`.
///
/// Flows are staggered `stagger_us` apart and their packets merged into one
/// timeline, so many flows are in flight concurrently and register-state
/// separation is genuinely exercised.
///
/// Thin wrapper over [`EngineBuilder`]: it compiles on every call. Hold an
/// [`Engine`] (or a [`ShardedEngine`](crate::engine::ShardedEngine)) to
/// compile once and stream instead.
pub fn run_flows(
    model: &PartitionedTree,
    flows: &[FlowTrace],
    flow_slots: usize,
    stagger_us: u64,
) -> Result<RuntimeReport, SplidtError> {
    EngineBuilder::new(model).flow_slots(flow_slots).stagger_us(stagger_us).build()?.run(flows)
}

/// Like [`run_flows`] but reusing an already-compiled model.
pub fn run_flows_compiled(
    model: &PartitionedTree,
    compiled: CompiledModel,
    flows: &[FlowTrace],
    stagger_us: u64,
) -> Result<RuntimeReport, SplidtError> {
    Engine::from_compiled(model.clone(), compiled, stagger_us).run(flows)
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
        assert!(report.meters.resubmissions > 0);
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
