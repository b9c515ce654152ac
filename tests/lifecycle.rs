//! Flow-state lifecycle tests: dynamic admission, idle eviction, slot
//! recycling and live-collision suppression under churn — held
//! observationally equivalent to a software reference flow table, with
//! lifecycle counters that reconcile exactly.

use proptest::prelude::*;
use splidt::dataplane::register::owner_lane;
use splidt::flow::{churn, frame_for, ChurnConfig, Dir, FiveTuple, TracePacket};
use splidt::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The shared small model (training dominates test time; compilation is
/// per-engine so each test picks its own slots/timeout).
fn model() -> &'static PartitionedTree {
    static MODEL: OnceLock<PartitionedTree> = OnceLock::new();
    MODEL.get_or_init(|| {
        let flows = generate(DatasetId::D2, 160, 21);
        let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
        PartitionedTree::fit(&flows, 4, &cfg).expect("trains")
    })
}

/// Builds a synthetic TCP flow with a chosen tuple and packet count:
/// SYN-opened, FIN-closed, ACKs in between.
fn flow_with(src_ip: u32, src_port: u16, n: usize, gap_us: u64) -> FlowTrace {
    let packets = (0..n as u64)
        .map(|i| TracePacket {
            ts_us: i * gap_us,
            frame_len: 80 + (i as u16 % 5) * 100,
            hdr_len: 58,
            tcp_flags: if i == 0 {
                0x02 // SYN
            } else if i == n as u64 - 1 {
                0x11 // FIN|ACK
            } else {
                0x10 // ACK
            },
            dir: if i % 3 == 2 { Dir::Bwd } else { Dir::Fwd },
        })
        .collect();
    FlowTrace {
        tuple: FiveTuple { src_ip, dst_ip: 0x0b00_0001, src_port, dst_port: 443, proto: 6 },
        packets,
        label: 0,
    }
}

/// Finds two flows hashing to the same register slot (different
/// fingerprints) by scanning source ports.
fn colliding_pair(slots: usize) -> (FlowTrace, FlowTrace) {
    let a = flow_with(0x0a00_0001, 40_000, 12, 500);
    let sa = canonical_flow_index(&a, slots);
    for port in 40_001..u16::MAX {
        let b = flow_with(0x0a00_0002, port, 12, 500);
        if canonical_flow_index(&b, slots) == sa && canonical_flow_fp(&b) != canonical_flow_fp(&a) {
            return (a, b);
        }
    }
    unreachable!("no colliding pair found");
}

/// The software reference flow table: the same lane rules the compiled
/// pipeline executes (probe → claim/refresh/suppress; decide on verdict;
/// controller release on flow-end digests), over plain `HashMap` state.
#[derive(Default)]
struct RefTable {
    /// slot → (fp, last_seen_us32, decided)
    lanes: HashMap<usize, (u64, u64, bool)>,
    admitted: u64,
    evictions_idle: u64,
    takeover_decided: u64,
    live_collisions: u64,
    post_verdict: u64,
    released: u64,
}

impl RefTable {
    /// First-pass probe for a packet of flow (slot, fp) at `now`.
    fn probe(&mut self, slot: usize, fp: u64, now: u64, idle_timeout_us: u64) {
        let now32 = now & 0xFFFF_FFFF;
        match self.lanes.get(&slot).copied() {
            None => {
                self.admitted += 1;
                self.lanes.insert(slot, (fp, now32, false));
            }
            Some((stored, _, decided)) if stored == fp => {
                self.post_verdict += u64::from(decided);
                self.lanes.insert(slot, (fp, now32, decided));
            }
            Some((_, _, true)) => {
                self.admitted += 1;
                self.takeover_decided += 1;
                self.lanes.insert(slot, (fp, now32, false));
            }
            Some((_, ts, false)) => {
                if now32.wrapping_sub(ts) & 0xFFFF_FFFF > idle_timeout_us {
                    self.admitted += 1;
                    self.evictions_idle += 1;
                    self.lanes.insert(slot, (fp, now32, false));
                } else {
                    self.live_collisions += 1;
                }
            }
        }
    }

    /// A verdict digest observed for (slot, fp) at `now`: the decide pass
    /// marks the lane; a flow-end digest additionally releases it (the
    /// controller's compare-and-release).
    fn on_digest(&mut self, slot: usize, fp: u64, now: u64, ended: bool) {
        if let Some(&(stored, _, _)) = self.lanes.get(&slot) {
            if stored == fp {
                if ended {
                    self.lanes.remove(&slot);
                    self.released += 1;
                } else {
                    self.lanes.insert(slot, (fp, now & 0xFFFF_FFFF, true));
                }
            }
        }
    }

    fn active(&self) -> u64 {
        self.lanes.values().filter(|(_, _, d)| !d).count() as u64
    }

    fn decided_pending(&self) -> u64 {
        self.lanes.values().filter(|(_, _, d)| *d).count() as u64
    }
}

/// Drives an interleaved packet schedule through an engine per-frame
/// (draining digests after every packet, as a live controller would) and
/// through the reference table, then asserts lane-for-lane and
/// counter-for-counter equivalence.
fn run_equivalence_case(flows: &[FlowTrace], starts: &[u64], slots: usize, idle_timeout_us: u64) {
    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .idle_timeout_us(idle_timeout_us)
        .build()
        .expect("compiles");
    let io = engine.io().clone();
    let mut reference = RefTable::default();

    let mut events: Vec<(u64, usize, usize)> = Vec::new();
    for (i, (f, &base)) in flows.iter().zip(starts).enumerate() {
        for (j, p) in f.packets.iter().enumerate() {
            events.push((base + p.ts_us, i, j));
        }
    }
    events.sort_unstable();

    for (ts, i, j) in events {
        let frame = frame_for(&flows[i], j);
        engine.ingest(&frame, ts).expect("ingests");
        reference.probe(
            canonical_flow_index(&flows[i], slots),
            canonical_flow_fp(&flows[i]),
            ts,
            idle_timeout_us,
        );
        for d in engine.drain_digests() {
            reference.on_digest(
                d.values[io.digest_flow_idx] as usize,
                d.values[io.digest_fp],
                d.ts_us,
                d.values[io.digest_final] == 1,
            );
        }
    }

    // Lane-for-lane equivalence against the live ownership registers.
    let lane_regs = engine.pipeline_registers();
    for slot in 0..slots {
        let cell = lane_regs.read(io.owner_reg.index(), slot);
        match reference.lanes.get(&slot) {
            None => prop_assert_eq!(cell, owner_lane::FREE, "slot {} should be free", slot),
            Some(&(fp, ts, decided)) => {
                prop_assert_eq!(owner_lane::fp(cell), fp, "slot {} fp diverged", slot);
                prop_assert_eq!(owner_lane::last_seen_us(cell), ts, "slot {} ts diverged", slot);
                prop_assert_eq!(owner_lane::decided(cell), decided, "slot {} flag diverged", slot);
            }
        }
    }
    let regs = engine.lifecycle();
    prop_assert!(regs.reconciles(), "engine counters must reconcile: {regs:?}");
    prop_assert_eq!(regs.active_flows, reference.active(), "active lanes diverged");
    prop_assert_eq!(regs.decided_pending, reference.decided_pending(), "decided lanes diverged");
    prop_assert_eq!(
        regs.admitted,
        reference.admitted,
        "admissions diverged (ref: {:?})",
        reference.lanes
    );
    prop_assert_eq!(regs.evictions_idle, reference.evictions_idle, "idle evictions diverged");
    prop_assert_eq!(
        regs.takeovers,
        reference.evictions_idle + reference.takeover_decided,
        "takeovers diverged"
    );
    prop_assert_eq!(
        regs.evictions_decided,
        reference.takeover_decided + reference.released,
        "decided evictions diverged"
    );
    prop_assert_eq!(regs.live_collisions, reference.live_collisions, "collisions diverged");
    prop_assert_eq!(regs.post_verdict_pkts, reference.post_verdict, "post-verdict diverged");
    prop_assert_eq!(
        reference.admitted,
        reference.active()
            + reference.decided_pending()
            + reference.evictions_idle
            + reference.takeover_decided
            + reference.released,
        "reference must reconcile too"
    );
}

proptest! {
    /// Under random churn schedules (tiny slot count forcing collisions,
    /// random timeline compression, random idle timeouts) the compiled
    /// lifecycle stays observationally equivalent to the software
    /// reference flow table, and every counter reconciles.
    #[test]
    fn churn_lifecycle_equals_reference_table(seed in 0u64..24) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n_flows = rng.random_range(6usize..14);
        let slots = 16usize;
        let idle_timeout_us = [30_000u64, 120_000][rng.random_range(0usize..2)];
        let mut flows = generate(DatasetId::D2, n_flows, 1000 + seed);
        // Random timeline compression so lifetimes, gaps and timeouts
        // interleave in varied ways.
        for f in &mut flows {
            let scale = rng.random_range(0.01f64..0.3);
            for p in &mut f.packets {
                p.ts_us = ((p.ts_us as f64) * scale) as u64;
            }
        }
        let starts: Vec<u64> =
            (0..n_flows).map(|i| 1_000 + i as u64 * rng.random_range(1_000u64..60_000)).collect();
        run_equivalence_case(&flows, &starts, slots, idle_timeout_us);
    }
}

/// A churn schedule over few slots (takeovers, refused claims, idle
/// evictions) plus one colliding pair, as `(ts_us, frame)` in timestamp
/// order.
fn churn_frames(seed: u64, slots: usize) -> Vec<(u64, Vec<u8>)> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: rng.random_range(20usize..60),
            mean_arrival_gap_us: rng.random_range(200u64..3_000),
            lifetime_scale: rng.random_range(0.02f64..0.5),
            syn_open_frac: 0.8,
            rst_close_frac: 0.25,
            seed,
            ..Default::default()
        },
    );
    // Short flows (keeping each one's closing packet), so most packets
    // fall inside the first windows, where the boundaries are.
    for f in &mut schedule.flows {
        let keep = rng.random_range(6usize..24);
        if f.packets.len() > keep {
            let last = f.packets.pop().expect("non-empty");
            f.packets.truncate(keep - 1);
            f.packets.push(last);
        }
    }
    let mut frames: Vec<(u64, Vec<u8>)> = schedule
        .events()
        .into_iter()
        .map(|(ts, i, j)| (ts, frame_for(&schedule.flows[i], j)))
        .collect();
    let (a, b) = colliding_pair(slots);
    for (f, base) in [(a, 1_000), (b, 1_000 + rng.random_range(0u64..4_000))] {
        frames
            .extend(f.packets.iter().enumerate().map(|(j, p)| (base + p.ts_us, frame_for(&f, j))));
    }
    frames.sort_by_key(|&(ts, _)| ts);
    frames
}

proptest! {
    /// The boundary gate changes nothing observable: on churn and
    /// collision streams, under both lifecycle policies, at burst 1 and
    /// 32, the compiled (gated) program and the same program with every
    /// gate removed emit the same digests in the same order, leave every
    /// register cell, disposition and meter equal, and count the same
    /// hits and misses on every ungated table. Each gated table is
    /// visited exactly once per boundary pass (the boundary MAT's
    /// `final` and `window` hits), and `model` hits exactly as often as
    /// ungated.
    #[test]
    fn gated_program_equals_ungated(seed in 0u64..12) {
        use splidt::core::{compile_with, CompileOptions};
        use splidt::dataplane::pipeline::{Pipeline, WaveStats};
        use splidt::dataplane::table::Table;

        let slots = 16usize;
        let frames = churn_frames(seed, slots);
        for policy in [LifecyclePolicy::flow_agnostic(), LifecyclePolicy::tcp()] {
            let opts = CompileOptions { flow_slots: slots, idle_timeout_us: 20_000, policy };
            let compiled = compile_with(model(), &opts).expect("compiles");
            let fields = compiled.io.fields;
            let program = compiled.program;
            for (burst, flush_every) in [(1usize, 1usize), (32, 64)] {
                let mut gated = Pipeline::new(program.clone());
                let mut ungated = Pipeline::new(program.clone().ungated());
                gated.set_burst(burst, slots);
                ungated.set_burst(burst, slots);
                let (mut gs, mut us) = (WaveStats::default(), WaveStats::default());
                for (n, (ts, frame)) in frames.iter().enumerate() {
                    gated.wave_push(frame, *ts, &fields, &mut gs).expect("parses");
                    ungated.wave_push(frame, *ts, &fields, &mut us).expect("parses");
                    if (n + 1) % flush_every == 0 || n + 1 == frames.len() {
                        gated.wave_flush(&fields, &mut gs);
                        ungated.wave_flush(&fields, &mut us);
                        prop_assert_eq!(gs, us, "dispositions, burst {} frame {}", burst, n);
                        prop_assert_eq!(
                            gated.take_digests(),
                            ungated.take_digests(),
                            "digests, burst {} frame {}",
                            burst,
                            n
                        );
                    }
                }
                prop_assert_eq!(gated.meters(), ungated.meters(), "meters, burst {}", burst);
                let (gr, ur) = (gated.registers(), ungated.registers());
                for r in 0..gr.len() {
                    for slot in 0..gr.spec(r).len {
                        prop_assert_eq!(
                            gr.read(r, slot),
                            ur.read(r, slot),
                            "register {} slot {}",
                            gr.spec(r).name,
                            slot
                        );
                    }
                }

                let hits = |t: &Table| -> Vec<u64> { t.entries().iter().map(|e| e.hits).collect() };
                let visits = |t: &Table| hits(t).iter().sum::<u64>() + t.misses();
                let (gp, up) = (gated.program(), ungated.program());
                let boundary_passes: u64 = gp
                    .tables()
                    .iter()
                    .find(|t| t.spec().name == "boundary")
                    .expect("boundary MAT")
                    .entries()
                    .iter()
                    .filter(|e| ["final", "window"].contains(&e.action.name.as_str()))
                    .map(|e| e.hits)
                    .sum();
                prop_assert!(boundary_passes > 0, "no boundary pass replayed");
                prop_assert!(boundary_passes < gated.meters().passes, "every pass a boundary");
                for &tid in gp.stages().iter().flat_map(|s| &s.tables) {
                    let (g, u) = (gp.table(tid), up.table(tid));
                    let name = &g.spec().name;
                    if gp.gate(tid).is_none() {
                        prop_assert_eq!((hits(g), g.misses()), (hits(u), u.misses()), "table {}", name);
                        continue;
                    }
                    prop_assert_eq!(visits(g), boundary_passes, "table {} visits", name);
                    prop_assert!(g.misses() <= u.misses(), "table {} misses", name);
                    for (eg, eu) in g.entries().iter().zip(u.entries()) {
                        prop_assert!(eg.hits <= eu.hits, "table {} hits", name);
                    }
                    if name == "model" {
                        prop_assert_eq!(hits(g), hits(u), "model hits");
                    }
                }
            }
        }
    }
}

/// Deterministic idle eviction: a silent owner forfeits its slot, and its
/// late packets are suppressed as live collisions against the new owner.
#[test]
fn idle_owner_is_evicted_and_late_packets_suppressed() {
    let slots = 16;
    let timeout = 50_000u64;
    let (a, b) = colliding_pair(slots);
    let mut engine =
        EngineBuilder::new(model()).flow_slots(slots).idle_timeout_us(timeout).build().unwrap();

    // A sends three packets then goes silent.
    for j in 0..3 {
        engine.ingest(&frame_for(&a, j), 1_000 + a.packets[j].ts_us).unwrap();
    }
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 1);
    assert_eq!(lc.active_flows, 1);

    // B arrives after the timeout: takes the slot over in-pass.
    let b_base = 1_000 + a.packets[2].ts_us + timeout + 1_000;
    for j in 0..3 {
        engine.ingest(&frame_for(&b, j), b_base + b.packets[j].ts_us).unwrap();
    }
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 2);
    assert_eq!(lc.evictions_idle, 1);
    assert_eq!(lc.takeovers, 1);
    assert_eq!(lc.active_flows, 1, "one live owner after the takeover");

    // A limps back while B is live: counted + suppressed, never merged.
    engine.ingest(&frame_for(&a, 3), b_base + 2_000).unwrap();
    let lc = engine.lifecycle();
    assert_eq!(lc.live_collisions, 1);
    assert_eq!(lc.admitted, 2, "the suppressed packet must not re-admit");
    assert!(lc.reconciles(), "{lc:?}");
}

/// Deterministic in-band decided takeover: a flow that finished inside
/// the batch frees its slot for the next colliding flow *without* any
/// controller involvement, and both flows classify.
#[test]
fn decided_slot_is_recycled_in_band() {
    let slots = 16;
    let (a, b) = colliding_pair(slots);
    let mut engine = EngineBuilder::new(model()).flow_slots(slots).build().unwrap();
    let io = engine.io().clone();

    // One batch: all of A (reaches its flow-end verdict), then all of B.
    // Digests drain only at batch end, so B's first packet meets a
    // decided — not released — lane.
    let mut frames: Vec<(Vec<u8>, u64)> = Vec::new();
    let mut t = 1_000;
    for j in 0..a.packets.len() {
        frames.push((frame_for(&a, j), t + a.packets[j].ts_us));
    }
    t += a.packets.last().unwrap().ts_us + 1_000;
    for j in 0..b.packets.len() {
        frames.push((frame_for(&b, j), t + b.packets[j].ts_us));
    }
    let report = engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();

    let classified: std::collections::HashSet<(u64, u64)> = report
        .digests
        .iter()
        .map(|d| (d.values[io.digest_flow_idx], d.values[io.digest_fp]))
        .collect();
    assert_eq!(classified.len(), 2, "both colliding flows must classify");
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 2);
    assert_eq!(lc.takeovers, 1, "B reclaimed A's decided slot in-band");
    assert!(lc.evictions_decided >= 1);
    assert_eq!(lc.live_collisions, 0);
    assert!(lc.reconciles(), "{lc:?}");
}

/// Acceptance (scaled to debug-test budget): an engine with bounded
/// register memory classifies ≥ 8× `flow_slots` distinct flows in one
/// run, with counters that reconcile exactly. The full-size version
/// (256 slots, 4096 flows) is pinned at an exact classified count by
/// `perf_ledger`'s `ingress` workload.
#[test]
fn bounded_slots_classify_8x_distinct_flows() {
    let slots = 64usize;
    // Same slot load factor as that full-size schedule (~0.1 concurrent
    // flows per slot): 64 slots get 4x the arrival gap that 256 slots
    // run with.
    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: 1024,
            mean_arrival_gap_us: 2_000,
            lifetime_scale: 0.05,
            seed: 11,
            ..Default::default()
        },
    );
    let mut engine =
        EngineBuilder::new(model()).flow_slots(slots).idle_timeout_us(100_000).build().unwrap();
    let io = engine.io().clone();
    let frames: Vec<(Vec<u8>, u64)> = schedule
        .events()
        .into_iter()
        .map(|(ts, i, j)| (frame_for(&schedule.flows[i], j), ts))
        .collect();
    let report = engine.ingest_batch(frames.iter().map(|(f, ts)| (f.as_slice(), *ts))).unwrap();

    let classified: std::collections::HashSet<(u64, u64)> = report
        .digests
        .iter()
        .map(|d| (d.values[io.digest_flow_idx], d.values[io.digest_fp]))
        .collect();
    assert!(
        classified.len() >= 8 * slots,
        "only {} distinct flows classified over {} slots",
        classified.len(),
        slots
    );
    let lc = engine.lifecycle();
    assert!(lc.reconciles(), "{lc:?}");
    assert!(lc.admitted >= 8 * slots as u64);
    assert!(lc.takeovers > 0, "slots must actually recycle");
}

// ------------------------------------------------- protocol-aware policy

/// SYN-only admission: pure-ACK scan traffic (mid-capture tails,
/// backscatter) admits **nothing** under the TCP-aware policy — every
/// packet is counted `unsolicited` and suppressed, and the per-slot
/// pressure register carries the same total.
#[test]
fn pure_ack_scan_traffic_admits_nothing() {
    let slots = 64;
    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .lifecycle_policy(LifecyclePolicy::tcp())
        .build()
        .unwrap();
    // A horizontal scan: many distinct tuples, one bare ACK each — plus a
    // few repeats, none of which ever carries SYN.
    let mut packets = 0u64;
    for i in 0..40u32 {
        let mut f = flow_with(0x0a00_0100 + i, 42_000 + i as u16, 3, 500);
        for p in &mut f.packets {
            p.tcp_flags = 0x10; // ACK only
        }
        for j in 0..f.packets.len() {
            engine.ingest(&frame_for(&f, j), 1_000 + j as u64 * 500).unwrap();
            packets += 1;
        }
    }
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 0, "no SYN, no slot: {lc:?}");
    assert_eq!(lc.active_flows, 0);
    assert_eq!(lc.unsolicited, packets);
    assert_eq!(lc.live_collisions, 0);
    assert!(lc.reconciles(), "{lc:?}");
    // Every refusal registered as per-slot pressure.
    let pressure = engine.slot_pressure();
    assert_eq!(pressure.total, packets);
    assert!(pressure.peak() > 0);
    assert_eq!(
        pressure.histogram.iter().sum::<u64>(),
        slots as u64,
        "histogram buckets cover every slot"
    );
    // No digests: nothing was admitted, nothing classified.
    assert!(engine.drain_digests().is_empty());
}

/// In-band FIN release: a flow that closes with FIN has its lane freed on
/// the verdict pass itself — before any digest drains — and the next
/// colliding flow claims the slot as a *free* lane, not a takeover.
#[test]
fn fin_release_frees_slot_for_immediate_reuse() {
    let slots = 16;
    let (a, b) = colliding_pair(slots);
    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .lifecycle_policy(LifecyclePolicy::tcp())
        .build()
        .unwrap();
    let io = engine.io().clone();
    let slot = canonical_flow_index(&a, slots);

    // All of A (SYN-opened, FIN-closed). No digests drained yet.
    for j in 0..a.packets.len() {
        engine.ingest(&frame_for(&a, j), 1_000 + a.packets[j].ts_us).unwrap();
    }
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 1);
    assert_eq!(lc.released_fin, 1, "FIN verdict must release in-band: {lc:?}");
    assert_eq!(lc.decided_pending, 0, "no decided parking on the FIN path");
    assert!(lc.reconciles(), "{lc:?}");
    let lane = engine.pipeline_registers().read(io.owner_reg.index(), slot);
    assert_eq!(lane, owner_lane::FREE, "lane must be free before any drain");

    // B collides into the same slot: a plain free-lane claim.
    let b_base = 1_000 + a.packets.last().unwrap().ts_us + 2_000;
    for j in 0..b.packets.len() {
        engine.ingest(&frame_for(&b, j), b_base + b.packets[j].ts_us).unwrap();
    }
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 2);
    assert_eq!(lc.takeovers, 0, "reuse after FIN release is not a takeover");
    assert_eq!(lc.released_fin, 2, "B closed with FIN too");
    assert!(lc.reconciles(), "{lc:?}");

    // Both flows classified exactly once.
    let classified: std::collections::HashSet<(u64, u64)> = engine
        .drain_digests()
        .iter()
        .map(|d| (d.values[io.digest_flow_idx], d.values[io.digest_fp]))
        .collect();
    assert_eq!(classified.len(), 2);
}

/// Pinned-class lanes survive the ordinary idle timeout: collisions are
/// defended until `pinned_timeout_us`, after which the slot finally
/// recycles (counted separately as a pinned eviction).
#[test]
fn pinned_class_lane_survives_idle_timeout() {
    let slots = 16;
    let idle = 50_000u64;
    let pinned_timeout = 400_000u64;
    let (a, b) = colliding_pair(slots);
    // Pin whatever class the model assigns to A, so A's verdict pins its
    // lane (dataplane == software agreement makes this deterministic).
    let pinned_class = model().classify_flow(&a).class;
    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .idle_timeout_us(idle)
        .lifecycle_policy(
            LifecyclePolicy::tcp().pin_class(pinned_class).pinned_timeout_us(pinned_timeout),
        )
        .build()
        .unwrap();
    let io = engine.io().clone();
    let slot = canonical_flow_index(&a, slots);

    // A completes — its FIN would release the lane, but the pinned class
    // wins: the lane parks decided + pinned.
    for j in 0..a.packets.len() {
        engine.ingest(&frame_for(&a, j), 1_000 + a.packets[j].ts_us).unwrap();
    }
    let a_end = 1_000 + a.packets.last().unwrap().ts_us;
    let lc = engine.lifecycle();
    assert_eq!(lc.released_fin, 0, "pinned verdicts must not release on FIN");
    assert_eq!(lc.decided_pending, 1);
    assert_eq!(lc.pinned_pending, 1);
    let cell = engine.pipeline_registers().read(io.owner_reg.index(), slot);
    assert!(owner_lane::decided(cell) && owner_lane::pinned(cell));
    assert_eq!(owner_lane::class(cell), u64::from(pinned_class));

    // The controller's digest drain must not release a pinned lane.
    engine.drain_digests();
    assert_eq!(engine.lifecycle().pinned_pending, 1, "drain released a pinned lane");

    // B's SYN arrives well past the *idle* timeout but inside the pinned
    // timeout: the lane defends, B is not admitted.
    let b_base = a_end + idle + 10_000;
    assert!(b_base < a_end + pinned_timeout);
    engine.ingest(&frame_for(&b, 0), b_base).unwrap();
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 1, "pinned lane must defend: {lc:?}");
    assert!(lc.pinned_defended >= 1);
    assert!(lc.reconciles(), "{lc:?}");

    // Past the pinned timeout the slot finally recycles.
    let late = a_end + pinned_timeout + 10_000;
    engine.ingest(&frame_for(&b, 0), late).unwrap();
    let lc = engine.lifecycle();
    assert_eq!(lc.admitted, 2, "pinned timeout must finally yield: {lc:?}");
    assert_eq!(lc.evictions_pinned, 1);
    assert_eq!(lc.pinned_pending, 0);
    assert!(lc.reconciles(), "{lc:?}");
}

/// Explicit operator release of a pinned lane frees the slot immediately
/// and keeps the counters reconciled.
#[test]
fn operator_release_frees_pinned_lane() {
    let slots = 16;
    let a = flow_with(0x0a00_0001, 40_000, 12, 500);
    let pinned_class = model().classify_flow(&a).class;
    let mut engine = EngineBuilder::new(model())
        .flow_slots(slots)
        .lifecycle_policy(LifecyclePolicy::tcp().pin_class(pinned_class))
        .build()
        .unwrap();
    let slot = canonical_flow_index(&a, slots);
    for j in 0..a.packets.len() {
        engine.ingest(&frame_for(&a, j), 1_000 + a.packets[j].ts_us).unwrap();
    }
    assert_eq!(engine.lifecycle().pinned_pending, 1);
    assert!(!engine.release_pinned((slot + 1) % slots), "wrong slot: no-op");
    assert!(!engine.release_pinned(slot + slots), "out of range: no-op, never wraps");
    assert_eq!(engine.lifecycle().pinned_pending, 1, "bad slots must not release anything");
    assert!(engine.release_pinned(slot));
    assert!(!engine.release_pinned(slot), "already free: no-op");
    let lc = engine.lifecycle();
    assert_eq!(lc.pinned_pending, 0);
    assert_eq!(lc.evictions_pinned, 1);
    assert!(lc.reconciles(), "{lc:?}");

    // The sharded twin addresses (shard, slot) pairs.
    let mut sharded = EngineBuilder::new(model())
        .flow_slots(slots)
        .lifecycle_policy(LifecyclePolicy::tcp().pin_class(pinned_class))
        .build_sharded(2)
        .unwrap();
    Session::new(DEFAULT_STAGGER_US).run(&mut sharded, std::slice::from_ref(&a)).unwrap();
    assert_eq!(sharded.snapshot().lifecycle.pinned_pending, 1);
    let shard = canonical_flow_index(&a, slots) % 2;
    let shard_slot = canonical_flow_index(&a, slots);
    assert!(!sharded.release_pinned(99, shard_slot), "bad shard: no-op");
    assert!(sharded.release_pinned(shard, shard_slot));
    assert_eq!(sharded.snapshot().lifecycle.pinned_pending, 0);
    assert!(sharded.snapshot().lifecycle.reconciles());
}

/// Ownership lanes read back through the register file agree with the
/// canonical fingerprint helpers (the controller-visible view).
#[test]
fn lanes_carry_canonical_fingerprints() {
    let slots = 1 << 10;
    let f = flow_with(0x0a00_0009, 41_000, 12, 500);
    let mut engine = EngineBuilder::new(model()).flow_slots(slots).build().unwrap();
    engine.ingest(&frame_for(&f, 0), 1_000).unwrap();
    let io = engine.io().clone();
    let slot = canonical_flow_index(&f, slots);
    let cell = engine.pipeline_registers().read(io.owner_reg.index(), slot);
    assert_eq!(owner_lane::fp(cell), canonical_flow_fp(&f));
    assert!(!owner_lane::decided(cell));
    assert_eq!(owner_lane::last_seen_us(cell), 1_000);
}
