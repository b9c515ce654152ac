//! The four workload recipes, copied here on purpose: a later edit to
//! `splidt_bench::{hotpath, churn, ingress}` must not change what a
//! workload measures, so nothing in this benchmark uses that crate. The
//! library only ever sees the generated frames.
//!
//! `--seed` regenerates every workload's **traffic** (flows, churn
//! schedule, frames, timeline). The **model** is trained from
//! [`MODEL_SEED`] whatever `--seed` says: it is part of what a workload
//! *is*. Measured before deciding: with the model drawn from `--seed`
//! too, `pps` moved ±11 % from seed to seed on `mice` (a 132-flow
//! training set grows a differently shaped tree each time) against
//! ±1.5 % with the model held — and a benchmark whose workloads change
//! shape with the seed cannot hold a bound tighter than that.
//!
//! Seed 7 is the development seed (the sizes quoted below are at seed 7);
//! seed 11 is the held-out seed a later claim must also hold on.

use crate::spec::Workload;
use splidt_core::engine::{Engine, EngineBuilder, ShardedEngine};
use splidt_core::runtime::canonical_flow_index;
use splidt_core::{train_partitioned, LifecyclePolicy, PartitionedTree, SplidtConfig};
use splidt_flow::{
    catalog, churn, frame_for_into, generate, select_flows, spec, stratified_split,
    windowed_dataset, ChurnConfig, DatasetId, FlowTrace,
};
use std::collections::HashSet;
use std::time::Instant;

/// Every workload draws from the D2 dataset analog.
const DATASET: DatasetId = DatasetId::D2;

/// When the first admitted flow of `wide` and `scaled` starts (µs).
const FIRST_START_US: u64 = 1_000;

/// `wide`: gap between consecutive flows' starts (µs). Flows last ~350 ms,
/// so a few hundred are live at a time and their state stays in L1/L2.
const WIDE_STAGGER_US: u64 = 1_000;

/// `scaled`: flows generated, and the packets kept of each. Every flow
/// starts at the same instant, so all of them are live at once and a
/// flow's next packet comes after a packet of every other flow: ~115K
/// bank lines (7 MiB, several times a 2 MiB L2) are touched between two
/// visits to the same line. The cut to 16 packets is what keeps that many
/// concurrent flows to 1.8M frames (0.5 GB) a pass; whole flows (~80
/// packets) would need 9M.
const SCALED_FLOWS: usize = 1 << 17;
const SCALED_PACKETS: usize = 16;

/// Seed of every model's training flows (see the module docs).
const MODEL_SEED: u64 = 7;

/// Shuffle seed of every stratified split: a constant of the recipes.
const SPLIT_SEED: u64 = 2;

/// Traffic and churn schedules are drawn from `--seed` plus this, so that
/// at the development seed the model never saw the flows it classifies.
const TRAFFIC_SEED_OFFSET: u64 = 4;

/// Ownership-lane idle timeout of `mice` and `ingress` (µs).
const IDLE_TIMEOUT_US: u64 = 100_000;

/// `ingress`: the verdict class whose lanes are pinned, and for how long.
const PINNED_CLASS: u16 = 3;
const PINNED_TIMEOUT_US: u64 = 150_000;

/// `mice`: every trace is cut to this many packets before serialisation.
const MICE_PACKETS: usize = 6;

/// Pre-serialised frames in timeline order: one contiguous byte arena
/// plus `(offset, length, ts_us)` per frame, so a pass streams memory the
/// way a receive ring would.
#[derive(Debug, Default)]
pub struct Frames {
    bytes: Vec<u8>,
    index: Vec<FrameRef>,
}

#[derive(Debug, Clone, Copy)]
struct FrameRef {
    off: u32,
    len: u16,
    ts_us: u64,
}

impl Frames {
    /// Serialises `events` — `(ts_us, flow, packet)` in timeline order —
    /// over `flows`.
    fn serialise(events: &[(u64, usize, usize)], flows: &[FlowTrace]) -> Self {
        let total: usize = events
            .iter()
            .map(|&(_, i, j)| {
                flows[i].packets[j].frame_len.max(splidt_flow::FRAME_HDR_LEN) as usize
            })
            .sum();
        assert!(total <= u32::MAX as usize, "frame arena exceeds the 32-bit offsets");
        let mut out = Frames { bytes: Vec::with_capacity(total), index: Vec::new() };
        let mut buf = Vec::new();
        for &(ts_us, i, j) in events {
            frame_for_into(&flows[i], j, &mut buf);
            out.push(&buf, ts_us);
        }
        out
    }

    /// Appends one frame.
    pub fn push(&mut self, frame: &[u8], ts_us: u64) {
        let off = u32::try_from(self.bytes.len()).expect("frame arena exceeds the 32-bit offsets");
        let len = u16::try_from(frame.len()).expect("frame longer than 64 KiB");
        self.index.push(FrameRef { off, len, ts_us });
        self.bytes.extend_from_slice(frame);
    }

    /// Frames held.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Frame `i` as `(bytes, ts_us)`.
    #[inline]
    pub fn get(&self, i: usize) -> (&[u8], u64) {
        let r = self.index[i];
        (&self.bytes[r.off as usize..r.off as usize + r.len as usize], r.ts_us)
    }
}

/// Seconds each set-up phase took (the `--trace 1` rows that explain
/// `setup_s`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `generate` / `churn` plus splitting.
    pub generate_s: f64,
    /// Windowing plus `train_partitioned`.
    pub fit_s: f64,
    /// Admission, timeline merge and frame serialisation.
    pub serialize_s: f64,
}

/// One workload's generated inputs and engine configuration.
pub struct Fixture {
    /// The trained model.
    pub model: PartitionedTree,
    /// The frames of one pass.
    pub frames: Frames,
    /// `wide`/`scaled`: the collision-admitted flows behind `frames`, for
    /// the verdict-agreement gate. Empty on `mice`/`ingress`.
    pub admitted: Vec<FlowTrace>,
    /// Register depth.
    pub flow_slots: usize,
    idle_timeout_us: Option<u64>,
    policy: LifecyclePolicy,
    /// Where set-up time went.
    pub phases: Phases,
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Trains a `partitions`/`k` model on `flows`.
fn fit(
    flows: &[FlowTrace],
    partitions: &[usize],
    k: usize,
    phases: &mut Phases,
) -> PartitionedTree {
    timed(&mut phases.fit_s, || {
        let cfg = SplidtConfig { partitions: partitions.to_vec(), k, ..Default::default() };
        let n_classes = spec(DATASET).n_classes as usize;
        let wd = windowed_dataset(flows, partitions.len(), n_classes);
        train_partitioned(&wd, &cfg, &catalog().hardware_eligible())
    })
}

/// The small model (`[2,2,2]`, k=4) trained on the train side of a
/// `test_frac` split of 220 flows.
fn small_model(test_frac: f64, phases: &mut Phases) -> PartitionedTree {
    let train = timed(&mut phases.generate_s, || {
        let flows = generate(DATASET, 220, MODEL_SEED);
        let (tr, _) = stratified_split(&flows, test_frac, SPLIT_SEED);
        select_flows(&flows, &tr)
    });
    fit(&train, &[2, 2, 2], 4, phases)
}

/// Collision-admits `traffic` over `slots` (first flow per canonical slot
/// wins, as `Engine::admit` decides it), starts the admitted flows
/// `stagger_us` apart and serialises their merged timeline.
fn admit_and_serialise(
    traffic: Vec<FlowTrace>,
    slots: usize,
    stagger_us: u64,
) -> (Vec<FlowTrace>, Frames) {
    let mut owned = HashSet::new();
    let admitted: Vec<FlowTrace> =
        traffic.into_iter().filter(|f| owned.insert(canonical_flow_index(f, slots))).collect();
    let mut events = Vec::with_capacity(admitted.iter().map(FlowTrace::size_pkts).sum());
    for (i, f) in admitted.iter().enumerate() {
        let base = FIRST_START_US + i as u64 * stagger_us;
        events.extend(f.packets.iter().enumerate().map(|(j, p)| (base + p.ts_us, i, j)));
    }
    events.sort_unstable();
    let frames = Frames::serialise(&events, &admitted);
    (admitted, frames)
}

impl Fixture {
    /// Generates the fixture of `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64) -> Fixture {
        match workload {
            Workload::Wide => Self::wide(seed),
            Workload::Scaled => Self::scaled(seed),
            Workload::Mice => Self::mice(seed),
            Workload::Ingress => Self::ingress(seed),
        }
    }

    /// `wide`: `[4,4,4]`, k=6 trained on half of 4,400 flows (~35 tables,
    /// ~2.7K TCAM entries); half of another 4,400 — ~2,200 long flows —
    /// over 2^16 slots, ~174K frames per pass.
    fn wide(seed: u64) -> Fixture {
        let mut phases = Phases::default();
        let (train, traffic) = timed(&mut phases.generate_s, || {
            let half = |seed| {
                let flows = generate(DATASET, 4_400, seed);
                let (tr, te) = stratified_split(&flows, 0.5, SPLIT_SEED);
                (select_flows(&flows, &tr), select_flows(&flows, &te))
            };
            (half(MODEL_SEED).0, half(seed + TRAFFIC_SEED_OFFSET).1)
        });
        let model = fit(&train, &[4, 4, 4], 6, &mut phases);
        let flow_slots = 1 << 16;
        let (admitted, frames) = timed(&mut phases.serialize_s, || {
            admit_and_serialise(traffic, flow_slots, WIDE_STAGGER_US)
        });
        Fixture {
            model,
            frames,
            admitted,
            flow_slots,
            idle_timeout_us: None,
            policy: LifecyclePolicy::flow_agnostic(),
            phases,
        }
    }

    /// `scaled`: the small model over 2^21 slots (a 128 MiB bank arena);
    /// the first 16 packets of the 90 % side of 2^17 flows, ~115K
    /// admitted and all live at once — ~1.8M frames (0.5 GB) per pass.
    /// The traced run holds the workload to its purpose: it fails unless
    /// a state touch here costs a multiple of a cache-resident one.
    fn scaled(seed: u64) -> Fixture {
        let mut phases = Phases::default();
        let model = small_model(0.4, &mut phases);
        let traffic = timed(&mut phases.generate_s, || {
            let flows = generate(DATASET, SCALED_FLOWS, seed + TRAFFIC_SEED_OFFSET);
            let (_, te) = stratified_split(&flows, 0.9, SPLIT_SEED);
            let mut traffic = select_flows(&flows, &te);
            for f in &mut traffic {
                f.packets.truncate(SCALED_PACKETS);
            }
            traffic
        });
        let flow_slots = 1 << 21;
        let (admitted, frames) =
            timed(&mut phases.serialize_s, || admit_and_serialise(traffic, flow_slots, 0));
        Fixture {
            model,
            frames,
            admitted,
            flow_slots,
            idle_timeout_us: None,
            policy: LifecyclePolicy::flow_agnostic(),
            phases,
        }
    }

    /// `mice`: the small model under the TCP lifecycle (no pinned class),
    /// 2^16 slots; 40,000 churned flows cut to six packets, the last one
    /// keeping the trace's closing flags (FIN|ACK or RST|ACK) — 240K
    /// frames per pass.
    fn mice(seed: u64) -> Fixture {
        let mut phases = Phases::default();
        let model = small_model(0.4, &mut phases);
        let schedule = timed(&mut phases.generate_s, || {
            let mut s = churn(
                DATASET,
                &ChurnConfig {
                    flows: 40_000,
                    mean_arrival_gap_us: 50,
                    syn_open_frac: 0.95,
                    rst_close_frac: 0.25,
                    seed: seed + TRAFFIC_SEED_OFFSET,
                    ..Default::default()
                },
            );
            for f in &mut s.flows {
                if f.packets.len() > MICE_PACKETS {
                    let closing = f.packets[f.packets.len() - 1].tcp_flags;
                    f.packets.truncate(MICE_PACKETS);
                    f.packets[MICE_PACKETS - 1].tcp_flags = closing;
                }
            }
            s
        });
        let frames = timed(&mut phases.serialize_s, || {
            Frames::serialise(&schedule.events(), &schedule.flows)
        });
        Fixture {
            model,
            frames,
            admitted: Vec::new(),
            flow_slots: 1 << 16,
            idle_timeout_us: Some(IDLE_TIMEOUT_US),
            policy: LifecyclePolicy::tcp(),
            phases,
        }
    }

    /// `ingress`: the churn recipe — the small model (60 % split), 4,096
    /// whole flows over 256 slots under the TCP lifecycle with class 3
    /// pinned; ~327K frames per pass.
    fn ingress(seed: u64) -> Fixture {
        let mut phases = Phases::default();
        let model = small_model(0.6, &mut phases);
        let schedule = timed(&mut phases.generate_s, || {
            churn(
                DATASET,
                &ChurnConfig {
                    flows: 4_096,
                    mean_arrival_gap_us: 500,
                    syn_open_frac: 0.95,
                    rst_close_frac: 0.25,
                    seed: seed + TRAFFIC_SEED_OFFSET,
                    ..Default::default()
                },
            )
        });
        let frames = timed(&mut phases.serialize_s, || {
            Frames::serialise(&schedule.events(), &schedule.flows)
        });
        Fixture {
            model,
            frames,
            admitted: Vec::new(),
            flow_slots: 256,
            idle_timeout_us: Some(IDLE_TIMEOUT_US),
            policy: LifecyclePolicy::tcp()
                .pin_class(PINNED_CLASS)
                .pinned_timeout_us(PINNED_TIMEOUT_US),
            phases,
        }
    }

    fn builder(&self) -> EngineBuilder<'_> {
        let b = EngineBuilder::new(&self.model)
            .flow_slots(self.flow_slots)
            .lifecycle_policy(self.policy.clone());
        match self.idle_timeout_us {
            Some(us) => b.idle_timeout_us(us),
            None => b,
        }
    }

    /// Compiles the model into a fresh engine (default burst 32).
    pub fn engine(&self) -> Engine {
        self.builder().build().expect("fixture model compiles")
    }

    /// The same program behind a one-shard `ShardedEngine`, which is what
    /// `run_ingress` drives.
    pub fn sharded(&self) -> ShardedEngine {
        self.builder().build_sharded(1).expect("fixture model compiles")
    }
}
