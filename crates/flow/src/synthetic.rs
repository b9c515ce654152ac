//! Synthetic dataset generators: D1–D7 analogs.
//!
//! The paper evaluates on seven real traffic datasets (CIC-IoMT2024,
//! CIC-IoT2023-a/b, ISCX-VPN2016, CampusTraffic, CIC-IDS2017/2018) that we
//! cannot redistribute. These generators substitute synthetic analogs with
//! the *properties the paper's results rest on*:
//!
//! 1. the same class counts (19, 4, 13, 11, 32, 10, 10);
//! 2. **phase-local signatures** — each class perturbs a sparse set of
//!    traffic knobs (packet sizes, gaps, flag rates, direction mix) in
//!    specific *phases* of the flow, so different windows carry different
//!    discriminative features (this is what makes window-based partitioned
//!    trees with per-subtree feature sets outperform one-shot top-k trees);
//! 3. per-subtree feature sparsity (≈10 % of the catalogue per subtree),
//!    which emerges from (2) and is verified empirically by the Table 1
//!    harness;
//! 4. graded difficulty (label noise + knob overlap) chosen so the F1
//!    bands land near the paper's per-dataset levels.
//!
//! Generation is fully deterministic: every flow derives its own RNG from
//! `(dataset seed, flow index)`.

use crate::flow::{Dir, FiveTuple, FlowTrace, TracePacket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Number of behavioural phases a flow moves through (fixed; windows need
/// not align with phases — that is the point: partition search has to find
/// configurations whose windows capture the signal).
pub const PHASES: usize = 4;

/// The seven datasets of the paper's Table 2, as synthetic analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// CIC-IoMT2024 analog: 19-class medical-IoT intrusion detection.
    D1,
    /// CIC-IoT2023-a analog: 4 coarse IoT traffic classes.
    D2,
    /// ISCX-VPN2016 analog: 13-class VPN/non-VPN detection.
    D3,
    /// CampusTraffic analog: 11 application types.
    D4,
    /// CIC-IoT2023-b analog: 32-class IoT threat taxonomy.
    D5,
    /// CIC-IDS2017 analog: 10-class intrusion detection.
    D6,
    /// CIC-IDS2018 analog: 10-class anomaly detection.
    D7,
}

impl DatasetId {
    /// All seven datasets in paper order.
    pub fn all() -> [DatasetId; 7] {
        use DatasetId::*;
        [D1, D2, D3, D4, D5, D6, D7]
    }

    /// Paper-aligned short id ("D1"…"D7").
    pub fn tag(self) -> &'static str {
        match self {
            DatasetId::D1 => "D1",
            DatasetId::D2 => "D2",
            DatasetId::D3 => "D3",
            DatasetId::D4 => "D4",
            DatasetId::D5 => "D5",
            DatasetId::D6 => "D6",
            DatasetId::D7 => "D7",
        }
    }
}

/// Generation parameters of one dataset analog.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Paper-aligned id.
    pub id: DatasetId,
    /// Descriptive name.
    pub name: String,
    /// Number of classes.
    pub n_classes: u16,
    /// Scale of class-signature knob perturbations (higher = easier).
    pub knob_spread: f64,
    /// Label-noise probability (higher = harder; caps attainable F1).
    pub label_noise: f64,
    /// Number of (phase, knob) signature perturbations per class.
    pub sig_knobs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

/// The spec for a dataset id.
pub fn spec(id: DatasetId) -> DatasetSpec {
    let (name, n_classes, knob_spread, label_noise, sig_knobs, seed) = match id {
        DatasetId::D1 => ("CIC-IoMT2024 analog", 19, 1.15, 0.08, 12, 101),
        DatasetId::D2 => ("CIC-IoT2023-a analog", 4, 1.30, 0.04, 6, 102),
        DatasetId::D3 => ("ISCX-VPN2016 analog", 13, 1.25, 0.04, 9, 103),
        DatasetId::D4 => ("CampusTraffic analog", 11, 1.05, 0.08, 8, 104),
        DatasetId::D5 => ("CIC-IoT2023-b analog", 32, 1.00, 0.10, 12, 105),
        DatasetId::D6 => ("CIC-IDS2017 analog", 10, 1.90, 0.008, 9, 106),
        DatasetId::D7 => ("CIC-IDS2018 analog", 10, 2.20, 0.003, 9, 107),
    };
    DatasetSpec { id, name: name.to_string(), n_classes, knob_spread, label_noise, sig_knobs, seed }
}

/// The per-phase traffic knobs a class signature perturbs.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    /// ln-space mean of frame length.
    len_mu: f64,
    /// ln-space std of frame length.
    len_sigma: f64,
    /// ln-space mean of inter-arrival gap (µs).
    iat_mu: f64,
    /// ln-space std of gaps.
    iat_sigma: f64,
    /// PSH flag probability.
    psh_prob: f64,
    /// URG flag probability.
    urg_prob: f64,
    /// Fraction of forward-direction packets.
    fwd_frac: f64,
    /// Probability of a minimal (ACK-like, 60-byte) packet.
    small_prob: f64,
    /// Probability of a zero-payload packet.
    zero_payload_prob: f64,
}

const N_KNOBS: usize = 9;

impl Knobs {
    fn base() -> Self {
        Self {
            len_mu: (300.0f64).ln(),
            len_sigma: 0.6,
            iat_mu: (3000.0f64).ln(),
            iat_sigma: 0.9,
            psh_prob: 0.15,
            urg_prob: 0.02,
            fwd_frac: 0.55,
            small_prob: 0.25,
            zero_payload_prob: 0.10,
        }
    }

    /// Applies signature delta `d` (in [-1, 1] × spread) to knob `k`.
    fn perturb(&mut self, k: usize, d: f64) {
        match k {
            0 => self.len_mu += d * 0.9,
            1 => self.len_sigma = (self.len_sigma + d * 0.35).clamp(0.05, 1.5),
            2 => self.iat_mu += d * 1.2,
            3 => self.iat_sigma = (self.iat_sigma + d * 0.5).clamp(0.05, 2.0),
            4 => self.psh_prob = (self.psh_prob + d * 0.35).clamp(0.0, 0.95),
            5 => self.urg_prob = (self.urg_prob + d * 0.25).clamp(0.0, 0.9),
            6 => self.fwd_frac = (self.fwd_frac + d * 0.3).clamp(0.05, 0.95),
            7 => self.small_prob = (self.small_prob + d * 0.35).clamp(0.0, 0.95),
            8 => self.zero_payload_prob = (self.zero_payload_prob + d * 0.3).clamp(0.0, 0.9),
            _ => unreachable!(),
        }
    }
}

/// A class's behavioural signature: sparse per-phase knob perturbations
/// plus a small global shift.
#[derive(Debug, Clone)]
struct ClassProfile {
    /// (phase, knob, delta) perturbations.
    signature: Vec<(usize, usize, f64)>,
    /// Small global deltas (knob, delta) applied to every phase.
    global: Vec<(usize, f64)>,
    /// ln-space mean of flow size in packets.
    size_mu: f64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Standard normal via Box–Muller (rand_distr is outside the dependency
/// budget).
fn randn(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn lognormal(rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * randn(rng)).exp()
}

fn class_profiles(spec: &DatasetSpec) -> Vec<ClassProfile> {
    let mut rng = SmallRng::seed_from_u64(splitmix64(spec.seed));
    (0..spec.n_classes)
        .map(|_| {
            let signature = (0..spec.sig_knobs)
                .map(|_| {
                    let phase = rng.random_range(0..PHASES);
                    let knob = rng.random_range(0..N_KNOBS);
                    // Minimum magnitude 0.5×spread: a signature must rise
                    // above per-window sampling noise to be learnable.
                    let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
                    let delta = sign * (0.5 + 0.5 * rng.random::<f64>()) * spec.knob_spread;
                    (phase, knob, delta)
                })
                .collect();
            let global = (0..2)
                .map(|_| {
                    let knob = rng.random_range(0..N_KNOBS);
                    // Global shifts are deliberately weak: one-shot top-k
                    // models can exploit them, phase signatures they cannot.
                    let delta = (rng.random::<f64>() * 2.0 - 1.0) * spec.knob_spread * 0.25;
                    (knob, delta)
                })
                .collect();
            let size_mu = (64.0f64).ln() + (rng.random::<f64>() - 0.5) * 0.6;
            ClassProfile { signature, global, size_mu }
        })
        .collect()
}

/// Well-known responder ports (uncorrelated with class, so ports alone
/// carry no label signal).
const SERVER_PORTS: [u16; 8] = [80, 443, 53, 22, 25, 123, 110, 993];

/// Generates `n_flows` labelled flows for dataset `id`. `seed` perturbs the
/// draw (class profiles stay fixed per dataset — they are the dataset).
pub fn generate(id: DatasetId, n_flows: usize, seed: u64) -> Vec<FlowTrace> {
    let spec = spec(id);
    let profiles = class_profiles(&spec);
    (0..n_flows).map(|i| generate_flow(&spec, &profiles, i, seed, None)).collect()
}

/// A concept-drift transform: how post-drift flows change behaviour while
/// keeping their labels.
///
/// The rotation remaps *which behavioural profile a label exhibits* — after
/// drift, flows labelled `c` are generated from class `(c + rotate) %
/// n_classes`'s signature. A model trained pre-drift therefore mispredicts
/// systematically (it reports the rotated class), while a model retrained on
/// post-drift digests learns the new mapping and recovers. `knob_shift`
/// optionally layers a global distribution shift (e.g. all packets larger)
/// on top. Applying a drift consumes no extra RNG draws, so pre-drift flows
/// are byte-identical with and without a configured drift.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftProfile {
    /// Post-drift flows labelled `c` behave like class `(c + rotate) %
    /// n_classes`. `0` disables the remap.
    pub rotate: u16,
    /// Extra `(knob, delta)` perturbations applied to every phase of every
    /// post-drift flow (see the knob indices in the module source).
    pub knob_shift: Vec<(usize, f64)>,
}

impl Default for DriftProfile {
    fn default() -> Self {
        Self { rotate: 1, knob_shift: Vec::new() }
    }
}

fn generate_flow(
    spec: &DatasetSpec,
    profiles: &[ClassProfile],
    flow_idx: usize,
    seed: u64,
    drift: Option<&DriftProfile>,
) -> FlowTrace {
    let mut rng =
        SmallRng::seed_from_u64(splitmix64(spec.seed ^ seed.rotate_left(17) ^ flow_idx as u64));
    // Balanced class assignment with deterministic per-flow noise.
    let true_class = (flow_idx % spec.n_classes as usize) as u16;
    let label = true_class;
    // Label noise: generate the flow from a *different* class's behaviour
    // while keeping the (now wrong) label — irreducible error, like
    // mislabelled real-world captures.
    let gen_class = if rng.random::<f64>() < spec.label_noise {
        rng.random_range(0..spec.n_classes)
    } else {
        true_class
    };
    // Concept drift: remap the behavioural profile *after* the noise draw so
    // the RNG stream (and thus every pre-drift flow) is unchanged.
    let gen_class = match drift {
        Some(d) => (gen_class + d.rotate) % spec.n_classes,
        None => gen_class,
    };
    let profile = &profiles[gen_class as usize];

    let size = lognormal(&mut rng, profile.size_mu, 0.55).round() as usize;
    let size = size.clamp(12, 512);

    // Per-phase knob tables for this flow's class.
    let mut phase_knobs: Vec<Knobs> = (0..PHASES)
        .map(|ph| {
            let mut k = Knobs::base();
            for &(knob, d) in &profile.global {
                k.perturb(knob, d);
            }
            for &(phase, knob, d) in &profile.signature {
                if phase == ph {
                    k.perturb(knob, d);
                }
            }
            k
        })
        .collect();
    if let Some(d) = drift {
        for k in &mut phase_knobs {
            for &(knob, delta) in &d.knob_shift {
                k.perturb(knob, delta);
            }
        }
    }
    // Tiny per-flow jitter so flows of a class are not identical.
    for k in &mut phase_knobs {
        k.len_mu += (rng.random::<f64>() - 0.5) * 0.1;
        k.iat_mu += (rng.random::<f64>() - 0.5) * 0.1;
    }

    let tuple = FiveTuple {
        src_ip: 0x0a00_0000 | (flow_idx as u32 & 0x00FF_FFFF),
        dst_ip: 0xc0a8_0000 | ((flow_idx as u32).wrapping_mul(2654435761) & 0xFFFF),
        src_port: 32768 + (splitmix64(flow_idx as u64 ^ spec.seed) % 28000) as u16,
        dst_port: SERVER_PORTS[rng.random_range(0..SERVER_PORTS.len())],
        proto: 6,
    };

    let mut packets = Vec::with_capacity(size);
    let mut ts: u64 = 0;
    for i in 0..size {
        let phase = (i * PHASES / size).min(PHASES - 1);
        let k = &phase_knobs[phase];
        let dir = if i == 0 {
            Dir::Fwd // initiator opens
        } else if i == 1 {
            Dir::Bwd // responder replies
        } else if rng.random::<f64>() < k.fwd_frac {
            Dir::Fwd
        } else {
            Dir::Bwd
        };
        // On-wire header: Ethernet(14) + flow-size shim(4) + IPv4(20) +
        // TCP(20) = 58 bytes; the serialized frames in the runtime match
        // this exactly, so frame/payload features agree bit-for-bit.
        let hdr_len: u16 = 58;
        let frame_len = if rng.random::<f64>() < k.small_prob {
            64
        } else if rng.random::<f64>() < k.zero_payload_prob {
            hdr_len
        } else {
            (lognormal(&mut rng, k.len_mu, k.len_sigma).round() as u16).clamp(64, 1514)
        };
        let mut flags = crate::features::flags::ACK;
        if i == 0 {
            flags = crate::features::flags::SYN;
        } else if i == 1 {
            flags = crate::features::flags::SYN | crate::features::flags::ACK;
        } else {
            if rng.random::<f64>() < k.psh_prob {
                flags |= crate::features::flags::PSH;
            }
            if rng.random::<f64>() < k.urg_prob {
                flags |= crate::features::flags::URG;
            }
            if i == size - 1 {
                flags |= crate::features::flags::FIN;
            }
        }
        if i > 0 {
            let gap = lognormal(&mut rng, k.iat_mu, k.iat_sigma).round() as u64;
            ts += gap.clamp(1, 4_000_000);
        }
        packets.push(TracePacket { ts_us: ts, frame_len, hdr_len, tcp_flags: flags, dir });
    }

    FlowTrace { tuple, packets, label }
}

// ------------------------------------------------------------------ churn

/// Configuration of a churn trace: overlapping flow arrivals and
/// departures, so a bounded-slot engine sees far more distinct flows than
/// it has register slots.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Number of distinct flows in the schedule.
    pub flows: usize,
    /// Mean gap between consecutive flow arrivals (µs); actual gaps are
    /// exponentially distributed around it, so arrivals are bursty the
    /// way real traffic is.
    pub mean_arrival_gap_us: u64,
    /// Multiplier applied to every intra-flow timestamp — the lifetime
    /// distribution knob (`< 1` compresses flows into shorter lives,
    /// `> 1` stretches them, raising concurrency).
    pub lifetime_scale: f64,
    /// Fraction of flows opening with a proper SYN / SYN-ACK handshake.
    /// The remainder are *mid-capture* flows — their first packets carry
    /// plain ACKs, the shape a capture that started after the handshake
    /// (or scan/backscatter traffic) presents to a SYN-gated admission
    /// policy. Default 1.0 (every flow opens with SYN).
    pub syn_open_frac: f64,
    /// Fraction of flows closing abortively with RST instead of FIN on
    /// their final packet. Default 0.0 (every flow closes with FIN).
    pub rst_close_frac: f64,
    /// Concept drift onset: flows with index `>= drift_at` (i.e. arriving
    /// after the first `drift_at` flows — arrival order follows flow index)
    /// are generated under [`ChurnConfig::drift_profile`]. `None` disables
    /// drift. Default `None`.
    pub drift_at: Option<usize>,
    /// The drift applied from `drift_at` onwards.
    pub drift_profile: DriftProfile,
    /// RNG seed for arrivals and per-flow draws.
    pub seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            flows: 2048,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            syn_open_frac: 1.0,
            rst_close_frac: 0.0,
            drift_at: None,
            drift_profile: DriftProfile::default(),
            seed: 1,
        }
    }
}

/// A churn schedule: labelled flows plus their staggered arrival offsets.
/// Flow `i` starts at `starts[i]`; its packet `j` hits the wire at
/// `starts[i] + flows[i].packets[j].ts_us`.
#[derive(Debug, Clone)]
pub struct ChurnSchedule {
    /// The distinct flows, lifetimes already scaled.
    pub flows: Vec<FlowTrace>,
    /// Arrival offset of each flow (µs), non-decreasing.
    pub starts: Vec<u64>,
}

impl ChurnSchedule {
    /// The merged packet timeline: `(ts_us, flow_idx, pkt_idx)` sorted by
    /// timestamp (ties by flow then packet, so the order is total and
    /// deterministic).
    pub fn events(&self) -> Vec<(u64, usize, usize)> {
        let mut ev = Vec::with_capacity(self.flows.iter().map(|f| f.size_pkts()).sum());
        for (i, (f, &base)) in self.flows.iter().zip(&self.starts).enumerate() {
            for (j, p) in f.packets.iter().enumerate() {
                ev.push((base + p.ts_us, i, j));
            }
        }
        ev.sort_unstable();
        ev
    }

    /// Timestamp of the last packet in the schedule.
    pub fn span_us(&self) -> u64 {
        self.flows
            .iter()
            .zip(&self.starts)
            .map(|(f, &base)| base + f.packets.last().map(|p| p.ts_us).unwrap_or(0))
            .max()
            .unwrap_or(0)
    }
}

/// Generates a churn schedule over dataset `id`: `cfg.flows` distinct
/// labelled flows (unique 5-tuples, same class balance as [`generate`])
/// arriving at exponential gaps, with intra-flow timestamps scaled by
/// `cfg.lifetime_scale` and TCP flag shapes (SYN-opened vs mid-capture,
/// FIN vs RST close) drawn per flow. Flows from `cfg.drift_at` onwards are
/// generated under `cfg.drift_profile` (labels unchanged, behaviour
/// remapped), so a model frozen before the drift point visibly decays.
/// Deterministic in `(id, cfg)`.
pub fn churn(id: DatasetId, cfg: &ChurnConfig) -> ChurnSchedule {
    let dspec = spec(id);
    let profiles = class_profiles(&dspec);
    let mut flows: Vec<FlowTrace> = (0..cfg.flows)
        .map(|i| {
            let drift = cfg.drift_at.filter(|&at| i >= at).map(|_| &cfg.drift_profile);
            generate_flow(&dspec, &profiles, i, cfg.seed, drift)
        })
        .collect();
    let mut shape_rng = SmallRng::seed_from_u64(splitmix64(cfg.seed ^ 0x7C9_F1A6));
    for f in &mut flows {
        for p in &mut f.packets {
            p.ts_us = ((p.ts_us as f64) * cfg.lifetime_scale).round() as u64;
        }
        // Scaling must not reorder (it cannot: monotone map), but it can
        // collapse gaps to zero — keep timestamps non-decreasing as-is.
        debug_assert!(f.is_time_ordered());
        // TCP flag shaping: strip the handshake from mid-capture flows
        // (their openers become plain ACKs — a SYN-gated admission policy
        // must refuse them), and close a slice abortively with RST.
        use crate::features::flags;
        if shape_rng.random::<f64>() >= cfg.syn_open_frac {
            for p in f.packets.iter_mut().take(2) {
                p.tcp_flags = flags::ACK;
            }
        }
        if shape_rng.random::<f64>() < cfg.rst_close_frac {
            if let Some(last) = f.packets.last_mut() {
                last.tcp_flags = flags::RST | flags::ACK;
            }
        }
    }
    let mut rng = SmallRng::seed_from_u64(splitmix64(cfg.seed ^ 0xC0FF_EE00));
    let mut starts = Vec::with_capacity(cfg.flows);
    let mut t = 1_000u64;
    for _ in 0..cfg.flows {
        starts.push(t);
        let u: f64 = rng.random::<f64>().max(1e-12);
        let gap = (-u.ln() * cfg.mean_arrival_gap_us as f64).round() as u64;
        t += gap.clamp(1, cfg.mean_arrival_gap_us.saturating_mul(20).max(1));
    }
    ChurnSchedule { flows, starts }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = generate(DatasetId::D2, 20, 7);
        let b = generate(DatasetId::D2, 20, 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tuple, y.tuple);
            assert_eq!(x.packets, y.packets);
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn different_seed_different_flows() {
        let a = generate(DatasetId::D2, 20, 7);
        let b = generate(DatasetId::D2, 20, 8);
        assert!(a.iter().zip(&b).any(|(x, y)| x.packets != y.packets));
    }

    #[test]
    fn class_counts_match_paper() {
        let expected = [19u16, 4, 13, 11, 32, 10, 10];
        for (id, want) in DatasetId::all().into_iter().zip(expected) {
            assert_eq!(spec(id).n_classes, want, "{}", id.tag());
        }
    }

    #[test]
    fn flows_are_well_formed() {
        for f in generate(DatasetId::D5, 50, 1) {
            assert!(f.size_pkts() >= 12 && f.size_pkts() <= 512);
            assert!(f.is_time_ordered());
            assert!(f.tuple.src_port >= 32768, "ephemeral initiator port");
            assert!(f.tuple.dst_port < 9000, "service responder port");
            assert_eq!(f.packets[0].dir, Dir::Fwd);
            assert!(f.packets[0].tcp_flags & crate::features::flags::SYN != 0);
            // labels within range
            assert!(f.label < 32);
            for p in &f.packets {
                assert!(p.frame_len >= 58 && p.frame_len <= 1514);
            }
        }
    }

    #[test]
    fn labels_are_balanced() {
        let spec = spec(DatasetId::D2);
        let flows = generate(DatasetId::D2, 400, 3);
        let mut counts = vec![0usize; spec.n_classes as usize];
        for f in &flows {
            counts[f.label as usize] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn classes_are_behaviourally_distinct() {
        // Mean frame length should differ measurably across at least one
        // pair of classes (coarse sanity that signatures do something).
        let flows = generate(DatasetId::D2, 400, 9);
        let mut mean_len = [(0u64, 0u64); 4];
        for f in &flows {
            let e = &mut mean_len[f.label as usize];
            e.0 += f.total_bytes();
            e.1 += f.size_pkts() as u64;
        }
        let means: Vec<f64> =
            mean_len.iter().map(|(b, n)| *b as f64 / (*n).max(1) as f64).collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 20.0, "class mean-length spread too small: {means:?}");
    }

    #[test]
    fn churn_schedule_is_deterministic_and_overlapping() {
        let cfg = ChurnConfig { flows: 300, ..Default::default() };
        let a = churn(DatasetId::D2, &cfg);
        let b = churn(DatasetId::D2, &cfg);
        assert_eq!(a.starts, b.starts);
        assert_eq!(a.flows.len(), 300);
        assert!(a.starts.windows(2).all(|w| w[0] <= w[1]), "arrivals ordered");
        // Genuine churn: many flows are in flight at once somewhere in
        // the schedule (flow i still alive when flow i+8 arrives).
        let overlapping = a
            .flows
            .iter()
            .zip(&a.starts)
            .zip(a.starts.iter().skip(8))
            .filter(|((f, &s), &later)| s + f.packets.last().unwrap().ts_us > later)
            .count();
        assert!(overlapping > 50, "only {overlapping} overlapping flows");
        // events are globally time-sorted and cover every packet
        let ev = a.events();
        assert_eq!(ev.len(), a.flows.iter().map(|f| f.size_pkts()).sum::<usize>());
        assert!(ev.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(a.span_us() > *a.starts.last().unwrap());
    }

    #[test]
    fn churn_lifetime_scale_compresses_flows() {
        let slow = churn(DatasetId::D2, &ChurnConfig { flows: 50, ..Default::default() });
        let fast = churn(
            DatasetId::D2,
            &ChurnConfig { flows: 50, lifetime_scale: 0.01, ..Default::default() },
        );
        let dur = |s: &ChurnSchedule| s.flows.iter().map(|f| f.duration_us()).sum::<u64>();
        assert!(dur(&fast) < dur(&slow) / 2, "scaling must shorten lifetimes");
        for f in &fast.flows {
            assert!(f.is_time_ordered());
        }
    }

    #[test]
    fn churn_tcp_flag_shapes() {
        use crate::features::flags;
        let cfg = ChurnConfig {
            flows: 400,
            syn_open_frac: 0.75,
            rst_close_frac: 0.25,
            ..Default::default()
        };
        let s = churn(DatasetId::D2, &cfg);
        let syn_opened =
            s.flows.iter().filter(|f| f.packets[0].tcp_flags & flags::SYN != 0).count();
        let rst_closed = s
            .flows
            .iter()
            .filter(|f| f.packets.last().unwrap().tcp_flags & flags::RST != 0)
            .count();
        let fin_closed = s
            .flows
            .iter()
            .filter(|f| f.packets.last().unwrap().tcp_flags & flags::FIN != 0)
            .count();
        // The draws are random but deterministic; bound them loosely.
        assert!((200..=380).contains(&syn_opened), "syn_opened {syn_opened}");
        assert!((40..=180).contains(&rst_closed), "rst_closed {rst_closed}");
        assert_eq!(fin_closed + rst_closed, 400, "every flow closes with FIN or RST");
        // Mid-capture flows carry no SYN anywhere.
        for f in s.flows.iter().filter(|f| f.packets[0].tcp_flags & flags::SYN == 0) {
            assert!(f.packets.iter().all(|p| p.tcp_flags & flags::SYN == 0));
        }
        // Defaults preserve the original shapes: SYN open, FIN close.
        let plain = churn(DatasetId::D2, &ChurnConfig { flows: 50, ..Default::default() });
        for f in &plain.flows {
            assert!(f.packets[0].tcp_flags & flags::SYN != 0);
            assert!(f.packets.last().unwrap().tcp_flags & flags::FIN != 0);
        }
        // Deterministic in the config.
        let again = churn(DatasetId::D2, &cfg);
        for (a, b) in s.flows.iter().zip(&again.flows) {
            assert_eq!(a.packets, b.packets);
        }
    }

    #[test]
    fn drift_changes_only_post_drift_flows() {
        let base = ChurnConfig { flows: 200, ..Default::default() };
        let drifted = ChurnConfig { drift_at: Some(100), ..base.clone() };
        let a = churn(DatasetId::D2, &base);
        let b = churn(DatasetId::D2, &drifted);
        assert_eq!(a.starts, b.starts, "arrival schedule unaffected by drift");
        for i in 0..100 {
            assert_eq!(a.flows[i].packets, b.flows[i].packets, "pre-drift flow {i} changed");
        }
        let changed = (100..200).filter(|&i| a.flows[i].packets != b.flows[i].packets).count();
        assert!(changed > 60, "only {changed}/100 post-drift flows changed");
        // Labels are the point of drift: they stay put while behaviour moves.
        for (x, y) in a.flows.iter().zip(&b.flows) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.tuple, y.tuple);
        }
        // Deterministic in the config.
        let again = churn(DatasetId::D2, &drifted);
        for (x, y) in b.flows.iter().zip(&again.flows) {
            assert_eq!(x.packets, y.packets);
        }
    }

    #[test]
    fn drift_rotates_class_behaviour() {
        // Post-drift flows labelled `c` should look like pre-drift flows of
        // class `c+1`: compare per-label mean frame lengths across the
        // boundary and against the rotated class's pre-drift mean.
        let cfg = ChurnConfig {
            flows: 800,
            drift_at: Some(400),
            drift_profile: DriftProfile { rotate: 1, knob_shift: Vec::new() },
            ..Default::default()
        };
        let s = churn(DatasetId::D2, &cfg);
        let mean_len = |flows: &[FlowTrace], label: u16| {
            let (bytes, pkts) = flows
                .iter()
                .filter(|f| f.label == label)
                .fold((0u64, 0u64), |(b, n), f| (b + f.total_bytes(), n + f.size_pkts() as u64));
            bytes as f64 / pkts.max(1) as f64
        };
        let mut max_shift = 0.0f64;
        for c in 0..4u16 {
            let pre = mean_len(&s.flows[..400], c);
            let post = mean_len(&s.flows[400..], c);
            let rotated_pre = mean_len(&s.flows[..400], (c + 1) % 4);
            max_shift = max_shift.max((post - pre).abs());
            // The post-drift behaviour of label c tracks class c+1's
            // pre-drift behaviour more closely than its own.
            assert!(
                (post - rotated_pre).abs() <= (post - pre).abs() + 15.0,
                "label {c}: post {post:.1} pre {pre:.1} rotated-pre {rotated_pre:.1}"
            );
        }
        assert!(max_shift > 10.0, "drift moved no label's mean length ({max_shift:.1})");
    }

    #[test]
    fn drift_knob_shift_applies() {
        let cfg = ChurnConfig {
            flows: 100,
            drift_at: Some(0),
            drift_profile: DriftProfile { rotate: 0, knob_shift: vec![(0, 1.0)] },
            ..Default::default()
        };
        let shifted = churn(DatasetId::D2, &cfg);
        let plain = churn(DatasetId::D2, &ChurnConfig { flows: 100, ..Default::default() });
        let total = |s: &ChurnSchedule| s.flows.iter().map(|f| f.total_bytes()).sum::<u64>();
        assert!(
            total(&shifted) > total(&plain) * 11 / 10,
            "len_mu +1.0 must inflate total bytes ({} vs {})",
            total(&shifted),
            total(&plain)
        );
    }

    #[test]
    fn unique_tuples() {
        let flows = generate(DatasetId::D3, 300, 5);
        let mut tuples: Vec<_> = flows.iter().map(|f| f.tuple).collect();
        tuples.sort_by_key(|t| (t.src_ip, t.src_port, t.dst_ip, t.dst_port));
        let n = tuples.len();
        tuples.dedup();
        assert_eq!(tuples.len(), n, "5-tuples must be unique per flow");
    }
}
