//! Datacenter workload models: the Webserver (WS) and Hadoop (HD)
//! environments of the paper's §5 (E1/E2, from Roy et al., "Inside the
//! Social Network's (Datacenter) Network", SIGCOMM 2015).
//!
//! Only two aspects of those traces enter the paper's results: the
//! **flow-churn rate** (how often a slot turns over to a new flow, which
//! sets recirculation bandwidth — one control packet per window boundary)
//! and the **flow-duration distribution** (which sets time-to-detection).
//! We model both with log-normal mixtures calibrated so the analytic
//! recirculation numbers land on the paper's Table 5 (e.g. D1/WS/100K ≈
//! 2.4 Mbps with 5 partitions; D7/HD/1M ≈ 60 Mbps with 6 partitions).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Size in bytes of a resubmitted control packet (minimum frame).
pub const CONTROL_PKT_BYTES: u64 = 64;

/// A datacenter traffic environment.
#[derive(Debug, Clone)]
pub struct Environment {
    /// Environment name ("webserver" / "hadoop").
    pub name: String,
    /// Mean flow duration in seconds (sets churn = flows / duration).
    pub mean_duration_s: f64,
    /// ln-space σ of the flow-duration distribution.
    pub duration_sigma: f64,
    /// ln-space mean of flow size in packets.
    pub size_mu: f64,
    /// ln-space σ of flow size.
    pub size_sigma: f64,
    /// Burstiness of the aggregate recirculation process (ln-space σ of
    /// the per-bin rate modulation).
    pub burstiness: f64,
}

impl Environment {
    /// WS (E1): many long-lived flows.
    pub fn webserver() -> Self {
        Self {
            name: "webserver".into(),
            mean_duration_s: 85.0,
            duration_sigma: 1.1,
            size_mu: (600.0f64).ln(),
            size_sigma: 1.2,
            burstiness: 0.45,
        }
    }

    /// HD (E2): short, bursty mice flows.
    pub fn hadoop() -> Self {
        Self {
            name: "hadoop".into(),
            mean_duration_s: 41.0,
            duration_sigma: 1.3,
            size_mu: (120.0f64).ln(),
            size_sigma: 1.4,
            burstiness: 0.40,
        }
    }

    /// Both environments in paper order (WS, HD).
    pub fn both() -> [Environment; 2] {
        [Self::webserver(), Self::hadoop()]
    }

    /// Samples a flow duration in seconds.
    pub fn sample_duration_s(&self, rng: &mut SmallRng) -> f64 {
        // ln-normal with mean `mean_duration_s`: µ = ln(m) − σ²/2.
        let mu = self.mean_duration_s.ln() - self.duration_sigma * self.duration_sigma / 2.0;
        lognormal(rng, mu, self.duration_sigma).clamp(0.001, 3600.0)
    }

    /// Samples a flow size in packets.
    pub fn sample_size_pkts(&self, rng: &mut SmallRng) -> u64 {
        (lognormal(rng, self.size_mu, self.size_sigma).round() as u64).clamp(2, 1_000_000)
    }
}

fn randn(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

fn lognormal(rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * randn(rng)).exp()
}

/// Analytic mean recirculation bandwidth in Mbps.
///
/// Each live flow crosses `partitions − 1` window boundaries over its
/// lifetime, each boundary resubmitting one control packet:
/// `rate = n_flows / mean_duration × (p − 1)` packets/s.
pub fn recirc_mbps_analytic(env: &Environment, n_flows: u64, partitions: usize) -> f64 {
    if partitions <= 1 {
        return 0.0;
    }
    let pkts_per_s = n_flows as f64 / env.mean_duration_s * (partitions as f64 - 1.0);
    pkts_per_s * (CONTROL_PKT_BYTES * 8) as f64 / 1e6
}

/// Binned-simulation recirculation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecircStats {
    /// Mean bandwidth over bins (Mbps) — the headline number of Tables 1/5.
    pub mean_mbps: f64,
    /// Peak bin (Mbps).
    pub max_mbps: f64,
    /// Std-dev across bins (Mbps) — the "±" of Tables 1/5.
    pub std_mbps: f64,
}

/// Simulates the aggregate recirculation process over `bins` one-second
/// bins: a Poisson-scale base rate modulated by log-normal burstiness.
pub fn simulate_recirc(
    env: &Environment,
    n_flows: u64,
    partitions: usize,
    seed: u64,
    bins: usize,
) -> RecircStats {
    let base = recirc_mbps_analytic(env, n_flows, partitions);
    if base == 0.0 {
        return RecircStats { mean_mbps: 0.0, max_mbps: 0.0, std_mbps: 0.0 };
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1CE);
    // AR(1) log-modulation: bursts are correlated across neighbouring bins.
    let mut x = 0.0f64;
    let rho = 0.6f64;
    let mut vals = Vec::with_capacity(bins);
    for _ in 0..bins {
        x = rho * x + (1.0 - rho * rho).sqrt() * randn(&mut rng);
        // E[exp(σx)] = exp(σ²/2); divide it out so the mean stays `base`.
        let m = (env.burstiness * x - env.burstiness * env.burstiness / 2.0).exp();
        vals.push(base * m);
    }
    let mean = vals.iter().sum::<f64>() / bins as f64;
    let max = vals.iter().cloned().fold(0.0f64, f64::max);
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / bins as f64;
    RecircStats { mean_mbps: mean, max_mbps: max, std_mbps: var.sqrt() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_matches_paper_anchors() {
        // D1 / WS / 100K flows / 5 partitions ≈ 2.4 Mbps (Table 5).
        let ws = Environment::webserver();
        let v = recirc_mbps_analytic(&ws, 100_000, 5);
        assert!((2.2..2.7).contains(&v), "WS anchor: {v}");
        // D7 / HD / 1M flows / 6 partitions ≈ 60 Mbps (Table 5).
        let hd = Environment::hadoop();
        let v = recirc_mbps_analytic(&hd, 1_000_000, 6);
        assert!((55.0..70.0).contains(&v), "HD anchor: {v}");
    }

    #[test]
    fn single_partition_no_recirc() {
        let ws = Environment::webserver();
        assert_eq!(recirc_mbps_analytic(&ws, 1_000_000, 1), 0.0);
        let st = simulate_recirc(&ws, 1_000_000, 1, 1, 100);
        assert_eq!(st.max_mbps, 0.0);
    }

    #[test]
    fn bandwidth_scales_linearly_with_flows_and_partitions() {
        let ws = Environment::webserver();
        let a = recirc_mbps_analytic(&ws, 100_000, 5);
        let b = recirc_mbps_analytic(&ws, 500_000, 5);
        assert!((b / a - 5.0).abs() < 1e-9);
        let c = recirc_mbps_analytic(&ws, 100_000, 3);
        assert!((a / c - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hadoop_churns_faster_than_webserver() {
        let ws = Environment::webserver();
        let hd = Environment::hadoop();
        assert!(
            recirc_mbps_analytic(&hd, 100_000, 4) > recirc_mbps_analytic(&ws, 100_000, 4) * 1.5
        );
    }

    #[test]
    fn simulation_mean_tracks_analytic() {
        let ws = Environment::webserver();
        let st = simulate_recirc(&ws, 500_000, 5, 42, 2000);
        let base = recirc_mbps_analytic(&ws, 500_000, 5);
        assert!((st.mean_mbps / base - 1.0).abs() < 0.15, "mean {} vs base {base}", st.mean_mbps);
        assert!(st.max_mbps > st.mean_mbps);
        assert!(st.std_mbps > 0.0);
        // well under the 100 Gbps recirculation budget
        assert!(st.max_mbps < 1000.0);
    }

    #[test]
    fn duration_sampling_mean() {
        let ws = Environment::webserver();
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let mean = (0..n).map(|_| ws.sample_duration_s(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean / ws.mean_duration_s - 1.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn deterministic_simulation() {
        let hd = Environment::hadoop();
        let a = simulate_recirc(&hd, 100_000, 4, 5, 100);
        let b = simulate_recirc(&hd, 100_000, 4, 5, 100);
        assert_eq!(a, b);
    }
}
