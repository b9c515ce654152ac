//! Multi-objective Bayesian optimization (HyperMapper-style, paper §3.2.1).
//!
//! A random-forest surrogate per objective (F1, log-flows) plus a
//! feasibility forest; candidates are scored by an upper-confidence
//! acquisition under random Chebyshev scalarization — HyperMapper's recipe
//! for producing a Pareto *frontier* rather than a single optimum. Batches
//! evaluate in parallel on scoped threads (the paper runs 16 parallel
//! evaluations per iteration).

use crate::pareto::{pareto_front, Point};
use crate::space::ParamSpace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use splidt_core::SplidtConfig;
use splidt_dt::{ForestParams, ForestRegressor};

/// Evaluation outcome of one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Objectives {
    /// Test macro-F1.
    pub f1: f64,
    /// Maximum supported concurrent flows on the target.
    pub max_flows: u64,
    /// Whether the configuration is deployable at all.
    pub feasible: bool,
}

/// The black box the search optimizes (train + evaluate + fit-check).
pub trait Evaluator: Sync {
    /// Evaluates a configuration.
    fn evaluate(&self, cfg: &SplidtConfig) -> Objectives;
}

impl<F: Fn(&SplidtConfig) -> Objectives + Sync> Evaluator for F {
    fn evaluate(&self, cfg: &SplidtConfig) -> Objectives {
        self(cfg)
    }
}

/// Search options.
#[derive(Debug, Clone)]
pub struct BoOptions {
    /// Total evaluations (including the random-init phase).
    pub budget: usize,
    /// Parallel evaluations per iteration.
    pub batch: usize,
    /// Random-init evaluations before the surrogate takes over.
    pub init: usize,
    /// Candidate pool scored by the acquisition each iteration.
    pub pool: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoOptions {
    fn default() -> Self {
        Self { budget: 64, batch: 8, init: 16, pool: 256, seed: 0 }
    }
}

/// Per-iteration progress (Figure 7's convergence data).
#[derive(Debug, Clone, Copy)]
pub struct IterStats {
    /// Evaluations consumed so far.
    pub evaluations: usize,
    /// Best feasible F1 so far.
    pub best_f1: f64,
}

/// Search result.
#[derive(Debug, Clone)]
pub struct BoResult {
    /// Every evaluated configuration with its objectives.
    pub history: Vec<(SplidtConfig, Objectives)>,
    /// Indices of the feasible Pareto-optimal entries.
    pub pareto: Vec<usize>,
    /// Convergence trace.
    pub iterations: Vec<IterStats>,
}

impl BoResult {
    /// Best feasible F1 among configs supporting ≥ `min_flows`.
    pub fn best_at_flows(&self, min_flows: u64) -> Option<(usize, f64)> {
        self.history
            .iter()
            .enumerate()
            .filter(|(_, (_, o))| o.feasible && o.max_flows >= min_flows)
            .map(|(i, (_, o))| (i, o.f1))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
    }
}

fn evaluate_batch<E: Evaluator>(
    evaluator: &E,
    batch: Vec<SplidtConfig>,
) -> Vec<(SplidtConfig, Objectives)> {
    let mut out: Vec<Option<(SplidtConfig, Objectives)>> = vec![None; batch.len()];
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, cfg) in batch.into_iter().enumerate() {
            handles.push(s.spawn(move || (i, cfg.clone(), evaluator.evaluate(&cfg))));
        }
        for h in handles {
            let (i, cfg, obj) = h.join().expect("evaluator panicked");
            out[i] = Some((cfg, obj));
        }
    });
    out.into_iter().flatten().collect()
}

/// Runs the search.
pub fn optimize<E: Evaluator>(space: &ParamSpace, evaluator: &E, opts: &BoOptions) -> BoResult {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let mut history: Vec<(SplidtConfig, Objectives)> = Vec::new();
    let mut iterations = Vec::new();
    let mut seen: Vec<SplidtConfig> = Vec::new();

    let record = |hist: &Vec<(SplidtConfig, Objectives)>, iters: &mut Vec<IterStats>| {
        let best =
            hist.iter().filter(|(_, o)| o.feasible).map(|(_, o)| o.f1).fold(0.0f64, f64::max);
        iters.push(IterStats { evaluations: hist.len(), best_f1: best });
    };

    // --- random init (attempt-bounded: tiny spaces may hold fewer
    // distinct configs than requested)
    let mut init_batch = Vec::new();
    let mut attempts = 0usize;
    while init_batch.len() < opts.init.min(opts.budget) && attempts < opts.budget * 50 {
        attempts += 1;
        let c = space.sample(&mut rng);
        if !seen.contains(&c) {
            seen.push(c.clone());
            init_batch.push(c);
        }
    }
    history.extend(evaluate_batch(evaluator, init_batch));
    record(&history, &mut iterations);

    // --- BO iterations
    while history.len() < opts.budget {
        let (xs, f1s, flows, feas): (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, Vec<f64>) = {
            let mut xs = Vec::new();
            let mut a = Vec::new();
            let mut b = Vec::new();
            let mut c = Vec::new();
            for (cfg, o) in &history {
                xs.push(space.encode(cfg));
                a.push(o.f1);
                b.push((o.max_flows.max(1) as f64).log2());
                c.push(if o.feasible { 1.0 } else { 0.0 });
            }
            (xs, a, b, c)
        };
        let dim = space.encoded_len();
        let flat: Vec<f64> = xs.iter().flatten().copied().collect();
        let fp = ForestParams {
            n_trees: 24,
            max_depth: 8,
            sample_frac: 0.9,
            seed: opts.seed,
            ..Default::default()
        };
        let sur_f1 = ForestRegressor::train(&flat, dim, &f1s, &fp);
        let sur_fl = ForestRegressor::train(&flat, dim, &flows, &fp);
        let sur_ok = ForestRegressor::train(&flat, dim, &feas, &fp);
        let max_log_flows = flows.iter().cloned().fold(1.0f64, f64::max);

        // candidate pool: random samples + neighbors of Pareto entries
        let mut pool = Vec::with_capacity(opts.pool);
        let pts: Vec<Point> = history
            .iter()
            .map(|(_, o)| Point {
                f1: if o.feasible { o.f1 } else { 0.0 },
                flows: o.max_flows as f64,
            })
            .collect();
        let front = pareto_front(&pts);
        // Constrained spaces can hold fewer distinct configs than the pool
        // size; bound the fill attempts so exhaustion terminates.
        let mut attempts = 0usize;
        while pool.len() < opts.pool && attempts < opts.pool * 30 {
            attempts += 1;
            let c = if !front.is_empty() && rng.random::<f64>() < 0.5 {
                let &i = &front[rng.random_range(0..front.len())];
                space.neighbor(&history[i].0, &mut rng)
            } else {
                space.sample(&mut rng)
            };
            if !seen.contains(&c) && !pool.contains(&c) {
                pool.push(c);
            }
        }

        // random Chebyshev scalarization + UCB acquisition, feasibility-
        // weighted
        let lambda: f64 = rng.random();
        let beta = 1.0;
        let mut scored: Vec<(f64, SplidtConfig)> = pool
            .into_iter()
            .map(|c| {
                let x = space.encode(&c);
                let (m1, v1) = sur_f1.predict(&x);
                let (m2, v2) = sur_fl.predict(&x);
                let (ok, _) = sur_ok.predict(&x);
                let o1 = m1 + beta * v1.sqrt();
                let o2 = (m2 + beta * v2.sqrt()) / max_log_flows.max(1.0);
                let scal = (lambda * o1).min((1.0 - lambda) * o2);
                (scal * ok.clamp(0.05, 1.0), c)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let take = opts.batch.min(opts.budget - history.len());
        let batch: Vec<SplidtConfig> = scored.into_iter().take(take).map(|(_, c)| c).collect();
        if batch.is_empty() {
            break;
        }
        seen.extend(batch.iter().cloned());
        history.extend(evaluate_batch(evaluator, batch));
        record(&history, &mut iterations);
    }

    let pts: Vec<Point> = history
        .iter()
        .map(|(_, o)| Point { f1: if o.feasible { o.f1 } else { -1.0 }, flows: o.max_flows as f64 })
        .collect();
    let pareto = pareto_front(&pts).into_iter().filter(|&i| history[i].1.feasible).collect();
    BoResult { history, pareto, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic landscape: F1 rises with depth and k but "hardware"
    /// capacity falls with k; feasibility requires depth ≤ 20.
    fn toy_eval(cfg: &SplidtConfig) -> Objectives {
        let d = cfg.total_depth() as f64;
        let k = cfg.k as f64;
        let p = cfg.partitions.len() as f64;
        let f1 = (0.3f64 + 0.02 * d + 0.05 * k - 0.01 * (p - 3.0).abs()).min(0.95);
        let max_flows = (2_000_000.0 / (k * 32.0 + 80.0) * 64.0) as u64;
        Objectives { f1, max_flows, feasible: cfg.total_depth() <= 20 }
    }

    #[test]
    fn finds_good_configs() {
        let space = ParamSpace::default();
        let opts = BoOptions { budget: 48, batch: 6, init: 12, pool: 128, seed: 1 };
        let res = optimize(&space, &toy_eval, &opts);
        assert_eq!(res.history.len(), 48);
        assert!(!res.pareto.is_empty());
        let best = res.iterations.last().unwrap().best_f1;
        assert!(best > 0.8, "best {best}");
        // convergence trace is monotone
        for w in res.iterations.windows(2) {
            assert!(w[1].best_f1 >= w[0].best_f1);
        }
    }

    #[test]
    fn pareto_entries_are_feasible() {
        let space = ParamSpace::default();
        let res =
            optimize(&space, &toy_eval, &BoOptions { budget: 32, seed: 2, ..Default::default() });
        for &i in &res.pareto {
            assert!(res.history[i].1.feasible);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let space = ParamSpace::default();
        let opts = BoOptions { budget: 24, seed: 3, ..Default::default() };
        let a = optimize(&space, &toy_eval, &opts);
        let b = optimize(&space, &toy_eval, &opts);
        let fa: Vec<_> = a.history.iter().map(|(c, _)| c.clone()).collect();
        let fb: Vec<_> = b.history.iter().map(|(c, _)| c.clone()).collect();
        assert_eq!(fa, fb);
    }

    #[test]
    fn best_at_flows_filters() {
        let space = ParamSpace::default();
        let res =
            optimize(&space, &toy_eval, &BoOptions { budget: 32, seed: 4, ..Default::default() });
        if let Some((_, f1_small)) = res.best_at_flows(100_000) {
            if let Some((_, f1_big)) = res.best_at_flows(400_000) {
                assert!(f1_big <= f1_small + 1e-9, "bigger flow targets can't do better");
            }
        }
    }
}
