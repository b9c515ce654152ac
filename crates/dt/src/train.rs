//! CART training (Gini impurity) with SpliDT's distinct-feature budget.
//!
//! Besides the standard `max_depth` / `min_samples` knobs, the trainer
//! supports two constraints central to the paper:
//!
//! * [`TrainParams::allowed_features`] — restrict splits to a feature subset
//!   (used by the top-k baselines, NetBeacon \[85\] and Leo \[43\]).
//! * [`TrainParams::feature_budget`] — a budget `k` on the number of
//!   **distinct** features the whole (sub)tree may reference. This is the
//!   feature-slot constraint of SpliDT §2.2: each subtree must fit in `k`
//!   stateful registers. The budget is enforced greedily during growth: once
//!   `k` distinct features are in use, further splits may only reuse them.
//!
//! Each node offers its candidate boundaries — the value change points of
//! its sorted samples — to the split search it shares with the streaming
//! trainer, which scores them by weighted child Gini.
//!
//! Thresholds are chosen at midpoints between consecutive observed values.
//! With integer-valued features (all SpliDT features are), midpoints are
//! `x.5` values, so `v <= t` is equivalent to `v <= floor(t)` — which is how
//! the Range-Marking rule generator maps them onto integer TCAM ranges.

use crate::dataset::{Dataset, DatasetView};
use crate::split::{majority, FeatureBudget, SplitCandidate, SplitSearch};
use crate::tree::{Node, NodeId, Tree};
use std::collections::{BTreeMap, BTreeSet};

/// Training hyper-parameters.
#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Maximum tree depth (root at depth 0). Depth 0 forces a single leaf.
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
    /// Every child must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Budget on distinct features used by the tree (SpliDT's `k`).
    pub feature_budget: Option<usize>,
    /// If set, only these features may be used at all.
    pub allowed_features: Option<Vec<usize>>,
    /// Cap on candidate thresholds per feature per node; `0` means exact
    /// search over all midpoints. Sub-sampling uses evenly spaced quantiles,
    /// which mirrors the bounded threshold precision of TCAM rules.
    pub max_thresholds_per_feature: usize,
    /// Cap on **distinct thresholds per feature across the whole tree**
    /// (`None` = unbounded). Range-Marking assigns one mark bit per
    /// distinct threshold, so this budget directly bounds TCAM match-key
    /// width; once a feature exhausts it, further splits on that feature
    /// must reuse existing thresholds (greedy, like the feature budget).
    pub threshold_budget_per_feature: Option<usize>,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            feature_budget: None,
            allowed_features: None,
            max_thresholds_per_feature: 64,
            threshold_budget_per_feature: Some(31),
        }
    }
}

/// Trains a classification tree on the full dataset.
pub fn train_classifier(data: &Dataset, params: &TrainParams) -> Tree {
    train_classifier_on(&data.view(), params)
}

/// Trains a classification tree on a dataset view (row subset).
pub fn train_classifier_on(view: &DatasetView<'_>, params: &TrainParams) -> Tree {
    assert!(!view.is_empty(), "cannot train on an empty view");
    let mut b = Builder::new(view, params);
    let positions: Vec<usize> = (0..view.len()).collect();
    let root = b.grow(view, &positions, 0);
    Tree::from_arena(b.nodes, root, view.n_features())
}

struct Builder<'p> {
    n_classes: usize,
    params: &'p TrainParams,
    budget: FeatureBudget,
    /// Distinct thresholds committed per feature (bit patterns of f32, so
    /// the set is ordered and exact).
    used_thresholds: BTreeMap<usize, BTreeSet<u32>>,
    nodes: Vec<Node>,
    n_leaves: u32,
}

impl<'p> Builder<'p> {
    fn new(view: &DatasetView<'_>, params: &'p TrainParams) -> Self {
        Self {
            n_classes: view.n_classes(),
            params,
            budget: FeatureBudget::new(
                params.allowed_features.as_deref(),
                view.n_features(),
                params.feature_budget,
            ),
            used_thresholds: BTreeMap::new(),
            nodes: Vec::new(),
            n_leaves: 0,
        }
    }

    fn grow(&mut self, view: &DatasetView<'_>, positions: &[usize], depth: usize) -> NodeId {
        let counts = class_counts(view, positions, self.n_classes);
        let total: usize = positions.len();
        let majority = majority(&counts);
        let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;

        if depth >= self.params.max_depth || total < self.params.min_samples_split || pure {
            return self.push_leaf(majority, total as u32);
        }

        let split = self.find_best_split(view, positions, &counts);
        let Some(split) = split else {
            return self.push_leaf(majority, total as u32);
        };

        let (left_pos, right_pos): (Vec<usize>, Vec<usize>) =
            positions.iter().partition(|&&p| view.row(p)[split.feature] <= split.threshold);
        if left_pos.len() < self.params.min_samples_leaf
            || right_pos.len() < self.params.min_samples_leaf
        {
            return self.push_leaf(majority, total as u32);
        }

        self.budget.commit(split.feature);
        self.used_thresholds.entry(split.feature).or_default().insert(split.threshold.to_bits());
        let node_id = self.nodes.len() as NodeId;
        // Reserve the slot so children get consecutive ids after it.
        self.nodes.push(Node::Leaf { label: 0, n_samples: 0, leaf_index: u32::MAX });
        let left = self.grow(view, &left_pos, depth + 1);
        let right = self.grow(view, &right_pos, depth + 1);
        self.nodes[node_id as usize] =
            Node::Split { feature: split.feature, threshold: split.threshold, left, right };
        node_id
    }

    fn push_leaf(&mut self, label: u16, n_samples: u32) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(Node::Leaf { label, n_samples, leaf_index: self.n_leaves });
        self.n_leaves += 1;
        id
    }

    /// Offers every candidate boundary — value change points of the sorted
    /// samples, at midpoint thresholds — to one [`SplitSearch`].
    fn find_best_split(
        &self,
        view: &DatasetView<'_>,
        positions: &[usize],
        parent_counts: &[u64],
    ) -> Option<SplitCandidate> {
        let mut search = SplitSearch::new(parent_counts, positions.len() as u64);
        for &feature in self.budget.candidates() {
            if !self.budget.allows(feature) {
                continue;
            }
            // Gather (value, label) pairs and sort by value.
            let mut pairs: Vec<(f32, u16)> =
                positions.iter().map(|&p| (view.row(p)[feature], view.label(p))).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite feature values"));
            if pairs.first().map(|p| p.0) == pairs.last().map(|p| p.0) {
                continue; // constant feature on this node
            }
            // Once a feature has used up its threshold budget, only its
            // committed thresholds may be offered again.
            let used = self.used_thresholds.get(&feature);
            let n_used = used.map_or(0, BTreeSet::len);
            let admits = |t: f32| match self.params.threshold_budget_per_feature {
                Some(budget) => n_used < budget || used.is_some_and(|s| s.contains(&t.to_bits())),
                None => true,
            };

            search.start_feature();
            let mut cursor = 0usize;
            for b in candidate_boundaries(&pairs, self.params.max_thresholds_per_feature) {
                for &(_, label) in &pairs[cursor..b] {
                    search.move_left(label as usize, 1);
                }
                cursor = b;
                let threshold = midpoint(pairs[b - 1].0, pairs[b].0);
                if admits(threshold) {
                    search.offer(feature, threshold, b);
                }
            }
        }
        search.best().map(|(split, _)| split)
    }
}

/// Candidate split boundaries: indices `b` such that the split is
/// `pairs[..b] | pairs[b..]`, restricted to value-change points and (when
/// `max > 0`) sub-sampled to at most `max` evenly spaced quantiles.
fn candidate_boundaries(pairs: &[(f32, u16)], max: usize) -> Vec<usize> {
    let mut change_points = Vec::new();
    for i in 1..pairs.len() {
        if pairs[i].0 > pairs[i - 1].0 {
            change_points.push(i);
        }
    }
    if max == 0 || change_points.len() <= max {
        return change_points;
    }
    if max == 1 {
        // One quantile: the median change point.
        return vec![change_points[(change_points.len() - 1) / 2]];
    }
    // Evenly spaced quantile subsample, always keeping the extremes' nearest
    // change points so the full value range stays splittable.
    let mut out = Vec::with_capacity(max);
    for j in 0..max {
        let idx = j * (change_points.len() - 1) / (max - 1);
        out.push(change_points[idx]);
    }
    out.dedup();
    out
}

fn midpoint(lo: f32, hi: f32) -> f32 {
    let m = lo + (hi - lo) / 2.0;
    // Guard against midpoint rounding onto `hi` for adjacent f32 values:
    // `v <= m` must keep `lo` left and `hi` right.
    if m >= hi {
        lo
    } else {
        m
    }
}

fn class_counts(view: &DatasetView<'_>, positions: &[usize], n_classes: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n_classes];
    for &p in positions {
        counts[view.label(p) as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::stream::{StreamParams, StreamTree};
    use proptest::prelude::*;

    fn grid_dataset() -> Dataset {
        // 2-D grid, class = quadrant (4 classes), 100 points.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                rows.push(vec![i as f32, j as f32]);
                let c = (u16::from(i >= 5) << 1) | u16::from(j >= 5);
                labels.push(c);
            }
        }
        Dataset::from_rows(&rows, &labels, None).unwrap()
    }

    #[test]
    fn learns_quadrants_perfectly() {
        let ds = grid_dataset();
        let tree = train_classifier(&ds, &TrainParams { max_depth: 2, ..Default::default() });
        for i in 0..ds.n_samples() {
            assert_eq!(tree.predict(ds.row(i)), ds.label(i));
        }
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.n_leaves(), 4);
    }

    #[test]
    fn depth_zero_is_single_leaf() {
        let ds = grid_dataset();
        let tree = train_classifier(&ds, &TrainParams { max_depth: 0, ..Default::default() });
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn max_depth_is_respected() {
        let ds = grid_dataset();
        for d in 0..5 {
            let tree = train_classifier(&ds, &TrainParams { max_depth: d, ..Default::default() });
            assert!(tree.depth() <= d, "depth {} exceeds max {}", tree.depth(), d);
        }
    }

    #[test]
    fn feature_budget_limits_distinct_features() {
        // 3 informative features; budget of 1 must use exactly one.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let a = (i % 2) as f32;
            let b = ((i / 2) % 2) as f32;
            let c = ((i / 4) % 2) as f32;
            rows.push(vec![a, b, c]);
            labels.push(((a as u16) << 2 | (b as u16) << 1 | c as u16) % 4);
        }
        let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: 6, feature_budget: Some(1), ..Default::default() },
        );
        assert!(tree.features_used().len() <= 1);
        let tree2 = train_classifier(
            &ds,
            &TrainParams { max_depth: 6, feature_budget: Some(2), ..Default::default() },
        );
        assert!(tree2.features_used().len() <= 2);
    }

    #[test]
    fn allowed_features_is_respected() {
        let ds = grid_dataset();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: 4, allowed_features: Some(vec![1]), ..Default::default() },
        );
        assert!(tree.features_used().iter().all(|&f| f == 1));
    }

    #[test]
    fn min_samples_leaf_respected() {
        let ds = grid_dataset();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: 10, min_samples_leaf: 10, ..Default::default() },
        );
        for leaf in tree.leaves() {
            assert!(leaf.n_samples >= 10, "leaf with {} samples", leaf.n_samples);
        }
    }

    #[test]
    fn training_is_deterministic() {
        let ds = grid_dataset();
        let p = TrainParams { max_depth: 5, ..Default::default() };
        let t1 = train_classifier(&ds, &p);
        let t2 = train_classifier(&ds, &p);
        assert_eq!(t1.nodes(), t2.nodes());
    }

    #[test]
    fn threshold_subsampling_still_learns() {
        let ds = grid_dataset();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: 2, max_thresholds_per_feature: 3, ..Default::default() },
        );
        // With only 3 candidate thresholds the tree may be slightly worse but
        // must still beat the 25% majority baseline by a wide margin.
        let correct =
            (0..ds.n_samples()).filter(|&i| tree.predict(ds.row(i)) == ds.label(i)).count();
        assert!(correct >= 75, "only {correct}/100 correct");
    }

    #[test]
    fn one_threshold_per_feature_takes_the_median() {
        // Nine change points per feature; the median one is 4.5, the
        // quadrant boundary, so depth 2 still separates all four classes.
        let ds = grid_dataset();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: 2, max_thresholds_per_feature: 1, ..Default::default() },
        );
        for i in 0..ds.n_samples() {
            assert_eq!(tree.predict(ds.row(i)), ds.label(i));
        }
        assert_eq!(candidate_boundaries(&[(0.0, 0), (1.0, 0), (2.0, 0), (3.0, 0)], 1), vec![2]);
    }

    #[test]
    fn pure_node_stops_early() {
        let rows = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let labels = vec![1, 1, 1, 1];
        let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
        let tree = train_classifier(&ds, &TrainParams::default());
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.predict(&[9.0]), 1);
    }

    #[test]
    fn midpoint_never_reaches_hi() {
        let cases = [(0.0f32, 1.0f32), (1.0, 1.0f32.next_up()), (-3.0, (-3.0f32).next_up())];
        for (lo, hi) in cases {
            let m = midpoint(lo, hi);
            assert!(m >= lo && m < hi, "midpoint({lo},{hi}) = {m}");
        }
    }

    /// Random integer rows: values `0..64`, 1–4 features, 2–4 classes,
    /// plus an all-0 and an all-65 row that pin every feature's range.
    fn arb_int_rows() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<u16>, usize)> {
        (1usize..5, 2usize..5, 2usize..120, any::<u64>()).prop_map(|(nf, nc, n, seed)| {
            use rand::rngs::SmallRng;
            use rand::{Rng, SeedableRng};
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rows: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..nf).map(|_| rng.random_range(0..64u32) as f32).collect())
                .collect();
            rows.extend([vec![0.0; nf], vec![65.0; nf]]);
            // Label by a threshold on the first feature, with noise, so
            // most draws have a split worth finding.
            let labels = rows
                .iter()
                .map(|r| {
                    if rng.random_range(0..4u32) == 0 {
                        rng.random_range(0..nc as u16)
                    } else {
                        (r[0] as u16 * nc as u16) / 66
                    }
                })
                .collect();
            (rows, labels, nc)
        })
    }

    proptest! {
        /// With a bin per value, the histogram boundaries are the sorted
        /// change points plus boundaries around empty bins, so the streaming root split is
        /// the exact batch root split: same feature, same rows on each
        /// side, same score to the bit.
        #[test]
        fn split_search_batch_equals_stream((rows, labels, nc) in arb_int_rows()) {
            let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
            let view = ds.view();
            let params = TrainParams {
                max_thresholds_per_feature: 0,
                threshold_budget_per_feature: None,
                ..TrainParams::default()
            };
            let positions: Vec<usize> = (0..view.len()).collect();
            let counts = class_counts(&view, &positions, view.n_classes());
            let batch = Builder::new(&view, &params).find_best_split(&view, &positions, &counts);

            // 65 bins over [0, 65] are one unit wide: every value has its
            // own bin and every edge is an integer, where the threshold
            // must stop just below it. Warmup holds every row and no split
            // is attempted during the replay, so the root sees them all.
            let n = rows.len();
            let mut st = StreamTree::new(
                rows[0].len(),
                nc,
                StreamParams { bins: 65, warmup: n, split_period: n + 1, ..StreamParams::default() },
            );
            for (r, &l) in rows.iter().zip(&labels) {
                st.update(r, l);
            }
            let stream = st.best_split(0);

            prop_assert_eq!(batch.is_some(), stream.is_some());
            if let (Some(b), Some(s)) = (batch, stream) {
                prop_assert_eq!(b.feature, s.feature);
                prop_assert_eq!(b.score.to_bits(), s.score.to_bits());
                for r in &rows {
                    prop_assert_eq!(r[b.feature] <= b.threshold, r[s.feature] <= s.threshold);
                }
            }
        }
    }
}
