//! Impurity-based feature importance and top-k selection.
//!
//! NetBeacon \[85\] and Leo \[43\] pick a single global `top-k` feature set for
//! the whole tree — the constraint SpliDT removes. We reproduce their
//! selection the standard way: train an unconstrained reference tree (or
//! forest), accumulate the Gini impurity decrease attributed to each feature,
//! and keep the `k` features with the largest totals.

use crate::dataset::{Dataset, DatasetView};
use crate::split::gini;
use crate::train::{train_classifier_on, TrainParams};
use crate::tree::{Node, Tree};

/// Computes normalized Gini-importance per feature for a trained tree, using
/// the dataset it was trained on to recover per-node class distributions.
///
/// Returns a vector of length `n_features` summing to 1 (all zeros if the
/// tree is a single leaf).
pub fn feature_importance(tree: &Tree, data: &DatasetView<'_>) -> Vec<f64> {
    let n_features = tree.n_features();
    let mut imp = vec![0.0f64; n_features];
    // Route every sample down the tree, recording per-node class histograms.
    let n_classes = data.n_classes();
    let mut node_counts: Vec<Vec<u64>> = vec![vec![0; n_classes]; tree.n_nodes()];
    for i in 0..data.len() {
        let row = data.row(i);
        let label = data.label(i) as usize;
        let mut id = tree.root();
        loop {
            node_counts[id as usize][label] += 1;
            match tree.node(id) {
                Node::Leaf { .. } => break,
                Node::Split { feature, threshold, left, right } => {
                    id = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }
    let total = data.len() as f64;
    if total == 0.0 {
        return imp;
    }
    for (id, node) in tree.nodes().iter().enumerate() {
        if let Node::Split { feature, left, right, .. } = node {
            let n = node_counts[id].iter().sum::<u64>();
            let nl = node_counts[*left as usize].iter().sum::<u64>();
            let nr = node_counts[*right as usize].iter().sum::<u64>();
            if n == 0 {
                continue;
            }
            let g = gini(&node_counts[id], n);
            let gl = gini(&node_counts[*left as usize], nl);
            let gr = gini(&node_counts[*right as usize], nr);
            let decrease = (n as f64 / total)
                * (g - (nl as f64 / n as f64) * gl - (nr as f64 / n as f64) * gr);
            imp[*feature] += decrease.max(0.0);
        }
    }
    let sum: f64 = imp.iter().sum();
    if sum > 0.0 {
        for v in &mut imp {
            *v /= sum;
        }
    }
    imp
}

/// Selects the global top-k features the way the baselines do: train a
/// reference tree of depth `ref_depth` restricted to `allowed` (or all
/// features), rank by Gini importance, return the best `k` (sorted by
/// feature index).
pub fn top_k_features(
    data: &Dataset,
    k: usize,
    ref_depth: usize,
    allowed: Option<&[usize]>,
) -> Vec<usize> {
    let view = data.view();
    let params = TrainParams {
        max_depth: ref_depth,
        allowed_features: allowed.map(|a| a.to_vec()),
        ..TrainParams::default()
    };
    let tree = train_classifier_on(&view, &params);
    let imp = feature_importance(&tree, &view);
    let mut order: Vec<usize> = (0..imp.len()).collect();
    // Sort by importance descending; ties broken by feature index for
    // determinism.
    order.sort_by(|&a, &b| imp[b].partial_cmp(&imp[a]).expect("finite importance").then(a.cmp(&b)));
    let mut top: Vec<usize> = order.into_iter().take(k).collect();
    top.sort_unstable();
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::train_classifier;

    /// Feature 0 fully determines the class; 1 is weak; 2 is pure noise.
    fn dataset() -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..200u32 {
            let strong = (i % 2) as f32;
            let weak = if i % 10 < 6 { strong } else { 1.0 - strong };
            let noise = ((i * 7919) % 13) as f32;
            rows.push(vec![strong, weak, noise]);
            labels.push((i % 2) as u16);
        }
        Dataset::from_rows(&rows, &labels, None).unwrap()
    }

    #[test]
    fn strong_feature_dominates() {
        let ds = dataset();
        let tree = train_classifier(&ds, &TrainParams { max_depth: 4, ..Default::default() });
        let imp = feature_importance(&tree, &ds.view());
        assert!(imp[0] > 0.9, "importance {imp:?}");
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_picks_strong_then_weak() {
        let ds = dataset();
        let top1 = top_k_features(&ds, 1, 6, None);
        assert_eq!(top1, vec![0]);
        let top2 = top_k_features(&ds, 2, 6, None);
        assert_eq!(top2.len(), 2);
        assert!(top2.contains(&0));
    }

    #[test]
    fn top_k_respects_allowed() {
        let ds = dataset();
        let top = top_k_features(&ds, 1, 6, Some(&[1, 2]));
        assert_eq!(top, vec![1], "weak feature beats noise");
    }

    #[test]
    fn single_leaf_tree_zero_importance() {
        let ds = dataset();
        let tree = Tree::leaf(0, 10, ds.n_features());
        let imp = feature_importance(&tree, &ds.view());
        assert!(imp.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn top_k_larger_than_features_returns_all() {
        let ds = dataset();
        let top = top_k_features(&ds, 10, 4, None);
        assert!(top.len() <= 3);
    }
}
