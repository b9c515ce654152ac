//! SpliDT's custom partitioned training — Algorithm 1 of the paper.
//!
//! Train one subtree for the first partition on all samples (window-1
//! features). For each leaf, take the sample subset that reached it and
//! train the corresponding next-partition subtree on the **next window's**
//! features of those samples. Leaves that are pure, too small, or in the
//! final partition become classification exits.

use crate::config::SplidtConfig;
use crate::model::{LeafTarget, PartitionedTree, Subtree};
use splidt_dt::{train_classifier_on, TrainParams};
use splidt_flow::WindowedDataset;
use std::collections::VecDeque;

/// Trains a partitioned tree on a windowed dataset.
///
/// `allowed_features` restricts splits (pass the hardware-eligible feature
/// columns; the ideal baseline passes everything). `wd` must have at least
/// `config.partitions.len()` windows.
pub fn train_partitioned(
    wd: &WindowedDataset,
    config: &SplidtConfig,
    allowed_features: &[usize],
) -> PartitionedTree {
    config.validate().expect("valid config");
    let p = config.n_partitions();
    assert!(
        wd.n_windows() >= p,
        "windowed dataset has {} windows, config needs {}",
        wd.n_windows(),
        p
    );
    assert!(wd.n_rows() > 0, "empty training set");

    struct Job {
        sid: u16,
        partition: usize,
        rows: Vec<usize>,
    }

    let mut subtrees: Vec<Subtree> = Vec::new();
    let mut queue = VecDeque::new();
    queue.push_back(Job { sid: 1, partition: 0, rows: (0..wd.n_rows()).collect() });
    let mut next_sid: u16 = 2;

    while let Some(job) = queue.pop_front() {
        let ds = &wd.per_window[job.partition];
        let view = ds.view_of(job.rows.clone());
        let params = TrainParams {
            max_depth: config.partitions[job.partition],
            min_samples_split: (config.min_samples_leaf * 2).max(2),
            min_samples_leaf: config.min_samples_leaf,
            feature_budget: Some(config.k),
            allowed_features: Some(allowed_features.to_vec()),
            max_thresholds_per_feature: config.max_thresholds_per_feature,
            threshold_budget_per_feature: Some(15),
        };
        let tree = train_classifier_on(&view, &params);

        // Route this job's samples to leaves.
        let n_leaves = tree.n_leaves() as usize;
        let mut leaf_rows: Vec<Vec<usize>> = vec![Vec::new(); n_leaves];
        for &row in &job.rows {
            let leaf = tree.leaf_index_of(ds.row(row)) as usize;
            leaf_rows[leaf].push(row);
        }

        // Decide per-leaf targets; spawn child jobs.
        let leaves = tree.leaves();
        let mut targets = vec![LeafTarget::Class(0); n_leaves];
        for leaf in &leaves {
            let li = leaf.leaf_index as usize;
            let rows = &leaf_rows[li];
            let majority = leaf.label;
            let last_partition = job.partition + 1 >= p;
            let pure = {
                let mut labels = rows.iter().map(|&r| wd.labels[r]);
                match labels.next() {
                    None => true,
                    Some(first) => labels.all(|l| l == first),
                }
            };
            let can_spawn = !last_partition
                && !pure
                && rows.len() >= config.min_subtree_samples
                && (subtrees.len() + queue.len() + 2) <= config.max_subtrees;
            if can_spawn {
                let sid = next_sid;
                next_sid += 1;
                targets[li] = LeafTarget::Next { sid, fallback: majority };
                queue.push_back(Job { sid, partition: job.partition + 1, rows: rows.clone() });
            } else {
                targets[li] = LeafTarget::Class(majority);
            }
        }
        subtrees.push(Subtree {
            sid: job.sid,
            partition: job.partition,
            tree,
            leaf_targets: targets,
        });
    }

    // Jobs are queued in BFS order and sids assigned on enqueue, so
    // subtrees arrive sorted by sid already.
    debug_assert!(subtrees.windows(2).all(|w| w[0].sid < w[1].sid));

    let model = PartitionedTree { config: config.clone(), subtrees, n_classes: wd.n_classes };
    debug_assert_eq!(model.validate(), Ok(()));
    model
}

/// Evaluates a partitioned tree on a windowed dataset, returning macro-F1.
pub fn evaluate_partitioned(model: &PartitionedTree, wd: &WindowedDataset) -> f64 {
    let p = model.n_partitions();
    let preds: Vec<u16> = (0..wd.n_rows())
        .map(|row| {
            let windows: Vec<Vec<f32>> =
                (0..p.min(wd.n_windows())).map(|w| wd.per_window[w].row(row).to_vec()).collect();
            model.predict(&windows).class
        })
        .collect();
    splidt_dt::metrics::macro_f1(&wd.labels, &preds, wd.n_classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use splidt_flow::{
        catalog, generate, select_flows, spec, stratified_split, windowed_dataset, DatasetId,
    };

    fn d2_windows(p: usize, n: usize) -> (WindowedDataset, WindowedDataset) {
        let flows = generate(DatasetId::D2, n, 11);
        let (tr, te) = stratified_split(&flows, 0.3, 5);
        let nc = spec(DatasetId::D2).n_classes as usize;
        (
            windowed_dataset(&select_flows(&flows, &tr), p, nc),
            windowed_dataset(&select_flows(&flows, &te), p, nc),
        )
    }

    #[test]
    fn trains_valid_model() {
        let (tr, _) = d2_windows(3, 600);
        let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
        let m = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        assert_eq!(m.validate(), Ok(()));
        assert!(m.n_subtrees() >= 2, "should spawn child subtrees");
        assert!(m.max_features_per_subtree() <= 4);
        // subtrees exist in multiple partitions
        assert!(m.subtrees.iter().any(|s| s.partition > 0));
    }

    #[test]
    fn beats_majority_baseline() {
        let (tr, te) = d2_windows(3, 900);
        let cfg = SplidtConfig { partitions: vec![3, 3, 2], k: 4, ..Default::default() };
        let m = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        let f1 = evaluate_partitioned(&m, &te);
        assert!(f1 > 0.5, "test F1 {f1}");
        // train F1 higher than test is expected; both well above chance
        let f1_train = evaluate_partitioned(&m, &tr);
        assert!(f1_train > f1 * 0.9);
    }

    #[test]
    fn total_features_exceed_k() {
        // The whole point of SpliDT: distinct features across subtrees can
        // exceed the per-subtree budget k.
        let (tr, _) = d2_windows(4, 900);
        let cfg = SplidtConfig { partitions: vec![3, 3, 3, 2], k: 3, ..Default::default() };
        let m = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        assert!(m.max_features_per_subtree() <= 3);
        assert!(
            m.total_features().len() > 3,
            "total features {} should exceed k=3",
            m.total_features().len()
        );
    }

    #[test]
    fn respects_max_subtrees() {
        let (tr, _) = d2_windows(4, 900);
        let cfg = SplidtConfig {
            partitions: vec![3, 3, 3, 3],
            k: 4,
            max_subtrees: 5,
            min_subtree_samples: 4,
            ..Default::default()
        };
        let m = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        assert!(m.n_subtrees() <= 5, "{} subtrees", m.n_subtrees());
    }

    #[test]
    fn single_partition_is_plain_tree() {
        let (tr, te) = d2_windows(1, 600);
        let cfg = SplidtConfig { partitions: vec![6], k: 4, ..Default::default() };
        let m = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        assert_eq!(m.n_subtrees(), 1);
        assert!(m.subtrees[0].leaf_targets.iter().all(|t| matches!(t, LeafTarget::Class(_))));
        let f1 = evaluate_partitioned(&m, &te);
        assert!(f1 > 0.3);
    }

    #[test]
    fn deterministic_training() {
        let (tr, _) = d2_windows(2, 400);
        let cfg = SplidtConfig { partitions: vec![2, 2], k: 3, ..Default::default() };
        let a = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        let b = train_partitioned(&tr, &cfg, &catalog().hardware_eligible());
        assert_eq!(a.n_subtrees(), b.n_subtrees());
        for (x, y) in a.subtrees.iter().zip(&b.subtrees) {
            assert_eq!(x.tree.nodes(), y.tree.nodes());
            assert_eq!(x.leaf_targets, y.leaf_targets);
        }
    }
}
