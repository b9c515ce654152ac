//! The partitioned decision-tree model (paper §3.1, Figure 3).
//!
//! A [`PartitionedTree`] is a DAG of subtrees grouped into partitions. Each
//! subtree has its own (≤ k) feature set; traversal advances one subtree
//! per window, the verdict of one window selecting the next subtree (or a
//! final class). Subtree ids (SIDs) are 1-based; SID 0 is the terminal
//! "done" state after an early exit.

use crate::config::SplidtConfig;
use splidt_dt::Tree;
use std::collections::BTreeSet;

/// Where a subtree leaf sends the flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafTarget {
    /// Continue into a next-partition subtree. `fallback` is the leaf's
    /// majority class, emitted if the flow ends before the next window
    /// completes (the data plane digests it at flow end).
    Next {
        /// SID of the next subtree.
        sid: u16,
        /// Majority class at this leaf.
        fallback: u16,
    },
    /// Classify now (final partition or early exit).
    Class(u16),
}

/// One subtree of the partitioned model.
#[derive(Debug, Clone)]
pub struct Subtree {
    /// 1-based subtree id.
    pub sid: u16,
    /// Partition index (0-based).
    pub partition: usize,
    /// The trained tree (references global feature columns).
    pub tree: Tree,
    /// Per-leaf targets, indexed by the tree's dense `leaf_index`.
    pub leaf_targets: Vec<LeafTarget>,
}

impl Subtree {
    /// The distinct features this subtree matches on (≤ k).
    pub fn features(&self) -> Vec<usize> {
        self.tree.features_used().into_iter().collect()
    }
}

/// A trained partitioned decision tree.
#[derive(Debug, Clone)]
pub struct PartitionedTree {
    /// The configuration it was trained with.
    pub config: SplidtConfig,
    /// Subtrees; index `i` holds SID `i + 1`.
    pub subtrees: Vec<Subtree>,
    /// Number of classes.
    pub n_classes: usize,
}

/// Outcome of software inference over a flow's windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inference {
    /// Final class.
    pub class: u16,
    /// SIDs visited, in order (starts with 1).
    pub path: Vec<u16>,
    /// Number of windows consumed before the verdict.
    pub windows_used: usize,
    /// True when the verdict came from an early-exit or final Class leaf
    /// (false = flow ended mid-tree and the fallback class was used).
    pub exact: bool,
}

impl PartitionedTree {
    /// Number of partitions.
    pub fn n_partitions(&self) -> usize {
        self.config.partitions.len()
    }

    /// Number of subtrees.
    pub fn n_subtrees(&self) -> usize {
        self.subtrees.len()
    }

    /// Borrow a subtree by SID (1-based).
    pub fn subtree(&self, sid: u16) -> &Subtree {
        &self.subtrees[(sid - 1) as usize]
    }

    /// Distinct features used across all subtrees — the paper's
    /// "#Features" metric (Table 3), the quantity SpliDT scales ~5× over
    /// top-k baselines.
    pub fn total_features(&self) -> BTreeSet<usize> {
        self.subtrees.iter().flat_map(|s| s.features()).collect()
    }

    /// Maximum distinct features in any single subtree (must be ≤ k).
    pub fn max_features_per_subtree(&self) -> usize {
        self.subtrees.iter().map(|s| s.features().len()).max().unwrap_or(0)
    }

    /// Total depth actually realized (≤ configured `D`).
    pub fn realized_depth(&self) -> usize {
        // max over root-to-exit chains of per-partition depths
        fn go(m: &PartitionedTree, sid: u16) -> usize {
            let st = m.subtree(sid);
            let own = st.tree.depth();
            let mut best = 0;
            for t in &st.leaf_targets {
                if let LeafTarget::Next { sid: next, .. } = t {
                    best = best.max(go(m, *next));
                }
            }
            own + best
        }
        if self.subtrees.is_empty() {
            0
        } else {
            go(self, 1)
        }
    }

    /// Structural validation: SID links well-formed, partitions ordered,
    /// per-subtree feature budget respected.
    pub fn validate(&self) -> Result<(), String> {
        if self.subtrees.is_empty() {
            return Err("no subtrees".into());
        }
        for (i, st) in self.subtrees.iter().enumerate() {
            if st.sid as usize != i + 1 {
                return Err(format!("subtree {} has sid {}", i, st.sid));
            }
            if st.features().len() > self.config.k {
                return Err(format!(
                    "subtree {} uses {} features > k = {}",
                    st.sid,
                    st.features().len(),
                    self.config.k
                ));
            }
            if st.tree.depth() > self.config.partitions[st.partition] {
                return Err(format!("subtree {} too deep", st.sid));
            }
            if st.leaf_targets.len() != st.tree.n_leaves() as usize {
                return Err(format!("subtree {} leaf target arity", st.sid));
            }
            for t in &st.leaf_targets {
                match t {
                    LeafTarget::Next { sid, .. } => {
                        let next = self
                            .subtrees
                            .get((*sid - 1) as usize)
                            .ok_or_else(|| format!("dangling sid {sid}"))?;
                        if next.partition != st.partition + 1 {
                            return Err(format!(
                                "sid {} (p{}) links to sid {} (p{})",
                                st.sid, st.partition, sid, next.partition
                            ));
                        }
                    }
                    LeafTarget::Class(c) => {
                        if *c as usize >= self.n_classes {
                            return Err(format!("class {c} out of range"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Software inference over a flow's per-window feature rows — the
    /// reference semantics the data-plane runtime must reproduce exactly.
    pub fn predict(&self, windows: &[Vec<f32>]) -> Inference {
        let mut sid: u16 = 1;
        let mut path = vec![1u16];
        for (w, row) in windows.iter().enumerate() {
            let st = self.subtree(sid);
            let leaf = st.tree.leaf_index_of(row) as usize;
            match st.leaf_targets[leaf] {
                LeafTarget::Class(c) => {
                    return Inference { class: c, path, windows_used: w + 1, exact: true };
                }
                LeafTarget::Next { sid: next, fallback } => {
                    if w + 1 == windows.len() {
                        // Flow ended at this boundary: digest the fallback.
                        return Inference {
                            class: fallback,
                            path,
                            windows_used: w + 1,
                            exact: false,
                        };
                    }
                    sid = next;
                    path.push(next);
                }
            }
        }
        // No windows at all (cannot happen for non-empty flows).
        Inference { class: 0, path, windows_used: 0, exact: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splidt_dt::Node;

    /// Two-partition model: root subtree splits on f0; left leaf exits
    /// with class 0, right leaf continues to subtree 2 which splits on f1.
    pub(crate) fn toy_model() -> PartitionedTree {
        let t1 = Tree::from_arena(
            vec![
                Node::Split { feature: 0, threshold: 10.0, left: 1, right: 2 },
                Node::Leaf { label: 0, n_samples: 5, leaf_index: 0 },
                Node::Leaf { label: 1, n_samples: 5, leaf_index: 1 },
            ],
            0,
            3,
        );
        let t2 = Tree::from_arena(
            vec![
                Node::Split { feature: 1, threshold: 100.0, left: 1, right: 2 },
                Node::Leaf { label: 1, n_samples: 3, leaf_index: 0 },
                Node::Leaf { label: 2, n_samples: 2, leaf_index: 1 },
            ],
            0,
            3,
        );
        PartitionedTree {
            config: SplidtConfig { partitions: vec![1, 1], k: 2, ..Default::default() },
            subtrees: vec![
                Subtree {
                    sid: 1,
                    partition: 0,
                    tree: t1,
                    leaf_targets: vec![
                        LeafTarget::Class(0),
                        LeafTarget::Next { sid: 2, fallback: 1 },
                    ],
                },
                Subtree {
                    sid: 2,
                    partition: 1,
                    tree: t2,
                    leaf_targets: vec![LeafTarget::Class(1), LeafTarget::Class(2)],
                },
            ],
            n_classes: 3,
        }
    }

    #[test]
    fn validates() {
        assert_eq!(toy_model().validate(), Ok(()));
    }

    #[test]
    fn predict_walks_partitions() {
        let m = toy_model();
        // f0 ≤ 10 → early exit class 0 in window 1
        let inf = m.predict(&[vec![5.0, 0.0, 0.0], vec![0.0, 0.0, 0.0]]);
        assert_eq!(inf.class, 0);
        assert_eq!(inf.windows_used, 1);
        assert!(inf.exact);
        // f0 > 10 → subtree 2; window 2 f1 ≤ 100 → class 1
        let inf = m.predict(&[vec![50.0, 0.0, 0.0], vec![0.0, 50.0, 0.0]]);
        assert_eq!(inf.class, 1);
        assert_eq!(inf.path, vec![1, 2]);
        // f1 > 100 → class 2
        let inf = m.predict(&[vec![50.0, 0.0, 0.0], vec![0.0, 500.0, 0.0]]);
        assert_eq!(inf.class, 2);
        assert!(inf.exact);
    }

    #[test]
    fn flow_ending_early_uses_fallback() {
        let m = toy_model();
        // only one window, and it routes to subtree 2 → fallback class 1
        let inf = m.predict(&[vec![50.0, 0.0, 0.0]]);
        assert_eq!(inf.class, 1);
        assert!(!inf.exact);
    }

    #[test]
    fn feature_accounting() {
        let m = toy_model();
        assert_eq!(m.total_features().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(m.max_features_per_subtree(), 1);
        assert_eq!(m.realized_depth(), 2);
    }

    #[test]
    fn validate_catches_bad_links() {
        let mut m = toy_model();
        m.subtrees[0].leaf_targets[1] = LeafTarget::Next { sid: 9, fallback: 0 };
        assert!(m.validate().is_err());
        let mut m = toy_model();
        m.subtrees[0].leaf_targets[0] = LeafTarget::Class(99);
        assert!(m.validate().is_err());
    }
}
