//! Decision-tree representation and traversal.
//!
//! Trees are stored as flat node arenas. Split semantics follow CART (and the
//! SpliDT paper's TCAM encoding): a sample goes **left** when
//! `x[feature] <= threshold`, **right** otherwise. Leaves carry the majority
//! class, the training sample count, and a stable *leaf index* used by
//! SpliDT's Algorithm 1 to route samples to next-partition subtrees and by
//! the Range-Marking rule generator to emit one TCAM rule per leaf.

use std::collections::BTreeSet;

/// Index of a node within a [`Tree`]'s arena.
pub type NodeId = u32;

/// A single tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Internal split node: `x[feature] <= threshold` goes to `left`.
    Split {
        /// Feature (column) index tested by this node.
        feature: usize,
        /// Split threshold; `<=` goes left.
        threshold: f32,
        /// Left child (condition true).
        left: NodeId,
        /// Right child (condition false).
        right: NodeId,
    },
    /// Leaf node.
    Leaf {
        /// Majority class at this leaf.
        label: u16,
        /// Number of training samples that reached the leaf.
        n_samples: u32,
        /// Dense per-tree leaf index (`0..n_leaves`), assigned in
        /// construction order.
        leaf_index: u32,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone)]
pub struct Tree {
    nodes: Vec<Node>,
    root: NodeId,
    n_leaves: u32,
    n_features: usize,
}

impl Tree {
    /// Creates a tree from a node arena. `root` must be a valid index and the
    /// arena must form a proper tree (checked with debug assertions by
    /// [`Tree::validate`]).
    pub fn from_arena(nodes: Vec<Node>, root: NodeId, n_features: usize) -> Self {
        let n_leaves = nodes.iter().filter(|n| matches!(n, Node::Leaf { .. })).count() as u32;
        let t = Self { nodes, root, n_leaves, n_features };
        debug_assert!(t.validate().is_ok(), "invalid tree: {:?}", t.validate());
        t
    }

    /// A single-leaf tree that always predicts `label`.
    pub fn leaf(label: u16, n_samples: u32, n_features: usize) -> Self {
        Self {
            nodes: vec![Node::Leaf { label, n_samples, leaf_index: 0 }],
            root: 0,
            n_leaves: 1,
            n_features,
        }
    }

    /// Structural sanity check: indices in range, every leaf_index unique and
    /// dense, no node reachable twice.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.nodes.len()];
        let mut leaf_idx = BTreeSet::new();
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let i = id as usize;
            if i >= self.nodes.len() {
                return Err(format!("node id {id} out of range"));
            }
            if seen[i] {
                return Err(format!("node {id} reachable twice"));
            }
            seen[i] = true;
            match &self.nodes[i] {
                Node::Split { left, right, feature, .. } => {
                    if *feature >= self.n_features {
                        return Err(format!("feature {feature} out of range"));
                    }
                    stack.push(*left);
                    stack.push(*right);
                }
                Node::Leaf { leaf_index, .. } => {
                    if !leaf_idx.insert(*leaf_index) {
                        return Err(format!("duplicate leaf_index {leaf_index}"));
                    }
                }
            }
        }
        if leaf_idx.len() as u32 != self.n_leaves {
            return Err("leaf count mismatch".into());
        }
        if let Some(&max) = leaf_idx.iter().next_back() {
            if max + 1 != self.n_leaves {
                return Err("leaf indices not dense".into());
            }
        }
        Ok(())
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// All nodes (arena order).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> u32 {
        self.n_leaves
    }

    /// Number of features of the training matrix (columns), not the number
    /// of *distinct* features used — see [`Tree::features_used`].
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Maximum root-to-leaf edge count. A single leaf has depth 0.
    pub fn depth(&self) -> usize {
        fn go(t: &Tree, id: NodeId) -> usize {
            match t.node(id) {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + go(t, *left).max(go(t, *right)),
            }
        }
        go(self, self.root)
    }

    /// The set of distinct features referenced by split nodes.
    pub fn features_used(&self) -> BTreeSet<usize> {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature, .. } => Some(*feature),
                Node::Leaf { .. } => None,
            })
            .collect()
    }

    /// Sorted distinct thresholds used for `feature`.
    pub fn thresholds_for(&self, feature: usize) -> Vec<f32> {
        let mut ts: Vec<f32> = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Split { feature: f, threshold, .. } if *f == feature => Some(*threshold),
                _ => None,
            })
            .collect();
        ts.sort_by(|a, b| a.partial_cmp(b).expect("thresholds are finite"));
        ts.dedup();
        ts
    }

    /// Predicted class for a feature row.
    pub fn predict(&self, row: &[f32]) -> u16 {
        match self.node(self.leaf_of(row)) {
            Node::Leaf { label, .. } => *label,
            Node::Split { .. } => unreachable!("leaf_of returns a leaf"),
        }
    }

    /// The node id of the leaf a row lands in.
    pub fn leaf_of(&self, row: &[f32]) -> NodeId {
        let mut id = self.root;
        loop {
            match self.node(id) {
                Node::Leaf { .. } => return id,
                Node::Split { feature, threshold, left, right } => {
                    id = if row[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// The dense leaf index (`0..n_leaves`) a row lands in.
    pub fn leaf_index_of(&self, row: &[f32]) -> u32 {
        match self.node(self.leaf_of(row)) {
            Node::Leaf { leaf_index, .. } => *leaf_index,
            Node::Split { .. } => unreachable!(),
        }
    }

    /// Iterates over `(leaf_index, label, n_samples, path)` for every leaf.
    ///
    /// `path` is the list of `(feature, threshold, went_left)` decisions from
    /// the root — exactly the predicate the Range-Marking encoder turns into
    /// a single TCAM rule.
    pub fn leaves(&self) -> Vec<LeafInfo> {
        let mut out = Vec::with_capacity(self.n_leaves as usize);
        let mut stack: Vec<(NodeId, Vec<PathStep>)> = vec![(self.root, Vec::new())];
        while let Some((id, path)) = stack.pop() {
            match self.node(id) {
                Node::Leaf { label, n_samples, leaf_index } => out.push(LeafInfo {
                    leaf_index: *leaf_index,
                    node: id,
                    label: *label,
                    n_samples: *n_samples,
                    path,
                }),
                Node::Split { feature, threshold, left, right } => {
                    let mut lp = path.clone();
                    lp.push(PathStep { feature: *feature, threshold: *threshold, went_left: true });
                    let mut rp = path;
                    rp.push(PathStep {
                        feature: *feature,
                        threshold: *threshold,
                        went_left: false,
                    });
                    stack.push((*left, lp));
                    stack.push((*right, rp));
                }
            }
        }
        out.sort_by_key(|l| l.leaf_index);
        out
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// One root-to-leaf decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Feature tested.
    pub feature: usize,
    /// Threshold tested (`<=` goes left).
    pub threshold: f32,
    /// Whether the path took the left (`<=`) branch.
    pub went_left: bool,
}

/// A leaf together with its root-to-leaf predicate.
#[derive(Debug, Clone)]
pub struct LeafInfo {
    /// Dense per-tree leaf index.
    pub leaf_index: u32,
    /// Arena node id of the leaf.
    pub node: NodeId,
    /// Majority class at the leaf.
    pub label: u16,
    /// Training samples that reached the leaf.
    pub n_samples: u32,
    /// Root-to-leaf decisions.
    pub path: Vec<PathStep>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Depth-2 tree:  f0<=5 ? (f1<=2 ? L0:c0 : L1:c1) : L2:c2
    fn sample_tree() -> Tree {
        let nodes = vec![
            Node::Split { feature: 0, threshold: 5.0, left: 1, right: 4 },
            Node::Split { feature: 1, threshold: 2.0, left: 2, right: 3 },
            Node::Leaf { label: 0, n_samples: 3, leaf_index: 0 },
            Node::Leaf { label: 1, n_samples: 2, leaf_index: 1 },
            Node::Leaf { label: 2, n_samples: 5, leaf_index: 2 },
        ];
        Tree::from_arena(nodes, 0, 2)
    }

    #[test]
    fn predict_and_leaf_index() {
        let t = sample_tree();
        assert_eq!(t.predict(&[4.0, 1.0]), 0);
        assert_eq!(t.predict(&[4.0, 3.0]), 1);
        assert_eq!(t.predict(&[6.0, 0.0]), 2);
        // boundary: <= goes left
        assert_eq!(t.predict(&[5.0, 2.0]), 0);
        assert_eq!(t.leaf_index_of(&[6.0, 9.0]), 2);
    }

    #[test]
    fn shape_queries() {
        let t = sample_tree();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.n_leaves(), 3);
        assert_eq!(t.n_nodes(), 5);
        assert_eq!(t.features_used().into_iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(t.thresholds_for(0), vec![5.0]);
        assert_eq!(t.thresholds_for(1), vec![2.0]);
        assert!(t.thresholds_for(7).is_empty());
    }

    #[test]
    fn leaf_paths() {
        let t = sample_tree();
        let leaves = t.leaves();
        assert_eq!(leaves.len(), 3);
        let l0 = &leaves[0];
        assert_eq!(l0.label, 0);
        assert_eq!(l0.path.len(), 2);
        assert!(l0.path[0].went_left && l0.path[1].went_left);
        let l2 = &leaves[2];
        assert_eq!(l2.path.len(), 1);
        assert!(!l2.path[0].went_left);
    }

    #[test]
    fn single_leaf_tree() {
        let t = Tree::leaf(7, 10, 4);
        assert_eq!(t.predict(&[0.0; 4]), 7);
        assert_eq!(t.depth(), 0);
        assert_eq!(t.n_leaves(), 1);
        assert!(t.features_used().is_empty());
    }

    #[test]
    fn validate_catches_duplicate_leaf_index() {
        let nodes = vec![
            Node::Split { feature: 0, threshold: 1.0, left: 1, right: 2 },
            Node::Leaf { label: 0, n_samples: 1, leaf_index: 0 },
            Node::Leaf { label: 1, n_samples: 1, leaf_index: 0 },
        ];
        let t = Tree { nodes, root: 0, n_leaves: 2, n_features: 1 };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_catches_out_of_range_feature() {
        let nodes = vec![
            Node::Split { feature: 5, threshold: 1.0, left: 1, right: 2 },
            Node::Leaf { label: 0, n_samples: 1, leaf_index: 0 },
            Node::Leaf { label: 1, n_samples: 1, leaf_index: 1 },
        ];
        let t = Tree { nodes, root: 0, n_leaves: 2, n_features: 1 };
        assert!(t.validate().is_err());
    }
}
