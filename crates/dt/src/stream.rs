//! Streaming decision-tree training over per-feature fixed-width histograms.
//!
//! This is the SPDT construction ("Finding Decision Tree Splits in Streaming
//! Models"): instead of sorting the full sample matrix, every growing leaf
//! keeps one fixed-width histogram per candidate feature, updated in
//! O(log bins) per sample. [`StreamTree::best_split`] offers the histogram's
//! bin boundaries to the split search the batch trainer offers its sorted
//! value change points to (one `gini`, one budget rule, one selection), and
//! a leaf splits in place once enough evidence accumulates. [`StreamTree::grow`] snapshots
//! the result into the exact same [`Tree`] the batch trainer emits, so every
//! downstream consumer — the SpliDT partition compiler included — is reused
//! unchanged.
//!
//! Bin ranges are **frozen** after a warmup prefix of the stream: the first
//! [`StreamParams::warmup`] samples are buffered, their per-feature min/max
//! fixes `[lo, hi]` for the whole tree (children inherit the parent's
//! ranges), and the buffer is replayed into the root's histograms.
//! Out-of-range values observed later clamp to the edge bins. A sample is
//! binned against the same stored edges the thresholds come from, and a
//! threshold sits *just below* its edge, so `v <= t` routes exactly the
//! samples the left prefix of the histogram counted.
//!
//! The trainer honours the same SpliDT constraints as the batch path: a
//! distinct-feature budget `k` enforced greedily tree-wide, and an optional
//! allowed-feature set. Everything is deterministic — no sampling, no RNG —
//! so the same stream always yields the same tree.

use crate::split::{majority, FeatureBudget, SplitSearch};
use crate::tree::{Node, NodeId, Tree};

pub use crate::split::SplitCandidate;

/// Hyper-parameters for streaming growth.
#[derive(Debug, Clone)]
pub struct StreamParams {
    /// Bins per feature histogram. More bins = finer thresholds, more memory.
    pub bins: usize,
    /// Maximum tree depth (root at depth 0). Depth 0 never splits.
    pub max_depth: usize,
    /// A leaf must hold at least this many samples before it may split.
    pub min_samples_split: usize,
    /// Both children of a split must keep at least this many samples.
    pub min_samples_leaf: usize,
    /// Budget on distinct features used by the whole tree (SpliDT's `k`),
    /// enforced greedily like the batch trainer.
    pub feature_budget: Option<usize>,
    /// If set, only these features may be used at all.
    pub allowed_features: Option<Vec<usize>>,
    /// Samples buffered before bin ranges freeze and growth starts.
    pub warmup: usize,
    /// A leaf re-attempts a split only every `split_period` fresh samples,
    /// amortizing the boundary scan over the stream.
    pub split_period: usize,
}

impl Default for StreamParams {
    fn default() -> Self {
        Self {
            bins: 32,
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            feature_budget: None,
            allowed_features: None,
            warmup: 64,
            split_period: 32,
        }
    }
}

/// Bookkeeping for a leaf that is still growing.
#[derive(Debug, Clone)]
struct LeafStats {
    depth: usize,
    /// Label to emit if this leaf never sees a sample (inherited from the
    /// parent's majority on this side of the split).
    fallback: u16,
    n: u64,
    class_counts: Vec<u64>,
    /// One fixed-width class histogram per candidate feature (parallel to
    /// the budget's candidates): `bins * n_classes` counts, indexed
    /// `bin * n_classes + class`.
    hists: Vec<Vec<u32>>,
    /// Fresh samples since the last split attempt.
    since_attempt: usize,
}

#[derive(Debug, Clone)]
enum SNode {
    Split { feature: usize, threshold: f32, left: NodeId, right: NodeId },
    Leaf(LeafStats),
}

/// An incrementally grown decision tree over histogram sketches.
#[derive(Debug, Clone)]
pub struct StreamTree {
    params: StreamParams,
    n_features: usize,
    n_classes: usize,
    /// Candidate features and the distinct-feature budget.
    budget: FeatureBudget,
    /// Frozen per-feature interior bin edges `lo + b·width`, `b` in
    /// `1..bins`. A sample lands in the bin of the edges at or below it, and
    /// the split at boundary `b` is `v <= edges[b - 1].next_down()`, so a
    /// histogram always counts a sample on the side the split routes it.
    /// Empty for a feature that was constant during warmup (unsplittable —
    /// everything lands in bin 0).
    edges: Vec<Vec<f32>>,
    /// Warmup buffer; `None` once ranges are frozen.
    buffer: Option<Vec<(Vec<f32>, u16)>>,
    nodes: Vec<SNode>,
    n_observed: u64,
}

impl StreamTree {
    /// Creates an empty tree for `n_features`-wide rows and `n_classes`
    /// labels.
    pub fn new(n_features: usize, n_classes: usize, params: StreamParams) -> Self {
        assert!(n_features > 0, "need at least one feature");
        assert!(n_classes > 0, "need at least one class");
        assert!(params.bins >= 2, "need at least two bins");
        let budget = FeatureBudget::new(
            params.allowed_features.as_deref(),
            n_features,
            params.feature_budget,
        );
        Self {
            params,
            n_features,
            n_classes,
            budget,
            edges: Vec::new(),
            buffer: Some(Vec::new()),
            nodes: Vec::new(),
            n_observed: 0,
        }
    }

    /// Total samples observed (warmup buffer included).
    pub fn n_observed(&self) -> u64 {
        self.n_observed
    }

    /// Current number of leaves (1 while still in warmup).
    pub fn n_leaves(&self) -> usize {
        if self.nodes.is_empty() {
            1
        } else {
            self.nodes.iter().filter(|n| matches!(n, SNode::Leaf(_))).count()
        }
    }

    /// Feeds one labeled sample. O(depth + n_candidates · log bins) after
    /// warmup.
    pub fn update(&mut self, row: &[f32], label: u16) {
        assert_eq!(row.len(), self.n_features, "row width mismatch");
        assert!((label as usize) < self.n_classes, "label out of range");
        self.n_observed += 1;
        if let Some(buf) = &mut self.buffer {
            buf.push((row.to_vec(), label));
            if buf.len() >= self.params.warmup {
                self.freeze_and_replay();
            }
            return;
        }
        self.observe_routed(row, label);
    }

    /// Scans the histogram bin boundaries of leaf `id` for the best Gini
    /// split, honouring the feature budget and `min_samples_leaf`. Returns
    /// `None` for split nodes, under-populated leaves, or when no boundary
    /// improves on the parent impurity.
    pub fn best_split(&self, id: NodeId) -> Option<SplitCandidate> {
        self.search(id).map(|(split, _)| split)
    }

    /// Snapshots the current sketch into the batch [`Tree`] type. Leaves
    /// that saw samples predict their majority class; empty leaves fall back
    /// to the label inherited from their parent. Flushes a partial warmup
    /// buffer first, so short streams still produce their majority vote.
    pub fn grow(&mut self) -> Tree {
        if self.buffer.as_ref().is_some_and(|b| !b.is_empty()) {
            self.freeze_and_replay();
        }
        if self.nodes.is_empty() {
            return Tree::leaf(0, 0, self.n_features);
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut leaf_index = 0u32;
        for node in &self.nodes {
            out.push(match node {
                SNode::Split { feature, threshold, left, right } => Node::Split {
                    feature: *feature,
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
                SNode::Leaf(stats) => {
                    let label =
                        if stats.n > 0 { majority(&stats.class_counts) } else { stats.fallback };
                    let idx = leaf_index;
                    leaf_index += 1;
                    Node::Leaf {
                        label,
                        n_samples: stats.n.min(u64::from(u32::MAX)) as u32,
                        leaf_index: idx,
                    }
                }
            });
        }
        Tree::from_arena(out, 0, self.n_features)
    }

    /// Discards all observations and histograms, returning to the warmup
    /// state with the same parameters (used when the label distribution is
    /// known to have shifted and old evidence would poison the retrain).
    pub fn reset(&mut self) {
        self.budget.reset();
        self.edges.clear();
        self.buffer = Some(Vec::new());
        self.nodes.clear();
        self.n_observed = 0;
    }

    /// [`Self::best_split`] and the bin boundary it splits at.
    fn search(&self, id: NodeId) -> Option<(SplitCandidate, usize)> {
        let SNode::Leaf(stats) = self.nodes.get(id as usize)? else {
            return None;
        };
        if stats.n < self.params.min_samples_split as u64 {
            return None;
        }
        let min_leaf = self.params.min_samples_leaf as u64;
        let mut search = SplitSearch::new(&stats.class_counts, stats.n);
        for (&feature, hist) in self.budget.candidates().iter().zip(&stats.hists) {
            if !self.budget.allows(feature) {
                continue;
            }
            search.start_feature();
            let bins = hist.chunks_exact(self.n_classes);
            // Boundary `b` splits bins `..b` from bins `b..` at `edges[b - 1]`.
            for (b, (&edge, bin)) in (1..).zip(self.edges[feature].iter().zip(bins)) {
                for (c, &v) in bin.iter().enumerate() {
                    search.move_left(c, u64::from(v));
                }
                let n_left = search.n_left();
                if n_left < min_leaf || stats.n - n_left < min_leaf {
                    continue;
                }
                // Threshold just below the bin edge: `v <= t` captures
                // exactly the samples binned strictly left of boundary `b`.
                search.offer(feature, edge.next_down(), b);
            }
        }
        search.best()
    }

    /// Freezes bin ranges from the buffered prefix and replays it.
    fn freeze_and_replay(&mut self) {
        let buf = self.buffer.take().expect("warmup buffer present");
        let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); self.n_features];
        for (row, _) in &buf {
            for (f, &v) in row.iter().enumerate() {
                let r = &mut ranges[f];
                r.0 = r.0.min(v);
                r.1 = r.1.max(v);
            }
        }
        let bins = self.params.bins;
        self.edges = ranges
            .into_iter()
            .map(|(lo, hi)| {
                let width = (hi - lo) / bins as f32;
                if width > 0.0 {
                    (1..bins).map(|b| lo + b as f32 * width).collect()
                } else {
                    Vec::new()
                }
            })
            .collect();
        self.nodes.push(SNode::Leaf(self.new_leaf(0, 0)));
        for (row, label) in buf {
            self.observe_routed(&row, label);
        }
    }

    fn new_leaf(&self, depth: usize, fallback: u16) -> LeafStats {
        LeafStats {
            depth,
            fallback,
            n: 0,
            class_counts: vec![0; self.n_classes],
            hists: vec![vec![0; self.params.bins * self.n_classes]; self.budget.candidates().len()],
            since_attempt: 0,
        }
    }

    /// The bin of `v`: the number of edges at or below it. Out-of-range
    /// values clamp to the edge bins.
    fn bin_of(&self, feature: usize, v: f32) -> usize {
        self.edges[feature].partition_point(|&e| e <= v)
    }

    /// Routes a post-warmup sample to its leaf, updates the histograms, and
    /// attempts a split when the leaf is due.
    fn observe_routed(&mut self, row: &[f32], label: u16) {
        let mut id = 0usize;
        while let SNode::Split { feature, threshold, left, right } = &self.nodes[id] {
            id = if row[*feature] <= *threshold { *left as usize } else { *right as usize };
        }
        let bins: Vec<usize> =
            self.budget.candidates().iter().map(|&f| self.bin_of(f, row[f])).collect();
        let n_classes = self.n_classes;
        let (due, depth_ok) = {
            let SNode::Leaf(stats) = &mut self.nodes[id] else { unreachable!() };
            stats.n += 1;
            stats.class_counts[label as usize] += 1;
            for (ci, &bin) in bins.iter().enumerate() {
                stats.hists[ci][bin * n_classes + label as usize] += 1;
            }
            stats.since_attempt += 1;
            (
                stats.since_attempt >= self.params.split_period
                    && stats.n >= self.params.min_samples_split as u64,
                stats.depth < self.params.max_depth,
            )
        };
        if due {
            let SNode::Leaf(stats) = &mut self.nodes[id] else { unreachable!() };
            stats.since_attempt = 0;
            if depth_ok {
                self.try_split(id as NodeId);
            }
        }
    }

    /// Splits leaf `id` in place if [`Self::best_split`] finds a winner. The
    /// children start with empty histograms: evidence restarts below the
    /// split, which is what keeps per-leaf memory bounded in SPDT.
    fn try_split(&mut self, id: NodeId) {
        let Some((cand, boundary)) = self.search(id) else {
            return;
        };
        let SNode::Leaf(stats) = &self.nodes[id as usize] else {
            return;
        };
        let depth = stats.depth;
        // Child fallbacks: the majority on each side of the chosen boundary
        // in the parent's histogram for the chosen feature.
        let ci =
            self.budget.candidates().iter().position(|&f| f == cand.feature).expect("candidate");
        let mut left_counts = vec![0u64; self.n_classes];
        for bin in stats.hists[ci].chunks_exact(self.n_classes).take(boundary) {
            for (l, &v) in left_counts.iter_mut().zip(bin) {
                *l += u64::from(v);
            }
        }
        let right_counts: Vec<u64> =
            stats.class_counts.iter().zip(&left_counts).map(|(&t, &l)| t - l).collect();
        let left_fb = majority(&left_counts);
        let right_fb = majority(&right_counts);

        self.budget.commit(cand.feature);
        let left = self.nodes.len() as NodeId;
        let right = left + 1;
        self.nodes.push(SNode::Leaf(self.new_leaf(depth + 1, left_fb)));
        self.nodes.push(SNode::Leaf(self.new_leaf(depth + 1, right_fb)));
        self.nodes[id as usize] =
            SNode::Split { feature: cand.feature, threshold: cand.threshold, left, right };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Streams the 10x10 quadrant grid (class = quadrant) `epochs` times in
    /// a fixed interleaved order.
    fn stream_grid(tree: &mut StreamTree, epochs: usize) {
        for e in 0..epochs {
            for s in 0..100usize {
                // Stride by a unit coprime to 100 so each epoch interleaves
                // classes instead of streaming them in blocks.
                let i = (s * 37 + e * 13) % 100;
                let (x, y) = ((i / 10) as f32, (i % 10) as f32);
                let label = (u16::from(x >= 5.0) << 1) | u16::from(y >= 5.0);
                tree.update(&[x, y], label);
            }
        }
    }

    fn grid_params() -> StreamParams {
        StreamParams {
            bins: 16,
            max_depth: 4,
            warmup: 50,
            split_period: 16,
            ..StreamParams::default()
        }
    }

    #[test]
    fn learns_quadrants_from_stream() {
        let mut st = StreamTree::new(2, 4, grid_params());
        stream_grid(&mut st, 4);
        let tree = st.grow();
        let mut correct = 0;
        for i in 0..100usize {
            let (x, y) = ((i / 10) as f32, (i % 10) as f32);
            let label = (u16::from(x >= 5.0) << 1) | u16::from(y >= 5.0);
            if tree.predict(&[x, y]) == label {
                correct += 1;
            }
        }
        assert!(correct >= 95, "only {correct}/100 correct");
        assert!(tree.depth() <= 4);
    }

    #[test]
    fn max_depth_is_respected() {
        for d in 0..4 {
            let mut st = StreamTree::new(2, 4, StreamParams { max_depth: d, ..grid_params() });
            stream_grid(&mut st, 3);
            let tree = st.grow();
            assert!(tree.depth() <= d, "depth {} exceeds max {}", tree.depth(), d);
        }
    }

    #[test]
    fn feature_budget_limits_distinct_features() {
        let mut st =
            StreamTree::new(2, 4, StreamParams { feature_budget: Some(1), ..grid_params() });
        stream_grid(&mut st, 4);
        let tree = st.grow();
        assert!(tree.features_used().len() <= 1, "used {:?}", tree.features_used());
    }

    #[test]
    fn allowed_features_is_respected() {
        let mut st = StreamTree::new(
            2,
            4,
            StreamParams { allowed_features: Some(vec![1]), ..grid_params() },
        );
        stream_grid(&mut st, 4);
        let tree = st.grow();
        assert!(tree.features_used().iter().all(|&f| f == 1));
    }

    #[test]
    fn deterministic_given_same_stream() {
        let mut a = StreamTree::new(2, 4, grid_params());
        let mut b = StreamTree::new(2, 4, grid_params());
        stream_grid(&mut a, 3);
        stream_grid(&mut b, 3);
        assert_eq!(a.grow().nodes(), b.grow().nodes());
    }

    #[test]
    fn empty_stream_grows_single_leaf() {
        let mut st = StreamTree::new(3, 2, StreamParams::default());
        let tree = st.grow();
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn short_stream_flushes_warmup_buffer() {
        // Fewer samples than warmup: grow() must still vote the majority.
        let mut st = StreamTree::new(1, 2, StreamParams { warmup: 1000, ..Default::default() });
        for _ in 0..10 {
            st.update(&[1.0], 1);
        }
        st.update(&[0.0], 0);
        let tree = st.grow();
        assert_eq!(tree.predict(&[0.5]), 1);
        assert_eq!(st.n_observed(), 11);
    }

    #[test]
    fn best_split_exposes_root_candidate() {
        let mut st = StreamTree::new(2, 4, grid_params());
        stream_grid(&mut st, 1);
        // Root may already have split; find any growing leaf and check the
        // API contract on a split node (None) and valid bounds on leaves.
        let cand = st.best_split(0);
        if let Some(c) = cand {
            assert!(c.feature < 2);
            assert!(c.score >= 0.0 && c.score < 1.0);
        }
        assert!(st.best_split(9999).is_none());
    }

    #[test]
    fn reset_returns_to_fresh_state() {
        let mut st = StreamTree::new(2, 4, grid_params());
        stream_grid(&mut st, 2);
        st.reset();
        assert_eq!(st.n_observed(), 0);
        assert_eq!(st.n_leaves(), 1);
        let mut fresh = StreamTree::new(2, 4, grid_params());
        stream_grid(&mut st, 2);
        stream_grid(&mut fresh, 2);
        assert_eq!(st.grow().nodes(), fresh.grow().nodes());
    }

    #[test]
    fn constant_feature_never_splits() {
        let mut st = StreamTree::new(2, 2, StreamParams { warmup: 8, ..Default::default() });
        for i in 0..200 {
            // Feature 0 constant, feature 1 informative.
            st.update(&[3.0, (i % 10) as f32], u16::from(i % 10 >= 5));
        }
        let tree = st.grow();
        assert!(tree.features_used().iter().all(|&f| f == 1));
        assert!(tree.predict(&[3.0, 9.0]) == 1 && tree.predict(&[3.0, 0.0]) == 0);
    }

    /// Streams `rows` as one warmup batch and attempts exactly one root
    /// split, at the end of the replay.
    fn one_split(bins: usize, rows: &[(f32, u16)]) -> StreamTree {
        let n = rows.len();
        let mut st = StreamTree::new(
            1,
            2,
            StreamParams { bins, warmup: n, split_period: n, ..Default::default() },
        );
        for &(v, label) in rows {
            st.update(&[v], label);
        }
        st
    }

    #[test]
    fn split_fallbacks_count_the_chosen_boundary() {
        // The split lands at boundary 11: edge 7257864, threshold
        // 7257863.5. Dividing that threshold by the bin width gives bin 11,
        // not 10, so the fallbacks must be counted from the boundary the
        // search chose: counted through bin 11, the left side would take in
        // its six class-1 rows and outvote the four class-0 rows.
        let mut rows = vec![(561_941.0, 0), (10_301_465.0, 1)];
        rows.extend([(6_900_000.0, 0); 3]);
        rows.extend([(7_500_000.0, 1); 6]);
        let tree = one_split(16, &rows).grow();
        assert_eq!(tree.n_leaves(), 2);
        for (v, label) in rows {
            assert_eq!(tree.predict(&[v]), label, "v={v}");
        }
    }

    #[test]
    fn bins_agree_with_split_thresholds() {
        // Dividing by the bin width would put 2981889 in bin 26, yet the
        // split at boundary 27 (threshold 2981888.8) routes it right.
        // Counted in bin 26, it would tie boundaries 26 and 27, the first
        // would win, and the class-0 rows at 2960000 would go right with it.
        let mut rows = vec![(1_703_278.0, 0), (3_218_669.0, 1)];
        rows.extend([(2_960_000.0, 0); 3]);
        rows.extend([(2_981_889.0, 1); 3]);
        let mut st = one_split(32, &rows);
        let edges = st.edges[0].clone();
        assert_eq!(st.bin_of(0, 2_981_889.0), 27);
        for (b, edge) in (1..).zip(&edges) {
            let t = edge.next_down();
            for v in [t.next_down(), t, *edge, edge.next_up(), edge.floor(), edge.ceil()] {
                assert_eq!(v <= t, st.bin_of(0, v) < b, "v={v} boundary {b}");
            }
        }
        let tree = st.grow();
        for (v, label) in rows {
            assert_eq!(tree.predict(&[v]), label, "v={v}");
        }
    }

    #[test]
    fn thresholds_route_consistently_with_bins() {
        // A threshold emitted at bin boundary b must send exactly the values
        // binned below b to the left.
        let mut st = StreamTree::new(
            1,
            2,
            StreamParams { bins: 8, warmup: 16, split_period: 8, ..Default::default() },
        );
        for i in 0..160 {
            let v = (i % 16) as f32;
            st.update(&[v], u16::from(v >= 8.0));
        }
        let tree = st.grow();
        for v in 0..16 {
            assert_eq!(tree.predict(&[v as f32]), u16::from(v >= 8), "v={v}");
        }
    }
}
