//! The one split search behind both classification trainers.
//!
//! Batch CART ([`crate::train`]) and the streaming SPDT trainer
//! ([`crate::stream`]) choose a node's split the same way and differ only
//! in where a candidate boundary comes from: the batch trainer offers the
//! value change points of the node's sorted samples, the streaming trainer
//! the edges of its frozen histogram bins — the same search over coarser
//! boundaries ("Finding Decision Tree Splits in Streaming and Massively
//! Parallel Models"). Everything they share lives here:
//!
//! * [`gini`] and [`majority`] over a class histogram;
//! * [`FeatureBudget`] — the candidate features and SpliDT's greedy
//!   distinct-feature budget `k` (§2.2);
//! * [`SplitSearch`] — the boundary scan: the caller moves samples to the
//!   left side boundary by boundary and offers each one; the search scores
//!   it by weighted child Gini and keeps the best.

use std::collections::BTreeSet;

/// A split chosen by the search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SplitCandidate {
    /// Feature (column) index to test.
    pub feature: usize,
    /// Threshold; `v <= threshold` goes left.
    pub threshold: f32,
    /// Weighted Gini of the two children (lower is better).
    pub score: f64,
}

/// The features a tree may split on: the allowed set, narrowed by the
/// budget `k` on distinct features. The budget is enforced greedily during
/// growth: once `k` distinct features are committed, further splits may
/// only reuse them.
#[derive(Debug, Clone)]
pub(crate) struct FeatureBudget {
    /// Allowed features, sorted and deduplicated.
    candidates: Vec<usize>,
    k: Option<usize>,
    used: BTreeSet<usize>,
}

impl FeatureBudget {
    /// All `n_features` features, or the `allowed` subset, under budget `k`.
    pub(crate) fn new(allowed: Option<&[usize]>, n_features: usize, k: Option<usize>) -> Self {
        let candidates = match allowed {
            Some(fs) => {
                let mut fs = fs.to_vec();
                fs.sort_unstable();
                fs.dedup();
                assert!(fs.iter().all(|&f| f < n_features), "allowed feature out of range");
                fs
            }
            None => (0..n_features).collect(),
        };
        Self { candidates, k, used: BTreeSet::new() }
    }

    /// The allowed features in increasing order.
    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Whether a split on `feature` stays within the budget.
    pub(crate) fn allows(&self, feature: usize) -> bool {
        match self.k {
            Some(k) if self.used.len() >= k => self.used.contains(&feature),
            _ => true,
        }
    }

    /// Records a split on `feature`.
    pub(crate) fn commit(&mut self, feature: usize) {
        self.used.insert(feature);
    }

    /// Forgets every committed feature.
    pub(crate) fn reset(&mut self) {
        self.used.clear();
    }
}

/// One node's split search. For each feature, in increasing feature order,
/// the caller calls [`Self::start_feature`] and then walks the boundaries
/// in increasing threshold order: [`Self::move_left`] the samples below the
/// next boundary, then [`Self::offer`] it. Because offers arrive in
/// increasing `(feature, threshold)` order, the first of equally good
/// offers wins.
pub(crate) struct SplitSearch<'a> {
    parent: &'a [u64],
    n: u64,
    parent_gini: f64,
    left: Vec<u64>,
    n_left: u64,
    /// Scratch for the right side's counts, so an offer allocates nothing.
    right: Vec<u64>,
    best: Option<(SplitCandidate, usize)>,
}

impl<'a> SplitSearch<'a> {
    /// A search over a node holding `n` samples with class counts `parent`.
    pub(crate) fn new(parent: &'a [u64], n: u64) -> Self {
        Self {
            parent,
            n,
            parent_gini: gini(parent, n),
            left: vec![0; parent.len()],
            n_left: 0,
            right: vec![0; parent.len()],
            best: None,
        }
    }

    /// Starts the next feature with every sample on the right.
    pub(crate) fn start_feature(&mut self) {
        self.left.fill(0);
        self.n_left = 0;
    }

    /// Moves `count` samples of `class` to the left side.
    pub(crate) fn move_left(&mut self, class: usize, count: u64) {
        self.left[class] += count;
        self.n_left += count;
    }

    /// Samples on the left side.
    pub(crate) fn n_left(&self) -> u64 {
        self.n_left
    }

    /// Offers splitting `v <= threshold` at the caller's `boundary` index,
    /// with the samples moved left so far on the left. The offer is dropped
    /// unless it lowers the parent's Gini by more than 1e-12, and kept
    /// if it beats the best so far by more than 1e-12.
    pub(crate) fn offer(&mut self, feature: usize, threshold: f32, boundary: usize) {
        for ((r, &p), &l) in self.right.iter_mut().zip(self.parent).zip(&self.left) {
            *r = p - l;
        }
        let (n_left, n_right) = (self.n_left, self.n - self.n_left);
        let total = self.n as f64;
        let score = (n_left as f64 / total) * gini(&self.left, n_left)
            + (n_right as f64 / total) * gini(&self.right, n_right);
        if score + 1e-12 >= self.parent_gini {
            return; // no impurity decrease
        }
        if self.best.is_none_or(|(cur, _)| score < cur.score - 1e-12) {
            self.best = Some((SplitCandidate { feature, threshold, score }, boundary));
        }
    }

    /// The best offer and its boundary index, if any lowered the Gini.
    pub(crate) fn best(self) -> Option<(SplitCandidate, usize)> {
        self.best
    }
}

/// The class with the most samples; ties go to the smaller class index.
pub(crate) fn majority(counts: &[u64]) -> u16 {
    let mut best = 0usize;
    for (c, &n) in counts.iter().enumerate() {
        if n > counts[best] {
            best = c;
        }
    }
    best as u16
}

/// Gini impurity of a class histogram with `n` total samples.
pub(crate) fn gini(counts: &[u64], n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let n = n as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            p * p
        })
        .sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_math() {
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[10, 0], 10) - 0.0).abs() < 1e-12);
        assert!(gini(&[0, 0], 0).abs() < 1e-12);
    }

    #[test]
    fn majority_breaks_ties_low() {
        assert_eq!(majority(&[3, 5, 5]), 1);
        assert_eq!(majority(&[0, 0]), 0);
    }

    #[test]
    fn budget_narrows_to_committed_features() {
        let mut b = FeatureBudget::new(Some(&[3, 1, 3]), 4, Some(1));
        assert_eq!(b.candidates(), &[1, 3]);
        assert!(b.allows(1) && b.allows(3));
        b.commit(3);
        assert!(!b.allows(1) && b.allows(3));
        b.reset();
        assert!(b.allows(1));
    }

    #[test]
    fn search_keeps_first_of_equal_offers() {
        // Two classes, two samples each; boundary 2 of either feature
        // separates them perfectly.
        let mut s = SplitSearch::new(&[2, 2], 4);
        for feature in 0..2 {
            s.start_feature();
            s.move_left(0, 1);
            s.offer(feature, 0.5, 1);
            s.move_left(0, 1);
            s.offer(feature, 1.5, 2);
        }
        let (best, boundary) = s.best().expect("a split lowers the Gini");
        assert_eq!((best.feature, best.threshold, best.score, boundary), (0, 1.5, 0.0, 2));
    }

    #[test]
    fn search_drops_offers_that_do_not_lower_gini() {
        let mut s = SplitSearch::new(&[2, 2], 4);
        s.start_feature();
        s.move_left(0, 1);
        s.move_left(1, 1);
        s.offer(0, 0.5, 1);
        assert!(s.best().is_none());
    }
}
