//! Dense, row-major datasets for tree training.
//!
//! A [`Dataset`] owns its feature matrix; a [`DatasetView`] is a borrowed
//! subset of rows (sample indices into a dataset), which is how SpliDT's
//! partitioned training (Algorithm 1 of the paper) routes leaf subsets to the
//! next partition's subtree without copying the matrix.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Errors produced when constructing or splitting datasets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// Rows have inconsistent lengths or do not match the label count.
    ShapeMismatch {
        /// What was expected (human-readable).
        expected: String,
        /// What was found.
        found: String,
    },
    /// The dataset contains no samples.
    Empty,
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::ShapeMismatch { expected, found } => {
                write!(f, "dataset shape mismatch: expected {expected}, found {found}")
            }
            DatasetError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// A dense, row-major labelled dataset.
///
/// Feature values are stored as `f32` (all SpliDT features are integer-valued
/// accumulator readings that fit `f32` exactly up to 2^24; wider counters are
/// quantized identically on the software and data-plane paths, see
/// `splidt-flow`). Labels are class indices in `0..n_classes`.
#[derive(Debug, Clone)]
pub struct Dataset {
    x: Vec<f32>,
    n_features: usize,
    labels: Vec<u16>,
    n_classes: usize,
    feature_names: Vec<String>,
}

impl Dataset {
    /// Builds a dataset from per-sample rows.
    ///
    /// `n_classes` is inferred as `max(label) + 1` — every class index in
    /// `0..n_classes` is considered valid even if absent from `labels`.
    /// `feature_names` defaults to `f0, f1, …` when `None`.
    pub fn from_rows(
        rows: &[Vec<f32>],
        labels: &[u16],
        feature_names: Option<Vec<String>>,
    ) -> Result<Self, DatasetError> {
        if rows.is_empty() {
            return Err(DatasetError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DatasetError::ShapeMismatch {
                expected: format!("{} labels", rows.len()),
                found: format!("{} labels", labels.len()),
            });
        }
        let n_features = rows[0].len();
        let mut x = Vec::with_capacity(rows.len() * n_features);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_features {
                return Err(DatasetError::ShapeMismatch {
                    expected: format!("{n_features} features"),
                    found: format!("{} features in row {i}", row.len()),
                });
            }
            x.extend_from_slice(row);
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) as usize + 1;
        let feature_names =
            feature_names.unwrap_or_else(|| (0..n_features).map(|i| format!("f{i}")).collect());
        if feature_names.len() != n_features {
            return Err(DatasetError::ShapeMismatch {
                expected: format!("{n_features} feature names"),
                found: format!("{}", feature_names.len()),
            });
        }
        Ok(Self { x, n_features, labels: labels.to_vec(), n_classes, feature_names })
    }

    /// Builds a dataset from an already-flat row-major matrix.
    pub fn from_flat(
        x: Vec<f32>,
        n_features: usize,
        labels: Vec<u16>,
        feature_names: Option<Vec<String>>,
    ) -> Result<Self, DatasetError> {
        if n_features == 0 || labels.is_empty() {
            return Err(DatasetError::Empty);
        }
        if x.len() != n_features * labels.len() {
            return Err(DatasetError::ShapeMismatch {
                expected: format!("{} values", n_features * labels.len()),
                found: format!("{}", x.len()),
            });
        }
        let n_classes = labels.iter().copied().max().unwrap_or(0) as usize + 1;
        let feature_names =
            feature_names.unwrap_or_else(|| (0..n_features).map(|i| format!("f{i}")).collect());
        if feature_names.len() != n_features {
            return Err(DatasetError::ShapeMismatch {
                expected: format!("{n_features} feature names"),
                found: format!("{}", feature_names.len()),
            });
        }
        Ok(Self { x, n_features, labels, n_classes, feature_names })
    }

    /// Number of samples.
    pub fn n_samples(&self) -> usize {
        self.labels.len()
    }

    /// Number of features per sample.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes (`max(label) + 1` at construction time).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Forces the class count (useful when a subset is missing some classes).
    pub fn set_n_classes(&mut self, n: usize) {
        assert!(
            n > self.labels.iter().copied().max().unwrap_or(0) as usize,
            "n_classes must exceed the maximum label"
        );
        self.n_classes = n;
    }

    /// Feature names, index-aligned with columns.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The label of sample `i`.
    pub fn label(&self, i: usize) -> u16 {
        self.labels[i]
    }

    /// All labels.
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// The feature row of sample `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.x[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Value of feature `f` for sample `i`.
    pub fn value(&self, i: usize, f: usize) -> f32 {
        self.x[i * self.n_features + f]
    }

    /// A view over all samples.
    pub fn view(&self) -> DatasetView<'_> {
        DatasetView { data: self, indices: (0..self.n_samples()).collect() }
    }

    /// A view over the given sample indices.
    pub fn view_of(&self, indices: Vec<usize>) -> DatasetView<'_> {
        debug_assert!(indices.iter().all(|&i| i < self.n_samples()));
        DatasetView { data: self, indices }
    }

    /// Deterministic shuffled train/test split. `test_frac` in `(0, 1)`.
    ///
    /// Returns `(train, test)` views. The split is stratified per class so
    /// rare classes appear on both sides whenever they have ≥ 2 samples.
    pub fn split(&self, test_frac: f64, seed: u64) -> (DatasetView<'_>, DatasetView<'_>) {
        assert!(test_frac > 0.0 && test_frac < 1.0, "test_frac must be in (0,1)");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); self.n_classes];
        for i in 0..self.n_samples() {
            per_class[self.labels[i] as usize].push(i);
        }
        let mut train = Vec::new();
        let mut test = Vec::new();
        for mut idxs in per_class {
            idxs.shuffle(&mut rng);
            let n_test = ((idxs.len() as f64) * test_frac).round() as usize;
            // Keep at least one sample on each side when the class has ≥ 2.
            let n_test = if idxs.len() >= 2 { n_test.clamp(1, idxs.len() - 1) } else { 0 };
            test.extend_from_slice(&idxs[..n_test]);
            train.extend_from_slice(&idxs[n_test..]);
        }
        train.sort_unstable();
        test.sort_unstable();
        (self.view_of(train), self.view_of(test))
    }
}

/// A borrowed subset of a [`Dataset`]'s rows.
#[derive(Debug, Clone)]
pub struct DatasetView<'a> {
    data: &'a Dataset,
    indices: Vec<usize>,
}

impl<'a> DatasetView<'a> {
    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.data
    }

    /// Sample indices (into the underlying dataset) in this view.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of samples in the view.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.data.n_features()
    }

    /// Number of classes of the underlying dataset.
    pub fn n_classes(&self) -> usize {
        self.data.n_classes()
    }

    /// Feature row of the `i`-th sample *of the view*.
    pub fn row(&self, i: usize) -> &[f32] {
        self.data.row(self.indices[i])
    }

    /// Label of the `i`-th sample *of the view*.
    pub fn label(&self, i: usize) -> u16 {
        self.data.label(self.indices[i])
    }

    /// Class histogram of the view.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.data.n_classes()];
        for &i in &self.indices {
            counts[self.data.label(i) as usize] += 1;
        }
        counts
    }

    /// Majority class (ties broken toward the smaller class index).
    pub fn majority_class(&self) -> u16 {
        let counts: Vec<u64> = self.class_counts().iter().map(|&n| n as u64).collect();
        crate::split::majority(&counts)
    }

    /// A sub-view keeping the view-relative positions in `keep`.
    pub fn subview(&self, keep: &[usize]) -> DatasetView<'a> {
        DatasetView { data: self.data, indices: keep.iter().map(|&p| self.indices[p]).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let rows = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
            vec![5.0, 50.0],
            vec![6.0, 60.0],
        ];
        let labels = vec![0, 0, 0, 1, 1, 1];
        Dataset::from_rows(&rows, &labels, None).unwrap()
    }

    #[test]
    fn shape_accessors() {
        let ds = toy();
        assert_eq!(ds.n_samples(), 6);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.n_classes(), 2);
        assert_eq!(ds.row(2), &[3.0, 30.0]);
        assert_eq!(ds.value(4, 1), 50.0);
        assert_eq!(ds.feature_names(), &["f0".to_string(), "f1".to_string()]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let err = Dataset::from_rows(&rows, &[0, 1], None).unwrap_err();
        assert!(matches!(err, DatasetError::ShapeMismatch { .. }));
    }

    #[test]
    fn label_count_mismatch_rejected() {
        let rows = vec![vec![1.0], vec![2.0]];
        assert!(Dataset::from_rows(&rows, &[0], None).is_err());
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(Dataset::from_rows(&[], &[], None), Err(DatasetError::Empty)));
    }

    #[test]
    fn from_flat_roundtrip() {
        let ds = Dataset::from_flat(vec![1.0, 2.0, 3.0, 4.0], 2, vec![0, 1], None).unwrap();
        assert_eq!(ds.row(0), &[1.0, 2.0]);
        assert_eq!(ds.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn view_subsetting() {
        let ds = toy();
        let v = ds.view_of(vec![0, 3, 5]);
        assert_eq!(v.len(), 3);
        assert_eq!(v.label(1), 1);
        assert_eq!(v.row(0), &[1.0, 10.0]);
        assert_eq!(v.class_counts(), vec![1, 2]);
        assert_eq!(v.majority_class(), 1);
        let sub = v.subview(&[0, 2]);
        assert_eq!(sub.indices(), &[0, 5]);
    }

    #[test]
    fn split_is_stratified_and_deterministic() {
        let ds = toy();
        let (tr1, te1) = ds.split(0.34, 42);
        let (tr2, te2) = ds.split(0.34, 42);
        assert_eq!(tr1.indices(), tr2.indices());
        assert_eq!(te1.indices(), te2.indices());
        assert_eq!(tr1.len() + te1.len(), ds.n_samples());
        // Each class keeps at least one sample on each side.
        for side in [&tr1, &te1] {
            let counts = side.class_counts();
            assert!(counts[0] >= 1 && counts[1] >= 1);
        }
        // No overlap between train and test.
        for i in te1.indices() {
            assert!(!tr1.indices().contains(i));
        }
    }

    #[test]
    fn majority_tie_breaks_low() {
        let ds = toy();
        let v = ds.view_of(vec![0, 3]);
        assert_eq!(v.majority_class(), 0);
    }
}
