//! # splidt-dt — decision trees for SpliDT
//!
//! A from-scratch decision-tree library tailored to the needs of
//! [SpliDT (SIGCOMM 2025)](https://arxiv.org/abs/2509.00397):
//!
//! * **CART classification trees** (Gini impurity) with the two constraints
//!   SpliDT's training relies on: a maximum depth *and* a budget on the number
//!   of **distinct features** a (sub)tree may reference (the `k` feature-slot
//!   constraint of the paper's §2.2).
//! * **Regression trees** (variance reduction) and **bagged random forests**
//!   with predictive variance, used as the Bayesian-optimization surrogate in
//!   `splidt-search`.
//! * **Impurity-based feature importance**, used to derive the `top-k` feature
//!   sets of the NetBeacon and Leo baselines.
//! * **Evaluation metrics** (macro-F1 — the paper's headline metric —
//!   accuracy, confusion matrices).
//!
//! The library is deliberately free of external ML dependencies: every
//! algorithm is implemented here so the whole SpliDT reproduction is
//! self-contained.
//!
//! ## Quick example
//!
//! ```
//! use splidt_dt::{Dataset, TrainParams, train_classifier, metrics::macro_f1};
//!
//! // Tiny AND-ish dataset: class = (x0 > 0.5) & (x1 > 0.5)
//! let rows = vec![
//!     vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0],
//! ];
//! let labels = vec![0, 0, 0, 1];
//! let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
//! let tree = train_classifier(&ds, &TrainParams { max_depth: 2, ..TrainParams::default() });
//! let preds: Vec<u16> = rows.iter().map(|r| tree.predict(r)).collect();
//! assert_eq!(preds, labels);
//! assert!((macro_f1(&labels, &preds, 2) - 1.0).abs() < 1e-9);
//! ```

#![deny(unsafe_code)]

pub mod dataset;
pub mod forest;
pub mod importance;
pub mod metrics;
pub mod regress;
pub mod stream;
pub mod train;
pub mod tree;

pub use dataset::{Dataset, DatasetView};
pub use forest::{ForestClassifier, ForestParams, ForestRegressor};
pub use importance::{feature_importance, top_k_features};
pub use regress::{train_regressor, RegressionTree};
pub use stream::{SplitCandidate, StreamParams, StreamTree};
pub use train::{train_classifier, train_classifier_on, TrainParams};
pub use tree::{Node, NodeId, Tree};
