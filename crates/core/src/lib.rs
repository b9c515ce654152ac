//! # splidt-core — SpliDT: partitioned decision trees at line rate
//!
//! The paper's primary contribution ([SIGCOMM 2025](https://arxiv.org/abs/2509.00397)),
//! reproduced end to end:
//!
//! * [`config`] / [`model`] — partitioned-tree configurations and the model
//!   itself (subtrees, SIDs, per-subtree feature sets, early exits);
//! * [`train`] — Algorithm 1, the recursive per-partition training;
//! * [`mod@compile`] — partitioned tree → match-action pipeline program
//!   (operator-selection MATs, key-generator MATs, the Range-Marking model
//!   MAT, register allocation, resubmission protocol);
//! * [`engine`] — the streaming engine: the [`Classifier`] contract
//!   shared by SpliDT and every baseline, compile-once [`Engine`]s, and
//!   [`ShardedEngine`]s fanning each batch out on one scoped thread per
//!   shard;
//! * [`error`] — the crate-level [`SplidtError`];
//! * [`runtime`] — the evaluation [`Session`] that feeds an engine from
//!   outside and scores its digests against ground truth and software,
//!   plus the [`EngineSnapshot`] every report carries;
//! * [`resources`] — the analytic feasibility model (flows ↔ registers ↔
//!   TCAM ↔ stages) driving the design search;
//! * [`mod@lower`] — the backend lowering entry point bundling a compiled
//!   model with its resource model for emitters (`splidt_p4`), plus the
//!   program ↔ footprint cross-check;
//! * [`recirc`] / [`ttd`] — recirculation-bandwidth and time-to-detection
//!   analyses (Tables 1/5, Figure 10);
//! * [`baselines`] — NetBeacon, Leo, per-packet and ideal comparators.

#![deny(unsafe_code)]

pub mod baselines;
pub mod compile;
pub mod config;
pub mod engine;
pub mod error;
pub mod lower;
pub mod model;
pub mod recirc;
pub mod resources;
#[allow(unsafe_code)] // the SPSC slot hand-off; see the module's SAFETY notes
pub mod ring;
pub mod runtime;
pub mod stream;
pub mod train;
pub mod ttd;

/// Default feature precision (bits) — re-exported for configs.
pub const FEATURE_BITS_DEFAULT: u8 = splidt_flow::FEATURE_BITS;

pub use compile::{
    compile, compile_with, model_rules, CompileOptions, CompiledModel, LifecyclePolicy,
    RulesSummary,
};
pub use config::SplidtConfig;
pub use engine::{
    BatchReport, Classifier, Engine, EngineBuilder, ShardedEngine, Trainable, Verdict,
    DEFAULT_BURST,
};
pub use error::SplidtError;
pub use lower::{lower, Lowering, ResourceExpectation};
pub use model::{Inference, LeafTarget, PartitionedTree, Subtree};
pub use resources::{
    bank_physical, estimate, max_flows, splidt_footprint, BankPhysical, ModelFootprint,
};
pub use runtime::{
    canonical_flow_fp, canonical_flow_index, run_flows, EngineSnapshot, IngressShardStats,
    IngressStats, LifecycleStats, RuntimeReport, Session, SessionEngine, SlotPressure,
    DEFAULT_STAGGER_US,
};
pub use stream::{DigestTap, DigestTapStats, StreamingTrainer, StreamingTrainerParams};
pub use train::{evaluate_partitioned, train_partitioned};
