//! # splidt-ranging — the Range-Marking algorithm
//!
//! SpliDT (like NetBeacon \[85\], whose algorithm this reproduces) encodes
//! decision trees into TCAM with *range marks*: per-feature thermometer
//! codes in which every tree threshold owns one bit. Each leaf then
//! becomes exactly one ternary rule over the concatenated marks — the
//! encoding that avoids rule explosion and whose per-feature mark bits are
//! what makes match-key width grow with feature count (the paper's §2.1
//! TCAM-pressure argument).
//!
//! * [`ternary`] — minimal prefix covers of integer ranges;
//! * [`marks`] — thermometer encoders and elementary ranges;
//! * [`rules`] — subtree → feature-table + model-table rule generation,
//!   with a reference classifier proving rules ≡ tree.

#![deny(unsafe_code)]

pub mod marks;
pub mod rules;
pub mod ternary;

pub use marks::{
    elementary_cuts, integer_threshold, interval_of, BitConstraint, ElementaryRange,
    ThermometerEncoder,
};
pub use rules::{generate_rules, FeatureRule, FeatureTable, ModelRule, SubtreeRules};
pub use ternary::{range_to_prefixes, Prefix};
