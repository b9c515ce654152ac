//! # splidt-search — design-space exploration for SpliDT
//!
//! A HyperMapper-style multi-objective Bayesian-optimization framework
//! (paper §3.2.1 / Figure 5): random-forest surrogates, feasibility
//! filtering, random Chebyshev scalarization, parallel batch evaluation —
//! producing the Pareto frontier of (F1, supported flows) configurations.

#![deny(unsafe_code)]

pub mod optimizer;
pub mod pareto;
pub mod space;

pub use optimizer::{optimize, BoOptions, BoResult, Evaluator, IterStats, Objectives};
pub use pareto::{best_f1_at, dominates, hypervolume, pareto_front, Point};
pub use space::ParamSpace;
