//! Shared experiment harness for regenerating the paper's tables and
//! figures.
//!
//! Every binary in `src/bin/` builds on this: dataset bundles with cached
//! per-partition feature matrices, the SpliDT BO evaluator, baseline
//! selection at flow targets, and plain-text table output. `SPLIDT_SCALE`
//! (default 1.0) scales flow counts and search budgets so the whole suite
//! can run quickly on small machines.

#![deny(unsafe_code)]

use splidt_core::baselines::{Ideal, Leo, LeoParams, NetBeacon, NetBeaconParams, PerPacket};
use splidt_core::engine::{Classifier, Trainable};
use splidt_core::{
    evaluate_partitioned, max_flows, splidt_footprint, train_partitioned, PartitionedTree,
    SplidtConfig,
};
use splidt_dataplane::resources::TargetSpec;
use splidt_flow::{
    catalog, generate, quantize_dataset, select_flows, spec, stratified_split, windowed_dataset,
    DatasetId, FlowTrace, WindowedDataset,
};
use splidt_search::{optimize, BoOptions, BoResult, Objectives, ParamSpace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Paper flow targets (Table 3 and the Pareto figures).
pub const FLOW_TARGETS: [u64; 3] = [100_000, 500_000, 1_000_000];

/// Experiment scale knobs, derived from `SPLIDT_SCALE`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Flows generated per dataset.
    pub flows: usize,
    /// BO evaluation budget.
    pub bo_budget: usize,
    /// BO batch width.
    pub bo_batch: usize,
}

impl Scale {
    /// Reads `SPLIDT_SCALE` (default 1.0).
    pub fn from_env() -> Self {
        let s: f64 = std::env::var("SPLIDT_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
        Self {
            flows: ((2400.0 * s) as usize).max(300),
            bo_budget: ((56.0 * s) as usize).max(12),
            bo_batch: 8,
        }
    }
}

/// Cached per-partition-count (train, test) windowed matrices.
type WindowCache = Mutex<HashMap<(usize, u8), Arc<(WindowedDataset, WindowedDataset)>>>;

/// A dataset with split flows and cached windowed matrices.
pub struct DatasetBundle {
    /// Dataset id.
    pub id: DatasetId,
    /// Human name.
    pub name: String,
    /// Class count.
    pub n_classes: usize,
    /// Training flows.
    pub train: Vec<FlowTrace>,
    /// Held-out test flows.
    pub test: Vec<FlowTrace>,
    cache: WindowCache,
}

impl DatasetBundle {
    /// Generates and splits a dataset.
    pub fn load(id: DatasetId, scale: Scale) -> Self {
        let sp = spec(id);
        let flows = generate(id, scale.flows, 1);
        let (tr, te) = stratified_split(&flows, 0.3, 2);
        Self {
            id,
            name: sp.name.clone(),
            n_classes: sp.n_classes as usize,
            train: select_flows(&flows, &tr),
            test: select_flows(&flows, &te),
            cache: Mutex::new(HashMap::new()),
        }
    }

    /// Cached (train, test) windowed matrices for `p` partitions at
    /// `bits` precision.
    pub fn windowed(&self, p: usize, bits: u8) -> Arc<(WindowedDataset, WindowedDataset)> {
        if let Some(hit) = self.cache.lock().unwrap().get(&(p, bits)) {
            return hit.clone();
        }
        let mut tr = windowed_dataset(&self.train, p, self.n_classes);
        let mut te = windowed_dataset(&self.test, p, self.n_classes);
        if bits < splidt_flow::FEATURE_BITS {
            for w in &mut tr.per_window {
                *w = quantize_dataset(w, bits);
            }
            for w in &mut te.per_window {
                *w = quantize_dataset(w, bits);
            }
        }
        let arc = Arc::new((tr, te));
        self.cache.lock().unwrap().insert((p, bits), arc.clone());
        arc
    }

    /// Trains + evaluates a SpliDT config; returns `(model, test F1)`.
    pub fn train_splidt(&self, cfg: &SplidtConfig) -> (PartitionedTree, f64) {
        let wd = self.windowed(cfg.n_partitions(), cfg.feature_bits);
        let model = train_partitioned(&wd.0, cfg, &catalog().hardware_eligible());
        let f1 = evaluate_partitioned(&model, &wd.1);
        (model, f1)
    }
}

/// One row of a backend-agnostic model comparison (see
/// [`compare_classifiers`]). Footprint-derived columns are `None` for
/// models with no deployable footprint (ideal, per-packet).
pub struct ComparisonRow {
    /// Model name (from [`Classifier::name`]).
    pub name: &'static str,
    /// Test macro-F1.
    pub f1: f64,
    /// Max concurrent flows on Tofino1, if the model has a footprint.
    pub max_flows: Option<u64>,
    /// Installed TCAM entries.
    pub tcam_entries: Option<usize>,
    /// Per-flow feature-register bits.
    pub reg_bits: Option<usize>,
}

/// Evaluates any set of models through the [`Classifier`] contract — the
/// single comparison loop every fig/table binary shares.
pub fn compare_classifiers(models: &[&dyn Classifier], test: &[FlowTrace]) -> Vec<ComparisonRow> {
    let target = TargetSpec::tofino1();
    models
        .iter()
        .map(|m| {
            let fp = m.footprint();
            ComparisonRow {
                name: m.name(),
                f1: m.evaluate_flows(test),
                max_flows: fp.as_ref().map(|fp| max_flows(fp, &target)),
                tcam_entries: fp.as_ref().map(|fp| fp.tcam_entries),
                reg_bits: fp.as_ref().map(|fp| fp.feature_register_bits()),
            }
        })
        .collect()
}

/// Trains the paper's five-model suite (SpliDT + four baselines) on a
/// bundle through the uniform [`Trainable::fit`] entry point.
pub fn classifier_suite(bundle: &DatasetBundle, cfg: &SplidtConfig) -> Vec<Box<dyn Classifier>> {
    let (tr, nc) = (&bundle.train, bundle.n_classes);
    vec![
        Box::new(PartitionedTree::fit(tr, nc, cfg).expect("splidt trains")),
        Box::new(NetBeacon::fit(tr, nc, &NetBeaconParams::default()).expect("nb trains")),
        Box::new(Leo::fit(tr, nc, &LeoParams::default()).expect("leo trains")),
        Box::new(PerPacket::fit(tr, nc, &8).expect("pp trains")),
        Box::new(Ideal::fit(tr, nc, &14).expect("ideal trains")),
    ]
}

/// Renders comparison rows for [`print_table`].
pub fn comparison_table(rows: &[ComparisonRow]) -> Vec<Vec<String>> {
    let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
    rows.iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                f2(r.f1),
                opt(r.max_flows.map(flows_fmt)),
                opt(r.tcam_entries.map(|v| v.to_string())),
                opt(r.reg_bits.map(|v| v.to_string())),
            ]
        })
        .collect()
}

/// The BO evaluator: train, score, fit-check on a target.
pub struct SplidtEvaluator<'a> {
    /// Dataset under search.
    pub bundle: &'a DatasetBundle,
    /// Hardware target.
    pub target: TargetSpec,
}

impl splidt_search::Evaluator for SplidtEvaluator<'_> {
    fn evaluate(&self, cfg: &SplidtConfig) -> Objectives {
        let (model, f1) = self.bundle.train_splidt(cfg);
        let fp = splidt_footprint(&model);
        let flows = max_flows(&fp, &self.target);
        Objectives { f1, max_flows: flows, feasible: flows > 0 }
    }
}

/// Runs the standard SpliDT search for a dataset.
pub fn search_dataset(
    bundle: &DatasetBundle,
    scale: Scale,
    space: &ParamSpace,
    seed: u64,
) -> BoResult {
    let eval = SplidtEvaluator { bundle, target: TargetSpec::tofino1() };
    optimize(
        space,
        &eval,
        &BoOptions {
            budget: scale.bo_budget,
            batch: scale.bo_batch,
            init: (scale.bo_budget / 3).max(6),
            pool: 192,
            seed,
        },
    )
}

/// The best baseline at a flow target: scans (k, depth) grids, keeps the
/// most accurate configuration whose footprint supports the target.
pub struct BaselinePick<T> {
    /// The trained model.
    pub model: T,
    /// Test macro-F1.
    pub f1: f64,
    /// Feature budget used.
    pub k: usize,
    /// Depth used.
    pub depth: usize,
    /// TCAM entries.
    pub tcam: usize,
    /// Per-flow feature-register bits.
    pub reg_bits: usize,
}

/// Best NetBeacon at a flow target.
pub fn best_netbeacon(
    bundle: &DatasetBundle,
    target_flows: u64,
    feature_bits: u8,
) -> Option<BaselinePick<NetBeacon>> {
    let target = TargetSpec::tofino1();
    let mut best: Option<BaselinePick<NetBeacon>> = None;
    for k in [2usize, 4, 6] {
        for depth in [6usize, 10, 13] {
            let nb = NetBeacon::train(
                &bundle.train,
                bundle.n_classes,
                &NetBeaconParams { k, depth, n_phases: 5, feature_bits },
            );
            let fp = nb.footprint();
            if max_flows(&fp, &target) < target_flows {
                continue;
            }
            let f1 = nb.evaluate(&bundle.test);
            if best.as_ref().is_none_or(|b| f1 > b.f1) {
                best = Some(BaselinePick {
                    f1,
                    k,
                    depth: nb.depth(),
                    tcam: fp.tcam_entries,
                    reg_bits: fp.feature_register_bits(),
                    model: nb,
                });
            }
        }
    }
    best
}

/// Best Leo at a flow target.
pub fn best_leo(
    bundle: &DatasetBundle,
    target_flows: u64,
    feature_bits: u8,
) -> Option<BaselinePick<Leo>> {
    let target = TargetSpec::tofino1();
    let mut best: Option<BaselinePick<Leo>> = None;
    for k in [2usize, 4, 6] {
        for depth in [3usize, 6, 10] {
            let leo =
                Leo::train(&bundle.train, bundle.n_classes, &LeoParams { k, depth, feature_bits });
            let fp = leo.footprint();
            if max_flows(&fp, &target) < target_flows {
                continue;
            }
            let f1 = leo.evaluate(&bundle.test);
            if best.as_ref().is_none_or(|b| f1 > b.f1) {
                best = Some(BaselinePick {
                    f1,
                    k,
                    depth: leo.tree.depth(),
                    tcam: leo.tcam_entries(),
                    reg_bits: fp.feature_register_bits(),
                    model: leo,
                });
            }
        }
    }
    best
}

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Runs one closure per dataset in parallel, preserving order.
pub fn for_datasets<T: Send, F: Fn(DatasetId) -> T + Sync>(ids: &[DatasetId], f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = ids.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            let f = &f;
            handles.push(s.spawn(move || (i, f(id))));
        }
        for h in handles {
            let (i, v) = h.join().expect("dataset job");
            out[i] = Some(v);
        }
    });
    out.into_iter().map(|v| v.expect("filled")).collect()
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a flow count ("100K", "1M").
pub fn flows_fmt(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{}M", n / 1_000_000)
    } else {
        format!("{}K", n / 1_000)
    }
}
