//! The three golden-file fixture programs.
//!
//! Each fixture is a *deterministically trained and compiled* model —
//! fixed dataset seed, fixed config — so the emitted P4 and manifest
//! are byte-stable across runs and machines. The golden tests compare
//! the live emission against the committed files under
//! `crates/p4/golden/`; `SPLIDT_P4_BLESS=1` rewrites them.
//!
//! | fixture | what it exercises |
//! |---|---|
//! | `default` | the engine's default compile path: 3×depth-2 partitions, k=4, flow-agnostic lifecycle |
//! | `tcp` | TCP-aware lifecycle: SYN-gated claims, FIN/RST in-band release, a pinned verdict class |
//! | `chained` | a different model shape: 2×depth-3 partitions, k=2 — distinct recirculation chain |

use splidt_core::compile::{
    compile, compile_with, CompileOptions, LifecyclePolicy, DEFAULT_IDLE_TIMEOUT_US,
};
use splidt_core::config::SplidtConfig;
use splidt_core::lower::{lower, ResourceExpectation};
use splidt_core::model::PartitionedTree;
use splidt_core::train::train_partitioned;
use splidt_flow::features::catalog;
use splidt_flow::{generate, select_flows, spec, stratified_split, windowed_dataset, DatasetId};

use crate::emit::Emission;
use crate::emit_lowering;

/// One golden fixture: the emission plus the resource expectation the
/// emitted text must recount to.
pub struct Fixture {
    /// Fixture name (`default` / `tcp` / `chained`); golden files are
    /// `<name>.p4` and `<name>.manifest.json`.
    pub name: &'static str,
    /// The emitted P4 + manifest.
    pub emission: Emission,
    /// The analytic resource counts for [`crate::recount::cross_check`].
    pub expectation: ResourceExpectation,
}

/// Deterministic model shared by the `default` and `tcp` fixtures.
fn fixture_model(partitions: Vec<usize>, k: usize) -> PartitionedTree {
    let flows = generate(DatasetId::D2, 300, 21);
    let (tr, _) = stratified_split(&flows, 0.3, 5);
    let wd =
        windowed_dataset(&select_flows(&flows, &tr), 3, spec(DatasetId::D2).n_classes as usize);
    let cfg = SplidtConfig { partitions, k, ..Default::default() };
    train_partitioned(&wd, &cfg, &catalog().hardware_eligible())
}

/// Builds one fixture by name. Panics on an unknown name — fixtures are
/// a closed set.
pub fn build(name: &str) -> Fixture {
    match name {
        "default" => {
            let model = fixture_model(vec![2, 2, 2], 4);
            let compiled = compile(&model, 1 << 12).expect("fixture compiles");
            let lowering = lower(&model, &compiled);
            let expectation = lowering.expectation().expect("fixture matches footprint");
            let emission =
                emit_lowering(&lowering, "splidt_default", "default", 0).expect("fixture emits");
            Fixture { name: "default", emission, expectation }
        }
        "tcp" => {
            let model = fixture_model(vec![2, 2, 2], 4);
            let opts = CompileOptions {
                flow_slots: 1 << 12,
                idle_timeout_us: DEFAULT_IDLE_TIMEOUT_US,
                policy: LifecyclePolicy::tcp().pin_class(2),
            };
            let compiled = compile_with(&model, &opts).expect("fixture compiles");
            let lowering = lower(&model, &compiled);
            let expectation = lowering.expectation().expect("fixture matches footprint");
            let emission = emit_lowering(&lowering, "splidt_tcp", "tcp", 0).expect("fixture emits");
            Fixture { name: "tcp", emission, expectation }
        }
        "chained" => {
            let model = fixture_model(vec![3, 3], 2);
            let compiled = compile(&model, 1 << 10).expect("fixture compiles");
            let lowering = lower(&model, &compiled);
            let expectation = lowering.expectation().expect("fixture matches footprint");
            let emission =
                emit_lowering(&lowering, "splidt_chained", "chained", 0).expect("fixture emits");
            Fixture { name: "chained", emission, expectation }
        }
        other => panic!("unknown fixture `{other}`"),
    }
}

/// The closed fixture set, in golden-file order.
pub const NAMES: [&str; 3] = ["default", "tcp", "chained"];

/// Builds every fixture.
pub fn all() -> Vec<Fixture> {
    NAMES.iter().map(|n| build(n)).collect()
}

/// The committed golden directory (`crates/p4/golden`).
pub fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}
