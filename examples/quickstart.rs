//! Quickstart: train a partitioned decision tree on an IoT-classification
//! dataset, compile it **once** into a streaming engine, run traffic
//! through the data-plane simulator, and verify the pipeline classifies
//! exactly like the software model — then scale it across shards.
//!
//! Run with: `cargo run --release --example quickstart`

use splidt::prelude::*;

fn main() {
    // 1. A labelled traffic dataset: the CIC-IoT2023-a analog (4 classes).
    let id = DatasetId::D2;
    let n_classes = spec(id).n_classes as usize;
    let flows = generate(id, 1200, 7);
    let (tr, te) = stratified_split(&flows, 0.3, 1);
    let train_flows = select_flows(&flows, &tr);
    let test_flows = select_flows(&flows, &te);
    println!("dataset: {} ({n_classes} classes, {} flows)", spec(id).name, flows.len());

    // 2. Train through the uniform `Trainable::fit` entry point: 3
    //    partitions of depths [3,3,2], k = 4 feature slots per subtree
    //    (Algorithm 1 of the paper). Every baseline (NetBeacon, Leo,
    //    per-packet, ideal) trains through the same contract.
    let cfg = SplidtConfig { partitions: vec![3, 3, 2], k: 4, ..Default::default() };
    let model = PartitionedTree::fit(&train_flows, n_classes, &cfg).expect("trains");
    println!(
        "model: {} subtrees across {} partitions; ≤{} features/subtree, {} distinct features total",
        model.n_subtrees(),
        model.n_partitions(),
        model.max_features_per_subtree(),
        model.total_features().len()
    );
    println!("software test F1: {:.3}", model.evaluate_flows(&test_flows));

    // 3. Resources: would it fit a Tofino1, and at how many flows?
    let fp = model.footprint().expect("splidt has a deployable footprint");
    let rules = model_rules(&model);
    println!(
        "footprint: {} reg bits/flow ({} feature bits), {} TCAM entries, model key {} bits",
        fp.per_flow_bits(),
        fp.feature_register_bits(),
        rules.tcam_entries,
        rules.model_key_bits,
    );
    println!("max concurrent flows on Tofino1: {}", max_flows(&fp, &TargetSpec::tofino1()));

    // 4. Compile once into a streaming engine and replay the test flows
    //    packet by packet. A `Session` admits the flows, feeds them through
    //    `ingest_batch` and scores the digests; live traffic would call
    //    `ingest_batch` itself.
    let mut engine = EngineBuilder::new(&model).flow_slots(1 << 16).build().expect("compiles");
    let report = Session::new(5_000).run(&mut engine, &test_flows).expect("runs");
    println!(
        "data plane: F1 {:.3}, software agreement {:.1}%, {:.2} recirculations/flow",
        report.f1,
        report.software_agreement * 100.0,
        report.recirc_per_flow
    );
    assert!((report.software_agreement - 1.0).abs() < 1e-9, "pipeline must match software");

    // 5. The compiled program is reusable: reset and run again — or shard
    //    it across threads for throughput (verdicts stay identical).
    engine.reset();
    let mut sharded =
        EngineBuilder::new(&model).build_sharded(4).expect("compiles once, shards 4×");
    let sharded_report =
        Session::new(DEFAULT_STAGGER_US).run(&mut sharded, &test_flows).expect("runs");
    assert_eq!(report.flows.len(), sharded_report.flows.len());
    println!(
        "4-shard engine: {} packets across {} shards, verdicts identical: {}",
        sharded_report.snapshot.meters.packets,
        sharded.n_shards(),
        report.flows == sharded_report.flows,
    );
    println!("ok: pipeline inference is bit-exact with the software model");
}
