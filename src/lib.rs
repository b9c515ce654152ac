//! # splidt — partitioned decision trees for scalable stateful inference
//!
//! A complete Rust reproduction of **SpliDT** (SIGCOMM 2025,
//! [arXiv:2509.00397](https://arxiv.org/abs/2509.00397)): in-network
//! decision-tree classification that scales the number of *stateful*
//! features a model can use by splitting the tree into partitions, giving
//! each subtree its own feature set, and reusing the switch's registers
//! and match keys across partitions via packet recirculation.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | role |
//! |---|---|
//! | [`core`] | the partitioned model, Algorithm-1 training, pipeline compiler, the streaming [`engine`], resource models, baselines |
//! | [`dataplane`] | Tofino1-class RMT pipeline simulator |
//! | [`flow`] | traffic substrate: flows, window features, D1–D7 dataset analogs, datacenter workloads |
//! | [`net`] | network ingress: UDP/pcap frame sources, per-shard bounded rings with backpressure, loopback traffic generator |
//! | [`dt`] | decision trees (CART with feature budgets), forests, metrics |
//! | [`ranging`] | the Range-Marking TCAM encoding |
//! | [`search`] | multi-objective Bayesian-optimization design search |
//!
//! ## Quickstart
//!
//! The canonical entry point is the streaming engine: train a model (any
//! [`Classifier`](engine::Classifier) backend), compile it **once** with
//! [`EngineBuilder`](engine::EngineBuilder), then feed traffic and collect
//! verdicts — here through an evaluation
//! [`Session`](core::Session), which feeds the engine from outside and
//! scores its digests; live frames go straight to
//! [`Engine::ingest_batch`](engine::Engine::ingest_batch).
//!
//! ```
//! use splidt::prelude::*;
//!
//! // 1. a labelled traffic dataset (synthetic CIC-IoT analog)
//! let flows = generate(DatasetId::D2, 400, 7);
//! let (tr, te) = stratified_split(&flows, 0.3, 1);
//! let train_flows = select_flows(&flows, &tr);
//! let test_flows = select_flows(&flows, &te);
//!
//! // 2. train a partitioned tree through the uniform fit() entry point:
//! //    3 partitions of depth 2, 4 feature slots per subtree
//! let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
//! let model = PartitionedTree::fit(&train_flows, 4, &cfg).unwrap();
//!
//! // 3. compile once, stream the test flows through the data plane, and
//! //    check the digests against software inference
//! let mut engine = EngineBuilder::new(&model).flow_slots(1 << 16).build().unwrap();
//! let report = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
//! assert!((report.software_agreement - 1.0).abs() < 1e-9);
//!
//! // 4. the same compiled engine serves the next session
//! engine.reset();
//! let again = Session::new(DEFAULT_STAGGER_US).run(&mut engine, &test_flows).unwrap();
//! assert_eq!(report.flows, again.flows);
//! ```
//!
//! To scale throughput across cores, swap `build()` for
//! `build_sharded(n)`: a [`ShardedEngine`](engine::ShardedEngine)
//! partitions flows across `n` independent pipeline shards by canonical
//! flow hash and drives them on OS threads, with per-flow verdicts
//! identical to the single-shard engine. See `docs/engine.md`.

#![deny(unsafe_code)]

pub use splidt_core as core;
pub use splidt_core::engine;
pub use splidt_dataplane as dataplane;
pub use splidt_dt as dt;
pub use splidt_flow as flow;
pub use splidt_net as net;
pub use splidt_p4 as p4;
pub use splidt_ranging as ranging;
pub use splidt_search as search;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use splidt_core::baselines::{
        Ideal, Leo, LeoParams, NetBeacon, NetBeaconParams, PerPacket,
    };
    pub use splidt_core::engine::{
        BatchReport, Classifier, Engine, EngineBuilder, ShardedEngine, Trainable, Verdict,
    };
    pub use splidt_core::{
        canonical_flow_fp, canonical_flow_index, compile, evaluate_partitioned, max_flows,
        model_rules, run_flows, splidt_footprint, train_partitioned, DigestTap, DigestTapStats,
        LifecyclePolicy, LifecycleStats, PartitionedTree, Session, SlotPressure, SplidtConfig,
        SplidtError, StreamingTrainer, StreamingTrainerParams, DEFAULT_STAGGER_US,
    };
    pub use splidt_dataplane::resources::TargetSpec;
    pub use splidt_flow::{
        catalog, generate, select_flows, spec, stratified_split, windowed_dataset, DatasetId,
        Environment, FlowTrace,
    };
    pub use splidt_net::{
        replay_udp, run_ingress, FrameSource, GenConfig, IngressConfig, PcapSource, ReplaySource,
        UdpSource,
    };
    pub use splidt_search::{optimize, BoOptions, Objectives, ParamSpace};
}
