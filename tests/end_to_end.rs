//! Cross-crate integration: train → compile → simulate → verify that the
//! data plane reproduces software inference exactly, for several datasets
//! and configurations. This is the reproduction's core fidelity claim.

use splidt::flow::windowed_dataset;
use splidt::prelude::*;

fn run_case(id: DatasetId, partitions: Vec<usize>, k: usize, n_flows: usize, seed: u64) {
    let n_classes = spec(id).n_classes as usize;
    let flows = generate(id, n_flows, seed);
    let (tr, te) = stratified_split(&flows, 0.3, seed ^ 1);
    let train_flows = select_flows(&flows, &tr);
    let test_flows = select_flows(&flows, &te);
    let p = partitions.len();
    let cfg = SplidtConfig { partitions, k, ..Default::default() };
    let wd = windowed_dataset(&train_flows, p, n_classes);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    assert!(model.validate().is_ok());
    assert!(model.max_features_per_subtree() <= k);

    let report = run_flows(&model, &test_flows, 1 << 16, 2_000).unwrap();
    assert_eq!(report.collisions_skipped, 0);
    for (i, o) in report.flows.iter().enumerate() {
        assert_eq!(o.digests, 1, "{}: flow {i} emitted {} digests", id.tag(), o.digests);
        assert_eq!(
            o.predicted,
            Some(o.software),
            "{}: flow {i} dataplane {:?} != software {}",
            id.tag(),
            o.predicted,
            o.software
        );
        assert!(o.ttd_us.is_some());
    }
    // recirculations bounded by p per flow (p−1 boundaries + possible
    // early-exit terminal resubmission)
    assert!(report.recirc_per_flow <= p as f64 + 1e-9);
}

#[test]
fn d2_three_partitions() {
    run_case(DatasetId::D2, vec![2, 2, 2], 4, 240, 1);
}

#[test]
fn d3_four_partitions_small_k() {
    run_case(DatasetId::D3, vec![2, 2, 2, 2], 2, 220, 2);
}

#[test]
fn d6_two_partitions_large_k() {
    run_case(DatasetId::D6, vec![3, 3], 6, 220, 3);
}

#[test]
fn d7_single_partition_one_shot() {
    run_case(DatasetId::D7, vec![4], 4, 200, 4);
}

#[test]
fn quantized_16bit_model_still_exact() {
    let id = DatasetId::D2;
    let n_classes = spec(id).n_classes as usize;
    let flows = generate(id, 200, 9);
    let (tr, te) = stratified_split(&flows, 0.3, 5);
    let train_flows = select_flows(&flows, &tr);
    let test_flows = select_flows(&flows, &te);
    let cfg = SplidtConfig { partitions: vec![2, 2], k: 3, feature_bits: 16, ..Default::default() };
    let wd = windowed_dataset(&train_flows, 2, n_classes);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let report = run_flows(&model, &test_flows, 1 << 16, 2_000).unwrap();
    assert!((report.software_agreement - 1.0).abs() < 1e-9);
}

/// The plan-driven executor (compiled match indexes) against the
/// entry-walking oracle (linear scans) on a **compiled** program under
/// the TCP lifecycle, fed the keys production sees: subtree ids, prefix
/// covers of trained thresholds, lifecycle flags. The random toy programs
/// of `plan_execution_equals_entrywalk` never reach the subtree-pivoted
/// and interval lookups; this replay does.
#[test]
fn compiled_program_plan_equals_entrywalk() {
    use splidt::core::{compile_with, CompileOptions};
    use splidt::dataplane::pipeline::Pipeline;
    use splidt::flow::{churn, frame_for, ChurnConfig};

    let id = DatasetId::D2;
    let cfg = SplidtConfig { partitions: vec![3, 3], k: 4, ..Default::default() };
    let wd = windowed_dataset(&generate(id, 400, 13), 2, spec(id).n_classes as usize);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    // Fewer slots than flows, so takeovers, collisions and refused claims
    // are replayed too.
    let opts = CompileOptions {
        flow_slots: 128,
        idle_timeout_us: 100_000,
        policy: LifecyclePolicy::tcp(),
    };
    let compiled = compile_with(&model, &opts).expect("compiles");
    let fields = compiled.io.fields;
    let mut plan = Pipeline::new(compiled.program.clone());
    let mut walk = Pipeline::new(compiled.program);

    let schedule = churn(
        id,
        &ChurnConfig {
            flows: 300,
            mean_arrival_gap_us: 400,
            syn_open_frac: 0.9,
            rst_close_frac: 0.25,
            seed: 17,
            ..Default::default()
        },
    );
    for (n, (ts, i, j)) in schedule.events().into_iter().enumerate() {
        let frame = frame_for(&schedule.flows[i], j);
        let a = plan.process_packet(&frame, ts, &fields).expect("parses");
        let b = walk.process_packet_entrywalk(&frame, ts, &fields).expect("parses");
        assert_eq!((a.disposition, a.passes), (b.disposition, b.passes), "packet {n}");
        assert_eq!(a.phv, b.phv, "packet {n}");
    }

    assert!(plan.digests().len() >= 100, "only {} verdicts replayed", plan.digests().len());
    assert_eq!(plan.digests(), walk.digests());
    assert_eq!(plan.meters(), walk.meters());
    for r in 0..plan.registers().len() {
        for slot in 0..plan.registers().spec(r).len {
            assert_eq!(
                plan.registers().read(r, slot),
                walk.registers().read(r, slot),
                "register {} slot {slot}",
                plan.registers().spec(r).name
            );
        }
    }
    for (p, w) in plan.program().tables().iter().zip(walk.program().tables()) {
        let hits = |t: &splidt::dataplane::table::Table| -> Vec<u64> {
            t.entries().iter().map(|e| e.hits).collect()
        };
        assert_eq!((hits(p), p.misses()), (hits(w), w.misses()), "table {}", p.spec().name);
    }
}

/// Which tables of the compiled fixture take the direct index: the
/// narrow ones, keyed on flags, subtree ids and counters' few bits. The
/// wide MATs — feature slots, key generators, the model, the direction,
/// validity and boundary checks — keep their hashed, interval or
/// ternary index, so a direct-budget change that turns one of them into
/// a 2^bits array fails here.
#[test]
fn compiled_program_direct_tables() {
    use splidt::core::{compile_with, CompileOptions};
    use splidt::dataplane::index::MatchIndex;
    use splidt::dataplane::plan::ExecPlan;

    let id = DatasetId::D2;
    let cfg = SplidtConfig { partitions: vec![3, 3], k: 4, ..Default::default() };
    let wd = windowed_dataset(&generate(id, 400, 13), 2, spec(id).n_classes as usize);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let opts = CompileOptions {
        flow_slots: 128,
        idle_timeout_us: 100_000,
        policy: LifecyclePolicy::tcp(),
    };
    let program = compile_with(&model, &opts).expect("compiles").program;
    let plan = ExecPlan::build(&program);
    let wide = |name: &str| {
        ["slot_", "keygen_", "valid_"].iter().any(|p| name.starts_with(p))
            || ["model", "dir", "boundary"].contains(&name)
    };
    let mut direct = Vec::new();
    for (i, t) in program.tables().iter().enumerate() {
        let name = t.spec().name.as_str();
        let is_direct = matches!(plan.match_index(i), MatchIndex::Direct(_));
        assert!(!(is_direct && wide(name)), "{name} went direct");
        if is_direct {
            direct.push(name);
        }
    }
    assert_eq!(
        direct,
        [
            "prep",
            "lifecycle",
            "sid",
            "pkt_count",
            "win_count",
            "last_all",
            "last_bwd",
            "compute",
            "load_0",
            "load_1",
            "load_2",
            "load_3"
        ]
    );
}

/// The compiled fixture's probe schedule: which adjacent tables the plan
/// fuses, or probes through one shared-key index, as one step, and the
/// probes a pass costs, counted as the sum over steps of the first
/// member's visits (hits plus misses). The 18 ungated tables take 6
/// probes per pass, the four `slot_*` tables one between them; the 9
/// gated ones take 7 per boundary pass. Under the flow-agnostic policy
/// `own` is narrow enough to join `prep` and `dir`, so a pass takes 5.
#[test]
fn compiled_program_steps() {
    use splidt::core::{compile_with, CompileOptions};
    use splidt::dataplane::pipeline::Pipeline;
    use splidt::dataplane::plan::ExecPlan;
    use splidt::flow::{churn, frame_for, ChurnConfig};

    let id = DatasetId::D2;
    let cfg = SplidtConfig { partitions: vec![3, 3], k: 4, ..Default::default() };
    let wd = windowed_dataset(&generate(id, 400, 13), 2, spec(id).n_classes as usize);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let compile = |policy| {
        let opts = CompileOptions { flow_slots: 128, idle_timeout_us: 100_000, policy };
        compile_with(&model, &opts).expect("compiles")
    };
    let names = |program: &splidt::dataplane::program::Program| -> Vec<Vec<String>> {
        ExecPlan::build(program)
            .steps()
            .map(|s| {
                s.iter().map(|m| program.tables()[m.table as usize].spec().name.clone()).collect()
            })
            .collect()
    };
    let compiled = compile(LifecyclePolicy::tcp());
    let expect: Vec<Vec<&str>> = vec![
        vec!["prep", "dir"],
        vec!["own"],
        vec!["lifecycle"],
        vec!["sid", "pkt_count", "win_count", "last_all", "last_bwd", "compute"],
        vec!["valid_all", "valid_bwd", "win_first", "boundary"],
        vec!["slot_0", "slot_1", "slot_2", "slot_3"],
        vec!["load_0"],
        vec!["load_1", "load_2", "load_3"],
        vec!["keygen_0"],
        vec!["keygen_1"],
        vec!["keygen_2"],
        vec!["keygen_3"],
        vec!["model"],
    ];
    assert_eq!(names(&compiled.program), expect);
    let agnostic = names(&compile(LifecyclePolicy::flow_agnostic()).program);
    assert_eq!(agnostic[0], ["prep", "dir", "own"]);
    assert_eq!(agnostic[1..], expect[2..]);

    let fields = compiled.io.fields;
    let mut pipe = Pipeline::new(compiled.program);
    let schedule = churn(id, &ChurnConfig { flows: 120, seed: 17, ..Default::default() });
    for (ts, i, j) in schedule.events() {
        pipe.process_packet(&frame_for(&schedule.flows[i], j), ts, &fields).expect("parses");
    }
    let visits = |t: usize| {
        let t = &pipe.program().tables()[t];
        t.entries().iter().map(|e| e.hits).sum::<u64>() + t.misses()
    };
    let plan = pipe.plan();
    let (mut ungated, mut gated, mut ungated_tables) = (0, 0, 0);
    for step in plan.steps() {
        let probes = visits(step[0].table as usize);
        if step[0].gate.is_some() {
            gated += probes;
        } else {
            ungated += probes;
            ungated_tables += step.iter().map(|m| visits(m.table as usize)).sum::<u64>();
        }
    }
    let passes = pipe.meters().passes;
    let boundary_passes = visits(plan.steps().last().expect("steps")[0].table as usize);
    assert!(boundary_passes > 0 && boundary_passes < passes);
    assert_eq!(ungated_tables, 18 * passes);
    assert_eq!(ungated, 6 * passes, "ungated probes per pass");
    assert_eq!(gated, 7 * boundary_passes, "gated probes per boundary pass");
}

/// The benchmark's `wide` program shape: a `[4,4,4]`, k=6 model under
/// the flow-agnostic policy. Its six `slot_*` feature-update tables key
/// on one field list and are probed through one shared ternary index, so
/// the 22 ungated tables take 5 probes per pass (10 with one probe per
/// slot table).
#[test]
fn wide_shaped_program_steps() {
    use splidt::core::{compile_with, CompileOptions};
    use splidt::dataplane::pipeline::Pipeline;
    use splidt::dataplane::plan::ExecPlan;
    use splidt::flow::{churn, frame_for, ChurnConfig};

    let id = DatasetId::D2;
    let cfg = SplidtConfig { partitions: vec![4, 4, 4], k: 6, ..Default::default() };
    let wd = windowed_dataset(&generate(id, 600, 7), 3, spec(id).n_classes as usize);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let opts = CompileOptions {
        flow_slots: 1 << 10,
        idle_timeout_us: 100_000,
        policy: LifecyclePolicy::flow_agnostic(),
    };
    let compiled = compile_with(&model, &opts).expect("compiles");
    let program = &compiled.program;
    let plan = ExecPlan::build(program);
    let name = |m: &splidt::dataplane::plan::PlanSlot| {
        program.tables()[m.table as usize].spec().name.clone()
    };
    let ungated: Vec<Vec<String>> = plan
        .steps()
        .filter(|s| s[0].gate.is_none())
        .map(|s| s.iter().map(name).collect())
        .collect();
    assert_eq!(ungated.iter().map(Vec::len).sum::<usize>(), 22);
    assert_eq!(ungated.len(), 5, "ungated steps: {ungated:?}");
    let slots: Vec<String> = (0..6).map(|i| format!("slot_{i}")).collect();
    assert_eq!(ungated[4], slots);

    let fields = compiled.io.fields;
    let mut pipe = Pipeline::new(compiled.program);
    let schedule = churn(id, &ChurnConfig { flows: 60, seed: 5, ..Default::default() });
    for (ts, i, j) in schedule.events() {
        pipe.process_packet(&frame_for(&schedule.flows[i], j), ts, &fields).expect("parses");
    }
    let visits = |t: usize| {
        let t = &pipe.program().tables()[t];
        t.entries().iter().map(|e| e.hits).sum::<u64>() + t.misses()
    };
    let probes: u64 = pipe
        .plan()
        .steps()
        .filter(|s| s[0].gate.is_none())
        .map(|s| visits(s[0].table as usize))
        .sum();
    assert_eq!(probes, 5 * pipe.meters().passes, "ungated probes per pass");
}

/// Which tables of the compiled fixture are gated, and on what: every
/// `load_*`, every `keygen_*` and `model`, all on `m.boundary`, and no
/// other table. Gating a stateful table (a `slot_*`, say) would skip its
/// register update off a boundary; gating `model` on `m.final` alone
/// would skip window verdicts.
#[test]
fn compiled_program_gated_tables() {
    use splidt::core::{compile_with, CompileOptions};

    let id = DatasetId::D2;
    let cfg = SplidtConfig { partitions: vec![3, 3], k: 4, ..Default::default() };
    let wd = windowed_dataset(&generate(id, 400, 13), 2, spec(id).n_classes as usize);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());
    let opts = CompileOptions {
        flow_slots: 128,
        idle_timeout_us: 100_000,
        policy: LifecyclePolicy::tcp(),
    };
    let program = compile_with(&model, &opts).expect("compiles").program;
    let boundary = program.layout().by_name("m.boundary").expect("boundary field");
    let mut gated = Vec::new();
    for &tid in program.stages().iter().flat_map(|s| &s.tables) {
        let name = program.table(tid).spec().name.as_str();
        if let Some(g) = program.gate(tid) {
            assert_eq!(g, boundary, "{name} gated on another field");
            gated.push(name);
        }
    }
    assert_eq!(
        gated,
        [
            "load_0", "load_1", "load_2", "load_3", "keygen_0", "keygen_1", "keygen_2", "keygen_3",
            "model"
        ]
    );
}
