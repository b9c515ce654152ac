//! `splidt-serve` — the ingress receiver: trains the standard fixture
//! model, builds a sharded engine, then classifies live traffic from a
//! UDP socket (or a pcap file) through the per-shard ring ingress
//! service until the sender's stop sentinel (or the idle-exit backstop).
//!
//! ```text
//! splidt-serve [--addr 127.0.0.1:0] [--shards 2] [--flow-slots 256]
//!              [--time-scale 2.0] [--idle-exit-ms 5000]
//!              [--ring 1024] [--batch 256] [--expect-classified N]
//! splidt-serve --pcap churn.pcap [...]
//! ```
//!
//! Prints `READY listening on ADDR` once the socket is bound and the
//! model is trained — scripts wait for that line before starting
//! `splidt-gen`. Exits nonzero if the ingress accounting does not
//! reconcile or (with `--expect-classified`) too few flows classified.

use splidt_core::engine::EngineBuilder;
use splidt_core::{train_partitioned, LifecyclePolicy, SplidtConfig};
use splidt_flow::{catalog, generate, select_flows, stratified_split, windowed_dataset, DatasetId};
use splidt_net::pcap::PcapSource;
use splidt_net::service::{classified_flows, run_ingress, IngressConfig, IngressOutcome};
use splidt_net::source::UdpSource;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: String,
    pcap: Option<String>,
    shards: usize,
    flow_slots: usize,
    time_scale: f64,
    idle_exit_ms: u64,
    ring: usize,
    batch: usize,
    expect_classified: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        pcap: None,
        shards: 2,
        flow_slots: 256,
        time_scale: 2.0,
        idle_exit_ms: 5_000,
        ring: 1024,
        batch: 256,
        expect_classified: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = val("--addr"),
            "--pcap" => args.pcap = Some(val("--pcap")),
            "--shards" => args.shards = val("--shards").parse().expect("numeric shard count"),
            "--flow-slots" => {
                args.flow_slots = val("--flow-slots").parse().expect("numeric slot count")
            }
            "--time-scale" => args.time_scale = val("--time-scale").parse().expect("numeric scale"),
            "--idle-exit-ms" => {
                args.idle_exit_ms = val("--idle-exit-ms").parse().expect("numeric ms")
            }
            "--ring" => args.ring = val("--ring").parse().expect("numeric ring capacity"),
            "--batch" => args.batch = val("--batch").parse().expect("numeric batch size"),
            "--expect-classified" => {
                args.expect_classified = Some(val("--expect-classified").parse().expect("numeric"))
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    // Standard fixture model (the recipe of `perf_ledger`'s workloads).
    let train = generate(DatasetId::D2, 220, 7);
    let (tr, _) = stratified_split(&train, 0.6, 2);
    let cfg = SplidtConfig { partitions: vec![2, 2, 2], k: 4, ..Default::default() };
    let wd = windowed_dataset(&select_flows(&train, &tr), 3, 4);
    let model = train_partitioned(&wd, &cfg, &catalog().hardware_eligible());

    // Lifecycle timeouts are calibrated against schedule time; the
    // generator stretches the wire timeline by its time-scale, so the
    // receiver stretches its timeouts to match.
    let idle_us = (100_000.0 * args.time_scale) as u64;
    let pinned_us = (150_000.0 * args.time_scale) as u64;
    let mut engine = EngineBuilder::new(&model)
        .flow_slots(args.flow_slots)
        .idle_timeout_us(idle_us)
        .lifecycle_policy(LifecyclePolicy::tcp().pin_class(3).pinned_timeout_us(pinned_us))
        .build_sharded(args.shards)
        .expect("fixture model compiles");

    let cfg = IngressConfig {
        ring_capacity: args.ring,
        max_frame: 2048,
        batch: args.batch,
        ..IngressConfig::default()
    };
    let outcome = if let Some(path) = &args.pcap {
        let source = match PcapSource::open(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("splidt-serve: opening {path} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("READY replaying {path}");
        run_ingress(&mut engine, source, &cfg)
    } else {
        let source = match UdpSource::bind(&args.addr) {
            Ok(s) => s.idle_exit(Duration::from_millis(args.idle_exit_ms)),
            Err(e) => {
                eprintln!("splidt-serve: binding {} failed: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        };
        // The readiness line scripts grep for (stdout, flushed by \n).
        println!("READY listening on {}", source.local_addr().expect("bound socket has an addr"));
        run_ingress(&mut engine, source, &cfg)
    };

    let IngressOutcome { stats, batch, report } = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("splidt-serve: ingress failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let io = engine.engines()[0].io();
    let classified = classified_flows(io.digest_flow_idx, io.digest_fp, &batch.digests);
    println!(
        "ingress: received {} = steered {} + ring_full {} + malformed {} (consumed {}) — \
         reconciled: {}",
        stats.received,
        stats.steered,
        stats.dropped_ring_full,
        stats.dropped_malformed,
        stats.shards.iter().map(|s| s.consumed).sum::<u64>(),
        stats.reconciles(),
    );
    for (i, s) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}: steered {} ring_full {} consumed {}",
            s.steered, s.dropped_ring_full, s.consumed
        );
    }
    println!(
        "engine: {} packets, {} digests, {} distinct flows classified (lifecycle reconciled: {})",
        report.meters.packets,
        batch.digests.len(),
        classified,
        report.lifecycle.reconciles(),
    );

    if !stats.reconciles() {
        eprintln!("splidt-serve: ingress accounting did NOT reconcile");
        return ExitCode::FAILURE;
    }
    if let Some(floor) = args.expect_classified {
        if classified < floor {
            eprintln!("splidt-serve: classified {classified} < expected floor {floor}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
