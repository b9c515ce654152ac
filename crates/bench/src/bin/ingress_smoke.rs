//! CI ingress smoke: one full loopback run of the network ingress
//! subsystem — the churn schedule replayed over a real UDP socket into
//! the per-shard ring service, through graceful shutdown — plus the
//! ring-consumer zero-allocation probe. Gates:
//!
//! 1. the ingress accounting **reconciles exactly** (`received ==
//!    steered + dropped_ring_full + dropped_malformed`, every steered
//!    frame consumed) and ≥ `classified_floor` distinct flows classify
//!    (the churn criterion, now end-to-end across the wire);
//! 2. **zero heap allocations** per packet on the ring-consumer hot
//!    path (push → peek → wave_push → flush + digest drain → advance);
//! 3. received packets/sec within `--max-drop-pct` of the committed
//!    baseline (generous by default: the replay is paced, so pps tracks
//!    the schedule, and loopback scheduling is noisy on small runners).
//!
//! ```text
//! ingress_smoke [--out BENCH_ingress.json] [--baseline bench/ingress_baseline.json]
//!               [--max-drop-pct 40] [--time-scale 2.0] [--shards 2]
//! ```
//!
//! Exit codes: `0` ok · `1` throughput regressed · `2` the
//! zero-allocation invariant broke · `3` ingress acceptance failed (no
//! reconciliation or too few flows classified).

use splidt_bench::churn::{fixture, CHURN_FLOWS, CHURN_SEED};
use splidt_bench::hotpath::read_metric;
use splidt_bench::ingress::{
    probe_ingress_allocs, run_loopback, sharded_engine_for, stats_from, write_json,
};
use splidt_bench::CountingAlloc;
use splidt_flow::{churn, ChurnConfig, DatasetId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    out: String,
    baseline: Option<String>,
    max_drop_pct: f64,
    time_scale: f64,
    shards: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_ingress.json".into(),
        baseline: None,
        max_drop_pct: 40.0,
        time_scale: 2.0,
        shards: 2,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = val("--out"),
            "--baseline" => args.baseline = Some(val("--baseline")),
            "--max-drop-pct" => {
                args.max_drop_pct = val("--max-drop-pct").parse().expect("numeric pct")
            }
            "--time-scale" => args.time_scale = val("--time-scale").parse().expect("numeric scale"),
            "--shards" => args.shards = val("--shards").parse().expect("numeric shard count"),
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let (model, frames) = fixture();
    // The same schedule the fixture serialized, as events for the
    // generator (frames stay in use for the allocation probe).
    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: CHURN_FLOWS,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            syn_open_frac: splidt_bench::churn::CHURN_SYN_OPEN_FRAC,
            rst_close_frac: splidt_bench::churn::CHURN_RST_CLOSE_FRAC,
            seed: CHURN_SEED,
            ..Default::default()
        },
    );

    // 1. The loopback session: replayer thread → UDP → ring ingress.
    let mut engine = sharded_engine_for(&model, args.shards, args.time_scale);
    let (outcome, gen_report, classified, elapsed_s) =
        run_loopback(&mut engine, &schedule, args.time_scale);

    // 2. The strict ring-consumer allocation probe (in-process, exact).
    let (allocs, alloc_packets) = probe_ingress_allocs(&model, &frames);

    let stats = stats_from(&outcome, &gen_report, classified, elapsed_s, allocs, alloc_packets);
    println!(
        "ingress: sent {} → received {} (socket loss {}) = steered {} + ring_full {} + \
         malformed {}, consumed {} in {:.2}s ({:.0} pps)",
        stats.sent,
        stats.received,
        stats.socket_loss,
        stats.steered,
        stats.dropped_ring_full,
        stats.dropped_malformed,
        stats.consumed,
        stats.elapsed_s,
        stats.pps,
    );
    println!(
        "classified {} distinct flows (floor {}) — ingress reconciled: {}, lifecycle \
         reconciled: {}",
        stats.classified_flows,
        stats.classified_floor,
        stats.reconciled,
        outcome.report.lifecycle.reconciles(),
    );
    println!(
        "ring-consumer hot path: {allocs} allocations over {alloc_packets} packets \
         ({:.6}/packet)",
        stats.ingress_allocs_per_packet
    );

    write_json(&args.out, &stats).expect("write bench json");
    println!("wrote {}", args.out);

    if !stats.reconciled || stats.classified_flows < stats.classified_floor {
        eprintln!(
            "FAIL: ingress acceptance (reconciled={}, classified {} < floor {})",
            stats.reconciled, stats.classified_flows, stats.classified_floor
        );
        std::process::exit(3);
    }
    if allocs > 0 {
        eprintln!("FAIL: ring-consumer hot path allocated ({allocs} over {alloc_packets} packets)");
        std::process::exit(2);
    }
    if let Some(baseline) = &args.baseline {
        let base_pps = read_metric(baseline, "pps").expect("baseline has pps");
        let floor = base_pps * (1.0 - args.max_drop_pct / 100.0);
        if stats.pps < floor {
            eprintln!(
                "FAIL: pps {:.0} below baseline {:.0} − {}% = {:.0}",
                stats.pps, base_pps, args.max_drop_pct, floor
            );
            std::process::exit(1);
        }
        println!(
            "pps within {}% of baseline ({:.0} vs {:.0})",
            args.max_drop_pct, stats.pps, base_pps
        );
    }
}
