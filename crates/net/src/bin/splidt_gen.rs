//! `splidt-gen` — the loopback traffic generator (the paper testbed's
//! MoonGen stand-in). Builds the deterministic churn schedule from
//! `splidt_flow::synthetic` and either replays it as UDP datagrams
//! against a `splidt-serve` receiver or writes it out as a classic pcap
//! file for `splidt-serve --pcap`.
//!
//! ```text
//! splidt-gen --addr 127.0.0.1:9909 [--flows 4096] [--seed 11]
//!            [--time-scale 2.0] [--stop-repeats 8]
//! splidt-gen --pcap-out churn.pcap [--flows 4096] [--seed 11]
//! ```
//!
//! The schedule knobs (arrival gaps, lifetime scale, SYN/RST fractions)
//! are fixed to the values of `perf_ledger`'s `ingress` workload, so a
//! loopback run exercises exactly the schedule whose classified count
//! that workload pins.

use splidt_flow::{churn, frame_for, ChurnConfig, DatasetId};
use splidt_net::gen::{replay_udp, GenConfig};
use splidt_net::pcap::write_pcap;
use std::net::SocketAddr;
use std::process::ExitCode;

struct Args {
    addr: Option<SocketAddr>,
    pcap_out: Option<String>,
    flows: usize,
    seed: u64,
    time_scale: f64,
    stop_repeats: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: None,
        pcap_out: None,
        flows: 4096,
        seed: 11,
        time_scale: 2.0,
        stop_repeats: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--addr" => args.addr = Some(val("--addr").parse().expect("host:port")),
            "--pcap-out" => args.pcap_out = Some(val("--pcap-out")),
            "--flows" => args.flows = val("--flows").parse().expect("numeric flow count"),
            "--seed" => args.seed = val("--seed").parse().expect("numeric seed"),
            "--time-scale" => args.time_scale = val("--time-scale").parse().expect("numeric scale"),
            "--stop-repeats" => {
                args.stop_repeats = val("--stop-repeats").parse().expect("numeric count")
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    // Churn-fixture schedule shape (see splidt_bench::churn): only the
    // flow count and seed are adjustable from the command line.
    let schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: args.flows,
            mean_arrival_gap_us: 500,
            lifetime_scale: 0.05,
            syn_open_frac: 0.95,
            rst_close_frac: 0.25,
            seed: args.seed,
            ..Default::default()
        },
    );
    let events = schedule.events();
    eprintln!(
        "splidt-gen: {} flows, {} packets, schedule span {:.2}s (time-scale {})",
        schedule.flows.len(),
        events.len(),
        schedule.span_us() as f64 / 1e6,
        args.time_scale,
    );

    if let Some(path) = &args.pcap_out {
        let frames: Vec<(Vec<u8>, u64)> =
            events.into_iter().map(|(ts, i, j)| (frame_for(&schedule.flows[i], j), ts)).collect();
        if let Err(e) = write_pcap(path, &frames) {
            eprintln!("splidt-gen: writing {path} failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("splidt-gen: wrote {} records to {path}", frames.len());
        return ExitCode::SUCCESS;
    }

    let Some(addr) = args.addr else {
        eprintln!("splidt-gen: need --addr HOST:PORT (or --pcap-out FILE)");
        return ExitCode::FAILURE;
    };
    let cfg = GenConfig {
        time_scale: args.time_scale,
        stop_repeats: args.stop_repeats,
        ..GenConfig::default()
    };
    match replay_udp(&schedule, addr, &cfg) {
        Ok(report) => {
            let secs = report.elapsed_us as f64 / 1e6;
            eprintln!(
                "splidt-gen: sent {} frames / {} bytes in {:.2}s ({:.0} pps) to {addr}",
                report.sent,
                report.bytes,
                secs,
                report.sent as f64 / secs.max(1e-9),
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("splidt-gen: replay to {addr} failed: {e}");
            ExitCode::FAILURE
        }
    }
}
