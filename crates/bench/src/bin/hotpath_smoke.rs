//! CI bench-smoke: a short, fixed-seed hot-path run that (a) asserts the
//! steady-state packet path performs **zero heap allocations per packet**
//! under a counting global allocator, (b) measures engine throughput, (c)
//! writes `BENCH_hotpath.json`, and (d) optionally gates against a
//! committed baseline.
//!
//! ```text
//! hotpath_smoke [--out BENCH_hotpath.json] [--baseline bench/baseline.json]
//!               [--max-drop-pct 15] [--seconds 2.0]
//! ```
//!
//! Exit codes: `0` ok · `1` throughput regressed past the threshold, the
//! burst-32 vectorization win fell below its floor, or the flow-state
//! banking win fell below its floor · `2` a zero-allocation invariant
//! broke.
//!
//! Locally, diff two result files with `scripts/bench_diff.sh`.

use splidt_bench::hotpath::{
    fixture, measure_burst_sweep, measure_engine_throughput, probe_bank_allocs,
    probe_digest_ring_allocs, probe_hot_loop_allocs, read_metric, write_json, BURST_SWEEP,
    SCALED_FLOW_SLOTS,
};
use splidt_bench::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Args {
    out: String,
    baseline: Option<String>,
    max_drop_pct: f64,
    seconds: f64,
}

fn parse_args() -> Args {
    let mut args =
        Args { out: "BENCH_hotpath.json".into(), baseline: None, max_drop_pct: 15.0, seconds: 2.0 };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--out" => args.out = val("--out"),
            "--baseline" => args.baseline = Some(val("--baseline")),
            "--max-drop-pct" => {
                args.max_drop_pct = val("--max-drop-pct").parse().expect("numeric pct")
            }
            "--seconds" => args.seconds = val("--seconds").parse().expect("numeric seconds"),
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();

    // 1. The strict invariant probe: a digest-free steady-state loop on
    //    the wave path must not touch the heap at all. 20K packets after
    //    warm-up. The verdict
    //    is enforced after the results JSON is written, so the CI artifact
    //    exists (with the real allocation count) even on failure.
    const PROBE_PACKETS: u64 = 20_000;
    let hot_allocs = probe_hot_loop_allocs(PROBE_PACKETS);
    let hot_per_packet = hot_allocs as f64 / PROBE_PACKETS as f64;
    println!(
        "hot-loop probe: {hot_allocs} allocations over {PROBE_PACKETS} packets \
         ({hot_per_packet:.6}/packet)"
    );

    // 1b. The digest-ring probe: a steady-state loop in which **every**
    //     packet emits a digest (disposed per batch) must not touch the
    //     heap either — the flat DigestBuf ring replaced the per-event
    //     Vec allocation.
    let ring_allocs = probe_digest_ring_allocs(PROBE_PACKETS);
    let ring_per_packet = ring_allocs as f64 / PROBE_PACKETS as f64;
    println!(
        "digest-ring probe: {ring_allocs} allocations over {PROBE_PACKETS} digest-emitting \
         packets ({ring_per_packet:.6}/packet)"
    );

    // 1c. The worker-data-path probe: the SPSC worker hand-off must be
    //     allocation-free per packet too.
    let worker_allocs = splidt_bench::hotpath::probe_worker_ring_allocs(PROBE_PACKETS);
    let worker_per_packet = worker_allocs as f64 / PROBE_PACKETS as f64;
    println!(
        "worker-ring probe: {worker_allocs} allocations over {PROBE_PACKETS} packets \
         ({worker_per_packet:.6}/packet)"
    );

    // 1d. The banked-path probe: a multi-register program whose flow
    //     state coalesces into one cache-line bank, driven through the
    //     wave path — bank cell addressing must not allocate either.
    let bank_allocs = probe_bank_allocs(PROBE_PACKETS);
    let bank_per_packet = bank_allocs as f64 / PROBE_PACKETS as f64;
    println!(
        "bank probe: {bank_allocs} allocations over {PROBE_PACKETS} packets \
         ({bank_per_packet:.6}/packet)"
    );

    // 2. Fixed-seed end-to-end throughput through the engine batch path
    //    (default burst), plus the burst sweep for the vectorization gate.
    let (model, frames) = fixture();
    let mut engine = splidt_bench::hotpath::engine_for(&model);
    let mut stats = measure_engine_throughput(&mut engine, &frames, args.seconds);
    stats.hot_loop_allocs_per_packet = hot_per_packet;
    stats.digest_ring_allocs_per_packet = ring_per_packet;
    stats.worker_allocs_per_packet = worker_per_packet;
    stats.bank_allocs_per_packet = bank_per_packet;
    println!(
        "throughput: {:.0} packets/sec ({} packets in {:.2}s), {:.4} allocs/packet \
         (boundary digests included)",
        stats.pps, stats.packets, stats.elapsed_s, stats.allocs_per_packet
    );
    // The sweep runs on the scaled-traffic fixture — a few hundred
    // thousand distinct flows over a multi-million-slot register file,
    // the memory-bound regime vectorization exists for (at the small
    // fixture's working set the interpreter is compute-bound and every
    // burst size measures the same).
    let scaled = splidt_bench::hotpath::scaled_fixture(&model);
    println!("scaled fixture: {} frames over {SCALED_FLOW_SLOTS} slots", scaled.len());
    let sweep = measure_burst_sweep(&model, &scaled, args.seconds / 2.0);
    stats.pps_burst = sweep.pps_burst;
    stats.pps_scaled = sweep.pps_burst[2];
    stats.pps_scaled_split = sweep.pps_split_b32;
    stats.bank_speedup = stats.pps_scaled / stats.pps_scaled_split;
    stats.sweep_frames = scaled.len() as u64;
    stats.sweep_slots = SCALED_FLOW_SLOTS as u64;
    for (b, pps) in BURST_SWEEP.iter().zip(stats.pps_burst) {
        println!("burst sweep: burst {b:>2} → {pps:.0} packets/sec");
    }
    println!("burst sweep: split b32 → {:.0} packets/sec", stats.pps_scaled_split);
    let vector_win = stats.pps_burst[2] / stats.pps_burst[0];
    println!("vectorization: burst 32 / burst 1 = {vector_win:.2}x");
    println!("flow-state banking: banked / split at burst 32 = {:.2}x", stats.bank_speedup);

    write_json(&args.out, &stats).expect("writes results json");
    println!("wrote {}", args.out);

    if hot_allocs != 0 {
        eprintln!("FAIL: steady-state hot loop allocated ({hot_allocs} allocations)");
        std::process::exit(2);
    }
    if ring_allocs != 0 {
        eprintln!("FAIL: digest-emitting steady state allocated ({ring_allocs} allocations)");
        std::process::exit(2);
    }
    if worker_allocs != 0 {
        eprintln!("FAIL: worker ring data path allocated ({worker_allocs} allocations)");
        std::process::exit(2);
    }
    if bank_allocs != 0 {
        eprintln!("FAIL: banked register path allocated ({bank_allocs} allocations)");
        std::process::exit(2);
    }
    // Vectorization floor: wave execution at burst 32 must not fall
    // behind the same machinery at burst 1 (scalar) on the scaled
    // fixture — the inversion gate. Pre-banking the wave win measured
    // 1.13-1.20x and the floor sat at 1.05; flow-state banking then
    // collapsed the scalar path's stall fraction (one line per packet
    // instead of up to four arrays), lifting burst-1 from ~508K to
    // ~680K pps and compressing the observed burst-32/burst-1 band to
    // 1.04-1.10x on the 1-vCPU box (both absolute numbers went UP —
    // only the ratio narrowed, because there is little stall left for
    // prefetch to hide). The floor therefore now guards the inversion
    // regression (burst 32 slower than burst 1), not a large win; the
    // big-win gate moved to the banked/split ratio below.
    const VECTOR_FLOOR: f64 = 1.00;
    if vector_win < VECTOR_FLOOR {
        eprintln!(
            "FAIL: burst-32 pps is only {vector_win:.2}x burst-1 pps (floor {VECTOR_FLOOR}x)"
        );
        std::process::exit(1);
    }
    // Flow-state banking floor: the coalesced register file must beat the
    // split per-stage arrays at burst 32 on the memory-bound scaled
    // fixture. Both configurations ride the interleaved sweep with the
    // best-round estimator, so the ratio sheds machine drift the same
    // way the vectorization gate does. Observed 1.07-1.13x across
    // stable long-window runs (quiet-machine point ~1.09x) on the
    // 1-vCPU box — at burst 32 the split layout's misses are largely
    // hidden by the wave prefetcher, so the residual gap is line-fill-
    // buffer pressure (1 line vs ~7 per packet); the floor sits below
    // the band's low end, same policy as the absolute-pps floors.
    // (Banking's full effect shows against the pre-banking committed
    // baseline: burst-1 508K -> ~680K pps, burst-32 608K -> ~707K.)
    const BANK_FLOOR: f64 = 1.05;
    if stats.bank_speedup < BANK_FLOOR {
        eprintln!(
            "FAIL: banked pps is only {:.2}x split pps at burst 32 (floor {BANK_FLOOR}x)",
            stats.bank_speedup
        );
        std::process::exit(1);
    }

    // 3. Regression gates vs the committed baseline: the small
    //    compute-bound fixture (`pps`) and the scaled memory-bound
    //    fixture (`pps_scaled`) each hold their own floor.
    if let Some(baseline) = &args.baseline {
        let gate = |key: &str, measured: f64, required: bool| {
            let base = match read_metric(baseline, key) {
                Some(b) => b,
                None if !required => {
                    println!("baseline {baseline} has no {key}; skipping that gate");
                    return;
                }
                None => panic!("no {key} in baseline {baseline}"),
            };
            let floor = base * (1.0 - args.max_drop_pct / 100.0);
            println!(
                "baseline {key}: {base:.0} ({baseline}); floor at -{:.0}%: {floor:.0}",
                args.max_drop_pct
            );
            if measured < floor {
                eprintln!(
                    "FAIL: {key} {measured:.0} is >{:.0}% below baseline {base:.0}",
                    args.max_drop_pct
                );
                std::process::exit(1);
            }
        };
        gate("pps", stats.pps, true);
        gate("pps_scaled", stats.pps_scaled, false);
        println!("throughput within budget");
    }
}
