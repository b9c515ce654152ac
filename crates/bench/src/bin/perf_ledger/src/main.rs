//! `perf_ledger` — the repo's single benchmark of the packet path: four
//! workloads, end-to-end pps / latency / goodput, and an outside-in
//! per-layer ledger. See `README.md` beside the manifest for why each
//! workload exists, the metric glossary, and the API this binary pins.
//!
//! ```text
//! perf_ledger --workload <wide|scaled|mice|ingress|all> [--seed 7]
//!             [--seconds 20] [--trace [0|1]] [--repeat N]
//! ```
//!
//! One run prints every metric of its mode by name with its unit — the
//! end-to-end metrics untraced, the per-layer rows with `--trace` — then
//! one JSON object as the last line of standard output, and exits
//! non-zero when any operation failed: a correctness gate missed, or the
//! engine did not ingest a valid frame. `--repeat N` runs the
//! selected workloads N times in both modes and prints each end-to-end
//! metric's spread against its bound and whether the exact counts
//! repeated.
//!
//! Load is generated in-process: one busy thread on the closed loops, two
//! (receiver + consumer) on `ingress`.

mod closed_loop;
mod fixtures;
mod layers;
mod open_loop;
mod run;
mod spec;
mod stats;
mod trace;

use run::RunOutput;
use spec::{Workload, END_TO_END, RUN_SECONDS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations (alloc, alloc_zeroed, realloc) on top of the
/// system allocator — the `core.engine.allocs_per_pkt` row. One relaxed
/// add per allocation; allocation-free code pays nothing.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as given.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, and the
        // caller guarantees `ptr` came from this allocator, i.e. `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations since the process started.
fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name).ok_or(format!("unknown workload {name}"))?],
                };
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--repeat" => {
                let n: usize = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            // A bare `--trace` traces; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs one workload in one mode and prints it: provenance, every metric
/// by name with its unit, the failed share, and the result object last.
fn run_and_print(workload: Workload, args: &Args, traced: bool) -> RunOutput {
    println!(
        "perf_ledger workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(traced)
    );
    println!("why: {}", workload.why());
    for (key, value) in stats::provenance(args.seed, args.seconds) {
        println!("provenance {key}: {value}");
    }
    let out = if traced {
        run::traced(workload, args.seed, args.seconds)
    } else {
        run::untraced(workload, args.seed, args.seconds)
    };
    for line in &out.lines {
        println!("{line}");
    }
    let declared = out.metrics.declared(traced);
    for d in &declared {
        println!("{} {} {} ({} is better)", d.name, d.value, d.unit, d.better.as_str());
    }
    for (name, value) in &out.exact {
        println!("exact {name} {value}");
    }
    let t = &out.tally;
    println!(
        "failed_share {} ratio ({} of {})",
        t.failed as f64 / t.attempted as f64,
        t.failed,
        t.attempted
    );
    for note in &t.notes {
        println!("failed: {note}");
    }
    let metrics: Vec<String> = declared
        .iter()
        .map(|d| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, d.value, d.unit))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    out
}

/// `--repeat N`: every selected workload N times, untraced and traced;
/// then each end-to-end metric's spread against its bound, and whether
/// the exact counts repeated. Returns whether nothing failed and every
/// exact count repeated; a spread beyond its bound is printed, not
/// failed — on a shared host that is the host's doing.
fn repeat(args: &Args, n: usize) -> bool {
    let mut ok = true;
    // (workload, metric) → one value per repetition.
    let mut e2e: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut exact: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for _ in 0..n {
        for &w in &args.workloads {
            for traced in [false, true] {
                let out = run_and_print(w, args, traced);
                ok &= out.tally.failed == 0;
                if !traced {
                    for d in out.metrics.declared(false) {
                        e2e.entry((w.name(), d.name)).or_default().push(d.value);
                    }
                }
                for (name, v) in out.exact {
                    exact.entry((w.name(), name)).or_default().push(v);
                }
            }
        }
    }
    println!("\nspread over {n} repetitions (range and quartile distance as shares of the median)");
    for ((w, name), values) in &e2e {
        let bound = END_TO_END.iter().find(|m| m.name == *name).expect("declared").bound;
        let med = stats::median(values);
        let (lo, hi) =
            values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let range = (hi - lo) / med;
        let quartile = if values.len() >= 4 {
            format!("{:.4}", stats::quartile_spread(values))
        } else {
            "n/a".into()
        };
        let verdict = if range <= bound { "within" } else { "EXCEEDS" };
        println!(
            "{w:8} {name:14} median {med:<14.6} range {range:.4} quartile {quartile} bound {bound} {verdict}"
        );
    }
    for ((w, name), values) in &exact {
        let same = values.iter().all(|v| *v == values[0]);
        ok &= same;
        println!("{w:8} exact {name}: {} {:?}", if same { "repeats" } else { "DIFFERS" }, values);
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.repeat {
        Some(n) => repeat(&args, n),
        None => {
            let mut ok = true;
            for &w in &args.workloads {
                ok &= run_and_print(w, &args, args.trace).tally.failed == 0;
            }
            ok
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
