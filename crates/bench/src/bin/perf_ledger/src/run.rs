//! One run of one workload: set-up, the measured region, the gates, and
//! the metrics of the run's mode. End-to-end metrics come only from the
//! untraced run; the traced run produces the per-layer rows and reports
//! what tracing itself costs (`trace_overhead`).

use crate::closed_loop::{
    self, classified_flows, engine_pass, median_over, Gate, PassBuffers, PassSample, Tally,
};
use crate::fixtures::Fixture;
use crate::layers::{self, Counts, Mirror};
use crate::open_loop::{self, StepResult};
use crate::spec::{Metrics, Workload};
use crate::stats::{median, percentile_sorted};
use crate::trace::Recorder;
use splidt_core::engine::{Engine, ShardedEngine};
use std::collections::HashSet;
use std::time::Instant;

/// The ledger rule: the rows of a traced closed loop may differ from the
/// cost of the untraced passes beside them by at most this share.
const LEDGER_GAP: f64 = 0.10;

/// `scaled` exists for the cold bank line: its state touch must cost at
/// least this many cache-resident ones, or the traced run fails. Measured
/// 3.6–4.9 on the development host (8–14 ns against 2.3–2.8 ns).
const COLD_BANK_FACTOR: f64 = 2.0;

/// Share of a traced run's `--seconds` spent alternating untraced,
/// traced and mirrored passes.
const TRACED_ROUNDS_SHARE: f64 = 0.6;
/// The same on `ingress`, which also has to fit the offered-rate steps.
const TRACED_ROUNDS_SHARE_INGRESS: f64 = 0.25;
/// Share of `--seconds` the traced `ingress` run gives to the steps.
const TRACED_STEPS_SHARE: f64 = 0.5;
/// Share of `--seconds` the untraced `ingress` run spends closed-loop
/// (the steps' shares in `open_loop::STEPS` make up the rest).
const INGRESS_CLOSED_SHARE: f64 = 0.25;

/// Everything one run reports.
pub struct RunOutput {
    /// The metrics of the run's mode.
    pub metrics: Metrics,
    /// Operations attempted and failed, gate misses included.
    pub tally: Tally,
    /// Exact counts that must repeat between runs of one commit.
    pub exact: Vec<(&'static str, f64)>,
    /// Human-readable lines: sample counts, steps, span totals.
    pub lines: Vec<String>,
}

/// A fully set-up workload: generated, trained, compiled, serialised,
/// and warmed by one pass.
struct Built {
    fixture: Fixture,
    engine: Engine,
    /// `ingress` only: the engine `run_ingress` drives.
    sharded: Option<ShardedEngine>,
    build_s: f64,
    /// Everything `new` did, warm-up pass included: `setup_s`.
    setup_s: f64,
    /// Distinct flows the warm-up pass classified.
    warmup_classified: u64,
}

impl Built {
    fn new(workload: Workload, seed: u64) -> Built {
        let setup = Instant::now();
        let fixture = Fixture::build(workload, seed);
        let start = Instant::now();
        let mut engine = fixture.engine();
        let sharded = (workload == Workload::Ingress).then(|| fixture.sharded());
        let build_s = start.elapsed().as_secs_f64();
        let mut buf = PassBuffers::default();
        engine_pass(&mut engine, &fixture.frames, &mut buf, &mut Recorder::off());
        let warmup_classified = classified_flows(&engine, &buf.digests);
        let setup_s = setup.elapsed().as_secs_f64();
        Built { fixture, engine, sharded, build_s, setup_s, warmup_classified }
    }
}

/// Bytes of register state the engine holds: every flow bank's arena
/// plus eight bytes per cell of every register left as a split array.
fn state_bytes(engine: &Engine) -> u64 {
    let regs = engine.pipeline_registers();
    let banked: HashSet<usize> =
        regs.banks().iter().flat_map(|b| b.desc().members.iter().map(|&m| m as usize)).collect();
    let banks: usize = regs.banks().iter().map(|b| b.desc().arena_bytes()).sum();
    let split: usize = engine
        .program()
        .registers()
        .iter()
        .enumerate()
        .filter(|(i, _)| !banked.contains(i))
        .map(|(_, spec)| spec.len * std::mem::size_of::<u64>())
        .sum();
    (banks + split) as u64
}

fn step_line(s: &StepResult) -> String {
    format!(
        "step {:>9.0} pps: offered {} consumed {} loss {:.6} delivered {:.0} pps (median of {} \
         sessions), source at most {:.1} us late",
        s.step.rate_pps,
        s.offered,
        s.consumed,
        s.loss_share(),
        s.delivered_pps(),
        s.session_pps.len(),
        s.log.lag_ns.iter().copied().max().unwrap_or(0) as f64 / 1e3
    )
}

/// The untraced run: every end-to-end metric. It sets up once: the
/// driver repeats runs and takes the median of `setup_s` over them.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> RunOutput {
    let Built { fixture, mut engine, sharded, setup_s, warmup_classified, .. } =
        Built::new(workload, seed);

    let mut tally = Tally::default();
    let gate = Gate::new(workload, seed, &fixture, warmup_classified, &mut tally);
    let closed_seconds =
        if workload == Workload::Ingress { seconds * INGRESS_CLOSED_SHARE } else { seconds };
    let closed =
        closed_loop::measure(&mut engine, &fixture.frames, &gate, &mut tally, closed_seconds);

    let full_batches: usize = closed.iter().map(|p| p.full_batches).sum();
    let mut lines = vec![format!(
        "closed loop: {} passes, {} full-batch samples, warm-up classified {} flows",
        closed.len(),
        full_batches,
        warmup_classified
    )];

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set("pps", median_over(&closed, PassSample::pps));
    m.set("batch_us_p50", median_over(&closed, |p| f64::from(p.batch_p50_ns) / 1e3));
    m.set("batch_us_p95", median_over(&closed, |p| f64::from(p.batch_p95_ns) / 1e3));
    match sharded {
        None => {
            let packets: u64 = closed.iter().map(|p| p.packets).sum();
            let offered = (closed.len() * fixture.frames.len()) as u64;
            m.set("delivered_pps", median_over(&closed, PassSample::wall_pps));
            m.set("goodput_share", packets as f64 / offered as f64);
        }
        Some(mut sharded) => {
            let steps = open_loop::run_steps(
                &mut sharded,
                &fixture.frames,
                seconds,
                warmup_classified,
                &mut tally,
                None,
            );
            lines.extend(steps.iter().map(step_line));
            let overload = steps.last().expect("the overload step runs last");
            let graded: Vec<&StepResult> = steps.iter().filter(|s| s.step.graded).collect();
            let consumed: u64 = graded.iter().map(|s| s.consumed).sum();
            let offered: u64 = graded.iter().map(|s| s.offered).sum();
            m.set("delivered_pps", overload.delivered_pps());
            m.set("goodput_share", consumed as f64 / offered as f64);
        }
    }
    let state_mb = state_bytes(&engine) as f64 / (1u64 << 20) as f64;
    m.set("state_mb", state_mb);
    RunOutput {
        metrics: m,
        tally,
        exact: vec![("classified_flows", warmup_classified as f64), ("state_mb", state_mb)],
        lines,
    }
}

/// Interleaved passes of a traced run's closed-loop part.
struct Rounds {
    /// Engine passes with the recorder off.
    plain: Vec<PassSample>,
    /// Engine passes with spans recorded.
    spanned: Vec<PassSample>,
    /// Passes of the mirrored bare pipeline.
    mirrored: Vec<PassSample>,
    /// Heap allocations per packet of each untraced engine pass.
    allocs_per_pkt: Vec<f64>,
    /// The mirror's exact counts (identical on every pass, or a gate
    /// missed).
    counts: Counts,
}

/// Rounds of one untraced, one traced and one mirrored pass — so slow
/// drift of the machine lands on all three alike — for `seconds`, and at
/// least twice.
fn rounds(
    engine: &mut Engine,
    mirror: &mut Mirror,
    fixture: &Fixture,
    gate: &Gate,
    tally: &mut Tally,
    rec: &mut Recorder,
    seconds: f64,
) -> Rounds {
    let frames = &fixture.frames;
    let (mut plain, mut spanned, mut mirrored) = (Vec::new(), Vec::new(), Vec::new());
    let mut allocs_per_pkt = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut buf = PassBuffers::default();
    let start = Instant::now();
    while plain.len() < 2 || start.elapsed().as_secs_f64() < seconds {
        let mut drive = |rec: &mut Recorder, tally: &mut Tally| {
            let allocs = crate::allocations();
            let pass = engine_pass(engine, frames, &mut buf, rec);
            let allocs = crate::allocations() - allocs;
            tally.frames(frames.len() as u64, pass.packets);
            gate.check_pass(engine, &buf.digests, tally);
            (pass, allocs, buf.digests.len() as u64)
        };
        let (pass, allocs, _) = drive(&mut Recorder::off(), tally);
        allocs_per_pkt.push(allocs as f64 / pass.packets as f64);
        plain.push(pass);
        let (pass, _, engine_digests) = drive(rec, tally);
        spanned.push(pass);
        mirrored.push(mirror.pass(frames, rec));
        let now = mirror.counts();
        tally.check(now.digests == engine_digests && now.packets == pass.packets, || {
            format!("mirror diverged from the engine: {now:?} vs {engine_digests} digests")
        });
        tally.check(*counts.get_or_insert(now) == now, || {
            format!("counts changed between passes: {counts:?} then {now:?}")
        });
    }
    Rounds {
        plain,
        spanned,
        mirrored,
        allocs_per_pkt,
        counts: counts.expect("at least two rounds ran"),
    }
}

/// Records the open-loop rows from the steps a traced `ingress` run made
/// (no steps, all zero, on the closed-loop workloads).
fn open_rows(m: &mut Metrics, steps: &[StepResult], lines: &mut Vec<String>) {
    let busy_ns: u64 = steps.iter().map(|s| s.log.busy_ns).sum();
    let busy_frames: u64 = steps.iter().map(|s| s.log.busy_frames).sum();
    m.set(
        "net.service.receiver_busy_ns",
        if busy_frames == 0 { 0.0 } else { busy_ns as f64 / busy_frames as f64 },
    );
    // Lateness is judged where goodput is: on the graded steps.
    let mut lag_ns: Vec<u32> =
        steps.iter().filter(|s| s.step.graded).flat_map(|s| s.log.lag_ns.iter().copied()).collect();
    lag_ns.sort_unstable();
    let lag_us =
        |p: f64| if lag_ns.is_empty() { 0.0 } else { percentile_sorted(&lag_ns, p) as f64 / 1e3 };
    m.set("net.service.rx_lag_us_p50", lag_us(50.0));
    m.set("net.service.rx_lag_us_p99", lag_us(99.0));
    if !lag_ns.is_empty() {
        lines.push(format!("rx lag: {} burst samples over the graded steps", lag_ns.len()));
    }
    for (label, name) in [
        ("r150k", "net.service.loss_share_r150k"),
        ("r300k", "net.service.loss_share_r300k"),
        ("r450k", "net.service.loss_share_r450k"),
        ("r600k", "net.service.loss_share_r600k"),
    ] {
        let step = steps.iter().find(|s| s.step.label == label);
        m.set(name, step.map_or(0.0, StepResult::loss_share));
    }
    m.set("net.service.sustained_pps", open_loop::sustained_pps(steps));
    lines.extend(steps.iter().map(step_line));
}

/// The traced run: every per-layer row, the spans, and the ledger.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunOutput {
    let Built { fixture, mut engine, sharded, build_s, warmup_classified, .. } =
        Built::new(workload, seed);
    let frames = &fixture.frames;
    let mut tally = Tally::default();
    let gate = Gate::new(workload, seed, &fixture, warmup_classified, &mut tally);
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);

    // The mirror clones the program, so reset first: no stale hit counts.
    engine.reset();
    let mut mirror = Mirror::new(&engine);
    let share = if workload == Workload::Ingress {
        TRACED_ROUNDS_SHARE_INGRESS
    } else {
        TRACED_ROUNDS_SHARE
    };
    let Rounds { plain, spanned, mirrored, allocs_per_pkt, counts } =
        rounds(&mut engine, &mut mirror, &fixture, &gate, &mut tally, &mut rec, seconds * share);
    let engine_ns = median_over(&spanned, PassSample::pkt_ns);
    let untraced_ns = median_over(&plain, PassSample::pkt_ns);
    let pipeline_ns = median_over(&mirrored, PassSample::pkt_ns);
    let trace_overhead = engine_ns / untraced_ns;

    let iso = layers::isolation(&engine, frames);
    let lookup = layers::lookup_replay(mirror.program(), counts.packets, seed);
    let rmw_ns = mirror.rmw_ns(&iso.slots);
    let rmw_resident_ns = mirror.rmw_resident_ns(iso.slots.len());
    if workload == Workload::Scaled {
        tally.check(rmw_ns >= COLD_BANK_FACTOR * rmw_resident_ns, || {
            format!(
                "a state touch costs {rmw_ns:.1} ns, under {COLD_BANK_FACTOR} cache-resident \
                 ones ({rmw_resident_ns:.1} ns): the flows' state no longer leaves the cache"
            )
        });
    }
    // The residual closes the sum over the traced passes: what can fail
    // is its sign — the isolation estimates claiming more than the whole
    // pipeline costs — and the distance of the sum from the untraced
    // passes made beside them, which no row was derived from.
    let residual_ns = pipeline_ns - iso.parse_ns - iso.steer_ns - lookup.per_pkt_est_ns - rmw_ns;
    let overhead_ns = engine_ns - pipeline_ns;
    let rows =
        iso.parse_ns + iso.steer_ns + lookup.per_pkt_est_ns + rmw_ns + residual_ns + overhead_ns;
    let gap = (rows - untraced_ns).abs() / untraced_ns;
    tally.check(residual_ns >= 0.0, || {
        format!(
            "the isolation rows exceed the pipeline's {pipeline_ns:.1} ns by {:.1} ns",
            -residual_ns
        )
    });
    tally.check(gap <= LEDGER_GAP, || {
        format!("ledger rows sum to {rows:.1} ns, untraced passes cost {untraced_ns:.1} ns")
    });
    let per_kpkt = |n: u64| n as f64 * 1e3 / counts.packets as f64;

    let mut lines = vec![format!(
        "closed loop: {} rounds of untraced + traced + mirrored passes; warm-up classified {} flows",
        plain.len(),
        warmup_classified
    )];
    lines.push(format!(
        "ledger: parse {:.1} + conflict key {:.1} + lookup {:.1} + bank {:.1} + residual {:.1} + \
         engine overhead {:.1} = {:.1} ns (core.engine.pkt_ns) vs untraced passes {:.1} ns \
         (gap {:.2} %)",
        iso.parse_ns,
        iso.steer_ns,
        lookup.per_pkt_est_ns,
        rmw_ns,
        residual_ns,
        overhead_ns,
        rows,
        untraced_ns,
        gap * 100.0
    ));

    let mut m = Metrics::default();
    m.set("dataplane.parser.parse_ns", iso.parse_ns);
    m.set("dataplane.parser.peek_ns", iso.peek_ns);
    m.set("dataplane.hash.steer_ns", iso.steer_ns);
    m.set("dataplane.index.lookup_exact_ns", lookup.exact_ns);
    m.set("dataplane.index.lookup_ternary_ns", lookup.ternary_ns);
    m.set("dataplane.index.lookup_range_ns", lookup.range_ns);
    m.set("dataplane.index.lookup_ns_per_pkt_est", lookup.per_pkt_est_ns);
    m.set("dataplane.register.rmw_ns", rmw_ns);
    m.set("dataplane.register.rmw_resident_ns", rmw_resident_ns);
    m.set("dataplane.register.bank_bytes_per_slot", mirror.bank_bytes_per_slot());
    m.set("dataplane.pipeline.pkt_ns", pipeline_ns);
    m.set("dataplane.pipeline.passes_per_pkt", counts.passes as f64 / counts.packets as f64);
    m.set("dataplane.pipeline.lookups_per_pkt", counts.lookups as f64 / counts.packets as f64);
    m.set("dataplane.pipeline.digests_per_kpkt", per_kpkt(counts.digests));
    m.set("dataplane.pipeline.resubmits_per_kpkt", per_kpkt(counts.resubmits));
    m.set("dataplane.pipeline.residual_ns", residual_ns);
    m.set("core.engine.pkt_ns", engine_ns);
    m.set("core.engine.overhead_ns", overhead_ns);
    m.set("core.engine.allocs_per_pkt", median(&allocs_per_pkt));
    m.set("core.compile.build_ms", build_s * 1e3);
    m.set("dt.train.fit_ms", fixture.phases.fit_s * 1e3);
    m.set("flow.synthetic.generate_s", fixture.phases.generate_s);
    m.set("flow.wire.serialize_s", fixture.phases.serialize_s);
    m.set("trace_overhead", trace_overhead);

    // The open-loop rows: measured on `ingress`, zero elsewhere.
    let on_ingress = sharded.is_some();
    let steps = sharded.map_or_else(Vec::new, |mut sharded| {
        open_loop::run_steps(
            &mut sharded,
            frames,
            seconds * TRACED_STEPS_SHARE,
            warmup_classified,
            &mut tally,
            Some(epoch),
        )
    });
    open_rows(&mut m, &steps, &mut lines);
    let (ring_push_ns, ring_pop_ns) = if on_ingress { layers::ring_ns(frames) } else { (0.0, 0.0) };
    m.set("core.ring.push_ns", ring_push_ns);
    m.set("core.ring.pop_ns", ring_pop_ns);
    let udp = if on_ingress { layers::udp_recv_ns(frames) } else { Some(0.0) };
    if udp.is_none() {
        lines.push("net.source.udp_recv_ns: loopback unavailable, reported as 0".into());
    }
    m.set("net.source.udp_recv_ns", udp.unwrap_or(0.0));
    for s in steps {
        rec.absorb(s.log.rec);
    }

    // After the timed region: the model flip, on the loaded engine.
    let (stage_ms, swap_ms) = layers::swap_stall_ms(&mut engine, &fixture.model);
    m.set("core.engine.stage_ms", stage_ms);
    m.set("core.engine.swap_stall_ms", swap_ms);

    for (name, t) in rec.totals() {
        lines.push(format!(
            "span {name}: {} spans, total {:.3} ms, self {:.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    let declared = m.declared(true);
    let counts_out: Vec<(&str, f64)> = declared.iter().map(|d| (d.name, d.value)).collect();
    let path = std::path::PathBuf::from(format!(".perf_ledger/trace-{}.jsonl", workload.name()));
    match rec.write(&path, &counts_out) {
        Ok(()) => lines.push(format!("{} spans written to {}", rec.spans().len(), path.display())),
        Err(e) => lines.push(format!("could not write {}: {e}", path.display())),
    }

    let exact = crate::spec::EXACT_ROWS
        .iter()
        .map(|&name| (name, m.get(name).expect("exact rows are declared rows")))
        .chain([("classified_flows", warmup_classified as f64)])
        .collect();
    RunOutput { metrics: m, tally, exact, lines }
}
