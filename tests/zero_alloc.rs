//! The zero-allocation invariant: once scratch capacities are warm, the
//! wave path — parse, conflict check, lookup, action walk, register RMW,
//! digest staging and disposal, the SPSC ring hand-off, and the first
//! packets through an arena a live `swap_program` rebuilt — never touches
//! the heap. One table of (program, feed) rows, each measured under a
//! counting global allocator and held to exactly zero.
//!
//! The flat-heap invariant: a serving `Engine` keeps no record of the
//! verdicts it emits, so its live heap stays flat however many digests a
//! consumer drains and drops.

use splidt::core::engine::DEFAULT_BURST;
use splidt::core::ring::{ring, Consumer, Producer};
use splidt::dataplane::action::{Action, AluOp, Primitive, Source};
use splidt::dataplane::packet::PacketBuilder;
use splidt::dataplane::parser::StandardFields;
use splidt::dataplane::pipeline::{Pipeline, WaveStats};
use splidt::dataplane::program::{Program, ProgramBuilder};
use splidt::dataplane::register::RegisterSpec;
use splidt::dataplane::table::{TableId, TableSpec};
use splidt::flow::{churn, frame_for, ChurnConfig};
use splidt::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread. Const-initialised and
    /// destructor-free, so reading it from inside the allocator neither
    /// allocates nor recurses; per-thread, so libtest's own threads and
    /// sibling tests cannot leak into a measurement.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus bytes it freed.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator plus two per-thread counters: alloc / alloc_zeroed
/// / realloc calls (`Vec` growth shows up as realloc) — "how often does
/// the hot loop touch the heap", frees not counted — and live bytes,
/// which frees subtract from.
struct CountingAlloc;

fn count_one(grown: i64) {
    // `try_with`: a thread being torn down may allocate after its TLS is gone.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    track(grown);
}

fn track(grown: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Packets per batch: the wave is flushed and the digest ring disposed
/// after each, the drain-per-batch regime every consumer runs.
const BATCH: usize = 1024;
/// Packets per round of the hand-built programs.
const SYNTHETIC_PACKETS: usize = 4 * BATCH;
/// Register depth (and conflict domain) of the hand-built programs.
const SYNTHETIC_SLOTS: usize = 1 << 10;

/// One probe row's subject: a pipeline at [`DEFAULT_BURST`] with its
/// program's `flow_slots` as conflict domain, and one round of traffic.
struct Rig {
    pipe: Pipeline,
    fields: StandardFields,
    frames: Vec<(Vec<u8>, u64)>,
    /// The live-swap row: the program flipped in half-way through a
    /// round, and the lifecycle-MAT pair whose hit counters carry.
    swap_to: Option<(Program, (TableId, TableId))>,
    /// Asserts the measured round did the work the row is about (the
    /// pipeline's meters and table statistics cover exactly that round).
    witness: Box<dyn Fn(&Pipeline)>,
}

enum Feed {
    /// Frames handed to `wave_push` directly.
    Direct,
    /// Frames through a real SPSC ring — `try_push` → `peek` →
    /// `wave_push` → `wave_flush` → `clear_digests` → `advance`, the
    /// hand-off `run_ingress`'s shard consumers perform.
    Ring,
}

fn drive(
    pipe: &mut Pipeline,
    fields: &StandardFields,
    frames: &[(Vec<u8>, u64)],
    ring: &mut Option<(Producer, Consumer)>,
    stats: &mut WaveStats,
) {
    for batch in frames.chunks(BATCH) {
        match ring {
            None => {
                for (frame, ts) in batch {
                    pipe.wave_push(frame, *ts, fields, stats).expect("fixture frames parse");
                }
            }
            Some((tx, rx)) => {
                for (frame, ts) in batch {
                    tx.try_push(frame, *ts).expect("ring drained between batches");
                }
                for i in 0..batch.len() {
                    let (frame, ts) = rx.peek(i);
                    pipe.wave_push(frame, ts, fields, stats).expect("fixture frames parse");
                }
            }
        }
        // Flush before releasing the slots: parked packets borrow them.
        pipe.wave_flush(fields, stats);
        pipe.clear_digests();
        if let Some((_, rx)) = ring {
            rx.advance(batch.len());
        }
    }
}

/// One round of the rig's traffic. Returns the allocations its packet
/// loops made and the packets they retired; the `swap_program` call is
/// control-plane and sits outside the count, the first packets through
/// the arena it rebuilt are inside it.
fn round(rig: &mut Rig, ring: &mut Option<(Producer, Consumer)>) -> (u64, u64) {
    let cut = if rig.swap_to.is_some() { rig.frames.len() / 2 } else { rig.frames.len() };
    let (head, tail) = rig.frames.split_at(cut);
    let mut stats = WaveStats::default();

    let before = allocations();
    drive(&mut rig.pipe, &rig.fields, head, ring, &mut stats);
    let mut allocs = allocations() - before;
    if let Some((program, carry)) = &rig.swap_to {
        rig.pipe.swap_program(program.clone(), &[*carry]);
        let before = allocations();
        drive(&mut rig.pipe, &rig.fields, tail, ring, &mut stats);
        allocs += allocations() - before;
    }
    (allocs, stats.packets)
}

/// Warm up → snapshot → drive → the delta. The warm-up is one full round
/// (under both programs for the swap row), after which the session is
/// reset in place so the measured round replays it exactly.
fn measure(mut rig: Rig, feed: Feed) -> u64 {
    let first = rig.pipe.program().clone();
    let mut ring = matches!(feed, Feed::Ring).then(|| ring(BATCH, 2048));
    round(&mut rig, &mut ring);
    if rig.swap_to.is_some() {
        rig.pipe.swap_program(first, &[]);
    }
    rig.pipe.reset_state();

    let (allocs, packets) = round(&mut rig, &mut ring);
    assert_eq!(packets, rig.frames.len() as u64, "every frame must retire inside the round");
    (rig.witness)(&rig.pipe);
    allocs
}

/// A hand-built program's rig: 16 TCP flows cycled for one round.
fn synthetic(program: Program, fields: StandardFields, witness: Box<dyn Fn(&Pipeline)>) -> Rig {
    let flows: Vec<Vec<u8>> = (0u32..16)
        .map(|i| {
            PacketBuilder::tcp(0x0a00_0000 + i, 0x0b00_0000 + (i % 5), 40_000 + i as u16, 443)
                .payload(64 + (i as u16 % 7) * 100)
                .flow_size(64)
                .build()
                .to_vec()
        })
        .collect();
    let frames =
        (0..SYNTHETIC_PACKETS).map(|i| (flows[i % flows.len()].clone(), i as u64)).collect();
    let mut pipe = Pipeline::new(program);
    pipe.set_burst(DEFAULT_BURST, SYNTHETIC_SLOTS);
    Rig { pipe, fields, frames, swap_to: None, witness }
}

/// Digest-free: flow hash, one stateful accumulator behind an exact
/// table. Not even boundary events may allocate.
fn accumulator() -> Rig {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m.idx", 10);
    let r = b.add_register(RegisterSpec::new("r.bytes", 32, SYNTHETIC_SLOTS), 0);
    let t = b.add_table(TableSpec::exact("acct", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        t,
        vec![6],
        Action::new("account")
            .with(Primitive::HashFlow { dst: idx, mask: (SYNTHETIC_SLOTS - 1) as u64, salt: 0 })
            .with(Primitive::RegRmw {
                reg: r,
                index: Source::Field(idx),
                op: AluOp::Add,
                operand: Source::Field(fields.frame_len),
                out: None,
            }),
    )
    .expect("installs");
    synthetic(b.build().expect("builds"), fields, Box::new(|_| {}))
}

/// Every packet pushes a record into the flat `DigestBuf` ring, disposed
/// per batch: `clear` must keep the warm capacity.
fn digest_per_packet() -> Rig {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let class = b.add_meta("m.class", 8);
    b.set_digest_fields(vec![class, fields.ipv4_src, fields.ipv4_dst]);
    let t = b.add_table(TableSpec::exact("verdict", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        t,
        vec![6],
        Action::new("emit").with(Primitive::set_const(class, 3)).with(Primitive::Digest),
    )
    .expect("installs");
    synthetic(
        b.build().expect("builds"),
        fields,
        Box::new(|pipe| {
            assert_eq!(pipe.meters().digests, SYNTHETIC_PACKETS as u64, "one digest per packet");
        }),
    )
}

/// Three same-depth per-flow registers, one per stage, every packet
/// read-modify-writing all three: they must coalesce into one flow bank,
/// whose cell addressing is pure arithmetic into the preallocated arena.
fn three_register_bank() -> Rig {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m.idx", 10);
    let prep = b.add_table(TableSpec::exact("prep", vec![fields.ip_proto], 4), 0);
    b.add_exact_entry(
        prep,
        vec![6],
        Action::new("hash").with(Primitive::HashFlow {
            dst: idx,
            mask: (SYNTHETIC_SLOTS - 1) as u64,
            salt: 0,
        }),
    )
    .expect("installs");
    let regs = [
        ("r.bytes", 32u8, AluOp::Add, Source::Field(fields.frame_len)),
        ("r.pkts", 16, AluOp::Add, Source::Const(1)),
        ("r.max", 24, AluOp::Max, Source::Field(fields.frame_len)),
    ];
    for (i, (name, width, op, operand)) in regs.into_iter().enumerate() {
        let stage = i + 1;
        let r = b.add_register(RegisterSpec::new(name, width, SYNTHETIC_SLOTS), stage);
        let t = b.add_table(TableSpec::exact(format!("acct{i}"), vec![fields.ip_proto], 4), stage);
        b.add_exact_entry(
            t,
            vec![6],
            Action::new("account").with(Primitive::RegRmw {
                reg: r,
                index: Source::Field(idx),
                op,
                operand,
                out: None,
            }),
        )
        .expect("installs");
    }
    let rig = synthetic(b.build().expect("builds"), fields, Box::new(|_| {}));
    let banks = rig.pipe.registers().layout().banks();
    assert!(
        banks.len() == 1 && banks[0].members.len() == 3,
        "the three registers must coalesce into one flow bank"
    );
    rig
}

/// The compiled engine program under full lifecycle churn — TCP policy,
/// class 3 pinned, ~1,024 flows over 64 slots (the load factor of
/// `bounded_slots_classify_8x_distinct_flows`) — with a live swap to a
/// second compiled model half-way through: claims, takeovers, refusals,
/// decide resubmissions and digests all land in the measured round, as do
/// the first packets through the arena the swap rebuilt.
/// The churn fixture's engine: TCP policy, class 3 pinned, 64 slots, a
/// model trained from `seed`.
fn churn_engine(seed: u64) -> Engine {
    let flows = generate(DatasetId::D2, 160, seed);
    let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
    let model = PartitionedTree::fit(&flows, 4, &cfg).expect("trains");
    EngineBuilder::new(&model)
        .flow_slots(64)
        .idle_timeout_us(100_000)
        .lifecycle_policy(LifecyclePolicy::tcp().pin_class(3).pinned_timeout_us(150_000))
        .build()
        .expect("compiles")
}

/// ~1,024 churning flows (5 % mid-capture, a quarter RST-closed), each
/// cut to at most `max_packets`, as `(frame, ts_us)` in timestamp order.
fn churn_frames(max_packets: usize) -> Vec<(Vec<u8>, u64)> {
    let mut schedule = churn(
        DatasetId::D2,
        &ChurnConfig {
            flows: 1024,
            mean_arrival_gap_us: 2_000,
            lifetime_scale: 0.05,
            syn_open_frac: 0.95,
            rst_close_frac: 0.25,
            seed: 11,
            ..Default::default()
        },
    );
    for f in &mut schedule.flows {
        f.packets.truncate(max_packets);
    }
    schedule.events().into_iter().map(|(ts, i, j)| (frame_for(&schedule.flows[i], j), ts)).collect()
}

fn compiled_churn_with_live_swap() -> Rig {
    let (live, next) = (churn_engine(21), churn_engine(99));
    let mut pipe = Pipeline::new(live.program().clone());
    pipe.set_burst(DEFAULT_BURST, live.flow_slots());
    // The lifecycle MAT's entries are policy-determined, so the swapped-in
    // program's table reads the whole round's counters.
    let (table, e) = (next.io().lifecycle_table, next.io().lifecycle_entries);
    Rig {
        pipe,
        fields: live.io().fields,
        frames: churn_frames(usize::MAX),
        swap_to: Some((next.program().clone(), (live.io().lifecycle_table, table))),
        witness: Box::new(move |pipe| {
            let hits = |i: usize| pipe.program().table(table).entries()[i].hits;
            let takeovers =
                hits(e.takeover_idle) + hits(e.takeover_decided) + hits(e.takeover_pinned);
            assert!(takeovers > 0, "slots must recycle inside the measured round");
            assert!(hits(e.unsolicited) > 0, "mid-capture flows must be refused");
            assert!(pipe.meters().resubmissions > 0, "decide passes must resubmit");
            assert!(pipe.meters().digests > 0, "verdicts must emit digests");
        }),
    }
}

#[test]
fn steady_state_packet_path_never_allocates() {
    let before = allocations();
    drop(std::hint::black_box(Vec::<u8>::with_capacity(1)));
    assert_eq!(allocations() - before, 1, "the counting allocator must be the one installed");

    let rows = [
        ("accumulator, direct", accumulator(), Feed::Direct),
        ("accumulator, ring", accumulator(), Feed::Ring),
        ("digest per packet, direct", digest_per_packet(), Feed::Direct),
        ("digest per packet, ring", digest_per_packet(), Feed::Ring),
        ("three-register bank, direct", three_register_bank(), Feed::Direct),
        ("three-register bank, ring", three_register_bank(), Feed::Ring),
        ("compiled churn with live swap, ring", compiled_churn_with_live_swap(), Feed::Ring),
    ];
    let counts: Vec<(&str, u64)> =
        rows.into_iter().map(|(name, rig, feed)| (name, measure(rig, feed))).collect();
    for (name, allocs) in &counts {
        println!("{name}: {allocs} allocations");
    }
    assert!(counts.iter().all(|&(_, allocs)| allocs == 0), "hot path allocated: {counts:?}");
}

/// Frames per `ingest_batch` call of the flat-heap probe (a consumer's
/// drain batch).
const SERVE_BATCH: usize = 256;
/// Packets per flow of the flat-heap probe: mice, so a pass is dense in
/// verdicts.
const SERVE_FLOW_PACKETS: usize = 6;
/// Digests the flat-heap probe emits before it stops (~450 a pass): past
/// warm-up, a 16-byte record kept per digest outgrows the bound tenfold.
const SERVE_DIGESTS: u64 = 2_000;
/// Live-heap growth past warm-up the probe tolerates (bytes).
const FLAT_HEAP_BOUND: i64 = 4 * 1024;

/// The churn fixture served in consumer-sized batches, every report
/// dropped on arrival, until `SERVE_DIGESTS` verdicts went by: once one
/// pass has warmed the scratch capacities, the thread's live heap must
/// not grow with the digests.
#[test]
fn serving_engine_heap_stays_flat() {
    let mut engine = churn_engine(21);
    let frames = churn_frames(SERVE_FLOW_PACKETS);
    // Each replay of the schedule starts after every lane of the last one
    // has idled out.
    let pass_us = frames.last().expect("frames").1 + 1_000_000;
    let (mut digests, mut passes, mut warm, mut growth) = (0u64, 0u64, None, 0i64);
    while digests < SERVE_DIGESTS {
        for batch in frames.chunks(SERVE_BATCH) {
            let offset = passes * pass_us;
            let report = engine
                .ingest_batch(batch.iter().map(|(f, ts)| (f.as_slice(), ts + offset)))
                .expect("counts malformed frames instead of failing");
            digests += report.digests.len() as u64;
            drop(report);
            if let Some(base) = warm {
                growth = growth.max(live_bytes() - base);
            }
        }
        passes += 1;
        // One full pass warms every scratch capacity.
        warm.get_or_insert_with(live_bytes);
    }
    println!("{digests} digests over {passes} passes: live heap grew at most {growth} B");
    assert!(growth < FLAT_HEAP_BOUND, "serving heap grew {growth} B over {digests} digests");
}
