//! The per-layer rows, all measured from outside the library: isolation
//! replays of single public entry points over the workload's own frames,
//! a bare `Pipeline` driven exactly as `Engine::ingest_batch` drives it
//! (its difference to the engine is the engine's overhead), and exact
//! counts read from `Meters` and the table hit/miss counters.
//!
//! What cannot be separated from outside — action execution, key build,
//! wave bookkeeping — is the stated residual, not a hidden one.

use crate::closed_loop::{PassSample, BATCH};
use crate::fixtures::Frames;
use crate::stats::{median, SplitMix64};
use crate::trace::Recorder;
use splidt_core::engine::{Engine, DEFAULT_BURST};
use splidt_core::PartitionedTree;
use splidt_dataplane::hash::{canonical_order, flow_index};
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_dataplane::register::{owner_lane, RegAluOp};
use splidt_dataplane::table::{EntryKey, MatchKind, Table};
use splidt_dataplane::{parse_into, peek_flow_tuple, ExecPlan, Program};
use splidt_net::source::{FrameBurst, FrameSource, UdpSource};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Repetitions of every isolation replay; the median is reported.
const REPS: usize = 5;

/// Slots the cache-resident state replay cycles over: 256 lines, 16 KiB.
const RESIDENT_SLOTS: u32 = 256;

/// Median ns per item of `REPS` timed runs of `f` over `items` items.
fn median_ns_per(items: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&samples)
}

/// Parse, steering-peek and flow-hash cost per frame, and the canonical
/// slot of every frame (the workload's own slot sequence).
pub struct Isolation {
    /// `parse_into` per frame.
    pub parse_ns: f64,
    /// `peek_flow_tuple` per frame.
    pub peek_ns: f64,
    /// `canonical_order` + `flow_index` per frame: the steering hash, and
    /// equally the wave executor's conflict key.
    pub steer_ns: f64,
    /// Canonical flow slot per frame, in timeline order.
    pub slots: Vec<u32>,
}

/// Replays the three stateless per-frame entry points over `frames`.
pub fn isolation(engine: &Engine, frames: &Frames) -> Isolation {
    let n = frames.len();
    let layout = engine.program().layout();
    let fields = engine.io().fields;
    let mut phv = layout.new_phv();
    let parse_ns = median_ns_per(n, || {
        for i in 0..n {
            parse_into(frames.get(i).0, layout, &fields, &mut phv).expect("fixture frames parse");
            black_box(&phv);
        }
    });
    let peek_ns = median_ns_per(n, || {
        for i in 0..n {
            black_box(peek_flow_tuple(frames.get(i).0).expect("fixture frames parse"));
        }
    });
    let tuples: Vec<_> =
        (0..n).map(|i| peek_flow_tuple(frames.get(i).0).expect("fixture frames parse")).collect();
    let flow_slots = engine.io().flow_slots;
    let mut slots = vec![0u32; n];
    let steer_ns = median_ns_per(n, || {
        for (t, slot) in tuples.iter().zip(&mut slots) {
            let (sip, dip, sp, dp) = canonical_order(t.src_ip, t.dst_ip, t.sport, t.dport);
            *slot = flow_index(sip, dip, sp, dp, t.proto, flow_slots) as u32;
        }
    });
    Isolation { parse_ns, peek_ns, steer_ns, slots }
}

/// Exact per-pass counts of the mirrored pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Packets submitted.
    pub packets: u64,
    /// Pipeline passes (packets + resubmissions).
    pub passes: u64,
    /// Table visits (hits + misses over every table).
    pub lookups: u64,
    /// Digests emitted.
    pub digests: u64,
    /// Resubmission events.
    pub resubmits: u64,
}

/// A bare `Pipeline` over the engine's program, driven the way
/// `Engine::ingest_batch` drives its own: `wave_push` × 256, `wave_flush`,
/// then the drain's lane releases and `clear_digests` in place of
/// collation. Engine minus mirror is the engine's own overhead.
pub struct Mirror {
    pipe: Pipeline,
    fields: StandardFields,
    owner_reg: usize,
    flow_idx: usize,
    fp: usize,
    class: usize,
    ended: usize,
    pinned: Vec<u16>,
}

impl Mirror {
    /// Mirrors `engine` (call on a freshly reset engine, so the cloned
    /// program carries no hit counts).
    pub fn new(engine: &Engine) -> Mirror {
        let io = engine.io();
        let mut pipe = Pipeline::new(engine.program().clone());
        pipe.set_burst(DEFAULT_BURST, io.flow_slots);
        Mirror {
            pipe,
            fields: io.fields,
            owner_reg: io.owner_reg.index(),
            flow_idx: io.digest_flow_idx,
            fp: io.digest_fp,
            class: io.digest_class,
            ended: io.digest_final,
            pinned: io.policy.pinned_classes.clone(),
        }
    }

    /// The mirrored program, carrying the last pass's hit/miss counters.
    pub fn program(&self) -> &Program {
        self.pipe.program()
    }

    /// What the engine's digest drain does to the data plane: a flow-end
    /// verdict of an unpinned class frees the lane it still owns.
    fn release_lanes(&mut self) {
        for i in 0..self.pipe.digests().len() {
            let v = self.pipe.digests().values(i);
            let (slot, fp, class) = (v[self.flow_idx] as usize, v[self.fp], v[self.class] as u16);
            if v[self.ended] == 1 && !self.pinned.contains(&class) {
                let cell = self.pipe.registers().read(self.owner_reg, slot);
                if owner_lane::decided(cell) && owner_lane::fp(cell) == fp {
                    self.pipe.registers_mut().rmw(
                        self.owner_reg,
                        slot,
                        RegAluOp::Write,
                        owner_lane::FREE,
                    );
                }
            }
        }
    }

    /// One pass, spans and all: per 256 frames a `batch` root around
    /// `dataplane.pipeline.push`, `.flush` and `.digest_clear`.
    pub fn pass(&mut self, frames: &Frames, rec: &mut Recorder) -> PassSample {
        let wall = Instant::now();
        self.pipe.reset_state();
        let mut sample = PassSample::default();
        let mut lo = 0;
        while lo < frames.len() {
            let hi = (lo + BATCH).min(frames.len());
            let mut stats = WaveStats::default();
            let root = rec.open("batch", None);
            let start = Instant::now();
            let push = rec.open("dataplane.pipeline.push", Some(root));
            for i in lo..hi {
                let (frame, ts_us) = frames.get(i);
                self.pipe
                    .wave_push(frame, ts_us, &self.fields, &mut stats)
                    .expect("fixture frames parse");
            }
            rec.close(push);
            let flush = rec.open("dataplane.pipeline.flush", Some(root));
            self.pipe.wave_flush(&self.fields, &mut stats);
            rec.close(flush);
            let clear = rec.open("dataplane.pipeline.digest_clear", Some(root));
            self.release_lanes();
            self.pipe.clear_digests();
            rec.close(clear);
            sample.busy_ns += start.elapsed().as_nanos() as u64;
            rec.close(root);
            sample.packets += stats.packets;
            lo = hi;
        }
        sample.wall_ns = wall.elapsed().as_nanos() as u64;
        sample
    }

    /// Exact counts of the last pass.
    pub fn counts(&self) -> Counts {
        let m = self.pipe.meters();
        Counts {
            packets: m.packets,
            passes: m.passes,
            lookups: self.pipe.program().tables().iter().map(visits).sum(),
            digests: m.digests,
            resubmits: m.resubmissions,
        }
    }

    /// Bytes one slot's state occupies in the first flow bank (its
    /// line-padded stride); 0 when nothing coalesced.
    pub fn bank_bytes_per_slot(&self) -> f64 {
        self.pipe.registers().banks().first().map_or(0.0, |b| b.desc().stride_bytes as f64)
    }

    /// `RegisterFile::rmw` on the ownership lane, replayed over the
    /// workload's slot sequence: one state touch per packet, in the
    /// order and at the addresses the workload produces them, without
    /// the wave's push-time prefetch.
    pub fn rmw_ns(&mut self, slots: &[u32]) -> f64 {
        let owner = self.owner_reg;
        let regs = self.pipe.registers_mut();
        median_ns_per(slots.len(), || {
            for &slot in slots {
                // `Max(cell, 0)` reads and writes the cell back unchanged.
                black_box(regs.rmw(owner, slot as usize, RegAluOp::Max, 0));
            }
        })
    }

    /// The same replay of `touches` touches over [`RESIDENT_SLOTS`] slots
    /// only: what a state touch costs when its line is in L1. The
    /// reference `rmw_ns` is read against.
    pub fn rmw_resident_ns(&mut self, touches: usize) -> f64 {
        let slots: Vec<u32> = (0..RESIDENT_SLOTS).cycle().take(touches).collect();
        self.rmw_ns(&slots)
    }
}

fn hits(t: &Table) -> u64 {
    t.entries().iter().map(|e| e.hits).sum()
}

fn visits(t: &Table) -> u64 {
    hits(t) + t.misses()
}

/// `MatchIndex::lookup` cost per match kind, and their sum per packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupRows {
    /// Per lookup in exact tables.
    pub exact_ns: f64,
    /// Per lookup in ternary tables.
    pub ternary_ns: f64,
    /// Per lookup in range tables.
    pub range_ns: f64,
    /// Σ over tables of visits per packet × ns per lookup.
    pub per_pkt_est_ns: f64,
}

/// Keys probed per table and replay.
const KEYS_PER_TABLE: usize = 4096;
/// Replays of the key set inside one timed repetition.
const KEY_ROUNDS: usize = 16;

/// Times `MatchIndex::lookup` for every table the last pass visited.
/// Keys are sampled from the installed entries in proportion to their
/// hit counts, mixed with random (missing) keys at the table's own
/// hit/miss ratio; per-kind rows and the per-packet estimate weight each
/// table by its hit+miss count. `program` must carry one pass's counters.
pub fn lookup_replay(program: &Program, packets: u64, seed: u64) -> LookupRows {
    let plan = ExecPlan::build(program);
    let mut rng = SplitMix64::new(seed);
    let mut scratch = Vec::new();
    // Per kind: (Σ visits × ns, Σ visits).
    let mut by_kind = [(0.0f64, 0u64); 3];
    for (ti, table) in program.tables().iter().enumerate() {
        let n_visits = visits(table);
        if n_visits == 0 {
            continue;
        }
        let masks: Vec<u64> =
            table.spec().key.iter().map(|&f| program.layout().spec(f).mask()).collect();
        let keys = sample_keys(table, &masks, &mut rng);
        let index = plan.match_index(ti);
        let width = masks.len();
        let ns = median_ns_per(KEYS_PER_TABLE * KEY_ROUNDS, || {
            for _ in 0..KEY_ROUNDS {
                for key in keys.chunks_exact(width) {
                    black_box(index.lookup(key, &mut scratch));
                }
            }
        });
        let kind = match table.spec().kind {
            MatchKind::Exact => 0,
            MatchKind::Ternary => 1,
            MatchKind::Range => 2,
        };
        by_kind[kind].0 += ns * n_visits as f64;
        by_kind[kind].1 += n_visits;
    }
    let per_kind = |(weighted, n): (f64, u64)| if n == 0 { 0.0 } else { weighted / n as f64 };
    LookupRows {
        exact_ns: per_kind(by_kind[0]),
        ternary_ns: per_kind(by_kind[1]),
        range_ns: per_kind(by_kind[2]),
        per_pkt_est_ns: by_kind.iter().map(|k| k.0).sum::<f64>() / packets as f64,
    }
}

/// `KEYS_PER_TABLE` flattened keys for `table`: hits drawn from entries
/// by hit count (don't-care bits and range interiors randomised), misses
/// drawn at random within the field widths.
fn sample_keys(table: &Table, masks: &[u64], rng: &mut SplitMix64) -> Vec<u64> {
    let total_hits = hits(table);
    let n_visits = total_hits + table.misses();
    let cumulative: Vec<u64> = table
        .entries()
        .iter()
        .scan(0u64, |acc, e| {
            *acc += e.hits;
            Some(*acc)
        })
        .collect();
    let mut keys = Vec::with_capacity(KEYS_PER_TABLE * masks.len());
    for _ in 0..KEYS_PER_TABLE {
        if rng.below(n_visits) < total_hits {
            let pick = rng.below(total_hits);
            let entry = &table.entries()[cumulative.partition_point(|&c| c <= pick)];
            match &entry.key {
                EntryKey::Exact(values) => keys.extend_from_slice(values),
                EntryKey::Ternary { fields, .. } => {
                    keys.extend(
                        fields
                            .iter()
                            .zip(masks)
                            .map(|(t, &m)| (t.value & t.mask) | (rng.next_u64() & !t.mask & m)),
                    );
                }
                EntryKey::Range { fields, .. } => {
                    keys.extend(
                        fields.iter().map(|&(lo, hi)| lo + rng.below((hi - lo).saturating_add(1))),
                    );
                }
            }
        } else {
            keys.extend(masks.iter().map(|&m| rng.next_u64() & m));
        }
    }
    keys
}

/// Single-threaded SPSC ring cost per frame: `try_push` (the slot copy),
/// then `peek` + `advance` — the hand-off `run_ingress` performs between
/// receiver and consumer, minus the cross-core traffic.
pub fn ring_ns(frames: &Frames) -> (f64, f64) {
    let (mut tx, mut rx) = splidt_core::ring::ring(4096, 2048);
    let n = frames.len();
    let (mut push_ns, mut pop_ns) = (0u64, 0u64);
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BATCH).min(n);
        let start = Instant::now();
        for i in lo..hi {
            let (frame, ts_us) = frames.get(i);
            tx.try_push(frame, ts_us).expect("ring drained between chunks");
        }
        let pushed = Instant::now();
        for i in 0..hi - lo {
            black_box(rx.peek(i));
        }
        rx.advance(hi - lo);
        pop_ns += pushed.elapsed().as_nanos() as u64;
        push_ns += pushed.duration_since(start).as_nanos() as u64;
        lo = hi;
    }
    (push_ns as f64 / n as f64, pop_ns as f64 / n as f64)
}

/// Datagrams per send-then-drain round: small enough that the socket's
/// default receive buffer holds them all.
const UDP_ROUND: usize = 64;
/// Frames the UDP probe moves in total.
const UDP_FRAMES: usize = 64 * 1024;

/// `UdpSource::next_burst` cost per datagram over loopback, single
/// threaded: send a round, then time draining it. The only row in which
/// anything crosses a socket. `None` when loopback is unavailable.
pub fn udp_recv_ns(frames: &Frames) -> Option<f64> {
    let mut source = UdpSource::bind("127.0.0.1:0").ok()?.idle_exit(Duration::from_millis(200));
    let addr = source.local_addr().ok()?;
    let tx = UdpSocket::bind("127.0.0.1:0").ok()?;
    let mut burst = FrameBurst::new(32, 2048);
    let (mut drain_ns, mut received) = (0u64, 0usize);
    let mut next = 0;
    while received < UDP_FRAMES {
        for _ in 0..UDP_ROUND {
            tx.send_to(frames.get(next % frames.len()).0, addr).ok()?;
            next += 1;
        }
        let start = Instant::now();
        let mut got = 0;
        while got < UDP_ROUND {
            let more = source.next_burst(&mut burst).ok()?;
            got += burst.len();
            if !more {
                // Idle exit: a datagram went missing; report what drained.
                return (received > 0).then(|| drain_ns as f64 / received as f64);
            }
        }
        drain_ns += start.elapsed().as_nanos() as u64;
        received += got;
    }
    Some(drain_ns as f64 / received as f64)
}

/// Live model swap cost: `(stage_ms, swap_stall_ms)`, medians of five
/// `stage_model` + `swap_staged` rounds on the (already loaded) engine.
/// `stage_ms` is the call that launches the off-thread compile;
/// `swap_stall_ms` is the flip — rebuilding plan and register file and
/// carrying the flow state over — taken after a pause that lets the
/// compile finish, so the stall is the flip and not the join.
pub fn swap_stall_ms(engine: &mut Engine, model: &PartitionedTree) -> (f64, f64) {
    let (mut stage, mut swap) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let start = Instant::now();
        engine.stage_model(model.clone()).expect("the fixture model validates");
        stage.push(start.elapsed().as_secs_f64() * 1e3);
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        engine.swap_staged().expect("the staged model compiles");
        swap.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (median(&stage), median(&swap))
}
