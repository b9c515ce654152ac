//! Property test: **banked register file ≡ split per-register arrays.**
//!
//! The flow bank changes only *where* register cells live (one
//! cache-line-coalesced arena per slot domain instead of one array per
//! register) — never *what* a visit computes. This test generates random
//! programs under the engine discipline (ownership-lane lifecycle with
//! idle-eviction churn, per-flow counters with mixed widths, saturation
//! caps, digests, resubmits, drops) plus random packet schedules, runs
//! them through a banked and a split pipeline, and checks the two agree
//! on everything: dispositions, meters, every register slot, per-entry
//! table hits and misses, and the exact digest stream. The banked and
//! split pipelines take one packet at a time (singleton waves, so
//! outcomes compare per packet); a third, banked pipeline runs the same
//! schedule as full waves, so it also takes the push-time bank-line
//! prefetch.
//!
//! Width diversity matters here: 8/16/24/32/64-bit registers exercise
//! every physical cell size (1/2/4/8 bytes) the bank packs, and capped
//! registers exercise the shared saturating-ALU body.

use proptest::prelude::*;
use splidt_dataplane::action::{Action, AluOp, AluOut, OwnerMode, Primitive, Source};
use splidt_dataplane::hash::{FP_MASK, FP_SALT};
use splidt_dataplane::packet::PacketBuilder;
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::pipeline::{Pipeline, WaveStats};
use splidt_dataplane::program::{Program, ProgramBuilder};
use splidt_dataplane::register::{RegPlacement, RegisterSpec};
use splidt_dataplane::table::TableSpec;

/// Program-shape knobs drawn by the property.
#[derive(Debug, Clone)]
struct Shape {
    /// Flow-hash domain (power of two; every per-flow register's depth).
    slots: usize,
    /// Include the ownership lane (probe on first pass, decide on
    /// resubmit) with a short idle timeout, so lanes churn mid-trace.
    owner: bool,
    /// Resubmit every first pass (exercises multi-pass bank visits).
    resubmit: bool,
    /// Per-flow counter descriptors; bits select width, ALU op, cap,
    /// old-vs-new export and digest emission.
    ops: Vec<u8>,
}

/// Bank cell widths the op descriptor cycles through.
const WIDTHS: [u8; 5] = [8, 16, 24, 32, 64];

/// Builds a random-shape program following the engine discipline: all
/// per-packet register indices come from the salt-0 canonical flow hash.
fn build(shape: &Shape) -> (Program, StandardFields) {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m_idx", 16);
    let fp = b.add_meta("m_fp", 24);
    let state = b.add_meta("m_state", 8);
    let cnt_out = b.add_meta("m_cnt", 32);
    b.set_digest_fields(vec![idx, cnt_out, fields.frame_len]);

    let prep = b.add_table(TableSpec::exact("prep", vec![fields.is_resubmit], 2), 0);
    b.set_default(
        prep,
        Action::new("hash")
            .with(Primitive::HashFlow { dst: idx, mask: (shape.slots - 1) as u64, salt: 0 })
            .with(Primitive::HashFlow { dst: fp, mask: FP_MASK, salt: FP_SALT })
            .with(Primitive::Max { dst: fp, a: Source::Field(fp), b: Source::Const(1) }),
    );

    let mut stage = 1;
    if shape.owner {
        let own_reg = b.add_register(RegisterSpec::new("own", 64, shape.slots), stage);
        let own = b.add_table(TableSpec::exact("own", vec![fields.is_resubmit], 2), stage);
        let upd = |mode: OwnerMode, claim: bool| Primitive::OwnerUpdate {
            reg: own_reg,
            index: Source::Field(idx),
            fp: Source::Field(fp),
            now: Source::Field(fields.ts_us),
            idle_timeout_us: 50,
            pinned_timeout_us: 100,
            mode,
            claim,
            release: false,
            pin: false,
            class: Source::Const(1),
            state_out: state,
        };
        b.add_exact_entry(own, vec![0], Action::new("probe").with(upd(OwnerMode::Probe, true)))
            .unwrap();
        b.add_exact_entry(own, vec![1], Action::new("decide").with(upd(OwnerMode::Decide, false)))
            .unwrap();
        stage += 1;
    }
    for (i, &op) in shape.ops.iter().enumerate() {
        let width = WIDTHS[op as usize % WIDTHS.len()];
        let spec = if op & 32 == 0 {
            // A cap just under the width's top exercises saturation.
            let cap = (1u64 << (width.min(63) - 1)) + 3;
            RegisterSpec::capped(format!("r{i}"), width, shape.slots, cap)
        } else {
            RegisterSpec::new(format!("r{i}"), width, shape.slots)
        };
        let r = b.add_register(spec, stage);
        // Keyed on dport (traffic uses 2 and 3) for hit/miss diversity.
        let t = b.add_table(TableSpec::exact(format!("cnt{i}"), vec![fields.dport], 4), stage);
        let (alu, operand) = match op % 4 {
            0 => (AluOp::Add, Source::Field(fields.frame_len)),
            1 => (AluOp::Max, Source::Field(fields.flow_size)),
            2 => (AluOp::Min, Source::Const(7 + i as u64)),
            _ => (AluOp::Add, Source::Const(1)),
        };
        let mut act = Action::new("upd").with(Primitive::RegRmw {
            reg: r,
            index: Source::Field(idx),
            op: alu,
            operand,
            out: Some((cnt_out, if op & 8 == 0 { AluOut::New } else { AluOut::Old })),
        });
        if op & 16 == 0 {
            act = act.with(Primitive::Digest);
        }
        b.add_exact_entry(t, vec![2], act).unwrap();
        stage += 1;
    }
    if shape.resubmit {
        let go = b.add_table(TableSpec::exact("go", vec![fields.is_resubmit], 4), stage);
        b.add_exact_entry(go, vec![0], Action::new("resub").with(Primitive::Resubmit)).unwrap();
        b.add_exact_entry(go, vec![1], Action::nop()).unwrap();
    }
    (b.build().unwrap(), fields)
}

fn frame_for(flow: u32, pay: u16, dsel: u8) -> Vec<u8> {
    PacketBuilder::tcp(
        0x0a00_0000 + flow,
        0x0b00_0000 + flow * 3,
        1000 + flow as u16,
        2 + dsel as u16,
    )
    .payload(pay * 37)
    .flow_size(1 + pay)
    .build()
    .to_vec()
}

/// Runs one schedule through banked and split pipelines packet by
/// packet and a banked pipeline in waves, and asserts full-state equality.
fn assert_equivalent(shape: &Shape, burst: usize, packets: &[(u32, u16, u8)]) {
    let (p, fields) = build(shape);
    let mut banked = Pipeline::new(p.clone());
    let mut split = Pipeline::new_split(p.clone());
    let mut wave = Pipeline::new(p);
    wave.set_burst(burst, shape.slots);
    assert!(banked.registers().is_banked());
    assert!(!split.registers().is_banked());
    // Per-flow registers (>= 2 share the slot domain) must have coalesced.
    if shape.owner || shape.ops.len() >= 2 {
        assert!(
            banked
                .registers()
                .layout()
                .placements()
                .iter()
                .any(|p| matches!(p, RegPlacement::Banked { .. })),
            "flow registers should have banked"
        );
    }
    let mut stats = WaveStats::default();
    for (i, &(flow, pay, dsel)) in packets.iter().enumerate() {
        let frame = frame_for(flow, pay, dsel);
        let ts = i as u64 * 17;
        let a = banked.process_packet(&frame, ts, &fields).unwrap();
        let b = split.process_packet(&frame, ts, &fields).unwrap();
        assert_eq!(a.phv, b.phv, "packet {i}: banked and split PHVs diverged");
        assert_eq!(
            (a.disposition, a.passes),
            (b.disposition, b.passes),
            "packet {i}: banked and split dispositions diverged"
        );
        wave.wave_push(&frame, ts, &fields, &mut stats).unwrap();
    }
    wave.wave_flush(&fields, &mut stats);
    assert_eq!(banked.meters(), split.meters(), "meters diverged");
    assert_eq!(banked.meters(), wave.meters(), "wave meters diverged");
    let n_regs = banked.registers().len();
    for r in 0..n_regs {
        for s in 0..shape.slots {
            let want = split.registers().read(r, s);
            assert_eq!(banked.registers().read(r, s), want, "register {r} slot {s} diverged");
            assert_eq!(wave.registers().read(r, s), want, "wave register {r} slot {s} diverged");
        }
    }
    let want_digests = split.take_digests();
    assert_eq!(banked.take_digests(), want_digests, "digest streams diverged");
    assert_eq!(wave.take_digests(), want_digests, "wave digest stream diverged");
    for ((tb, ts_), tw) in
        banked.program().tables().iter().zip(split.program().tables()).zip(wave.program().tables())
    {
        assert_eq!(tb.misses(), ts_.misses(), "table miss counts diverged");
        assert_eq!(tw.misses(), ts_.misses(), "wave table miss counts diverged");
        for ((eb, es), ew) in tb.entries().iter().zip(ts_.entries()).zip(tw.entries()) {
            assert_eq!(eb.hits, es.hits, "table entry hit counts diverged");
            assert_eq!(ew.hits, es.hits, "wave table entry hit counts diverged");
        }
    }
}

proptest! {
    #[test]
    fn banked_equals_split(
        (slots_sel, owner, resubmit, burst) in
            (0u32..3, any::<bool>(), any::<bool>(), 1usize..33),
        ops in proptest::collection::vec(0u8..64, 1..5),
        packets in proptest::collection::vec((0u32..12, 0u16..3, 0u8..2), 1..80),
    ) {
        let shape = Shape { slots: 4usize << slots_sel, owner, resubmit, ops };
        assert_equivalent(&shape, burst, &packets);
    }
}

/// Deterministic spot-check: a lifecycle + saturating-counter program at
/// a fixed schedule, so a bank addressing bug fails loudly outside the
/// shrinking loop too.
#[test]
fn banked_equals_split_lifecycle_fixture() {
    let shape = Shape { slots: 16, owner: true, resubmit: true, ops: vec![0, 9, 18, 27, 36] };
    let packets: Vec<_> = (0..64u32).map(|i| (i % 11, (i % 3) as u16, (i % 2) as u8)).collect();
    assert_equivalent(&shape, 8, &packets);
}
