//! Property test: **wave execution ≡ the entry-walk oracle.**
//!
//! The wave executor (`Pipeline::wave_push`/`wave_flush`) claims
//! observational equivalence with packet-at-a-time execution for any
//! program that follows the engine discipline — every packet-dependent
//! register index derives from the canonical salt-0 flow hash. This test
//! generates random programs under that discipline (per-flow counters
//! with mixed ALU ops and hit/miss diversity, optional ownership-lane
//! churn with idle-eviction timeouts, single and storm resubmits, mid-wave
//! drops, digest emission, counters gated on a 1-bit field that packets
//! and actions set, counters keyed on another 1-bit field that actions
//! write, register sharing; runs of such tables fuse into one plan step,
//! and runs of wide ternary ones share one probe)
//! plus random packet schedules with heavy
//! same-flow adjacency, and checks the wave against the reference
//! interpreter (`Pipeline::process_packet_entrywalk`) on *everything*:
//! wave dispositions, meters, every register slot, per-entry table hits
//! and misses, and the exact digest stream (order included). A third
//! pipeline takes the schedule through the single-packet call (a
//! singleton wave per packet), whose PHV, disposition and pass count are
//! compared with the oracle's packet by packet.

use proptest::prelude::*;
use splidt_dataplane::action::{Action, AluOp, AluOut, OwnerMode, Primitive, Source};
use splidt_dataplane::hash::{FP_MASK, FP_SALT};
use splidt_dataplane::packet::PacketBuilder;
use splidt_dataplane::parser::StandardFields;
use splidt_dataplane::pipeline::{Disposition, Pipeline, WaveStats};
use splidt_dataplane::program::{Program, ProgramBuilder};
use splidt_dataplane::register::RegisterSpec;
use splidt_dataplane::table::TableSpec;
use splidt_dataplane::tcam::Ternary;

/// Program-shape knobs drawn by the property.
#[derive(Debug, Clone)]
struct Shape {
    /// Flow-hash domain (power of two; also every register's depth).
    slots: usize,
    /// Include the ownership lane (probe on first pass, decide on
    /// resubmit) with a short idle timeout, so lanes churn mid-trace.
    owner: bool,
    /// 0 = never, 1 = one resubmission per packet, 2 = resubmit storm
    /// (every pass resubmits, so packets hit the resubmit limit).
    resubmit: u8,
    /// Drop packets whose flow index equals this slot (mid-wave deaths).
    drop_slot: Option<u64>,
    /// One per-flow counter table per element; bits 0–1 select the ALU
    /// op/operand, bit 2 shares the previous counter's stage and
    /// register, bit 3 old-vs-new export, bit 4 digest emission, bits
    /// 5–6 the gate (bit 5: the action also writes the counter's low bit
    /// to the 1-bit `m_gate`; bit 6: the table applies only when `m_gate`
    /// is 1), bit 7 keys the table on the 1-bit `m_flag` (an entry for 0
    /// and for 1) instead of dport, bit 8 makes the action also write the
    /// counter's low bit to `m_flag`, and bit 9 adds a no-op entry for
    /// dport 3. Bits 10–11, unless both clear, instead make the table a
    /// five-entry ternary one on `[dport, frame_len]`, too wide for a
    /// direct index and too big to fuse, so runs of them share one probe.
    ops: Vec<u16>,
}

/// Builds a random-shape program that still follows the engine
/// discipline: all per-packet register indices come from `m_idx`, the
/// salt-0 canonical flow hash masked to `slots - 1`.
fn build(shape: &Shape) -> (Program, StandardFields) {
    let mut b = ProgramBuilder::new();
    let fields = b.standard_fields();
    let idx = b.add_meta("m_idx", 16);
    let fp = b.add_meta("m_fp", 24);
    let state = b.add_meta("m_state", 8);
    let cnt_out = b.add_meta("m_cnt", 32);
    let gate = b.add_meta("m_gate", 1);
    let flag = b.add_meta("m_flag", 1);
    b.set_digest_fields(vec![idx, cnt_out, fields.frame_len]);

    // Stage 0: flow hashing — the discipline the wave contract rests on.
    let prep = b.add_table(TableSpec::exact("prep", vec![fields.is_resubmit], 2), 0);
    b.set_default(
        prep,
        Action::new("hash")
            .with(Primitive::HashFlow { dst: idx, mask: (shape.slots - 1) as u64, salt: 0 })
            .with(Primitive::HashFlow { dst: fp, mask: FP_MASK, salt: FP_SALT })
            .with(Primitive::Max { dst: fp, a: Source::Field(fp), b: Source::Const(1) })
            // The gate opens on odd frame lengths, the flag is their bit 1.
            .with(Primitive::Set { dst: gate, src: Source::Field(fields.frame_len) })
            .with(Primitive::DivConst {
                dst: flag,
                a: Source::Field(fields.frame_len),
                divisor: 2,
            }),
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
            // Short timeouts relative to the 17 µs inter-packet gap, so
            // the trace sees claims, refreshes, takeovers, and evictions.
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
    let mut prev_reg = None;
    for (i, &op) in shape.ops.iter().enumerate() {
        let r = match prev_reg {
            Some(prev) if op & 4 != 0 => {
                stage -= 1;
                prev
            }
            _ => b.add_register(RegisterSpec::new(format!("r{i}"), 32, shape.slots), stage),
        };
        prev_reg = Some(r);
        // Keyed on dport (traffic uses 2 and 3) or on the flag, so tables
        // mix per-packet hits and misses and entry/miss counters get real
        // coverage.
        let t = if op & 3072 != 0 {
            let key = vec![fields.dport, fields.frame_len];
            b.add_table(TableSpec::ternary(format!("cnt{i}"), key, 8), stage)
        } else {
            let key = if op & 128 == 0 { fields.dport } else { flag };
            b.add_table(TableSpec::exact(format!("cnt{i}"), vec![key], 4), stage)
        };
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
        if op & 32 != 0 {
            act = act.with(Primitive::Set { dst: gate, src: Source::Field(cnt_out) });
        }
        if op & 64 != 0 {
            b.gate_table(t, gate);
        }
        if op & 256 != 0 {
            act = act.with(Primitive::Set { dst: flag, src: Source::Field(cnt_out) });
        }
        if op & 3072 != 0 {
            // Entry 1 ties with entry 0 on dport 2 and lengths with bit 6
            // set, and entry 3 outranks both on odd lengths; the two share
            // no care bit, so the index verifies them. Entry 4 names a
            // dport no packet carries.
            let dport3 = if op & 512 != 0 { Action::nop() } else { act.clone() };
            let bit6 = Ternary::new(0x40, 0x40);
            for (pats, priority, action) in [
                ([Ternary::exact(2, 16), Ternary::ANY], 1, act.clone()),
                ([Ternary::exact(2, 16), bit6], 1, Action::nop()),
                ([Ternary::exact(3, 16), Ternary::ANY], 0, dport3),
                ([Ternary::ANY, Ternary::new(1, 1)], 2, Action::nop()),
                ([Ternary::exact(0x1002, 16), Ternary::ANY], 3, act),
            ] {
                b.add_ternary_entry(t, pats.to_vec(), priority, action).unwrap();
            }
        } else if op & 128 == 0 {
            b.add_exact_entry(t, vec![2], act).unwrap();
            if op & 512 != 0 {
                b.add_exact_entry(t, vec![3], Action::nop()).unwrap();
            }
        } else {
            b.add_exact_entry(t, vec![0], act.clone()).unwrap();
            b.add_exact_entry(t, vec![1], act).unwrap();
        }
        stage += 1;
    }
    if shape.resubmit > 0 {
        let go = b.add_table(TableSpec::exact("go", vec![fields.is_resubmit], 4), stage);
        b.add_exact_entry(go, vec![0], Action::new("resub").with(Primitive::Resubmit)).unwrap();
        let again = if shape.resubmit > 1 {
            Action::new("storm").with(Primitive::Resubmit)
        } else {
            Action::nop()
        };
        b.add_exact_entry(go, vec![1], again).unwrap();
        stage += 1;
    }
    if let Some(slot) = shape.drop_slot {
        let d = b.add_table(TableSpec::exact("dropt", vec![idx], 4), stage);
        b.add_exact_entry(
            d,
            vec![slot % shape.slots as u64],
            Action::new("drop").with(Primitive::Drop),
        )
        .unwrap();
    }
    (b.build().unwrap(), fields)
}

/// Runs one schedule through the oracle, the wave and the single-packet
/// call and asserts full-state equality.
fn assert_equivalent(shape: &Shape, burst: usize, packets: &[(u32, u16, u8)]) {
    let (p, fields) = build(shape);
    let mut oracle = Pipeline::new(p.clone());
    let mut single = Pipeline::new(p.clone());
    let mut wave = Pipeline::new(p);
    wave.set_burst(burst, shape.slots);
    let mut stats = WaveStats::default();
    let mut expected = WaveStats::default();
    for (i, &(flow, pay, dsel)) in packets.iter().enumerate() {
        let frame = PacketBuilder::tcp(
            0x0a00_0000 + flow,
            0x0b00_0000 + flow * 3,
            1000 + flow as u16,
            2 + dsel as u16,
        )
        .payload(pay * 37)
        .flow_size(1 + pay)
        .build();
        let ts = i as u64 * 17;
        let want = oracle.process_packet_entrywalk(&frame, ts, &fields).unwrap();
        let got = single.process_packet(&frame, ts, &fields).unwrap();
        assert_eq!(got.phv, want.phv, "packet {i}: final PHV diverged");
        assert_eq!(
            (got.disposition, got.passes),
            (want.disposition, want.passes),
            "packet {i}: outcome diverged"
        );
        wave.wave_push(&frame, ts, &fields, &mut stats).unwrap();
        expected.packets += 1;
        match want.disposition {
            Disposition::Drop => expected.drops += 1,
            Disposition::ResubmitLimit => expected.resubmit_limited += 1,
            Disposition::Forward => {}
        }
    }
    wave.wave_flush(&fields, &mut stats);
    assert_eq!(wave.wave_len(), 0, "flush must empty the arena");
    assert_eq!(stats, expected, "wave dispositions must match the oracle's outcomes");
    let want_digests = oracle.take_digests();
    for (name, mut pipe) in [("wave", wave), ("single", single)] {
        assert_eq!(oracle.meters(), pipe.meters(), "{name}: meters must match");
        for r in 0..oracle.registers().len() {
            for s in 0..shape.slots {
                assert_eq!(
                    oracle.registers().read(r, s),
                    pipe.registers().read(r, s),
                    "{name}: register {r} slot {s} diverged"
                );
            }
        }
        assert_eq!(
            want_digests,
            pipe.take_digests(),
            "{name}: digest streams must be identical, order included"
        );
        for (to, tp) in oracle.program().tables().iter().zip(pipe.program().tables()) {
            assert_eq!(to.misses(), tp.misses(), "{name}: table miss counts diverged");
            for (eo, ep) in to.entries().iter().zip(tp.entries()) {
                assert_eq!(eo.hits, ep.hits, "{name}: table entry hit counts diverged");
            }
        }
    }
}

proptest! {
    #[test]
    fn burst_execution_equals_scalar(
        (slots_sel, owner, resubmit, drop_sel, burst) in
            (0u32..3, any::<bool>(), 0u8..3, 0u64..8, 1usize..65),
        ops in proptest::collection::vec(0u16..4096, 1..6),
        packets in proptest::collection::vec((0u32..12, 0u16..3, 0u8..2), 1..80),
    ) {
        let shape = Shape {
            slots: 4usize << slots_sel,
            owner,
            resubmit,
            // drop_sel 4..8 = no drop table; 0..4 = drop that flow slot.
            drop_slot: (drop_sel < 4).then_some(drop_sel),
            ops,
        };
        assert_equivalent(&shape, burst, &packets);
    }
}

/// Deterministic digest-order check: a resubmit-heavy multi-flow wave
/// must flush its digests **in arrival order**, packet by packet — not
/// grouped by plan slot or pass — bit-identical to the oracle's stream.
#[test]
fn wave_digests_flush_in_arrival_order() {
    const SLOTS: usize = 16;
    let shape = Shape { slots: SLOTS, owner: true, resubmit: 1, drop_slot: None, ops: vec![0, 1] };
    let (p, fields) = build(&shape);
    let mut oracle = Pipeline::new(p.clone());
    let mut wave = Pipeline::new(p);
    wave.set_burst(8, SLOTS);
    let mut stats = WaveStats::default();
    // Nine distinct flows, all digest-emitting, interleaved twice.
    let packets: Vec<_> = (0..18u32).map(|i| (i % 9, 1u16, 0u8)).collect();
    let mut arrival_idx = Vec::new();
    for (i, &(flow, pay, dsel)) in packets.iter().enumerate() {
        let frame = PacketBuilder::tcp(
            0x0a00_0000 + flow,
            0x0b00_0000 + flow * 3,
            1000 + flow as u16,
            2 + dsel as u16,
        )
        .payload(pay * 37)
        .build();
        let out = oracle.process_packet_entrywalk(&frame, i as u64, &fields).unwrap();
        assert_eq!(out.disposition, Disposition::Forward);
        wave.wave_push(&frame, i as u64, &fields, &mut stats).unwrap();
        arrival_idx.push(oracle.take_digests());
    }
    wave.wave_flush(&fields, &mut stats);
    // The oracle's digests, re-concatenated in arrival order, are the spec.
    let expect: Vec<_> = arrival_idx.into_iter().flatten().collect();
    let got = wave.take_digests();
    assert_eq!(got, expect, "wave digest stream must equal the arrival-order oracle stream");
    // Both count-table passes emit per packet per pass (first + resubmit).
    assert_eq!(got.len(), packets.len() * 2 * 2);
}
