//! Property: for *every* random pipeline program, the emitter either
//! produces P4 that passes the structural validator (and a manifest
//! whose table count matches the program) or fails with a typed
//! [`EmitError`] — never a panic, never malformed output.
//!
//! The generator is the same shape as the workspace-level pipeline
//! proptest (`tests/proptest_invariants.rs`): 1–3 stages, 1–3 tables
//! per stage across all three match kinds with 0–4 entries, one 16-bit
//! register per stage plus one of their own for about half the tables,
//! actions drawn from the full primitive set, half the key fields 1-bit
//! flags, about half the tables, mostly in runs, gated on a 1-bit field
//! (emitted as `if` gateways). Because the random registers are 16-bit, any draw that includes `OwnerUpdate`
//! must surface as [`EmitError::OwnerLaneWidth`] — the typed-error
//! path — while draws without it must emit cleanly.

use proptest::prelude::*;
use splidt_dataplane::action::{Action, AluOp, AluOut, OwnerMode, Primitive, Source};
use splidt_dataplane::phv::FieldId;
use splidt_dataplane::program::{Program, ProgramBuilder};
use splidt_dataplane::register::{RegId, RegisterSpec};
use splidt_dataplane::table::TableSpec;
use splidt_dataplane::tcam::Ternary;
use splidt_p4::validate::validate;
use splidt_p4::{emit, EmitError, EmitOptions};

/// Builds a random small pipeline program (see module docs).
fn random_program(rng: &mut rand::rngs::SmallRng) -> Program {
    use rand::Rng;
    let mut b = ProgramBuilder::new();
    // The 1-bit `f3` is the gate field: actions write it, keys read it,
    // and about half the tables, mostly in runs, apply only when it is 1. `f4` and `f5` are 1-bit flags that keys read and actions
    // write, so adjacent small tables fuse into one plan step or are
    // kept apart by a write to a later key.
    let widths = [8u8, 16, 16, 1, 1, 1];
    let fields: Vec<FieldId> =
        widths.iter().enumerate().map(|(i, &w)| b.add_meta(format!("f{i}"), w)).collect();
    b.set_digest_fields(vec![fields[0], fields[1]]);
    b.set_resubmit_limit(3);
    let n_stages = rng.random_range(1usize..4);
    let regs: Vec<_> = (0..n_stages)
        .map(|s| b.add_register(RegisterSpec::new(format!("r{s}"), 16, 16), s))
        .collect();

    let random_action = |rng: &mut rand::rngs::SmallRng, reg: RegId| -> Action {
        let mut a = Action::new("a");
        for _ in 0..rng.random_range(0usize..4) {
            let dst = fields[rng.random_range(0usize..fields.len())];
            let src = |rng: &mut rand::rngs::SmallRng| {
                if rng.random::<bool>() {
                    Source::Const(rng.random_range(0u64..64))
                } else {
                    Source::Field(fields[rng.random_range(0usize..fields.len())])
                }
            };
            let p = match rng.random_range(0u8..11) {
                0 => Primitive::Set { dst, src: src(rng) },
                1 => Primitive::Add { dst, a: src(rng), b: src(rng) },
                2 => Primitive::Sub { dst, a: src(rng), b: src(rng) },
                3 => Primitive::Min { dst, a: src(rng), b: src(rng) },
                4 => Primitive::Max { dst, a: src(rng), b: src(rng) },
                5 => Primitive::DivConst { dst, a: src(rng), divisor: rng.random_range(1u64..8) },
                6 | 7 => Primitive::RegRmw {
                    reg,
                    index: Source::Const(rng.random_range(0u64..16)),
                    op: [AluOp::Add, AluOp::Write, AluOp::Max, AluOp::Read]
                        [rng.random_range(0usize..4)],
                    operand: src(rng),
                    out: if rng.random::<bool>() {
                        Some((dst, if rng.random::<bool>() { AluOut::Old } else { AluOut::New }))
                    } else {
                        None
                    },
                },
                8 => Primitive::Digest,
                10 => {
                    let idle = rng.random_range(0u64..32);
                    Primitive::OwnerUpdate {
                        reg,
                        index: Source::Const(rng.random_range(0u64..16)),
                        fp: src(rng),
                        now: src(rng),
                        idle_timeout_us: idle,
                        pinned_timeout_us: idle + rng.random_range(0u64..32),
                        mode: if rng.random::<bool>() {
                            OwnerMode::Probe
                        } else {
                            OwnerMode::Decide
                        },
                        claim: rng.random::<bool>(),
                        release: rng.random::<bool>(),
                        pin: rng.random::<bool>(),
                        class: src(rng),
                        state_out: dst,
                    }
                }
                _ => {
                    if rng.random_range(0u8..4) == 0 {
                        Primitive::Drop
                    } else {
                        Primitive::Resubmit
                    }
                }
            };
            a = a.with(p);
        }
        a
    };

    // Half the key fields are the 1-bit ones.
    let key_field = |rng: &mut rand::rngs::SmallRng| {
        let from = if rng.random::<bool>() { 3 } else { 0 };
        fields[rng.random_range(from..fields.len())]
    };
    let flag = |f: FieldId| fields[3..].contains(&f);
    let mut gated = false;
    for (stage, &stage_reg) in regs.iter().enumerate() {
        for t in 0..rng.random_range(1usize..4) {
            let key: Vec<FieldId> =
                (0..rng.random_range(1usize..3)).map(|_| key_field(rng)).collect();
            let n_entries = rng.random_range(0usize..5);
            // The stage's register, or half the time one of the table's own.
            let reg = if rng.random::<bool>() {
                stage_reg
            } else {
                b.add_register(RegisterSpec::new(format!("own{stage}_{t}"), 16, 16), stage)
            };
            let tid = match rng.random_range(0u8..3) {
                0 => {
                    let tid = b.add_table(
                        TableSpec::exact(format!("e{stage}_{t}"), key.clone(), 8),
                        stage,
                    );
                    for _ in 0..n_entries {
                        let vals: Vec<u64> = key
                            .iter()
                            .map(|&f| rng.random_range(0u64..if flag(f) { 2 } else { 4 }))
                            .collect();
                        let action = random_action(rng, reg);
                        let _ = b.add_exact_entry(tid, vals, action);
                    }
                    tid
                }
                1 => {
                    let tid = b.add_table(
                        TableSpec::ternary(format!("t{stage}_{t}"), key.clone(), 8),
                        stage,
                    );
                    for _ in 0..n_entries {
                        let pats: Vec<Ternary> = key
                            .iter()
                            .map(|&f| {
                                if rng.random::<bool>() {
                                    Ternary::ANY
                                } else if flag(f) {
                                    Ternary::exact(rng.random_range(0..2), 1)
                                } else {
                                    Ternary::exact(rng.random_range(0u64..4), 8)
                                }
                            })
                            .collect();
                        let prio = rng.random_range(0u32..10);
                        let action = random_action(rng, reg);
                        b.add_ternary_entry(tid, pats, prio, action).unwrap();
                    }
                    tid
                }
                _ => {
                    let tid = b.add_table(
                        TableSpec::range(format!("r{stage}_{t}"), key.clone(), 8),
                        stage,
                    );
                    for _ in 0..n_entries {
                        let ranges: Vec<(u64, u64)> = key
                            .iter()
                            .map(|_| {
                                let lo = rng.random_range(0u64..6);
                                (lo, lo + rng.random_range(0u64..4))
                            })
                            .collect();
                        let prio = rng.random_range(0u32..10);
                        let action = random_action(rng, reg);
                        b.add_range_entry(tid, ranges, prio, action).unwrap();
                    }
                    tid
                }
            };
            if rng.random::<bool>() {
                let d = random_action(rng, reg);
                b.set_default(tid, d);
            }
            // One table in three opens a gated run; two in three extend one.
            gated = rng.random_range(0u8..3) < if gated { 2 } else { 1 };
            if gated {
                b.gate_table(tid, fields[3]);
            }
        }
    }
    b.build().unwrap()
}

fn uses_owner_update(program: &Program) -> bool {
    let any_owner = |a: &Action| a.prims.iter().any(|p| matches!(p, Primitive::OwnerUpdate { .. }));
    program
        .tables()
        .iter()
        .any(|t| t.entries().iter().any(|e| any_owner(&e.action)) || any_owner(t.default_action()))
}

proptest! {
    /// Every random program emits shape-valid P4 or a typed error.
    #[test]
    fn emit_is_valid_or_typed_error(seed in 0u64..256) {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed);
        let program = random_program(&mut rng);
        let opts = EmitOptions::adhoc("prop");
        match emit(&program, &opts) {
            Ok(out) => {
                prop_assert!(!uses_owner_update(&program),
                    "OwnerUpdate on a 16-bit register must be refused");
                let shape = validate(&out.p4);
                prop_assert!(shape.is_ok(), "seed {}: invalid P4: {:?}", seed, shape);
                prop_assert_eq!(out.manifest.tables.len(), program.tables().len());
                prop_assert_eq!(out.manifest.registers.len(), program.registers().len());
                prop_assert_eq!(
                    out.manifest.n_entries(),
                    program.tables().iter().map(|t| t.n_entries()).sum::<usize>()
                );
                // Manifests are valid, deterministic JSON.
                let json = out.manifest.to_json();
                prop_assert!(json.ends_with('\n'));
                prop_assert_eq!(json.matches('{').count(), json.matches('}').count());
            }
            Err(e) => {
                // The only typed failure this generator can trigger is the
                // owner-lane width check (its registers are all 16-bit).
                prop_assert!(matches!(e, EmitError::OwnerLaneWidth { width_bits: 16, .. }),
                    "unexpected error for seed {}: {}", seed, e);
                prop_assert!(uses_owner_update(&program));
            }
        }
    }
}
