//! Property-based tests over the reproduction's core invariants.

use proptest::prelude::*;
use splidt::dataplane::action::{Action, AluOp, AluOut, OwnerMode, Primitive, Source};
use splidt::dataplane::phv::FieldId;
use splidt::dataplane::pipeline::Pipeline;
use splidt::dataplane::program::{Program, ProgramBuilder};
use splidt::dataplane::register::{RegId, RegisterSpec};
use splidt::dataplane::table::TableSpec;
use splidt::dataplane::tcam::Ternary;
use splidt::dt::{train_classifier, Dataset, TrainParams};
use splidt::flow::window_bounds;
use splidt::ranging::{generate_rules, range_to_prefixes, ThermometerEncoder};

/// Builds a random small pipeline program: 1–3 stages, 1–3 tables per
/// stage (exact, ternary or range) with 0–4 entries, one register per
/// stage and, for about half the tables, one of their own, and entries
/// whose actions draw from the full primitive set (arithmetic, register
/// RMW, digest, resubmit, drop). Half the key fields are the 1-bit
/// `f3`–`f5`, which actions also write, so runs of adjacent tables fuse
/// into plan steps or are cut by a write to a later key or the gate.
/// About half the tables, mostly in runs, are gated on `f3`. About half
/// the tables draw some entry values and patterns wide, up to 2^12, past
/// the direct-index budget, so the ternary index runs too, over exact and
/// range entries as well as ternary ones. Half the stages end in a run of
/// 2–4 wide tables on one key (`shared_key_table`), so the plan forms
/// shared-key steps. Returns the program and its metadata fields.
fn random_program(rng: &mut rand::rngs::SmallRng) -> (Program, Vec<FieldId>) {
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

    // An action writing no field of `keep`.
    let random_action = |rng: &mut rand::rngs::SmallRng, reg: RegId, keep: &[FieldId]| -> Action {
        let mut a = Action::new("a");
        for _ in 0..rng.random_range(0usize..4) {
            let mut dst = fields[rng.random_range(0usize..fields.len())];
            while keep.contains(&dst) {
                dst = fields[rng.random_range(0usize..fields.len())];
            }
            let src = |rng: &mut rand::rngs::SmallRng| {
                if rng.random::<bool>() {
                    // Half the constants are drawn up to 2^20, past every
                    // field width (1, 8 and 16 bits), so a write that
                    // skips its mask shows.
                    let top = if rng.random::<bool>() { 64 } else { 1 << 20 };
                    Source::Const(rng.random_range(0u64..top))
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

    // A value below `small`, or — in a wide table, half the time — below
    // 2^12.
    let value = |rng: &mut rand::rngs::SmallRng, wide: bool, small: u64| {
        let top = if wide && rng.random::<bool>() { 1 << 12 } else { small };
        rng.random_range(0u64..top)
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
            let wide = rng.random::<bool>();
            let tid = match rng.random_range(0u8..3) {
                0 => {
                    let tid = b.add_table(
                        TableSpec::exact(format!("e{stage}_{t}"), key.clone(), 8),
                        stage,
                    );
                    for _ in 0..n_entries {
                        let vals: Vec<u64> =
                            key.iter()
                                .map(|&f| {
                                    if flag(f) {
                                        rng.random_range(0..2)
                                    } else {
                                        value(rng, wide, 4)
                                    }
                                })
                                .collect();
                        let action = random_action(rng, reg, &[]);
                        // Duplicate exact keys are now rejected at install
                        // (the shadowing bugfix); the generator just skips
                        // the colliding draw, as a controller would.
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
                                } else if wide {
                                    Ternary::exact(value(rng, wide, 4), 12)
                                } else {
                                    Ternary::exact(rng.random_range(0u64..4), 8)
                                }
                            })
                            .collect();
                        let prio = rng.random_range(0u32..10);
                        let action = random_action(rng, reg, &[]);
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
                                let lo = value(rng, wide, 6);
                                (lo, lo + rng.random_range(0u64..4))
                            })
                            .collect();
                        let prio = rng.random_range(0u32..10);
                        let action = random_action(rng, reg, &[]);
                        b.add_range_entry(tid, ranges, prio, action).unwrap();
                    }
                    tid
                }
            };
            if rng.random::<bool>() {
                let d = random_action(rng, reg, &[]);
                b.set_default(tid, d);
            }
            // One table in three opens a gated run; two in three extend one.
            gated = rng.random_range(0u8..3) < if gated { 2 } else { 1 };
            if gated {
                b.gate_table(tid, fields[3]);
            }
        }
        // Half the stages end in a run of 2–4 wide tables on one key, so
        // their ternary indexes share one probe, or are cut apart by a
        // gate change, a write to the key or a shared register.
        if rng.random::<bool>() {
            let mut key = vec![fields[rng.random_range(1usize..3)]];
            if rng.random::<bool>() {
                key.push(key_field(rng));
            }
            let run_gated = rng.random::<bool>();
            // Three runs in four write no key field, so only a gate flip
            // or a shared register cuts them.
            let keep = if rng.random_range(0u8..4) == 0 { Vec::new() } else { key.clone() };
            for t in 0..rng.random_range(2usize..5) {
                let reg = if rng.random::<bool>() {
                    stage_reg
                } else {
                    b.add_register(RegisterSpec::new(format!("own{stage}_s{t}"), 16, 16), stage)
                };
                let name = format!("s{stage}_{t}");
                let tid = shared_key_table(&mut b, rng, (&name, stage), &key, &flag, |rng| {
                    random_action(rng, reg, &keep)
                });
                if rng.random::<bool>() {
                    let d = random_action(rng, reg, &keep);
                    b.set_default(tid, d);
                }
                // One member in eight flips the run's gate.
                if run_gated != (rng.random_range(0u8..8) == 0) {
                    b.gate_table(tid, fields[3]);
                }
            }
        }
    }
    (b.build().unwrap(), fields)
}

/// A stage-`stage` table on `key` whose first field is 16 bits wide, with 5–8 entries
/// (too many to fuse one bit per entry) of which the first cares about
/// 12 bits of that field (too many for a direct index), so its match
/// index is ternary: mostly ternary entries, some exact or range ones,
/// priorities from a few values (ties), each running `action`.
fn shared_key_table(
    b: &mut ProgramBuilder,
    rng: &mut rand::rngs::SmallRng,
    (name, stage): (&str, usize),
    key: &[FieldId],
    flag: &impl Fn(FieldId) -> bool,
    mut action: impl FnMut(&mut rand::rngs::SmallRng) -> Action,
) -> splidt::dataplane::table::TableId {
    use rand::Rng;
    let n_entries = rng.random_range(5usize..9);
    let value = |rng: &mut rand::rngs::SmallRng, f: FieldId| {
        if flag(f) {
            rng.random_range(0..2)
        } else {
            rng.random_range(0u64..1 << 12)
        }
    };
    match rng.random_range(0u8..6) {
        0 => {
            let tid = b.add_table(TableSpec::exact(name, key.to_vec(), 8), stage);
            let mut first = vec![0x800 | rng.random_range(0u64..1 << 11)];
            first.extend(key[1..].iter().map(|&f| value(rng, f)));
            let _ = b.add_exact_entry(tid, first, action(rng));
            for _ in 1..n_entries {
                let vals = key.iter().map(|&f| value(rng, f)).collect();
                let _ = b.add_exact_entry(tid, vals, action(rng));
            }
            tid
        }
        1 => {
            let tid = b.add_table(TableSpec::range(name, key.to_vec(), 8), stage);
            for e in 0..n_entries {
                let ranges = key
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| {
                        let lo = if i == 0 && e == 0 { 0x800 } else { value(rng, f) };
                        (lo, lo + rng.random_range(0u64..if flag(f) { 2 } else { 300 }))
                    })
                    .collect();
                let action = action(rng);
                b.add_range_entry(tid, ranges, rng.random_range(0u32..3), action).unwrap();
            }
            tid
        }
        _ => {
            let tid = b.add_table(TableSpec::ternary(name, key.to_vec(), 8), stage);
            for e in 0..n_entries {
                let pats = key
                    .iter()
                    .enumerate()
                    .map(|(i, &f)| match rng.random_range(0u8..4) {
                        _ if i == 0 && e == 0 => Ternary::exact(value(rng, f) | 0x800, 12),
                        0 => Ternary::ANY,
                        1 if !flag(f) => Ternary::new(
                            rng.random_range(0u64..1 << 12),
                            rng.random_range(0..1 << 12),
                        ),
                        _ => Ternary::exact(value(rng, f), if flag(f) { 1 } else { 12 }),
                    })
                    .collect();
                let action = action(rng);
                b.add_ternary_entry(tid, pats, rng.random_range(0u32..3), action).unwrap();
            }
            tid
        }
    }
}

/// A ternary table shaped like the compiler's keygen / slot / model
/// MATs, and probe keys for it. Field 0 is the subtree id: exact over
/// 3–12 values with one busy subtree (past ~150 rules its group outgrows
/// one 64-bit word), wildcard on a few rules. Field 1 takes
/// `range_to_prefixes` covers of overlapping value ranges, told apart by
/// priority (ties included). Field 2 is, per table, wildcard throughout
/// (the keygen shape), flag bits under one shared mask (decided by the
/// index without verification), or range marks under differing masks
/// (verified). Probes carry subtree ids no rule names, range edges, and
/// bits above every pattern's top care bit.
fn compiler_shaped_ternary(
    rng: &mut rand::rngs::SmallRng,
) -> (splidt::dataplane::table::Table, Vec<Vec<u64>>) {
    use rand::Rng;
    use splidt::dataplane::table::{EntryKey, Table};
    const VALUE_BITS: u8 = 12;
    let mut layout = splidt::dataplane::PhvLayout::new();
    let key = vec![
        layout.add_field("sid", 8),
        layout.add_field("fval", 16),
        layout.add_field("guard", 8),
    ];
    let target = rng.random_range(1usize..300);
    let mut table = Table::new(TableSpec::ternary("t", key, target + 64));
    let n_sids = rng.random_range(3u64..13);
    let guard_style = rng.random_range(0u8..3);
    let mut edges = vec![0u64];
    while table.n_entries() < target {
        let sid = match rng.random_range(0u8..8) {
            0 => Ternary::ANY,
            1..=3 => Ternary::exact(0, 8),
            _ => Ternary::exact(rng.random_range(0..n_sids), 8),
        };
        let lo = rng.random_range(0u64..1 << VALUE_BITS);
        let hi = (lo + rng.random_range(0u64..600)).min((1 << VALUE_BITS) - 1);
        edges.extend([lo, hi, hi + 1]);
        let guard = match (guard_style, rng.random_range(0u8..4)) {
            (0, _) | (_, 0) => Ternary::ANY,
            (1, _) => Ternary::new(rng.random_range(0u64..4), 0x3),
            (_, 1) => Ternary::new(rng.random_range(0u64..256), rng.random_range(1u64..256)),
            _ => Ternary::new(rng.random_range(0u64..16), 0xC | rng.random_range(0u64..4)),
        };
        let priority = rng.random_range(0u32..5);
        for p in range_to_prefixes(lo, hi, VALUE_BITS) {
            let fields = vec![sid, Ternary::new(p.value, p.mask), guard];
            table.install(EntryKey::Ternary { fields, priority }, Action::new("e")).expect("room");
        }
    }
    let probes = (0..200)
        .map(|_| {
            let edge = edges[rng.random_range(0..edges.len())];
            vec![
                rng.random_range(0..n_sids + 3) | rng.random_range(0u64..2) << 8,
                (edge + rng.random_range(0u64..2)) | rng.random_range(0u64..4) << VALUE_BITS,
                rng.random_range(0u64..256) | rng.random_range(0u64..2) << 9,
            ]
        })
        .collect();
    (table, probes)
}

proptest! {
    /// Prefix covers are exact and disjoint for arbitrary ranges.
    #[test]
    fn prefix_cover_exact(lo in 0u64..4096, span in 0u64..4096, probe in 0u64..65536) {
        let hi = (lo + span).min(65535);
        let prefixes = range_to_prefixes(lo, hi, 16);
        let hits = prefixes.iter().filter(|p| p.matches(probe)).count();
        let inside = probe >= lo && probe <= hi;
        prop_assert_eq!(hits, usize::from(inside));
    }

    /// Thermometer marks are monotone in the value and agree with the
    /// elementary-range table.
    #[test]
    fn thermometer_monotone(mut ts in proptest::collection::vec(0u64..1000, 1..12), v in 0u64..1024) {
        ts.sort_unstable();
        let enc = ThermometerEncoder::new(ts, 16);
        let m1 = enc.mark_of(v);
        let m2 = enc.mark_of(v + 1);
        prop_assert!(m2 >= m1, "marks must be monotone");
        let range = enc
            .elementary_ranges()
            .into_iter()
            .find(|r| r.lo <= v && v <= r.hi)
            .expect("ranges cover domain");
        prop_assert_eq!(range.mark, m1);
    }

    /// Range-Marking rules reproduce the tree exactly on random integer
    /// datasets (the TCAM encoding is lossless).
    #[test]
    fn rules_equal_tree(seed in 0u64..500) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 120;
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let r: Vec<f32> = (0..4).map(|_| rng.random_range(0..5000) as f32).collect();
            let y = (u16::from(r[0] > 2000.0) + 2 * u16::from(r[1] > 900.0)) % 3;
            rows.push(r);
            labels.push(y);
        }
        let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
        let tree = train_classifier(&ds, &TrainParams { max_depth: 5, ..Default::default() });
        let rules = generate_rules(&tree, 24);
        for _ in 0..50 {
            let probe: Vec<f32> = (0..4).map(|_| rng.random_range(0..(1 << 20)) as f32).collect();
            prop_assert_eq!(rules.classify(&probe), Some(tree.predict(&probe)));
        }
    }

    /// Plan-driven execution is observationally identical to the
    /// entry-walking reference interpreter: for random small programs and
    /// random packet sequences, both produce the same dispositions, pass
    /// counts, final PHVs, digests, meters, register contents, and table
    /// hit/miss statistics, gated-off slots included.
    #[test]
    fn plan_execution_equals_entrywalk(seed in 0u64..400) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let (program, fields) = random_program(&mut rng);
        let mut plan_pipe = Pipeline::new(program.clone());
        let mut walk_pipe = Pipeline::new(program);
        for n in 0..rng.random_range(4usize..14) {
            let layout = plan_pipe.program().layout();
            let mut phv = layout.new_phv();
            for &f in &fields {
                phv.set_masked(f, rng.random_range(0u64..6), layout);
            }
            let ts = n as u64 * 10;
            let a = plan_pipe.process_phv(phv.clone(), ts);
            let b = walk_pipe.process_phv_entrywalk(phv, ts);
            prop_assert_eq!(a.disposition, b.disposition, "seed {} packet {}", seed, n);
            prop_assert_eq!(a.passes, b.passes, "seed {} packet {}", seed, n);
            prop_assert_eq!(a.phv, b.phv, "seed {} packet {}", seed, n);
        }
        prop_assert_eq!(plan_pipe.meters(), walk_pipe.meters());
        prop_assert_eq!(plan_pipe.digests(), walk_pipe.digests());
        prop_assert_eq!(
            format!("{:?}", plan_pipe.registers()),
            format!("{:?}", walk_pipe.registers())
        );
        // table statistics (hits per entry, misses per table)
        prop_assert_eq!(
            format!("{:?}", plan_pipe.program().tables()),
            format!("{:?}", walk_pipe.program().tables())
        );
    }

    /// The compiled match index resolves every lookup exactly as the
    /// linear reference scan does — over random table contents (all three
    /// match kinds, 0..90 entries), random priorities **including ties**
    /// (lowest install index must win), wildcards, overlapping and
    /// degenerate ranges, random key streams, and (a fourth arm) the
    /// table shape the compiler emits, which the ternary index
    /// specialises on: see `compiler_shaped_ternary`. About half the
    /// random tables are narrow — values, care masks and range bounds of
    /// at most 4 bits per field — so one- and two-field ones take the
    /// direct index. The wide ones take the ternary index whatever their
    /// kind: exact entries as full-mask rules, range entries as their
    /// prefix covers. Probes carry bits above both the table's domain and
    /// the 16-bit field width.
    #[test]
    fn indexed_lookup_equals_linear(seed in 0u64..600) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use splidt::dataplane::index::MatchIndex;
        use splidt::dataplane::table::{EntryKey, Table};

        let mut rng = SmallRng::seed_from_u64(seed);
        let n_fields = rng.random_range(1usize..4);
        let mut layout = splidt::dataplane::PhvLayout::new();
        let key: Vec<_> =
            (0..n_fields).map(|i| layout.add_field(format!("k{i}"), 16)).collect();
        let n_entries = rng.random_range(0usize..90);
        let kind = rng.random_range(0u8..4);
        let narrow = rng.random::<bool>();
        // Narrow draws stay below 2^4, the others below `wide`.
        let draw = |rng: &mut SmallRng, wide: u64| rng.random_range(0..if narrow { 16 } else { wide });
        let (table, probes) = if kind == 3 {
            compiler_shaped_ternary(&mut rng)
        } else {
            let spec = match kind {
                0 => TableSpec::exact("t", key, n_entries + 1),
                1 => TableSpec::ternary("t", key, n_entries + 1),
                _ => TableSpec::range("t", key, n_entries + 1),
            };
            let mut table = Table::new(spec);
            for _ in 0..n_entries {
                // Few distinct priorities → plenty of ties.
                let priority = rng.random_range(0u32..4);
                let entry = match kind {
                    0 => EntryKey::Exact((0..n_fields).map(|_| draw(&mut rng, 32)).collect()),
                    1 => EntryKey::Ternary {
                        fields: (0..n_fields)
                            .map(|_| match rng.random_range(0u8..3) {
                                0 => Ternary::ANY,
                                1 => Ternary::exact(draw(&mut rng, 32), if narrow { 4 } else { 16 }),
                                _ => Ternary::new(draw(&mut rng, 65536), draw(&mut rng, 65536)),
                            })
                            .collect(),
                        priority,
                    },
                    _ => EntryKey::Range {
                        fields: (0..n_fields)
                            .map(|_| {
                                // Degenerate single-point ranges included.
                                if narrow {
                                    let lo = rng.random_range(0u64..16);
                                    (lo, rng.random_range(lo..16))
                                } else {
                                    let lo = rng.random_range(0u64..40);
                                    (lo, lo + rng.random_range(0u64..12))
                                }
                            })
                            .collect(),
                        priority,
                    },
                };
                // Exact duplicates are rejected by install — skip those draws.
                let _ = table.install(entry, Action::new("e"));
            }
            // Mix uniform probes with probes snapped near installed
            // values so hits are common; some carry a bit past the field
            // width.
            let probes = (0..60)
                .map(|_| {
                    (0..n_fields)
                        .map(|_| {
                            let v = match rng.random_range(0u8..3) {
                                0 => rng.random_range(0u64..64),
                                1 => rng.random_range(0u64..65536),
                                _ => draw(&mut rng, 64),
                            };
                            v | u64::from(rng.random_range(0u8..8) == 0) << 16
                        })
                        .collect()
                })
                .collect();
            (table, probes)
        };
        let index = MatchIndex::build(&table);
        if narrow && kind != 3 && n_fields <= 2 {
            prop_assert!(matches!(index, MatchIndex::Direct(_)), "seed {} kind {}", seed, kind);
        }
        let mut scratch = Vec::new();
        for probe in probes {
            prop_assert_eq!(
                index.lookup(&probe, &mut scratch),
                table.lookup_linear_key(&probe),
                "seed {} kind {} probe {:?}",
                seed,
                kind,
                probe
            );
        }
    }

    /// One shared ternary index over 2–8 tables on one key finds, for
    /// every member, the entry that table's own linear scan does: over
    /// exact, ternary and range members, tied priorities (the lowest
    /// install index must win), a subtree-id-like first field that the
    /// index pivots on, patterns it must verify, and probes with bits
    /// above the 16-bit field width.
    #[test]
    fn shared_lookup_equals_linear(seed in 0u64..600) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use splidt::dataplane::index::TernaryIndex;
        use splidt::dataplane::table::{EntryKey, Table};

        let mut rng = SmallRng::seed_from_u64(seed);
        let n_fields = rng.random_range(1usize..4);
        let mut layout = splidt::dataplane::PhvLayout::new();
        let key: Vec<_> =
            (0..n_fields).map(|i| layout.add_field(format!("k{i}"), 16)).collect();
        // Field 0 mostly names one of a few subtree ids.
        let sid = |rng: &mut SmallRng| rng.random_range(0u64..4);
        let value = |rng: &mut SmallRng, i: usize| {
            if i == 0 && rng.random_range(0u8..4) != 0 { sid(rng) } else { rng.random_range(0u64..1 << 12) }
        };
        let tables: Vec<Table> = (0..rng.random_range(2usize..9))
            .map(|_| {
                let n_entries = rng.random_range(0usize..40);
                let kind = rng.random_range(0u8..4);
                let spec = match kind {
                    0 => TableSpec::exact("e", key.clone(), n_entries + 1),
                    1 => TableSpec::range("r", key.clone(), n_entries + 1),
                    _ => TableSpec::ternary("t", key.clone(), n_entries + 1),
                };
                let mut table = Table::new(spec);
                for _ in 0..n_entries {
                    let priority = rng.random_range(0u32..3);
                    let entry = match kind {
                        0 => EntryKey::Exact((0..n_fields).map(|i| value(&mut rng, i)).collect()),
                        1 => EntryKey::Range {
                            fields: (0..n_fields)
                                .map(|i| {
                                    let lo = value(&mut rng, i);
                                    (lo, lo + rng.random_range(0u64..if i == 0 { 2 } else { 400 }))
                                })
                                .collect(),
                            priority,
                        },
                        _ => EntryKey::Ternary {
                            fields: (0..n_fields)
                                .map(|i| match rng.random_range(0u8..4) {
                                    0 => Ternary::ANY,
                                    1 => Ternary::new(
                                        rng.random_range(0u64..1 << 12),
                                        rng.random_range(0u64..1 << 12),
                                    ),
                                    _ => Ternary::exact(value(&mut rng, i), 12),
                                })
                                .collect(),
                            priority,
                        },
                    };
                    // Exact duplicates are rejected by install — skip those draws.
                    let _ = table.install(entry, Action::new("e"));
                }
                table
            })
            .collect();
        let members: Vec<&Table> = tables.iter().collect();
        let index = TernaryIndex::build(&members);
        let mut won = vec![0u32; tables.len()];
        for _ in 0..80 {
            let probe: Vec<u64> = (0..n_fields)
                .map(|i| {
                    let v = match rng.random_range(0u8..3) {
                        0 => value(&mut rng, i),
                        1 => rng.random_range(0u64..65536),
                        _ => value(&mut rng, i) + rng.random_range(0u64..3),
                    };
                    v | u64::from(rng.random_range(0u8..8) == 0) << 16
                })
                .collect();
            index.lookup_each(&probe, &mut won);
            for (j, table) in tables.iter().enumerate() {
                let want = table.lookup_linear_key(&probe).map_or(u32::MAX, |e| e as u32);
                prop_assert_eq!(won[j], want, "seed {} member {} probe {:?}", seed, j, probe);
            }
        }
    }

    /// Window bounds partition every flow for every partition count.
    #[test]
    fn windows_partition(n in 1usize..600, p in 1usize..8) {
        let w = window_bounds(n, p);
        prop_assert_eq!(w[0].0, 0);
        prop_assert_eq!(w.last().unwrap().1, n);
        for pair in w.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].0);
        }
        prop_assert!(w.len() <= p);
    }

    /// The distinct-feature budget holds for arbitrary budgets and depths.
    #[test]
    fn feature_budget_respected(seed in 0u64..200, k in 1usize..5, depth in 1usize..7) {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..150 {
            let r: Vec<f32> = (0..8).map(|_| rng.random_range(0..100) as f32).collect();
            let y = ((r[0] as u16 / 25) + (r[3] as u16 / 30)) % 4;
            rows.push(r);
            labels.push(y);
        }
        let ds = Dataset::from_rows(&rows, &labels, None).unwrap();
        let tree = train_classifier(
            &ds,
            &TrainParams { max_depth: depth, feature_budget: Some(k), ..Default::default() },
        );
        prop_assert!(tree.features_used().len() <= k);
        prop_assert!(tree.depth() <= depth);
    }
}
