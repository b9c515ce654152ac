//! # splidt-p4 — Tofino-style P4-16 backend for the compiled pipeline
//!
//! The rest of the workspace *simulates* the RMT pipeline; this crate
//! emits the program a real switch would run. [`emit()`] lowers a
//! [`Program`](splidt_dataplane::program::Program) (plus its
//! [`ExecPlan`](splidt_dataplane::plan::ExecPlan)) to:
//!
//! 1. **P4-16 source** in the TNA dialect: headers and parser for the
//!    `peek_flow_tuple` wire format, `@stage`-annotated `Register`
//!    externs, `RegisterAction` SALU programs for every stateful
//!    primitive, `table`/`action` declarations, and digest/resubmit
//!    deparser wiring.
//! 2. A **control-plane install manifest**
//!    ([`Manifest`]): deterministic JSON listing
//!    every table, its key encoding, and every entry to install — the
//!    input a bf-runtime-style loader would replay at switch boot.
//!
//! The backend cross-checks itself against the analytic resource model:
//! [`recount`] re-derives stage count, per-stage SALU usage, and
//! register bits *from the generated P4 text* and
//! [`recount::cross_check`] asserts them equal to the
//! [`ResourceExpectation`](splidt_core::lower::ResourceExpectation)
//! computed by `splidt_core::lower` from
//! `ModelFootprint`/`BankPhysical`. Any drift between what the emitter
//! writes and what the resource model claims is a test failure, not a
//! silent skew.
//!
//! [`validate`] provides a structural checker (every declared table
//! applied exactly once, SALUs reference declared registers, balanced
//! braces, all pipeline sections present) used by the property-based
//! suite: every randomly generated program either emits P4 that passes
//! the checker or fails with a typed [`EmitError`].
//!
//! [`fixtures`] builds the three golden programs committed under
//! `crates/p4/golden/` (default engine, TCP lifecycle policy, chained
//! multi-partition model); the golden tests compare byte-for-byte and
//! `SPLIDT_P4_BLESS=1` regenerates.
//!
//! ```
//! use splidt_core::engine::Trainable;
//! use splidt_core::{compile, PartitionedTree, SplidtConfig};
//! use splidt_flow::{generate, DatasetId};
//!
//! let flows = generate(DatasetId::D2, 120, 21);
//! let cfg = SplidtConfig { partitions: vec![2, 2], k: 4, ..Default::default() };
//! let model = PartitionedTree::fit(&flows, 4, &cfg).unwrap();
//! let compiled = compile(&model, 1 << 10).unwrap();
//!
//! let lowering = splidt_core::lower(&model, &compiled);
//! let out = splidt_p4::emit_lowering(&lowering, "demo", "doctest", 0).unwrap();
//! assert!(out.p4.starts_with("/* demo"));
//!
//! // The emitted text must agree with the analytic resource model.
//! let recount = splidt_p4::recount::recount(&out.p4).unwrap();
//! splidt_p4::recount::cross_check(&recount, &lowering.expectation().unwrap()).unwrap();
//! ```

#![deny(unsafe_code)]

pub mod emit;
pub mod fixtures;
pub mod manifest;
pub mod recount;
pub mod validate;

pub use emit::{emit, emitter_version, Emission, EmitError, EmitOptions};
pub use manifest::{Manifest, ManifestRegister, ManifestTable, Provenance};

use splidt_core::lower::Lowering;

/// Emits P4 + manifest for a [`Lowering`], deriving the provenance
/// block from the compiled engine's I/O parameters and flow-bank
/// geometry — the convenience entry point the fixtures use. See the
/// crate-level example.
pub fn emit_lowering(
    lowering: &Lowering<'_>,
    program_name: &str,
    fixture: &str,
    staged_generation: u64,
) -> Result<Emission, EmitError> {
    let io = lowering.io;
    let bank = &lowering.bank;
    let mut policy =
        if io.policy.tcp_aware { "tcp".to_string() } else { "flow_agnostic".to_string() };
    for class in &io.policy.pinned_classes {
        policy.push_str(&format!("+pin{class}"));
    }
    let opts = EmitOptions {
        program_name: program_name.to_string(),
        provenance: Provenance {
            emitter: emitter_version(),
            fixture: fixture.to_string(),
            flow_slots: io.flow_slots,
            idle_timeout_us: io.idle_timeout_us,
            policy,
            staged_generation,
            bank_cell_bytes_per_flow: bank.cell_bytes_per_flow,
            bank_stride_bytes: bank.stride_bytes,
            bank_lines_per_flow: bank.lines_per_flow,
        },
    };
    emit(lowering.program, &opts)
}
