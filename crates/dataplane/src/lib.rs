//! # splidt-dataplane — an RMT match-action pipeline simulator
//!
//! A software model of a Tofino1-class Reconfigurable Match-Action Table
//! (RMT) switch pipeline, built for the SpliDT reproduction
//! ([SIGCOMM 2025](https://arxiv.org/abs/2509.00397)). The real system runs
//! as a P4 program compiled with BF-SDE onto an Edgecore Wedge 100-32X;
//! this crate substitutes a simulator that enforces the same *structural*
//! constraints the hardware does, so resource accounting and execution
//! semantics — the things the paper's claims rest on — carry over:
//!
//! * a **packet header vector** ([`phv::Phv`]) populated by a byte-level
//!   [`parser`] from real packet bytes;
//! * **match-action tables** ([`table::Table`]) with exact, ternary (TCAM)
//!   and range matching, priorities and hit counters;
//! * a **register file** ([`register::RegisterFile`]) of stateful
//!   registers with single-visit read-modify-write ALU semantics (one RMW
//!   per packet per register, as on Tofino's stateful ALUs), each flow's
//!   cells coalesced into a cache-line [`register::FlowBank`];
//! * a staged [`pipeline::Pipeline`] with **packet resubmission**
//!   (recirculation) metering — SpliDT's in-band control channel;
//! * a **resource model** ([`resources::TargetSpec`]) with per-stage SRAM
//!   and TCAM block budgets matching the Tofino1 figures used in the paper
//!   (12 stages, ≈6.4 Mb of TCAM);
//! * **digests** to the control plane, which is how classification verdicts
//!   leave the pipeline.
//!
//! The simulator is event-driven and deterministic: packets are processed
//! in submission order, and every stateful effect is observable through the
//! pipeline's meters, registers and digest stream.
//!
//! ```
//! use splidt_dataplane::program::ProgramBuilder;
//! use splidt_dataplane::table::TableSpec;
//! use splidt_dataplane::action::{Action, Primitive};
//! use splidt_dataplane::pipeline::Pipeline;
//!
//! // A one-table program: set `out` to 7 when `class == 3`.
//! let mut b = ProgramBuilder::new();
//! let class = b.add_meta("class", 8);
//! let out = b.add_meta("out", 8);
//! let t = b.add_table(TableSpec::exact("classify", vec![class], 16), 0);
//! b.add_exact_entry(t, vec![3], Action::new("set7").with(Primitive::set_const(out, 7))).unwrap();
//! let program = b.build().unwrap();
//! let mut pipe = Pipeline::new(program);
//! let mut phv = pipe.program().layout().new_phv();
//! phv.set(class, 3);
//! let out_phv = pipe.process_phv(phv, 0).phv;
//! assert_eq!(out_phv.get(out), 7);
//! ```

#![deny(unsafe_code)]

pub mod action;
pub mod hash;
pub mod index;
pub mod packet;
pub mod parser;
pub mod phv;
pub mod pipeline;
pub mod plan;
pub mod program;
pub mod register;
pub mod resources;
pub mod table;
pub mod tcam;

pub use action::{Action, AluOp, AluOut, Primitive, Source};
pub use hash::crc32;
pub use index::MatchIndex;
pub use packet::{PacketBuilder, TcpFlags, FLOW_SHIM_ETHERTYPE};
pub use parser::{parse, parse_into, peek_flow_tuple, FlowTupleView, ParseError, StandardFields};
pub use phv::{FieldId, Phv, PhvLayout};
pub use pipeline::{Digest, DigestBuf, Disposition, Meters, Pipeline};
pub use plan::{ActionId, ExecPlan};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use register::{BankLayout, FlowBank, RegisterArray, RegisterFile};
pub use resources::{ResourceReport, TargetSpec};
pub use table::{MatchKind, Table, TableSpec};
pub use tcam::Ternary;
