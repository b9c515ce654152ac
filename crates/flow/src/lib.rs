//! # splidt-flow — traffic substrate for the SpliDT reproduction
//!
//! Everything between raw packets and ML matrices:
//!
//! * [`flow`] — flows, 5-tuples and packet traces;
//! * [`window`] — the uniform per-flow packet windows SpliDT infers over;
//! * [`features`] — the ~70-feature catalogue (CICFlowMeter-style, modified
//!   for per-window extraction like the paper's §5 "Dataset Generation"),
//!   where every deployable feature is a register **slot program** shared
//!   verbatim with the data-plane compiler;
//! * [`synthetic`] — the D1–D7 dataset analogs;
//! * [`dataset`] — windowed / flow-level / prefix / packet-level matrices;
//! * [`dcn`] — the Webserver & Hadoop datacenter environments used for
//!   recirculation-bandwidth and time-to-detection analyses.

#![deny(unsafe_code)]

pub mod dataset;
pub mod dcn;
pub mod features;
pub mod flow;
pub mod synthetic;
pub mod window;
pub mod wire;

pub use dataset::{
    flow_level_dataset, packet_level_dataset, prefix_dataset, quantize_dataset, select_flows,
    stratified_split, windowed_dataset, WindowedDataset,
};
pub use dcn::{recirc_mbps_analytic, simulate_recirc, Environment, RecircStats};
pub use features::{
    catalog, extract_flow_level, extract_packet, extract_prefix, extract_window, extract_windows,
    FeatureCatalog, FeatureDef, FeatureKind, SlotProgram, FEATURE_BITS, FEATURE_CAP,
};
pub use flow::{Dir, FiveTuple, FlowTrace, TracePacket};
pub use synthetic::{
    churn, generate, spec, ChurnConfig, ChurnSchedule, DatasetId, DatasetSpec, DriftProfile,
};
pub use window::{window_bounds, window_len};
pub use wire::{frame_for, frame_for_into, FRAME_HDR_LEN};
