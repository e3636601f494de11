//! End-to-end and per-layer benchmark of the mswj disorder-handling join.
//!
//! `perfbench/README.md` describes the workloads, the metrics and how to
//! run it.

pub mod bench;
pub mod json;
pub mod metrics;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
