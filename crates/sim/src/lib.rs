//! # flexcore-sim
//!
//! The experiment harness: one driver per table/figure of the paper's
//! evaluation (§5), each emitting a small CSV-like table whose rows mirror
//! the published result. The crate's `repro` binary runs any of them
//! by name (`cargo run -p flexcore-sim --bin repro -- fig9`, names in
//! [`experiments::EXPERIMENTS`]); each driver's module docs list the paper
//! claims it reproduces. A Monte-Carlo driver's `Cfg` carries only the
//! knobs its `quick()` and `full()` presets vary; every other setting is a
//! module constant, and the analytic fig11, fig13 and table3 take no `Cfg`.
//!
//! * [`table`] — the tiny result-table type and CSV emitter;
//! * [`calibrate`] — SNR operating-point calibration (find the SNR where
//!   ML detection reaches a target error rate, §5.1's PER_ML ∈ {0.1, 0.01});
//! * [`city`] — the city-scale serving layer: multi-cell simulation with
//!   per-user arrival processes, QoS classes, admission control and
//!   QoS-aware load shedding over `flexcore_engine::StreamingCell`;
//! * [`experiments`] — the per-figure drivers, the ablation and the
//!   city's load sweep.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod city;
pub mod experiments;
pub mod table;

pub use table::ResultTable;

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this module exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}
