//! # flexcore-channel
//!
//! MIMO channel models, noise, and channel traces.
//!
//! The paper evaluates FlexCore on over-the-air WARP v3 measurements (8×8)
//! and trace-driven simulation from combined 1×12 measurements (12×12).
//! That hardware is not available here, so this crate provides the closest
//! synthetic equivalent (see the README's "Faithfulness and
//! substitutions"):
//!
//! * [`model`] — i.i.d. Rayleigh channel ensembles, with the paper's
//!   ≤ 3 dB per-user SNR spread control;
//! * [`GaussMarkovChannel`] — Gauss–Markov channel ageing;
//! * [`trace`] — a line-oriented text trace format plus reader/writer, so
//!   large-array evaluations are *trace-driven* exactly as in §5.1 of the
//!   paper (generate once, replay across detectors).
//!
//! SNR convention: `snr_db` is the **per-stream** (per-user) SNR
//! `Es/σ²` with `Es = 1`, so `σ² = 10^(−snr_db/10)`. The paper's quoted
//! operating points (13.5 dB / 21.6 dB for 12×12) use this convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
mod timevar;
pub mod trace;

pub use model::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
pub use timevar::GaussMarkovChannel;
pub use trace::{read_traces, write_traces, TraceSet};

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this item exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
