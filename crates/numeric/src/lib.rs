//! # flexcore-numeric
//!
//! Self-contained complex-valued numerical substrate for the FlexCore
//! reproduction.
//!
//! The paper's entire signal-processing chain operates on complex baseband
//! samples and complex channel matrices. Mainstream Rust DSP crates for this
//! are thin, so this crate implements everything FlexCore needs from scratch:
//!
//! * [`Cx`] — a `f64` complex scalar with full arithmetic;
//! * [`CMat`] / [`CVec`] — dense row-major complex matrices and vectors
//!   (module [`mat`]);
//! * QR decompositions: modified Gram–Schmidt, plus the two *sorted* QR
//!   variants the paper evaluates — Wübben's SQRD and the Barbero–Thompson
//!   FCSD ordering — and the MMSE-extended sorted QR (module [`qr`]);
//! * the MMSE filter kernel (module [`solve`]);
//! * `erfc` (module [`special`]), needed by FlexCore's Eq. (4)
//!   symbol-error model, and the Bessel `J₀` behind the Doppler → ρ
//!   mapping of the time-varying channel;
//! * seeded complex-Gaussian sampling via a 256-layer ziggurat (module
//!   [`rng`]);
//! * a lightweight FLOP-accounting helper (module [`flops`]) used to
//!   regenerate Table 1 and Table 2 of the paper;
//! * [`CxLane`] — a four-wide structure-of-arrays complex lane type
//!   behind the SIMD kernels of `mul_vec_into` /
//!   `Qr::rotate_into` / `Qr::rotate_batch_into`, bit-identical per lane to
//!   the scalar path by construction.
//!
//! Everything is deterministic given a caller-supplied RNG seed; nothing in
//! this crate performs I/O or allocation beyond `Vec`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cx;
pub mod flops;
mod lanes;
pub mod mat;
pub mod qr;
pub mod rng;
pub mod solve;
pub mod special;

pub use cx::Cx;
pub use flops::FlopCounter;
pub use lanes::{CxLane, G, LANES};
pub use mat::{CMat, CVec};
pub use qr::{fcsd_sorted_qr, mgs_qr, sorted_qr_sqrd, sorted_qr_sqrd_into, Qr};

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this item exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
