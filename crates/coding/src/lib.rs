//! # flexcore-coding
//!
//! The 802.11 forward-error-correction chain used in the paper's throughput
//! evaluation (§5.1): every user transmits packets with "the 1/2 rate
//! convolutional coding of the 802.11 standard".
//!
//! * [`ConvCode`] — the industry-standard K = 7 convolutional code with
//!   generators (133, 171) octal, a Viterbi decoder (hard bits or LLRs)
//!   with full traceback, and the 802.11 puncturing patterns for rates 2/3
//!   and 3/4 ([`CodeRate`]);
//! * [`Interleaver`] — the 802.11a two-permutation block interleaver,
//!   which spreads adjacent coded bits across subcarriers and
//!   constellation bit positions so a deep per-subcarrier fade does not
//!   erase a run of bits;
//! * [`crc_check`] — the IEEE CRC-32 frame check sequence over bit
//!   streams, the per-packet delivery check behind the streamed uplink's
//!   goodput accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv;
mod crc;
mod interleave;
mod soft;

pub use conv::{CodeRate, ConvCode, ViterbiScratch};
pub use crc::crc_check;
pub use interleave::Interleaver;

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this item exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
