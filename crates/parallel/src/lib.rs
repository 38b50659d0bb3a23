//! # flexcore-parallel
//!
//! The *processing element* (PE) abstraction.
//!
//! FlexCore's defining property is that it can exploit **any** number of
//! available processing elements (§1): pre-processing emits exactly `N_PE`
//! tree paths and detection maps each path to one PE. This crate decouples
//! the algorithm from the execution substrate:
//!
//! * [`SequentialPool`] — a *simulated* pool: executes tasks in order on the
//!   calling thread. This is what the experiment harness uses — detection
//!   results are bit-identical to parallel execution, and latency is
//!   modelled (from task prices, see [`lpt_makespan_weighted`]), not
//!   measured.
//! * [`CrossbeamPool`] — a real thread pool (PEs = the thread that calls
//!   `run` plus `n_pes − 1` long-lived helper threads parked between
//!   batches; nothing is spawned per batch), demonstrating that FlexCore's
//!   path parallelism is "nearly embarrassingly parallel": tasks share
//!   nothing and results are reduced with a single `min` pass at the end.
//!   Every PE pulls from one shared work queue
//!   ([`CrossbeamPool::work_queue`]), so coarse variable-cost tasks such
//!   as the frame engine's per-subcarrier batches balance dynamically, and
//!   a panicking task unwinds out of `run` with its own payload while the
//!   helpers live on. Handing borrowed tasks to threads that outlive the
//!   call takes the workspace's one `unsafe` expression — a lifetime
//!   erasure in `pool.rs`, retracted by a drop guard before `run` can
//!   return or unwind.
//!
//! Both implement [`PePool`] — `n_pes` and `run`, nothing else — so every
//! detector in the workspace runs unmodified on either, and
//! `flexcore-engine` drives whole OFDM frames through them. Placement on
//! a **non-uniform** fabric (e.g. 2 fast DSP cores beside 6 slow ARM
//! cores, `flexcore_hwmodel::LTE_SMALLCELL_SPEEDS`) is a model, not a
//! pool: [`lpt_makespan_weighted`] places a batch's prices with the
//! uniform-machines LPT rule, which assigns each task to the PE that
//! would *finish it earliest*, and returns the makespan. Scheduling is
//! ordering/placement only — detections stay bit-identical across
//! substrates, a property the workspace tests enforce.
//!
//! The crate also carries [`bounded`] — [`std::sync::mpsc::sync_channel`]
//! with a capacity of at least 1 and end-of-stream read as `None` — whose
//! blocking send is the backpressure coupling the pipelined cell's
//! overlapped transmit / detect / decode stages in `flexcore-engine`.

// `deny`, not `forbid`: `pool.rs` allows exactly one `unsafe` expression
// (flexcore-lint FL006 polices where it may live and that it is documented).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod pool;
mod weighted;

pub use channel::{bounded, Receiver, SendError, Sender};
pub use pool::{lpt_order, CrossbeamPool, PePool, SequentialPool};
pub use weighted::lpt_makespan_weighted;

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this module exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}
