//! # flexcore-engine
//!
//! The frame-level streaming detection engine: drives any
//! [`flexcore_detect::Detector`] across the *(subcarrier × symbol)* work
//! grid of whole OFDM frames, on any [`flexcore_parallel::PePool`]
//! substrate.
//!
//! The paper parallelises detection of a *single* received vector across
//! processing elements (one tree path per PE, §3.2). A deployed access
//! point additionally owns an orthogonal, perfectly independent scale axis:
//! the 48 data subcarriers × many OFDM symbols of every frame, for every
//! scheduled user group. This crate exploits that axis:
//!
//! * [`RxFrame`] / [`DetectedFrame`] — the frame-shaped input and output
//!   grids (symbol-major, one received vector per `(symbol, subcarrier)`);
//! * [`FrameChannel`] — per-subcarrier channel state with a monotonically
//!   increasing *generation* per subcarrier, so narrowband channel updates
//!   invalidate only the subcarriers they touch;
//! * [`FrameEngine`] — owns one prepared detector clone per subcarrier
//!   (the paper's per-channel pre-processing, run only when a subcarrier's
//!   generation changes) and captures each subcarrier's
//!   [`flexcore_detect::Detector::effort`] and
//!   [`flexcore_detect::Detector::extension_work`] at preparation;
//! * [`TickPlan`] — the one plan → run core under every path below: it
//!   shares the served engines' prepared detectors, carves the frames
//!   into per-subcarrier symbol batches, prices them at
//!   `extension_work × symbols`, orders them
//!   longest-processing-time-first, hands tasks and prices to a PE pool,
//!   and scatters the outputs back by grid position. Each batch goes
//!   through [`flexcore_detect::Detector::detect_batch_refs`], amortising
//!   prepared state across the whole column exactly as §3 prescribes;
//! * [`ChannelStream`] — the streaming time-varying scenario: one
//!   Gauss–Markov truth process per subcarrier aged every frame, with
//!   staggered estimate refresh bumping exactly the generations the
//!   engine's cache must re-prepare;
//! * [`StreamingCell`] — the multi-user serving layer, the one cell
//!   under every driver: N independent per-user `ChannelStream` +
//!   `FrameEngine` pairs whose frames are planned and run as **one** tick
//!   on a shared PE pool, LPT-ordered across users, with per-user
//!   fairness accounting (frames-behind, effort share);
//! * [`PipelinedCell`] — the pipelined driver of a [`StreamingCell`]:
//!   transmit/prepare of frame *N+1*, detection of frame *N*, and decode of frame *N−1* run
//!   concurrently, coupled by bounded backpressure queues
//!   ([`flexcore_parallel::bounded`]); every decoded frame's
//!   submit→decode latency lands in a [`LatencyRecord`]. Pipelining is placement-only: detections are
//!   bit-identical to the barrier tick's;
//! * heterogeneous fabrics — every path above prices its batches at
//!   `extension_work × symbols` ([`TickPlan::costs`]), and placement on
//!   non-uniform PEs (a speed vector such as
//!   [`flexcore_hwmodel::LTE_SMALLCELL_SPEEDS`]) is modelled from those
//!   prices alone
//!   ([`flexcore_parallel::lpt_makespan_weighted`] over the speed
//!   factors); the same plan then runs unchanged on any pool.
//!
//! Results are **bit-identical** across substrates and batch shapes: the
//! engine only reorders *scheduling*, never arithmetic, so
//! [`SequentialPool`](flexcore_parallel::SequentialPool) and a
//! [`CrossbeamPool`](flexcore_parallel::CrossbeamPool) produce
//! byte-for-byte the same [`DetectedFrame`] — a property the workspace
//! tests enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod engine;
mod frame;
mod multiuser;
mod pipeline;
mod stream;
mod tick;

pub use channel::FrameChannel;
pub use engine::{EngineStats, FrameEngine};
pub use frame::{DetectedFrame, RxFrame};
pub use multiuser::{CellStats, StreamingCell};
pub use pipeline::{LatencyRecord, PipelineReport, PipelinedCell};
pub use stream::ChannelStream;
pub use tick::{TickOutput, TickPlan};

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this module exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}
