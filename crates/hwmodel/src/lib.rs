//! # flexcore-hwmodel
//!
//! Analytic hardware cost/energy models substituting for the paper's
//! GTX 970 GPU, FX-8120 CPU and Virtex UltraScale XCVU440 FPGA testbeds
//! (see the README's "Faithfulness and substitutions"). The paper's
//! hardware results are *ratios* — speedups, energy-efficiency gaps,
//! iso-throughput PE counts — driven by path counts, per-path workload,
//! occupancy and resource/power composition. These models capture exactly those drivers and are
//! calibrated against the paper's published absolute anchors (Table 3,
//! the 5.14× 8-thread OpenMP speedup, the 19× GPU headline).
//!
//! * [`GpuModel`] / [`CpuModel`] — a SIMT occupancy model (threads → warps
//!   → SMs) with PCIe transfer costs, plus an OpenMP-style multicore model
//!   → Fig. 11/12;
//! * [`FpgaModel`] — per-engine resource/power composition anchored on
//!   Table 3 → Table 3 and Fig. 13;
//! * [`LTE_MODES`] — LTE frame timing (1.25–20 MHz modes, 500 µs slots)
//!   and the "how many paths fit in the budget" solver
//!   ([`LteMode::max_flexcore_paths`]) → Fig. 12;
//! * the **city's prices**: [`CpuModel::unit_seconds`] (seconds one core
//!   spends on one path-extension unit of work) and
//!   [`LTE_SMALLCELL_SPEEDS`] (the per-PE speed factors of a small-cell
//!   SoC) that `flexcore-parallel`'s `lpt_makespan_weighted` places a
//!   plan's prices on.
//!
//! ```
//! use flexcore_hwmodel::{CpuModel, LTE_SMALLCELL_SPEEDS};
//! // One 8×8 path descent on one FX-8120 core: 48 cycles per level step,
//! // 8·11/2 = 44 steps, at 3.1 GHz (about 0.68 µs).
//! let unit_s = CpuModel::fx8120().unit_seconds(8);
//! assert!((unit_s - 48.0 * 44.0 / 3.1e9).abs() < 1e-18);
//! // 2 fast DSP cores beside 6 slow ARM cores retire 14 units per unit time.
//! assert_eq!(LTE_SMALLCELL_SPEEDS.iter().sum::<f64>(), 14.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fpga;
mod gpu;
mod lte;

pub use fpga::{EngineKind, FpgaDevice, FpgaModel, PeResources};
pub use gpu::{CpuModel, GpuModel};
pub use lte::{LteMode, LTE_MODES, LTE_SMALLCELL_SPEEDS};

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this item exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
