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
//! * the **unified scheduling view**: every substrate reduced
//!   to a [`PeCost`] (cycles per path-extension unit of work at a given
//!   antenna/modulation config) and a [`HeterogeneousFabric`] (a pool of
//!   PEs with per-PE speed factors) that `flexcore-parallel`'s
//!   `lpt_makespan_weighted` places a plan's prices on.
//!
//! ```
//! use flexcore_hwmodel::{CpuModel, HeterogeneousFabric, PeCost, WorkUnit};
//! // An 8×8 16-QAM FlexCore-16 vector costs 16 path units; on the LTE
//! // small-cell fabric (2 fast DSP + 6 slow ARM PEs) the model predicts:
//! let work = WorkUnit::new(8, 16);
//! let fabric = HeterogeneousFabric::lte_smallcell();
//! let bps = fabric.ideal_throughput_bps(&CpuModel::fx8120(), &work, 16.0);
//! assert!(bps > 1e6, "small cell should manage megabits: {bps}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fabric;
mod fpga;
mod gpu;
mod lte;

pub use fabric::{HeterogeneousFabric, PeClass, PeCost, WorkUnit};
pub use fpga::{EngineKind, FpgaDevice, FpgaModel, PeResources};
pub use gpu::{CpuModel, GpuModel};
pub use lte::{LteMode, LTE_MODES};

/// The crate README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this item exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
