//! # flexcore
//!
//! The core of the reproduction: **FlexCore** (Husmann, Georgis,
//! Nikitopoulos, Jamieson — NSDI 2017), a massively parallel,
//! computationally flexible detector for large MIMO systems.
//!
//! FlexCore splits detection into two phases (§3 of the paper):
//!
//! 1. **Pre-processing** ([`Preprocessor`], model in [`LevelErrorModel`]):
//!    runs only when the channel changes. From the triangular factor `R`
//!    and the noise power alone — *before any signal arrives* — it selects
//!    the `N_PE` sphere-decoder tree paths most likely to contain the
//!    transmitted vector. Paths are identified by **position vectors**
//!    ([`PositionVector`]): `p(l) = k` means "take the k-th closest symbol
//!    to the effective received point at level `l`". Path likelihoods
//!    follow the geometric per-level model
//!    `Pc(p) ≈ Π_l (1−Pe(l))·Pe(l)^(p(l)−1)` (Eqs. 2–4, Appendix), and the
//!    top-`N_PE` set is found with a dedicated best-first *pre-processing
//!    tree* search with duplicate suppression, a bounded candidate list and
//!    an optional stopping criterion (§3.1.1).
//! 2. **Parallel detection** ([`FlexCoreDetector`]): each selected position
//!    vector is materialised into a concrete tree path by one processing
//!    element, using the O(1) triangle-LUT symbol ordering from
//!    `flexcore-modulation` instead of per-level exhaustive sorting (§3.2).
//!    Paths share nothing; the final answer is the minimum-distance path.
//!
//! The adaptive variant **a-FlexCore** is the same detector built with
//! [`FlexCoreDetector::adaptive`]: a stopping threshold makes `prepare`
//! activate only as many PEs as needed for the selected paths' cumulative
//! likelihood to reach a target (0.95 in Fig. 10), collapsing to ~1 path
//! in well-conditioned channels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;
mod mixed;
mod model;
mod position;
mod preprocess;
mod soft;

pub use detector::{FlexCoreConfig, FlexCoreDetector, PathOrdering, QrOrdering};
pub use mixed::CellDetector;
pub use model::{symbol_error_probability, LevelErrorModel};
pub use position::PositionVector;
pub use preprocess::{PreprocessOutput, Preprocessor};
pub use soft::{SoftDecision, SoftDetector};
