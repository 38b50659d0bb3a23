//! # flexcore-detect
//!
//! Every *baseline* MIMO detector the paper compares FlexCore against,
//! implemented from scratch on the shared substrates:
//!
//! | Detector | Algorithm | Role in the paper |
//! |---|---|---|
//! | [`MlDetector`] | Exhaustive maximum likelihood | test oracle (tiny systems) |
//! | [`SphereDecoder`] | Depth-first Schnorr–Euchner sphere decoder | exact ML at scale — the paper's "Geosphere" reference \[32\] and the Table 1 complexity subject |
//! | [`MmseDetector`] | MMSE (zero-forcing is its σ² = 0 limit) | the Argos/BigStation-style linear baselines of Figs. 9 and 10 |
//! | [`SicDetector`] | Ordered successive interference cancellation (V-BLAST) | the middle rung of the city's shedding ladder, as `CellDetector::sic` (Fig. 12's "SIC" curve is single-path FlexCore, not this) |
//! | [`ParallelSicDetector`] | Parallel-SIC, one PE per constellation point | the trellis-based fixed-parallelism decoder of \[50\] in Fig. 9 |
//! | [`FcsdDetector`] | Fixed-Complexity Sphere Decoder \[4\] | FlexCore's main head-to-head competitor |
//!
//! All detectors implement the object-safe [`Detector`] trait: `prepare`
//! runs once per channel change (QR decompositions, orderings, filters) and
//! `detect` runs per received vector — the same split the paper uses to
//! amortise pre-processing (§3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
mod fcsd;
mod linear;
mod ml;
mod sic;
mod sphere;

pub use common::{Detector, Triangular};
pub use fcsd::FcsdDetector;
pub use linear::MmseDetector;
pub use ml::MlDetector;
pub use sic::{ParallelSicDetector, SicDetector};
pub use sphere::SphereDecoder;
