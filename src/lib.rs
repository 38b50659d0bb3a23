//! Umbrella crate for the FlexCore reproduction workspace.
//!
//! Re-exports every member crate so examples and integration tests can use a
//! single dependency. See the README for a tour.

pub use flexcore;
pub use flexcore_channel as channel;
pub use flexcore_coding as coding;
pub use flexcore_detect as detect;
pub use flexcore_engine as engine;
pub use flexcore_hwmodel as hwmodel;
pub use flexcore_modulation as modulation;
pub use flexcore_numeric as numeric;
pub use flexcore_parallel as parallel;
pub use flexcore_phy as phy;
pub use flexcore_sim as sim;

/// The README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this module exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}
