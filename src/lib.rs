//! Workspace root package for the FlexCore reproduction.
//!
//! It holds no code: the package hosts the integration tests (`tests/`)
//! and the examples (`examples/`), which depend on the member crates
//! directly, and compiles the README's examples as doctests. See the
//! README for a tour.

/// The README's examples, compiled as doctests so they cannot rot
/// (`cargo test --doc`): this module exists only during doctest collection.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}
