//! # flexcore-modulation
//!
//! Gray-mapped square QAM constellations and the symbol-ordering machinery
//! FlexCore's parallel detection relies on.
//!
//! * [`Constellation`] / [`Modulation`] — constellations (BPSK, QPSK,
//!   16/64/256-QAM) normalised to unit average symbol energy, Gray bit
//!   mapping, hard slicing;
//! * [`ordering`] — finding the *k-th closest* constellation symbol to an
//!   arbitrary "effective received point":
//!   an exact (sort-everything) oracle, and the paper's **approximate
//!   predefined ordering** (§3.2, Fig. 6): the effective point is located
//!   inside a minimum-distance square of the constellation grid, the square
//!   is split into eight triangles, and a per-triangle look-up table maps
//!   `k` to a lattice offset in O(1) — avoiding the 63 wasted distance
//!   computations per level that exact ordering would cost at 64-QAM.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod derive;
mod octant;
pub mod ordering;
mod qam;

pub use ordering::{LocatedOrderingTable, OrderingLut};
pub use qam::{Constellation, Modulation};
