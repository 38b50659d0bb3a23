//! Per-figure/table experiment drivers.
//!
//! Each submodule owns one published result and exposes a `Cfg` (with
//! `quick()` and `full()` presets) plus a `run(&Cfg) -> ResultTable` (or a
//! small set of tables). Quick presets finish in seconds-to-minutes on a
//! laptop; full presets push the Monte-Carlo depth for tighter error bars.

pub mod ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig9;
pub mod hwtable;
pub mod table1;
pub mod table2;
pub mod table3;
