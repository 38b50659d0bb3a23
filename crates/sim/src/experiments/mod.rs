//! Per-figure/table experiment drivers.
//!
//! Each submodule owns one published result and exposes a `Cfg` (with
//! `quick()` and `full()` presets) plus a `run(&Cfg) -> ResultTable` (or a
//! small set of tables). Quick presets finish in seconds-to-minutes on a
//! laptop; full presets push the Monte-Carlo depth for tighter error bars.
//! [`EXPERIMENTS`] lists them by name for the crate's `repro` binary.

use crate::table::ResultTable;

pub mod ablation;
pub mod city;
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

macro_rules! experiments {
    ($($name:ident),*) => {
        /// Every driver by name, as `repro <name> [--full]` runs it:
        /// `run(full)` picks `Cfg::full()` or `Cfg::quick()`.
        pub const EXPERIMENTS: &[(&str, fn(full: bool) -> ResultTable)] = &[$(
            (stringify!($name), |full| {
                $name::run(&if full { $name::Cfg::full() } else { $name::Cfg::quick() })
            }),
        )*];
    };
}
experiments!(
    fig9, fig10, fig11, fig12, fig13, fig14, table1, table2, table3, hwtable, ablation, city
);
