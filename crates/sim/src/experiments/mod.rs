//! Per-figure/table experiment drivers.
//!
//! Each submodule owns one published result and exposes a `run` that
//! returns a [`ResultTable`]. A Monte-Carlo driver takes a `Cfg` holding
//! only the knobs its `quick()` and `full()` presets set differently (plus
//! the few a statistical test varies); every other setting is a module
//! constant. Quick presets finish in seconds on a laptop; full presets
//! push the Monte-Carlo depth for tighter error bars. fig11, fig13 and
//! table3 are analytic, so they have no `Cfg` and `run()` takes nothing.
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
pub mod table1;
pub mod table2;
pub mod table3;

/// `|full| name::run(&Cfg::full())`, or `Cfg::quick()` without `--full`.
macro_rules! preset {
    ($name:ident) => {
        |full| {
            $name::run(&if full {
                $name::Cfg::full()
            } else {
                $name::Cfg::quick()
            })
        }
    };
}

/// One driver run with the preset flag.
type Run = fn(full: bool) -> ResultTable;

/// Every driver by name, as `repro <name> [--full]` runs it: `run(full)`
/// picks `Cfg::full()` or `Cfg::quick()`. The analytic fig11, fig13 and
/// table3 ignore the flag.
pub const EXPERIMENTS: &[(&str, Run)] = &[
    ("fig9", preset!(fig9)),
    ("fig10", preset!(fig10)),
    ("fig11", |_| fig11::run()),
    ("fig12", preset!(fig12)),
    ("fig13", |_| fig13::run()),
    ("fig14", preset!(fig14)),
    ("table1", preset!(table1)),
    ("table2", preset!(table2)),
    ("table3", |_| table3::run()),
    ("ablation", preset!(ablation)),
    ("city", preset!(city)),
];
