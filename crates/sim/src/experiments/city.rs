//! `city` — the city's load sweep: fixed full service against QoS-aware
//! load shedding, from under capacity to 2.2× overload.
//!
//! Every row runs one seeded [`City`] for the same number of subframes
//! at one offered load (a multiple of the city's calibrated capacity),
//! once with shedding off (`fixed`: every user keeps FlexCore-16) and once
//! with it on (`shedding`: backlogged bulk users step down to SIC and
//! linear MMSE). The two arms share the seed, so they see the same
//! population, channels and arrivals and differ only in the policy bit.
//! The claim the sweep shows: from 1.0× load on, shedding delivers more
//! goodput × Jain fairness with no deadline misses, while the fixed arm's
//! backlog makes frames late.
//!
//! **Modelled time only**: each subframe's rounds are priced by the LPT
//! makespan on the LTE small-cell fabric, never read off a clock, so two
//! runs print the same bytes, digest column included.

use crate::city::{City, CityConfig, CityReport};
use crate::table::ResultTable;

/// Subframes per run.
const N_TICKS: u64 = 240;
/// Offered loads, as multiples of city capacity.
const LOADS: [f64; 4] = [0.6, 1.0, 1.5, 2.2];
/// Root seed, shared by both arms at every load.
const SEED: u64 = 0x5EED_0010;

/// Configuration: the city's size. Both presets run `N_TICKS` subframes
/// at each of `LOADS` with `SEED`.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Number of cells.
    pub n_cells: usize,
    /// Users requesting admission per cell.
    pub users_per_cell: usize,
}

impl Cfg {
    /// 2 cells × 32 users.
    pub fn quick() -> Self {
        Cfg {
            n_cells: 2,
            users_per_cell: 32,
        }
    }

    /// 4 cells × 64 users: the sweep's original size.
    pub fn full() -> Self {
        Cfg {
            n_cells: 4,
            users_per_cell: 64,
        }
    }
}

/// Runs both arms at every load: one `(load, arm, report)` per row, in
/// table order.
pub fn sweep(cfg: &Cfg) -> Vec<(f64, &'static str, CityReport)> {
    let mut rows = Vec::new();
    for load in LOADS {
        for (arm, shedding) in [("fixed", false), ("shedding", true)] {
            let city_cfg = CityConfig {
                n_cells: cfg.n_cells,
                users_per_cell: cfg.users_per_cell,
                shedding,
                seed: SEED,
                ..CityConfig::small_city()
            };
            rows.push((load, arm, City::new(&city_cfg).run(N_TICKS, load)));
        }
    }
    rows
}

/// Runs the experiment: one row per (load, arm).
pub fn run(cfg: &Cfg) -> ResultTable {
    let mut table = ResultTable::new(
        "City load sweep: fixed full service vs QoS load shedding",
        &[
            "load",
            "arm",
            "admitted",
            "offered",
            "shed_frac",
            "miss_rate",
            "jain",
            "goodput_fairness",
            "latency_p95_ms",
            "bulk_p95_ms",
            "downgrades",
            "restores",
            "digest",
        ],
    );
    for (load, arm, r) in sweep(cfg) {
        table.push_row(vec![
            format!("{load:.1}"),
            arm.into(),
            r.n_admitted.to_string(),
            r.offered_frames.to_string(),
            format!("{:.4}", r.shed_fraction),
            format!("{:.4}", r.deadline_miss_rate),
            format!("{:.4}", r.jain),
            format!("{:.0}", r.goodput_fairness),
            format!("{:.3}", r.latency_class_p95_s * 1e3),
            format!("{:.3}", r.bulk_class_p95_s * 1e3),
            r.downgrades.to_string(),
            r.restores.to_string(),
            format!("{:016x}", r.digest),
        ]);
    }
    table
}
