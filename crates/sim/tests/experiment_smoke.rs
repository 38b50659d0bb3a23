//! Smoke tests for every figure/table experiment driver at tiny sample
//! counts, so the figure-regeneration code cannot rot unbuilt (or
//! un-runnable) between the occasions someone regenerates a figure.
//!
//! These assert only *shape* (row counts, non-empty columns, finite
//! numbers) — the statistical claims live in each driver's own
//! `#[cfg(test)]` module at larger sample counts. The one exception is
//! the city sweep, whose claim is pinned here as bands on its quick
//! preset, the size the driver prints. A driver is shrunk only through
//! the knobs its `Cfg` carries; the analytic fig11, fig13 and table3 run
//! whole. The tests are `#[ignore]`d by default to keep `cargo test`
//! fast; CI runs them explicitly with `cargo test -p flexcore-sim --test
//! experiment_smoke --release -- --ignored`.

use flexcore_modulation::Modulation;
use flexcore_sim::city::{CityReport, QosClass};
use flexcore_sim::experiments::*;

/// Every driver returns a `ResultTable`; a smoke pass = at least one row
/// and every cell parseable (non-empty).
fn assert_table_sane(name: &str, t: &flexcore_sim::table::ResultTable) {
    assert!(!t.is_empty(), "{name}: empty table");
    for (i, row) in t.rows().iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            assert!(!cell.is_empty(), "{name}: empty cell at ({i},{j})");
        }
    }
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig9_driver_runs_at_tiny_scale() {
    let mut cfg = fig9::Cfg::quick();
    cfg.scenarios.truncate(1);
    cfg.pe_grid = vec![1, 16];
    cfg.payload_bytes = 12;
    cfg.n_packets = 2;
    assert_table_sane("fig9", &fig9::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig10_driver_runs_at_tiny_scale() {
    let mut cfg = fig10::Cfg::quick();
    cfg.users = vec![6];
    cfg.n_packets = 2;
    cfg.payload_bytes = 12;
    assert_table_sane("fig10", &fig10::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig11_driver_runs_at_tiny_scale() {
    assert_table_sane("fig11", &fig11::run());
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig12_driver_runs_at_tiny_scale() {
    let mut cfg = fig12::Cfg::quick();
    cfg.nts.truncate(1);
    cfg.n_channels = 6;
    cfg.cal_samples = 4;
    assert_table_sane("fig12", &fig12::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig13_driver_runs_at_tiny_scale() {
    assert_table_sane("fig13", &fig13::run());
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn fig14_driver_runs_at_tiny_scale() {
    let mut cfg = fig14::Cfg::quick();
    cfg.k_max = 3;
    cfg.n_channels = 10;
    cfg.vectors_per_channel = 4;
    assert_table_sane("fig14", &fig14::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn table1_driver_runs_at_tiny_scale() {
    let mut cfg = table1::Cfg::quick();
    cfg.n_channels = 4;
    cfg.vectors_per_channel = 2;
    assert_table_sane("table1", &table1::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn table2_driver_runs_at_tiny_scale() {
    let mut cfg = table2::Cfg::quick();
    cfg.n_channels = 3;
    assert_table_sane("table2", &table2::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn table3_driver_runs_at_tiny_scale() {
    assert_table_sane("table3", &table3::run());
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn hwtable_driver_runs_at_tiny_scale() {
    let mut cfg = hwtable::Cfg::quick();
    cfg.sizes = vec![4];
    cfg.n_symbols = 4;
    let t = hwtable::run(&cfg);
    assert_table_sane("hwtable", &t);
    // One width, two detectors, all three fabrics.
    assert_eq!(t.len(), 6);
    for fabric in ["fpga", "gpu", "lte"] {
        assert_eq!(
            (0..t.len())
                .filter(|&r| t.cell(r, "fabric") == Some(fabric))
                .count(),
            2,
            "{fabric}"
        );
    }
    // Modelled time only: no column reads a clock, so a rerun is equal.
    assert_eq!(t, hwtable::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn ablation_driver_runs_at_tiny_scale() {
    let mut cfg = ablation::Cfg::quick();
    cfg.modulation = Modulation::Qam16;
    cfg.n_channels = 8;
    cfg.vectors_per_channel = 2;
    assert_table_sane("ablation", &ablation::run(&cfg));
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn city_driver_runs_at_tiny_scale() {
    let cfg = city::Cfg {
        n_cells: 1,
        users_per_cell: 4,
    };
    let t = city::run(&cfg);
    assert_table_sane("city", &t);
    assert_eq!(t.len(), 8, "one row per (load, arm)");
}

#[test]
#[ignore = "CI smoke profile: cargo test -p flexcore-sim --test experiment_smoke -- --ignored"]
fn city_sweep_shedding_dominates_fixed_under_load() {
    // The load sweep's claim as numeric bands, at the quick preset, on
    // the reports themselves rather than the table's rounded text.
    let rows = city::sweep(&city::Cfg::quick());
    let arm = |name: &str| -> Vec<(f64, CityReport)> {
        rows.iter()
            .filter(|(_, a, _)| *a == name)
            .map(|(load, _, r)| (*load, r.clone()))
            .collect()
    };
    let (fixed, shed) = (arm("fixed"), arm("shedding"));
    assert_eq!((fixed.len(), shed.len()), (4, 4));
    for ((load, f), (shed_load, s)) in fixed.iter().zip(&shed) {
        assert_eq!(load, shed_load);
        if *load >= 1.0 {
            assert!(
                s.goodput_fairness > f.goodput_fairness,
                "load {load}: shedding {} vs fixed {}",
                s.goodput_fairness,
                f.goodput_fairness
            );
        }
        assert!(s.delivered_frames > 0, "load {load}: nothing delivered");
        assert_eq!(
            s.on_time_frames, s.delivered_frames,
            "load {load}: shedding missed a deadline"
        );
        assert!(
            s.latency_class_p95_s < QosClass::Latency.deadline_s(),
            "load {load}: latency-class p95 {} s over the deadline",
            s.latency_class_p95_s
        );
    }
    for reports in [&fixed, &shed] {
        let shed_frac: Vec<f64> = reports.iter().map(|(_, r)| r.shed_fraction).collect();
        assert!(
            shed_frac.windows(2).all(|w| w[0] <= w[1]),
            "shed fraction fell with load: {shed_frac:?}"
        );
    }
}
