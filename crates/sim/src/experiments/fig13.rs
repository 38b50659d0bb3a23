//! Fig. 13 — FPGA energy efficiency (joules/bit) versus instantiated
//! processing elements, under equal network-throughput requirements.
//!
//! The iso-throughput pairings come from Fig. 9: at 12×12 64-QAM, FlexCore
//! with 32 paths matches the FCSD with 64 paths (L=1), and FlexCore with
//! 128 paths matches the FCSD with 4096 (L=2). At Nt=8, FlexCore-32 pairs
//! with the L=1 FCSD's 64 paths. Reproduced claims: the FCSD needs
//! ~1.5×–29× more J/bit, and the gap explodes for the L=2 pairing.

use crate::table::ResultTable;
use flexcore_hwmodel::{EngineKind, FpgaModel};

/// One iso-throughput curve of the figure.
struct Curve {
    /// Engine.
    kind: EngineKind,
    /// Streams.
    nt: usize,
    /// Paths per received vector this engine must evaluate.
    paths: usize,
    /// Label (matches the paper's legend).
    label: &'static str,
}

/// The paper's six curves.
const CURVES: [Curve; 6] = [
    Curve {
        kind: EngineKind::Fcsd,
        nt: 8,
        paths: 64,
        label: "FCSD Nt=8 L=1",
    },
    Curve {
        kind: EngineKind::FlexCore,
        nt: 8,
        paths: 32,
        label: "FlexCore Nt=8 (L=1 pair)",
    },
    Curve {
        kind: EngineKind::Fcsd,
        nt: 12,
        paths: 64,
        label: "FCSD Nt=12 L=1",
    },
    Curve {
        kind: EngineKind::Fcsd,
        nt: 12,
        paths: 4096,
        label: "FCSD Nt=12 L=2",
    },
    Curve {
        kind: EngineKind::FlexCore,
        nt: 12,
        paths: 32,
        label: "FlexCore Nt=12 (L=1 pair)",
    },
    Curve {
        kind: EngineKind::FlexCore,
        nt: 12,
        paths: 128,
        label: "FlexCore Nt=12 (L=2 pair)",
    },
];

/// PE counts (paper: 1 → ~100, instantiated ≤32/64, extrapolated beyond
/// at 75 % utilisation).
const M_GRID: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 100];

/// Runs the experiment. One row per (curve, M). Analytic: the paper's
/// curves, with no preset to choose.
pub fn run() -> ResultTable {
    let mut table = ResultTable::new(
        "Fig. 13: FPGA energy efficiency at iso-throughput (64-QAM)",
        &[
            "curve",
            "m_pes",
            "extrapolated",
            "joules_per_bit",
            "throughput_gbps",
        ],
    );
    for curve in &CURVES {
        let model = FpgaModel::new(curve.kind, curve.nt, 64);
        let cap = model.max_pes();
        for m in M_GRID {
            let jpb = model.joules_per_bit(m, curve.paths);
            let tput = model.throughput_bps(m, curve.paths) / 1e9;
            table.push_row(vec![
                curve.label.into(),
                format!("{m}"),
                if m > cap { "yes".into() } else { "no".into() },
                format!("{jpb:.3e}"),
                format!("{tput:.3}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §5.3 summary statistic: mean FCSD-vs-FlexCore J/bit ratio across a
    /// PE grid for one iso-throughput pairing.
    fn mean_jpb_ratio(
        nt: usize,
        fcsd_paths: usize,
        flexcore_paths: usize,
        m_grid: &[usize],
    ) -> f64 {
        let fcsd = FpgaModel::new(EngineKind::Fcsd, nt, 64);
        let fc = FpgaModel::new(EngineKind::FlexCore, nt, 64);
        let mut acc = 0.0;
        for &m in m_grid {
            acc += fcsd.joules_per_bit(m, fcsd_paths) / fc.joules_per_bit(m, flexcore_paths);
        }
        acc / m_grid.len() as f64
    }

    #[test]
    fn fcsd_needs_more_joules_per_bit() {
        // §5.3: "the FCSD requires on average 1.54× up to 28.8× more J/bit".
        let grid = [1usize, 2, 4, 8, 16, 32];
        let low = mean_jpb_ratio(8, 64, 32, &grid);
        let high = mean_jpb_ratio(12, 4096, 128, &grid);
        assert!(low > 1.2, "Nt=8 L=1 pairing ratio {low}");
        assert!(high > 10.0, "Nt=12 L=2 pairing ratio {high}");
        assert!(high > low, "L=2 pairing must dominate: {high} vs {low}");
    }

    #[test]
    fn more_pes_do_not_change_jpb_much_but_raise_throughput() {
        // J/bit = (static + M·dyn) / (M·rate): falls toward dyn/rate as M
        // grows; throughput rises linearly.
        let t = run();
        let series: Vec<(f64, f64)> = t
            .rows()
            .iter()
            .filter(|r| r[0] == "FlexCore Nt=12 (L=2 pair)")
            .map(|r| (r[3].parse().unwrap(), r[4].parse().unwrap()))
            .collect();
        for w in series.windows(2) {
            assert!(w[1].0 <= w[0].0 * 1.001, "J/bit must not grow with M");
            assert!(w[1].1 > w[0].1, "throughput must grow with M");
        }
    }

    #[test]
    fn extrapolation_flagged_beyond_capacity() {
        let t = run();
        // The big 12×12 FlexCore engine (~35k LUTs/PE) exceeds the 75%
        // ceiling at M=100; the small Nt=8 FCSD engine does not.
        for r in t.rows().iter().filter(|r| r[1] == "100") {
            if r[0].contains("FlexCore Nt=12") {
                assert_eq!(r[2], "yes", "M=100 should exceed the ceiling: {r:?}");
            }
        }
        // At M=1 nothing is extrapolated.
        for r in t.rows().iter().filter(|r| r[1] == "1") {
            assert_eq!(r[2], "no");
        }
        // And every curve has a finite capacity of at least the paper's
        // instantiated M=32.
        for c in &CURVES {
            let cap = FpgaModel::new(c.kind, c.nt, 64).max_pes();
            assert!(cap >= 32, "{}: cap {cap}", c.label);
        }
    }
}
