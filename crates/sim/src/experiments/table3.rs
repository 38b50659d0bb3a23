//! Table 3 — FPGA single-processing-element implementation results
//! (XCVU440, 64-QAM, Nt ∈ {8, 12}).
//!
//! Regenerated from the `flexcore-hwmodel` FPGA composition model, which is
//! anchored on the paper's published values — this driver also recomputes
//! the caption's area–delay-product overhead claim (~73.7 % at Nt=8,
//! ~57.8 % at Nt=12).

use crate::table::ResultTable;
use flexcore_hwmodel::{EngineKind, FpgaModel};

/// Stream counts to tabulate (the paper's grid).
const SIZES: [usize; 2] = [8, 12];

/// Runs the experiment. Analytic: the paper's grid, with no preset to
/// choose.
pub fn run() -> ResultTable {
    let mut table = ResultTable::new(
        "Table 3: single PE on the XCVU440 (64-QAM)",
        &[
            "system",
            "engine",
            "lut_logic",
            "lut_mem",
            "ff_pairs",
            "clb_slices",
            "dsp48",
            "fmax_mhz",
            "power_w",
            "area_delay_overhead_pct",
        ],
    );
    for nt in SIZES {
        let fc = FpgaModel::new(EngineKind::FlexCore, nt, 64);
        let fcsd = FpgaModel::new(EngineKind::Fcsd, nt, 64);
        let overhead = (fc.area_delay() / fcsd.area_delay() - 1.0) * 100.0;
        for (m, name, over) in [(&fc, "FlexCore", overhead), (&fcsd, "FCSD", 0.0)] {
            let r = m.single_pe();
            table.push_row(vec![
                format!("{nt}x{nt}"),
                name.into(),
                format!("{:.0}", r.lut_logic),
                format!("{:.0}", r.lut_mem),
                format!("{:.0}", r.ff_pairs),
                format!("{:.0}", r.clb_slices),
                format!("{:.0}", r.dsp48),
                format!("{:.1}", m.fmax_hz() / 1e6),
                format!("{:.3}", m.power_w(1)),
                if name == "FlexCore" {
                    format!("{over:.1}")
                } else {
                    "-".into()
                },
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_anchors() {
        let t = run();
        assert_eq!(t.len(), 4);
        // 8×8 FlexCore row.
        assert_eq!(t.cell(0, "lut_logic"), Some("3206"));
        assert_eq!(t.cell(0, "dsp48"), Some("16"));
        assert_eq!(t.cell(0, "fmax_mhz"), Some("312.5"));
        // 12×12 FCSD row.
        assert_eq!(t.cell(3, "lut_logic"), Some("4364"));
        assert_eq!(t.cell(3, "fmax_mhz"), Some("370.4"));
    }

    #[test]
    fn overhead_matches_caption_band() {
        let t = run();
        let o8: f64 = t
            .cell(0, "area_delay_overhead_pct")
            .unwrap()
            .parse()
            .unwrap();
        let o12: f64 = t
            .cell(2, "area_delay_overhead_pct")
            .unwrap()
            .parse()
            .unwrap();
        // Caption: 73.7% (Nt=8) and 57.8% (Nt=12), decreasing in Nt.
        assert!(o12 < o8, "overhead should shrink with Nt: {o8} vs {o12}");
        assert!((20.0..=90.0).contains(&o8));
    }
}
