//! Fig. 12 — SNR loss versus ML under LTE timing constraints, per LTE
//! bandwidth mode, for FlexCore, the FCSD and SIC (64-QAM).
//!
//! Two ingredients:
//! 1. the **timing budget**: for each LTE mode, how many tree paths per
//!    subcarrier the GPU sustains inside the 500 µs timeslot
//!    (`flexcore-hwmodel`'s `LteMode::max_flexcore_paths`);
//! 2. the **algorithmic loss**: how far from ML a FlexCore limited to that
//!    many paths operates, measured as the extra SNR needed to match the
//!    ML detector's vector error rate at the operating point.
//!
//! Reproduced claims: FlexCore supports every LTE mode with a graceful SNR
//! loss that grows with bandwidth; SIC (one path) pays the worst loss; the
//! FCSD only fits the narrowest mode at L=1 and nothing at L=2.

use crate::calibrate::{calibrate_snr_for_ver, operating_point_snr_db, vector_error_rate};
use crate::table::ResultTable;
use flexcore::FlexCoreDetector;
use flexcore_channel::ChannelEnsemble;
use flexcore_detect::SphereDecoder;
use flexcore_hwmodel::{GpuModel, LTE_MODES};
use flexcore_modulation::{Constellation, Modulation};

/// RNG seed, shared by the ML reference and every calibration.
const SEED: u64 = 0xF1EC_0012;

/// Configuration for the Fig. 12 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Stream counts (the paper plots 8 and 12).
    pub nts: Vec<usize>,
    /// Channels per VER estimate.
    pub n_channels: usize,
    /// Bisection samples per calibration step.
    pub cal_samples: usize,
}

impl Cfg {
    /// Fast preset: Nt = 8 only, light Monte Carlo.
    pub fn quick() -> Self {
        Cfg {
            nts: vec![8],
            n_channels: 40,
            cal_samples: 14,
        }
    }

    /// Both antenna setups, deeper averaging.
    pub fn full() -> Self {
        Cfg {
            nts: vec![8, 12],
            n_channels: 120,
            cal_samples: 30,
        }
    }
}

/// Runs the experiment. One row per (Nt, LTE mode, detector).
pub fn run(cfg: &Cfg) -> ResultTable {
    let gpu = GpuModel::gtx970();
    let modulation = Modulation::Qam64;
    let c = Constellation::new(modulation);
    let q = c.order();
    let mut table = ResultTable::new(
        "Fig. 12: SNR loss vs ML under LTE timing (64-QAM)",
        &[
            "nt",
            "lte_mode_mhz",
            "detector",
            "paths",
            "snr_loss_db",
            "supported",
        ],
    );
    for &nt in &cfg.nts {
        let ens = ChannelEnsemble::iid(nt, nt);
        // Reference: the ML detector's VER at the PER_ML = 0.1 point.
        let snr_op = operating_point_snr_db(nt, q, 0.1);
        let mut ml = SphereDecoder::new(c.clone());
        let ver_target =
            vector_error_rate(&mut ml, &ens, &c, snr_op, cfg.n_channels, 6, SEED).max(0.02);
        // SNR loss for a path budget: extra SNR FlexCore needs to match
        // the ML VER. Memoised per distinct budget.
        let loss_for = |paths: usize| -> f64 {
            let mut fc = FlexCoreDetector::with_pes(c.clone(), paths.max(1));
            let snr_fc = calibrate_snr_for_ver(
                &mut fc,
                &ens,
                &c,
                ver_target,
                snr_op - 2.0,
                snr_op + 16.0,
                cfg.cal_samples,
                SEED,
            );
            (snr_fc - snr_op).max(0.0)
        };
        for mode in LTE_MODES {
            let budget = mode.max_flexcore_paths(&gpu, nt);
            // FlexCore at its budget.
            let fc_loss = loss_for(budget);
            table.push_row(vec![
                format!("{nt}"),
                format!("{}", mode.bandwidth_mhz),
                "FlexCore".into(),
                format!("{budget}"),
                format!("{fc_loss:.2}"),
                "yes".into(),
            ]);
            // SIC = single-path FlexCore (always fits).
            let sic_loss = loss_for(1);
            table.push_row(vec![
                format!("{nt}"),
                format!("{}", mode.bandwidth_mhz),
                "SIC".into(),
                "1".into(),
                format!("{sic_loss:.2}"),
                "yes".into(),
            ]);
            // FCSD: L = 1 where it fits; L = 2 never does.
            let l1 = mode.fcsd_supported(&gpu, nt, q, 1);
            table.push_row(vec![
                format!("{nt}"),
                format!("{}", mode.bandwidth_mhz),
                "FCSD".into(),
                format!("{q}"),
                if l1 {
                    format!("{:.2}", loss_for(q))
                } else {
                    "-".into()
                },
                if l1 { "yes".into() } else { "no".into() },
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shape_holds() {
        let mut cfg = Cfg::quick();
        cfg.n_channels = 15;
        cfg.cal_samples = 8;
        let t = run(&cfg);
        assert_eq!(t.len(), 18); // 6 modes × 3 detectors × 1 Nt
                                 // FlexCore is supported everywhere.
        for r in t.rows().iter().filter(|r| r[2] == "FlexCore") {
            assert_eq!(r[5], "yes");
        }
        // FCSD is unsupported at 20 MHz.
        let fcsd20 = t
            .rows()
            .iter()
            .find(|r| r[2] == "FCSD" && r[1] == "20")
            .unwrap();
        assert_eq!(fcsd20[5], "no");
        // SIC loss ≥ FlexCore loss at the narrowest mode (more paths can't
        // hurt).
        let get_loss = |det: &str, mode: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[2] == det && r[1] == mode)
                .unwrap()[4]
                .parse()
                .unwrap()
        };
        assert!(get_loss("SIC", "1.25") >= get_loss("FlexCore", "1.25") - 0.3);
        // Loss grows (or stays) as bandwidth grows (fewer paths).
        assert!(get_loss("FlexCore", "20") >= get_loss("FlexCore", "1.25") - 0.3);
    }
}
