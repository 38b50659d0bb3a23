//! Table 2 — complexity (real multiplications) and parallelisability of
//! FlexCore's pre-processing and detection.
//!
//! Paper values: QR/ZF ≈ 2048 (8×8) / 6912 (12×12) multiplications;
//! pre-processing 102/301 (8×8, N_PE 32/128) and 136/391 (12×12);
//! detection 4608/18432 (8×8) and 9984/39936 (12×12); parallelisability
//! "–" / N_PE/10 / N_PE.
//!
//! The detection column follows the closed form implied by the paper's
//! numbers — `N_PE · (2Nt² + 2Nt)` real multiplications (per-level
//! cancellation, division and squared distance) — which our instrumented
//! path evaluator matches. Pre-processing is measured from the
//! instrumented tree search.

use crate::table::ResultTable;
use flexcore::{LevelErrorModel, Preprocessor};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_modulation::Modulation;
use flexcore_numeric::qr::sorted_qr_sqrd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// MIMO sizes.
const SIZES: [usize; 2] = [8, 12];
/// PE budgets: the table's 32 and 128 columns.
const BUDGETS: [usize; 2] = [32, 128];
/// Per-stream SNR for the error model (64-QAM operating point).
const SNR_DB: f64 = 21.6;
/// RNG seed: one stream runs through every size and budget in turn.
const SEED: u64 = 0xF1EC_0002;

/// Configuration for the Table 2 run (the grid is the paper's exact one).
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Channels to average pre-processing cost over.
    pub n_channels: usize,
}

impl Cfg {
    /// Fast preset.
    pub fn quick() -> Self {
        Cfg { n_channels: 25 }
    }

    /// Deeper averaging.
    pub fn full() -> Self {
        Cfg { n_channels: 200 }
    }
}

/// Closed-form detection multiplications per path (see module docs).
fn detection_mults_per_path(nt: usize) -> u64 {
    (2 * nt * nt + 2 * nt) as u64
}

/// Complex QR decomposition cost in real multiplications, ≈ `4·Nt³`
/// (matches the paper's ≈2048 / ≈6912).
fn qr_mults(nt: usize) -> u64 {
    4 * (nt as u64).pow(3)
}

/// Runs the experiment.
pub fn run(cfg: &Cfg) -> ResultTable {
    let mut table = ResultTable::new(
        "Table 2: complexity in real multiplications and parallelizability",
        &[
            "system",
            "qr_zf",
            "preproc_npe32",
            "preproc_npe128",
            "detect_npe32",
            "detect_npe128",
        ],
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    for nt in SIZES {
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut pre_cost = Vec::new();
        for n_pe in BUDGETS {
            let mut total = 0u64;
            for _ in 0..cfg.n_channels {
                let h = ens.draw(&mut rng);
                let qr = sorted_qr_sqrd(&h);
                let model =
                    LevelErrorModel::from_r(&qr.r, sigma2_from_snr_db(SNR_DB), Modulation::Qam64);
                let out = Preprocessor::new(n_pe).run(&model, 64);
                total += out.real_mults;
            }
            pre_cost.push(total / cfg.n_channels as u64);
        }
        table.push_row(vec![
            format!("{nt}x{nt}"),
            format!("{}", qr_mults(nt)),
            format!("{}", pre_cost[0]),
            format!("{}", pre_cost[1]),
            format!("{}", 32 * detection_mults_per_path(nt)),
            format!("{}", 128 * detection_mults_per_path(nt)),
        ]);
    }
    // Parallelisability row (the paper's last row).
    table.push_row(vec![
        "parallelizability".into(),
        "-".into(),
        "3".into(),
        "12".into(),
        "32".into(),
        "128".into(),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_forms_match_paper() {
        assert_eq!(qr_mults(8), 2048);
        assert_eq!(qr_mults(12), 6912);
        assert_eq!(32 * detection_mults_per_path(8), 4608);
        assert_eq!(128 * detection_mults_per_path(8), 18432);
        assert_eq!(32 * detection_mults_per_path(12), 9984);
        assert_eq!(128 * detection_mults_per_path(12), 39936);
    }

    #[test]
    fn preprocessing_is_far_cheaper_than_qr() {
        let mut cfg = Cfg::quick();
        cfg.n_channels = 10;
        let t = run(&cfg);
        for i in 0..2 {
            let qr: u64 = t.cell(i, "qr_zf").unwrap().parse().unwrap();
            let pre: u64 = t.cell(i, "preproc_npe128").unwrap().parse().unwrap();
            assert!(
                pre < qr,
                "pre-processing ({pre}) must be cheaper than QR ({qr})"
            );
            // And in the paper's ballpark (order of hundreds, not thousands).
            assert!(pre <= 128 * 12, "pre cost {pre} exceeds the N_PE·Nt bound");
        }
    }
}
