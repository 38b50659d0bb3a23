//! Fig. 14 — validation of the per-level probability model:
//! theoretical `P_Nt(k)` (Appendix Eq. 11) versus Monte-Carlo simulation.
//!
//! For the top tree level, `P_Nt(k)` is the probability that the
//! transmitted symbol is the k-th closest constellation point to the
//! effective received point. The paper overlays the geometric model on
//! simulated (and WARP-measured) curves at 1 dB and 15 dB and finds the
//! model "very accurate in all SNR regimes"; we reproduce the
//! model-vs-simulation comparison (our testbed substitute draws synthetic
//! Rayleigh channels).

use crate::table::ResultTable;
use flexcore::symbol_error_probability;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_modulation::ordering::exact_order;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Modulation (the paper's figure uses a square QAM; we use 16-QAM).
const MODULATION: Modulation = Modulation::Qam16;
/// System size (`Nt = Nr`).
const NT: usize = 8;
/// SNRs to evaluate (paper: 1 dB and 15 dB).
const SNRS_DB: [f64; 2] = [1.0, 15.0];
/// RNG seed, restarted at each SNR.
const SEED: u64 = 0xF1EC_0014;

/// Configuration for the Fig. 14 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Largest rank to tabulate.
    pub k_max: usize,
    /// Channels × vectors to average.
    pub n_channels: usize,
    /// Vectors per channel.
    pub vectors_per_channel: usize,
}

impl Cfg {
    /// Fast preset.
    pub fn quick() -> Self {
        Cfg {
            k_max: 10,
            n_channels: 150,
            vectors_per_channel: 30,
        }
    }

    /// Deeper averaging.
    pub fn full() -> Self {
        Cfg {
            n_channels: 800,
            vectors_per_channel: 60,
            ..Cfg::quick()
        }
    }
}

/// Runs the experiment. One row per (SNR, k): simulated frequency vs the
/// geometric model (both averaged over the channel ensemble).
pub fn run(cfg: &Cfg) -> ResultTable {
    let c = Constellation::new(MODULATION);
    let ens = ChannelEnsemble::iid(NT, NT);
    let mut table = ResultTable::new(
        "Fig. 14: top-level rank distribution — model vs simulation",
        &["snr_db", "k", "simulated", "model"],
    );
    for snr in SNRS_DB {
        let sigma2 = sigma2_from_snr_db(snr);
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut rank_counts = vec![0u64; cfg.k_max + 1]; // [0] = beyond k_max
        let mut model_acc = vec![0.0f64; cfg.k_max];
        let mut total = 0u64;
        for _ in 0..cfg.n_channels {
            let h = ens.draw(&mut rng);
            let qr = sorted_qr_sqrd(&h);
            // Transmit in permuted order so stream j maps to R column j.
            let hp = h.permute_cols(&qr.perm);
            let top = NT - 1;
            // Model curve for this channel's top level.
            let pe = symbol_error_probability(qr.r[(top, top)].abs(), sigma2.sqrt(), MODULATION);
            for (k, acc) in model_acc.iter_mut().enumerate() {
                *acc += (1.0 - pe) * pe.powi(k as i32);
            }
            for _ in 0..cfg.vectors_per_channel {
                let s: Vec<usize> = (0..NT).map(|_| rng.gen_range(0..c.order())).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let mut y = hp.mul_vec(&x);
                for v in &mut y {
                    *v += flexcore_numeric::rng::CxRng::cx_normal(&mut rng, sigma2);
                }
                let ybar = qr.rotate(&y);
                // Effective point at the top level (no cancellation above).
                let eff = ybar[top] / qr.r[(top, top)];
                let order = exact_order(&c, eff);
                // flexcore-lint: allow(FL004, reason = "exact_order permutes 0..order(), so the transmitted symbol index always appears in it")
                let rank = order.iter().position(|&i| i == s[top]).unwrap() + 1;
                if rank <= cfg.k_max {
                    rank_counts[rank] += 1;
                } else {
                    rank_counts[0] += 1;
                }
                total += 1;
            }
        }
        for k in 1..=cfg.k_max {
            let sim = rank_counts[k] as f64 / total as f64;
            let model = model_acc[k - 1] / cfg.n_channels as f64;
            table.push_row(vec![
                format!("{snr}"),
                format!("{k}"),
                format!("{sim:.5}"),
                format!("{model:.5}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation() {
        let mut cfg = Cfg::quick();
        cfg.n_channels = 80;
        cfg.vectors_per_channel = 20;
        cfg.k_max = 6;
        let t = run(&cfg);
        assert_eq!(t.len(), 12);
        // k=1 dominates at 15 dB for both curves; model within 2× of sim
        // for the head of the distribution.
        for row in 0..t.len() {
            let k: usize = t.cell(row, "k").unwrap().parse().unwrap();
            let snr: f64 = t.cell(row, "snr_db").unwrap().parse().unwrap();
            let sim: f64 = t.cell(row, "simulated").unwrap().parse().unwrap();
            let model: f64 = t.cell(row, "model").unwrap().parse().unwrap();
            if k == 1 {
                // k=1 is the mode of the distribution at any SNR (≈0.39 at
                // 1 dB, ≈0.9+ at 15 dB in our ensemble).
                assert!(sim > 0.3, "k=1 should dominate (snr {snr}): {sim}");
                assert!(
                    (sim - model).abs() < 0.2,
                    "k=1 gap: sim {sim} model {model}"
                );
            }
            if k <= 3 && sim > 0.01 {
                assert!(
                    model / sim < 4.0 && sim / model < 4.0,
                    "snr {snr} k {k}: sim {sim} vs model {model}"
                );
            }
        }
        // Distribution decays in k at high SNR.
        let sim_at = |snr: &str, k: &str| -> f64 {
            t.rows().iter().find(|r| r[0] == snr && r[1] == k).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(sim_at("15", "1") > sim_at("15", "2"));
        assert!(sim_at("15", "2") >= sim_at("15", "4") - 1e-9);
        // Low SNR has a heavier tail than high SNR.
        assert!(sim_at("1", "3") > sim_at("15", "3"));
    }
}
