//! Fig. 10 — throughput vs number of active users at a 12-antenna AP
//! (64-QAM, SNR @ PER_ML = 0.01), plus a-FlexCore's mean active PEs.
//!
//! Reproduced claims:
//! 1. MMSE is near-optimal only when users ≪ AP antennas and collapses as
//!    the user count approaches 12;
//! 2. FlexCore (64 PEs) tracks Geosphere/ML throughput across the sweep;
//! 3. a-FlexCore matches FlexCore's throughput while activating close to
//!    one PE in well-conditioned (few-user) channels, scaling its
//!    complexity to the channel like no fixed-parallelism scheme can.

use crate::calibrate::operating_point_snr_db;
use crate::table::ResultTable;
use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{MmseDetector, SphereDecoder};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_phy::link::{packet_error_rate, LinkConfig};
use flexcore_phy::throughput::network_throughput_mbps;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// AP antennas.
const NR: usize = 12;
/// Available PEs for (a-)FlexCore.
const N_PE: usize = 64;
/// a-FlexCore probability target.
const THRESHOLD: f64 = 0.95;
/// RNG seed, shared by every detector.
const SEED: u64 = 0xF1EC_0010;

/// Configuration for the Fig. 10 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// User counts to sweep.
    pub users: Vec<usize>,
    /// Per-user payload (bytes).
    pub payload_bytes: usize,
    /// Packets per point.
    pub n_packets: usize,
    /// Use the exact depth-first sphere decoder for the Geosphere curve.
    /// The quick preset uses the fixed-complexity near-ML proxy instead
    /// (FlexCore with a large path budget): at the PER_ML operating points
    /// the exact search's complexity explodes — the very effect Table 1
    /// quantifies — and the proxy sits on the ML bound (Fig. 9).
    pub exact_ml: bool,
}

impl Cfg {
    /// Fast preset (three user counts).
    pub fn quick() -> Self {
        Cfg {
            users: vec![6, 9, 12],
            payload_bytes: 30,
            n_packets: 6,
            exact_ml: false,
        }
    }

    /// The paper's six-to-twelve sweep.
    pub fn full() -> Self {
        Cfg {
            users: (6..=12).collect(),
            payload_bytes: 60,
            n_packets: 20,
            exact_ml: true,
        }
    }
}

/// Runs the experiment. One row per (user count, detector).
pub fn run(cfg: &Cfg) -> ResultTable {
    let modulation = Modulation::Qam64;
    let c = Constellation::new(modulation);
    // The paper fixes the SNR at the 12-user PER_ML = 0.01 point for the
    // whole sweep.
    let snr = operating_point_snr_db(NR, c.order(), 0.01);
    let mut table = ResultTable::new(
        "Fig. 10: throughput vs active users (12-antenna AP, 64-QAM)",
        &[
            "users",
            "detector",
            "per",
            "throughput_mbps",
            "mean_active_pes",
        ],
    );
    for &nt in &cfg.users {
        let ens = ChannelEnsemble::iid(NR, nt);
        let link = LinkConfig::paper_default(c.clone(), cfg.payload_bytes);
        // Geosphere (exact ML or near-ML proxy), MMSE, FlexCore-64,
        // a-FlexCore-64.
        let mut geo: Box<dyn Detector> = if cfg.exact_ml {
            Box::new(SphereDecoder::new(c.clone()))
        } else {
            Box::new(FlexCoreDetector::with_pes(c.clone(), 6 * c.order()))
        };
        let mut mmse = MmseDetector::new(c.clone());
        let mut fc = FlexCoreDetector::with_pes(c.clone(), N_PE);
        let mut afc = FlexCoreDetector::adaptive(c.clone(), N_PE, THRESHOLD);
        let measure = |det: &mut dyn Detector, label: &str| {
            let mut rng = StdRng::seed_from_u64(SEED);
            let (per, mean_effort) = packet_error_rate(
                &link,
                det,
                cfg.n_packets,
                sigma2_from_snr_db(snr),
                |r| MimoChannel::new(ens.draw(r), snr),
                &mut rng,
            );
            let tput = network_throughput_mbps(&link.ofdm, modulation, link.rate, nt, per);
            (label.to_string(), per, tput, mean_effort)
        };
        // a-FlexCore's mean effort is its mean active PEs.
        let rows = [
            measure(geo.as_mut(), "Geosphere"),
            measure(&mut mmse, "MMSE"),
            measure(&mut fc, "FlexCore"),
            measure(&mut afc, "a-FlexCore"),
        ];
        for (i, (label, per, tput, active)) in rows.into_iter().enumerate() {
            table.push_row(vec![
                format!("{nt}"),
                label,
                format!("{per:.4}"),
                format!("{tput:.1}"),
                if i == 3 {
                    format!("{active:.2}")
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
    fn fig10_shape_holds() {
        let mut cfg = Cfg::quick();
        cfg.users = vec![6, 12];
        cfg.n_packets = 10;
        cfg.payload_bytes = 20;
        let t = run(&cfg);
        assert_eq!(t.len(), 8);
        let get = |row: usize, col: &str| -> f64 { t.cell(row, col).unwrap().parse().unwrap() };
        // At 6 users, MMSE (row 1) is close to Geosphere (row 0).
        let (geo6, mmse6) = (get(0, "throughput_mbps"), get(1, "throughput_mbps"));
        assert!(mmse6 > 0.7 * geo6, "6-user MMSE {mmse6} vs geo {geo6}");
        // At 12 users, MMSE (row 5) collapses versus Geosphere (row 4).
        let (geo12, mmse12) = (get(4, "throughput_mbps"), get(5, "throughput_mbps"));
        assert!(mmse12 < 0.8 * geo12, "12-user MMSE {mmse12} vs geo {geo12}");
        // a-FlexCore activates far fewer than 64 PEs at 6 users.
        let active6 = get(3, "mean_active_pes");
        assert!(active6 < 16.0, "6-user a-FlexCore active PEs {active6}");
        // And more at 12 users than at 6.
        let active12 = get(7, "mean_active_pes");
        assert!(active12 >= active6, "{active12} vs {active6}");
        // FlexCore tracks Geosphere at 12 users.
        let fc12 = get(6, "throughput_mbps");
        assert!(fc12 > 0.75 * geo12, "FlexCore {fc12} vs geo {geo12}");
    }
}
