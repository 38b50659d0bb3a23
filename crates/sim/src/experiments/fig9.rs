//! Fig. 9 — achievable network throughput vs available processing
//! elements, for FlexCore, the FCSD, the trellis-based decoder of \[50\],
//! exact ML and linear MMSE.
//!
//! Scenarios: {8×8, 12×12} × {16-QAM, 64-QAM} × PER_ML ∈ {0.1, 0.01},
//! each at the SNR where ML reaches the PER target. Every detector sees
//! the *same* channels, payloads and noise (identical RNG seed) — the
//! trace-driven methodology of §5.1. The reproduced claims:
//!
//! 1. MMSE throughput collapses at `Nt = Nr`;
//! 2. FlexCore operates at *any* PE count and improves monotonically;
//! 3. the FCSD exists only at powers of `|Q|`;
//! 4. FlexCore reaches a given throughput with far fewer PEs than FCSD;
//! 5. the trellis decoder \[50\] sits between MMSE and FCSD at its fixed
//!    `|Q|` PEs.

use crate::calibrate::operating_point_snr_db;
use crate::table::ResultTable;
use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{FcsdDetector, MmseDetector, ParallelSicDetector, SphereDecoder};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_phy::link::{packet_error_rate, LinkConfig};
use flexcore_phy::throughput::network_throughput_mbps;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One evaluation scenario.
#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    /// Users = AP antennas.
    pub nt: usize,
    /// Modulation.
    pub modulation: Modulation,
    /// ML packet error target defining the SNR operating point.
    pub per_target: f64,
}

/// Configuration for the Fig. 9 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Scenarios to sweep.
    pub scenarios: Vec<Scenario>,
    /// FlexCore PE grid.
    pub pe_grid: Vec<usize>,
    /// Per-user payload (bytes).
    pub payload_bytes: usize,
    /// Packets per (scenario, detector) point.
    pub n_packets: usize,
    /// Include the |Q|² -path FCSD (expensive at 64-QAM).
    pub include_fcsd_l2: bool,
    /// Use the exact depth-first sphere decoder for the ML curve (full
    /// mode). Quick mode uses the fixed-complexity near-ML proxy — at the
    /// calibrated operating SNRs the exact search's complexity explodes
    /// (Table 1's message) while the proxy sits on the ML bound.
    pub exact_ml: bool,
    /// RNG seed (shared by every detector for trace-driven fairness).
    pub seed: u64,
}

impl Cfg {
    /// Fast preset: one 16-QAM and one 64-QAM scenario, small packets.
    pub fn quick() -> Self {
        Cfg {
            scenarios: vec![
                Scenario {
                    nt: 8,
                    modulation: Modulation::Qam16,
                    per_target: 0.1,
                },
                Scenario {
                    nt: 12,
                    modulation: Modulation::Qam64,
                    per_target: 0.01,
                },
            ],
            pe_grid: vec![1, 4, 16, 64, 128],
            payload_bytes: 30,
            n_packets: 8,
            include_fcsd_l2: false,
            exact_ml: false,
            seed: 0xF1EC_0009,
        }
    }

    /// The paper's full grid.
    pub fn full() -> Self {
        Cfg {
            scenarios: vec![
                Scenario {
                    nt: 8,
                    modulation: Modulation::Qam16,
                    per_target: 0.1,
                },
                Scenario {
                    nt: 8,
                    modulation: Modulation::Qam16,
                    per_target: 0.01,
                },
                Scenario {
                    nt: 8,
                    modulation: Modulation::Qam64,
                    per_target: 0.1,
                },
                Scenario {
                    nt: 8,
                    modulation: Modulation::Qam64,
                    per_target: 0.01,
                },
                Scenario {
                    nt: 12,
                    modulation: Modulation::Qam16,
                    per_target: 0.1,
                },
                Scenario {
                    nt: 12,
                    modulation: Modulation::Qam16,
                    per_target: 0.01,
                },
                Scenario {
                    nt: 12,
                    modulation: Modulation::Qam64,
                    per_target: 0.1,
                },
                Scenario {
                    nt: 12,
                    modulation: Modulation::Qam64,
                    per_target: 0.01,
                },
            ],
            pe_grid: vec![1, 2, 4, 8, 16, 32, 64, 128, 196, 256],
            payload_bytes: 60,
            n_packets: 24,
            include_fcsd_l2: true,
            exact_ml: true,
            seed: 0xF1EC_0009,
        }
    }
}

/// Runs the experiment. One row per (scenario, detector, PE count).
pub fn run(cfg: &Cfg) -> ResultTable {
    let mut table = ResultTable::new(
        "Fig. 9: network throughput vs available processing elements",
        &[
            "system",
            "modulation",
            "per_target",
            "detector",
            "n_pes",
            "per",
            "throughput_mbps",
        ],
    );
    for sc in &cfg.scenarios {
        let c = Constellation::new(sc.modulation);
        let q = c.order();
        let snr = operating_point_snr_db(sc.nt, q, sc.per_target);
        let link = LinkConfig::paper_default(c.clone(), cfg.payload_bytes);
        let ens = ChannelEnsemble::iid(sc.nt, sc.nt);
        // (detector, PE-count label) pairs for this scenario.
        let mut entries: Vec<(Box<dyn Detector>, String)> = Vec::new();
        if cfg.exact_ml {
            entries.push((Box::new(SphereDecoder::new(c.clone())), "ML".into()));
        } else {
            entries.push((
                Box::new(FlexCoreDetector::with_pes(c.clone(), 6 * q)),
                "ML".into(),
            ));
        }
        entries.push((Box::new(MmseDetector::new(c.clone())), "1".into()));
        entries.push((
            Box::new(ParallelSicDetector::new(c.clone())),
            format!("{q}"),
        ));
        for &l in &[1usize, 2] {
            if l == 2 && !cfg.include_fcsd_l2 {
                continue;
            }
            entries.push((
                Box::new(FcsdDetector::new(c.clone(), l)),
                format!("{}", q.pow(l as u32)),
            ));
        }
        for &n_pe in &cfg.pe_grid {
            entries.push((
                Box::new(FlexCoreDetector::with_pes(c.clone(), n_pe)),
                format!("{n_pe}"),
            ));
        }
        for (mut det, pes) in entries {
            let name = det.name();
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let (per, _) = packet_error_rate(
                &link,
                det.as_mut(),
                cfg.n_packets,
                sigma2_from_snr_db(snr),
                |r| MimoChannel::new(ens.draw(r), snr),
                &mut rng,
            );
            let tput = network_throughput_mbps(&link.ofdm, sc.modulation, link.rate, sc.nt, per);
            table.push_row(vec![
                format!("{0}x{0}", sc.nt),
                sc.modulation.name().into(),
                format!("{}", sc.per_target),
                name,
                pes,
                format!("{per:.4}"),
                format!("{tput:.1}"),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Cfg {
        Cfg {
            scenarios: vec![Scenario {
                nt: 8,
                modulation: Modulation::Qam16,
                per_target: 0.1,
            }],
            pe_grid: vec![1, 16, 64],
            payload_bytes: 20,
            n_packets: 4,
            include_fcsd_l2: false,
            exact_ml: false,
            seed: 42,
        }
    }

    #[test]
    fn fig9_shape_holds() {
        let t = run(&tiny_cfg());
        // One ML + one MMSE + one trellis + FCSD L=1 + three FlexCore rows.
        assert_eq!(t.len(), 7);
        let tput = |row: usize| -> f64 { t.cell(row, "throughput_mbps").unwrap().parse().unwrap() };
        let name = |row: usize| t.cell(row, "detector").unwrap().to_string();
        // Row 0 is ML (the ceiling); every other detector is ≤ ML + noise.
        assert!(name(0).contains("FlexCore"), "quick mode uses the ML proxy");
        let ml = tput(0);
        assert!(ml > 0.0);
        // MMSE (row 1) collapses at Nt = Nr relative to ML.
        let mmse = tput(1);
        assert!(mmse < 0.8 * ml, "MMSE {mmse} vs ML {ml}");
        // FlexCore with 64 PEs (last row) beats FlexCore with 1 PE.
        let fc1 = tput(4);
        let fc64 = tput(6);
        assert!(fc64 >= fc1, "FlexCore-64 {fc64} vs FlexCore-1 {fc1}");
        // FlexCore-64 approaches ML.
        assert!(fc64 > 0.8 * ml, "FlexCore-64 {fc64} vs ML {ml}");
    }
}
