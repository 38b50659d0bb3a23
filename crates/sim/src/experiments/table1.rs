//! Table 1 — single-core compute rate of an exact depth-first sphere
//! decoder at OFDM line rate.
//!
//! Paper values (16-QAM, Rayleigh, 13 dB SNR, ~50 subcarriers, Wi-Fi
//! timing): 1.2 / 13 / 105 / 837 GFLOPS and 45 / 100 / 162 / 223 Mbit/s for
//! 2×2 … 8×8. We regenerate the *measured* FLOPs of our instrumented
//! decoder and the same line-rate conversion; the exponential growth (and
//! the conclusion — an 8×8 saturates any single core) is the reproduced
//! claim.

use crate::table::ResultTable;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_coding::CodeRate;
use flexcore_detect::common::Detector;
use flexcore_detect::SphereDecoder;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::flops::gflops_at_line_rate;
use flexcore_numeric::Cx;
use flexcore_phy::ofdm::OfdmConfig;
use flexcore_phy::throughput::network_throughput_mbps;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// MIMO sizes (`Nt = Nr`).
const SIZES: [usize; 4] = [2, 4, 6, 8];
/// Per-stream SNR in dB (the paper's footnote says 13 dB).
const SNR_DB: f64 = 13.0;
/// RNG seed: one stream runs through every size in turn.
const SEED: u64 = 0xF1EC_0001;

/// Configuration for the Table 1 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Channels × vectors per channel to average over.
    pub n_channels: usize,
    /// Vectors per channel.
    pub vectors_per_channel: usize,
}

impl Cfg {
    /// Fast preset.
    pub fn quick() -> Self {
        Cfg {
            n_channels: 30,
            vectors_per_channel: 8,
        }
    }

    /// Deeper averaging.
    pub fn full() -> Self {
        Cfg {
            n_channels: 200,
            vectors_per_channel: 16,
        }
    }
}

/// Runs the experiment.
pub fn run(cfg: &Cfg) -> ResultTable {
    let c = Constellation::new(Modulation::Qam16);
    let ofdm = OfdmConfig::wifi20();
    // The paper's Nc "on the order of 50".
    let nc = ofdm.n_data;
    let mut table = ResultTable::new(
        "Table 1: depth-first sphere decoder complexity (16-QAM, 13 dB)",
        &[
            "antennas",
            "throughput_mbps",
            "mean_flops_per_vector",
            "gflops_at_line_rate",
            "mean_nodes",
        ],
    );
    let mut rng = StdRng::seed_from_u64(SEED);
    for nt in SIZES {
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut sd = SphereDecoder::new(c.clone());
        let mut total_flops = 0u64;
        let mut total_nodes = 0u64;
        let mut vec_errors = 0usize;
        let mut n = 0usize;
        for _ in 0..cfg.n_channels {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), SNR_DB);
            sd.prepare(&h, sigma2_from_snr_db(SNR_DB));
            for _ in 0..cfg.vectors_per_channel {
                let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                let (got, stats) = sd.detect_with_stats(&y);
                total_flops += stats.flops.total_flops();
                total_nodes += stats.nodes;
                if got != s {
                    vec_errors += 1;
                }
                n += 1;
            }
        }
        let mean_flops = total_flops as f64 / n as f64;
        let gflops = gflops_at_line_rate(mean_flops, nc, ofdm.symbol_duration_s());
        // Throughput column: the achievable network throughput at this
        // operating point (uncoded VER → coded PER is ≈0 at 13 dB for the
        // small systems; report the PER-scaled figure).
        let ver = vec_errors as f64 / n as f64;
        let tput =
            network_throughput_mbps(&ofdm, Modulation::Qam16, CodeRate::Half, nt, ver.min(1.0));
        table.push_row(vec![
            format!("{nt}x{nt}"),
            format!("{tput:.0}"),
            format!("{mean_flops:.0}"),
            format!("{gflops:.2}"),
            format!("{:.0}", total_nodes as f64 / n as f64),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_grows_exponentially() {
        let mut cfg = Cfg::quick();
        cfg.n_channels = 48;
        cfg.vectors_per_channel = 8;
        let t = run(&cfg);
        assert_eq!(t.len(), 4);
        let g: Vec<f64> = (0..4)
            .map(|i| t.cell(i, "gflops_at_line_rate").unwrap().parse().unwrap())
            .collect();
        // Strictly increasing and super-linear overall (Table 1's message).
        assert!(g[1] > g[0] && g[2] > g[1] && g[3] > g[2], "{g:?}");
        assert!(g[3] / g[0] > 10.0, "8x8 should dwarf 2x2: {g:?}");
    }
}
