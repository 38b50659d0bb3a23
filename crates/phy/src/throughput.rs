//! Packet-error-rate → network-throughput mapping.
//!
//! The y-axis of Figs. 9 and 10: with `Nt` users each sending
//! `n_data · log2|Q| · rate` information bits per OFDM symbol, the network
//! delivers
//!
//! ```text
//! throughput = Nt · n_data · log2|Q| · rate / T_sym · (1 − PER)
//! ```
//!
//! For the paper's 20 MHz / 64-QAM / rate-1/2 numerology that is
//! 36 Mbit/s per user — 432 Mbit/s for 12 users at PER = 0, matching the
//! ML ceiling visible in Fig. 9.

use crate::ofdm::OfdmConfig;
use flexcore_coding::CodeRate;
use flexcore_modulation::Modulation;

/// Peak (PER = 0) information rate of one user, in Mbit/s.
pub(crate) fn per_user_peak_mbps(cfg: &OfdmConfig, modulation: Modulation, rate: CodeRate) -> f64 {
    let bits = cfg.n_data as f64 * modulation.bits_per_symbol() as f64 * rate.as_f64();
    bits / cfg.symbol_duration_s() / 1e6
}

/// Network throughput in Mbit/s for `nt` users at packet error rate `per`.
pub fn network_throughput_mbps(
    cfg: &OfdmConfig,
    modulation: Modulation,
    rate: CodeRate,
    nt: usize,
    per: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&per), "PER must be in [0,1]");
    nt as f64 * per_user_peak_mbps(cfg, modulation, rate) * (1.0 - per)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_64qam_rate_half_is_36mbps_per_user() {
        let cfg = OfdmConfig::wifi20();
        let r = per_user_peak_mbps(&cfg, Modulation::Qam64, CodeRate::Half);
        assert!((r - 36.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn twelve_user_ml_ceiling_matches_fig9() {
        // Fig. 9's 64-QAM 12×12 ML curve tops out near 432 Mbit/s.
        let cfg = OfdmConfig::wifi20();
        let t = network_throughput_mbps(&cfg, Modulation::Qam64, CodeRate::Half, 12, 0.0);
        assert!((t - 432.0).abs() < 1e-9, "{t}");
        // And the 16-QAM 8×8 ceiling is 8 × 24 = 192 Mbit/s.
        let t = network_throughput_mbps(&cfg, Modulation::Qam16, CodeRate::Half, 8, 0.0);
        assert!((t - 192.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn per_scales_linearly() {
        let cfg = OfdmConfig::wifi20();
        let full = network_throughput_mbps(&cfg, Modulation::Qam16, CodeRate::Half, 4, 0.0);
        let half = network_throughput_mbps(&cfg, Modulation::Qam16, CodeRate::Half, 4, 0.5);
        assert!((half - full / 2.0).abs() < 1e-9);
        let none = network_throughput_mbps(&cfg, Modulation::Qam16, CodeRate::Half, 4, 1.0);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn higher_rate_codes_raise_peak() {
        let cfg = OfdmConfig::wifi20();
        let r12 = per_user_peak_mbps(&cfg, Modulation::Qam64, CodeRate::Half);
        let r34 = per_user_peak_mbps(&cfg, Modulation::Qam64, CodeRate::ThreeQuarters);
        assert!((r34 / r12 - 1.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "PER must be in")]
    fn rejects_bad_per() {
        let cfg = OfdmConfig::wifi20();
        network_throughput_mbps(&cfg, Modulation::Qam16, CodeRate::Half, 4, 1.5);
    }
}
