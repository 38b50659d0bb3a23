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

use crate::link::StreamedOutcome;
use crate::ofdm::OfdmConfig;
use flexcore_coding::CodeRate;
use flexcore_modulation::Modulation;

/// Peak (PER = 0) information rate of one user, in Mbit/s.
pub fn per_user_peak_mbps(cfg: &OfdmConfig, modulation: Modulation, rate: CodeRate) -> f64 {
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

/// Per-user goodput accounting for the streamed uplink: counts offered vs
/// CRC-delivered packets per cell user, in payload bits.
///
/// *Goodput* is what the MAC actually hands up — payload bits of packets
/// whose CRC-32 checked out — as opposed to the PER-scaled peak rate of
/// [`network_throughput_mbps`]. Dividing
/// [`GoodputMeter::delivered_bits`] by wall-clock time gives a processing
/// goodput (can the detector keep up?), while the cross-layer tests
/// compare delivered against offered bits (is anything lost at high
/// SNR?).
#[derive(Clone, Debug, Default)]
pub struct GoodputMeter {
    payload_bits: u64,
    /// Per cell user: packets offered (one per stream per recorded tick).
    offered: Vec<u64>,
    /// Per cell user: packets whose decoded payload passed the CRC check.
    delivered: Vec<u64>,
}

impl GoodputMeter {
    /// A meter for `n_users` cell users sending `payload_bytes`-byte
    /// packets per stream.
    pub fn new(n_users: usize, payload_bytes: usize) -> Self {
        GoodputMeter {
            payload_bits: payload_bytes as u64 * 8,
            offered: vec![0; n_users],
            delivered: vec![0; n_users],
        }
    }

    /// Books one streamed packet outcome under its cell user: every stream
    /// offers one packet; the CRC flags decide which were delivered.
    pub fn record(&mut self, outcome: &StreamedOutcome) {
        let u = outcome.user;
        self.offered[u] += outcome.crc_ok.len() as u64;
        self.delivered[u] += outcome.crc_ok.iter().filter(|&&ok| ok).count() as u64;
    }

    /// Payload bits offered across all users.
    pub fn offered_bits(&self) -> u64 {
        self.offered.iter().sum::<u64>() * self.payload_bits
    }

    /// Payload bits delivered (CRC-passing) across all users.
    pub fn delivered_bits(&self) -> u64 {
        self.delivered.iter().sum::<u64>() * self.payload_bits
    }

    /// Whether every offered packet was delivered.
    pub fn all_delivered(&self) -> bool {
        self.offered == self.delivered
    }

    /// Per-user delivered packet counts.
    pub fn delivered_per_user(&self) -> &[u64] {
        &self.delivered
    }

    /// Aggregate goodput in Mbit/s against an elapsed wall-clock or
    /// airtime duration.
    pub fn goodput_mbps(&self, elapsed_s: f64) -> f64 {
        assert!(elapsed_s > 0.0, "goodput over a non-positive duration");
        self.delivered_bits() as f64 / elapsed_s / 1e6
    }

    /// Aggregate offered load in Mbit/s against the same duration.
    pub fn offered_mbps(&self, elapsed_s: f64) -> f64 {
        assert!(elapsed_s > 0.0, "offered load over a non-positive duration");
        self.offered_bits() as f64 / elapsed_s / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkOutcome;

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

    fn outcome(user: usize, crc_ok: Vec<bool>) -> StreamedOutcome {
        let n = crc_ok.len();
        StreamedOutcome {
            user,
            link: LinkOutcome {
                user_ok: crc_ok.clone(),
                raw_bit_errors: vec![0; n],
            },
            crc_ok,
        }
    }

    #[test]
    fn goodput_meter_books_per_user_delivery() {
        let mut m = GoodputMeter::new(2, 10); // 80 payload bits per packet
        m.record(&outcome(0, vec![true, true, false]));
        m.record(&outcome(1, vec![true, true, true]));
        assert_eq!(m.offered_bits(), 6 * 80);
        assert_eq!(m.delivered_bits(), 5 * 80);
        assert!(!m.all_delivered());
        assert_eq!(m.delivered_per_user(), &[2, 3]);
        // 400 delivered bits over 1 ms = 0.4 Mbit/s.
        assert!((m.goodput_mbps(1e-3) - 0.4).abs() < 1e-12);
        // A clean second tick levels the meter.
        m.record(&outcome(0, vec![true; 3]));
        assert_eq!(m.delivered_per_user(), &[5, 3]);
    }

    #[test]
    fn goodput_meter_all_delivered_tracks_offered() {
        let mut m = GoodputMeter::new(1, 4);
        assert!(m.all_delivered(), "vacuously true before traffic");
        m.record(&outcome(0, vec![true, true]));
        assert!(m.all_delivered());
        assert_eq!(m.offered_bits(), m.delivered_bits());
    }

    #[test]
    #[should_panic(expected = "non-positive duration")]
    fn goodput_rejects_zero_elapsed() {
        GoodputMeter::new(1, 1).goodput_mbps(0.0);
    }
}
