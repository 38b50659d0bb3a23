//! OFDM numerology.
//!
//! The paper's testbed is an 802.11-style OFDM system: 64 subcarriers of
//! which 48 carry payload, 20 MHz bandwidth, 4 µs symbols (3.2 µs useful +
//! 0.8 µs cyclic prefix). Detection operates per subcarrier in the
//! frequency domain, so the link needs only the payload width and the
//! symbol duration.

/// OFDM numerology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OfdmConfig {
    /// Payload (data) subcarriers per symbol.
    pub n_data: usize,
    /// OFDM symbol duration in nanoseconds (including CP).
    pub symbol_duration_ns: u64,
}

impl OfdmConfig {
    /// The 802.11a/g 20 MHz numerology used throughout the paper:
    /// 48 data subcarriers (of 64), 4 µs symbols.
    pub fn wifi20() -> Self {
        OfdmConfig {
            n_data: 48,
            symbol_duration_ns: 4_000,
        }
    }

    /// OFDM symbol duration in seconds.
    pub fn symbol_duration_s(&self) -> f64 {
        self.symbol_duration_ns as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi20_numerology() {
        let cfg = OfdmConfig::wifi20();
        assert_eq!(cfg.n_data, 48);
        assert!((cfg.symbol_duration_s() - 4e-6).abs() < 1e-15);
    }
}
