//! Floating-point-operation accounting.
//!
//! Table 1 of the paper reports the *computational rate* (GFLOPS) a single
//! core must sustain to run a depth-first sphere decoder at line rate, and
//! Table 2 counts *real multiplications* for FlexCore's pre-processing and
//! detection. Both tables are regenerated by instrumenting the algorithms
//! with this counter rather than by timing, so the numbers are
//! machine-independent and exactly reproducible.

/// Mutable tally of elementary real floating-point operations.
///
/// Complex operations are expanded using the textbook costs
/// (complex multiply = 4 real multiplies + 2 real adds; complex add =
/// 2 real adds; squared magnitude = 2 multiplies + 1 add).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlopCounter {
    /// Real multiplications (includes divisions, counted as one each).
    pub mults: u64,
    /// Real additions/subtractions.
    pub adds: u64,
    /// Scalar comparisons (min/max/sort steps).
    pub cmps: u64,
}

impl FlopCounter {
    /// Records one complex multiplication (4 mults, 2 adds).
    #[inline]
    pub fn cmul(&mut self, n: u64) {
        self.mults += 4 * n;
        self.adds += 2 * n;
    }

    /// Records one complex addition (2 adds).
    #[inline]
    pub fn cadd(&mut self, n: u64) {
        self.adds += 2 * n;
    }

    /// Records a squared-magnitude evaluation `|z|²` (2 mults, 1 add).
    #[inline]
    pub fn cnorm_sqr(&mut self, n: u64) {
        self.mults += 2 * n;
        self.adds += n;
    }

    /// Records `n` real multiplications.
    #[inline]
    pub fn rmul(&mut self, n: u64) {
        self.mults += n;
    }

    /// Records `n` comparisons.
    #[inline]
    pub fn cmp(&mut self, n: u64) {
        self.cmps += n;
    }

    /// Total arithmetic FLOPs (multiplications + additions; comparisons are
    /// reported separately, matching the paper's conventions).
    pub fn total_flops(&self) -> u64 {
        self.mults + self.adds
    }
}

/// Converts a per-detection FLOP count into the sustained rate (in GFLOPS)
/// required to keep up with an OFDM system, as in Table 1.
///
/// * `flops_per_vector` — operations per received MIMO vector (one
///   subcarrier's worth of detection);
/// * `n_subcarriers` — payload subcarriers per OFDM symbol (the paper uses
///   an Nc "on the order of 50", i.e. the 48 data subcarriers of 802.11);
/// * `symbol_duration_s` — OFDM symbol duration (4 µs for 20 MHz 802.11).
pub fn gflops_at_line_rate(
    flops_per_vector: f64,
    n_subcarriers: usize,
    symbol_duration_s: f64,
) -> f64 {
    flops_per_vector * n_subcarriers as f64 / symbol_duration_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complex_op_costs() {
        let mut f = FlopCounter::default();
        f.cmul(2);
        assert_eq!(f.mults, 8);
        assert_eq!(f.adds, 4);
        f.cadd(3);
        assert_eq!(f.adds, 10);
        f.cnorm_sqr(1);
        assert_eq!(f.mults, 10);
        assert_eq!(f.adds, 11);
        assert_eq!(f.total_flops(), 21);
    }

    #[test]
    fn real_ops() {
        let mut a = FlopCounter::default();
        a.rmul(5);
        a.cmp(2);
        assert_eq!(a.mults, 5);
        assert_eq!(a.cmps, 2);
    }

    #[test]
    fn line_rate_conversion() {
        // 1000 FLOPs/vector × 50 subcarriers / 4 µs = 12.5 GFLOPS.
        let g = gflops_at_line_rate(1000.0, 50, 4e-6);
        assert!((g - 0.0125e3).abs() < 1e-12);
    }
}
