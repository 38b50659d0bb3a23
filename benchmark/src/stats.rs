//! The estimators every reported number goes through: the quiet-decile
//! pick across blocks, nearest-rank percentiles inside a block, quartiles
//! for `compare`, and the FNV-1a digest over outputs.

/// Which direction of a metric is good.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Rates, ratios of useful work.
    Higher,
    /// Times, latencies, error ratios.
    Lower,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// 1-based rank of the quiet-decile pick among `n` blocks: `⌈0.15·n⌉`,
/// i.e. the 3rd best of 20.
///
/// A host burst (a neighbour VM, a timer storm) hits a minority of the
/// blocks, so a low rank rejects it; anything the program itself does in
/// every block (re-prepare spikes, queueing, stalls) is in every block
/// and survives. Rank 3 rather than 1 so one lucky block cannot set the
/// result either.
pub fn quiet_rank(n: usize) -> usize {
    (3 * n).div_ceil(20).max(1)
}

/// The quiet-decile estimate of one per-block metric: the
/// [`quiet_rank`]-th best block value.
///
/// # Panics
/// Panics if `per_block` is empty.
pub fn quiet_pick(per_block: &[f64], better: Better) -> f64 {
    assert!(!per_block.is_empty(), "quiet_pick: no blocks");
    let mut sorted = per_block.to_vec();
    sorted.sort_by(f64::total_cmp);
    let k = quiet_rank(sorted.len());
    match better {
        Better::Lower => sorted[k - 1],
        Better::Higher => sorted[sorted.len() - k],
    }
}

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending slice: the
/// sample of rank `⌈q·n⌉`, so the result is always an observed value.
///
/// # Panics
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank: no samples");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median: no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so `compare` judges spread the way the acceptance driver does. With
/// fewer than two samples both quartiles are the sample itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles: no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 on the 1-based sorted sample, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// FNV-1a, 64 bit, over everything the program returned — so a reader of
/// two result lines sees at once whether outputs changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds one value as eight little-endian bytes.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.byte(b);
        }
    }

    /// Folds a slice of symbol indices (one byte each would alias 256-QAM
    /// with wider alphabets, so two).
    pub fn symbols(&mut self, symbols: &[usize]) {
        for &s in symbols {
            self.byte(s as u8);
            self.byte((s >> 8) as u8);
        }
    }

    /// The 64-bit state.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The state folded to 32 bits — exactly representable as a JSON
    /// number, which the 64-bit state is not.
    pub fn folded32(&self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_rank_is_third_of_twenty_and_never_zero() {
        assert_eq!(quiet_rank(20), 3);
        assert_eq!(quiet_rank(1), 1);
        assert_eq!(quiet_rank(2), 1);
        assert_eq!(quiet_rank(6), 1);
        assert_eq!(quiet_rank(7), 2);
        assert_eq!(quiet_rank(40), 6);
    }

    #[test]
    fn quiet_pick_takes_third_best_in_either_direction() {
        let blocks: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quiet_pick(&blocks, Better::Lower), 3.0);
        assert_eq!(quiet_pick(&blocks, Better::Higher), 18.0);
        // A burst on a minority of blocks does not move the estimate …
        let mut burst = vec![10.0; 20];
        for b in burst.iter_mut().take(8) {
            *b = 17.0;
        }
        assert_eq!(quiet_pick(&burst, Better::Lower), 10.0);
        // … and neither do two lucky blocks.
        let mut lucky = vec![10.0; 20];
        lucky[4] = 2.0;
        lucky[9] = 3.0;
        assert_eq!(quiet_pick(&lucky, Better::Lower), 10.0);
        assert_eq!(quiet_pick(&[5.0, 4.0], Better::Lower), 4.0);
    }

    #[test]
    fn nearest_rank_returns_observed_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 50.0);
        assert_eq!(nearest_rank(&s, 0.9), 90.0); // ten samples beyond it
        assert_eq!(nearest_rank(&s, 1.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.001), 1.0);
        assert_eq!(nearest_rank(&[7.0], 0.9), 7.0);
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0], 0.5), 2.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(Fnv::default().value(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.byte(b'a');
        assert_eq!(h.value(), 0xaf63_dc4c_8601_ec8c);
        let mut a = Fnv::default();
        let mut b = Fnv::default();
        a.symbols(&[1, 2, 3]);
        b.symbols(&[1, 3, 2]);
        assert_ne!(a.value(), b.value(), "order must matter");
        assert_ne!(a.folded32(), b.folded32());
    }
}
