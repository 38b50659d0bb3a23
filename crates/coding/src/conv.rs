//! Convolutional encoding and Viterbi decoding.
//!
//! The code is the de-facto wireless standard: constraint length `K = 7`,
//! rate 1/2, generators `g0 = 133₈`, `g1 = 171₈` (802.11, LTE control
//! channels, DVB…). Higher rates are obtained by puncturing. Decoding is
//! hard-decision Viterbi over the 64-state trellis with full traceback,
//! with punctured positions treated as erasures (zero branch-metric
//! contribution).

/// Constraint length of the 802.11 code.
pub const CONSTRAINT: usize = 7;
/// Number of trellis states (`2^(K−1)`).
pub const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomial `g0` (octal 133).
pub const G0: u32 = 0o133;
/// Generator polynomial `g1` (octal 171).
pub const G1: u32 = 0o171;

/// Supported puncturing rates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Rate 1/2 (no puncturing) — the rate used throughout the paper.
    Half,
    /// Rate 2/3 (802.11 puncturing pattern).
    TwoThirds,
    /// Rate 3/4 (802.11 puncturing pattern).
    ThreeQuarters,
}

impl CodeRate {
    /// The rate as a fraction `(num, den)` of info bits per coded bit.
    pub fn fraction(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// The rate as an `f64`.
    pub fn as_f64(self) -> f64 {
        let (n, d) = self.fraction();
        n as f64 / d as f64
    }

    /// Puncturing pattern over pairs of rate-1/2 output bits:
    /// `true` = transmit, `false` = puncture. The pattern is indexed as
    /// `[pair][branch]` with branch 0 = g0 output, 1 = g1 output.
    fn pattern(self) -> &'static [[bool; 2]] {
        match self {
            CodeRate::Half => &[[true, true]],
            // 802.11: period 2 input bits → keep A1 B1 A2 (drop B2).
            CodeRate::TwoThirds => &[[true, true], [true, false]],
            // 802.11: period 3 → keep A1 B1 A2 B3 (drop B2, A3).
            CodeRate::ThreeQuarters => &[[true, true], [true, false], [false, true]],
        }
    }
}

/// Encoder/decoder pair for the (133, 171) code at a configurable rate.
#[derive(Clone, Debug)]
pub struct ConvCode {
    rate: CodeRate,
    /// Precomputed outputs: `outputs[state][input] = (bit_g0, bit_g1)`
    /// packed as a 2-bit value.
    outputs: Vec<[u8; 2]>,
}

impl ConvCode {
    /// Builds the code at the given rate.
    pub fn new(rate: CodeRate) -> Self {
        let mut outputs = vec![[0u8; 2]; STATES];
        for (state, out) in outputs.iter_mut().enumerate() {
            for input in 0..2u32 {
                // The shift register holds the K-1 most recent bits; the new
                // bit enters at the MSB side (bit K-1 of the window).
                let window = (input << (CONSTRAINT - 1)) | state as u32;
                let b0 = (window & G0).count_ones() & 1;
                let b1 = (window & G1).count_ones() & 1;
                out[input as usize] = (b0 << 1 | b1) as u8;
            }
        }
        ConvCode { rate, outputs }
    }

    /// The configured rate.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// Number of coded bits produced for `info_len` information bits
    /// (including the 6 zero tail bits that terminate the trellis).
    pub fn coded_len(&self, info_len: usize) -> usize {
        let total_in = info_len + (CONSTRAINT - 1);
        let pattern = self.rate.pattern();
        let mut n = 0usize;
        for i in 0..total_in {
            let p = pattern[i % pattern.len()];
            n += usize::from(p[0]) + usize::from(p[1]);
        }
        n
    }

    /// Encodes information bits (values 0/1), appending `K−1` zero tail bits
    /// so the trellis terminates in state 0.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        let pattern = self.rate.pattern();
        let mut out = Vec::with_capacity(self.coded_len(info.len()));
        let mut state = 0u32;
        for (i, &bit) in info
            .iter()
            .chain(std::iter::repeat_n(&0u8, CONSTRAINT - 1))
            .enumerate()
        {
            debug_assert!(bit <= 1, "encode: bits must be 0/1");
            let pair = self.outputs[state as usize][bit as usize];
            let p = pattern[i % pattern.len()];
            if p[0] {
                out.push(pair >> 1);
            }
            if p[1] {
                out.push(pair & 1);
            }
            state = (state >> 1) | ((bit as u32) << (CONSTRAINT - 2));
        }
        out
    }

    /// Decodes hard bits back to `info_len` information bits via Viterbi.
    ///
    /// `coded` must have exactly `self.coded_len(info_len)` entries.
    /// Returns the maximum-likelihood information sequence under the
    /// binary-symmetric-channel metric (minimum Hamming distance).
    pub fn decode(&self, coded: &[u8], info_len: usize) -> Vec<u8> {
        assert_eq!(
            coded.len(),
            self.coded_len(info_len),
            "decode: wrong coded length"
        );
        let coded = coded.iter().copied();
        self.viterbi(coded, info_len, ERASED, (0, u32::MAX / 2), branch_metric)
    }

    /// The one trellis pass behind [`ConvCode::decode`] and
    /// [`ConvCode::decode_soft`]: depuncture `received` (punctured
    /// positions read as `erased`), add-compare-select over the 64 states
    /// with `cost(output bits, received pair)` as the branch metric, and
    /// trace back from state 0. Path metrics start at `zero` in state 0 and
    /// `unreachable` everywhere else; only a strictly smaller candidate
    /// replaces a survivor, so ties keep the lower predecessor state.
    ///
    /// The callers have checked that `received` yields exactly
    /// `self.coded_len(info_len)` values.
    pub(crate) fn viterbi<R: Copy, M: Copy + PartialOrd + std::ops::Add<Output = M>>(
        &self,
        mut received: impl Iterator<Item = R>,
        info_len: usize,
        erased: R,
        (zero, unreachable): (M, M),
        cost: impl Fn(u8, &[R; 2]) -> M,
    ) -> Vec<u8> {
        let pattern = self.rate.pattern();
        let total_in = info_len + (CONSTRAINT - 1);
        let mut metric = vec![unreachable; STATES];
        metric[0] = zero; // encoder starts in state 0
        let mut next = vec![unreachable; STATES];
        // One survivor byte per (step, state): `(prev_state & 1) << 1 | input`.
        let mut survivors = vec![0u8; total_in * STATES];
        for (i, surv) in survivors.chunks_exact_mut(STATES).enumerate() {
            let pair = pattern[i % pattern.len()]
                .map(|sent| sent.then(|| received.next()).flatten().unwrap_or(erased));
            next.fill(unreachable);
            for (state, &m) in metric.iter().enumerate() {
                if m >= unreachable {
                    continue;
                }
                for input in 0..2usize {
                    let ns = (state >> 1) | (input << (CONSTRAINT - 2));
                    let cand = m + cost(self.outputs[state][input], &pair);
                    if cand < next[ns] {
                        next[ns] = cand;
                        surv[ns] = ((state & 1) << 1 | input) as u8;
                    }
                }
            }
            std::mem::swap(&mut metric, &mut next);
        }
        // Traceback from state 0 (tail bits force termination there).
        let mut state = 0usize;
        let mut decoded = vec![0u8; total_in];
        for t in (0..total_in).rev() {
            let s = survivors[t * STATES + state];
            decoded[t] = s & 1;
            // Invert the state update: state = (prev >> 1) | input<<(K-2).
            state = ((state << 1) & (STATES - 1)) | usize::from((s >> 1) & 1);
        }
        decoded.truncate(info_len);
        decoded
    }
}

/// The hard decoder's erasure mark for a punctured position.
const ERASED: u8 = 255;

/// Hamming branch metric with erasure support (erased positions add 0).
#[inline]
fn branch_metric(out: u8, pair: &[u8; 2]) -> u32 {
    let mut m = 0u32;
    if pair[0] != ERASED {
        m += u32::from((out >> 1) != pair[0]);
    }
    if pair[1] != ERASED {
        m += u32::from((out & 1) != pair[1]);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const RATES: &[CodeRate] = &[CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    #[test]
    fn known_vector_rate_half() {
        // All-zero input encodes to all zeros (linear code).
        let code = ConvCode::new(CodeRate::Half);
        let coded = code.encode(&[0; 10]);
        assert!(coded.iter().all(|&b| b == 0));
        assert_eq!(coded.len(), 2 * (10 + 6));
        // Single 1 at the start produces the impulse response of (133,171):
        // g0 = 1011011, g1 = 1111001 read LSB-first from the polys.
        let coded = code.encode(&[1, 0, 0, 0, 0, 0, 0]);
        let g0_taps: Vec<u8> = (0..7).map(|i| ((G0 >> i) & 1) as u8).collect();
        let g1_taps: Vec<u8> = (0..7).map(|i| ((G1 >> i) & 1) as u8).collect();
        // Bit entering at MSB of window means tap i fires i steps later
        // when reading polynomials from their high bit; reconstruct:
        for t in 0..7 {
            assert_eq!(coded[2 * t], g0_taps[6 - t], "g0 impulse at {t}");
            assert_eq!(coded[2 * t + 1], g1_taps[6 - t], "g1 impulse at {t}");
        }
    }

    #[test]
    fn coded_len_matches_rate() {
        let n = 120;
        for &r in RATES {
            let code = ConvCode::new(r);
            let coded = code.encode(&random_bits(n, 1));
            assert_eq!(coded.len(), code.coded_len(n), "{r:?}");
            // coded_len ≈ (n + 6)/rate.
            let expect = ((n + 6) as f64 / r.as_f64()).round() as usize;
            assert_eq!(coded.len(), expect, "{r:?}");
        }
    }

    #[test]
    fn clean_channel_roundtrip_all_rates() {
        for &r in RATES {
            let code = ConvCode::new(r);
            for seed in 0..4 {
                let info = random_bits(96, seed);
                let coded = code.encode(&info);
                let dec = code.decode(&coded, info.len());
                assert_eq!(dec, info, "{r:?} seed {seed}");
            }
        }
    }

    #[test]
    fn corrects_scattered_errors_rate_half() {
        // Free distance of (133,171) is 10: sparse single errors far apart
        // are always corrected.
        let code = ConvCode::new(CodeRate::Half);
        let info = random_bits(200, 9);
        let mut coded = code.encode(&info);
        for pos in [3usize, 60, 130, 250, 380] {
            coded[pos] ^= 1;
        }
        assert_eq!(code.decode(&coded, info.len()), info);
    }

    #[test]
    fn corrects_errors_at_low_ber() {
        // 1% random BER should decode error-free at rate 1/2 for a short
        // block with overwhelming probability.
        let code = ConvCode::new(CodeRate::Half);
        let mut rng = StdRng::seed_from_u64(33);
        for trial in 0..10 {
            let info = random_bits(300, 100 + trial);
            let mut coded = code.encode(&info);
            for b in coded.iter_mut() {
                if rng.gen::<f64>() < 0.01 {
                    *b ^= 1;
                }
            }
            assert_eq!(code.decode(&coded, info.len()), info, "trial {trial}");
        }
    }

    #[test]
    fn heavy_noise_fails_gracefully() {
        // At 50% BER the decoder cannot succeed, but must return the right
        // length without panicking.
        let code = ConvCode::new(CodeRate::Half);
        let info = random_bits(64, 5);
        let coded: Vec<u8> = random_bits(code.coded_len(64), 6);
        let dec = code.decode(&coded, info.len());
        assert_eq!(dec.len(), 64);
    }

    #[test]
    fn higher_rates_are_less_robust() {
        // At a fixed coded-BER, rate 3/4 must produce at least as many
        // decoding failures as rate 1/2 (sanity on puncturing).
        let mut fails = Vec::new();
        for &r in &[CodeRate::Half, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(r);
            let mut rng = StdRng::seed_from_u64(77);
            let mut f = 0;
            for seed in 0..40 {
                let info = random_bits(120, 500 + seed);
                let mut coded = code.encode(&info);
                for b in coded.iter_mut() {
                    if rng.gen::<f64>() < 0.04 {
                        *b ^= 1;
                    }
                }
                if code.decode(&coded, info.len()) != info {
                    f += 1;
                }
            }
            fails.push(f);
        }
        assert!(
            fails[1] >= fails[0],
            "3/4 fails {} < 1/2 fails {}",
            fails[1],
            fails[0]
        );
        assert!(fails[1] > 0, "3/4 should fail sometimes at 4% BER");
    }

    #[test]
    #[should_panic(expected = "wrong coded length")]
    fn decode_rejects_bad_length() {
        let code = ConvCode::new(CodeRate::Half);
        code.decode(&[0u8; 10], 16);
    }
}
