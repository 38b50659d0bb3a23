//! Soft-decision Viterbi decoding.
//!
//! The paper's future-work direction (§7) is a soft-output FlexCore
//! (\[7, 43\]); the coding side of that pipeline is a Viterbi decoder that
//! consumes per-bit log-likelihood ratios instead of hard decisions. The
//! LLR convention is `llr = log(P(bit = 0) / P(bit = 1))`: positive means
//! "probably 0". Punctured positions carry `llr = 0` (no information) —
//! the same erasure semantics as the hard decoder.

use crate::conv::{label_costs, ConvCode, Received, StepCosts, ViterbiScratch};

/// LLR magnitude clamp: keeps path metrics well-conditioned and mirrors
/// fixed-point detector outputs.
pub(crate) const LLR_CLAMP: f64 = 50.0;

impl ConvCode {
    /// Allocating form of [`ConvCode::decode_soft_into`], for tests.
    #[cfg(test)]
    pub(crate) fn decode_soft(&self, llrs: &[f64], info_len: usize) -> Vec<u8> {
        let (mut scratch, mut decoded) = (ViterbiScratch::default(), Vec::new());
        self.decode_soft_into(llrs, info_len, &mut scratch, &mut decoded);
        decoded
    }

    /// Decodes `info_len` information bits from per-coded-bit LLRs into
    /// caller-owned buffers: `decoded` is overwritten with the bits.
    ///
    /// `llrs` must contain exactly the *transmitted* coded positions (the
    /// same layout [`ConvCode::encode`] emits, after puncturing). Branch
    /// metrics are the max-log path costs `Σ cost(bit_hyp, llr)` with
    /// `cost(0, llr) = max(−llr, 0)` and `cost(1, llr) = max(llr, 0)`, so
    /// a confident LLR penalises the disagreeing hypothesis by |llr|.
    /// LLRs beyond ±`LLR_CLAMP` (50; ±∞ included) clamp to it; a NaN LLR
    /// is an erasure (`0.0`, what a punctured position reads).
    ///
    /// # Panics
    /// Panics if `llrs.len()` differs from the coded length.
    pub fn decode_soft_into(
        &self,
        llrs: &[f64],
        info_len: usize,
        scratch: &mut ViterbiScratch,
        decoded: &mut Vec<u8>,
    ) {
        self.viterbi(llrs, info_len, scratch, decoded)
    }
}

impl Received for f64 {
    type Metric = f64;
    /// LLR 0.0: no information.
    const ERASED: f64 = 0.0;
    const START: (f64, f64) = (0.0, f64::INFINITY);
    const WRONG_LEN: &'static str = "decode_soft: wrong LLR count";
    /// `f64` metrics never overflow, so the pass never shifts them.
    const RENORM_PERIOD: usize = usize::MAX;
    fn costs<'a>(pair: &[f64; 2], buf: &'a mut StepCosts<f64>) -> &'a StepCosts<f64> {
        let pair = pair.map(sanitize_llr);
        label_costs(&[0, 1, 2, 3].map(|out| branch_cost(out, &pair)), buf);
        buf
    }
}

/// The LLR the decoder acts on: NaN erased (`f64::clamp` passes it through,
/// and a NaN path metric would lose every comparison and pick survivors by
/// accident), everything else clamped to ±[`LLR_CLAMP`].
pub(crate) fn sanitize_llr(llr: f64) -> f64 {
    let llr = if llr.is_nan() { 0.0 } else { llr };
    llr.clamp(-LLR_CLAMP, LLR_CLAMP)
}

/// Max-log cost of hypothesising output bits `out` (packed `b0·2 + b1`)
/// against the received LLR pair.
#[inline]
pub(crate) fn branch_cost(out: u8, pair: &[f64; 2]) -> f64 {
    let cost = |bit: u8, llr: f64| -> f64 {
        if bit == 0 {
            (-llr).max(0.0)
        } else {
            llr.max(0.0)
        }
    };
    cost(out >> 1, pair[0]) + cost(out & 1, pair[1])
}

/// Converts hard bits to saturated LLRs: the soft decoder's test input.
#[cfg(test)]
pub(crate) fn hard_to_llr(bits: &[u8]) -> Vec<f64> {
    bits.iter()
        .map(|&b| if b == 0 { LLR_CLAMP } else { -LLR_CLAMP })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::CodeRate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    #[test]
    fn saturated_llrs_match_hard_decoder() {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(rate);
            let info = random_bits(120, 1);
            let coded = code.encode(&info);
            let soft = code.decode_soft(&hard_to_llr(&coded), info.len());
            assert_eq!(soft, info, "{rate:?}");
            // Corrupted words: a saturated LLR costs LLR_CLAMP × the Hamming
            // distance exactly, so the f64 and u32 instantiations of the one
            // trellis pass must agree on every decision, ties and erasures
            // included — whether or not the word is still decodable.
            let mut corrupted = coded;
            corrupted.iter_mut().step_by(17).for_each(|b| *b ^= 1);
            assert_eq!(
                code.decode_soft(&hard_to_llr(&corrupted), info.len()),
                code.decode(&corrupted, info.len()),
                "{rate:?}, corrupted"
            );
        }
    }

    #[test]
    fn weak_llrs_on_flipped_bits_are_recovered() {
        // Flip bits but give them low confidence: the soft decoder should
        // ride over them easily.
        let code = ConvCode::new(CodeRate::Half);
        let info = random_bits(200, 2);
        let coded = code.encode(&info);
        let mut llrs = hard_to_llr(&coded);
        for pos in [5usize, 50, 120, 260, 300] {
            llrs[pos] = if coded[pos] == 0 { -0.5 } else { 0.5 }; // weakly wrong
        }
        assert_eq!(code.decode_soft(&llrs, info.len()), info);
    }

    #[test]
    fn soft_beats_hard_on_gaussian_llrs() {
        // BPSK-over-AWGN style LLRs: soft decoding must produce no more
        // block errors than hard decisions at the same noise level.
        let code = ConvCode::new(CodeRate::Half);
        let mut rng = StdRng::seed_from_u64(3);
        let sigma = 0.9;
        let (mut soft_fail, mut hard_fail) = (0usize, 0usize);
        for seed in 0..30 {
            let info = random_bits(150, 100 + seed);
            let coded = code.encode(&info);
            // Transmit ±1, add noise, LLR = 2r/σ².
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| {
                    let tx = if b == 0 { 1.0 } else { -1.0 };
                    let r = tx + sigma * rng.sample::<f64, _>(rand::distributions::Standard) * 2.0
                        - sigma;
                    2.0 * r / (sigma * sigma)
                })
                .collect();
            let hard: Vec<u8> = llrs.iter().map(|&l| u8::from(l < 0.0)).collect();
            if code.decode_soft(&llrs, info.len()) != info {
                soft_fail += 1;
            }
            if code.decode(&hard, info.len()) != info {
                hard_fail += 1;
            }
        }
        assert!(
            soft_fail <= hard_fail,
            "soft fails {soft_fail} > hard fails {hard_fail}"
        );
    }

    #[test]
    fn nan_llrs_decode_as_erasures() {
        let mut rng = StdRng::seed_from_u64(5);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(rate);
            let info = random_bits(150, 6);
            // Noisy enough that the five positions matter to the survivors.
            let mut erased: Vec<f64> = hard_to_llr(&code.encode(&info))
                .iter()
                .map(|l| l * (rng.gen::<f64>() - 0.2))
                .collect();
            let mut with_nan = erased.clone();
            for pos in [0usize, 7, 64, 65, erased.len() - 1] {
                erased[pos] = 0.0;
                with_nan[pos] = f64::NAN;
            }
            assert_eq!(
                code.decode_soft(&with_nan, info.len()),
                code.decode_soft(&erased, info.len()),
                "{rate:?}"
            );
        }
    }

    #[test]
    fn erasures_from_puncturing_are_neutral() {
        let code = ConvCode::new(CodeRate::ThreeQuarters);
        let info = random_bits(90, 4);
        let coded = code.encode(&info);
        assert_eq!(code.decode_soft(&hard_to_llr(&coded), info.len()), info);
    }

    #[test]
    #[should_panic(expected = "wrong LLR count")]
    fn rejects_bad_length() {
        let code = ConvCode::new(CodeRate::Half);
        code.decode_soft(&[0.0; 10], 16);
    }
}
