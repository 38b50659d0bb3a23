//! Convolutional encoding and Viterbi decoding.
//!
//! The code is the de-facto wireless standard: constraint length `K = 7`,
//! rate 1/2, generators `g0 = 133₈`, `g1 = 171₈` (802.11, LTE control
//! channels, DVB…). Higher rates are obtained by puncturing. Decoding is
//! hard-decision Viterbi over the 64-state trellis with full traceback,
//! with punctured positions treated as erasures (zero branch-metric
//! contribution). The forward pass is a butterfly add-compare-select that
//! keeps one decision *bit* per (step, state) — one `u64` word per step.

use std::hint::select_unpredictable;

/// Constraint length of the 802.11 code.
pub const CONSTRAINT: usize = 7;
/// Number of trellis states (`2^(K−1)`).
pub const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomial `g0` (octal 133).
pub const G0: u32 = 0o133;
/// Generator polynomial `g1` (octal 171).
pub const G1: u32 = 0o171;
/// Butterflies per trellis step: predecessors `2j`, `2j + 1` feed states
/// `j` (input 0) and `j + BUTTERFLIES` (input 1).
const BUTTERFLIES: usize = STATES / 2;

/// The encoder's output pair leaving `state` on `input`, packed `g0·2 + g1`.
const fn output_pair(state: usize, input: usize) -> u8 {
    // The shift register holds the K-1 most recent bits; the new bit
    // enters at the MSB side (bit K-1 of the window).
    let window = ((input << (CONSTRAINT - 1)) | state) as u32;
    (((window & G0).count_ones() & 1) << 1 | (window & G1).count_ones() & 1) as u8
}

/// `LABELS[j]` = the output pair on butterfly `j`'s straight edges
/// (`2j → j`, `2j + 1 → j + 32`). Both generators tap the oldest and the
/// newest register bit, so its cross edges carry the complement, `3 − l`.
const LABELS: [u8; BUTTERFLIES] = {
    let mut labels = [0u8; BUTTERFLIES];
    let mut j = 0;
    while j < BUTTERFLIES {
        let l = output_pair(2 * j, 0);
        assert!(output_pair(2 * j + 1, 1) == l);
        assert!(output_pair(2 * j + 1, 0) == 3 - l && output_pair(2 * j, 1) == 3 - l);
        labels[j] = l;
        j += 1;
    }
    labels
};

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
}

/// Reusable storage for [`ConvCode::decode_into`] and
/// [`ConvCode::decode_soft_into`]: one decision word per trellis step
/// (bit `s` set iff state `s` kept its odd predecessor). Once it has seen
/// a packet length, decoding that length again allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ViterbiScratch {
    decisions: Vec<u64>,
}

impl ConvCode {
    /// Builds the code at the given rate.
    pub fn new(rate: CodeRate) -> Self {
        ConvCode { rate }
    }

    /// The configured rate.
    pub fn rate(&self) -> CodeRate {
        self.rate
    }

    /// Number of coded bits produced for `info_len` information bits
    /// (including the 6 zero tail bits that terminate the trellis).
    pub fn coded_len(&self, info_len: usize) -> usize {
        let sent = self.rate.pattern().iter().cycle();
        let sent = sent.take(info_len + (CONSTRAINT - 1)).flatten();
        sent.filter(|&&sent| sent).count()
    }

    /// Encodes information bits (values 0/1), appending `K−1` zero tail bits
    /// so the trellis terminates in state 0.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.coded_len(info.len()));
        let mut state = 0u32;
        let bits = info.iter().chain(std::iter::repeat_n(&0u8, CONSTRAINT - 1));
        for (&bit, p) in bits.zip(self.rate.pattern().iter().cycle()) {
            debug_assert!(bit <= 1, "encode: bits must be 0/1");
            let pair = output_pair(state as usize, usize::from(bit));
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
        let (mut scratch, mut decoded) = (ViterbiScratch::default(), Vec::new());
        self.decode_into(coded, info_len, &mut scratch, &mut decoded);
        decoded
    }

    /// [`ConvCode::decode`] into caller-owned buffers: `decoded` is
    /// overwritten with the `info_len` information bits.
    pub fn decode_into(
        &self,
        coded: &[u8],
        info_len: usize,
        scratch: &mut ViterbiScratch,
        decoded: &mut Vec<u8>,
    ) {
        self.viterbi(coded, info_len, scratch, decoded)
    }

    /// The one trellis pass behind [`ConvCode::decode`] and
    /// [`ConvCode::decode_soft`]: depuncture `received` (punctured
    /// positions read as [`Received::ERASED`]), butterfly
    /// add-compare-select over the 64 states with [`Received::costs`] as
    /// the branch metrics, and trace back from state 0. A state keeps its
    /// odd predecessor only on a strictly smaller metric, so ties keep the
    /// even (lower) one.
    ///
    /// An unreachable state's metric drifts upwards from its start value
    /// (by at most one branch cost per step for the six steps until every
    /// state is reachable — `u32::MAX / 2` cannot wrap, `∞` stays `∞`) and
    /// its decision bit is arbitrary, but a reachable state's survivor is
    /// always reachable, so no such bit is on the path traced from state 0.
    pub(crate) fn viterbi<R: Received>(
        &self,
        received: &[R],
        info_len: usize,
        scratch: &mut ViterbiScratch,
        decoded: &mut Vec<u8>,
    ) {
        assert_eq!(received.len(), self.coded_len(info_len), "{}", R::WRONG_LEN);
        let total_in = info_len + (CONSTRAINT - 1);
        let mut metric = [R::START.1; STATES];
        metric[0] = R::START.0; // encoder starts in state 0
        let mut next = metric;
        scratch.decisions.clear();
        scratch.decisions.resize(total_in, 0);
        let mut pos = 0;
        let pattern = self.rate.pattern().iter().cycle();
        for (decision, sent) in scratch.decisions.iter_mut().zip(pattern) {
            // flexcore-lint: hot-path
            let pair = sent.map(|sent| {
                let value = if sent { received[pos] } else { R::ERASED };
                pos += usize::from(sent);
                value
            });
            *decision = acs_step(&metric, &R::costs(&pair), &mut next);
            std::mem::swap(&mut metric, &mut next);
        }
        // Traceback from state 0 (tail bits force termination there): the
        // input bit is the state's top bit, the predecessor's low bit is
        // the decision bit.
        let mut state = 0usize;
        decoded.clear();
        decoded.resize(total_in, 0);
        for (bit, &decision) in decoded.iter_mut().zip(&scratch.decisions).rev() {
            *bit = (state >> (CONSTRAINT - 2)) as u8;
            state = ((state << 1) & (STATES - 1)) | (decision >> state & 1) as usize;
        }
        decoded.truncate(info_len);
    }
}

/// One trellis step: every state's two candidate metrics from `metric` and
/// the four branch `costs` (indexed by output pair), the smaller one into
/// `next`, and the step's decision word (bit `s` set iff state `s` took
/// its odd predecessor, i.e. iff `odd < even` strictly).
///
/// Never inlined so CI can disassemble the `u32` instantiation and fail if
/// it stops compiling to packed min.
#[inline(never)]
fn acs_step<M: Copy + PartialOrd + std::ops::Add<Output = M>>(
    metric: &[M; STATES],
    costs: &[M; 4],
    next: &mut [M; STATES],
) -> u64 {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    // A butterfly's cost per edge, by select (a plain table index compiles
    // to scalar loads): `straight` on the edges labelled `LABELS[j]`,
    // `cross` on the complement-labelled ones.
    let pick = |label: u8| {
        let lo = select_unpredictable(label & 2 == 0, costs[0], costs[2]);
        let hi = select_unpredictable(label & 2 == 0, costs[1], costs[3]);
        select_unpredictable(label & 1 == 0, lo, hi)
    };
    let mut word = 0u64;
    for (j, &label) in LABELS.iter().enumerate() {
        let (straight, cross) = (pick(label), pick(3 - label));
        let (even, odd) = (metric[2 * j], metric[2 * j + 1]);
        let (even0, odd0) = (even + straight, odd + cross);
        let (even1, odd1) = (even + cross, odd + straight);
        next[j] = if odd0 < even0 { odd0 } else { even0 };
        next[j + BUTTERFLIES] = if odd1 < even1 { odd1 } else { even1 };
        word |= u64::from(odd0 < even0) << j | u64::from(odd1 < even1) << (j + BUTTERFLIES);
    }
    word
}

/// A received coded position the trellis pass decodes from: a hard bit
/// (`u8`) or an LLR (`f64`, in [`crate::soft`]).
pub(crate) trait Received: Copy {
    /// The path metric its branch costs add up in.
    type Metric: Copy + PartialOrd + std::ops::Add<Output = Self::Metric>;
    /// What a punctured position reads as: no cost either way.
    const ERASED: Self;
    /// The path metrics before the first step: state 0's, every other's.
    const START: (Self::Metric, Self::Metric);
    /// The panic message for a stream that is not `coded_len` long.
    const WRONG_LEN: &'static str;
    /// Branch cost of each output pair (`g0·2 + g1`) against `pair`.
    fn costs(pair: &[Self; 2]) -> [Self::Metric; 4];
}

impl Received for u8 {
    type Metric = u32;
    const ERASED: u8 = 255;
    const START: (u32, u32) = (0, u32::MAX / 2);
    const WRONG_LEN: &'static str = "decode: wrong coded length";
    fn costs(pair: &[u8; 2]) -> [u32; 4] {
        [0, 1, 2, 3].map(|out| branch_metric(out, pair))
    }
}

/// Hamming branch metric with erasure support (erased positions add 0).
#[inline]
fn branch_metric(out: u8, pair: &[u8; 2]) -> u32 {
    let mut m = 0u32;
    if pair[0] != u8::ERASED {
        m += u32::from((out >> 1) != pair[0]);
    }
    if pair[1] != u8::ERASED {
        m += u32::from((out & 1) != pair[1]);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft::{branch_cost, hard_to_llr, sanitize_llr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const RATES: &[CodeRate] = &[CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    fn random_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    impl ConvCode {
        /// The parent commit's forward "scatter" pass, kept verbatim (bar
        /// `output_pair` replacing its table) as the oracle the butterfly
        /// pass must match bit for bit.
        #[allow(clippy::needless_range_loop)] // verbatim, not restyled
        fn viterbi_scatter<R: Copy, M: Copy + PartialOrd + std::ops::Add<Output = M>>(
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
                        let cand = m + cost(output_pair(state, input), &pair);
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

        fn scatter_hard(&self, coded: &[u8], info_len: usize) -> Vec<u8> {
            let coded = coded.iter().copied();
            self.viterbi_scatter(coded, info_len, u8::ERASED, u8::START, branch_metric)
        }

        fn scatter_soft(&self, llrs: &[f64], info_len: usize) -> Vec<u8> {
            let llrs = llrs.iter().map(|&l| sanitize_llr(l));
            self.viterbi_scatter(llrs, info_len, f64::ERASED, f64::START, branch_cost)
        }
    }

    /// Asserts both instantiations of the pass against the scatter oracle,
    /// through one scratch shared by every word the caller checks.
    fn assert_matches_scatter(
        code: &ConvCode,
        (bits, llrs): (&[u8], &[f64]),
        info_len: usize,
        scratch: &mut ViterbiScratch,
        what: &str,
    ) {
        let mut decoded = Vec::new();
        code.decode_into(bits, info_len, scratch, &mut decoded);
        assert_eq!(decoded, code.scatter_hard(bits, info_len), "hard, {what}");
        assert_eq!(
            decoded,
            code.decode(bits, info_len),
            "fresh scratch, {what}"
        );
        code.decode_soft_into(llrs, info_len, scratch, &mut decoded);
        assert_eq!(decoded, code.scatter_soft(llrs, info_len), "soft, {what}");
        assert_eq!(
            decoded,
            code.decode_soft(llrs, info_len),
            "fresh scratch, {what}"
        );
    }

    #[test]
    fn butterfly_pass_equals_the_scatter_pass() {
        // One scratch across every rate, length and noise level, so a stale
        // decision word from a longer packet would show.
        let mut scratch = ViterbiScratch::default();
        for &rate in RATES {
            let code = ConvCode::new(rate);
            for info_len in [1usize, 2, 5, 6, 7, 63, 64, 240, 400] {
                for flip in [0.0, 0.01, 0.06, 0.2, 0.5] {
                    for seed in 0..20u64 {
                        let mut rng = StdRng::seed_from_u64(seed * 1000 + info_len as u64);
                        let mut bits = code.encode(&random_bits(info_len, seed));
                        bits.iter_mut()
                            .for_each(|b| *b ^= u8::from(rng.gen::<f64>() < flip));
                        // Noisy LLRs on a coarse grid, so equal path
                        // metrics (ties) are common in f64 too.
                        let llrs: Vec<f64> = bits
                            .iter()
                            .map(|&b| f64::from(rng.gen_range(-3..=8i32)) * (0.5 - f64::from(b)))
                            .collect();
                        let what = format!("{rate:?} n={info_len} flip={flip} seed={seed}");
                        assert_matches_scatter(
                            &code,
                            (&bits, &llrs),
                            info_len,
                            &mut scratch,
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn butterfly_pass_equals_the_scatter_pass_on_ties() {
        let mut scratch = ViterbiScratch::default();
        for &rate in RATES {
            let code = ConvCode::new(rate);
            for info_len in [1usize, 7, 64, 240] {
                let n = code.coded_len(info_len);
                let sent = code.encode(&random_bits(info_len, 3));
                // Nothing known at all: every path ties at every step.
                let zeros = vec![0.0; n];
                assert_matches_scatter(&code, (&sent, &zeros), info_len, &mut scratch, "all-zero");
                // The last nine positions erased outright (at rate 3/4 on top
                // of the punctured ones), and saturated words (every cost a
                // multiple of LLR_CLAMP).
                let mut tail_erased = hard_to_llr(&sent);
                tail_erased[n.saturating_sub(9)..].fill(0.0);
                let mut flipped = sent.clone();
                flipped.iter_mut().step_by(5).for_each(|b| *b ^= 1);
                let what = format!("{rate:?} n={info_len} erased tail / saturated");
                assert_matches_scatter(
                    &code,
                    (&flipped, &tail_erased),
                    info_len,
                    &mut scratch,
                    &what,
                );
                let saturated = hard_to_llr(&flipped);
                assert_matches_scatter(&code, (&sent, &saturated), info_len, &mut scratch, &what);
                // Non-finite LLRs: ±∞ clamp, NaN erases.
                let mut wild = saturated;
                wild.iter_mut().step_by(7).for_each(|l| *l *= f64::INFINITY);
                wild.iter_mut().step_by(11).for_each(|l| *l = f64::NAN);
                assert_matches_scatter(&code, (&flipped, &wild), info_len, &mut scratch, &what);
            }
        }
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
