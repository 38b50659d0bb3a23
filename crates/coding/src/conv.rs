//! Convolutional encoding and Viterbi decoding.
//!
//! The code is the de-facto wireless standard: constraint length `K = 7`,
//! rate 1/2, generators `g0 = 133₈`, `g1 = 171₈` (802.11, LTE control
//! channels, DVB…). Higher rates are obtained by puncturing. Decoding is
//! hard-decision Viterbi over the 64-state trellis with full traceback,
//! with punctured positions treated as erasures (zero branch-metric
//! contribution). The forward pass is a butterfly add-compare-select over
//! per-step branch-cost vectors that keeps one decision byte per
//! (step, state); the hard decoder carries 8-bit path metrics,
//! renormalised every [`Received::RENORM_PERIOD`] steps so that any packet
//! length fits, which is what lets one step run as two 32-lane byte
//! vectors.

use std::hint::select_unpredictable;

/// Constraint length of the 802.11 code.
pub(crate) const CONSTRAINT: usize = 7;
/// Number of trellis states (`2^(K−1)`).
pub(crate) const STATES: usize = 1 << (CONSTRAINT - 1);
/// Generator polynomial `g0` (octal 133).
pub(crate) const G0: u32 = 0o133;
/// Generator polynomial `g1` (octal 171).
pub(crate) const G1: u32 = 0o171;
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

/// `PAIRS[window]` = the output pair of the 7-bit encoder window
/// `input << 6 | state`; the next state is `window >> 1`.
const PAIRS: [u8; 2 * STATES] = {
    let mut pairs = [0u8; 2 * STATES];
    let mut window = 0;
    while window < 2 * STATES {
        pairs[window] = output_pair(window % STATES, window / STATES);
        window += 1;
    }
    pairs
};

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

/// The butterfly a step computes in lane `i`: `rev5(i)`, the one whose
/// predecessors sit at positions `i` and `i + 32` of the bit-reversed
/// metric layout (see [`forward`]).
const fn lane_butterfly(i: usize) -> usize {
    ((i as u32).reverse_bits() >> (32 - (CONSTRAINT - 2))) as usize
}

/// `LANE_LABELS[i]` = the straight label of lane `i`'s butterfly.
const LANE_LABELS: [u8; BUTTERFLIES] = {
    let mut labels = [0u8; BUTTERFLIES];
    let mut i = 0;
    while i < BUTTERFLIES {
        labels[i] = LABELS[lane_butterfly(i)];
        i += 1;
    }
    labels
};

/// One trellis step's branch costs: `[straight, cross]`, one entry per
/// lane (the label of butterfly [`lane_butterfly`]`(i)`, and its
/// complement).
pub(crate) type StepCosts<M> = [[M; BUTTERFLIES]; 2];

/// The hard decoder's step costs for every received pair, indexed
/// `3·r0 + r1` with `r ∈ {0, 1, 2 = erased}`: Hamming distance to each
/// lane's straight label and to its complement, an erased position
/// adding 0 either way.
const HARD_COSTS: [StepCosts<u8>; 9] = {
    let mut table = [[[0u8; BUTTERFLIES]; 2]; 9];
    let mut r = 0;
    while r < 9 {
        let mut j = 0;
        while j < BUTTERFLIES {
            let l = LANE_LABELS[j];
            table[r][0][j] = hamming(l, r / 3, r % 3);
            table[r][1][j] = hamming(3 - l, r / 3, r % 3);
            j += 1;
        }
        r += 1;
    }
    table
};

/// Hamming distance of output pair `out` to the received `(r0, r1)`, each
/// 0, 1 or 2 (erased, no cost).
const fn hamming(out: u8, r0: usize, r1: usize) -> u8 {
    miss(out >> 1, r0) + miss(out & 1, r1)
}

/// 1 iff the received `r` (0, 1 or 2 = erased) is a bit other than `bit`.
const fn miss(bit: u8, r: usize) -> u8 {
    (r < 2 && bit as usize != r) as u8
}

/// The hard decoder's unreachable start metric. A step costs 0–2, so
/// during the `K − 1` steps before every state is reachable a reachable
/// metric stays ≤ `2·(K − 1)` = 12 while an unreachable one only grows
/// from here: no unreachable candidate ever beats a reachable one.
const HARD_UNREACHABLE: u8 = 64;

/// Trellis steps between two renormalisations of the 8-bit metrics. Once
/// every state is reachable the metrics span at most `2·(K − 1)` = 12 (any
/// state is `K − 1` steps of at most 2 each from the best), and the best
/// grows by at most 2 a step, so every metric stays ≤
/// `HARD_UNREACHABLE + 12 + 2·HARD_RENORM_PERIOD` = 204 < 256 between two
/// renormalisations.
const HARD_RENORM_PERIOD: usize = 64;
const _: () = assert!(
    HARD_UNREACHABLE as usize + 2 * (CONSTRAINT - 1) + 2 * HARD_RENORM_PERIOD <= u8::MAX as usize
);

/// A decision byte's value when its state took its odd predecessor: the
/// decision bit pre-shifted to where the traceback merges it.
const ODD: u8 = 1 << 4;

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
    pub(crate) fn fraction(self) -> (usize, usize) {
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
/// [`ConvCode::decode_soft_into`]: one decision row per trellis step of
/// the longest packet seen, a byte per state. Once it
/// has seen a packet length, decoding that length or a shorter one again
/// allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ViterbiScratch {
    decisions: Vec<[u8; STATES]>,
}

impl ConvCode {
    /// Builds the code at the given rate.
    pub fn new(rate: CodeRate) -> Self {
        ConvCode { rate }
    }

    /// Number of coded bits produced for `info_len` information bits
    /// (including the 6 zero tail bits that terminate the trellis).
    pub fn coded_len(&self, info_len: usize) -> usize {
        // Whole puncturing periods, then the first steps of one more.
        let pattern = self.rate.pattern();
        let sent = |pairs: &[[bool; 2]]| pairs.iter().flatten().filter(|&&sent| sent).count();
        let steps = info_len + (CONSTRAINT - 1);
        steps / pattern.len() * sent(pattern) + sent(&pattern[..steps % pattern.len()])
    }

    /// Encodes information bits (values 0/1), appending `K−1` zero tail bits
    /// so the trellis terminates in state 0.
    pub fn encode(&self, info: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(info, &mut out);
        out
    }

    /// [`ConvCode::encode`] into a caller-owned buffer, which is
    /// overwritten with the `coded_len(info.len())` coded bits: one
    /// table lookup per input bit. The buffer holds the unpunctured
    /// pairs first, so once it has encoded a length it allocates nothing
    /// for that length again.
    pub fn encode_into(&self, info: &[u8], out: &mut Vec<u8>) {
        // Every rate-1/2 pair in place, then the punctured positions
        // squeezed out.
        out.clear();
        out.resize(2 * (info.len() + CONSTRAINT - 1), 0);
        let mut window = 0usize;
        let bits = info.iter().chain(&[0; CONSTRAINT - 1]);
        for (pair, &bit) in out.chunks_exact_mut(2).zip(bits) {
            debug_assert!(bit <= 1, "encode: bits must be 0/1");
            window = (window >> 1) | usize::from(bit & 1) << (CONSTRAINT - 1);
            let out = PAIRS[window];
            pair.copy_from_slice(&[out >> 1, out & 1]);
        }
        let pattern = self.rate.pattern();
        if pattern.len() > 1 {
            let sent = pattern.iter().flatten().cycle();
            let mut kept = 0;
            for (k, &sent) in (0..out.len()).zip(sent) {
                out[kept] = out[k];
                kept += usize::from(sent);
            }
            out.truncate(kept);
        }
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
    /// [`ConvCode::decode_soft`]: the forward pass ([`forward`]) over
    /// `received`, then a traceback from state 0 through its decisions.
    pub(crate) fn viterbi<R: Received>(
        &self,
        received: &[R],
        info_len: usize,
        scratch: &mut ViterbiScratch,
        decoded: &mut Vec<u8>,
    ) {
        assert_eq!(received.len(), self.coded_len(info_len), "{}", R::WRONG_LEN);
        let total_in = info_len + (CONSTRAINT - 1);
        // Every row is overwritten, so a longer scratch is only cut short.
        if scratch.decisions.len() < total_in {
            scratch.decisions.resize(total_in, [0; STATES]);
        }
        let decisions = &mut scratch.decisions[..total_in];
        forward(self.rate.pattern(), received, decisions);
        // Traceback from state 0 (tail bits force termination there), in
        // positions of the bit-reversed layout: position `p` holds state
        // `rev6(p)`, whose top bit — the input — is `p`'s low bit, whose
        // decision is byte `q = rotr1(p)` of its step's row, and whose
        // predecessor (shifted up, the decision as low bit) sits at
        // `p >> 1 | decision << 5`. The walk carries `q` itself: the input
        // is `q`'s top bit, and the predecessor's `q` is
        // `(q >> 1) & 15 | decision << 4 | (q & 1) << 5`. A decision byte
        // is already `decision << 4` ([`ODD`]), so each step's dependency
        // chain is one load and one merge.
        let mut q = 0usize;
        decoded.clear();
        decoded.resize(total_in, 0);
        for (bit, decision) in decoded.iter_mut().zip(decisions.iter()).rev() {
            *bit = (q >> (CONSTRAINT - 2)) as u8;
            q = (q >> 1 & 15) | (q & 1) << (CONSTRAINT - 2) | usize::from(decision[q]);
        }
        decoded.truncate(info_len);
    }
}

/// The forward pass: depuncture `received` by `pattern` (punctured
/// positions read as [`Received::ERASED`]; at rate 1/2, which punctures
/// nothing, `received` is read pair by pair with no per-step pattern
/// logic, which took about a quarter off a rate-1/2 decode), then one butterfly
/// add-compare-select ([`acs_step`]) per step with [`Received::costs`] as
/// the branch metrics, one row of `decisions` per step. A state keeps its
/// odd predecessor only on a strictly smaller metric, so ties keep the
/// even (lower) one. The metrics are a value carried from step to step —
/// registers, not a buffer a step stores and the next reloads — and
/// every [`Received::RENORM_PERIOD`] steps [`Received::renormalise`]
/// shifts them all by one common amount, which moves no comparison.
///
/// The metrics are laid out by bit-reversed state (position `p` holds
/// state `rev6(p)`): the successors of states `2j`, `2j + 1` are `j`,
/// `j + 32`, and in this layout the predecessors of lane `i` are the two
/// halves' `i`-th entries while its successors land side by side at
/// `2i`, `2i + 1`. A step then reads whole vectors and interleaves its
/// output once, where the natural layout must deinterleave its input.
///
/// An unreachable state's metric drifts upwards from its start value
/// (by at most one branch cost per step for the six steps until every
/// state is reachable — the start values cannot wrap (see
/// [`HARD_RENORM_PERIOD`]), `∞` stays `∞`) and
/// its decision is arbitrary, but a reachable state's survivor is always
/// reachable, so no such decision is on the path traced from state 0.
///
/// Never inlined so CI can disassemble the hard (`u8`) instantiation,
/// which holds the step, and fail if it stops compiling to packed 8-bit
/// unsigned min.
#[inline(never)]
fn forward<R: Received>(pattern: &[[bool; 2]], received: &[R], decisions: &mut [[u8; STATES]]) {
    if let [[true, true]] = pattern {
        // Rate 1/2 punctures nothing: every step reads the next pair.
        trellis(received.as_chunks().0.iter().copied(), decisions);
    } else {
        let mut pos = 0;
        let pairs = pattern.iter().cycle().map(|sent| {
            sent.map(|sent| {
                let value = if sent { received[pos] } else { R::ERASED };
                pos += usize::from(sent);
                value
            })
        });
        trellis(pairs, decisions);
    }
}

/// [`forward`]'s trellis over the depunctured received `pairs`, one per
/// row of `decisions`.
#[inline(always)]
fn trellis<R: Received>(mut pairs: impl Iterator<Item = [R; 2]>, decisions: &mut [[u8; STATES]]) {
    let mut metric = [R::START.1; STATES];
    metric[0] = R::START.0; // encoder starts in state 0
    let mut costs = [[R::START.0; BUTTERFLIES]; 2];
    for chunk in decisions.chunks_mut(R::RENORM_PERIOD) {
        metric = R::renormalise(metric);
        for (decision, pair) in chunk.iter_mut().zip(&mut pairs) {
            // flexcore-lint: hot-path
            metric = acs_step(&metric, R::costs(&pair, &mut costs), decision);
        }
    }
}

/// One trellis step in the bit-reversed layout: every state's two
/// candidate metrics from `metric` and the step's branch `costs`, the
/// smaller one into the returned metrics, and the step's decisions
/// ([`ODD`] iff the state took its odd predecessor, i.e. iff `odd < even`
/// strictly, else 0): lane `i`'s successor at position `2i` decides into byte
/// `i`, the one at `2i + 1` into byte `i + 32`. Decisions are bytes, not
/// bits: a bit-packed decision word made LLVM pick a vector width for the
/// 32-bit word and halve every metric lane.
#[inline(always)]
fn acs_step<M: Copy + PartialOrd + std::ops::Add<Output = M>>(
    metric: &[M; STATES],
    [straight, cross]: &StepCosts<M>,
    decision: &mut [u8; STATES],
) -> [M; STATES] {
    // flexcore-lint: scalar-twin = acs_step_parent
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let (mut to_low, mut to_high) = ([metric[0]; BUTTERFLIES], [metric[0]; BUTTERFLIES]);
    for i in 0..BUTTERFLIES {
        let (even, odd) = (metric[i], metric[i + BUTTERFLIES]);
        let (even0, odd0) = (even + straight[i], odd + cross[i]);
        let (even1, odd1) = (even + cross[i], odd + straight[i]);
        to_low[i] = if odd0 < even0 { odd0 } else { even0 };
        to_high[i] = if odd1 < even1 { odd1 } else { even1 };
        decision[i] = ODD * u8::from(odd0 < even0);
        decision[i + BUTTERFLIES] = ODD * u8::from(odd1 < even1);
    }
    let mut next = *metric;
    for i in 0..BUTTERFLIES {
        next[2 * i] = to_low[i];
        next[2 * i + 1] = to_high[i];
    }
    next
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
    /// The step's branch costs against `pair`: each lane's straight
    /// label and its complement, written into `buf` or borrowed from a
    /// table.
    fn costs<'a>(
        pair: &[Self; 2],
        buf: &'a mut StepCosts<Self::Metric>,
    ) -> &'a StepCosts<Self::Metric>;
    /// Trellis steps between two [`Received::renormalise`] calls.
    const RENORM_PERIOD: usize;
    /// Shifts every metric down by one common amount (or leaves them be)
    /// so the next [`Received::RENORM_PERIOD`] steps cannot overflow.
    #[inline(always)]
    fn renormalise(metric: [Self::Metric; STATES]) -> [Self::Metric; STATES] {
        metric
    }
}

impl Received for u8 {
    type Metric = u8;
    const ERASED: u8 = 255;
    const START: (u8, u8) = (0, HARD_UNREACHABLE);
    const WRONG_LEN: &'static str = "decode: wrong coded length";
    const RENORM_PERIOD: usize = HARD_RENORM_PERIOD;
    fn costs<'a>(pair: &[u8; 2], _: &'a mut StepCosts<u8>) -> &'a StepCosts<u8> {
        // 0 and 1 index themselves, the erasure (and any non-bit, which
        // costs every label alike) reads as 2.
        let [r0, r1] = pair.map(|r| usize::from(r.min(2)));
        &HARD_COSTS[3 * r0 + r1]
    }
    #[inline(always)]
    fn renormalise(metric: [u8; STATES]) -> [u8; STATES] {
        let best = metric.iter().copied().fold(u8::MAX, u8::min);
        metric.map(|m| m - best)
    }
}

/// Per-lane costs from the four output-pair costs `costs[g0·2 + g1]`,
/// picked by select against the constant lane labels (an index into
/// `costs` compiles to one scalar load per lane).
pub(crate) fn label_costs<M: Copy>(costs: &[M; 4], out: &mut StepCosts<M>) {
    let pick = |label: u8| {
        let lo = select_unpredictable(label & 2 == 0, costs[0], costs[2]);
        let hi = select_unpredictable(label & 2 == 0, costs[1], costs[3]);
        select_unpredictable(label & 1 == 0, lo, hi)
    };
    for (i, &label) in LANE_LABELS.iter().enumerate() {
        out[0][i] = pick(label);
        out[1][i] = pick(3 - label);
    }
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

    /// Hamming branch metric with erasure support (erased positions add 0).
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

    /// What the parent commit's trellis pass decoded from: `u32` Hamming
    /// metrics for hard bits, and the soft decoder's own costs for LLRs.
    trait ParentReceived: Received {
        type Wide: Copy + PartialOrd + std::ops::Add<Output = Self::Wide>;
        const WIDE_START: (Self::Wide, Self::Wide);
        fn wide_costs(pair: &[Self; 2]) -> [Self::Wide; 4];
    }

    impl ParentReceived for u8 {
        type Wide = u32;
        const WIDE_START: (u32, u32) = (0, u32::MAX / 2);
        fn wide_costs(pair: &[u8; 2]) -> [u32; 4] {
            [0, 1, 2, 3].map(|out| branch_metric(out, pair))
        }
    }

    impl ParentReceived for f64 {
        type Wide = f64;
        const WIDE_START: (f64, f64) = (0.0, f64::INFINITY);
        fn wide_costs(pair: &[f64; 2]) -> [f64; 4] {
            let pair = pair.map(sanitize_llr);
            [0, 1, 2, 3].map(|out| branch_cost(out, &pair))
        }
    }

    /// The parent commit's add-compare-select step, verbatim: 32-bit hard
    /// metrics, the branch cost picked per butterfly by select, one
    /// decision bit per state.
    fn acs_step_parent<M: Copy + PartialOrd + std::ops::Add<Output = M>>(
        metric: &[M; STATES],
        costs: &[M; 4],
        next: &mut [M; STATES],
    ) -> u64 {
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

    impl ConvCode {
        /// The parent commit's trellis pass over [`acs_step_parent`]: no
        /// renormalisation, a `swap` per step, a decision word per step.
        fn viterbi_parent<R: ParentReceived>(&self, received: &[R], info_len: usize) -> Vec<u8> {
            assert_eq!(received.len(), self.coded_len(info_len));
            let total_in = info_len + (CONSTRAINT - 1);
            let mut metric = [R::WIDE_START.1; STATES];
            metric[0] = R::WIDE_START.0;
            let mut next = metric;
            let mut decisions = vec![0u64; total_in];
            let mut pos = 0;
            let pattern = self.rate.pattern().iter().cycle();
            for (decision, sent) in decisions.iter_mut().zip(pattern) {
                let pair = sent.map(|sent| {
                    let value = if sent { received[pos] } else { R::ERASED };
                    pos += usize::from(sent);
                    value
                });
                *decision = acs_step_parent(&metric, &R::wide_costs(&pair), &mut next);
                std::mem::swap(&mut metric, &mut next);
            }
            let mut state = 0usize;
            let mut decoded = vec![0u8; total_in];
            for (bit, &decision) in decoded.iter_mut().zip(&decisions).rev() {
                *bit = (state >> (CONSTRAINT - 2)) as u8;
                state = ((state << 1) & (STATES - 1)) | (decision >> state & 1) as usize;
            }
            decoded.truncate(info_len);
            decoded
        }
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
            self.viterbi_scatter(coded, info_len, u8::ERASED, u8::WIDE_START, branch_metric)
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

    /// Information lengths whose trellis (`info_len + K − 1` steps) ends
    /// one step before, on and one step after a renormalisation, and the
    /// same counts as information lengths.
    fn around_the_period(period: usize) -> [usize; 6] {
        let steps = period - (CONSTRAINT - 1);
        [steps - 1, steps, steps + 1, period - 1, period, period + 1]
    }

    #[test]
    fn eight_bit_pass_equals_the_u32_twin() {
        // The renormalised 8-bit pass against the parent's unrenormalised
        // 32-bit one, bit for bit, through one shared scratch: every rate
        // (punctured positions as erasures), 0–10 % flips, lengths across
        // and far past the renormalisation period, and the soft pass on the
        // same words.
        let mut scratch = ViterbiScratch::default();
        let mut decoded = Vec::new();
        let p = HARD_RENORM_PERIOD;
        let lengths = [1usize, 2, 6, 7, 240, 3 * p + 1, 1000, 20_000];
        for &rate in RATES {
            let code = ConvCode::new(rate);
            for info_len in lengths.into_iter().chain(around_the_period(p)) {
                for flip in [0.0, 0.02, 0.05, 0.1] {
                    let seed = info_len as u64 * 31 + (flip * 100.0) as u64;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut bits = code.encode(&random_bits(info_len, seed));
                    bits.iter_mut()
                        .for_each(|b| *b ^= u8::from(rng.gen::<f64>() < flip));
                    let what = format!("{rate:?} n={info_len} flip={flip}");
                    code.decode_into(&bits, info_len, &mut scratch, &mut decoded);
                    assert_eq!(decoded, code.viterbi_parent(&bits, info_len), "{what}");
                    let llrs: Vec<f64> = bits
                        .iter()
                        .map(|&b| f64::from(rng.gen_range(-3..=8i32)) * (0.5 - f64::from(b)))
                        .collect();
                    code.decode_soft_into(&llrs, info_len, &mut scratch, &mut decoded);
                    assert_eq!(
                        decoded,
                        code.viterbi_parent(&llrs, info_len),
                        "soft, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn eight_bit_pass_equals_the_u32_twin_on_worst_case_growth() {
        // Words far from every codeword make the best metric grow fastest:
        // every coded bit flipped, coin-flip noise, and a word of ones, at
        // every rate (rate 3/4's punctured positions erased), from one step
        // to three and more renormalisation periods.
        let mut scratch = ViterbiScratch::default();
        let mut decoded = Vec::new();
        let p = HARD_RENORM_PERIOD;
        for &rate in RATES {
            let code = ConvCode::new(rate);
            let lengths = [1usize, 300, 3 * p + 1, 10 * p, 32_769];
            for info_len in lengths.into_iter().chain(around_the_period(p)) {
                let n = code.coded_len(info_len);
                let mut flipped = code.encode(&random_bits(info_len, 8));
                flipped.iter_mut().for_each(|b| *b ^= 1);
                for (word, what) in [
                    (flipped, "all flipped"),
                    (random_bits(n, 9 + info_len as u64), "coin flips"),
                    (vec![1u8; n], "all ones"),
                ] {
                    code.decode_into(&word, info_len, &mut scratch, &mut decoded);
                    let want = code.viterbi_parent(&word, info_len);
                    assert_eq!(decoded, want, "{rate:?} n={info_len} {what}");
                }
            }
        }
    }

    #[test]
    fn viterbi_inverts_encoder() {
        // 64 seeded random payloads of 24–199 bits, each through the 8-bit
        // pass at all three rates.
        let mut rng = StdRng::seed_from_u64(0x5EED_C0DE);
        for _ in 0..64 {
            let len = rng.gen_range(24..200usize);
            let bits: Vec<u8> = (0..len).map(|_| rng.gen_range(0..2u8)).collect();
            for &rate in RATES {
                let code = ConvCode::new(rate);
                let coded = code.encode(&bits);
                assert_eq!(code.decode(&coded, bits.len()), bits, "{rate:?} n={len}");
            }
        }
    }

    #[test]
    fn table_encoder_equals_the_shift_register() {
        let mut out = Vec::new();
        for &rate in RATES {
            let code = ConvCode::new(rate);
            for info_len in [0usize, 1, 5, 64, 241] {
                let info = random_bits(info_len, info_len as u64);
                // The parent's encoder: one `output_pair` per input bit.
                let mut want = Vec::new();
                let mut state = 0usize;
                let bits = info.iter().chain(std::iter::repeat_n(&0u8, CONSTRAINT - 1));
                for (&bit, p) in bits.zip(rate.pattern().iter().cycle()) {
                    let pair = output_pair(state, usize::from(bit));
                    want.extend(
                        p.iter()
                            .zip([pair >> 1, pair & 1])
                            .filter(|(s, _)| **s)
                            .map(|(_, b)| b),
                    );
                    state = (state >> 1) | usize::from(bit) << (CONSTRAINT - 2);
                }
                code.encode_into(&info, &mut out);
                assert_eq!(out, want, "{rate:?} n={info_len}");
                assert_eq!(code.encode(&info), want);
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
            for len in 0..40 {
                let coded = code.encode(&random_bits(len, len as u64));
                assert_eq!(coded.len(), code.coded_len(len), "{r:?} n={len}");
            }
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
