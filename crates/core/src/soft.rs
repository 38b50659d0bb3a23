//! Soft-output FlexCore — the paper's §7 future-work direction.
//!
//! FlexCore's parallel detection already materialises a *list* of
//! candidate solutions (one per position vector) with their Euclidean
//! metrics; that list is exactly what list-based max-log soft demapping
//! needs (\[7, 43\]). For each coded bit `b` of each stream:
//!
//! ```text
//! LLR(b) = ( min_{s ∈ L: b(s)=1} ‖ȳ − Rs‖²  −  min_{s ∈ L: b(s)=0} ‖ȳ − Rs‖² ) / σ²
//! ```
//!
//! (positive ⇒ bit 0 more likely, matching `flexcore-coding`'s
//! convention). All magnitudes are clipped at the list-sphere-decoder
//! level [`MISSING_HYPOTHESIS_LLR`] (±8): with a finite list the
//! counter-hypothesis minimum is only an upper bound, so un-clipped
//! max-log LLRs systematically overstate confidence — clipping is what
//! makes the soft pipeline uniformly at least as good as hard slicing
//! (verified in `flexcore-phy::soft_link` and the `soft_detection`
//! example). Larger `N_PE` improves both the hard decision and LLR
//! fidelity.

use crate::detector::{FlexCoreDetector, WalkScratch};
use flexcore_detect::common::{first_min_metric, Detector};
use flexcore_modulation::Constellation;
use flexcore_numeric::Cx;

/// The list-sphere-decoder clip level: bound on every output LLR
/// magnitude, and the value assigned when the candidate list contains no
/// path with the complementary bit value (cf. the ±8 clip of Hochwald &
/// ten Brink's LSD and \[7\]).
pub(crate) const MISSING_HYPOTHESIS_LLR: f64 = 8.0;

/// Per-stream, per-bit log-likelihood ratios for one received vector.
#[derive(Clone, Debug)]
pub struct SoftDecision {
    /// `llrs[stream][bit]`, streams in original order, bits MSB-first as
    /// produced by `Constellation::index_to_bits`.
    pub llrs: Vec<Vec<f64>>,
    /// The hard (minimum-metric) decision, for convenience.
    pub hard: Vec<usize>,
}

/// A detector whose candidate list supports list-based max-log soft
/// demapping — what the coded streaming uplink needs end to end.
///
/// The soft uplink paths in `flexcore-phy::soft_link` are generic over
/// this trait, so a streaming cell can mix fixed-budget FlexCore,
/// a-FlexCore (whose list is the *adaptively activated* path set — fewer
/// candidates, hence coarser LLRs, exactly where the stopping criterion
/// judged the channel easy), or any future list detector per user without
/// the service layer caring. The contract ties the soft output to the hard one:
/// [`SoftDetector::detect_soft`]'s `hard` field must be **bit-identical**
/// to [`Detector::detect`] on the same prepared state, so the soft and
/// hard pipelines stay RNG- and decision-lockstepped (the workspace's
/// cross-layer tests rely on it).
pub trait SoftDetector: Detector {
    /// Detects one vector and produces per-bit max-log LLRs from the
    /// evaluated candidate list. `sigma2` is the complex noise variance
    /// (the value passed to `prepare`; it scales metric differences into
    /// true LLRs).
    fn detect_soft(&self, y: &[Cx], sigma2: f64) -> SoftDecision;
}

impl SoftDetector for FlexCoreDetector {
    /// Max-log LLRs from the evaluated candidate list: the selected paths'
    /// trie walk.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    fn detect_soft(&self, y: &[Cx], sigma2: f64) -> SoftDecision {
        let paths = self.position_vectors();
        let tri = self.triangular();
        let ybar = tri.rotate(y);
        let c = &tri.constellation;
        let nt = tri.nt();
        let perm = &tri.qr.perm;
        // Evaluate the candidate list into two flat planes (symbols in
        // original stream order, one metric per completed path) — one trie
        // walk, no per-candidate `Vec` allocations.
        let mut walk = WalkScratch::default();
        self.walk_paths(&ybar, &mut walk);
        let mut cand_syms: Vec<u16> = Vec::with_capacity(paths.len() * nt);
        let mut cand_metrics: Vec<f64> = Vec::with_capacity(paths.len());
        for (pi, &metric) in walk.metrics.iter().enumerate() {
            if metric.is_nan() {
                continue; // deactivated path
            }
            let base = cand_syms.len();
            cand_syms.resize(base + nt, 0);
            // Unpermute straight into the flat plane.
            for (j, &pj) in perm.iter().enumerate() {
                cand_syms[base + pj] = walk.syms[pi].get(j);
            }
            cand_metrics.push(metric);
        }
        assert!(!cand_metrics.is_empty(), "the SIC path always completes");
        // Hard decision = first minimum metric (Iterator::min_by order).
        // flexcore-lint: allow(FL004, reason = "non-emptiness asserted on the previous line; the SIC path always completes")
        let (best, _) = first_min_metric(cand_metrics.iter().copied()).expect("non-empty");
        let hard: Vec<usize> = cand_syms[best * nt..(best + 1) * nt]
            .iter()
            .map(|&s| s as usize)
            .collect();
        let mut demap = MaxLogDemap::new(c, nt);
        for (cand, &metric) in cand_metrics.iter().enumerate() {
            for stream in 0..nt {
                demap.offer(stream, cand_syms[cand * nt + stream] as usize, metric);
            }
        }
        SoftDecision {
            llrs: demap.llrs(sigma2),
            hard,
        }
    }
}

/// The max-log reduction behind every soft demapper in this crate: offer
/// any number of `(stream, symbol, metric)` hypotheses, then read
/// `LLR(b) = (min_{b(s)=1} metric − min_{b(s)=0} metric) / σ²` for every
/// stream and bit. FlexCore offers its candidate list, the SIC tier every
/// constellation point per row against its decision feedback, the linear
/// tier every point per equalised stream.
pub(crate) struct MaxLogDemap<'c> {
    constellation: &'c Constellation,
    /// `min[bit value][stream * bps + bit]`.
    min: [Vec<f64>; 2],
    bits: Vec<u8>,
}

impl<'c> MaxLogDemap<'c> {
    pub(crate) fn new(constellation: &'c Constellation, n_streams: usize) -> Self {
        let bps = constellation.bits_per_symbol();
        let unseen = vec![f64::INFINITY; n_streams * bps];
        MaxLogDemap {
            constellation,
            min: [unseen.clone(), unseen],
            bits: vec![0u8; bps],
        }
    }

    pub(crate) fn offer(&mut self, stream: usize, sym: usize, metric: f64) {
        self.constellation.index_to_bits_into(sym, &mut self.bits);
        let base = stream * self.bits.len();
        for (j, &b) in self.bits.iter().enumerate() {
            let slot = &mut self.min[usize::from(b)][base + j];
            if metric < *slot {
                *slot = metric;
            }
        }
    }

    /// `llrs[stream][bit]`. The standard list-sphere-decoder clip (±8, cf.
    /// Hochwald & ten Brink): a small list overstates per-bit confidence
    /// (the counter-hypothesis minimum is an upper bound computed over few
    /// candidates), so magnitudes are clipped well below the decoder's
    /// saturation level. Missing complement hypotheses saturate at the
    /// clip.
    pub(crate) fn llrs(&self, sigma2: f64) -> Vec<Vec<f64>> {
        let llr = |(&m0, &m1): (&f64, &f64)| match (m0.is_finite(), m1.is_finite()) {
            (true, true) => {
                ((m1 - m0) / sigma2).clamp(-MISSING_HYPOTHESIS_LLR, MISSING_HYPOTHESIS_LLR)
            }
            (true, false) => MISSING_HYPOTHESIS_LLR,
            (false, true) => -MISSING_HYPOTHESIS_LLR,
            (false, false) => 0.0,
        };
        let bps = self.bits.len();
        let [min0, min1] = &self.min;
        (min0.chunks(bps).zip(min1.chunks(bps)))
            .map(|(m0, m1)| m0.iter().zip(m1).map(llr).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_detect::common::Detector;
    use flexcore_modulation::{Constellation, Modulation};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n_pe: usize, snr: f64, seed: u64) -> (FlexCoreDetector, MimoChannel, Constellation) {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut det = FlexCoreDetector::with_pes(c.clone(), n_pe);
        det.prepare(&h, sigma2_from_snr_db(snr));
        (det, MimoChannel::new(h, snr), c)
    }

    #[test]
    fn hard_decision_matches_detect() {
        let (det, ch, c) = setup(16, 14.0, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            let soft = det.detect_soft(&y, ch.sigma2);
            assert_eq!(soft.hard, det.detect(&y));
        }
    }

    #[test]
    fn llr_signs_agree_with_hard_bits_when_confident() {
        let (det, ch, c) = setup(32, 30.0, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = ch.transmit(&x, &mut rng);
        let soft = det.detect_soft(&y, ch.sigma2);
        for (stream, &sym) in soft.hard.iter().enumerate() {
            let bits = c.index_to_bits(sym);
            for (j, &b) in bits.iter().enumerate() {
                let llr = soft.llrs[stream][j];
                if b == 0 {
                    assert!(llr > 0.0, "stream {stream} bit {j}: llr {llr} for bit 0");
                } else {
                    assert!(llr < 0.0, "stream {stream} bit {j}: llr {llr} for bit 1");
                }
            }
        }
    }

    #[test]
    fn llr_magnitude_grows_with_snr() {
        let mean_abs = |snr: f64| -> f64 {
            let (det, ch, c) = setup(16, snr, 5);
            let mut rng = StdRng::seed_from_u64(6);
            let mut acc = 0.0;
            let mut n = 0usize;
            for _ in 0..30 {
                let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                let soft = det.detect_soft(&y, ch.sigma2);
                for row in &soft.llrs {
                    for &l in row {
                        acc += l.abs();
                        n += 1;
                    }
                }
            }
            acc / n as f64
        };
        let lo = mean_abs(8.0);
        let hi = mean_abs(20.0);
        assert!(hi > lo, "LLR confidence at 20 dB ({hi}) vs 8 dB ({lo})");
    }

    #[test]
    fn more_pes_reduce_clip_saturation() {
        // With a richer candidate list, more bits carry graded (unclipped)
        // confidence instead of saturating at the clip level.
        let count_clipped = |n_pe: usize| -> usize {
            let (det, ch, c) = setup(n_pe, 12.0, 7);
            let mut rng = StdRng::seed_from_u64(8);
            let mut clipped = 0usize;
            for _ in 0..30 {
                let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                let soft = det.detect_soft(&y, ch.sigma2);
                clipped += soft
                    .llrs
                    .iter()
                    .flatten()
                    .filter(|l| l.abs() >= MISSING_HYPOTHESIS_LLR)
                    .count();
            }
            clipped
        };
        assert!(count_clipped(64) <= count_clipped(2));
    }

    #[test]
    fn adaptive_soft_agrees_with_its_active_path_set() {
        // a-FlexCore demaps over exactly the activated candidate list: hard
        // decisions match detect(), and with the stopping criterion
        // disabled (threshold 1.0) the LLRs are bit-identical to the fixed
        // detector's.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(21);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let sigma2 = sigma2_from_snr_db(14.0);
        let mut adaptive = FlexCoreDetector::adaptive(c.clone(), 16, 1.0);
        let mut fixed = FlexCoreDetector::with_pes(c.clone(), 16);
        adaptive.prepare(&h, sigma2);
        fixed.prepare(&h, sigma2);
        assert_eq!(adaptive.active_paths(), fixed.active_paths());
        let ch = MimoChannel::new(h, 14.0);
        for _ in 0..10 {
            let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            let soft_a = adaptive.detect_soft(&y, sigma2);
            assert_eq!(soft_a.hard, adaptive.detect(&y));
            let soft_f = fixed.detect_soft(&y, sigma2);
            for (ra, rf) in soft_a.llrs.iter().zip(&soft_f.llrs) {
                for (a, f) in ra.iter().zip(rf) {
                    assert_eq!(a.to_bits(), f.to_bits());
                }
            }
        }
    }

    #[test]
    fn clip_bounds_all_llrs() {
        let (det, ch, c) = setup(16, 25.0, 9);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<flexcore_numeric::Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            let soft = det.detect_soft(&y, ch.sigma2);
            for row in &soft.llrs {
                for &l in row {
                    assert!(l.abs() <= MISSING_HYPOTHESIS_LLR + 1e-12);
                }
            }
        }
    }
}
