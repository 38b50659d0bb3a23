//! Linear detection: MMSE, whose σ² = 0 limit is zero-forcing
//! (`mmse_filter(h, 0)` is the pseudo-inverse `H⁺`).
//!
//! These are the detectors used by the large-MIMO systems the paper argues
//! against (Argos, BigStation, SAM): one matrix–vector product per received
//! vector, trivially parallel across subcarriers — but with poor throughput
//! when the channel is ill-conditioned (`Nt → Nr`), which Figs. 9 and 10
//! quantify.

use crate::common::{batch_rows, Detector};
use flexcore_modulation::Constellation;
use flexcore_numeric::solve::mmse_filter;
use flexcore_numeric::{CMat, Cx};

/// Minimum mean-squared-error detection:
/// `ŝ = slice((H*H + σ²I)⁻¹·H*·y)`.
#[derive(Clone, Debug)]
pub struct MmseDetector {
    constellation: Constellation,
    filter: Option<CMat>,
}

impl MmseDetector {
    /// Creates an MMSE detector for the given constellation.
    pub fn new(constellation: Constellation) -> Self {
        MmseDetector {
            constellation,
            filter: None,
        }
    }

    /// Applies the prepared MMSE filter without slicing: `z = W·y`.
    ///
    /// [`MmseDetector::detect`] is exactly `slice(equalize(y))` per stream;
    /// soft-demapping layers use the unsliced `z` to score per-bit
    /// counter-hypotheses while staying decision-lockstepped with the hard
    /// path.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn equalize(&self, y: &[Cx]) -> Vec<Cx> {
        self.filter().mul_vec(y)
    }

    /// The prepared filter `W`; the single prepare-before-detect panic
    /// site of this detector.
    #[track_caller]
    fn filter(&self) -> &CMat {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
        self.filter.as_ref().expect("MMSE: prepare() not called")
    }

    /// The constellation this detector slices against.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }
}

impl Detector for MmseDetector {
    fn name(&self) -> String {
        "MMSE".into()
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        self.filter = Some(mmse_filter(h, sigma2));
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        self.equalize(y)
            .into_iter()
            .map(|z| self.constellation.slice(z))
            .collect()
    }

    fn n_streams(&self) -> usize {
        self.filter.as_ref().map_or(0, CMat::rows)
    }

    /// One equalizer buffer serves the whole batch: `z = W·y` into it,
    /// sliced into the row (bit-identical to per-vector
    /// [`Detector::detect`]).
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        let w = self.filter();
        let mut z = vec![Cx::ZERO; w.rows()];
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), w.rows())) {
            w.mul_vec_into(y, &mut z);
            for (o, &zi) in row.iter_mut().zip(&z) {
                *o = self.constellation.slice(zi) as u16;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn run_ser(det: &mut dyn Detector, snr_db: f64, nt: usize, trials: usize) -> f64 {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut rng = StdRng::seed_from_u64(99);
        let mut errs = 0usize;
        let mut total = 0usize;
        for _ in 0..trials {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr_db);
            det.prepare(&h, sigma2_from_snr_db(snr_db));
            for _ in 0..4 {
                let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                let shat = det.detect(&y);
                errs += shat.iter().zip(&s).filter(|(a, b)| a != b).count();
                total += nt;
            }
        }
        errs as f64 / total as f64
    }

    /// Zero-forcing as the σ² = 0 limit of MMSE: whatever noise power
    /// `prepare` is handed, the filter is `H⁺`.
    struct ZeroForcing(MmseDetector);

    impl Detector for ZeroForcing {
        fn name(&self) -> String {
            "ZF".into()
        }

        fn prepare(&mut self, h: &CMat, _sigma2: f64) {
            self.0.prepare(h, 0.0);
        }

        fn detect(&self, y: &[Cx]) -> Vec<usize> {
            self.0.detect(y)
        }

        fn n_streams(&self) -> usize {
            self.0.n_streams()
        }
    }

    #[test]
    fn zf_perfect_in_noiseless_channel() {
        let c = Constellation::new(Modulation::Qam64);
        let ens = ChannelEnsemble::iid(6, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ens.draw(&mut rng);
        let mut det = MmseDetector::new(c.clone());
        det.prepare(&h, 0.0);
        let s: Vec<usize> = (0..6).map(|_| rng.gen_range(0..64)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        assert_eq!(det.detect(&y), s);
    }

    #[test]
    fn mmse_beats_zf_at_low_snr() {
        let c = Constellation::new(Modulation::Qam16);
        let mut zf = ZeroForcing(MmseDetector::new(c.clone()));
        let mut mmse = MmseDetector::new(c);
        let ser_zf = run_ser(&mut zf, 12.0, 8, 60);
        let ser_mmse = run_ser(&mut mmse, 12.0, 8, 60);
        assert!(
            ser_mmse <= ser_zf,
            "MMSE SER {ser_mmse} should not exceed ZF SER {ser_zf}"
        );
    }

    #[test]
    fn ser_improves_with_snr() {
        let c = Constellation::new(Modulation::Qam16);
        let mut det = MmseDetector::new(c);
        let lo = run_ser(&mut det, 8.0, 4, 50);
        let hi = run_ser(&mut det, 25.0, 4, 50);
        assert!(hi < lo, "SER at 25 dB ({hi}) should beat 8 dB ({lo})");
    }

    #[test]
    fn underloaded_channel_helps_linear() {
        // Fig. 10 premise: with Nt ≪ Nr, MMSE approaches optimal.
        let c = Constellation::new(Modulation::Qam16);
        let ens_full = ChannelEnsemble::iid(8, 8);
        let ens_light = ChannelEnsemble::iid(8, 4);
        let mut rng = StdRng::seed_from_u64(7);
        let snr = 15.0;
        let mut errs = [0usize; 2];
        let mut totals = [0usize; 2];
        for (ei, ens) in [ens_full, ens_light].iter().enumerate() {
            let nt = ens.nt;
            let mut det = MmseDetector::new(c.clone());
            for _ in 0..80 {
                let h = ens.draw(&mut rng);
                let ch = MimoChannel::new(h.clone(), snr);
                det.prepare(&h, sigma2_from_snr_db(snr));
                let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                errs[ei] += det
                    .detect(&y)
                    .iter()
                    .zip(&s)
                    .filter(|(a, b)| a != b)
                    .count();
                totals[ei] += nt;
            }
        }
        let ser_full = errs[0] as f64 / totals[0] as f64;
        let ser_light = errs[1] as f64 / totals[1] as f64;
        assert!(
            ser_light < ser_full,
            "8x4 SER {ser_light} should beat 8x8 SER {ser_full}"
        );
    }

    #[test]
    #[should_panic(expected = "prepare() not called")]
    fn detect_before_prepare_panics() {
        let det = MmseDetector::new(Constellation::new(Modulation::Qpsk));
        det.detect(&[Cx::ZERO; 4]);
    }
}
