//! Exhaustive maximum-likelihood detection.
//!
//! Enumerates all `|Q|^Nt` transmit hypotheses and returns the one
//! minimising `‖y − H·s‖²`. Exponentially expensive — usable only for tiny
//! systems — but invaluable as the ground-truth oracle against which the
//! sphere decoder (which must match it exactly) and every approximate
//! scheme are validated.

use crate::common::Detector;
use flexcore_modulation::Constellation;
use flexcore_numeric::mat::dist_sqr;
use flexcore_numeric::{CMat, Cx};

/// Brute-force ML detector (test oracle).
#[derive(Clone, Debug)]
pub struct MlDetector {
    constellation: Constellation,
    h: Option<CMat>,
}

impl MlDetector {
    /// Safety cap: `prepare` refuses to enumerate more hypotheses.
    const MAX_HYPOTHESES: u64 = 1 << 24;

    /// Creates the oracle (safety cap: 2²⁴ hypotheses).
    pub fn new(constellation: Constellation) -> Self {
        MlDetector {
            constellation,
            h: None,
        }
    }
}

impl Detector for MlDetector {
    fn name(&self) -> String {
        "ML".into()
    }

    fn prepare(&mut self, h: &CMat, _sigma2: f64) {
        let q = self.constellation.order() as u64;
        let hyp = q.checked_pow(h.cols() as u32).unwrap_or(u64::MAX);
        assert!(
            hyp <= Self::MAX_HYPOTHESES,
            "MlDetector: {hyp} hypotheses exceeds cap {} — use SphereDecoder instead",
            Self::MAX_HYPOTHESES
        );
        self.h = Some(h.clone());
    }

    fn n_streams(&self) -> usize {
        self.h.as_ref().map_or(0, CMat::cols)
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; documented panic on the public entry point")
        let h = self.h.as_ref().expect("ML: prepare() not called");
        let nt = h.cols();
        let q = self.constellation.order();
        let mut best = vec![0usize; nt];
        let mut best_metric = f64::INFINITY;
        let mut current = vec![0usize; nt];
        loop {
            let x: Vec<Cx> = current
                .iter()
                .map(|&i| self.constellation.point(i))
                .collect();
            let metric = dist_sqr(y, &h.mul_vec(&x));
            if metric < best_metric {
                best_metric = metric;
                best.copy_from_slice(&current);
            }
            // Odometer increment over the hypothesis space.
            let mut pos = 0usize;
            loop {
                if pos == nt {
                    return best;
                }
                current[pos] += 1;
                if current[pos] < q {
                    break;
                }
                current[pos] = 0;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn recovers_truth_without_noise() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(3, 3).draw(&mut rng);
        let mut det = MlDetector::new(c.clone());
        det.prepare(&h, 0.0);
        let s = vec![5usize, 11, 0];
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(det.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn ml_metric_is_global_minimum() {
        // Verify against a manual scan on a 2x2 QPSK system.
        let c = Constellation::new(Modulation::Qpsk);
        let mut rng = StdRng::seed_from_u64(2);
        let h = ChannelEnsemble::iid(2, 2).draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), 5.0);
        let mut det = MlDetector::new(c.clone());
        det.prepare(&h, 0.0);
        for _ in 0..20 {
            let s: Vec<usize> = (0..2).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            let got = det.detect(&y);
            let got_x: Vec<Cx> = got.iter().map(|&i| c.point(i)).collect();
            let got_m = dist_sqr(&y, &h.mul_vec(&got_x));
            for a in 0..4 {
                for b in 0..4 {
                    let cand: Vec<Cx> = vec![c.point(a), c.point(b)];
                    let m = dist_sqr(&y, &h.mul_vec(&cand));
                    assert!(got_m <= m + 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds cap")]
    fn refuses_huge_systems() {
        let c = Constellation::new(Modulation::Qam64);
        let mut rng = StdRng::seed_from_u64(3);
        let h = ChannelEnsemble::iid(8, 8).draw(&mut rng);
        let mut det = MlDetector::new(c);
        det.prepare(&h, 0.0);
    }
}
