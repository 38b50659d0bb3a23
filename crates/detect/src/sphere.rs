//! Depth-first Schnorr–Euchner sphere decoder.
//!
//! This is the exact-ML reference the paper calls "Geosphere" \[32\]: a
//! depth-first tree search with Schnorr–Euchner child enumeration (children
//! visited in ascending partial-distance order) and sphere-radius pruning
//! (a subtree is abandoned as soon as its partial distance reaches the best
//! full path found so far, and — because children are enumerated in order —
//! all later siblings are abandoned with it).
//!
//! The decoder is instrumented with node and FLOP counters: Table 1 of the
//! paper is regenerated by counting the arithmetic this search performs per
//! received vector and converting it to the rate needed at OFDM line rate.

use crate::common::{Detector, Triangular};
use flexcore_modulation::ordering::exact_order;
use flexcore_modulation::Constellation;
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::{CMat, Cx, FlopCounter};

/// Search statistics for one `detect` call.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SdStats {
    /// Tree nodes visited (partial-distance evaluations that passed the
    /// radius check).
    pub nodes: u64,
    /// Leaves reached (full candidate solutions evaluated).
    pub leaves: u64,
    /// Arithmetic tally.
    pub flops: FlopCounter,
}

/// Exact-ML depth-first sphere decoder.
#[derive(Clone, Debug)]
pub struct SphereDecoder {
    constellation: Constellation,
    tri: Option<Triangular>,
}

impl SphereDecoder {
    /// Creates a sphere decoder for the given constellation.
    pub fn new(constellation: Constellation) -> Self {
        SphereDecoder {
            constellation,
            tri: None,
        }
    }

    /// Detects one vector and returns the search statistics alongside the
    /// decision (used by the Table 1 harness).
    pub fn detect_with_stats(&self, y: &[Cx]) -> (Vec<usize>, SdStats) {
        let tri = self
            .tri
            .as_ref()
            // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; documented panic on the public entry point")
            .expect("SphereDecoder: prepare() not called");
        let nt = tri.nt();
        let mut stats = SdStats::default();
        let ybar = tri.rotate(y);
        // Q*·y: nt·nr complex multiply-adds.
        stats.flops.cmul((nt * y.len()) as u64);
        stats.flops.cadd((nt * y.len()) as u64);
        let mut best_metric = f64::INFINITY;
        let mut best = vec![0u16; nt];
        let mut current = vec![0u16; nt];
        self.descend(
            tri,
            &ybar,
            nt - 1,
            0.0,
            &mut current,
            &mut best,
            &mut best_metric,
            &mut stats,
        );
        (tri.unpermute(&best), stats)
    }

    #[allow(clippy::too_many_arguments)]
    fn descend(
        &self,
        tri: &Triangular,
        ybar: &[Cx],
        row: usize,
        ped: f64,
        current: &mut [u16],
        best: &mut [u16],
        best_metric: &mut f64,
        stats: &mut SdStats,
    ) {
        // Effective received point at this row, given decisions above:
        // one multiply-add per cancelled row plus the division by R(row,row).
        let n_terms = (tri.nt() - row - 1) as u64;
        stats.flops.cmul(n_terms + 1);
        stats.flops.cadd(n_terms);
        let eff = tri.effective_point(ybar, current, row);
        // Schnorr–Euchner enumeration: children in ascending distance order.
        // Cost model: one |·|² per constellation point plus the sort.
        let q = self.constellation.order() as u64;
        stats.flops.cnorm_sqr(q);
        stats.flops.cmp(q * (q.ilog2() as u64).max(1));
        let order = exact_order(&self.constellation, eff);
        let rdiag = tri.qr.r[(row, row)].norm_sqr();
        for sym in order {
            // PED increment = |R(row,row)|²·|ỹ − s|².
            let inc = rdiag * self.constellation.point(sym).dist_sqr(eff);
            stats.flops.cnorm_sqr(1);
            stats.flops.rmul(1);
            stats.flops.cmp(1);
            let child_ped = ped + inc;
            if child_ped >= *best_metric {
                // SE property: every later sibling has a larger increment.
                return;
            }
            stats.nodes += 1;
            current[row] = sym as u16;
            if row == 0 {
                stats.leaves += 1;
                *best_metric = child_ped;
                best.copy_from_slice(current);
            } else {
                self.descend(
                    tri,
                    ybar,
                    row - 1,
                    child_ped,
                    current,
                    best,
                    best_metric,
                    stats,
                );
            }
        }
    }
}

impl Detector for SphereDecoder {
    fn name(&self) -> String {
        "SphereDecoder".into()
    }

    fn prepare(&mut self, h: &CMat, _sigma2: f64) {
        self.tri = Some(Triangular::new(
            sorted_qr_sqrd(h),
            self.constellation.clone(),
        ));
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        self.detect_with_stats(y).0
    }

    fn n_streams(&self) -> usize {
        self.tri.as_ref().map_or(0, Triangular::nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_exhaustive_ml_exactly() {
        // The defining property of a depth-first SD with SE enumeration.
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(3, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let mut sd = SphereDecoder::new(c.clone());
        let mut ml = MlDetector::new(c.clone());
        for trial in 0..30 {
            let h = ens.draw(&mut rng);
            let snr = 12.0;
            let ch = MimoChannel::new(h.clone(), snr);
            sd.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..3).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            assert_eq!(sd.detect(&y), ml.detect(&y), "trial {trial}");
        }
    }

    #[test]
    fn noiseless_recovery_large_system() {
        let c = Constellation::new(Modulation::Qam64);
        let ens = ChannelEnsemble::iid(8, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sd = SphereDecoder::new(c.clone());
        let h = ens.draw(&mut rng);
        sd.prepare(&h, 1e-6);
        let s: Vec<usize> = (0..8).map(|_| rng.gen_range(0..64)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        assert_eq!(sd.detect(&y), s);
    }

    #[test]
    fn node_count_grows_with_noise() {
        // At high SNR the first dive is usually optimal and pruning is
        // aggressive; at low SNR the search expands — the effect behind
        // Table 1's SNR footnote.
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(6, 6);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sd = SphereDecoder::new(c.clone());
        let mut count_at = |snr: f64, rng: &mut StdRng| -> f64 {
            let mut total = 0u64;
            let n = 30;
            for _ in 0..n {
                let h = ens.draw(rng);
                let ch = MimoChannel::new(h.clone(), snr);
                sd.prepare(&h, sigma2_from_snr_db(snr));
                let s: Vec<usize> = (0..6).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, rng);
                total += sd.detect_with_stats(&y).1.nodes;
            }
            total as f64 / n as f64
        };
        let hi = count_at(30.0, &mut rng);
        let lo = count_at(8.0, &mut rng);
        assert!(lo > hi, "nodes at 8 dB ({lo}) should exceed 30 dB ({hi})");
    }

    #[test]
    fn flops_accounted() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(4);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut sd = SphereDecoder::new(c.clone());
        sd.prepare(&h, 0.01);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        let (_, stats) = sd.detect_with_stats(&y);
        // Table 1's accounting, recorded at 8b9e9e4 (noiseless: one dive).
        assert_eq!((stats.nodes, stats.leaves), (4, 1));
        assert_eq!(stats.flops.total_flops(), 424);
    }

    #[test]
    fn exponential_complexity_in_antennas() {
        // Table 1's message: per-vector FLOPs grow super-linearly with Nt.
        // The per-vector count is heavy-tailed, so each width averages
        // 4 000 draws: at 40 the 6/4 ratio ranged 1.8–4.0 over seeds 5–8,
        // at 4 000 it reads 2.35–2.92 with one standard error of 0.15–0.40.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(5);
        let mut mean_flops = Vec::new();
        for nt in [2usize, 4, 6] {
            let ens = ChannelEnsemble::iid(nt, nt);
            let mut sd = SphereDecoder::new(c.clone());
            let mut total = 0u64;
            let trials = 4000;
            for _ in 0..trials {
                let h = ens.draw(&mut rng);
                let snr = 13.0;
                let ch = MimoChannel::new(h.clone(), snr);
                sd.prepare(&h, sigma2_from_snr_db(snr));
                let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                total += sd.detect_with_stats(&y).1.flops.total_flops();
            }
            mean_flops.push(total as f64 / trials as f64);
        }
        assert!(mean_flops[1] > 1.5 * mean_flops[0]);
        assert!(mean_flops[2] > 1.5 * mean_flops[1]);
    }
}
