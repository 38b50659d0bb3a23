//! The Fixed-Complexity Sphere Decoder (FCSD) of Barbero & Thompson \[4\].
//!
//! The FCSD visits a *predefined* set of tree paths: the top `L` levels are
//! fully enumerated (`|Q|^L` combinations) and each remaining level
//! contributes only its single best child (a SIC descent). All `|Q|^L`
//! paths are independent, so they can run one-per-processing-element — the
//! property FlexCore inherits. The FCSD's drawbacks (§2):
//!
//! 1. the path count is locked to powers of `|Q|` — it cannot exploit,
//!    say, 100 available PEs;
//! 2. paths are chosen blind to the channel, wasting PEs on unlikely
//!    hypotheses;
//! 3. it cannot scale down in favourable channels.
//!
//! These are precisely the axes along which Fig. 9 shows FlexCore winning.

use crate::common::{batch_rows, replaces_best, Detector, PathScratch, Triangular};
use flexcore_modulation::Constellation;
use flexcore_numeric::qr::fcsd_sorted_qr;
use flexcore_numeric::{CMat, Cx, CxLane, LANES};

/// Fixed-complexity sphere decoder with `L` fully-enumerated levels.
#[derive(Clone, Debug)]
pub struct FcsdDetector {
    constellation: Constellation,
    l_full: usize,
    tri: Option<Triangular>,
}

impl FcsdDetector {
    /// Creates an FCSD fully enumerating the top `l_full` tree levels.
    pub fn new(constellation: Constellation, l_full: usize) -> Self {
        FcsdDetector {
            constellation,
            l_full,
            tri: None,
        }
    }

    /// Number of parallel paths (`|Q|^L`) — the PE count this scheme needs
    /// for minimum-latency operation.
    pub fn paths(&self) -> usize {
        self.constellation.order().pow(self.l_full as u32)
    }

    /// The prepared triangular system (QR factors + constellation).
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn triangular(&self) -> &Triangular {
        self.prepared()
    }

    /// The prepared triangular system. Every detection entry point funnels
    /// its prepare-before-detect contract check through here so the panic
    /// surface is a single audited site.
    #[track_caller]
    fn prepared(&self) -> &Triangular {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
        self.tri.as_ref().expect("FCSD: prepare() not called")
    }

    /// Evaluates path number `path_idx ∈ 0..paths()` without allocating:
    /// the top `L` symbols are the base-`|Q|` digits of `path_idx`; the rest
    /// is a SIC descent. Writes the path's per-level symbol decisions into
    /// `scratch.symbols` (tree order) and returns the path metric. FCSD
    /// paths never deactivate, so the metric is unconditional.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn run_path_into(&self, ybar: &[Cx], path_idx: usize, scratch: &mut PathScratch) -> f64 {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let tri = self.prepared();
        let nt = tri.nt();
        let q = self.constellation.order();
        scratch.symbols.reset(nt);
        // Fix the fully-enumerated top levels.
        let mut rem = path_idx;
        for lvl in 0..self.l_full {
            scratch.symbols.set(nt - 1 - lvl, (rem % q) as u16);
            rem /= q;
        }
        debug_assert_eq!(rem, 0, "path_idx out of range");
        // Single-child (SIC) descent below.
        for row in (0..nt - self.l_full).rev() {
            let eff = tri.effective_point(ybar, scratch.symbols.as_slice(), row);
            scratch
                .symbols
                .set(row, self.constellation.slice(eff) as u16);
        }
        tri.path_metric(ybar, scratch.symbols.as_slice())
    }

    /// Evaluates four consecutive paths `path0..path0+4` at once through
    /// the lane kernels: lane `l` is path `path0 + l`. The per-lane digit
    /// fix, SIC descent and path-metric sum replay the scalar
    /// [`FcsdDetector::run_path_into`] operation chain exactly (the `R`
    /// coefficients are broadcast, the per-lane symbol decisions live in
    /// `scratch.plane` with their constellation points beside them in
    /// `scratch.points`, and the metric accumulates row-ascending from
    /// `0.0`), so each lane's metric and symbols are bit-identical to the
    /// scalar path evaluation.
    fn run_path_block(&self, ybar: &[Cx], path0: usize, scratch: &mut PathScratch) -> [f64; LANES] {
        // flexcore-lint: scalar-twin = run_path_into
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let tri = self.prepared();
        let nt = tri.nt();
        let q = self.constellation.order();
        scratch.plane.clear();
        scratch.plane.resize(nt * LANES, 0);
        scratch.points.clear();
        scratch.points.resize(nt, CxLane::zero());
        // Fix the fully-enumerated top levels, per lane.
        for l in 0..LANES {
            let mut rem = path0 + l;
            for lvl in 0..self.l_full {
                scratch.decide_lane(&self.constellation, nt - 1 - lvl, l, rem % q);
                rem /= q;
            }
            debug_assert_eq!(rem, 0, "path_idx out of range");
        }
        // Four-wide SIC descent: one effective point per row for all four
        // paths, sliced per lane.
        for row in (0..nt - self.l_full).rev() {
            let eff = tri.effective_point_lanes(CxLane::splat(ybar[row]), &scratch.points, row);
            for l in 0..LANES {
                let sym = self.constellation.slice(eff.get(l));
                scratch.decide_lane(&self.constellation, row, l, sym);
            }
        }
        // Four-wide path metric, row-ascending as in `path_metric`.
        let mut metrics = [0.0; LANES];
        for (row, &yb) in ybar.iter().enumerate() {
            let incs = tri.ped_increment_lanes(CxLane::splat(yb), &scratch.points, row);
            for l in 0..LANES {
                metrics[l] += incs[l];
            }
        }
        metrics
    }

    /// Streams every path over one rotated observation with a shared
    /// scratch and writes the first-minimum decision ([`replaces_best`]
    /// semantics) into `row`, in original stream order — the
    /// allocation-free core of `detect` / `detect_batch_into`. A path
    /// that takes the lead is unpermuted into `row` on the spot, so no
    /// best-so-far copy is kept. Full groups of four paths run through
    /// [`FcsdDetector::run_path_block`], the last `n_paths % 4` through
    /// [`FcsdDetector::run_path_into`]; the reduction still visits metrics
    /// in ascending path order, so the decision is bit-identical to the
    /// scalar loop.
    fn detect_prepared(&self, ybar: &[Cx], scratch: &mut PathScratch, row: &mut [u16]) {
        // flexcore-lint: hot-path
        let tri = self.prepared();
        let n_paths = self.paths();
        let mut best_metric: Option<f64> = None;
        let mut idx = 0;
        while idx + LANES <= n_paths {
            let metrics = self.run_path_block(ybar, idx, scratch);
            for (l, &metric) in metrics.iter().enumerate() {
                if replaces_best(metric, best_metric) {
                    best_metric = Some(metric);
                    for (r, &p) in tri.qr.perm.iter().enumerate() {
                        row[p] = scratch.plane[r * LANES + l];
                    }
                }
            }
            idx += LANES;
        }
        while idx < n_paths {
            let metric = self.run_path_into(ybar, idx, scratch);
            if replaces_best(metric, best_metric) {
                best_metric = Some(metric);
                tri.unpermute_into(scratch.symbols.as_slice(), row);
            }
            idx += 1;
        }
        // flexcore-lint: allow(FL004, reason = "paths() = |Q|^L >= 1, so the loop body ran and set best_metric")
        best_metric.expect("at least one path");
    }
}

impl Detector for FcsdDetector {
    fn name(&self) -> String {
        format!("FCSD(L={})", self.l_full)
    }

    fn prepare(&mut self, h: &CMat, _sigma2: f64) {
        assert!(
            self.l_full <= h.cols(),
            "FCSD: L={} exceeds Nt={}",
            self.l_full,
            h.cols()
        );
        self.tri = Some(Triangular::new(
            fcsd_sorted_qr(h, self.l_full),
            self.constellation.clone(),
        ));
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let tri = self.prepared();
        let ybar = tri.rotate(y);
        let mut row = vec![0u16; tri.nt()];
        self.detect_prepared(&ybar, &mut PathScratch::new(), &mut row);
        row.into_iter().map(usize::from).collect()
    }

    fn n_streams(&self) -> usize {
        self.tri.as_ref().map_or(0, Triangular::nt)
    }

    /// Scratch-based batch override: one rotate buffer and one
    /// [`PathScratch`] serve the whole batch (bit-identical to per-vector
    /// [`Detector::detect`]).
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        let tri = self.prepared();
        let mut ybar = vec![Cx::ZERO; tri.nt()];
        let mut scratch = PathScratch::new();
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), tri.nt())) {
            tri.rotate_into(y, &mut ybar);
            self.detect_prepared(&ybar, &mut scratch, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlDetector;
    use crate::sic::SicDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn path_count() {
        let c = Constellation::new(Modulation::Qam16);
        assert_eq!(FcsdDetector::new(c.clone(), 0).paths(), 1);
        assert_eq!(FcsdDetector::new(c.clone(), 1).paths(), 16);
        assert_eq!(FcsdDetector::new(c, 2).paths(), 256);
    }

    #[test]
    fn l0_is_pure_sic() {
        // With no fully-expanded levels the FCSD is a single SIC descent.
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut fcsd = FcsdDetector::new(c.clone(), 0);
        fcsd.prepare(&h, 0.01);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(fcsd.detect(&h.mul_vec(&x)), s);
    }

    fn ser(det: &mut dyn Detector, snr: f64, nt: usize, trials: usize, seed: u64) -> f64 {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut e, mut t) = (0usize, 0usize);
        for _ in 0..trials {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            e += det
                .detect(&y)
                .iter()
                .zip(&s)
                .filter(|(a, b)| a != b)
                .count();
            t += nt;
        }
        e as f64 / t as f64
    }

    #[test]
    fn deeper_expansion_improves_ser() {
        let c = Constellation::new(Modulation::Qam16);
        let mut l0 = FcsdDetector::new(c.clone(), 0);
        let mut l1 = FcsdDetector::new(c.clone(), 1);
        let s0 = ser(&mut l0, 13.0, 6, 250, 2);
        let s1 = ser(&mut l1, 13.0, 6, 250, 2);
        assert!(s1 < s0, "L=1 SER {s1} should beat L=0 SER {s0}");
    }

    #[test]
    fn near_ml_on_small_system_with_l1() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut fcsd = FcsdDetector::new(c.clone(), 1);
        let mut ml = MlDetector::new(c.clone());
        let ens = ChannelEnsemble::iid(3, 3);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut agree, mut total) = (0, 0);
        for _ in 0..200 {
            let h = ens.draw(&mut rng);
            let snr = 10.0;
            let ch = MimoChannel::new(h.clone(), snr);
            fcsd.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..3).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            if fcsd.detect(&y) == ml.detect(&y) {
                agree += 1;
            }
            total += 1;
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.95, "ML agreement {rate}");
    }

    #[test]
    fn fcsd_beats_sic_at_same_snr() {
        let c = Constellation::new(Modulation::Qam16);
        let mut fcsd = FcsdDetector::new(c.clone(), 1);
        let mut sic = SicDetector::new(c.clone());
        let sf = ser(&mut fcsd, 13.0, 6, 250, 5);
        let ss = ser(&mut sic, 13.0, 6, 250, 5);
        assert!(sf < ss, "FCSD {sf} should beat SIC {ss}");
    }

    #[test]
    #[should_panic(expected = "exceeds Nt")]
    fn rejects_l_above_nt() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut rng = StdRng::seed_from_u64(6);
        let h = ChannelEnsemble::iid(3, 3).draw(&mut rng);
        let mut det = FcsdDetector::new(c, 4);
        det.prepare(&h, 0.1);
    }
}
