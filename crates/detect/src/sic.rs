//! Successive interference cancellation detectors.
//!
//! * [`SicDetector`] — ordered SIC (V-BLAST \[47\]): detect the most
//!   reliable stream first (MMSE-SQRD ordering), slice, cancel, repeat.
//!   Strictly sequential; the paper's Fig. 12 "SIC" curve (and "essentially
//!   a single-path FlexCore").
//! * [`ParallelSicDetector`] — the trellis-style parallel decoder of \[50\]
//!   as characterised in §5.1: one processing element **per constellation
//!   point** seeds the top tree level with that point and runs a SIC
//!   descent below it; the best of the `|Q|` resulting paths wins. Fixed,
//!   inflexible parallelism (`N_PE = |Q|` exactly), which is exactly the
//!   limitation Fig. 9 exhibits.

use crate::common::{batch_rows, Detector, Triangular};
use flexcore_modulation::Constellation;
use flexcore_numeric::qr::mmse_sorted_qr;
use flexcore_numeric::{CMat, Cx};

/// Ordered successive interference cancellation (V-BLAST style).
#[derive(Clone, Debug)]
pub struct SicDetector {
    constellation: Constellation,
    tri: Option<Triangular>,
}

impl SicDetector {
    /// Creates an ordered-SIC detector.
    pub fn new(constellation: Constellation) -> Self {
        SicDetector {
            constellation,
            tri: None,
        }
    }

    /// The prepared triangular system (MMSE-SQRD factors + constellation).
    ///
    /// Soft-demapping layers re-run the SIC descent through this to score
    /// counter-hypotheses per level with the *same* kernels `detect` uses,
    /// keeping the hard decision bit-identical.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn prepared(&self) -> &Triangular {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; documented panic on the public entry point")
        self.tri.as_ref().expect("SIC: prepare() not called")
    }

    /// The constellation this detector slices against.
    pub fn constellation(&self) -> &Constellation {
        &self.constellation
    }

    /// One SIC descent over a rotated observation, decisions into the
    /// `Nt` entries of `symbols` (tree order). Each row reads only the
    /// rows above it, which this descent has already written.
    fn descend(&self, tri: &Triangular, ybar: &[Cx], symbols: &mut [u16]) {
        for row in (0..tri.nt()).rev() {
            let eff = tri.effective_point(ybar, symbols, row);
            symbols[row] = self.constellation.slice(eff) as u16;
        }
    }
}

impl Detector for SicDetector {
    fn name(&self) -> String {
        "SIC".into()
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        // MMSE-regularised sorted QR: the standard robust SIC front-end.
        self.tri = Some(Triangular::new(
            mmse_sorted_qr(h, sigma2.sqrt()),
            self.constellation.clone(),
        ));
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let tri = self.prepared();
        let ybar = tri.rotate(y);
        let mut symbols = vec![0u16; tri.nt()];
        self.descend(tri, &ybar, &mut symbols);
        tri.unpermute(&symbols)
    }

    fn n_streams(&self) -> usize {
        self.tri.as_ref().map_or(0, Triangular::nt)
    }

    /// One rotate buffer and one decision vector serve the whole batch
    /// (bit-identical to per-vector [`Detector::detect`]).
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        let tri = self.prepared();
        let mut ybar = vec![Cx::ZERO; tri.nt()];
        let mut symbols = vec![0u16; tri.nt()];
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), tri.nt())) {
            tri.rotate_into(y, &mut ybar);
            self.descend(tri, &ybar, &mut symbols);
            tri.unpermute_into(&symbols, row);
        }
    }
}

/// Parallel SIC with one path per constellation point (the \[50\]-style
/// trellis decoder of Fig. 9).
#[derive(Clone, Debug)]
pub struct ParallelSicDetector {
    constellation: Constellation,
    tri: Option<Triangular>,
}

impl ParallelSicDetector {
    /// Creates the detector. It always uses exactly `|Q|` parallel paths.
    pub fn new(constellation: Constellation) -> Self {
        ParallelSicDetector {
            constellation,
            tri: None,
        }
    }

    /// The prepared triangular system; the single prepare-before-detect
    /// panic site of this detector.
    #[track_caller]
    fn prepared(&self) -> &Triangular {
        self.tri
            .as_ref()
            // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
            .expect("ParallelSIC: prepare() not called")
    }

    /// Evaluates the path seeded with `top_sym` at the top level against
    /// the rotated observation `ybar`, writes its decisions into the `Nt`
    /// entries of `symbols` (tree order) and returns its metric. Each
    /// invocation is independent — this is the unit of work one
    /// processing element executes.
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub(crate) fn run_path(&self, ybar: &[Cx], top_sym: usize, symbols: &mut [u16]) -> f64 {
        let tri = self.prepared();
        let nt = tri.nt();
        symbols[nt - 1] = top_sym as u16;
        for row in (0..nt - 1).rev() {
            let eff = tri.effective_point(ybar, symbols, row);
            symbols[row] = self.constellation.slice(eff) as u16;
        }
        tri.path_metric(ybar, symbols)
    }
}

impl Detector for ParallelSicDetector {
    fn name(&self) -> String {
        "Trellis[50]".into()
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        self.tri = Some(Triangular::new(
            mmse_sorted_qr(h, sigma2.sqrt()),
            self.constellation.clone(),
        ));
    }

    fn n_streams(&self) -> usize {
        self.tri.as_ref().map_or(0, Triangular::nt)
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let tri = self.prepared();
        // One rotation and two symbol buffers per vector, shared by all
        // |Q| paths. `best` stays empty until a path beats +∞.
        let ybar = tri.rotate(y);
        let mut path = vec![0u16; tri.nt()];
        let mut best = Vec::with_capacity(tri.nt());
        let mut best_metric = f64::INFINITY;
        for top in 0..self.constellation.order() {
            let m = self.run_path(&ybar, top, &mut path);
            if m < best_metric {
                best_metric = m;
                best.clear();
                best.extend_from_slice(&path);
            }
        }
        tri.unpermute(&best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::MmseDetector;
    use crate::ml::MlDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ser(det: &mut dyn Detector, snr_db: f64, nt: usize, trials: usize, seed: u64) -> f64 {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut errs, mut total) = (0usize, 0usize);
        for _ in 0..trials {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr_db);
            det.prepare(&h, sigma2_from_snr_db(snr_db));
            for _ in 0..4 {
                let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                errs += det
                    .detect(&y)
                    .iter()
                    .zip(&s)
                    .filter(|(a, b)| a != b)
                    .count();
                total += nt;
            }
        }
        errs as f64 / total as f64
    }

    #[test]
    fn sic_noiseless_recovery() {
        let c = Constellation::new(Modulation::Qam64);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(6, 6).draw(&mut rng);
        let mut det = SicDetector::new(c.clone());
        det.prepare(&h, 1e-9);
        let s: Vec<usize> = (0..6).map(|_| rng.gen_range(0..64)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(det.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    fn sic_beats_mmse() {
        // Cancellation should improve on pure linear detection.
        let mut sic = SicDetector::new(Constellation::new(Modulation::Qam16));
        let mut mmse = MmseDetector::new(Constellation::new(Modulation::Qam16));
        let ser_sic = ser(&mut sic, 14.0, 6, 120, 7);
        let ser_mmse = ser(&mut mmse, 14.0, 6, 120, 7);
        assert!(
            ser_sic < ser_mmse,
            "SIC {ser_sic} should beat MMSE {ser_mmse}"
        );
    }

    #[test]
    fn parallel_sic_beats_plain_sic() {
        // Enumerating the top level protects against the dominant error
        // event (a wrong first decision propagating down).
        let mut psic = ParallelSicDetector::new(Constellation::new(Modulation::Qam16));
        let mut sic = SicDetector::new(Constellation::new(Modulation::Qam16));
        let ser_p = ser(&mut psic, 14.0, 6, 120, 8);
        let ser_s = ser(&mut sic, 14.0, 6, 120, 8);
        assert!(
            ser_p < ser_s,
            "parallel-SIC {ser_p} should beat SIC {ser_s}"
        );
    }

    #[test]
    fn parallel_sic_close_to_ml_on_small_system() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut psic = ParallelSicDetector::new(c.clone());
        let mut ml = MlDetector::new(c.clone());
        let ens = ChannelEnsemble::iid(3, 3);
        let mut rng = StdRng::seed_from_u64(9);
        let (mut agree, mut total) = (0usize, 0usize);
        for _ in 0..150 {
            let h = ens.draw(&mut rng);
            let snr = 10.0;
            let ch = MimoChannel::new(h.clone(), snr);
            psic.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..3).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            if psic.detect(&y) == ml.detect(&y) {
                agree += 1;
            }
            total += 1;
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.9, "agreement with ML {rate}");
    }

    #[test]
    fn run_path_metric_consistent_with_detect() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(10);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let mut det = ParallelSicDetector::new(c.clone());
        det.prepare(&h, 0.05);
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let ch = MimoChannel::new(h, 15.0);
        let y = ch.transmit(&x, &mut rng);
        // detect() must equal the min-metric path over all run_path calls
        // on the once-rotated observation.
        let tri = det.prepared();
        let ybar = tri.rotate(&y);
        let run = |ybar: &[Cx], top| {
            let mut syms = vec![0u16; 4];
            let metric = det.run_path(ybar, top, &mut syms);
            (syms, metric)
        };
        let paths: Vec<(Vec<u16>, f64)> = (0..16).map(|t| run(&ybar, t)).collect();
        let best = paths
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(det.detect(&y), tri.unpermute(&best.0));
        // Sharing one `ȳ` moves nothing: a fresh rotation per path (what
        // detect() used to do) gives the same symbols and metric bits.
        for (top, (syms, metric)) in paths.iter().enumerate() {
            let (fresh_syms, fresh_metric) = run(&tri.rotate(&y), top);
            assert_eq!(syms, &fresh_syms, "top {top}");
            assert_eq!(metric.to_bits(), fresh_metric.to_bits(), "top {top}");
        }
    }
}
