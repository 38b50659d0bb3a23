//! Model-adaptive K-best detection — the paper's §6 aside, implemented.
//!
//! Discussing K-best sphere decoders, the paper notes: *"Using FlexCore's
//! approach we can adaptively select the value of K, which will differ per
//! Sphere decoding tree level."* This module does exactly that: the
//! pre-processing tree search selects the `N_PE` most promising position
//! vectors, and the survivor width at tree level `l` is set to the largest
//! rank any selected vector requests at that level:
//!
//! ```text
//! K_l = max_{p ∈ E} p(l)
//! ```
//!
//! In a clean channel most levels get `K_l = 1` (a SIC step) and only the
//! unreliable levels widen — so the breadth-first search spends its
//! survivor budget exactly where FlexCore would spend processing elements,
//! instead of the uniform (and therefore wasteful) fixed `K` of classical
//! K-best. Unlike FlexCore's path-parallel search, the result is a
//! *sequential* detector — included as a demonstration that the
//! probabilistic model transfers to other search disciplines, and as a
//! stronger breadth-first baseline.

use crate::model::LevelErrorModel;
use crate::preprocess::Preprocessor;
use flexcore_detect::common::{batch_rows, Detector, Triangular};
use flexcore_detect::{kbest_descend, KBestScratch};
use flexcore_modulation::Constellation;
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::{CMat, Cx};

/// Reusable workspace for one adaptive K-best descent: the rotate buffer
/// plus the shared flip-flop survivor/child planes
/// ([`flexcore_detect::KBestScratch`]), so `detect_batch_into` streams a
/// whole batch without per-vector (or per-child) heap traffic.
#[derive(Clone, Debug, Default)]
struct AkbScratch {
    ybar: Vec<Cx>,
    kbest: KBestScratch,
}

/// K-best with per-level survivor widths derived from FlexCore's
/// pre-processing model.
#[derive(Clone, Debug)]
pub struct AdaptiveKBest {
    constellation: Constellation,
    /// Path budget handed to the pre-processor (plays the role of `N_PE`).
    budget: usize,
    state: Option<State>,
}

#[derive(Clone, Debug)]
struct State {
    tri: Triangular,
    /// `k[row]` = survivor width at `R` row `row`.
    k_per_level: Vec<usize>,
}

impl AdaptiveKBest {
    /// Creates the detector with a pre-processing path budget (comparable
    /// to FlexCore's `N_PE`; the realised per-level `K` values follow the
    /// channel).
    pub fn new(constellation: Constellation, budget: usize) -> Self {
        assert!(budget >= 1, "AdaptiveKBest: budget must be >= 1");
        AdaptiveKBest {
            constellation,
            budget,
            state: None,
        }
    }

    /// The per-level survivor widths chosen for the current channel
    /// (`k[row]`, row 0 = bottom level).
    ///
    /// # Panics
    /// Panics if `prepare` was never called.
    pub fn k_per_level(&self) -> &[usize] {
        &self.prepared().k_per_level
    }

    /// The prepared state. Every detection entry point funnels its
    /// prepare-before-detect contract check through here so the panic
    /// surface is a single audited site.
    #[track_caller]
    fn prepared(&self) -> &State {
        self.state
            .as_ref()
            // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
            .expect("AdaptiveKBest: prepare() not called")
    }

    /// Total survivor work `Σ K_l` — the complexity the model actually
    /// spends (vs `Nt·K` for classical K-best).
    pub fn total_width(&self) -> usize {
        self.k_per_level().iter().sum()
    }

    /// One breadth-first descent over a rotated observation: the shared
    /// [`kbest_descend`] kernel with the model's per-level widths
    /// (`keep(row) = K_row · n_survivors`). Decisions are bit-identical to
    /// the original clone-per-child implementation (regression-tested
    /// below).
    fn descend(&self, state: &State, scratch: &mut AkbScratch, row: &mut [u16]) {
        kbest_descend(
            &state.tri,
            &scratch.ybar,
            |row, n_surv| state.k_per_level[row] * n_surv,
            &mut scratch.kbest,
            row,
        );
    }
}

impl Detector for AdaptiveKBest {
    fn name(&self) -> String {
        format!("a-K-best(budget={})", self.budget)
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        let qr = sorted_qr_sqrd(h);
        let model = LevelErrorModel::from_r(&qr.r, sigma2, self.constellation.modulation());
        // The stopping criterion makes the widths *adaptive*: in a clean
        // channel the all-ones path alone passes the threshold and every
        // level gets K = 1; in a hard channel the search widens up to the
        // budget.
        let out = Preprocessor::new(self.budget)
            .with_stop_threshold(0.995)
            .run(&model, self.constellation.order());
        let nt = qr.r.cols();
        let mut k_per_level = vec![1usize; nt];
        for p in &out.paths {
            for (row, k) in k_per_level.iter_mut().enumerate() {
                *k = (*k).max(p.rank(row) as usize);
            }
        }
        self.state = Some(State {
            tri: Triangular::new(qr, self.constellation.clone()),
            k_per_level,
        });
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let state = self.prepared();
        let mut scratch = AkbScratch::default();
        scratch.ybar.resize(state.tri.nt(), Cx::ZERO);
        state.tri.rotate_into(y, &mut scratch.ybar);
        let mut row = vec![0u16; state.tri.nt()];
        self.descend(state, &mut scratch, &mut row);
        row.into_iter().map(usize::from).collect()
    }

    fn n_streams(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.tri.nt())
    }

    /// Scratch-based batch override: the rotate buffer and the flip-flop
    /// survivor/child planes are allocated once and reused across the whole
    /// batch (bit-identical to per-vector [`Detector::detect`]). This is
    /// the path the frame engine schedules.
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        let state = self.prepared();
        let nt = state.tri.nt();
        let mut scratch = AkbScratch::default();
        scratch.ybar.resize(nt, Cx::ZERO);
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), nt)) {
            state.tri.rotate_into(y, &mut scratch.ybar);
            self.descend(state, &mut scratch, row);
        }
    }

    /// Per-vector cost = total survivor width `Σ K_l` the prepared channel
    /// requests; 1 before `prepare`.
    fn effort(&self) -> usize {
        self.state
            .as_ref()
            .map_or(1, |s| s.k_per_level.iter().sum::<usize>().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_detect::{KBestDetector, MlDetector};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn widths_are_one_in_clean_channels() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(1);
        let h = ChannelEnsemble::iid(6, 6).draw(&mut rng);
        let mut det = AdaptiveKBest::new(c, 16);
        det.prepare(&h, sigma2_from_snr_db(40.0)); // ultra-clean
        assert!(det.k_per_level().iter().all(|&k| k == 1));
        assert_eq!(det.total_width(), 6);
    }

    #[test]
    fn widths_expand_with_noise_and_respect_budget() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(2);
        let h = ChannelEnsemble::iid(8, 8).draw(&mut rng);
        let mut det = AdaptiveKBest::new(c, 32);
        det.prepare(&h, sigma2_from_snr_db(8.0)); // noisy
        assert!(det.total_width() > 8, "widths {:?}", det.k_per_level());
        assert!(det.k_per_level().iter().all(|&k| k <= 16));
    }

    #[test]
    fn noiseless_recovery() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(3);
        let h = ChannelEnsemble::iid(5, 5).draw(&mut rng);
        let mut det = AdaptiveKBest::new(c.clone(), 8);
        det.prepare(&h, 1e-6);
        let s: Vec<usize> = (0..5).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(det.detect(&h.mul_vec(&x)), s);
    }

    /// The pre-scratch descent, re-enacted: clone-per-child survivor pairs,
    /// stable `Vec` sort, truncate. The flip-flop workspace must reproduce
    /// it bit-for-bit.
    fn detect_clone_per_child(det: &AdaptiveKBest, y: &[Cx]) -> Vec<usize> {
        let state = det.state.as_ref().expect("prepare() not called");
        let tri = &state.tri;
        let nt = tri.nt();
        let q = det.constellation.order();
        let ybar = tri.rotate(y);
        let mut survivors: Vec<(f64, Vec<u16>)> = vec![(0.0, vec![0u16; nt])];
        for row in (0..nt).rev() {
            let keep = state.k_per_level[row] * survivors.len().max(1);
            let mut children: Vec<(f64, Vec<u16>)> = Vec::new();
            for (ped, symbols) in &survivors {
                for sym in 0..q {
                    let inc = tri.ped_increment(&ybar, symbols, row, sym);
                    let mut s = symbols.clone();
                    s[row] = sym as u16;
                    children.push((ped + inc, s));
                }
            }
            children.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN PED"));
            children.truncate(keep.max(1));
            survivors = children;
        }
        tri.unpermute(&survivors[0].1)
    }

    #[test]
    fn scratch_descent_is_bit_identical_to_clone_per_child() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(6, 6);
        let mut rng = StdRng::seed_from_u64(31);
        for snr in [8.0, 12.0, 20.0] {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            let mut det = AdaptiveKBest::new(c.clone(), 24);
            det.prepare(&h, sigma2_from_snr_db(snr));
            for _ in 0..10 {
                let s: Vec<usize> = (0..6).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let y = ch.transmit(&x, &mut rng);
                assert_eq!(det.detect(&y), detect_clone_per_child(&det, &y));
            }
        }
    }

    #[test]
    fn batch_path_is_bit_identical_to_per_vector() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(6, 6);
        let mut rng = StdRng::seed_from_u64(32);
        let h = ens.draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), 11.0);
        let mut det = AdaptiveKBest::new(c.clone(), 16);
        det.prepare(&h, sigma2_from_snr_db(11.0));
        let ys: Vec<Vec<Cx>> = (0..15)
            .map(|_| {
                let x: Vec<Cx> = (0..6)
                    .map(|_| c.point(rng.gen_range(0..c.order())))
                    .collect();
                ch.transmit(&x, &mut rng)
            })
            .collect();
        let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        assert_eq!(det.detect_batch_refs(&refs), per_vector);
    }

    #[test]
    fn effort_is_total_width_once_prepared() {
        let c = Constellation::new(Modulation::Qam16);
        let mut det = AdaptiveKBest::new(c, 16);
        assert_eq!(det.effort(), 1);
        let mut rng = StdRng::seed_from_u64(33);
        let h = ChannelEnsemble::iid(6, 6).draw(&mut rng);
        det.prepare(&h, sigma2_from_snr_db(10.0));
        assert_eq!(det.effort(), det.total_width());
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
    fn beats_uniform_kbest_at_comparable_width() {
        // Adaptive widths concentrate survivors on the weak levels; at
        // similar total width the model-driven allocation should match or
        // beat the uniform K (the §6 claim).
        let c = Constellation::new(Modulation::Qam16);
        let mut adaptive = AdaptiveKBest::new(c.clone(), 24);
        let mut uniform = KBestDetector::new(c.clone(), 2); // K=2 uniform
        let sa = ser(&mut adaptive, 10.0, 8, 250, 5);
        let su = ser(&mut uniform, 10.0, 8, 250, 5);
        assert!(
            sa <= su * 1.1 + 0.005,
            "adaptive {sa} should be <= uniform-K {su}"
        );
    }

    #[test]
    fn near_ml_on_small_system() {
        let c = Constellation::new(Modulation::Qpsk);
        let mut akb = AdaptiveKBest::new(c.clone(), 16);
        let mut ml = MlDetector::new(c.clone());
        let ens = ChannelEnsemble::iid(3, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let (mut agree, mut total) = (0, 0);
        for _ in 0..150 {
            let h = ens.draw(&mut rng);
            let snr = 10.0;
            let ch = MimoChannel::new(h.clone(), snr);
            akb.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..3).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            if akb.detect(&y) == ml.detect(&y) {
                agree += 1;
            }
            total += 1;
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.93, "ML agreement {rate}");
    }
}
