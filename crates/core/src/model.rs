//! FlexCore's probabilistic path model (Eqs. 2–4 and the Appendix).
//!
//! For each tree level `l`, `Pe(l)` is the probability that the *closest*
//! constellation symbol to the effective received point is **not** the
//! transmitted one — the per-level symbol error rate of a SIC step with
//! effective gain `|R(l,l)|`. Under the paper's square-root decision
//! boundary approximation (Appendix, Eqs. 7–10), the probability that the
//! transmitted symbol is the *k-th* closest is geometric:
//!
//! ```text
//! P_l(k) = (1 − Pe(l)) · Pe(l)^(k−1)          (Eq. 11 / Eq. 3)
//! Pc(p)  ≈ Π_l P_l(p(l))                      (Eq. 2)
//! ```
//!
//! On the paper's Eq. 4 prefactor: the text prints `(2 + 2/√|Q|)`, but the
//! derivation it cites (\[6\], nearest-neighbour union bound — also used in
//! the Appendix's Eq. 6) gives `2·(1 − 1/√|Q|)`. A prefactor above 2 would
//! make `Pe` exceed 1 at low SNR, which breaks the geometric model, so we
//! implement the standard form and clamp `Pe` into `[PE_FLOOR, PE_CEIL]`.
//! Fig. 14's model-vs-simulation agreement (reproduced in
//! `flexcore-sim::fig14`) validates the choice.
//!
//! All accumulation is done in **log domain**: at 12 levels × 256-QAM the
//! linear-domain products underflow `f64` for exactly the deep paths the
//! candidate list must compare.

use flexcore_modulation::Modulation;
use flexcore_numeric::special::erfc;
use flexcore_numeric::CMat;

/// Lower clamp for `Pe`: keeps `log(Pe)` finite for ultra-clean levels.
pub(crate) const PE_FLOOR: f64 = 1e-300;
/// Upper clamp for `Pe`: the geometric model needs `Pe < 1`; 0.5 is the
/// natural ceiling (beyond it the "closest symbol" is no longer the mode).
pub(crate) const PE_CEIL: f64 = 0.5;

/// Per-level error probabilities derived from `R` and the noise power.
#[derive(Clone, Debug, Default)]
pub struct LevelErrorModel {
    /// One entry per `R` row `row` (tree level `row+1`), in one buffer a
    /// refit sizes to the level count at once.
    levels: Vec<Level>,
}

/// The two logarithms of one level's `Pe` the search reads (and `Pe`
/// itself, for the tests' pins).
#[derive(Clone, Copy, Debug)]
struct Level {
    #[cfg(test)]
    pe: f64,
    /// `ln(pe)`.
    ln_pe: f64,
    /// `ln(1 − pe)`.
    ln_1m_pe: f64,
}

impl LevelErrorModel {
    /// Builds the model from the triangular factor's diagonal, the complex
    /// noise variance `sigma2`, and the modulation (Eq. 4). `Es = 1` by the
    /// workspace's constellation normalisation.
    pub fn from_r(r: &CMat, sigma2: f64, modulation: Modulation) -> Self {
        let mut model = LevelErrorModel::default();
        model.refit_from_r(r, sigma2, modulation);
        model
    }

    /// [`LevelErrorModel::from_r`] over an existing model: a channel
    /// refresh refits the levels it replaces, with no heap traffic once
    /// the model has held this many.
    pub(crate) fn refit_from_r(&mut self, r: &CMat, sigma2: f64, modulation: Modulation) {
        // flexcore-lint: hot-path
        assert!(r.is_square(), "LevelErrorModel: R must be square");
        assert!(sigma2 > 0.0, "LevelErrorModel: sigma2 must be positive");
        let (sigma, pe) = (sigma2.sqrt(), eq4(modulation));
        self.refit((0..r.rows()).map(|l| pe(r[(l, l)].abs(), sigma)));
    }

    /// Builds the model directly from per-level error probabilities (the
    /// tests' fixture, and the independent-channel example of §3.1).
    #[cfg(test)]
    pub(crate) fn from_pe(pe: Vec<f64>) -> Self {
        let mut model = LevelErrorModel::default();
        model.refit(pe.into_iter());
        model
    }

    /// The one place the per-level caches are derived from `Pe`. `pe`
    /// knows its length, so the buffer is sized once for it.
    fn refit(&mut self, pe: impl ExactSizeIterator<Item = f64>) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        self.levels.clear();
        self.levels.reserve_exact(pe.len());
        self.levels.extend(pe.map(|p| {
            let pe = p.clamp(PE_FLOOR, PE_CEIL);
            Level {
                #[cfg(test)]
                pe,
                // flexcore-lint: allow(FL002, reason = "Eq. 3 is defined in the log domain; a fresh and an in-place fit reach this one call with the same argument, and nothing compares its bits across hosts")
                ln_pe: pe.ln(),
                // flexcore-lint: allow(FL002, reason = "as above: the one ln(1 − Pe) every fit of this level performs")
                ln_1m_pe: (1.0 - pe).ln(),
            }
        }));
    }

    /// Number of levels.
    pub(crate) fn levels(&self) -> usize {
        self.levels.len()
    }

    /// `Pe` for `R` row `row` (0-based; tree level `row+1`).
    #[cfg(test)]
    pub(crate) fn pe(&self, row: usize) -> f64 {
        self.levels[row].pe
    }

    /// `ln Pe(row)` — the log-domain cost of deepening a position vector by
    /// one rank at this level.
    pub(crate) fn ln_pe(&self, row: usize) -> f64 {
        self.levels[row].ln_pe
    }

    /// `ln P_l(k) = ln(1−Pe) + (k−1)·ln Pe` (Eq. 3 in log domain).
    #[cfg(test)]
    pub(crate) fn ln_level_prob(&self, row: usize, k: u32) -> f64 {
        assert!(k >= 1, "position vector entries are 1-based");
        let level = self.levels[row];
        level.ln_1m_pe + (k as f64 - 1.0) * level.ln_pe
    }

    /// `ln Pc(p) = Σ_l ln P_l(p(l))` (Eq. 2 in log domain): the reference
    /// the search's incremental `ln Pc` is checked against.
    #[cfg(test)]
    pub(crate) fn ln_path_prob(&self, p: &[u32]) -> f64 {
        assert_eq!(p.len(), self.levels(), "position vector length mismatch");
        p.iter()
            .enumerate()
            .map(|(row, &k)| self.ln_level_prob(row, k))
            .sum()
    }

    /// `ln Pc` of the all-ones root path, the most promising one.
    pub(crate) fn ln_root_prob(&self) -> f64 {
        self.levels.iter().map(|level| level.ln_1m_pe).sum()
    }
}

/// Per-level symbol error probability (Eq. 4, standard prefactor):
/// the probability that AWGN of std `sigma/√2` per axis pushes the
/// effective point out of the transmitted symbol's decision region, for a
/// level with gain `r_ll = |R(l,l)|`.
pub fn symbol_error_probability(r_ll: f64, sigma: f64, modulation: Modulation) -> f64 {
    eq4(modulation)(r_ll, sigma)
}

/// Eq. 4 as `(r_ll, sigma) ↦ Pe`, with its per-modulation constants — the
/// prefactor and the unit-energy constellation's half min-distance —
/// derived once, so a refit pays them once rather than once per level.
/// BPSK's half-distance `1` keeps its argument `r_ll / σ` exact.
fn eq4(modulation: Modulation) -> impl Fn(f64, f64) -> f64 {
    let m = modulation.order() as f64;
    let (prefactor, half_dmin) = match modulation {
        Modulation::Bpsk => (0.5, 1.0),
        _ => (
            2.0 * (1.0 - 1.0 / m.sqrt()),
            (3.0 / (2.0 * (m - 1.0))).sqrt(),
        ),
    };
    move |r_ll: f64, sigma: f64| {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        (prefactor * erfc(half_dmin * r_ll / sigma)).clamp(PE_FLOOR, PE_CEIL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_numeric::Cx;

    fn diag_r(d: &[f64]) -> CMat {
        let n = d.len();
        let mut r = CMat::from_fn(n, n, |_, _| Cx::ZERO);
        for (i, &v) in d.iter().enumerate() {
            r[(i, i)] = Cx::real(v);
        }
        r
    }

    #[test]
    fn pe_decreases_with_gain_and_increases_with_noise() {
        let m = Modulation::Qam16;
        let a = symbol_error_probability(1.0, 0.3, m);
        let b = symbol_error_probability(2.0, 0.3, m);
        let c = symbol_error_probability(1.0, 0.6, m);
        assert!(b < a, "higher gain must reduce Pe");
        assert!(c > a, "higher noise must increase Pe");
    }

    #[test]
    fn hoisted_constants_keep_the_per_level_bits() {
        // The refit derives Eq. 4's constants once per modulation; every
        // level must keep the bits of the expression as it was written per
        // level, for every modulation, across gains and noise levels that
        // hit both clamps.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for modulation in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let m = modulation.order() as f64;
            let per_level = |r_ll: f64, sigma: f64| {
                let p = match modulation {
                    Modulation::Bpsk => 0.5 * erfc(r_ll / sigma),
                    _ => {
                        let half_dmin = (3.0 / (2.0 * (m - 1.0))).sqrt();
                        2.0 * (1.0 - 1.0 / m.sqrt()) * erfc(half_dmin * r_ll / sigma)
                    }
                };
                p.clamp(PE_FLOOR, PE_CEIL)
            };
            for _ in 0..40 {
                let d: Vec<f64> = (0..6)
                    .map(|_| 10f64.powf(rng.gen_range(-3.0..1.5)))
                    .collect();
                let sigma2 = 10f64.powf(rng.gen_range(-6.0..1.0));
                let r = diag_r(&d);
                let model = LevelErrorModel::from_r(&r, sigma2, modulation);
                for l in 0..d.len() {
                    let r_ll = r[(l, l)].abs();
                    let want = per_level(r_ll, sigma2.sqrt());
                    assert_eq!(model.pe(l).to_bits(), want.to_bits(), "{modulation:?}");
                    let one = symbol_error_probability(r_ll, sigma2.sqrt(), modulation);
                    assert_eq!(one.to_bits(), want.to_bits(), "{modulation:?}");
                }
            }
        }
    }

    #[test]
    fn pe_clamped_to_valid_range() {
        // Absurdly noisy and absurdly clean levels still give a usable Pe.
        let hi = symbol_error_probability(1e-9, 10.0, Modulation::Qam64);
        let lo = symbol_error_probability(100.0, 1e-9, Modulation::Qam64);
        assert_eq!(hi, PE_CEIL);
        assert!((PE_FLOOR..1e-50).contains(&lo));
    }

    #[test]
    fn level_probs_form_geometric_distribution() {
        let model = LevelErrorModel::from_pe(vec![0.2]);
        // P(1) = 0.8, P(2) = 0.8·0.2, P(3) = 0.8·0.04 …
        assert!((model.ln_level_prob(0, 1).exp() - 0.8).abs() < 1e-12);
        assert!((model.ln_level_prob(0, 2).exp() - 0.16).abs() < 1e-12);
        assert!((model.ln_level_prob(0, 3).exp() - 0.032).abs() < 1e-12);
        // Geometric sums to 1 over all k.
        let total: f64 = (1..200).map(|k| model.ln_level_prob(0, k).exp()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_prob_factorises() {
        let model = LevelErrorModel::from_pe(vec![0.1, 0.3]);
        let p = model.ln_path_prob(&[2, 1]).exp();
        let want = (0.9 * 0.1) * 0.7;
        assert!((p - want).abs() < 1e-12);
    }

    #[test]
    fn independent_channel_example_ordering() {
        // §3.1's two-level binary example with σ2² ≥ σ1²
        // (Pe(2) ≥ Pe(1)): P[1,1] ≥ P[1,2] ≥ P[2,1] ≥ P[2,2].
        // Level index 0 here is the paper's l=1.
        let model = LevelErrorModel::from_pe(vec![0.05, 0.2]);
        let p11 = model.ln_path_prob(&[1, 1]);
        let p12 = model.ln_path_prob(&[1, 2]); // second-closest on noisier lvl
        let p21 = model.ln_path_prob(&[2, 1]);
        let p22 = model.ln_path_prob(&[2, 2]);
        assert!(p11 > p12);
        assert!(p12 > p21, "deepening the noisier level costs less");
        assert!(p21 > p22);
        // The best-path probability matches the primer's formula exactly;
        // for k = 2 the geometric model gives (1−Pe)·Pe where the paper's
        // binary special case has exactly Pe (beyond binary the geometric
        // form is the right generalisation — Appendix Eq. 11).
        assert!((p11.exp() - 0.95 * 0.8).abs() < 1e-12);
        assert!((p22.exp() - (0.95 * 0.05) * (0.8 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn from_r_uses_diagonal_magnitudes() {
        let r = diag_r(&[2.0, 1.0, 0.5]);
        let model = LevelErrorModel::from_r(&r, 0.1, Modulation::Qam16);
        assert!(model.pe(0) < model.pe(1));
        assert!(model.pe(1) < model.pe(2));
    }

    #[test]
    fn log_domain_survives_deep_paths() {
        // 12 levels of 256-QAM at high rank: linear domain would underflow.
        let model = LevelErrorModel::from_pe(vec![1e-12; 12]);
        let deep: Vec<u32> = vec![40; 12];
        let lp = model.ln_path_prob(&deep);
        assert!(lp.is_finite());
        assert!(lp < -1000.0);
        // Ordering still works against a shallower path.
        let shallow: Vec<u32> = vec![2; 12];
        assert!(model.ln_path_prob(&shallow) > lp);
    }

    #[test]
    fn root_prob_shortcut() {
        let model = LevelErrorModel::from_pe(vec![0.1, 0.2, 0.3]);
        let ones = vec![1u32; 3];
        assert!((model.ln_root_prob() - model.ln_path_prob(&ones)).abs() < 1e-12);
    }

    #[test]
    fn path_probabilities_are_consistent() {
        // Any ranks over any levels: no path is likelier than the root,
        // every path's ln Pc is finite, and deepening a level strictly
        // lowers it.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        for _ in 0..256 {
            let levels = rng.gen_range(2..6usize);
            let pes: Vec<f64> = (0..levels).map(|_| rng.gen_range(0.01..0.5)).collect();
            let ranks: Vec<u32> = (0..levels).map(|_| rng.gen_range(1..8u32)).collect();
            let model = LevelErrorModel::from_pe(pes);
            let lp = model.ln_path_prob(&ranks);
            assert!(lp <= model.ln_root_prob() + 1e-12, "{ranks:?}");
            assert!(lp.is_finite(), "{ranks:?}");
            let mut deeper = ranks.clone();
            deeper[0] += 1;
            assert!(model.ln_path_prob(&deeper) < lp, "{ranks:?}");
        }
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn rejects_zero_rank() {
        let model = LevelErrorModel::from_pe(vec![0.1]);
        model.ln_level_prob(0, 0);
    }
}
