//! Seeded random sampling for channels and noise.
//!
//! Only `rand`'s uniform primitives are used; the Gaussian path is our own
//! Marsaglia polar method so that the whole workspace needs no
//! `rand_distr`. All simulation code takes an explicit seed, so every
//! experiment driver in `flexcore-sim` is bit-for-bit reproducible.

use crate::cx::Cx;
use rand::Rng;

/// Extension trait adding complex-Gaussian sampling to any [`rand::Rng`].
pub trait CxRng: Rng {
    /// A circularly-symmetric complex Gaussian `CN(0, var)` sample —
    /// `var` is the *total* variance, split evenly between I and Q.
    ///
    /// Marsaglia & Bray's polar method (SIAM Review, 1964): a uniform point
    /// `(u, v)` of the square is kept once it falls strictly inside the
    /// unit disc (`0 < s = u² + v² < 1`), and `(u, v)·√(−2 ln s / s)` is a
    /// pair of independent `N(0, 1)` samples — both components from one
    /// `ln` and one `sqrt`, with no trigonometry. Each sample consumes a
    /// whole number of pairs (4/π on average) and caches nothing, so the
    /// `Rng` is the only state.
    fn cx_normal(&mut self, var: f64) -> Cx {
        loop {
            let (u, v) = (2.0 * self.gen::<f64>() - 1.0, 2.0 * self.gen::<f64>() - 1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                // √(−2 ln s / s) · √(var / 2) under one root.
                let k = (-var * s.ln() / s).sqrt();
                return Cx::new(u * k, v * k);
            }
        }
    }
}

impl<R: Rng + ?Sized> CxRng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::special::q_function;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 200_000;

    /// `N` draws at `var = 2`: each component should be `N(0, 1)`.
    fn components(seed: u64) -> [Vec<f64>; 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let zs: Vec<Cx> = (0..N).map(|_| rng.cx_normal(2.0)).collect();
        [
            zs.iter().map(|z| z.re).collect(),
            zs.iter().map(|z| z.im).collect(),
        ]
    }

    #[test]
    fn cx_normal_components_have_standard_normal_moments() {
        for (axis, xs) in components(1).iter().enumerate() {
            let mean = xs.iter().sum::<f64>() / N as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
            assert!(mean.abs() < 0.02, "axis {axis}: mean {mean}");
            assert!((var - 1.0).abs() < 0.03, "axis {axis}: var {var}");
            // E[x⁴] = 3σ⁴; one standard error is √(96 / N) ≈ 0.022.
            let m4 = xs.iter().map(|x| x.powi(4)).sum::<f64>() / N as f64;
            assert!((m4 - 3.0).abs() < 0.1, "axis {axis}: E[x^4] {m4}");
        }
    }

    #[test]
    fn cx_normal_components_have_gaussian_tails_and_shape() {
        for (axis, mut xs) in components(3).into_iter().enumerate() {
            // P(|x| > 3σ) = 2·Q(3) ≈ 0.0027; one standard error ≈ 1.2e-4.
            let tail = xs.iter().filter(|x| x.abs() > 3.0).count() as f64 / N as f64;
            assert!(
                (tail - 2.0 * q_function(3.0)).abs() < 5e-4,
                "axis {axis}: tail {tail}"
            );
            // Kolmogorov–Smirnov distance to Φ against its 0.1 % critical
            // value 1.95 / √N ≈ 0.0044.
            xs.sort_by(f64::total_cmp);
            let ks = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    let phi = 1.0 - q_function(x);
                    (phi - i as f64 / N as f64).max((i + 1) as f64 / N as f64 - phi)
                })
                .fold(0.0, f64::max);
            assert!(
                ks < 1.95 / (N as f64).sqrt(),
                "axis {axis}: KS distance {ks}"
            );
        }
    }

    #[test]
    fn cx_normal_total_variance_and_circularity() {
        let mut rng = StdRng::seed_from_u64(2);
        let zs: Vec<Cx> = (0..N).map(|_| rng.cx_normal(4.0)).collect();
        let var = zs.iter().map(|z| z.norm_sqr()).sum::<f64>() / N as f64;
        assert!((var - 4.0).abs() < 0.1, "total var {var}");
        // I and Q each carry half the power.
        let vi = zs.iter().map(|z| z.re * z.re).sum::<f64>() / N as f64;
        let vq = zs.iter().map(|z| z.im * z.im).sum::<f64>() / N as f64;
        assert!((vi - 2.0).abs() < 0.1 && (vq - 2.0).abs() < 0.1);
        // Circular symmetry: E[z²] ≈ 0.
        let pseudo: Cx = zs.iter().map(|&z| z * z).sum::<Cx>() / N as f64;
        assert!(pseudo.abs() < 0.1, "pseudo-variance {pseudo:?}");
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let draw = || {
            let mut rng = StdRng::seed_from_u64(99);
            (0..16).map(|_| rng.cx_normal(1.0)).collect::<Vec<Cx>>()
        };
        assert_eq!(draw(), draw());
    }
}
