//! Seeded random sampling for channels and noise.
//!
//! Only `rand`'s uniform primitives are used; the Gaussian path is our own
//! Box–Muller so that the whole workspace needs no `rand_distr`. All
//! simulation code takes an explicit seed, so every experiment driver in
//! `flexcore-sim` is bit-for-bit reproducible.

use crate::cx::Cx;
use rand::Rng;

/// Extension trait adding Gaussian and complex-Gaussian sampling to any
/// [`rand::Rng`].
pub trait CxRng: Rng {
    /// A standard normal `N(0, 1)` sample via Box–Muller.
    fn standard_normal(&mut self) -> f64 {
        // Draw u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - self.gen::<f64>();
        let u2: f64 = self.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// A circularly-symmetric complex Gaussian `CN(0, var)` sample —
    /// `var` is the *total* variance, split evenly between I and Q.
    fn cx_normal(&mut self, var: f64) -> Cx {
        let s = (var / 2.0).sqrt();
        Cx::new(self.standard_normal() * s, self.standard_normal() * s)
    }
}

impl<R: Rng + ?Sized> CxRng for R {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 200_000;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..N).map(|_| rng.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / N as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / N as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
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
