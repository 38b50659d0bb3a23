//! Triangular solvers, matrix inversion and linear-detector kernels.
//!
//! Linear MIMO detectors (ZF, MMSE) and the FCSD/V-BLAST orderings all need
//! small dense inversions. Everything here targets the well-conditioned,
//! tiny (≤ 16×16) matrices of the MIMO setting, and every matrix inverted
//! is Hermitian positive definite (a regularised Gram matrix), so
//! inversion goes through Cholesky; no pivoted LU is required.

use crate::cx::Cx;
use crate::mat::{CMat, CVec};

/// Solves the upper-triangular system `R·x = b` by back-substitution.
///
/// # Panics
/// Panics on dimension mismatch or an exactly-zero diagonal entry.
pub(crate) fn back_substitute(r: &CMat, b: &[Cx]) -> CVec {
    let n = r.cols();
    assert!(r.is_square() && b.len() == n, "back_substitute: bad dims");
    let mut x = vec![Cx::ZERO; n];
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in i + 1..n {
            acc -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        assert!(d != Cx::ZERO, "back_substitute: singular R at {i}");
        x[i] = acc / d;
    }
    x
}

/// Solves the lower-triangular system `L·x = b` by forward-substitution.
pub(crate) fn forward_substitute(l: &CMat, b: &[Cx]) -> CVec {
    let n = l.cols();
    assert!(
        l.is_square() && b.len() == n,
        "forward_substitute: bad dims"
    );
    let mut x = vec![Cx::ZERO; n];
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc -= l[(i, j)] * x[j];
        }
        let d = l[(i, i)];
        assert!(d != Cx::ZERO, "forward_substitute: singular L at {i}");
        x[i] = acc / d;
    }
    x
}

/// Cholesky factorisation `A = L·L*` of a Hermitian positive-definite matrix.
///
/// Returns the lower-triangular `L` with real positive diagonal, or `None`
/// if the matrix is not (numerically) positive definite.
pub(crate) fn cholesky(a: &CMat) -> Option<CMat> {
    let n = a.rows();
    assert!(a.is_square(), "cholesky: matrix must be square");
    let mut l = CMat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)].mul_conj(l[(j, k)]);
            }
            if i == j {
                // Diagonal of a Hermitian PD matrix is real positive.
                if sum.re <= 0.0 || sum.re.is_nan() {
                    return None;
                }
                l[(i, j)] = Cx::real(sum.re.sqrt());
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Inverse of a Hermitian positive-definite matrix via Cholesky.
///
/// # Panics
/// Panics if the matrix is not positive definite (callers in this workspace
/// only pass Gram matrices of full-rank channels, possibly regularised).
pub(crate) fn hermitian_inverse(a: &CMat) -> CMat {
    let n = a.rows();
    // flexcore-lint: allow(FL004, reason = "documented panic contract: callers only pass Gram matrices of full-rank (possibly regularised) channels; fallible variant is cholesky()")
    let l = cholesky(a).expect("hermitian_inverse: matrix not positive definite");
    // Solve L·L*·X = I column by column.
    let mut inv = CMat::zeros(n, n);
    let lh = l.hermitian();
    for c in 0..n {
        let mut e = vec![Cx::ZERO; n];
        e[c] = Cx::ONE;
        let y = forward_substitute(&l, &e);
        let x = back_substitute(&lh, &y);
        inv.set_col(c, &x);
    }
    inv
}

/// Moore–Penrose pseudo-inverse `H⁺ = (H*H)^{-1}·H*` for a full-column-rank
/// (tall or square) matrix.
pub(crate) fn pseudo_inverse(h: &CMat) -> CMat {
    hermitian_inverse(&h.gram()).mul_mat(&h.hermitian())
}

/// The MMSE equalisation filter `W = (H*H + σ²·I)^{-1}·H*`.
///
/// `sigma2` is the complex-noise variance per receive antenna. Applying the
/// returned `Nt × Nr` matrix to `y` yields soft symbol estimates.
pub fn mmse_filter(h: &CMat, sigma2: f64) -> CMat {
    let nt = h.cols();
    let reg = h.gram().add_mat(&CMat::identity(nt).scale(sigma2));
    hermitian_inverse(&reg).mul_mat(&h.hermitian())
}

/// A seeded `n × n` matrix with real and imaginary parts uniform on
/// `(−10, 10)`, redrawn until its Gram matrix is positive definite and
/// finite: the full-rank inputs of this crate's property tests.
#[cfg(test)]
pub(crate) fn full_rank_square(rng: &mut impl rand::Rng, n: usize) -> CMat {
    loop {
        let m = CMat::from_fn(n, n, |_, _| {
            Cx::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0))
        });
        let g = m.gram();
        let finite = g
            .as_slice()
            .iter()
            .all(|z| z.re.is_finite() && z.im.is_finite());
        if finite && cholesky(&g).is_some() {
            return m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::norm_sqr;
    use crate::qr::sorted_qr_sqrd;
    use crate::rng::CxRng;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_h(nr: usize, nt: usize, seed: u64) -> CMat {
        let mut rng = StdRng::seed_from_u64(seed);
        CMat::from_fn(nr, nt, |_, _| rng.cx_normal(1.0))
    }

    #[test]
    fn back_substitute_solves_triangular() {
        let r = CMat::from_rows(
            2,
            2,
            &[Cx::real(2.0), Cx::real(1.0), Cx::ZERO, Cx::real(4.0)],
        );
        let b = vec![Cx::real(5.0), Cx::real(8.0)];
        let x = back_substitute(&r, &b);
        assert_eq!(x[1], Cx::real(2.0));
        assert_eq!(x[0], Cx::real(1.5));
    }

    #[test]
    fn back_substitution_solves() {
        // On the triangular factor the detectors use, over 256 full-rank
        // channels whose R is comfortably non-singular.
        let mut rng = StdRng::seed_from_u64(0x501FE);
        let mut cases = 0;
        while cases < 256 {
            let h = full_rank_square(&mut rng, 4);
            let xs: Vec<Cx> = (0..4)
                .map(|_| Cx::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)))
                .collect();
            let qr = sorted_qr_sqrd(&h);
            let min_diag = (0..4)
                .map(|i| qr.r[(i, i)].abs())
                .fold(f64::INFINITY, f64::min);
            if min_diag <= 1e-3 {
                continue;
            }
            cases += 1;
            let b = qr.r.mul_vec(&xs);
            let sol = back_substitute(&qr.r, &b);
            let err: f64 = sol.iter().zip(&xs).map(|(a, b)| (*a - *b).norm_sqr()).sum();
            assert!(err.sqrt() < 1e-6 * (1.0 + norm_sqr(&xs).sqrt()));
        }
    }

    #[test]
    fn hermitian_inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x14E25);
        let mut cases = 0;
        while cases < 256 {
            let g = full_rank_square(&mut rng, 3).gram();
            if !(0..3).all(|i| g[(i, i)].re > 1e-3) {
                continue;
            }
            cases += 1;
            let gi = hermitian_inverse(&g);
            let err = g.mul_mat(&gi).max_abs_diff(&CMat::identity(3));
            assert!(err < 1e-6 * g.fro_norm().max(1.0));
        }
    }

    #[test]
    fn forward_substitute_solves_triangular() {
        let l = CMat::from_rows(
            2,
            2,
            &[Cx::real(2.0), Cx::ZERO, Cx::real(1.0), Cx::real(4.0)],
        );
        let b = vec![Cx::real(4.0), Cx::real(10.0)];
        let x = forward_substitute(&l, &b);
        assert_eq!(x[0], Cx::real(2.0));
        assert_eq!(x[1], Cx::real(2.0));
    }

    #[test]
    fn cholesky_reconstructs() {
        let h = random_h(6, 4, 9);
        let g = h.gram();
        let l = cholesky(&g).expect("gram of full-rank H is PD");
        let rec = l.mul_mat(&l.hermitian());
        assert!(rec.max_abs_diff(&g) < 1e-9);
        // L is lower triangular with real positive diagonal.
        for r in 0..4 {
            for c in r + 1..4 {
                assert_eq!(l[(r, c)], Cx::ZERO);
            }
            assert!(l[(r, r)].re > 0.0 && l[(r, r)].im == 0.0);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = CMat::from_rows(
            2,
            2,
            &[Cx::real(1.0), Cx::real(3.0), Cx::real(3.0), Cx::real(1.0)],
        );
        assert!(cholesky(&a).is_none());
    }

    #[test]
    fn hermitian_inverse_is_inverse() {
        let h = random_h(8, 8, 21);
        let g = h.gram();
        let gi = hermitian_inverse(&g);
        assert!(g.mul_mat(&gi).max_abs_diff(&CMat::identity(8)) < 1e-8);
    }

    #[test]
    fn pseudo_inverse_left_inverts_tall() {
        let h = random_h(8, 4, 13);
        let p = pseudo_inverse(&h);
        assert!(p.mul_mat(&h).max_abs_diff(&CMat::identity(4)) < 1e-8);
    }

    #[test]
    fn mmse_filter_reduces_to_pinv_at_zero_noise() {
        let h = random_h(6, 4, 17);
        let w0 = mmse_filter(&h, 0.0);
        let p = pseudo_inverse(&h);
        assert!(w0.max_abs_diff(&p) < 1e-8);
    }

    #[test]
    fn mmse_filter_shrinks_with_noise() {
        // With heavy regularisation the filter norm must drop (it trades
        // interference suppression for noise robustness).
        let h = random_h(6, 4, 19);
        let w0 = mmse_filter(&h, 1e-6);
        let w1 = mmse_filter(&h, 10.0);
        assert!(w1.fro_norm() < w0.fro_norm());
    }
}
