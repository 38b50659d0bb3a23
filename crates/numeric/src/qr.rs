//! QR decompositions for MIMO detection.
//!
//! Sphere-decoder-family detectors transform the maximum-likelihood search
//! `argmin ‖y − Hs‖²` into a tree search via `H = QR` (§2 of the paper).
//! The *column order* of `H` at decomposition time decides which stream maps
//! to which tree level, and has a large performance impact:
//!
//! * [`mgs_qr`] / [`householder_qr`] — plain decompositions (natural order);
//! * [`sorted_qr_sqrd`] — Wübben et al.'s SQRD \[13\]: at each Gram–Schmidt
//!   step the remaining column with the *smallest* residual norm is chosen,
//!   pushing reliable streams to the top tree levels (detected first);
//! * [`fcsd_sorted_qr`] — the Barbero–Thompson FCSD ordering \[4\]: the `L`
//!   *least* reliable streams (largest post-detection noise amplification)
//!   are placed at the top, fully-enumerated levels, and the rest are ordered
//!   best-first.
//!
//! The paper evaluates both orderings for FlexCore and FCSD and reports the
//! better of the two (§5.1); `flexcore-sim` does the same.
//!
//! All decompositions return a [`Qr`] whose `R` has a real, non-negative
//! diagonal (diagonal phases are absorbed into `Q`), which the FlexCore
//! probability model (Eq. 4 uses `|R(l,l)|`) and the slicer rely on.

use crate::cx::Cx;
use crate::lanes::{lanes_enabled, CxLane, G, LANES};
use crate::mat::{dot, norm_sqr, CMat};
use crate::solve::pseudo_inverse;

/// Result of a (possibly sorted) QR decomposition of the channel matrix.
///
/// Invariant: `q · r ≈ h.permute_cols(&perm)`, `q* q = I`, `r` upper
/// triangular with real non-negative diagonal.
#[derive(Clone, Debug, Default)]
pub struct Qr {
    /// Orthonormal factor, `Nr × Nt`.
    pub q: CMat,
    /// Upper-triangular factor, `Nt × Nt`, real non-negative diagonal.
    pub r: CMat,
    /// Column permutation: column `j` of `q·r` is column `perm[j]` of the
    /// original `H`. Equivalently, detected stream `j` (tree level `j+1`,
    /// counting from the bottom) is original stream `perm[j]`.
    pub perm: Vec<usize>,
}

impl Qr {
    /// Rotates a received vector into the triangular domain: `ȳ = Q*·y`.
    pub fn rotate(&self, y: &[Cx]) -> Vec<Cx> {
        let mut out = vec![Cx::ZERO; self.q.cols()];
        self.rotate_into(y, &mut out);
        out
    }

    /// Rotates into a caller-owned buffer of length `Nt`, without
    /// materialising `Q*` — the allocation-free kernel behind
    /// [`Qr::rotate`]; accumulation order matches, so results are
    /// bit-identical.
    ///
    /// # Panics
    /// Panics if `y.len() != Nr` or `out.len() != Nt`.
    pub fn rotate_into(&self, y: &[Cx], out: &mut [Cx]) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        self.q.mul_vec_hermitian_into(y, out);
    }

    /// Blocked batch rotate: rotates a whole batch of received vectors
    /// (e.g. one PE's subcarrier batch) into the triangular domain in
    /// blocks of four observations per kernel pass.
    ///
    /// `out` is observation-major: `out[j*Nt .. (j+1)*Nt]` receives
    /// `Q*·ys[j]`. Lanes are four *observations*, transposed to
    /// [`CxLane`]s once per block; [`G`] adjacent output rows then advance
    /// together down the rows of `Q` (`rotate_rows`), so every row of
    /// `Q` is read contiguously and each lane of each output row replays
    /// the exact scalar `rotate_into` accumulation chain — results are
    /// bit-identical to calling [`Qr::rotate_into`] per observation (which
    /// is also the scalar fallback and the tail path for the last
    /// `ys.len() % 4` observations).
    ///
    /// # Panics
    /// Panics if any `ys[j].len() != Nr` or `out.len() != ys.len() * Nt`.
    pub fn rotate_batch_into(&self, ys: &[&[Cx]], out: &mut [Cx]) {
        // flexcore-lint: scalar-twin = rotate_into
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let (nr, nt) = (self.q.rows(), self.q.cols());
        assert_eq!(out.len(), ys.len() * nt, "rotate_batch_into: output length");
        let full = if lanes_enabled() {
            ys.len() / LANES * LANES
        } else {
            0
        };
        // The block's observations, transposed: `tile[i]` holds sample
        // `c0 + i` of all four. On the stack, so a block allocates
        // nothing; a taller `Q` goes through in several tiles, its
        // accumulators parked in `out` in between.
        let mut tile = [CxLane::zero(); ROTATE_TILE];
        for (block, out) in ys[..full]
            .chunks_exact(LANES)
            .zip(out.chunks_exact_mut(LANES * nt.max(1)))
        {
            for y in block {
                assert_eq!(y.len(), nr, "rotate_batch_into: observation length");
            }
            for c0 in (0..nr).step_by(ROTATE_TILE) {
                let tile = &mut tile[..ROTATE_TILE.min(nr - c0)];
                for (i, t) in tile.iter_mut().enumerate() {
                    *t = CxLane::from_fn(|l| block[l][c0 + i]);
                }
                let mut r = 0;
                while r + G <= nt {
                    rotate_rows::<G>(&self.q, c0, tile, r, out);
                    r += G;
                }
                while r < nt {
                    rotate_rows::<1>(&self.q, c0, tile, r, out);
                    r += 1;
                }
            }
        }
        for (y, out) in ys[full..]
            .iter()
            .zip(out[full * nt..].chunks_mut(nt.max(1)))
        {
            self.rotate_into(y, out);
        }
    }

    /// Undoes the column permutation on a detected symbol vector:
    /// `out[perm[j]] = s_detected[j]`.
    pub fn unpermute<T: Copy + Default>(&self, s: &[T]) -> Vec<T> {
        assert_eq!(s.len(), self.perm.len(), "unpermute: length mismatch");
        let mut out = vec![T::default(); s.len()];
        for (j, &p) in self.perm.iter().enumerate() {
            out[p] = s[j];
        }
        out
    }

    /// Reconstructs `Q·R` (for testing / validation).
    pub fn reconstruct(&self) -> CMat {
        self.q.mul_mat(&self.r)
    }
}

/// Rows of `Q` (samples per observation) one pass of
/// [`Qr::rotate_batch_into`] holds transposed on its stack: 4 KiB, and one
/// tile is the whole of `Q` up to 64 receive antennas. Smaller tiles were
/// measured (one block per call, as `detect_batch_refs` drives it, ns per
/// vector at 4×4 / 64×64): 16 rows 19–24 / 2 455, 32 rows 20–28 / 1 755,
/// 64 rows 22–23 / 1 305 — zeroing the tile costs a 4×4 block a few ns,
/// picking the accumulators up from `out` again costs 64×64 far more.
const ROTATE_TILE: usize = 64;

/// Output rows `r..r + N` of one four-observation block (`out`,
/// observation-major) over `Q` rows `c0..c0 + tile.len()`: the
/// accumulators start from zero on the first tile and from where the
/// previous tile parked them in `out` after that — `f64`s through memory,
/// so tiling changes no bits. `N` is [`G`], or 1 for the `Nt % G` rows
/// left over.
#[inline]
fn rotate_rows<const N: usize>(q: &CMat, c0: usize, tile: &[CxLane], r: usize, out: &mut [Cx]) {
    // flexcore-lint: scalar-twin = rotate_into
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let nt = q.cols();
    let mut acc = [CxLane::zero(); N];
    if c0 > 0 {
        for (g, a) in acc.iter_mut().enumerate() {
            *a = CxLane::from_fn(|l| out[l * nt + r + g]);
        }
    }
    let acc = sweep_q_rows(&q.as_slice()[c0 * nt..], nt, tile, r, acc);
    for (g, a) in acc.iter().enumerate() {
        for l in 0..LANES {
            out[l * nt + r + g] = a.get(l);
        }
    }
}

/// The sweep kernel of [`Qr::rotate_batch_into`]: `N` adjacent output rows
/// accumulate `conj(Q[c, r + g]) · y[c]` together, one `Q` row (`nt`
/// entries of `q_rows`) per transposed sample of `tile` —
/// `Q[c, r..r + N]` is one contiguous read and the `N` chains are
/// independent. Each chain adds its terms in ascending `c`, exactly like
/// [`CMat::mul_vec_hermitian_into_scalar`].
///
/// Out of line so CI can disassemble it (see "Packed kernels are still
/// packed" in the workflow) — and so the accumulators cross a call
/// boundary as whole [`CxLane`]s: fused with the observation-major
/// scatter of its caller the loop was compiled two-wide over (re, im)
/// pairs with a shuffle per term.
#[inline(never)]
fn sweep_q_rows<const N: usize>(
    q_rows: &[Cx],
    nt: usize,
    tile: &[CxLane],
    r: usize,
    acc: [CxLane; N],
) -> [CxLane; N] {
    // flexcore-lint: scalar-twin = rotate_into
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    // A local copy: the by-value `acc` lives in the caller's frame, and
    // updating it there costs a store per plane per `Q` row (the slice
    // checks below can unwind, so none could be deferred).
    let mut sums = acc;
    for (c, &y) in tile.iter().enumerate() {
        let coefs = &q_rows[c * nt + r..][..N];
        for (a, &coef) in sums.iter_mut().zip(coefs) {
            a.add_conj_mul(CxLane::splat(coef), y);
        }
    }
    sums
}

/// Modified Gram–Schmidt QR with an explicit, caller-supplied column order.
///
/// `order[k]` is the original column placed at position `k`. This is the
/// shared kernel behind all public decompositions.
fn mgs_qr_with_order(h: &CMat, order: &[usize]) -> Qr {
    let (nr, nt) = (h.rows(), h.cols());
    assert!(nr >= nt, "QR requires Nr >= Nt (got {nr}x{nt})");
    assert_eq!(order.len(), nt);
    let mut q = CMat::zeros(nr, nt);
    let mut r = CMat::zeros(nt, nt);
    // Working copy of the permuted columns.
    let mut cols: Vec<Vec<Cx>> = order.iter().map(|&j| h.col(j)).collect();
    for k in 0..nt {
        // Re-orthogonalise against previous q's (classical MGS update order).
        for j in 0..k {
            let qj = q.col(j);
            let rjk = dot(&cols[k], &qj); // ⟨v, q_j⟩ = Σ v_i q_j_i*
            r[(j, k)] = rjk;
            for (vi, qi) in cols[k].iter_mut().zip(&qj) {
                *vi -= rjk * *qi;
            }
        }
        let nrm = norm_sqr(&cols[k]).sqrt();
        r[(k, k)] = Cx::real(nrm);
        if nrm > 0.0 {
            let qk: Vec<Cx> = cols[k].iter().map(|&v| v / nrm).collect();
            q.set_col(k, &qk);
        }
    }
    Qr {
        q,
        r,
        perm: order.to_vec(),
    }
}

/// Plain modified Gram–Schmidt QR (no column sorting).
pub fn mgs_qr(h: &CMat) -> Qr {
    let order: Vec<usize> = (0..h.cols()).collect();
    mgs_qr_with_order(h, &order)
}

/// Householder QR (no column sorting).
///
/// Numerically more robust than Gram–Schmidt; used as the reference
/// implementation in tests. Diagonal phases are normalised so that
/// `diag(R)` is real and non-negative.
pub fn householder_qr(h: &CMat) -> Qr {
    let (nr, nt) = (h.rows(), h.cols());
    assert!(nr >= nt, "QR requires Nr >= Nt (got {nr}x{nt})");
    let mut r_full = h.clone(); // will be reduced in place (Nr × Nt)
    let mut q_full = CMat::identity(nr);
    for k in 0..nt {
        // Build the Householder reflector for column k, rows k..nr.
        let mut x: Vec<Cx> = (k..nr).map(|i| r_full[(i, k)]).collect();
        let xnorm = norm_sqr(&x).sqrt();
        if xnorm == 0.0 {
            continue;
        }
        // alpha = -e^{i·arg(x0)}·‖x‖ ensures v = x − alpha·e1 is well scaled.
        let phase = if x[0] == Cx::ZERO {
            Cx::ONE
        } else {
            x[0] / x[0].abs()
        };
        let alpha = -(phase * xnorm);
        x[0] -= alpha;
        let vnorm2 = norm_sqr(&x);
        if vnorm2 == 0.0 {
            continue;
        }
        // Apply P = I − 2vv*/‖v‖² to R (rows k..) and accumulate into Q.
        for c in k..nt {
            let col: Vec<Cx> = (k..nr).map(|i| r_full[(i, c)]).collect();
            let coef = dot(&col, &x).scale(2.0 / vnorm2); // ⟨col, v⟩·2/‖v‖²
            for (idx, i) in (k..nr).enumerate() {
                r_full[(i, c)] -= coef * x[idx];
            }
        }
        for c in 0..nr {
            let col: Vec<Cx> = (k..nr).map(|i| q_full[(i, c)]).collect();
            let coef = dot(&col, &x).scale(2.0 / vnorm2);
            for (idx, i) in (k..nr).enumerate() {
                q_full[(i, c)] -= coef * x[idx];
            }
        }
    }
    // q_full now holds P_{nt}···P_1 so that q_full·H = R; hence Q = q_full*.
    let qh = q_full.hermitian();
    // Thin factors.
    let mut q = CMat::zeros(nr, nt);
    let mut r = CMat::zeros(nt, nt);
    for c in 0..nt {
        for i in 0..nr {
            q[(i, c)] = qh[(i, c)];
        }
        for i in 0..=c {
            r[(i, c)] = r_full[(i, c)];
        }
    }
    // Normalise diagonal phases to real non-negative.
    for k in 0..nt {
        let d = r[(k, k)];
        if d == Cx::ZERO {
            continue;
        }
        let ph = d / d.abs(); // e^{iφ}
        let ph_conj = ph.conj();
        for c in k..nt {
            r[(k, c)] = ph_conj * r[(k, c)];
        }
        for i in 0..nr {
            q[(i, k)] *= ph;
        }
    }
    Qr {
        q,
        r,
        perm: (0..nt).collect(),
    }
}

/// Wübben et al.'s sorted QR decomposition (SQRD) \[13\].
///
/// At each Gram–Schmidt step the remaining column with the **smallest**
/// residual norm is processed next, so the weakest streams land at the
/// *bottom* tree levels (detected last, with the most interference already
/// cancelled) — an efficient approximation of the V-BLAST ordering.
///
/// Allocates the factors and runs [`sorted_qr_sqrd_into`].
pub fn sorted_qr_sqrd(h: &CMat) -> Qr {
    let mut qr = Qr::default();
    sorted_qr_sqrd_into(h, &mut qr);
    qr
}

/// [`sorted_qr_sqrd`] written over an existing [`Qr`]: a channel refresh
/// re-factorises into the `Q`, `R` and `perm` it replaces, with no heap
/// traffic once they have held this shape.
///
/// There is no workspace. The columns are orthogonalised inside `Q`'s own
/// storage (which starts as a copy of `H`), row sweep by row sweep, and
/// the residual squared norm of every column still to be processed sits
/// in the real part of its `R` diagonal entry until its own step
/// overwrites that with the column's norm. Each entry of `Q` and `R` sees
/// the same operations in the same order as the column-at-a-time textbook
/// form, so the result does not depend on what `qr` held before.
pub fn sorted_qr_sqrd_into(h: &CMat, qr: &mut Qr) {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let (nr, nt) = (h.rows(), h.cols());
    assert!(nr >= nt, "QR requires Nr >= Nt (got {nr}x{nt})");
    let Qr { q, r, perm } = qr;
    q.clone_from(h);
    r.reset_zeros(nt, nt);
    perm.clear();
    perm.extend(0..nt);
    for row in 0..nr {
        for (j, v) in q.row(row).iter().enumerate() {
            r[(j, j)].re += v.norm_sqr();
        }
    }
    for k in 0..nt {
        // Pick the remaining column with minimum residual norm; the first
        // one on ties. Residual norms are sums of squared magnitudes and
        // never NaN.
        let mut kmin = k;
        for j in k + 1..nt {
            if r[(j, j)].re < r[(kmin, kmin)].re {
                kmin = j;
            }
        }
        if kmin != k {
            for row in 0..nr {
                q.row_mut(row).swap(k, kmin);
            }
            perm.swap(k, kmin);
            let tmp = r[(k, k)];
            r[(k, k)] = r[(kmin, kmin)];
            r[(kmin, kmin)] = tmp;
            // Already-computed projections in rows 0..k refer to column
            // *positions*, so they must follow the swap.
            for i in 0..k {
                r.row_mut(i).swap(k, kmin);
            }
        }
        let nrm = (0..nr)
            .map(|row| q[(row, k)].norm_sqr())
            .sum::<f64>()
            .sqrt();
        r[(k, k)] = Cx::real(nrm);
        if nrm > 0.0 {
            for row in 0..nr {
                let v = &mut q.row_mut(row)[k];
                *v = *v / nrm;
            }
            // Project q_k out of the remaining columns, updating norms:
            // R(k, j) = ⟨v_j, q_k⟩ accumulates down the rows, then
            // v_j −= R(k, j)·q_k.
            let rk = &mut r.row_mut(k)[k + 1..];
            for row in 0..nr {
                let qrow = q.row(row);
                let qk = qrow[k];
                for (acc, &v) in rk.iter_mut().zip(&qrow[k + 1..]) {
                    *acc += v.mul_conj(qk);
                }
            }
            for row in 0..nr {
                let qrow = q.row_mut(row);
                let qk = qrow[k];
                for (v, &rkj) in qrow[k + 1..].iter_mut().zip(rk.iter()) {
                    *v -= rkj * qk;
                }
            }
            for j in k + 1..nt {
                let rkj = r[(k, j)];
                let left = &mut r[(j, j)].re;
                *left = (*left - rkj.norm_sqr()).max(0.0);
            }
        } else {
            // A column with no residual contributes no direction.
            for row in 0..nr {
                q.row_mut(row)[k] = Cx::ZERO;
            }
        }
    }
}

/// Barbero–Thompson FCSD ordering \[4\] followed by QR.
///
/// Detection proceeds from tree level `Nt` (position `Nt−1` of `R`) downward.
/// The first `l_full` detected levels are *fully enumerated* by the FCSD, so
/// their reliability is irrelevant — the ordering therefore assigns them the
/// streams with the **largest** post-detection noise amplification
/// (`argmax_j ‖(H_i^+)_j‖²`), and assigns the remaining single-expansion
/// levels best-first (`argmin`), exactly as in the FCSD paper's V-BLAST-style
/// recursion on the pseudo-inverse of the deflated channel.
///
/// With `l_full = 0` this degenerates to a (pinv-based) V-BLAST ordering.
pub fn fcsd_sorted_qr(h: &CMat, l_full: usize) -> Qr {
    let (nr, nt) = (h.rows(), h.cols());
    assert!(nr >= nt, "QR requires Nr >= Nt (got {nr}x{nt})");
    assert!(l_full <= nt, "l_full must be <= Nt");
    // Detection-order selection on the deflated channel.
    let mut remaining: Vec<usize> = (0..nt).collect(); // original column ids
    let mut det_order: Vec<usize> = Vec::with_capacity(nt); // first-detected first
    let mut hw = h.clone(); // working channel with zeroed (removed) columns
    for i in 0..nt {
        // Row norms of the pseudo-inverse of the remaining columns measure
        // post-detection noise amplification per stream.
        let sub = gather_cols(&hw, &remaining);
        let pinv = pseudo_inverse(&sub);
        let amp: Vec<f64> = (0..remaining.len())
            .map(|r| norm_sqr(pinv.row(r)))
            .collect();
        let pick_local = if i < l_full {
            argmax(&amp)
        } else {
            argmin(&amp)
        };
        let picked = remaining.remove(pick_local);
        det_order.push(picked);
        // Null this stream out of the working channel.
        for r in 0..nr {
            hw[(r, picked)] = Cx::ZERO;
        }
    }
    // det_order[0] is detected first → occupies the LAST position of R.
    let order: Vec<usize> = det_order.into_iter().rev().collect();
    mgs_qr_with_order(h, &order)
}

/// Gathers a sub-matrix of the selected columns.
fn gather_cols(h: &CMat, cols: &[usize]) -> CMat {
    CMat::from_fn(h.rows(), cols.len(), |r, c| h[(r, cols[c])])
}

fn argmax(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

fn argmin(v: &[f64]) -> usize {
    v.iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map_or(0, |(i, _)| i)
}

/// ZF-SQRD MMSE-style *extended channel* sorted QR.
///
/// Runs SQRD on the `(Nr+Nt) × Nt` extended matrix `[H; σ·I]`, which yields
/// the MMSE-SQRD ordering used by SIC detectors for improved robustness at
/// low SNR. The returned `Q` contains only the top `Nr` rows (the part that
/// multiplies `y`); `R` retains the regularised triangular factor.
pub fn mmse_sorted_qr(h: &CMat, sigma: f64) -> Qr {
    let (nr, nt) = (h.rows(), h.cols());
    let ext = CMat::from_fn(nr + nt, nt, |r, c| {
        if r < nr {
            h[(r, c)]
        } else if r - nr == c {
            Cx::real(sigma)
        } else {
            Cx::ZERO
        }
    });
    let full = sorted_qr_sqrd(&ext);
    let mut q = CMat::zeros(nr, nt);
    for r in 0..nr {
        for c in 0..nt {
            q[(r, c)] = full.q[(r, c)];
        }
    }
    Qr {
        q,
        r: full.r,
        perm: full.perm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CxRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_h(nr: usize, nt: usize, seed: u64) -> CMat {
        let mut rng = StdRng::seed_from_u64(seed);
        CMat::from_fn(nr, nt, |_, _| rng.cx_normal(1.0))
    }

    fn check_qr(h: &CMat, qr: &Qr, tol: f64) {
        // Q·R reproduces the permuted H.
        let hp = h.permute_cols(&qr.perm);
        assert!(
            qr.reconstruct().max_abs_diff(&hp) < tol,
            "QR does not reconstruct permuted H"
        );
        // Q is orthonormal.
        let qtq = qr.q.gram();
        assert!(
            qtq.max_abs_diff(&CMat::identity(h.cols())) < tol,
            "Q not orthonormal"
        );
        // R upper triangular with real non-negative diagonal.
        for r in 0..h.cols() {
            for c in 0..r {
                assert!(qr.r[(r, c)].abs() < tol, "R not upper triangular");
            }
            assert!(qr.r[(r, r)].im.abs() < tol, "R diagonal not real");
            assert!(qr.r[(r, r)].re >= -tol, "R diagonal negative");
        }
    }

    #[test]
    fn mgs_qr_reconstructs() {
        for seed in 0..5 {
            let h = random_h(8, 8, seed);
            check_qr(&h, &mgs_qr(&h), 1e-9);
        }
    }

    #[test]
    fn mgs_qr_tall_matrix() {
        let h = random_h(12, 8, 7);
        check_qr(&h, &mgs_qr(&h), 1e-9);
    }

    #[test]
    fn householder_qr_reconstructs() {
        for seed in 0..5 {
            let h = random_h(8, 8, 100 + seed);
            check_qr(&h, &householder_qr(&h), 1e-9);
        }
        let h = random_h(12, 6, 999);
        check_qr(&h, &householder_qr(&h), 1e-9);
    }

    #[test]
    fn householder_and_mgs_agree_on_r() {
        // Both produce the unique QR with positive real diagonal, so R must
        // match (up to numerical noise) for a full-rank matrix.
        let h = random_h(6, 6, 42);
        let a = mgs_qr(&h);
        let b = householder_qr(&h);
        assert!(a.r.max_abs_diff(&b.r) < 1e-8);
    }

    #[test]
    fn sqrd_reconstructs_and_orders() {
        for seed in 0..8 {
            let h = random_h(8, 8, 200 + seed);
            let qr = sorted_qr_sqrd(&h);
            check_qr(&h, &qr, 1e-9);
        }
    }

    /// The column-at-a-time textbook SQRD (one working vector per column),
    /// as this crate computed it before the in-place kernel — the
    /// reference its operation order is pinned against.
    fn sqrd_textbook(h: &CMat) -> Qr {
        let (nr, nt) = (h.rows(), h.cols());
        let mut cols: Vec<Vec<Cx>> = (0..nt).map(|j| h.col(j)).collect();
        let mut norms: Vec<f64> = cols.iter().map(|c| norm_sqr(c)).collect();
        let mut order: Vec<usize> = (0..nt).collect();
        let mut q = CMat::zeros(nr, nt);
        let mut r = CMat::zeros(nt, nt);
        for k in 0..nt {
            let kmin = norms
                .iter()
                .enumerate()
                .skip(k)
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map_or(k, |(i, _)| i);
            cols.swap(k, kmin);
            norms.swap(k, kmin);
            order.swap(k, kmin);
            for i in 0..k {
                let tmp = r[(i, k)];
                r[(i, k)] = r[(i, kmin)];
                r[(i, kmin)] = tmp;
            }
            let nrm = norm_sqr(&cols[k]).sqrt();
            r[(k, k)] = Cx::real(nrm);
            if nrm > 0.0 {
                let qk: Vec<Cx> = cols[k].iter().map(|&v| v / nrm).collect();
                q.set_col(k, &qk);
                for j in k + 1..nt {
                    let rkj = dot(&cols[j], &qk);
                    r[(k, j)] = rkj;
                    for (vi, qi) in cols[j].iter_mut().zip(&qk) {
                        *vi -= rkj * *qi;
                    }
                    norms[j] = (norms[j] - rkj.norm_sqr()).max(0.0);
                }
            }
        }
        Qr { q, r, perm: order }
    }

    fn bits_of(v: &[Cx]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        bits_of(m.as_slice())
    }

    #[test]
    fn sqrd_in_place_is_bit_identical_to_the_textbook_form() {
        // One Qr re-factorised across shapes (square, tall, shrinking,
        // growing), a dependent column (zero residual norm), an all-zero
        // column with negative zeros, and exactly tied column norms.
        let mut dependent = random_h(6, 4, 71);
        for row in 0..6 {
            dependent[(row, 2)] = dependent[(row, 0)];
        }
        let mut zero_col = random_h(5, 5, 72);
        for row in 0..5 {
            zero_col[(row, 3)] = Cx::new(-0.0, 0.0);
        }
        let tied = CMat::identity(4);
        let mut qr = sorted_qr_sqrd(&random_h(3, 3, 70));
        for h in [
            random_h(8, 8, 73),
            dependent,
            random_h(12, 8, 74),
            zero_col,
            random_h(4, 4, 75),
            tied,
            random_h(64, 64, 76),
            random_h(8, 8, 77),
        ] {
            sorted_qr_sqrd_into(&h, &mut qr);
            let want = sqrd_textbook(&h);
            assert_eq!(qr.perm, want.perm);
            assert_eq!(bits(&qr.q), bits(&want.q), "Q bits");
            assert_eq!(bits(&qr.r), bits(&want.r), "R bits");
            let fresh = sorted_qr_sqrd(&h);
            assert_eq!(fresh.perm, want.perm);
            assert_eq!(bits(&fresh.q), bits(&want.q));
            assert_eq!(bits(&fresh.r), bits(&want.r));
        }
    }

    #[test]
    fn sqrd_puts_weakest_column_first() {
        // Construct a channel with one very weak column; SQRD must place it
        // at position 0 (bottom tree level).
        let mut h = random_h(4, 4, 5);
        for r in 0..4 {
            h[(r, 2)] = h[(r, 2)].scale(1e-3);
        }
        let qr = sorted_qr_sqrd(&h);
        assert_eq!(qr.perm[0], 2, "weak column should be processed first");
    }

    #[test]
    fn fcsd_ordering_puts_weakest_on_top() {
        // With one very weak column and l_full = 1, the FCSD ordering must
        // place the weak stream at the TOP level (last position of R).
        let mut h = random_h(4, 4, 11);
        for r in 0..4 {
            h[(r, 1)] = h[(r, 1)].scale(1e-3);
        }
        let qr = fcsd_sorted_qr(&h, 1);
        check_qr(&h, &qr, 1e-9);
        assert_eq!(
            qr.perm[3], 1,
            "weak column should occupy the fully-enumerated top level"
        );
    }

    #[test]
    fn fcsd_ordering_zero_full_levels_is_vblast_like() {
        let h = random_h(6, 6, 23);
        let qr = fcsd_sorted_qr(&h, 0);
        check_qr(&h, &qr, 1e-9);
    }

    #[test]
    fn unpermute_inverts_permutation() {
        let h = random_h(5, 5, 3);
        let qr = sorted_qr_sqrd(&h);
        let vals: Vec<usize> = (10..15).collect(); // payload tied to position
        let unp = qr.unpermute(&vals);
        for (j, &p) in qr.perm.iter().enumerate() {
            assert_eq!(unp[p], vals[j]);
        }
    }

    #[test]
    fn rotate_matches_manual() {
        let h = random_h(4, 4, 77);
        let qr = mgs_qr(&h);
        let mut rng = StdRng::seed_from_u64(1);
        let y: Vec<Cx> = (0..4).map(|_| rng.cx_normal(1.0)).collect();
        let manual = qr.q.hermitian().mul_vec(&y);
        assert_eq!(qr.rotate(&y), manual);
    }

    #[test]
    fn rotate_batch_into_matches_per_vector_bitwise() {
        // Widths on both sides of every `G` remainder (and 1), square and
        // tall, two shapes taller than one `ROTATE_TILE` (so accumulators
        // are parked in `out` between tiles), × batch lengths with full
        // blocks plus every tail remainder.
        let shapes = [1, 2, 3, 5, 7, 12, 64]
            .iter()
            .flat_map(|&nt| [(nt, nt), (nt + 3, nt)])
            .chain([(12, 8), (ROTATE_TILE + 6, 5), (2 * ROTATE_TILE + 1, 9)]);
        for (nr, nt) in shapes {
            let qr = sorted_qr_sqrd(&random_h(nr, nt, 400 + (nr * 64 + nt) as u64));
            let mut rng = StdRng::seed_from_u64(nr as u64);
            let ys: Vec<Vec<Cx>> = (0..9)
                .map(|_| (0..nr).map(|_| rng.cx_normal(1.0)).collect())
                .collect();
            let refs: Vec<&[Cx]> = ys.iter().map(|y| y.as_slice()).collect();
            for n_obs in 1..=refs.len() {
                // Stale garbage in `out` must not leak into the sums.
                let mut batch = vec![Cx::new(f64::NAN, -1.0); n_obs * nt];
                qr.rotate_batch_into(&refs[..n_obs], &mut batch);
                let mut single = vec![Cx::ZERO; nt];
                for (j, y) in ys[..n_obs].iter().enumerate() {
                    qr.rotate_into(y, &mut single);
                    assert_eq!(
                        bits_of(&single),
                        bits_of(&batch[j * nt..(j + 1) * nt]),
                        "{nr}x{nt}, batch of {n_obs}, observation {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn mmse_sorted_qr_regularises() {
        let h = random_h(8, 8, 31);
        let qr = mmse_sorted_qr(&h, 0.5);
        // R should be square Nt×Nt, upper triangular, non-singular.
        assert_eq!(qr.r.rows(), 8);
        for k in 0..8 {
            assert!(qr.r[(k, k)].re > 0.0);
        }
        // The triangular factor of the extended system satisfies
        // R*R = H*H + σ²I.
        let rtr = qr.r.gram();
        let hp = h.permute_cols(&qr.perm);
        let expect = hp.gram().add_mat(&CMat::identity(8).scale(0.25));
        assert!(rtr.max_abs_diff(&expect) < 1e-8);
    }

    #[test]
    fn qr_rejects_wide_matrices() {
        let h = random_h(8, 8, 1);
        let wide = h.transpose(); // 8x8 still square; build a truly wide one
        let wide = CMat::from_fn(3, 5, |r, c| wide[(r, c)]);
        assert!(std::panic::catch_unwind(|| mgs_qr(&wide)).is_err());
    }
}
