//! QR decompositions for MIMO detection.
//!
//! Sphere-decoder-family detectors transform the maximum-likelihood search
//! `argmin ‖y − Hs‖²` into a tree search via `H = QR` (§2 of the paper).
//! The *column order* of `H` at decomposition time decides which stream maps
//! to which tree level, and has a large performance impact:
//!
//! * [`mgs_qr`] — plain modified Gram–Schmidt (natural order);
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
use crate::lanes::{CxLane, G, LANES};
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
    /// is also the tail path for the last `ys.len() % 4` observations).
    ///
    /// # Panics
    /// Panics if any `ys[j].len() != Nr` or `out.len() != ys.len() * Nt`.
    pub fn rotate_batch_into(&self, ys: &[&[Cx]], out: &mut [Cx]) {
        // flexcore-lint: scalar-twin = rotate_into
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let nt = self.q.cols();
        assert_eq!(out.len(), ys.len() * nt, "rotate_batch_into: output length");
        let full = ys.len() / LANES * LANES;
        let (blocks, tail) = ys.split_at(full);
        let (out, out_tail) = out.split_at_mut(full * nt);
        if self.q.rows() <= SMALL_ROTATE_TILE {
            self.rotate_blocks::<SMALL_ROTATE_TILE>(blocks, out);
        } else {
            self.rotate_blocks::<ROTATE_TILE>(blocks, out);
        }
        for (y, out) in tail.iter().zip(out_tail.chunks_mut(nt.max(1))) {
            self.rotate_into(y, out);
        }
    }

    /// The full blocks of [`Qr::rotate_batch_into`] through a `TILE`-row
    /// transposed tile. The tile is on the stack, so a block allocates
    /// nothing; a taller `Q` goes through in several tiles, its
    /// accumulators parked in `out` in between. `TILE` only sizes the
    /// stack array a block zeroes: every output lane adds the same terms
    /// in the same order at any tile length.
    fn rotate_blocks<const TILE: usize>(&self, blocks: &[&[Cx]], out: &mut [Cx]) {
        // flexcore-lint: scalar-twin = rotate_into
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let (nr, nt) = (self.q.rows(), self.q.cols());
        // The block's observations, transposed: `tile[i]` holds sample
        // `c0 + i` of all four.
        let mut tile = [CxLane::zero(); TILE];
        for (block, out) in blocks
            .chunks_exact(LANES)
            .zip(out.chunks_exact_mut(LANES * nt.max(1)))
        {
            for y in block {
                assert_eq!(y.len(), nr, "rotate_batch_into: observation length");
            }
            for c0 in (0..nr).step_by(TILE) {
                let tile = &mut tile[..TILE.min(nr - c0)];
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
    }
}

/// Rows of `Q` (samples per observation) one pass of
/// [`Qr::rotate_batch_into`] holds transposed on its stack when `Q` has
/// more than [`SMALL_ROTATE_TILE`] rows: 4 KiB, and one tile is the whole
/// of `Q` up to 64 receive antennas. Smaller tiles were measured (one
/// block per call, as `detect_batch_refs` drives it, ns per vector at 4×4
/// / 64×64): 16 rows 19–24 / 2 455, 32 rows 20–28 / 1 755, 64 rows 22–23
/// / 1 305 — picking the accumulators up from `out` again costs 64×64 far
/// more than zeroing the tile costs a small block.
const ROTATE_TILE: usize = 64;

/// The tile of a `Q` with at most 8 rows: 512 bytes to zero per block
/// instead of [`ROTATE_TILE`]'s 4 KiB. One block of four observations per
/// call, low decile of 201 runs of 2 000 calls, alternating builds on a
/// 2-vCPU x86-64 host: 93–97 → 58–69 ns at 4×4 and 164–169 → 125–139 ns
/// at 8×8 (64×64 unchanged, 5.3 µs).
const SMALL_ROTATE_TILE: usize = 8;

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
/// traffic once they, and this thread's working planes, have held the
/// shape.
///
/// `H` is first split into re/im planes, row-major, in cache-line blocks
/// of [`LANES`] adjacent columns. The planes belong to the calling
/// thread, not to `qr`: a thread's first factorisation of a shape sizes
/// them, and every later one reuses them. Step `k` normalises the pivot
/// column `q_k` and then makes two sweeps down the rows:
///
/// * the projection sweep (`project_rows`) accumulates
///   `R(k, j) = ⟨v_j, q_k⟩` for up to [`G`] blocks at once, the
///   accumulators held in registers across all rows;
/// * the update sweep (`update_rows`) subtracts `R(k, j)·q_k` from every
///   remaining column, with the `R(k, ·)` lanes in registers, and takes
///   the *next* pivot column out of the planes, folding its squared norm.
///
/// The next pivot is known before the update sweep: it is picked from the
/// downdated residual norms, which need `R(k, ·)` alone. Each lane carries
/// one column and replays the scalar chain of the column-at-a-time
/// textbook form — the same operations in the same order for every entry
/// of `Q` and `R` and every pivot decision — so the factors are
/// bit-identical to it and do not depend on what `qr` held before.
pub fn sorted_qr_sqrd_into(h: &CMat, qr: &mut Qr) {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let (nr, nt) = (h.rows(), h.cols());
    assert!(nr >= nt, "QR requires Nr >= Nt (got {nr}x{nt})");
    let Qr { q, r, perm } = qr;
    // Every entry of `Q` is written below, so a `Q` of this shape is not
    // cleared first; `R` keeps the zeros under its diagonal.
    if (q.rows(), q.cols()) != (nr, nt) {
        q.reset_zeros(nr, nt);
    }
    r.reset_zeros(nt, nt);
    perm.clear();
    perm.extend(0..nt);
    if nt > 0 {
        SQRD_PLANES.with_borrow_mut(|planes| planes.factorise(h, q, r, perm));
    }
}

thread_local! {
    /// The working planes of [`sorted_qr_sqrd_into`], one set per thread:
    /// grown by the first factorisation of a shape, reused by every
    /// later one. A detector does not own them, so a band of prepared
    /// detectors shares one thread's planes instead of faulting in a set
    /// each.
    static SQRD_PLANES: std::cell::RefCell<SqrdPlanes> =
        const { std::cell::RefCell::new(SqrdPlanes::new()) };
}

/// Four adjacent columns of one plane row, split re/im: one cache line,
/// so a block never straddles two and a block just stored forwards
/// whole to the next load of it.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct Block(CxLane);

/// Working storage of one SQRD (see [`sorted_qr_sqrd_into`]). Entries
/// beyond the current shape hold whatever an earlier shape left there;
/// every call writes what it reads.
struct SqrdPlanes {
    /// The columns, row-major, `⌈Nt / LANES⌉` blocks per row: lane `l`
    /// of block `b` is column position `LANES·b + l` of `Q·R`. Lanes left
    /// of a step's first remaining column are dead (computed on, never
    /// read), and those right of `Nt` stay zero. Rows are reached by
    /// offset (`row · nb`): `chunks_exact(nb)` costs an integer division
    /// per sweep, which a 4×4 factorisation notices.
    cols: Vec<Block>,
    /// The step's pivot column, one entry per row: gathered unnormalised
    /// by the previous step's update sweep, normalised in place.
    pivot: Vec<Cx>,
    /// `R(k, ·)` of the step, one lane vector per block.
    rk: Vec<CxLane>,
    /// Downdated residual squared norm of every column position, in
    /// blocks like `cols`.
    norms: Vec<[f64; LANES]>,
}

impl SqrdPlanes {
    const fn new() -> Self {
        SqrdPlanes {
            cols: Vec::new(),
            pivot: Vec::new(),
            rk: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// The body of [`sorted_qr_sqrd_into`] for `Nt ≥ 1`: `q`, `r` and
    /// `perm` come shaped, `R` zeroed and `perm` the identity.
    fn factorise(&mut self, h: &CMat, q: &mut CMat, r: &mut CMat, perm: &mut [usize]) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let (nr, nt) = (h.rows(), h.cols());
        let nb = nt.div_ceil(LANES);
        let cols = grown(&mut self.cols, nr * nb);
        let pivot_col = grown(&mut self.pivot, nr);
        let rk = grown(&mut self.rk, nb);
        let norms = grown(&mut self.norms, nb);
        split_planes(h, cols, norms);
        let norms = &mut norms.as_flattened_mut()[..nt];
        let first = pivot(norms, 0);
        let mut nrm2 = take_pivot(cols, nb, 0, first, pivot_col);
        perm.swap(0, first);
        norms.swap(0, first);
        for k in 0..nt {
            let nrm = nrm2.sqrt();
            r[(k, k)] = Cx::real(nrm);
            // A column with no residual contributes no direction.
            let live = nrm > 0.0;
            for (row, z) in pivot_col.iter_mut().enumerate() {
                *z = if live { *z / nrm } else { Cx::ZERO };
                q[(row, k)] = *z;
            }
            let k1 = k + 1;
            if k1 == nt {
                break;
            }
            // The blocks holding the remaining columns `k1..`.
            let b0 = k1 / LANES;
            if live {
                for (g, out) in rk[b0..nb].chunks_mut(G).enumerate() {
                    let from = b0 + g * G;
                    match out.len() {
                        G => project_rows::<G>(cols, nb, from, pivot_col, out),
                        3 => project_rows::<3>(cols, nb, from, pivot_col, out),
                        2 => project_rows::<2>(cols, nb, from, pivot_col, out),
                        _ => project_rows::<1>(cols, nb, from, pivot_col, out),
                    }
                }
                let row = r.row_mut(k).iter_mut().zip(&mut *norms).enumerate();
                for (j, (out, left)) in row.skip(k1) {
                    *out = rk[j / LANES].get(j % LANES);
                    *left = (*left - out.norm_sqr()).max(0.0);
                }
            }
            let next = pivot(norms, k1);
            perm.swap(k1, next);
            norms.swap(k1, next);
            // Projections in rows 0..=k refer to column *positions*, so
            // they follow the swap.
            for i in 0..k1 {
                r.row_mut(i).swap(k1, next);
            }
            nrm2 = if live {
                // Every group of blocks but the first, then the first,
                // whose sweep also takes the next pivot: by then both
                // columns it moves are updated.
                let groups = rk[b0..nb].chunks(G).enumerate();
                for (g, rkg) in groups.skip(1) {
                    update_group(cols, nb, b0 + g * G, rkg, pivot_col, None);
                }
                let rkg = &rk[b0..nb.min(b0 + G)];
                update_group(cols, nb, b0, rkg, pivot_col, Some((k1, next)))
            } else {
                take_pivot(cols, nb, k1, next, pivot_col)
            };
        }
    }
}

/// The first `len` entries of `v`, growing it only when it is shorter.
fn grown<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// Splits `h` into the blocks of `cols` (padding lanes zero) and sums
/// every column's squared norm down the rows into the lanes of `norms`.
fn split_planes(h: &CMat, cols: &mut [Block], norms: &mut [[f64; LANES]]) {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let nb = norms.len();
    for row in 0..h.rows() {
        let line = &mut cols[row * nb..][..nb];
        for ((b, zs), n) in line
            .iter_mut()
            .zip(h.row(row).chunks(LANES))
            .zip(&mut *norms)
        {
            b.0 = if zs.len() == LANES {
                CxLane::from_fn(|l| zs[l])
            } else {
                CxLane::from_fn(|l| zs.get(l).copied().unwrap_or(Cx::ZERO))
            };
            // The first row's terms start the sums: `0.0 + x` is `x` for
            // every squared magnitude.
            let sq = b.0.norm_sqr();
            *n = if row == 0 {
                sq
            } else {
                std::array::from_fn(|l| n[l] + sq[l])
            };
        }
    }
}

/// The position in `from..` of the smallest residual norm; the first one
/// on ties. Residual norms are sums of squared magnitudes and never NaN.
fn pivot(norms: &[f64], from: usize) -> usize {
    let mut best = from;
    for (j, &n) in norms.iter().enumerate().skip(from + 1) {
        if n < norms[best] {
            best = j;
        }
    }
    best
}

/// Moves column `next` of one plane row into the pivot entry `q` and
/// column `k1` into its place.
#[inline]
fn swap_in_pivot(line: &mut [Block], k1: usize, next: usize, q: &mut Cx) {
    let (b, l) = (next / LANES, next % LANES);
    *q = line[b].0.get(l);
    let moved = line[k1 / LANES].0.get(k1 % LANES);
    line[b].0.re[l] = moved.re;
    line[b].0.im[l] = moved.im;
}

/// The update sweep without the update — for the first step and after a
/// column with no residual: takes column `next` as the pivot (see
/// `swap_in_pivot`) and returns its squared norm summed down the rows.
fn take_pivot(cols: &mut [Block], nb: usize, k1: usize, next: usize, pivot: &mut [Cx]) -> f64 {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let mut nrm2 = 0.0;
    for (row, q) in pivot.iter_mut().enumerate() {
        swap_in_pivot(&mut cols[row * nb..][..nb], k1, next, q);
        nrm2 += q.norm_sqr();
    }
    nrm2
}

/// The projection sweep of [`sorted_qr_sqrd_into`]: the `N` blocks from
/// block `from` on accumulate `v_j[row]·conj(q_k[row])` down all rows,
/// lane by lane in ascending row order from zero — the textbook
/// `dot(v_j, q_k)` chain of each column — into `out`. The `2·N`
/// accumulators stay in registers for the whole sweep.
///
/// Out of line so CI can disassemble it (see "Packed kernels are still
/// packed" in the workflow).
#[inline(never)]
fn project_rows<const N: usize>(
    cols: &[Block],
    nb: usize,
    from: usize,
    qk: &[Cx],
    out: &mut [CxLane],
) {
    // flexcore-lint: scalar-twin = sqrd_textbook
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let mut acc = [CxLane::zero(); N];
    for (row, &q) in qk.iter().enumerate() {
        // `conj(q)·v` per lane is `v·conj(q)` bit for bit: IEEE products
        // commute, and the two sums add the same products in the same
        // order as `Cx::mul_conj`.
        let q = CxLane::splat(q);
        let o = row * nb + from;
        for (s, v) in acc.iter_mut().zip(&cols[o..o + N]) {
            s.add_conj_mul(q, v.0);
        }
    }
    out.copy_from_slice(&acc);
}

/// Runs [`update_rows`] over the `rk.len()` (at most [`G`]) blocks from
/// block `from` on.
fn update_group(
    cols: &mut [Block],
    nb: usize,
    from: usize,
    rk: &[CxLane],
    pivot: &mut [Cx],
    swap: Option<(usize, usize)>,
) -> f64 {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    match rk.len() {
        G => update_rows::<G>(cols, nb, from, rk, pivot, swap),
        3 => update_rows::<3>(cols, nb, from, rk, pivot, swap),
        2 => update_rows::<2>(cols, nb, from, rk, pivot, swap),
        _ => update_rows::<1>(cols, nb, from, rk, pivot, swap),
    }
}

/// The update sweep of [`sorted_qr_sqrd_into`]: every row subtracts
/// `R(k, j)·q_k[row]` from the `N` blocks from block `from` on, the `rk`
/// lanes held in registers across all rows.
///
/// With `swap = Some((k1, next))` the sweep also takes the next pivot:
/// per row, once `from`'s blocks are updated, column `next` moves into
/// `pivot` (whose entry, `q_k[row]`, has just been used) and column `k1`
/// into its place (`k1` lies in block `from`; `next` may lie in another
/// group, whose sweep has run before). It returns the pivot's squared
/// norm summed down the rows: the lanes of `next`'s block fold their
/// squared magnitudes, and `next`'s lane is that column's chain.
///
/// Out of line so CI can disassemble it — and packed throughout, the
/// norm fold included, so the check can demand no scalar multiply.
#[inline(never)]
fn update_rows<const N: usize>(
    cols: &mut [Block],
    nb: usize,
    from: usize,
    rk: &[CxLane],
    pivot: &mut [Cx],
    swap: Option<(usize, usize)>,
) -> f64 {
    // flexcore-lint: scalar-twin = sqrd_textbook
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    let rk: [CxLane; N] = std::array::from_fn(|g| rk[g]);
    let mut folded = [0.0; LANES];
    for (row, q) in pivot.iter_mut().enumerate() {
        let line = &mut cols[row * nb..][..nb];
        let qk = CxLane::splat(*q);
        for (v, &rkj) in line[from..from + N].iter_mut().zip(&rk) {
            v.0.sub_mul(rkj, qk);
        }
        if let Some((k1, next)) = swap {
            let sq = line[next / LANES].0.norm_sqr();
            for (f, s) in folded.iter_mut().zip(sq) {
                *f += s;
            }
            swap_in_pivot(line, k1, next, q);
        }
    }
    swap.map_or(0.0, |(_, next)| folded[next % LANES])
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
    use crate::solve::full_rank_square;
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
            qr.q.mul_mat(&qr.r).max_abs_diff(&hp) < tol,
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
    fn qr_reconstructs_any_full_rank_matrix() {
        let mut rng = StdRng::seed_from_u64(0x9E);
        for _ in 0..256 {
            let h = full_rank_square(&mut rng, 4);
            for qr in [mgs_qr(&h), sorted_qr_sqrd(&h)] {
                let hp = h.permute_cols(&qr.perm);
                let scale = h.fro_norm().max(1.0);
                assert!(qr.q.mul_mat(&qr.r).max_abs_diff(&hp) < 1e-8 * scale);
                assert!(qr.q.gram().max_abs_diff(&CMat::identity(4)) < 1e-8);
            }
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
    fn sqrd_reconstructs_and_orders() {
        for seed in 0..8 {
            let h = random_h(8, 8, 200 + seed);
            let qr = sorted_qr_sqrd(&h);
            check_qr(&h, &qr, 1e-9);
        }
    }

    /// The column-at-a-time textbook SQRD (one working vector per column),
    /// as this crate computed it before its in-place kernels — the
    /// reference the split-plane sweeps' operation order is pinned
    /// against (their FL003 scalar twin).
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

    /// Factorises each of `hs` into the one `qr` (and this thread's
    /// planes), and freshly, checking both against the textbook form bit
    /// for bit.
    fn assert_sqrd_matches_textbook(qr: &mut Qr, hs: &[CMat]) {
        for h in hs {
            let shape = (h.rows(), h.cols());
            let want = sqrd_textbook(h);
            sorted_qr_sqrd_into(h, qr);
            assert_eq!(qr.perm, want.perm, "{shape:?} perm");
            assert_eq!(bits(&qr.q), bits(&want.q), "{shape:?} Q bits");
            assert_eq!(bits(&qr.r), bits(&want.r), "{shape:?} R bits");
            let fresh = sorted_qr_sqrd(h);
            assert_eq!(fresh.perm, want.perm, "{shape:?} fresh perm");
            assert_eq!(bits(&fresh.q), bits(&want.q), "{shape:?} fresh Q bits");
            assert_eq!(bits(&fresh.r), bits(&want.r), "{shape:?} fresh R bits");
        }
    }

    /// `h` with columns `cols` replaced by `−0.0` zeros.
    fn with_zero_cols(mut h: CMat, cols: &[usize]) -> CMat {
        for row in 0..h.rows() {
            for &c in cols {
                h[(row, c)] = Cx::new(-0.0, -0.0);
            }
        }
        h
    }

    #[test]
    fn sqrd_in_place_is_bit_identical_to_the_textbook_form() {
        // Every block remainder and group count of the split-plane kernel,
        // square and tall, in one Qr (and this thread's planes) whose
        // shape grows and shrinks from one factorisation to the next.
        let mut hs: Vec<CMat> = [1usize, 2, 3, 5, 7, 9, 13, 31, 63, 64]
            .iter()
            .enumerate()
            .flat_map(|(i, &nt)| {
                let seed = 80 + 2 * i as u64;
                [random_h(nt, nt, seed), random_h(nt + 3, nt, seed + 1)]
            })
            .collect();
        hs.extend([random_h(70, 64, 100), random_h(12, 8, 101)]);
        // A dependent column (residual rounding noise), and one whose
        // residual is exactly zero after a live step: `2·e₀` is the first
        // pivot (`q₀ = e₀` exactly), so `4·e₀` is left with nothing and
        // is the dead second pivot.
        let mut dependent = random_h(6, 4, 71);
        for row in 0..6 {
            dependent[(row, 2)] = dependent[(row, 0)];
        }
        let mut exact = random_h(5, 5, 76).scale(3.0);
        for row in 0..5 {
            exact[(row, 0)] = Cx::real(if row == 0 { 2.0 } else { 0.0 });
            exact[(row, 1)] = Cx::real(if row == 0 { 4.0 } else { 0.0 });
        }
        let diag = |h: &CMat, k: usize| sorted_qr_sqrd(h).r[(k, k)];
        assert!(diag(&exact, 0).re > 0.0 && diag(&exact, 1) == Cx::ZERO);
        hs.extend([dependent, exact]);
        // `−0.0` zero columns: the first pivot, then the next one too (two
        // dead steps in a row), and in the last column of a width that
        // leaves padding lanes.
        let two_dead = with_zero_cols(random_h(9, 9, 73), &[1, 2]);
        assert_eq!(
            (diag(&two_dead, 0), diag(&two_dead, 1)),
            (Cx::ZERO, Cx::ZERO)
        );
        hs.extend([
            with_zero_cols(random_h(5, 5, 72), &[3]),
            two_dead,
            with_zero_cols(random_h(7, 7, 74), &[6]),
            with_zero_cols(random_h(8, 8, 75), &[7]),
        ]);
        // Exactly tied norms at every step.
        hs.extend([CMat::identity(4), CMat::identity(9)]);
        let mut qr = sorted_qr_sqrd(&random_h(3, 3, 70));
        assert_sqrd_matches_textbook(&mut qr, &hs);
        // Back down and up again through the same planes.
        hs.reverse();
        assert_sqrd_matches_textbook(&mut qr, &hs);
    }

    #[test]
    fn sqrd_planes_are_per_thread() {
        // Two threads factorise different shapes at the same time, each
        // through its own planes; every result is checked bit for bit.
        let shapes = |nts: [usize; 4], seed: u64| -> Vec<CMat> {
            let hs = nts.iter().enumerate();
            hs.map(|(i, &nt)| random_h(nt + i, nt, seed + i as u64))
                .collect()
        };
        let a = shapes([64, 4, 31, 8], 200);
        let b = shapes([8, 63, 5, 64], 300);
        std::thread::scope(|s| {
            for hs in [&a, &b] {
                s.spawn(move || {
                    let mut qr = Qr::default();
                    for _ in 0..3 {
                        assert_sqrd_matches_textbook(&mut qr, hs);
                    }
                });
            }
        });
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
        // tall, both sides of the small tile's height, two shapes taller
        // than one `ROTATE_TILE` (so accumulators
        // are parked in `out` between tiles), × batch lengths with full
        // blocks plus every tail remainder.
        let shapes = [1, 2, 3, 5, 7, 12, 64]
            .iter()
            .flat_map(|&nt| [(nt, nt), (nt + 3, nt)])
            .chain([
                (SMALL_ROTATE_TILE, SMALL_ROTATE_TILE),
                (SMALL_ROTATE_TILE + 1, 4),
            ])
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
        let wide = CMat::from_fn(3, 5, |r, c| h[(r, c)]);
        assert!(std::panic::catch_unwind(|| mgs_qr(&wide)).is_err());
    }
}
