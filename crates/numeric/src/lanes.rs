//! Four-wide complex lane kernels — the SIMD substrate of the detection
//! hot path.
//!
//! Stable Rust (no `core::simd`, and this crate forbids `unsafe`, so no
//! `std::arch` intrinsics either) still vectorizes one shape of code
//! reliably: fixed-width `[f64; 4]` arrays combined lane-by-lane in
//! straight-line loops. [`CxLane`] packs four complex values as split
//! re/im planes (`re: [f64; 4]`, `im: [f64; 4]`) — structure-of-arrays,
//! exactly the layout the autovectorizer turns into packed SSE2/AVX
//! doubles — and every operation applies the **scalar [`Cx`] operation
//! chain independently per lane**.
//!
//! That per-lane discipline is the crate's bit-identity contract: a lane
//! kernel never reassociates a reduction across lanes and never fuses a
//! multiply-add, so lane `l` of any [`CxLane`] computation produces the
//! same `f64` bits the scalar code produces for that element. Kernels
//! therefore vectorize across *independent outputs* (4 matrix rows, 4
//! observations, 4 tree paths, 4 candidate symbols) and keep every
//! reduction (an accumulation over matrix columns, a path-metric sum) in
//! its original scalar order within each lane. A kernel takes its lane
//! form whenever its input is wide enough (four rows, observations,
//! paths or candidates) and finishes any remainder with the scalar chain;
//! no setting selects between them. Every lane kernel keeps its scalar
//! twin as a reference, and the workspace's identity tests
//! (`tests/simd_identity.rs`, `tests/scratch_identity.rs`) pin each lane
//! kernel bitwise to an explicitly scalar chain.

use crate::cx::Cx;

/// Lane width of the SoA kernels: four `f64` pairs, one 256-bit AVX
/// register (or two SSE2 registers) per plane.
pub const LANES: usize = 4;

/// Independent accumulators `Qr::rotate_batch_into` advances per
/// coefficient sweep: `G` adjacent output rows. One 64×64 accumulation is
/// up to 64 dependent steps — longer than the out-of-order window — so
/// single rows run one behind the other; `G` of them interleaved reach
/// the multiply/add ports' throughput. Four is what fits: `2·G`
/// accumulator registers plus the splatted coefficient and the product
/// temporaries in sixteen `ymm`. Measured in PR 23, when FlexCore's block
/// walk swept `G` sibling chains the same way (64×64 detection per
/// vector, parent 28.3 µs): `G = 2` 25.3 µs, `4` 22 µs, `8` 25.2 µs — its
/// sixteen accumulators spill. The walk stopped grouping in PR 25: its
/// chains run in selection order, where neighbours rarely share a row.
/// The SQRD's projection and update sweeps hold `G` blocks of `R(k, ·)`
/// lanes the same way (`sorted_qr_sqrd_into`).
pub const G: usize = 4;

/// Four complex numbers in structure-of-arrays (split re/im) form.
///
/// Every method applies the corresponding scalar [`Cx`] operation
/// independently to each lane, in the scalar operation order — no
/// cross-lane reassociation, no fused multiply-add — so lane `l` is
/// bit-identical to the scalar computation on element `l`.
///
/// ```
/// use flexcore_numeric::{Cx, CxLane};
/// let a = CxLane::splat(Cx::new(1.0, 2.0));
/// let b = CxLane::splat(Cx::new(3.0, -1.0));
/// let mut acc = CxLane::splat(Cx::new(0.5, 0.5));
/// acc.sub_mul(a, b);
/// assert_eq!(acc.get(2), Cx::new(0.5, 0.5) - Cx::new(1.0, 2.0) * Cx::new(3.0, -1.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CxLane {
    /// Real parts, one per lane.
    pub re: [f64; LANES],
    /// Imaginary parts, one per lane.
    pub im: [f64; LANES],
}

impl CxLane {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    /// All-zero lanes.
    #[inline]
    pub const fn zero() -> Self {
        CxLane {
            re: [0.0; LANES],
            im: [0.0; LANES],
        }
    }

    /// Broadcasts one complex value into every lane.
    #[inline]
    pub fn splat(z: Cx) -> Self {
        CxLane {
            re: [z.re; LANES],
            im: [z.im; LANES],
        }
    }

    /// Loads four consecutive values from a slice.
    ///
    /// # Panics
    /// Panics if `src.len() < LANES`.
    #[inline]
    pub(crate) fn load(src: &[Cx]) -> Self {
        let mut out = CxLane::zero();
        for (l, z) in src.iter().take(LANES).enumerate() {
            out.re[l] = z.re;
            out.im[l] = z.im;
        }
        out
    }

    /// Builds a lane vector by evaluating `f(lane)`.
    #[inline]
    pub fn from_fn(mut f: impl FnMut(usize) -> Cx) -> Self {
        let mut out = CxLane::zero();
        for l in 0..LANES {
            let z = f(l);
            out.re[l] = z.re;
            out.im[l] = z.im;
        }
        out
    }

    /// Extracts one lane as a scalar.
    #[inline]
    pub fn get(self, lane: usize) -> Cx {
        Cx::new(self.re[lane], self.im[lane])
    }

    /// Stores the four lanes into consecutive slots of a slice.
    ///
    /// # Panics
    /// Panics if `dst.len() < LANES`.
    #[inline]
    pub(crate) fn store(self, dst: &mut [Cx]) {
        for (l, slot) in dst.iter_mut().take(LANES).enumerate() {
            *slot = Cx::new(self.re[l], self.im[l]);
        }
    }

    /// `self += a * b` per lane, with the scalar order: the complex
    /// product is formed first (`re = a.re·b.re − a.im·b.im`,
    /// `im = a.re·b.im + a.im·b.re`), then added — exactly
    /// `acc + a * b` on [`Cx`].
    #[inline]
    pub(crate) fn add_mul(&mut self, a: CxLane, b: CxLane) {
        for l in 0..LANES {
            let t_re = a.re[l] * b.re[l] - a.im[l] * b.im[l];
            let t_im = a.re[l] * b.im[l] + a.im[l] * b.re[l];
            self.re[l] += t_re;
            self.im[l] += t_im;
        }
    }

    /// `self += conj(a) * b` per lane — the Hermitian accumulation kernel
    /// (`acc += A[c,r].conj() * x[c]`). Term values match the scalar
    /// `conj`-then-multiply chain bitwise: negating an operand of an IEEE
    /// multiply negates the product exactly, so
    /// `a.re·b.re − (−a.im)·b.im ≡ a.re·b.re + a.im·b.im`.
    #[inline]
    pub fn add_conj_mul(&mut self, a: CxLane, b: CxLane) {
        for l in 0..LANES {
            let t_re = a.re[l] * b.re[l] + a.im[l] * b.im[l];
            let t_im = a.re[l] * b.im[l] - a.im[l] * b.re[l];
            self.re[l] += t_re;
            self.im[l] += t_im;
        }
    }

    /// `self -= a * b` per lane (scalar order: product first, then the
    /// subtraction) — the interference-cancellation kernel of the
    /// effective-point recursions (`acc -= R[row,p] * point(s_p)`).
    #[inline]
    pub fn sub_mul(&mut self, a: CxLane, b: CxLane) {
        for l in 0..LANES {
            let t_re = a.re[l] * b.re[l] - a.im[l] * b.im[l];
            let t_im = a.re[l] * b.im[l] + a.im[l] * b.re[l];
            self.re[l] -= t_re;
            self.im[l] -= t_im;
        }
    }

    /// Squared magnitude `|z|²` per lane (`re·re + im·im`, the scalar
    /// [`Cx::norm_sqr`] order).
    #[inline]
    pub fn norm_sqr(self) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            *o = self.re[l] * self.re[l] + self.im[l] * self.im[l];
        }
        out
    }

    /// Squared distance `|self − other|²` per lane, in the scalar
    /// [`Cx::dist_sqr`] order (subtract, then `norm_sqr`).
    #[inline]
    pub fn dist_sqr(self, other: CxLane) -> [f64; LANES] {
        let mut out = [0.0; LANES];
        for (l, o) in out.iter_mut().enumerate() {
            let d_re = self.re[l] - other.re[l];
            let d_im = self.im[l] - other.im[l];
            *o = d_re * d_re + d_im * d_im;
        }
        out
    }
}

/// `a * b` per lane, the product formed directly in the scalar [`Cx`]
/// multiply order (`re = a.re·b.re − a.im·b.im`,
/// `im = a.re·b.im + a.im·b.re`) — never as `0 + a·b`, which would turn a
/// `−0.0` product component into `+0.0`.
impl std::ops::Mul for CxLane {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    type Output = CxLane;
    #[inline]
    fn mul(self, b: CxLane) -> CxLane {
        let mut out = CxLane::zero();
        for l in 0..LANES {
            out.re[l] = self.re[l] * b.re[l] - self.im[l] * b.im[l];
            out.im[l] = self.re[l] * b.im[l] + self.im[l] * b.re[l];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes() -> (CxLane, CxLane, [Cx; LANES], [Cx; LANES]) {
        let a = [
            Cx::new(1.25, -0.5),
            Cx::new(-2.0, 3.5),
            Cx::new(0.0, 1.0),
            Cx::new(7.125, -0.001),
        ];
        let b = [
            Cx::new(0.3, 0.7),
            Cx::new(-1.5, -2.5),
            Cx::new(4.0, 0.0),
            Cx::new(-0.25, 9.0),
        ];
        (CxLane::load(&a), CxLane::load(&b), a, b)
    }

    fn assert_bits(a: Cx, b: Cx) {
        assert_eq!(
            (a.re.to_bits(), a.im.to_bits()),
            (b.re.to_bits(), b.im.to_bits())
        );
    }

    #[test]
    fn add_mul_matches_scalar_bitwise() {
        let (la, lb, a, b) = lanes();
        let mut acc = CxLane::splat(Cx::new(0.125, -3.0));
        acc.add_mul(la, lb);
        for l in 0..LANES {
            assert_bits(acc.get(l), Cx::new(0.125, -3.0) + a[l] * b[l]);
        }
    }

    #[test]
    fn add_conj_mul_matches_scalar_bitwise() {
        let (la, lb, a, b) = lanes();
        let mut acc = CxLane::zero();
        acc.add_conj_mul(la, lb);
        for l in 0..LANES {
            let mut want = Cx::ZERO;
            want += a[l].conj() * b[l];
            assert_bits(acc.get(l), want);
        }
    }

    #[test]
    fn sub_mul_matches_scalar_bitwise() {
        let (la, lb, a, b) = lanes();
        let mut acc = CxLane::splat(Cx::new(-0.75, 2.0));
        acc.sub_mul(la, lb);
        for l in 0..LANES {
            let mut want = Cx::new(-0.75, 2.0);
            want -= a[l] * b[l];
            assert_bits(acc.get(l), want);
        }
    }

    #[test]
    fn reciprocal_product_matches_scalar_division_bitwise() {
        // `z * splat(d.inv())` per lane is `Cx`'s `z / d` (the effective
        // point's division, formed once per row and multiplied per lane).
        let (la, lb, a, b) = lanes();
        let d = Cx::new(2.5, -0.5);
        let out = la * CxLane::splat(d.inv());
        let prod = la * lb;
        for l in 0..LANES {
            assert_bits(out.get(l), a[l] / d);
            assert_bits(prod.get(l), a[l] * b[l]);
        }
        // Signed zeros: a `−0.0` product component must stay `−0.0` (an
        // accumulate-onto-zero form turns it into `+0.0`), for every sign
        // mix of zero and non-zero parts and of the divisor.
        let zeros = [
            Cx::new(-0.0, -1.0),
            Cx::new(0.0, -0.0),
            Cx::new(-0.0, 0.0),
            Cx::new(-3.0, -0.0),
        ];
        for d in [Cx::real(2.0), Cx::real(-2.0), Cx::new(0.0, 4.0), d] {
            for shift in 0..LANES {
                let z: [Cx; LANES] = std::array::from_fn(|l| zeros[(l + shift) % LANES]);
                let out = CxLane::load(&z) * CxLane::splat(d.inv());
                for (l, &zl) in z.iter().enumerate() {
                    assert_bits(out.get(l), zl / d);
                }
            }
        }
    }

    #[test]
    fn norms_match_scalar_bitwise() {
        let (la, lb, a, b) = lanes();
        let n = la.norm_sqr();
        let d = la.dist_sqr(lb);
        for l in 0..LANES {
            assert_eq!(n[l].to_bits(), a[l].norm_sqr().to_bits());
            assert_eq!(d[l].to_bits(), a[l].dist_sqr(b[l]).to_bits());
        }
    }

    #[test]
    fn splat_from_fn_store_roundtrip() {
        let z = Cx::new(-1.0, 0.5);
        assert_eq!(CxLane::splat(z).get(3), z);
        let lane = CxLane::from_fn(|l| Cx::real(l as f64));
        let mut out = [Cx::ZERO; LANES];
        lane.store(&mut out);
        assert_eq!(out[2], Cx::real(2.0));
    }
}
