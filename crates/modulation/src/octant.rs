//! The octant classifiers of the minimum-distance square (Fig. 6): which
//! of the eight triangles an effective point falls in.
//!
//! Shared by the ordering lookups and by the build script's derivation of
//! the predefined orders (`build.rs` pulls this file in with `#[path]`), so
//! it depends on nothing outside `std`.

/// Classifies an offset within the minimum-distance square into one of the
/// eight triangles of Fig. 6.
///
/// `dx`, `dy` are the coordinates of the effective point relative to the
/// square's centre, in *grid units* (square side = 2, so `dx, dy ∈ [−1, 1]`).
/// Triangles are octants: index `i ∈ 0..8` covers angles
/// `[i·45°, (i+1)·45°)`.
pub(crate) fn triangle_index(dx: f64, dy: f64) -> usize {
    let a = dy.atan2(dx); // (−π, π]
    let two_pi = 2.0 * std::f64::consts::PI;
    let norm = if a < 0.0 { a + two_pi } else { a };
    ((norm / (std::f64::consts::PI / 4.0)) as usize).min(7)
}

/// Filtered form of [`triangle_index`]: sign/magnitude comparisons decide
/// the octant whenever the point is provably far from every octant
/// boundary, and only points inside a narrow guard band around the
/// boundaries fall back to the `atan2` definition.
///
/// The result is identical to [`triangle_index`] for **every** input: the
/// comparison fast path only fires when the angular distance to the
/// nearest boundary (a multiple of 45°) exceeds ~`GUARD/2` radians, which
/// dwarfs the combined rounding error of `atan2` (≤ a few ulp in any libm)
/// plus one addition and one division (≤ 1 ulp each, ~1e-14 rad absolute
/// here) — so the floored octant in [`triangle_index`] cannot land on the
/// other side of the boundary. Inputs inside the guard band — including
/// zeros and signed zeros — take the exact `atan2` path unchanged. This is
/// the classic floating-point-filter construction; the SIMD block walk
/// uses it to drop `atan2` from the per-chain locate without perturbing a
/// single bit of any decision.
#[inline]
pub(crate) fn triangle_index_fast(dx: f64, dy: f64) -> usize {
    const GUARD: f64 = 1e-9;
    let ax = dx.abs();
    let ay = dy.abs();
    let guard = GUARD * ax.max(ay);
    if ax > guard && ay > guard && (ax - ay).abs() > guard {
        // Strictly inside an octant, with margin: quadrant signs plus the
        // |dy| vs |dx| comparison pick it exactly. Branchless (selects, no
        // data-dependent jumps — the octant of a noisy effective point is
        // unpredictable) encoding of the truth table
        //   (dx>0, dy>0, ay>ax):  TTf→0 TTt→1 FTt→2 FTf→3
        //                         FFf→4 FFt→5 TFt→6 TFf→7
        // as `quadrant-base + within-quadrant index`.
        let d = (ay > ax) as usize;
        let inner = if (dx > 0.0) == (dy > 0.0) { d } else { 3 - d };
        if dy > 0.0 {
            inner
        } else {
            4 + inner
        }
    } else {
        triangle_index(dx, dy)
    }
}
