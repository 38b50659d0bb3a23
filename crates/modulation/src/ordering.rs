//! Finding the k-th closest constellation symbol to an effective received
//! point.
//!
//! FlexCore's position vectors say "take the node with the k-th smallest
//! Euclidean distance at level l" (§3.1). Finding that node naively costs
//! |Q| distance computations plus a sort *per tree level per path* — the
//! exact waste the paper eliminates. This module provides both:
//!
//! * [`exact_order`] / [`kth_nearest_exact`] — the exhaustive oracle;
//! * [`OrderingLut`] — the paper's approximate predefined ordering (Fig. 6):
//!   the effective point is reduced to (a) the nearest *infinite-lattice*
//!   grid point and (b) one of eight triangles inside the minimum-distance
//!   square around it; a per-triangle table then maps `k` directly to a
//!   lattice offset. Offsets that leave the constellation mean the
//!   corresponding processing element is *deactivated* (`None`), exactly as
//!   in the paper's FPGA design.
//!
//! The per-triangle orders are derived by Monte-Carlo, as in the paper
//! ("via computer simulations, compute the most frequent sorted order"):
//! we sample points uniformly inside each triangle and rank lattice offsets
//! by mean distance rank, which converges to the same modal order. We store
//! all eight triangles explicitly rather than rotating a single stored
//! triangle — a negligible-memory software simplification.
//!
//! The derivation is the paper's offline table step, so it runs **at build
//! time**: `build.rs` runs it (`derive.rs`, with why its incremental
//! ranking reproduces the sort-per-sample definition bit for bit) and
//! writes every modulation's orders as a `static` table that this module
//! includes. No process draws a sample or ranks a candidate; the orders
//! depend on nothing but the modulation, and every [`OrderingLut`] of it
//! (any depth, any detector clone) reads the same `static` slices.

use crate::octant::triangle_index_fast;
use crate::qam::{Constellation, Modulation};
use flexcore_numeric::{Cx, LANES};
use std::sync::{Arc, Mutex, PoisonError};

include!(concat!(env!("OUT_DIR"), "/orders.rs"));

/// One modulation's predefined orders: `[triangle][k - 1]` = lattice
/// offset `(Δcol, Δrow)` of the k-th closest lattice point for effective
/// points inside that triangle.
type Orders = [&'static [(i8, i8)]; 8];

/// Returns all symbol indices sorted by ascending distance to `y`
/// (ties broken by index for determinism).
pub fn exact_order(c: &Constellation, y: Cx) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..c.order()).collect();
    idx.sort_by(|&a, &b| {
        let da = c.point(a).dist_sqr(y);
        let db = c.point(b).dist_sqr(y);
        // Distances are squared magnitudes and never NaN; Equal on an
        // incomparable pair defers to the index tie-break, keeping the
        // sort total and deterministic without a panic.
        da.partial_cmp(&db)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    idx
}

/// The symbol index with the `k`-th smallest distance to `y` (`k` is
/// 1-based). Returns `None` if `k > |Q|`.
pub fn kth_nearest_exact(c: &Constellation, y: Cx, k: usize) -> Option<usize> {
    if k == 0 || k > c.order() {
        return None;
    }
    // Partial selection would do; |Q| ≤ 256 so a full sort is fine for the
    // oracle (the fast path is the LUT, not this function).
    Some(exact_order(c, y)[k - 1])
}

/// The approximate predefined symbol ordering of §3.2.
///
/// The paper computes it offline and stores it in a look-up table; the
/// FPGA keeps it in non-pipelined registers. Here the orders are derived
/// **at build time** (see the module doc) and compiled in as `static`
/// data: every table of one modulation, at any depth, and every clone of
/// one, reads the same orders. `depth` bounds the largest `k` the table
/// can answer.
#[derive(Clone, Debug)]
pub struct OrderingLut {
    modulation: Modulation,
    depth: usize,
    /// The modulation's predefined orders, from the build-time table.
    orders: &'static Orders,
}

/// Process-wide memo of the [`LocatedOrderingTable`]s, one per
/// `(modulation, depth, strict)`, each a pure function of its key. At
/// 16-QAM a table weighs 36 KiB, so when a frame engine clones one
/// detector per subcarrier, 48 private copies would blow the last-level
/// cache and tax every blocked batch with table re-faults. (The tables are
/// materialised at run time, not built in like the orders: a 64-QAM table
/// is 576 KiB and a 256-QAM one 9 MiB.)
///
/// An association list suffices: detectors ask for tables only at depth
/// `|Q|`, so there is one per `(modulation, semantics)` pair.
type Memo = Vec<((Modulation, usize, bool), Arc<LocatedOrderingTable>)>;

static MEMO: Mutex<Memo> = Mutex::new(Vec::new());

/// The memo, locked. A panic while holding the lock cannot leave an entry
/// half-built (entries are pushed fully formed) — recover.
fn memo() -> std::sync::MutexGuard<'static, Memo> {
    MEMO.lock().unwrap_or_else(PoisonError::into_inner)
}

impl OrderingLut {
    /// The table for `modulation`, answering `k ≤ depth` (`depth` is
    /// clamped to `|Q|`). `depth` only clamps lookups: the build-time
    /// orders span every candidate of every triangle.
    pub fn new(modulation: Modulation, depth: usize) -> Self {
        OrderingLut {
            modulation,
            depth: depth.clamp(1, modulation.order()),
            orders: &ORDERS[modulation as usize],
        }
    }

    /// The approximate `k`-th closest symbol index to the effective point
    /// `y` (1-based `k`), with the paper's **strict** semantics.
    ///
    /// Returns `None` when the predefined order points outside the
    /// constellation (the paper deactivates the corresponding Euclidean
    /// distance unit) or when `k` exceeds the table depth.
    pub fn kth_nearest(&self, c: &Constellation, y: Cx, k: usize) -> Option<usize> {
        debug_assert_eq!(c.modulation(), self.modulation);
        if k == 0 || k > self.depth {
            return None;
        }
        if self.modulation == Modulation::Bpsk {
            return self.bpsk_kth(c, y, k);
        }
        let (ci, cj, tri) = self.locate(c, y);
        let (di, dj) = self.orders[tri][k - 1];
        // `None` outside the constellation: PE deactivated.
        grid_symbol(c, ci + i32::from(di), cj + i32::from(dj))
    }

    /// The approximate `k`-th closest **constellation** symbol, skipping
    /// predefined-order entries that fall outside the grid instead of
    /// deactivating.
    ///
    /// This matches the semantics of the probabilistic path model (ranks
    /// are over constellation symbols, since the transmitted symbol is
    /// always in the grid) at the cost of a short in-bounds scan — still no
    /// Euclidean distances or sorting. The strict variant
    /// [`OrderingLut::kth_nearest`] reproduces the paper's FPGA
    /// deactivation behaviour; the `ablation` driver compares both against
    /// the exact oracle. Returns `None` only when `k` exceeds the table
    /// depth, or the order reaches fewer than `k` symbols from the located
    /// centre (always so for a centre more than `side` cells outside the
    /// grid).
    pub fn kth_nearest_skip(&self, c: &Constellation, y: Cx, k: usize) -> Option<usize> {
        debug_assert_eq!(c.modulation(), self.modulation);
        if k == 0 || k > self.depth {
            return None;
        }
        if self.modulation == Modulation::Bpsk {
            return self.bpsk_kth(c, y, k);
        }
        let (ci, cj, tri) = self.locate(c, y);
        self.in_grid(c, ci, cj, tri).nth(k - 1)
    }

    /// Triangle `tri`'s predefined order around centre `(ci, cj)`, reduced
    /// to the entries that are constellation symbols, in rank order.
    fn in_grid<'a>(
        &'a self,
        c: &'a Constellation,
        ci: i32,
        cj: i32,
        tri: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        self.orders[tri]
            .iter()
            .filter_map(move |&(di, dj)| grid_symbol(c, ci + i32::from(di), cj + i32::from(dj)))
    }

    /// Shared BPSK degenerate lookup.
    fn bpsk_kth(&self, c: &Constellation, y: Cx, k: usize) -> Option<usize> {
        let first = c.slice(y);
        match k {
            1 => Some(first),
            2 => Some(1 - first),
            _ => None,
        }
    }

    /// Locates the effective point: nearest infinite-lattice centre
    /// `(ci, cj)` in level-index units and the triangle index within its
    /// minimum-distance square (`triangle_index_fast`, so no
    /// unconditional `atan2`). This is what the block walk's packed grid
    /// locate ([`LocatedOrderingTable::locate_bases`]) reproduces, and
    /// re-runs on any lane that fails its guard.
    #[inline]
    pub fn locate(&self, c: &Constellation, y: Cx) -> (i32, i32, usize) {
        let side = c.grid_side() as i32;
        let u = y.re / c.scale();
        let v = y.im / c.scale();
        // Nearest INFINITE-lattice point (not clamped to the grid): levels
        // at 2i−(side−1). Ultra-far effective points (near-singular R
        // diagonals blow `u`/`v` up to ±1e150 and beyond) are clamped to a
        // window that is still unambiguously outside the constellation:
        // the index arithmetic stays overflow-free and every lookup
        // resolves to the same out-of-grid outcome it would have anyway.
        let window = |x: f64| x.clamp(-(2 * side) as f64, (3 * side) as f64) as i32;
        let ci = window(((u + (side - 1) as f64) / 2.0).round());
        let cj = window(((v + (side - 1) as f64) / 2.0).round());
        let dx = u - level_value_i(ci, side);
        let dy = v - level_value_i(cj, side);
        (ci, cj, triangle_index_fast(dx, dy))
    }
}

/// Sentinel for "no symbol" entries in [`LocatedOrderingTable`].
const NO_SYM: u16 = u16::MAX;
/// "No table row" from [`LocatedOrderingTable::locate_bases`]: only
/// BPSK's windowless table answers it.
const MISS: u32 = u32::MAX;
/// `2⁵² + 2⁵¹`: added to an integer-valued `|x| < 2⁵¹` the sum is exact
/// and its low mantissa bits hold `x` in two's complement.
const INT_MAGIC: f64 = 6_755_399_441_055_744.0;

/// Direct-lookup form of the triangle-LUT ordering for every lattice
/// centre near the constellation: `(centre, triangle, rank) → symbol`,
/// materialised once per `(modulation, depth, semantics)`.
///
/// Each row holds what the scan path ([`OrderingLut::kth_nearest`] /
/// [`OrderingLut::kth_nearest_skip`] after `locate`) returns for its
/// centre, triangle and rank — the same predefined order filtered by the
/// same grid test — so a lookup equals the scan; it just happens once per
/// process instead of once per tree node per lane.
///
/// The window is the order's reach. Every triangle's predefined order
/// spans exactly ±`side` cells, so a centre more than `side` cells outside
/// the grid has no in-grid entry at any rank, under either semantics. The
/// window covers centres `ci, cj ∈ [−side, 2·side)`; one shared all-`None`
/// row after it answers every centre beyond, so every located pick is one
/// table read. At 16-QAM the table weighs 36 KiB. BPSK's degenerate
/// ordering reads the observation directly, so its table is built
/// windowless: [`LocatedOrderingTable::base`] returns `None` and the
/// caller falls back to the scan.
#[derive(Clone, Debug)]
pub struct LocatedOrderingTable {
    lo: i32,
    w: i32,
    depth: usize,
    /// Constellation grid side, cached for the grid locate.
    side: i32,
    /// `1 / scale`, precomputed so the hot locate multiplies instead of
    /// divides (the grid locate's guard makes the substitution exact).
    inv_scale: f64,
    /// The base every centre outside the window gets: the shared empty
    /// row's, or `MISS` for the windowless BPSK table.
    beyond: u32,
    /// `syms[((j·w + i)·8 + tri)·depth + (k−1)]`, `NO_SYM` = deactivated,
    /// then the shared empty row.
    syms: Vec<u16>,
}

impl OrderingLut {
    /// The shared, process-wide [`LocatedOrderingTable`] for this ordering
    /// — [`OrderingLut::build_table`] memoised by
    /// `(modulation, depth, strict)`, so every detector
    /// clone (one per subcarrier in a frame engine) reads the *same* table
    /// instead of faulting a private copy per clone.
    pub fn shared_table(&self, c: &Constellation, strict: bool) -> Arc<LocatedOrderingTable> {
        let key = (self.modulation, self.depth, strict);
        let mut memo = memo();
        if let Some((_, t)) = memo.iter().find(|(k, _)| *k == key) {
            return t.clone();
        }
        let t = Arc::new(self.build_table(c, strict));
        memo.push((key, t.clone()));
        t
    }

    /// Builds the [`LocatedOrderingTable`] for this ordering, with strict
    /// (deactivating) or skip-outside lookup semantics.
    pub fn build_table(&self, c: &Constellation, strict: bool) -> LocatedOrderingTable {
        debug_assert_eq!(c.modulation(), self.modulation);
        let side = c.grid_side() as i32;
        let (lo, w) = if self.modulation == Modulation::Bpsk {
            (0, 0) // windowless: bpsk_kth slices the observation itself
        } else {
            (-side, 3 * side) // the orders' reach: ±side around the grid
        };
        let (wu, depth) = (w as usize, self.depth);
        let rows = wu * wu * 8;
        // The window's rows, then (when there is a window) the empty row.
        let mut syms = vec![NO_SYM; (rows + usize::from(w > 0)) * depth];
        // What `locate_bases` relies on: its guard cap `4·side` far below
        // the magic-number conversion's exact range (and any i32 wrap), and
        // every table index representable beside the `u32::MAX` miss.
        assert!(side < 1 << 16 && syms.len() < MISS as usize);
        // Every cell the orders reach from the window,
        // `[lo − side, lo + w + side)²`, as its symbol or `NO_SYM`; an
        // offset is a flat step from the corner of its centre's reach
        // square, so a candidate is one read.
        let pw = if w > 0 { wu + 2 * side as usize } else { 0 };
        let cells: Vec<u16> = (0..pw * pw)
            .map(|p| {
                let (col, row) = ((p % pw) as i32 + lo - side, (p / pw) as i32 + lo - side);
                grid_symbol(c, col, row).map_or(NO_SYM, |s| s as u16)
            })
            .collect();
        // Offsets lie within ±side (`every_order_spans_exactly_the_grid_side`).
        let reach = |d: i8| (side + i32::from(d)) as usize;
        let steps: Vec<Vec<usize>> = self
            .orders
            .iter()
            .map(|o| {
                o.iter()
                    .map(|&(di, dj)| reach(dj) * pw + reach(di))
                    .collect()
            })
            .collect();
        let mut ranked = vec![NO_SYM; steps.iter().map(Vec::len).max().unwrap_or(0)];
        for j in 0..wu {
            for i in 0..wu {
                let corner = j * pw + i;
                for (tri, steps) in steps.iter().enumerate() {
                    let row = &mut syms[((j * wu + i) * 8 + tri) * depth..][..depth];
                    if strict {
                        for (slot, &step) in row.iter_mut().zip(steps) {
                            *slot = cells[corner + step];
                        }
                    } else {
                        // Every candidate written, the cursor advanced
                        // past the in-grid ones: the in-grid entries in
                        // rank order, without a branch per candidate.
                        let mut n = 0;
                        for &step in steps {
                            let s = cells[corner + step];
                            ranked[n] = s;
                            n += usize::from(s != NO_SYM);
                        }
                        let n = n.min(depth);
                        row[..n].copy_from_slice(&ranked[..n]);
                    }
                }
            }
        }
        LocatedOrderingTable {
            lo,
            w,
            depth,
            side,
            inv_scale: 1.0 / c.scale(),
            beyond: if w > 0 { (rows * depth) as u32 } else { MISS },
            syms,
        }
    }
}

impl LocatedOrderingTable {
    /// Division- and `atan2`-free locate of `N` points at once: nearest
    /// lattice centre `(ci, cj)`, octant triangle and a per-lane guard
    /// verdict, from one unit-grid `floor` per axis. A lane whose verdict
    /// is `true` is bit-identical to [`OrderingLut::locate`]; a lane whose
    /// verdict is `false` holds garbage and must be re-run through it.
    ///
    /// Geometry: in level units `u = re/scale`, centres sit at odd
    /// integers, their minimum-distance cells are `[c−1, c+1]²`, and the
    /// eight octant boundaries are the integer grid lines plus the unit
    /// squares' diagonals. So `n = ⌊u⌋` determines the centre
    /// (`c = n|1` — the odd end of the unit interval) and the octant
    /// follows from the parities of `n, m` and a fractional-part
    /// comparison — floor, subtract, compare; no round-half-away, no
    /// division, no arctangent.
    ///
    /// Exactness: `u' = re·inv_scale` differs from the scalar path's
    /// `u = re/scale` by ≤ 2 ulp, the fractional parts are computed to
    /// within ~4·10⁻¹⁶ absolute, and `|u'|` is capped at `4·side ≤ 64` —
    /// so if `u', v'` clear every decision boundary (integer lines, both
    /// unit-square diagonals, the guard cap) by the relative guard
    /// `10⁻⁹·max(1, |u'|, |v'|)`, then `u, v` lie strictly on the same
    /// side of each boundary and the scalar locate provably makes the
    /// identical cell/octant decisions (its round-half-away ties and the
    /// `triangle_index` boundary rays all live on those same boundaries).
    /// The cap keeps every guarded centre, `ci, cj ∈ [−1.5·side,
    /// 2.5·side)`, inside `locate`'s clamp window `[−2·side, 3·side]`, so
    /// the clamp never decides a guarded lane. Any guard failure —
    /// including NaN, whose comparisons are all false — yields a `false`
    /// verdict.
    ///
    /// Shape: one flat elementwise loop whose guards combine with
    /// non-short-circuit `&`, a float→int conversion by magic-number add
    /// (exact below the guard cap; a saturating `as i32` would compile to
    /// a scalar convert per lane) and wrapping 32-bit index math, so the
    /// compiler packs every step — CI disassembles
    /// [`LocatedOrderingTable::locate_bases`] to keep that true.
    #[inline(always)]
    fn locate_cells<const N: usize>(
        &self,
        re: &[f64; N],
        im: &[f64; N],
    ) -> ([i32; N], [i32; N], [u32; N], [bool; N]) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let (mut ci, mut cj, mut tri, mut ok) = ([0i32; N], [0i32; N], [0u32; N], [false; N]);
        let lim = (4 * self.side) as f64;
        for l in 0..N {
            let (u, v) = (re[l] * self.inv_scale, im[l] * self.inv_scale);
            let (au, av) = (u.abs(), v.abs());
            let m = 1e-9 * au.max(av).max(1.0);
            let (nu, nv) = (u.floor(), v.floor());
            let (fu, fv) = (u - nu, v - nv);
            ok[l] = (au < lim)
                & (av < lim)
                & (fu > m)
                & (1.0 - fu > m)
                & (fv > m)
                & (1.0 - fv > m)
                & ((fu - fv).abs() > m)
                & ((fu + fv - 1.0).abs() > m);
            // `nu` is an integer below the cap on every guarded lane, so
            // the sum is exact and its low word is `n` in two's complement.
            let n = (nu + INT_MAGIC).to_bits() as i32;
            let mm = (nv + INT_MAGIC).to_bits() as i32;
            // Odd end of the unit interval = the cell centre; its level
            // index. `c + (side−1)` is even (odd+odd): the shift is exact.
            ci[l] = (n | 1).wrapping_add(self.side - 1) >> 1;
            cj[l] = (mm | 1).wrapping_add(self.side - 1) >> 1;
            // du = u − cu is positive iff n is odd, with |du| = fu (n odd)
            // or 1−fu (n even); same for dv. Octant encoding as in
            // `triangle_index_fast`.
            let (sx, sy) = (n & 1, mm & 1);
            let adu = if sx != 0 { fu } else { 1.0 - fu };
            let adv = if sy != 0 { fv } else { 1.0 - fv };
            let d = (adv > adu) as u32;
            let inner = if sx == sy { d } else { 3 - d };
            tri[l] = if sy != 0 { inner } else { 4 + inner };
        }
        (ci, cj, tri, ok)
    }

    /// `N` grid locates at once over an array of points: lane for lane
    /// [`OrderingLut::locate`], through the packed front half with the
    /// exact per-lane fallback on any guard failure.
    #[inline]
    pub fn locate_array<const N: usize>(
        &self,
        lut: &OrderingLut,
        c: &Constellation,
        ys: &[Cx; N],
    ) -> [(i32, i32, usize); N] {
        let (ci, cj, tri, ok) = self.locate_cells(&ys.map(|y| y.re), &ys.map(|y| y.im));
        std::array::from_fn(|l| {
            if ok[l] {
                (ci[l], cj[l], tri[l] as usize)
            } else {
                lut.locate(c, ys[l])
            }
        })
    }

    /// The fused per-chain kernel of the block walk: locates the four
    /// effective points of one sibling chain (given as the split planes
    /// they already are) and writes each lane's table base — what
    /// [`LocatedOrderingTable::base`] of [`OrderingLut::locate`]
    /// returns, lane for lane: the shared empty row's base for a centre
    /// beyond the window, and `u32::MAX` only from BPSK's windowless
    /// table. Guard-failing lanes are re-run through exactly that scalar
    /// pair.
    ///
    /// Kept out of line so the packed code has a symbol CI can
    /// disassemble; the call costs a few cycles against the ~150 the
    /// packing saves per chain.
    #[inline(never)]
    pub fn locate_bases(
        &self,
        lut: &OrderingLut,
        c: &Constellation,
        re: &[f64; LANES],
        im: &[f64; LANES],
        out: &mut [u32; LANES],
    ) {
        // flexcore-lint: hot-path
        // flexcore-lint: bit-identity
        let (ci, cj, tri, ok) = self.locate_cells(re, im);
        let (w, depth) = (self.w as u32, self.depth as u32);
        for l in 0..LANES {
            // A centre left of / below the window wraps to a huge index.
            let i = ci[l].wrapping_sub(self.lo) as u32;
            let j = cj[l].wrapping_sub(self.lo) as u32;
            let base = (j.wrapping_mul(w).wrapping_add(i))
                .wrapping_mul(8)
                .wrapping_add(tri[l])
                .wrapping_mul(depth);
            out[l] = if (i < w) & (j < w) { base } else { self.beyond };
        }
        for l in 0..LANES {
            if !ok[l] {
                out[l] = self.base_exact(lut, c, Cx::new(re[l], im[l]));
            }
        }
    }

    /// The guard-failure lane of [`LocatedOrderingTable::locate_bases`]:
    /// the exact scalar pair it stands in for.
    #[cold]
    #[inline(never)]
    fn base_exact(&self, lut: &OrderingLut, c: &Constellation, y: Cx) -> u32 {
        let (ci, cj, tri) = lut.locate(c, y);
        self.base(ci, cj, tri).map_or(MISS, |b| b as u32)
    }

    /// The rank-independent half of a table lookup: the flat index base
    /// for a located `(centre, triangle)` — the shared empty row's for a
    /// centre beyond the window, where the order reaches no symbol — or
    /// `None` from BPSK's windowless table (the caller must use the scan
    /// path). The blocked trie walk computes this once per sibling chain
    /// per lane — every node of the chain then reads its rank with one
    /// [`LocatedOrderingTable::get`] instead of re-checking the window.
    #[inline]
    pub fn base(&self, ci: i32, cj: i32, tri: usize) -> Option<usize> {
        // A centre left of / below the window wraps to a huge index.
        let i = ci.wrapping_sub(self.lo) as u32;
        let j = cj.wrapping_sub(self.lo) as u32;
        let w = self.w as u32;
        if i < w && j < w {
            Some(((j as usize * w as usize + i as usize) * 8 + tri) * self.depth)
        } else {
            (self.beyond != MISS).then_some(self.beyond as usize)
        }
    }

    /// Rank-`k` read at a [`LocatedOrderingTable::base`], exactly as the
    /// corresponding scan would return it (`None` = deactivated /
    /// exhausted).
    #[inline]
    pub fn get(&self, base: usize, k: usize) -> Option<usize> {
        if k == 0 || k > self.depth {
            return None;
        }
        let s = self.syms[base + k - 1];
        (s != NO_SYM).then_some(s as usize)
    }
}

/// The symbol at lattice cell `(col, row)`, `None` outside the grid.
#[inline]
fn grid_symbol(c: &Constellation, col: i32, row: i32) -> Option<usize> {
    let side = c.grid_side() as i32;
    (col >= 0 && col < side && row >= 0 && row < side)
        .then(|| c.grid_to_index(col as usize, row as usize))
}

#[inline]
fn level_value_i(i: i32, side: i32) -> f64 {
    // f64 arithmetic: immune to i32 overflow for out-of-window indices.
    2.0 * i as f64 - (side - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_numeric::rng::CxRng;

    #[test]
    fn exact_order_is_a_permutation_sorted_by_distance() {
        let c = Constellation::new(Modulation::Qam16);
        let y = Cx::new(0.3, -0.7);
        let ord = exact_order(&c, y);
        let mut sorted = ord.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<_>>());
        for w in ord.windows(2) {
            assert!(c.point(w[0]).dist_sqr(y) <= c.point(w[1]).dist_sqr(y) + 1e-15);
        }
    }

    #[test]
    fn kth_exact_bounds() {
        let c = Constellation::new(Modulation::Qpsk);
        let y = Cx::new(0.1, 0.1);
        assert!(kth_nearest_exact(&c, y, 0).is_none());
        assert!(kth_nearest_exact(&c, y, 5).is_none());
        assert_eq!(kth_nearest_exact(&c, y, 1), Some(c.slice(y)));
    }

    #[test]
    fn triangle_index_covers_octants() {
        // One representative point per octant, at angle (i+0.5)·45°.
        for i in 0..8 {
            let a = (i as f64 + 0.5) * std::f64::consts::PI / 4.0;
            let t = triangle_index(0.5 * a.cos(), 0.5 * a.sin());
            assert_eq!(t, i, "angle {}°", (i as f64 + 0.5) * 45.0);
        }
    }

    #[test]
    fn lut_first_entry_is_center() {
        // The nearest lattice point to any point inside the square is the
        // square's own centre, so k=1 must map to offset (0,0).
        for &m in &[Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let lut = OrderingLut::new(m, 8);
            for tri in 0..8 {
                assert_eq!(lut.orders[tri].first(), Some(&(0, 0)), "{m:?} tri {tri}");
            }
        }
    }

    #[test]
    fn lut_matches_slice_for_k1() {
        let c = Constellation::new(Modulation::Qam64);
        let lut = OrderingLut::new(Modulation::Qam64, 16);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let y = rng.cx_normal(1.0);
            if let Some(idx) = lut.kth_nearest(&c, y, 1) {
                assert_eq!(idx, c.slice(y), "y = {y:?}");
            } else {
                // k=1 deactivation only happens when the nearest lattice
                // point is outside the constellation; slice clamps instead.
                let far = y.re.abs() / c.scale() > 7.0 || y.im.abs() / c.scale() > 7.0;
                assert!(far, "unexpected deactivation at {y:?}");
            }
        }
    }

    #[test]
    fn lut_agrees_with_exact_for_interior_points() {
        // For effective points well inside the constellation, the first few
        // predefined candidates should usually be the true k-th nearest.
        let c = Constellation::new(Modulation::Qam16);
        let lut = OrderingLut::new(Modulation::Qam16, 4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut agree = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            // Constrain to the interior cell region (levels ±1).
            let y = Cx::new(
                rng.gen_range(-1.0..1.0) * c.scale(),
                rng.gen_range(-1.0..1.0) * c.scale(),
            );
            for k in 1..=4 {
                let (a, b) = (lut.kth_nearest(&c, y, k), kth_nearest_exact(&c, y, k));
                if let Some(a) = a {
                    total += 1;
                    if Some(a) == b {
                        agree += 1;
                    }
                }
            }
        }
        let rate = agree as f64 / total as f64;
        assert!(rate > 0.85, "agreement rate {rate}");
    }

    #[test]
    fn lut_entries_unique_per_triangle() {
        let lut = OrderingLut::new(Modulation::Qam64, 32);
        for tri in 0..8 {
            let mut seen = std::collections::HashSet::new();
            for off in &lut.orders[tri][..32] {
                assert!(seen.insert(off), "duplicate offset {off:?} in tri {tri}");
            }
        }
    }

    #[test]
    fn lut_deactivates_outside_constellation() {
        let c = Constellation::new(Modulation::Qpsk);
        let lut = OrderingLut::new(Modulation::Qpsk, 4);
        // Effective point far outside: center lattice point beyond the grid,
        // so most candidates must deactivate.
        let y = Cx::new(50.0 * c.scale(), 50.0 * c.scale());
        let mut nones = 0;
        for k in 1..=4 {
            if lut.kth_nearest(&c, y, k).is_none() {
                nones += 1;
            }
        }
        assert!(nones > 0);
    }

    #[test]
    fn triangle_index_fast_matches_exact_everywhere() {
        // Random points, exact boundary points, near-boundary points a few
        // ulp off, zeros and signed zeros: the filtered octant test must
        // agree with the atan2 definition on every one.
        let mut rng = StdRng::seed_from_u64(0x0C7A);
        for _ in 0..200_000 {
            let dx: f64 = rng.gen_range(-1.0..1.0);
            let dy: f64 = rng.gen_range(-1.0..1.0);
            assert_eq!(
                triangle_index_fast(dx, dy),
                triangle_index(dx, dy),
                "({dx},{dy})"
            );
        }
        let mut adversarial: Vec<(f64, f64)> = vec![
            (0.0, 0.0),
            (-0.0, 0.0),
            (0.0, -0.0),
            (-0.0, -0.0),
            (1.0, 0.0),
            (0.0, 1.0),
            (-1.0, 0.0),
            (0.0, -1.0),
            (1.0, 1.0),
            (-1.0, 1.0),
            (1.0, -1.0),
            (-1.0, -1.0),
        ];
        // Points a few ulp around every boundary ray, at several radii.
        for i in 0..8 {
            let a = i as f64 * std::f64::consts::PI / 4.0;
            for r in [1e-12, 0.3, 1.0, 1e9] {
                let (x, y) = (r * a.cos(), r * a.sin());
                for (ex, ey) in [(0.0, 0.0), (f64::EPSILON, 0.0), (-f64::EPSILON, 0.0)] {
                    adversarial.push((x + ex * r, y + ey * r));
                }
            }
        }
        for &(dx, dy) in &adversarial {
            assert_eq!(
                triangle_index_fast(dx, dy),
                triangle_index(dx, dy),
                "({dx},{dy})"
            );
        }
        // And on the residuals the locate itself feeds it: the located
        // triangle is the `atan2` definition's, for random points, exact
        // lattice centres and boundary mid-points.
        for &m in &[Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let c = Constellation::new(m);
            let lut = OrderingLut::new(m, 8);
            let side = c.grid_side() as i32;
            let mut points: Vec<Cx> = (0..20_000).map(|_| rng.cx_normal(1.5)).collect();
            for gi in -3..side + 3 {
                for gj in -3..side + 3 {
                    for (dx, dy) in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.5, 0.0)] {
                        points.push(Cx::new(
                            (level_value_i(gi, side) + dx) * c.scale(),
                            (level_value_i(gj, side) + dy) * c.scale(),
                        ));
                    }
                }
            }
            for y in points {
                let (ci, cj, tri) = lut.locate(&c, y);
                let dx = y.re / c.scale() - level_value_i(ci, side);
                let dy = y.im / c.scale() - level_value_i(cj, side);
                assert_eq!(tri, triangle_index(dx, dy), "{m:?} {y:?}");
            }
        }
    }

    /// The located table's contract for `m` at full depth, under both
    /// semantics: every centre of `locate`'s clamp domain reads what its
    /// scan returns at every rank up to `depth + 1`. Inside the window
    /// that is the row the scan fills; beyond it, `None` at every rank,
    /// because the order reaches no symbol from there. Each row is checked
    /// against the strict lookup per rank and the in-grid entries
    /// collected once, plus the public scans at ranks 1 and `depth`.
    fn assert_table_contract(m: Modulation) {
        let c = Constellation::new(m);
        let lut = OrderingLut::new(m, m.order());
        let depth = lut.depth;
        let (strict_t, skip_t) = (lut.build_table(&c, true), lut.build_table(&c, false));
        let side = c.grid_side() as i32;
        let window = -side..2 * side;
        let mut beyond = 0;
        for cj in -2 * side..=3 * side {
            for ci in -2 * side..=3 * side {
                let inside = window.contains(&ci) && window.contains(&cj);
                beyond += usize::from(!inside);
                for tri in 0..8usize {
                    let at = format!("{m:?} ({ci},{cj},{tri})");
                    // A representative effective point inside (ci, cj,
                    // tri): centre plus a mid-octant offset.
                    let a = (tri as f64 + 0.5) * std::f64::consts::PI / 4.0;
                    let y = Cx::new(
                        (level_value_i(ci, side) + 0.5 * a.cos()) * c.scale(),
                        (level_value_i(cj, side) + 0.5 * a.sin()) * c.scale(),
                    );
                    assert_eq!(lut.locate(&c, y), (ci, cj, tri), "{at}");
                    let in_grid: Vec<usize> = lut.in_grid(&c, ci, cj, tri).collect();
                    assert!(inside || in_grid.is_empty(), "{at}: reach past the window");
                    let strict_base = strict_t.base(ci, cj, tri).expect("a windowed table");
                    let skip_base = skip_t.base(ci, cj, tri).expect("a windowed table");
                    for k in 1..=depth + 1 {
                        let ranked = k <= depth;
                        let strict = ranked
                            .then(|| {
                                let (di, dj) = lut.orders[tri][k - 1];
                                grid_symbol(&c, ci + i32::from(di), cj + i32::from(dj))
                            })
                            .flatten();
                        let skip = in_grid.get(k - 1).copied().filter(|_| ranked);
                        assert_eq!(strict_t.get(strict_base, k), strict, "strict {at} k {k}");
                        assert_eq!(skip_t.get(skip_base, k), skip, "skip {at} k {k}");
                    }
                    for k in [1, depth] {
                        let (strict, skip) =
                            (lut.kth_nearest(&c, y, k), lut.kth_nearest_skip(&c, y, k));
                        assert_eq!(
                            strict_t.get(strict_base, k),
                            strict,
                            "strict scan {at} k {k}"
                        );
                        assert_eq!(skip_t.get(skip_base, k), skip, "skip scan {at} k {k}");
                    }
                }
            }
        }
        assert!(
            beyond > 0,
            "{m:?}: the clamp domain reaches past the window"
        );
    }

    #[test]
    fn located_table_matches_scan_for_every_clamped_centre() {
        for m in [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            assert_table_contract(m);
        }
    }

    #[test]
    #[ignore = "≈ 10⁸ reads; CI runs it in the release step"]
    fn located_table_matches_scan_for_every_clamped_centre_at_256_qam() {
        assert_table_contract(Modulation::Qam256);
    }

    #[test]
    fn every_order_spans_exactly_the_grid_side() {
        // The window's exactness rests on this: each triangle's order is
        // the whole square of offsets within ±side cells, and no more.
        for m in [
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let side = m.grid_side() as i8;
            let mut square: Vec<(i8, i8)> = (-side..=side)
                .flat_map(|dj| (-side..=side).map(move |di| (di, dj)))
                .collect();
            square.sort_unstable();
            for (tri, order) in OrderingLut::new(m, 1).orders.iter().enumerate() {
                let mut offsets = order.to_vec();
                offsets.sort_unstable();
                assert_eq!(offsets, square, "{m:?} tri {tri}");
            }
        }
    }

    #[test]
    fn locate_kernel_matches_locate_and_base_everywhere() {
        // The packed grid locate against the exact pair it replaces —
        // `locate` + `base`, lane for lane — over a dense grid crossed
        // with every decision boundary: integer lines (cell edges and
        // centres), both unit-square diagonals (equal / complementary
        // fractional parts), the table window's edge, the ±4·side guard
        // cap, each a few ulp, a sub-guard and a super-guard step to
        // either side; plus signed zeros, huge and non-finite values.
        // Walking the cross product four at a time puts guard-failing lanes
        // beside passing ones; a second loop puts each kind of failure in
        // each of the four positions. Every lane of a windowed table gets
        // a row — past the window, the shared empty one — so only BPSK's
        // windowless table ever answers `MISS`.
        for &m in &[
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let c = Constellation::new(m);
            let lut = OrderingLut::new(m, 8);
            for strict in [false, true] {
                let t = lut.build_table(&c, strict);
                let oracle = |y: Cx| {
                    let (ci, cj, tri) = lut.locate(&c, y);
                    t.base(ci, cj, tri).map_or(u32::MAX, |b| b as u32)
                };
                let check = |pts: [Cx; LANES]| {
                    let mut got = [0u32; LANES];
                    t.locate_bases(&lut, &c, &pts.map(|y| y.re), &pts.map(|y| y.im), &mut got);
                    let cells = t.locate_array(&lut, &c, &pts);
                    for l in 0..LANES {
                        assert_eq!(got[l], oracle(pts[l]), "{m:?} lane {l} of {pts:?}");
                        assert_eq!(got[l] == MISS, m == Modulation::Bpsk, "{m:?} {pts:?}");
                        assert_eq!(cells[l], lut.locate(&c, pts[l]), "{m:?} {pts:?}");
                    }
                };
                let cap = 4 * c.grid_side() as i32;
                let mut axis = vec![0.0, -0.0, 1e300, -1e300, 1e150, -1e150, 1e12];
                axis.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                // Past the cap, where the exact locate clamps its centre.
                axis.extend([3.6 * cap as f64, -1e6 - 0.3, 4e9 + 0.3]);
                let specials = axis.len();
                for n in -(cap + 3)..=(cap + 3) {
                    for frac in [0.0, 0.25, 0.5, 0.75] {
                        let x = n as f64 + frac;
                        axis.extend([x, x + 0.137, x - 0.0421]);
                        for step in [4e-16, 1e-10, 1e-8] {
                            axis.extend([x + step * x.abs().max(1.0), x - step * x.abs().max(1.0)]);
                        }
                    }
                }
                // Every axis value against a thinned copy of the axis (the
                // full square is ~2·10⁷ points at 256-QAM): every special
                // value, then every fifth grid value. The stride is coprime
                // to the nine values per grid step, so the copy still holds
                // every kind of grid value.
                let mut thin = axis[..specials].to_vec();
                thin.extend(axis[specials..].iter().copied().step_by(5));
                let mut block = [Cx::ZERO; LANES];
                let mut filled = 0;
                for &u in &axis {
                    for &v in &thin {
                        block[filled] = Cx::new(u * c.scale(), v * c.scale());
                        filled += 1;
                        if filled == LANES {
                            check(block);
                            filled = 0;
                        }
                    }
                }
                // Each kind of guard failure in each lane position, beside
                // three passing lanes.
                let pass = Cx::new(0.3 * c.scale(), -0.6 * c.scale());
                for bad in [
                    Cx::new(f64::NAN, 0.1),
                    Cx::new(0.1, f64::NEG_INFINITY),
                    Cx::new(-1e300, 1e300),
                    Cx::new(c.scale(), 0.2),
                    Cx::new(0.25 * c.scale(), 0.25 * c.scale()),
                    Cx::new(0.25 * c.scale(), 0.75 * c.scale()),
                    Cx::new(cap as f64 * c.scale(), 0.3),
                    Cx::new(0.0, -0.0),
                ] {
                    for pos in 0..LANES {
                        check(std::array::from_fn(|l| if l == pos { bad } else { pass }));
                    }
                }
                let mut rng = StdRng::seed_from_u64(0x6D1D);
                for _ in 0..20_000 {
                    check(std::array::from_fn(|_| rng.cx_normal(1.5)));
                }
            }
        }
    }

    #[test]
    fn located_table_bpsk_is_windowless() {
        let c = Constellation::new(Modulation::Bpsk);
        let lut = OrderingLut::new(Modulation::Bpsk, 2);
        let t = lut.build_table(&c, false);
        assert_eq!(t.base(0, 0, 0), None, "BPSK lookups must fall back");
    }

    #[test]
    fn bpsk_ordering() {
        let c = Constellation::new(Modulation::Bpsk);
        let lut = OrderingLut::new(Modulation::Bpsk, 2);
        let y = Cx::new(0.4, 0.0);
        assert_eq!(lut.kth_nearest(&c, y, 1), Some(1));
        assert_eq!(lut.kth_nearest(&c, y, 2), Some(0));
        assert_eq!(lut.kth_nearest(&c, y, 3), None);
    }

    #[test]
    fn depth_clamps_to_order() {
        let lut = OrderingLut::new(Modulation::Qpsk, 1000);
        assert_eq!(lut.depth, 4);
        assert_eq!(OrderingLut::new(Modulation::Bpsk, 5).depth, 2);
    }

    /// The defining derivation — one comparator sort of every candidate
    /// per sample, over a `depth`-dependent candidate radius: the
    /// reference the incremental derivation is pinned to.
    fn reference_orders(modulation: Modulation, depth: usize) -> Vec<Vec<(i32, i32)>> {
        let depth = depth.clamp(1, modulation.order());
        if modulation == Modulation::Bpsk {
            return (0..8).map(|_| vec![(0, 0), (1, 0)]).collect();
        }
        let radius = {
            let mut r = 1i32;
            while ((2 * r + 1) * (2 * r + 1)) < depth as i32 + 8 {
                r += 1;
            }
            r.max(modulation.grid_side() as i32)
        };
        let mut candidates = Vec::new();
        for dj in -radius..=radius {
            for di in -radius..=radius {
                candidates.push((di, dj));
            }
        }
        let mut rng = StdRng::seed_from_u64(LUT_SEED);
        let mut orders = Vec::with_capacity(8);
        for tri in 0..8 {
            let mut rank_sum = vec![0.0f64; candidates.len()];
            let mut taken = 0usize;
            while taken < LUT_SAMPLES {
                let dx: f64 = rng.gen_range(-1.0..1.0);
                let dy: f64 = rng.gen_range(-1.0..1.0);
                if triangle_index(dx, dy) != tri {
                    continue;
                }
                taken += 1;
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                order.sort_by(|&a, &b| {
                    let da = dist2(dx, dy, candidates[a]);
                    let db = dist2(dx, dy, candidates[b]);
                    da.partial_cmp(&db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for (rank, &ci) in order.iter().enumerate() {
                    rank_sum[ci] += rank as f64;
                }
            }
            let mut by_rank: Vec<usize> = (0..candidates.len()).collect();
            by_rank.sort_by(|&a, &b| {
                rank_sum[a]
                    .partial_cmp(&rank_sum[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            orders.push(by_rank.iter().map(|&i| candidates[i]).collect());
        }
        orders
    }

    fn dist2(dx: f64, dy: f64, (di, dj): (i32, i32)) -> f64 {
        let ex = dx - 2.0 * di as f64;
        let ey = dy - 2.0 * dj as f64;
        ex * ex + ey * ey
    }

    /// `m`'s build-time orders, widened to the derivation's offsets.
    fn static_orders(m: Modulation) -> Vec<Vec<(i32, i32)>> {
        let widen = |o: &[(i8, i8)]| o.iter().map(|&(di, dj)| (di.into(), dj.into())).collect();
        OrderingLut::new(m, 1)
            .orders
            .iter()
            .map(|o| widen(o))
            .collect()
    }

    /// Orders in the [`OrderingLut`] field's form (leaked: tests only).
    fn leak(orders: Vec<Vec<(i32, i32)>>) -> &'static Orders {
        let narrow = |x: i32| i8::try_from(x).expect("offsets fit in i8");
        let narrowed = orders.into_iter().map(|o| {
            &*o.into_iter()
                .map(|(di, dj)| (narrow(di), narrow(dj)))
                .collect::<Vec<_>>()
                .leak()
        });
        let triangles: Vec<&'static [(i8, i8)]> = narrowed.collect();
        Box::leak(Box::new(triangles.try_into().expect("eight triangles")))
    }

    #[test]
    fn static_table_equals_the_runtime_derivation() {
        // All five: the incremental derivation takes 0.2 s at 256-QAM even
        // in a debug build.
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            // What `build.rs` ran, re-run here: every candidate of every
            // triangle.
            let radius = (m != Modulation::Bpsk).then(|| m.grid_side() as i32);
            assert_eq!(static_orders(m), derive_orders(radius).to_vec(), "{m:?}");
        }
    }

    /// Full static orders — every candidate of every triangle — against
    /// the reference, at the largest depth and (where cheap) the smallest.
    fn assert_orders_match_reference(m: Modulation, depths: &[usize]) {
        for &depth in depths {
            assert_eq!(
                static_orders(m),
                reference_orders(m, depth),
                "{m:?} at depth {depth}"
            );
        }
    }

    #[test]
    fn fast_derivation_equals_the_reference_bit_for_bit() {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            assert_orders_match_reference(m, &[1, m.order()]);
        }
        assert_orders_match_reference(Modulation::Qam64, &[64]);
    }

    #[test]
    #[ignore = "3.5 s in a debug build; CI runs it in the release step"]
    fn fast_derivation_equals_the_reference_at_256_qam() {
        assert_orders_match_reference(Modulation::Qam256, &[256]);
    }

    #[test]
    fn located_tables_identical_under_both_derivations() {
        let m = Modulation::Qam16;
        let c = Constellation::new(m);
        let fast = OrderingLut::new(m, 16);
        let reference = OrderingLut {
            orders: leak(reference_orders(m, 16)),
            ..fast.clone()
        };
        for strict in [false, true] {
            assert_eq!(
                fast.build_table(&c, strict).syms,
                reference.build_table(&c, strict).syms,
                "strict = {strict}"
            );
        }
    }

    #[test]
    fn luts_and_tables_are_built_without_deriving() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
            Modulation::Qam256,
        ] {
            let c = Constellation::new(m);
            let lut = OrderingLut::new(m, m.order());
            let skip = lut.shared_table(&c, false);
            assert!(Arc::ptr_eq(&skip, &lut.clone().shared_table(&c, false)));
            assert!(!Arc::ptr_eq(&skip, &lut.shared_table(&c, true)));
            // The memo may hold another test's tables: build one here too.
            lut.build_table(&c, true);
        }
        assert_eq!(ENTERED.get(), 0, "a lookup table derived its orders");
        // The probe is live: a derivation on this thread registers.
        derive_orders(None);
        assert_eq!(ENTERED.get(), 1);
    }

    use crate::derive::{derive_orders, ENTERED, LUT_SAMPLES, LUT_SEED};
    use crate::octant::triangle_index;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
}
