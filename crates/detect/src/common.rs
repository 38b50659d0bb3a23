//! Shared detector interface, the triangular-system helper, and the
//! per-path scratch workspace of the allocation-free hot path.

use flexcore_modulation::Constellation;
use flexcore_numeric::qr::Qr;
use flexcore_numeric::{CMat, Cx, CxLane, LANES};

/// Object-safe detector interface shared by every scheme in the workspace.
///
/// The two-phase split mirrors the paper's architecture: [`Detector::prepare`]
/// runs only when the transmission channel changes (QR decomposition, column
/// ordering, linear filters, FlexCore's pre-processing), while
/// [`Detector::detect`] runs once per received MIMO vector (per subcarrier
/// per OFDM symbol) and must therefore be cheap and parallelisable.
pub trait Detector {
    /// Short name as used in the paper's figure legends (e.g. `"MMSE"`).
    fn name(&self) -> String;

    /// Re-runs channel-dependent pre-processing for a new channel `h` with
    /// complex noise variance `sigma2` per receive antenna.
    fn prepare(&mut self, h: &CMat, sigma2: f64);

    /// Detects one received vector, returning one constellation symbol
    /// index per transmit stream, in **original stream order**.
    ///
    /// # Panics
    /// Implementations may panic if `prepare` was never called or if `y`
    /// has the wrong length.
    fn detect(&self, y: &[Cx]) -> Vec<usize>;

    /// Transmit streams of the prepared channel: the length of every
    /// decision [`Detector::detect`] returns, and the row width of
    /// [`Detector::detect_batch_into`]; 0 before `prepare`.
    fn n_streams(&self) -> usize;

    /// Detects a batch of received vectors observed under the **same**
    /// prepared channel — e.g. every OFDM symbol of one subcarrier in a
    /// frame — amortising the per-channel pre-processing exactly as §3 of
    /// the paper prescribes. The vectors are borrowed: the frame engine's
    /// flat frame plane lends each one as a `&[Cx]` without cloning.
    ///
    /// Vector `i`'s decision goes to row `i` of `out` — the
    /// [`Detector::n_streams`]-wide slice `out[i·nt .. (i+1)·nt]`, in
    /// original stream order — so the caller owns every output byte and a
    /// warm batch needs no heap. The contract is strict: row `i` must be
    /// **bit-identical** to `self.detect(ys[i])`, whatever the
    /// implementation does internally (the frame engine and its
    /// substrate-equivalence tests rely on this). Implementations override
    /// this to reuse one scratch workspace across the whole batch, exactly
    /// as a hardware PE streams back-to-back subcarrier symbols through
    /// one set of registers; this default runs `detect` per vector.
    ///
    /// # Panics
    /// Panics if `out.len() != ys.len() · n_streams()`.
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), self.n_streams())) {
            for (o, s) in row.iter_mut().zip(self.detect(y)) {
                *o = s as u16;
            }
        }
    }

    /// [`Detector::detect_batch_into`] returning one `Vec` per vector —
    /// the owned form for callers that keep decisions per vector. Product
    /// paths detect into caller-owned planes instead.
    fn detect_batch_refs(&self, ys: &[&[Cx]]) -> Vec<Vec<usize>> {
        let nt = self.n_streams();
        let mut plane = vec![0u16; ys.len() * nt];
        self.detect_batch_into(ys, &mut plane);
        plane
            .chunks_exact(nt.max(1))
            .map(|row| row.iter().map(|&s| usize::from(s)).collect())
            .collect()
    }

    /// Whether one [`Detector::detect_group_into`] call may take this
    /// detector's batch and `other`'s together: a property of the two
    /// prepared states alone, never of the vectors. A scheduler groups a
    /// batch with a lead only when this holds for the pair (FlexCore: both
    /// selections are the SIC path alone, on the same shape, ordering and
    /// constellation). `false` unless overridden, so a detector that
    /// overrides neither method is never grouped.
    fn groups_with(&self, other: &Self) -> bool
    where
        Self: Sized,
    {
        let _ = other;
        false
    }

    /// Detects one batch per member of `group` in one call: `ys` holds the
    /// members' batches back to back, `ys.len() / group.len()` vectors
    /// each, and `out` their decision rows back to back in the same order,
    /// each member's rows as [`Detector::detect_batch_into`] lays them
    /// out. Every row must be **bit-identical** to that member's
    /// `detect_batch_into` (hence to its per-vector `detect`); a panic on
    /// one member's input must be the one its own batch raises. The caller
    /// passes only members every one of which the first
    /// [`Detector::groups_with`]. The default runs `detect_batch_into` per
    /// member ([`detect_each_into`]); FlexCore overrides it to put four
    /// one-path subcarriers in the four lanes of one block, its only
    /// one-path kernel (a one-path batch that runs alone takes the general
    /// block walk of its `detect_batch_into`).
    ///
    /// # Panics
    /// Panics if `ys.len()` is not a multiple of `group.len()`, or if
    /// `out` is not the members' rows exactly.
    fn detect_group_into(group: &[&Self], ys: &[&[Cx]], out: &mut [u16])
    where
        Self: Sized,
    {
        detect_each_into(group, ys, out);
    }

    /// Relative cost of detecting **one vector** under the currently
    /// prepared channel, in detector-specific work units (FlexCore: active
    /// tree paths). `1` for detectors whose per-vector cost is
    /// channel-independent or unknown.
    ///
    /// Channel-adaptive detectors report *smaller* values on easier
    /// channels, so a frame scheduler can order per-subcarrier batches
    /// longest-first (LPT) and keep cheap near-SIC subcarriers off the
    /// critical path. The value is a scheduling hint only — it must never
    /// influence detection results.
    fn effort(&self) -> usize {
        1
    }

    /// Fine-grained companion to [`Detector::effort`] for cost-model
    /// driven schedulers: the predicted *work* of detecting one vector
    /// under the prepared channel, in path-extension evaluations
    /// (tree-node visits, weighted by their arithmetic cost).
    ///
    /// Where `effort` counts the processing elements a vector occupies
    /// (tree paths), this counts the work those PEs actually perform —
    /// FlexCore's prefix-sharing trie makes equal path counts cost very
    /// unequal amounts depending on how much of the tree the selected
    /// position vectors share, and this is the signal that sees it. A
    /// heterogeneous-fabric scheduler placing batches by predicted finish
    /// time needs it to keep its makespan predictions honest.
    ///
    /// Defaults to [`Detector::effort`]. Values are comparable between
    /// detectors cloned from the same template (one engine, one cell),
    /// not across arbitrary detector types. Like `effort`, this is a
    /// scheduling hint only — it must never influence detection results.
    fn extension_work(&self) -> usize {
        self.effort()
    }
}

/// The rows of a batch output plane: `n` rows of `nt` symbols each, the
/// layout [`Detector::detect_batch_into`] writes.
///
/// # Panics
/// Panics if `out.len() != n · nt`.
pub fn batch_rows(out: &mut [u16], n: usize, nt: usize) -> std::slice::ChunksExactMut<'_, u16> {
    assert_eq!(out.len(), n * nt, "detect_batch_into: output plane length");
    out.chunks_exact_mut(nt.max(1))
}

/// [`Detector::detect_group_into`] as one [`Detector::detect_batch_into`]
/// per member: the trait's default, and what an override falls back to
/// for a group its kernel does not take.
///
/// # Panics
/// Panics if `ys.len()` is not a multiple of `group.len()`, or if `out` is
/// not the members' rows exactly.
pub fn detect_each_into<D: Detector>(group: &[&D], ys: &[&[Cx]], out: &mut [u16]) {
    let per = group_len(group.len(), ys.len());
    let mut rest = out;
    for (member, ys) in group.iter().zip(ys.chunks(per.max(1))) {
        let (rows, tail) = std::mem::take(&mut rest).split_at_mut(ys.len() * member.n_streams());
        member.detect_batch_into(ys, rows);
        rest = tail;
    }
    assert!(rest.is_empty(), "detect_group_into: output plane length");
}

/// Vectors per member of a group of `members` batches holding `vectors`
/// vectors between them.
///
/// # Panics
/// Panics unless the batches split `vectors` evenly.
pub fn group_len(members: usize, vectors: usize) -> usize {
    let per = vectors.checked_div(members).unwrap_or(0);
    assert_eq!(per * members, vectors, "detect_group_into: uneven batches");
    per
}

/// Streaming form of the workspace-wide minimum-metric reduction: `true`
/// when a candidate metric must replace the current best-so-far.
///
/// Strict `<` keeps the **first** minimum on ties — the `Iterator::min_by`
/// semantics every detector reduction in the workspace must share so that
/// scratch-based, pool-based, and batched paths stay bit-identical. `NaN`
/// (a deactivated path) never replaces.
#[inline]
pub(crate) fn replaces_best(candidate: f64, best: Option<f64>) -> bool {
    !candidate.is_nan() && best.is_none_or(|b| candidate < b)
}

/// First strict minimum over a metric sequence, skipping `NaN`
/// (deactivated) entries; ties keep the earliest index. The indexed form
/// of the crate's streaming `replaces_best` — the single definition of
/// the minimum-metric tie-breaking every detection path relies on.
pub fn first_min_metric<I: IntoIterator<Item = f64>>(metrics: I) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, m) in metrics.into_iter().enumerate() {
        if replaces_best(m, best.map(|(_, b)| b)) {
            best = Some((i, m));
        }
    }
    best
}

/// Caller-owned workspace for one tree-path evaluation.
///
/// The `_into` detection kernels (`FlexCoreDetector::run_path_into`,
/// `FcsdDetector::run_path_into`) write their per-level symbol decisions
/// here instead of allocating a fresh `Vec` per (path × symbol-vector)
/// evaluation — the software analogue of a processing element's private
/// registers.
#[derive(Clone, Debug, Default)]
pub struct PathScratch {
    /// Symbol decisions of the most recent evaluation, in tree (permuted)
    /// order: `symbols[row]` is the decision for row `row` of `R`. Cleared
    /// and resized per evaluation, so a warm workspace keeps its capacity.
    pub symbols: Vec<u16>,
    /// Level-major, lane-minor SoA symbol plane for the four-wide block
    /// kernels: `plane[row * LANES + lane]` is lane `lane`'s decision at
    /// tree row `row`. Empty until a blocked evaluation first primes it;
    /// reused (no reallocation) thereafter.
    pub plane: Vec<u16>,
    /// The lane-resident constellation points of `plane` (`points[row]` =
    /// the four decided points at `row`), kept in sync with it — the input
    /// of the `_lanes` kernels. Primed and reused like `plane`.
    pub points: Vec<CxLane>,
}

impl PathScratch {
    // flexcore-lint: hot-path
    /// A fresh workspace. No heap allocation happens until the first
    /// evaluation sizes its buffers; every later one reuses them.
    pub(crate) fn new() -> Self {
        PathScratch::default()
    }

    /// Records lane `lane`'s decision `sym` at `row` in both lane planes.
    pub(crate) fn decide_lane(&mut self, c: &Constellation, row: usize, lane: usize, sym: usize) {
        self.plane[row * LANES + lane] = sym as u16;
        let pt = c.point(sym);
        self.points[row].re[lane] = pt.re;
        self.points[row].im[lane] = pt.im;
    }
}

/// A prepared triangular system: `ȳ = Q*·y`, search over `‖ȳ − R·s‖²`.
///
/// Wraps the QR factors together with the constellation and provides the
/// per-level kernels every tree-search detector shares:
/// effective received points (Eq. 5) and partial Euclidean distances (Eq. 1).
///
/// Level convention: `R` is `Nt × Nt`; *tree level* `l ∈ 1..=Nt` of the
/// paper corresponds to row `l−1` here, and detection proceeds from row
/// `Nt−1` (top of the tree) down to row `0`.
#[derive(Clone, Debug)]
pub struct Triangular {
    /// QR factors (including the stream permutation).
    pub qr: Qr,
    /// The constellation in use.
    pub constellation: Constellation,
}

impl Triangular {
    // flexcore-lint: hot-path
    // flexcore-lint: bit-identity
    /// Prepares the system from QR factors and a constellation.
    pub fn new(qr: Qr, constellation: Constellation) -> Self {
        Triangular { qr, constellation }
    }

    /// Number of streams / tree height.
    pub fn nt(&self) -> usize {
        self.qr.r.cols()
    }

    /// Rotates the received vector: `ȳ = Q*·y`.
    pub fn rotate(&self, y: &[Cx]) -> Vec<Cx> {
        self.qr.rotate(y)
    }

    /// Rotates into a caller-owned buffer of length `Nt` (bit-identical to
    /// [`Triangular::rotate`], no allocation).
    ///
    /// # Panics
    /// Panics if `y.len() != Nr` or `out.len() != Nt`.
    pub(crate) fn rotate_into(&self, y: &[Cx], out: &mut [Cx]) {
        self.qr.rotate_into(y, out);
    }

    /// The *effective received point* at row `row` (Eq. 5):
    /// `ỹ = (ȳ_row − Σ_{p>row} R(row,p)·s_p) / R(row,row)`,
    /// where `symbols[p]` for `p > row` holds the already-decided symbol
    /// indices (entries `≤ row` are ignored).
    ///
    /// Slicing this point gives the zero-forcing decision for the row given
    /// the decisions above it. A dead row (`R(row,row) = 0`, see
    /// [`Triangular::pivot_inv`]) gets the origin instead.
    pub fn effective_point(&self, ybar: &[Cx], symbols: &[u16], row: usize) -> Cx {
        let r = &self.qr.r;
        let mut acc = ybar[row];
        for p in row + 1..self.nt() {
            acc -= r[(row, p)] * self.constellation.point(symbols[p] as usize);
        }
        acc * self.pivot_inv(row)
    }

    /// The reciprocal the effective point divides by, `1 / R(row,row)`,
    /// or zero on a dead row: an SQRD pivot whose residual rounded to
    /// exactly zero (an exactly collinear column) leaves `R(row,row) = 0`.
    /// The row then says nothing about its symbol, so its effective point
    /// is the origin (finite, so `|R(row,row)|²·dist` adds a zero
    /// increment) instead of the `NaN` that would poison every path
    /// metric. Every effective point — scalar, lane and FlexCore's block
    /// walk — multiplies by this one value, which keeps them bit-identical.
    pub fn pivot_inv(&self, row: usize) -> Cx {
        let d = self.qr.r[(row, row)];
        if d == Cx::ZERO {
            Cx::ZERO
        } else {
            d.inv()
        }
    }

    /// Four-wide [`Triangular::effective_point`]: the effective received
    /// point at `row` for **four independent lanes at once** (four tree
    /// paths, or four observations sharing one channel).
    ///
    /// * `ybar_lane` — lane `l` holds `ȳ_row` of lane `l`'s observation
    ///   (splat one value when all lanes share an observation);
    /// * `points` — the lane-resident points plane: `points[p]` holds the
    ///   four decided constellation points at row `p` (entries at rows
    ///   `≤ row` are ignored), so the cancellation is contiguous lane
    ///   arithmetic with no per-term symbol-index gather.
    ///
    /// The `R` coefficients are broadcast, the cancellation runs in
    /// ascending `p` exactly as the scalar kernel, and the division
    /// multiplies by the same [`Triangular::pivot_inv`] — so lane `l` is
    /// bit-identical to `effective_point` on lane `l`'s inputs.
    pub(crate) fn effective_point_lanes(
        &self,
        ybar_lane: CxLane,
        points: &[CxLane],
        row: usize,
    ) -> CxLane {
        let r = &self.qr.r;
        let mut acc = ybar_lane;
        for p in row + 1..self.nt() {
            acc.sub_mul(CxLane::splat(r[(row, p)]), points[p]);
        }
        acc * CxLane::splat(self.pivot_inv(row))
    }

    /// Partial-Euclidean-distance increment at `row` for choosing symbol
    /// index `sym` (Eq. 1): `|ȳ_row − Σ_{p≥row} R(row,p)·s_p|²`.
    pub fn ped_increment(&self, ybar: &[Cx], symbols: &[u16], row: usize, sym: usize) -> f64 {
        let r = &self.qr.r;
        let mut acc = ybar[row] - r[(row, row)] * self.constellation.point(sym);
        for p in row + 1..self.nt() {
            acc -= r[(row, p)] * self.constellation.point(symbols[p] as usize);
        }
        acc.norm_sqr()
    }

    /// Four-wide [`Triangular::ped_increment`] over **four independent
    /// lanes** (paths/observations): lane `l` scores its own chosen point
    /// `points[row]` against its own observation and its own decisions
    /// above (the points plane of [`Triangular::effective_point_lanes`]).
    /// Bit-identical per lane to the scalar kernel.
    pub(crate) fn ped_increment_lanes(
        &self,
        ybar_lane: CxLane,
        points: &[CxLane],
        row: usize,
    ) -> [f64; LANES] {
        let r = &self.qr.r;
        let mut acc = ybar_lane;
        for p in row..self.nt() {
            acc.sub_mul(CxLane::splat(r[(row, p)]), points[p]);
        }
        acc.norm_sqr()
    }

    /// Full path metric `‖ȳ − R·s‖²` for a complete symbol-index vector.
    pub(crate) fn path_metric(&self, ybar: &[Cx], symbols: &[u16]) -> f64 {
        (0..self.nt())
            .map(|row| self.ped_increment(ybar, symbols, row, symbols[row] as usize))
            .sum()
    }

    /// Undoes the QR column permutation on tree-order decisions into one
    /// row of a caller-owned output plane (original stream order) — how
    /// every batch path writes its decisions, with no allocation.
    ///
    /// # Panics
    /// Panics unless `symbols` and `row` are both `Nt` long.
    pub fn unpermute_into(&self, symbols: &[u16], row: &mut [u16]) {
        // flexcore-lint: hot-path
        assert_eq!(symbols.len(), self.qr.perm.len(), "unpermute: length");
        assert_eq!(row.len(), self.qr.perm.len(), "unpermute: row length");
        for (&p, &s) in self.qr.perm.iter().zip(symbols) {
            row[p] = s;
        }
    }

    /// Undoes the QR column permutation on tree-order decisions, widening
    /// to the `Vec<usize>` shape [`Detector::detect`] returns. One
    /// allocation: the output itself, which the per-vector API owes the
    /// caller anyway.
    pub fn unpermute(&self, symbols: &[u16]) -> Vec<usize> {
        assert_eq!(symbols.len(), self.qr.perm.len(), "unpermute: length");
        // flexcore-lint: allow(FL001, reason = "the returned decision vector is the one allocation the public detector API owes the caller; alloc_regression budgets it")
        let mut out = vec![0usize; symbols.len()];
        for (j, &p) in self.qr.perm.iter().enumerate() {
            out[p] = symbols[j] as usize;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_modulation::Modulation;
    use flexcore_numeric::qr::sorted_qr_sqrd;
    use flexcore_numeric::rng::CxRng;
    use flexcore_numeric::CMat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup_mod(nt: usize, m: Modulation, seed: u64) -> (Triangular, Vec<u16>, Vec<Cx>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = CMat::from_fn(nt, nt, |_, _| rng.cx_normal(1.0));
        let c = Constellation::new(m);
        let qr = sorted_qr_sqrd(&h);
        let tri = Triangular::new(qr, c.clone());
        // Random transmitted symbols (in permuted order for convenience).
        let s: Vec<u16> = (0..nt)
            .map(|_| rng.gen_range(0..c.order()) as u16)
            .collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i as usize)).collect();
        let hp = h.permute_cols(&tri.qr.perm);
        let y = hp.mul_vec(&x);
        (tri, s, y)
    }

    fn setup(nt: usize, seed: u64) -> (Triangular, Vec<u16>, Vec<Cx>) {
        setup_mod(nt, Modulation::Qam16, seed)
    }

    #[test]
    fn noiseless_effective_point_is_the_symbol() {
        // With no noise and correct decisions above, the effective point at
        // each row lands exactly on the transmitted constellation point.
        let (tri, s, y) = setup(6, 1);
        let ybar = tri.rotate(&y);
        for row in (0..6).rev() {
            let eff = tri.effective_point(&ybar, &s, row);
            let want = tri.constellation.point(s[row] as usize);
            assert!((eff - want).abs() < 1e-9, "row {row}");
        }
    }

    #[test]
    fn noiseless_path_metric_is_zero_for_truth() {
        let (tri, s, y) = setup(5, 2);
        let ybar = tri.rotate(&y);
        assert!(tri.path_metric(&ybar, &s) < 1e-16);
        // And strictly positive for any wrong path.
        let mut wrong = s.clone();
        wrong[2] = (wrong[2] + 1) % tri.constellation.order() as u16;
        assert!(tri.path_metric(&ybar, &wrong) > 1e-6);
    }

    #[test]
    fn ped_increments_sum_to_path_metric() {
        let (tri, s, y) = setup(4, 3);
        let ybar = tri.rotate(&y);
        let mut wrong = s.clone();
        wrong[0] = (wrong[0] + 5) % tri.constellation.order() as u16;
        wrong[3] = (wrong[3] + 9) % tri.constellation.order() as u16;
        let sum: f64 = (0..4)
            .map(|row| tri.ped_increment(&ybar, &wrong, row, wrong[row] as usize))
            .sum();
        assert!((sum - tri.path_metric(&ybar, &wrong)).abs() < 1e-12);
    }

    #[test]
    fn unpermute_restores_stream_order() {
        let (tri, s, _) = setup(5, 5);
        let orig = tri.unpermute(&s);
        let mut row = vec![0u16; 5];
        tri.unpermute_into(&s, &mut row);
        for (j, &p) in tri.qr.perm.iter().enumerate() {
            assert_eq!(orig[p], s[j] as usize);
            assert_eq!(row[p], s[j]);
        }
    }

    #[test]
    fn dead_row_effective_point_is_the_origin_in_both_kernels() {
        // An exactly collinear column leaves the SQRD a zero pivot. Its
        // row's effective point must be finite (a `NaN` there poisons
        // every path metric), the scalar and lane kernels must agree bit
        // for bit, and a live row must still divide by its pivot.
        let (mut tri, _, y) = setup(4, 7);
        tri.qr.r[(1, 1)] = Cx::ZERO;
        assert_eq!(tri.pivot_inv(1), Cx::ZERO);
        assert_eq!(tri.pivot_inv(2), tri.qr.r[(2, 2)].inv());
        let ybar = tri.rotate(&y);
        let q = tri.constellation.order();
        let mut rng = StdRng::seed_from_u64(8);
        let lanes_syms: Vec<Vec<u16>> = (0..LANES)
            .map(|_| (0..4).map(|_| rng.gen_range(0..q) as u16).collect())
            .collect();
        let points: Vec<CxLane> = (0..4)
            .map(|p| CxLane::from_fn(|l| tri.constellation.point(lanes_syms[l][p] as usize)))
            .collect();
        let eff = tri.effective_point_lanes(CxLane::splat(ybar[1]), &points, 1);
        for (l, syms) in lanes_syms.iter().enumerate() {
            let want = tri.effective_point(&ybar, syms, 1);
            assert_eq!(want.abs(), 0.0, "lane {l}");
            let got = eff.get(l);
            assert_eq!(
                (want.re.to_bits(), want.im.to_bits()),
                (got.re.to_bits(), got.im.to_bits()),
                "lane {l}"
            );
        }
    }

    #[test]
    fn lane_kernels_match_scalar_kernels_bitwise() {
        // Widths on both sides of every lane boundary and of 16 streams, × every
        // modulation; the scalar kernels on lane `l`'s inputs are the
        // reference.
        for nt in [1usize, 4, 16, 17, 64] {
            for m in [
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
            ] {
                let (tri, _, y) = setup_mod(nt, m, 16 + nt as u64);
                let q = tri.constellation.order();
                let ybar = tri.rotate(&y);
                let mut rng = StdRng::seed_from_u64(99);
                // Four independent decision vectors and their points plane.
                let lanes_syms: Vec<Vec<u16>> = (0..LANES)
                    .map(|_| (0..nt).map(|_| rng.gen_range(0..q) as u16).collect())
                    .collect();
                let points: Vec<CxLane> = (0..nt)
                    .map(|p| {
                        CxLane::from_fn(|l| tri.constellation.point(lanes_syms[l][p] as usize))
                    })
                    .collect();
                // Signed zeros on the top row, where nothing is cancelled
                // and the division alone decides the sign: each lane's
                // `−0.0` components must survive it as the scalar's do.
                let zeros = [
                    Cx::new(-0.0, -1.0),
                    Cx::new(0.0, -0.0),
                    Cx::new(-0.0, 0.0),
                    Cx::new(-3.0, -0.0),
                ];
                let eff = tri.effective_point_lanes(CxLane::from_fn(|l| zeros[l]), &points, nt - 1);
                for (l, &z) in zeros.iter().enumerate() {
                    let mut ybar_z = ybar.clone();
                    ybar_z[nt - 1] = z;
                    let want = tri.effective_point(&ybar_z, &lanes_syms[l], nt - 1);
                    assert_eq!(
                        (want.re.to_bits(), want.im.to_bits()),
                        (eff.re[l].to_bits(), eff.im[l].to_bits()),
                        "signed-zero eff nt={nt} {m:?} lane {l}"
                    );
                }
                for row in [0, nt / 2, nt - 1] {
                    let ybar_lane = CxLane::splat(ybar[row]);
                    let eff = tri.effective_point_lanes(ybar_lane, &points, row);
                    let peds = tri.ped_increment_lanes(ybar_lane, &points, row);
                    for (l, syms) in lanes_syms.iter().enumerate() {
                        let want = tri.effective_point(&ybar, syms, row);
                        let got = eff.get(l);
                        assert_eq!(
                            (want.re.to_bits(), want.im.to_bits()),
                            (got.re.to_bits(), got.im.to_bits()),
                            "eff nt={nt} {m:?} row={row}"
                        );
                        let want = tri.ped_increment(&ybar, syms, row, syms[row] as usize);
                        assert_eq!(want.to_bits(), peds[l].to_bits(), "ped nt={nt} {m:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn rotate_into_matches_rotate_bitwise() {
        let (tri, _, y) = setup(5, 7);
        let a = tri.rotate(&y);
        let mut b = vec![Cx::ZERO; tri.nt()];
        tri.rotate_into(&y, &mut b);
        for (x, z) in a.iter().zip(&b) {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (z.re.to_bits(), z.im.to_bits())
            );
        }
    }

    #[test]
    fn triangular_lane_kernels_bit_identical_nt_sweep_all_modulations() {
        // The full width sweep (nt 1..=64) crossed with every modulation,
        // BPSK included: these methods take the lane path unconditionally;
        // the scalar kernels on lane `l`'s inputs are the reference.
        let random_mat = |n: usize, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            CMat::from_fn(n, n, |_, _| rng.cx_normal(1.0))
        };
        let random_vec = |n: usize, seed: u64| -> Vec<Cx> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..n).map(|_| rng.cx_normal(1.0)).collect()
        };
        let bits = |z: Cx| (z.re.to_bits(), z.im.to_bits());
        for nt in 1..=64usize {
            let qr = sorted_qr_sqrd(&random_mat(nt, 4000 + nt as u64));
            let ybar = random_vec(nt, 5000 + nt as u64);
            for m in [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
                Modulation::Qam256,
            ] {
                let c = Constellation::new(m);
                let q = c.order();
                let tri = Triangular::new(qr.clone(), c);
                let mut rng = StdRng::seed_from_u64(6000 + nt as u64 + q as u64);
                // Four independent decision vectors → one lane-resident
                // points plane.
                let lanes_syms: Vec<Vec<u16>> = (0..LANES)
                    .map(|_| (0..nt).map(|_| rng.gen_range(0..q) as u16).collect())
                    .collect();
                let points: Vec<CxLane> = (0..nt)
                    .map(|p| {
                        CxLane::from_fn(|l| tri.constellation.point(lanes_syms[l][p] as usize))
                    })
                    .collect();
                for row in [0, nt / 2, nt - 1] {
                    let ybar_lane =
                        CxLane::from_fn(|l| ybar[row] * Cx::real(1.0 + l as f64 * 0.25));
                    let eff = tri.effective_point_lanes(ybar_lane, &points, row);
                    let peds = tri.ped_increment_lanes(ybar_lane, &points, row);
                    for (l, syms) in lanes_syms.iter().enumerate() {
                        let mut yb = ybar.clone();
                        yb[row] = ybar_lane.get(l);
                        let want_eff = tri.effective_point(&yb, syms, row);
                        assert_eq!(
                            bits(want_eff),
                            bits(eff.get(l)),
                            "eff nt={nt} q={q} row={row}"
                        );
                        let want_ped = tri.ped_increment(&yb, syms, row, syms[row] as usize);
                        assert_eq!(
                            want_ped.to_bits(),
                            peds[l].to_bits(),
                            "ped_lanes nt={nt} q={q} row={row}"
                        );
                    }
                }
            }
        }
    }
}
