//! Breadth-first K-best sphere decoding.
//!
//! At each tree level the K best partial paths (smallest partial Euclidean
//! distance) survive and are expanded to all `|Q|` children. Fixed
//! complexity and fixed (but inflexible) parallelism; as §6 notes, K must
//! grow with constellation density and antenna count to stay near-ML, and
//! the per-level sort is a synchronisation bottleneck — both motivations
//! for FlexCore's design.
//!
//! The descent keeps its survivors in two flat flip-flop buffer pairs
//! (`KBestScratch`) instead of cloning a symbol vector per expanded
//! child; `detect_batch_into` reuses one workspace across a whole batch.
//! Decisions are bit-identical to the clone-per-child implementation
//! (enforced by `tests/scratch_identity.rs`).

use crate::common::{batch_rows, Detector, Triangular};
use flexcore_modulation::Constellation;
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::{CMat, Cx, LANES};

/// Reusable flip-flop workspace for one K-best descent: survivors live in
/// one flat `(peds, symbols)` buffer pair, children are expanded into the
/// other, and the two swap roles each level — replacing PR 1's per-child
/// `symbols.clone()` (which allocated `K·|Q|` vectors per level per
/// detected vector).
///
/// Public so width-adaptive variants (`flexcore::AdaptiveKBest`) can share
/// [`kbest_descend`] instead of duplicating the descent.
#[derive(Clone, Debug, Default)]
pub struct KBestScratch {
    /// Survivor PEDs; `surv_syms[i*nt..(i+1)*nt]` are survivor `i`'s
    /// symbols (rows `< current row` still zero).
    surv_peds: Vec<f64>,
    surv_syms: Vec<u16>,
    /// Child buffers (capacity `K·|Q|` entries per level).
    child_peds: Vec<f64>,
    child_syms: Vec<u16>,
    /// Sort permutation over the children of one level.
    order: Vec<u32>,
}

/// One breadth-first K-best descent over a rotated observation, generic in
/// the per-level survivor width: at `R` row `row` with `n_surv` current
/// survivors, `keep(row, n_surv)` children survive (floored at 1 so a
/// zero-width request degrades to a SIC step instead of emptying the
/// survivor set, capped at the child count). The fixed detector passes
/// `|_, _| k`; the model-adaptive variant passes
/// `|row, n_surv| k_per_level[row] * n_surv`.
///
/// Children are generated survivor-major / symbol-minor and ranked with a
/// **stable** index sort, so survivor order — and therefore the final
/// decision — is bit-identical to the original clone-and-sort
/// implementations on both call sites (enforced by
/// `tests/scratch_identity.rs` and the `flexcore` adaptive regressions).
/// The surviving path is unpermuted into `row` (original stream order).
pub fn kbest_descend<K>(
    tri: &Triangular,
    ybar: &[Cx],
    keep: K,
    scratch: &mut KBestScratch,
    row: &mut [u16],
) where
    K: Fn(usize, usize) -> usize,
{
    let nt = tri.nt();
    let q = tri.constellation.order();
    let KBestScratch {
        surv_peds,
        surv_syms,
        child_peds,
        child_syms,
        order,
    } = scratch;
    // Root survivor: empty path, PED 0.
    surv_peds.clear();
    surv_peds.push(0.0);
    surv_syms.clear();
    surv_syms.resize(nt, 0);
    for row in (0..nt).rev() {
        let n_surv = surv_peds.len();
        // Expand every survivor to all |Q| children.
        child_peds.clear();
        child_syms.clear();
        child_syms.reserve(n_surv * q * nt);
        for i in 0..n_surv {
            let ped = surv_peds[i];
            let syms = &surv_syms[i * nt..(i + 1) * nt];
            let mut sym = 0;
            // Four-candidate blocks through the lane kernel: children are
            // still pushed in ascending symbol order, so the stable sort
            // below sees the exact sequence the scalar loop produces and
            // the kept survivors are bit-identical.
            while sym + LANES <= q {
                let incs = tri.ped_increment_block(ybar, syms, row, sym);
                for (l, &inc) in incs.iter().enumerate() {
                    child_peds.push(ped + inc);
                    child_syms.extend_from_slice(syms);
                    let last = child_syms.len() - nt;
                    child_syms[last + row] = (sym + l) as u16;
                }
                sym += LANES;
            }
            while sym < q {
                let inc = tri.ped_increment(ybar, syms, row, sym);
                child_peds.push(ped + inc);
                child_syms.extend_from_slice(syms);
                let last = child_syms.len() - nt;
                child_syms[last + row] = sym as u16;
                sym += 1;
            }
        }
        // Stable index sort by PED; keep the requested width as the next
        // survivor generation.
        let n_children = child_peds.len();
        order.clear();
        order.extend(0..n_children as u32);
        // PEDs are sums of squared magnitudes and never NaN; Equal on an
        // incomparable pair keeps the sort total without panicking (and
        // total_cmp is off the table: it splits -0.0/+0.0, which partial_cmp
        // treats as Equal, and the survivor order is bit-identity-relevant).
        order.sort_by(|&a, &b| {
            child_peds[a as usize]
                .partial_cmp(&child_peds[b as usize])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let kept = keep(row, n_surv).max(1).min(n_children);
        surv_peds.clear();
        surv_syms.clear();
        for &ci in &order[..kept] {
            let ci = ci as usize;
            surv_peds.push(child_peds[ci]);
            surv_syms.extend_from_slice(&child_syms[ci * nt..(ci + 1) * nt]);
        }
    }
    tri.unpermute_into(&surv_syms[..nt], row);
}

/// K-best breadth-first detector.
#[derive(Clone, Debug)]
pub struct KBestDetector {
    constellation: Constellation,
    k: usize,
    tri: Option<Triangular>,
}

impl KBestDetector {
    /// Creates a K-best detector keeping `k ≥ 1` survivors per level.
    pub fn new(constellation: Constellation, k: usize) -> Self {
        assert!(k >= 1, "KBest: k must be >= 1");
        KBestDetector {
            constellation,
            k,
            tri: None,
        }
    }

    /// The survivor count K.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The prepared triangular system. Every detection entry point funnels
    /// its prepare-before-detect contract check through here so the panic
    /// surface is a single audited site.
    #[track_caller]
    fn prepared(&self) -> &Triangular {
        // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; sole audited panic site, documented on every public entry point")
        self.tri.as_ref().expect("KBest: prepare() not called")
    }

    /// One K-best descent over a rotated observation using the flip-flop
    /// workspace: [`kbest_descend`] with the uniform width `K` at every
    /// level.
    fn descend(&self, ybar: &[Cx], scratch: &mut KBestScratch, row: &mut [u16]) {
        let tri = self.prepared();
        kbest_descend(tri, ybar, |_, _| self.k, scratch, row);
    }
}

impl Detector for KBestDetector {
    fn name(&self) -> String {
        format!("K-best(K={})", self.k)
    }

    fn prepare(&mut self, h: &CMat, _sigma2: f64) {
        self.tri = Some(Triangular::new(
            sorted_qr_sqrd(h),
            self.constellation.clone(),
        ));
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        let tri = self.prepared();
        let ybar = tri.rotate(y);
        let mut row = vec![0u16; tri.nt()];
        self.descend(&ybar, &mut KBestScratch::default(), &mut row);
        row.into_iter().map(usize::from).collect()
    }

    fn n_streams(&self) -> usize {
        self.tri.as_ref().map_or(0, Triangular::nt)
    }

    /// Scratch-based batch override: the rotate buffer and the flip-flop
    /// survivor/child buffers are allocated once and reused across the
    /// whole batch (bit-identical to per-vector [`Detector::detect`]).
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        let tri = self.prepared();
        let mut ybar = vec![Cx::ZERO; tri.nt()];
        let mut scratch = KBestScratch::default();
        for (y, row) in ys.iter().zip(batch_rows(out, ys.len(), tri.nt())) {
            tri.rotate_into(y, &mut ybar);
            self.descend(&ybar, &mut scratch, row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ml::MlDetector;
    use crate::sic::SicDetector;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn k_equal_order_pow_matches_ml_small() {
        // With K = |Q|^(Nt-1) the search is exhaustive.
        let c = Constellation::new(Modulation::Qpsk);
        let mut kb = KBestDetector::new(c.clone(), 16);
        let mut ml = MlDetector::new(c.clone());
        let ens = ChannelEnsemble::iid(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..40 {
            let h = ens.draw(&mut rng);
            let snr = 8.0;
            let ch = MimoChannel::new(h.clone(), snr);
            kb.prepare(&h, sigma2_from_snr_db(snr));
            ml.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..2).map(|_| rng.gen_range(0..4)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            assert_eq!(kb.detect(&y), ml.detect(&y));
        }
    }

    fn ser(det: &mut dyn Detector, snr: f64, nt: usize, trials: usize, seed: u64) -> f64 {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(nt, nt);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut e, mut t) = (0usize, 0usize);
        for _ in 0..trials {
            let h = ens.draw(&mut rng);
            let ch = MimoChannel::new(h.clone(), snr);
            det.prepare(&h, sigma2_from_snr_db(snr));
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = ch.transmit(&x, &mut rng);
            e += det
                .detect(&y)
                .iter()
                .zip(&s)
                .filter(|(a, b)| a != b)
                .count();
            t += nt;
        }
        e as f64 / t as f64
    }

    #[test]
    fn larger_k_is_better() {
        let c = Constellation::new(Modulation::Qam16);
        let mut k1 = KBestDetector::new(c.clone(), 1);
        let mut k8 = KBestDetector::new(c.clone(), 8);
        let s1 = ser(&mut k1, 13.0, 6, 300, 5);
        let s8 = ser(&mut k8, 13.0, 6, 300, 5);
        assert!(s8 < s1, "K=8 SER {s8} should beat K=1 SER {s1}");
    }

    #[test]
    fn k1_equals_sic_ordering_quality() {
        // K=1 is SIC with (ZF-)SQRD ordering — should be in the same SER
        // ballpark as the MMSE-ordered SicDetector (within 2x).
        let c = Constellation::new(Modulation::Qam16);
        let mut k1 = KBestDetector::new(c.clone(), 1);
        let mut sic = SicDetector::new(c.clone());
        let a = ser(&mut k1, 16.0, 4, 400, 6);
        let b = ser(&mut sic, 16.0, 4, 400, 6);
        assert!(a < 2.5 * b + 0.02, "K=1 {a} vs SIC {b}");
    }

    #[test]
    fn noiseless_recovery() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(3);
        let h = ChannelEnsemble::iid(5, 5).draw(&mut rng);
        let mut kb = KBestDetector::new(c.clone(), 4);
        kb.prepare(&h, 1e-9);
        let s: Vec<usize> = (0..5).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        assert_eq!(kb.detect(&h.mul_vec(&x)), s);
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn rejects_zero_k() {
        let _ = KBestDetector::new(Constellation::new(Modulation::Qpsk), 0);
    }
}
