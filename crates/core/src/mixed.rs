//! A per-user detector choice for multi-user serving layers.
//!
//! The streaming cell (`flexcore-engine::multiuser`) is generic over one
//! detector type `D` shared by all of its users' engines. [`CellDetector`]
//! makes that one type *a choice*: each user picks fixed-budget FlexCore,
//! a-FlexCore, ordered SIC or linear MMSE at `add_user` time (or later,
//! through `StreamingCell::swap_user_detector`), and the cell schedules
//! them side by side — adaptive users report their channel-dependent
//! [`Detector::effort`] into the shared LPT plan while fixed users pin
//! theirs at the PE budget, exactly the mixed deployment §5.1 anticipates
//! (an operator migrating users to the adjustable detector one at a time).
//! The SIC and MMSE variants are the cheaper rungs an overload policy
//! (`flexcore_sim::city`'s load shedding) moves users onto.

use crate::detector::FlexCoreDetector;
use crate::soft::{MaxLogDemap, SoftDecision, SoftDetector};
use flexcore_detect::common::{detect_each_into, Detector};
use flexcore_detect::{MmseDetector, SicDetector};
use flexcore_modulation::Constellation;
use flexcore_numeric::{CMat, Cx, LANES};

/// A per-user detector choice for a mixed cell — one type, so a
/// [`FrameEngine`](../flexcore_engine) template (and therefore a
/// streaming cell) can mix all variants per user.
// A cell holds one of these per subcarrier slot and nearly all are the
// FlexCore variant, so boxing it would buy no memory and put a pointer
// chase in front of every forwarded call.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum CellDetector {
    /// FlexCore, either spending its whole `N_PE` path budget on every
    /// channel or (built by [`CellDetector::adaptive`]) a-FlexCore with the
    /// §5.1 stopping criterion.
    FlexCore(FlexCoreDetector),
    /// Ordered SIC: one path, a small SER penalty.
    Sic(SicDetector),
    /// Linear MMSE: one matrix–vector product per received vector, the
    /// cheapest variant and the largest SER penalty.
    Linear(MmseDetector),
}

impl CellDetector {
    /// A fixed FlexCore-`n_pe` user.
    pub fn fixed(constellation: Constellation, n_pe: usize) -> Self {
        CellDetector::FlexCore(FlexCoreDetector::with_pes(constellation, n_pe))
    }

    /// An adaptive user: `n_pe` available PEs, cumulative-probability
    /// stopping target `threshold` (the paper uses 0.95).
    pub fn adaptive(constellation: Constellation, n_pe: usize, threshold: f64) -> Self {
        CellDetector::FlexCore(FlexCoreDetector::adaptive(constellation, n_pe, threshold))
    }

    /// An ordered-SIC user.
    pub fn sic(constellation: Constellation) -> Self {
        CellDetector::Sic(SicDetector::new(constellation))
    }

    /// A linear-MMSE user.
    pub fn linear(constellation: Constellation) -> Self {
        CellDetector::Linear(MmseDetector::new(constellation))
    }

    /// The constellation this user transmits with (same across tiers).
    pub fn constellation(&self) -> &Constellation {
        match self {
            CellDetector::FlexCore(d) => d.constellation(),
            CellDetector::Sic(d) => d.constellation(),
            CellDetector::Linear(d) => d.constellation(),
        }
    }

    /// The underlying FlexCore engine state (prepared path set etc.);
    /// `None` for the degraded tiers, which carry no trie state.
    pub fn core(&self) -> Option<&FlexCoreDetector> {
        match self {
            CellDetector::FlexCore(d) => Some(d),
            CellDetector::Sic(_) | CellDetector::Linear(_) => None,
        }
    }
}

impl Detector for CellDetector {
    fn name(&self) -> String {
        match self {
            CellDetector::FlexCore(d) => d.name(),
            CellDetector::Sic(d) => d.name(),
            CellDetector::Linear(d) => d.name(),
        }
    }

    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        match self {
            CellDetector::FlexCore(d) => d.prepare(h, sigma2),
            CellDetector::Sic(d) => d.prepare(h, sigma2),
            CellDetector::Linear(d) => d.prepare(h, sigma2),
        }
    }

    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        match self {
            CellDetector::FlexCore(d) => d.detect(y),
            CellDetector::Sic(d) => d.detect(y),
            CellDetector::Linear(d) => d.detect(y),
        }
    }

    fn n_streams(&self) -> usize {
        match self {
            CellDetector::FlexCore(d) => d.n_streams(),
            CellDetector::Sic(d) => d.n_streams(),
            CellDetector::Linear(d) => d.n_streams(),
        }
    }

    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        // Forward explicitly so every tier keeps its scratch-reuse batch
        // path (the trait default would fall back per-vector).
        match self {
            CellDetector::FlexCore(d) => d.detect_batch_into(ys, out),
            CellDetector::Sic(d) => d.detect_batch_into(ys, out),
            CellDetector::Linear(d) => d.detect_batch_into(ys, out),
        }
    }

    /// Only two FlexCore users group, as FlexCore decides.
    fn groups_with(&self, other: &Self) -> bool {
        match (self, other) {
            (CellDetector::FlexCore(a), CellDetector::FlexCore(b)) => a.groups_with(b),
            _ => false,
        }
    }

    /// A group of up to [`LANES`] FlexCore users goes to FlexCore's group
    /// call; any other group, member by member.
    fn detect_group_into(group: &[&Self], ys: &[&[Cx]], out: &mut [u16]) {
        // flexcore-lint: hot-path
        let lead = group.first().and_then(|d| d.core());
        let Some(lead) = lead.filter(|_| group.len() <= LANES) else {
            return detect_each_into(group, ys, out);
        };
        let mut cores = [lead; LANES];
        for (core, member) in cores.iter_mut().zip(group) {
            match member.core() {
                Some(d) => *core = d,
                None => return detect_each_into(group, ys, out),
            }
        }
        FlexCoreDetector::detect_group_into(&cores[..group.len()], ys, out);
    }

    fn effort(&self) -> usize {
        match self {
            CellDetector::FlexCore(d) => d.effort(),
            // One path's worth of work — the trait default, stated
            // explicitly because the LPT planner leans on it: a downgraded
            // user weighs (and costs) a single-path descent.
            CellDetector::Sic(d) => d.effort(),
            CellDetector::Linear(d) => d.effort(),
        }
    }

    fn extension_work(&self) -> usize {
        match self {
            CellDetector::FlexCore(d) => d.extension_work(),
            CellDetector::Sic(d) => d.extension_work(),
            CellDetector::Linear(d) => d.extension_work(),
        }
    }
}

impl SoftDetector for CellDetector {
    fn detect_soft(&self, y: &[Cx], sigma2: f64) -> SoftDecision {
        match self {
            CellDetector::FlexCore(d) => d.detect_soft(y, sigma2),
            CellDetector::Sic(d) => sic_soft(d, y, sigma2),
            CellDetector::Linear(d) => mmse_soft(d, y, sigma2),
        }
    }
}

/// Max-log soft demap for the ordered-SIC tier: re-runs the descent with
/// the same per-level kernels [`SicDetector::detect`] uses and, at each
/// level, scores every constellation point against the decision feedback
/// from the levels above (the crate's one max-log reduction,
/// `MaxLogDemap`, clipped at ±`MISSING_HYPOTHESIS_LLR`). Decision-feedback
/// LLRs ignore error propagation — the usual SIC soft-output caveat, and
/// part of why this is a *degraded* tier — but the hard decision is
/// bit-identical to `detect` (same kernels, same order), preserving the
/// [`SoftDetector`] contract.
fn sic_soft(d: &SicDetector, y: &[Cx], sigma2: f64) -> SoftDecision {
    let tri = d.prepared();
    let c = d.constellation();
    let nt = tri.nt();
    let ybar = tri.rotate(y);
    let mut symbols = vec![0u16; nt];
    let mut demap = MaxLogDemap::new(c, nt);
    for row in (0..nt).rev() {
        let eff = tri.effective_point(&ybar, &symbols, row);
        symbols[row] = c.slice(eff) as u16;
        for sym in 0..c.order() {
            let ped = tri.ped_increment(&ybar, &symbols, row, sym);
            demap.offer(row, sym, ped);
        }
    }
    // Rows live in permuted (detection) order; map them back to original
    // stream order the same way `unpermute` maps the symbols.
    let mut llrs = vec![Vec::new(); nt];
    for (j, lr) in demap.llrs(sigma2).into_iter().enumerate() {
        llrs[tri.qr.perm[j]] = lr;
    }
    SoftDecision {
        llrs,
        hard: tri.unpermute(&symbols),
    }
}

/// Max-log soft demap for the linear-MMSE tier: per-stream distances from
/// the equalized point to each constellation point through `MaxLogDemap`
/// (scaled by `1/σ²`, clipped at ±`MISSING_HYPOTHESIS_LLR`). Ignores
/// residual interference colouring (the equalizer output is treated as an
/// AWGN observation) — the standard cheap demap for the tier. `hard` is
/// bit-identical to [`MmseDetector::detect`], which slices the very same
/// equalized points.
fn mmse_soft(d: &MmseDetector, y: &[Cx], sigma2: f64) -> SoftDecision {
    let c = d.constellation();
    let z = d.equalize(y);
    let mut demap = MaxLogDemap::new(c, z.len());
    for (stream, &zi) in z.iter().enumerate() {
        for sym in 0..c.order() {
            demap.offer(stream, sym, (zi - c.point(sym)).norm_sqr());
        }
    }
    SoftDecision {
        llrs: demap.llrs(sigma2),
        hard: z.iter().map(|&zi| c.slice(zi)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_modulation::Modulation;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn workload(seed: u64) -> (CMat, f64, Vec<Vec<Cx>>, Constellation) {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(seed);
        let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), 14.0);
        let ys: Vec<Vec<Cx>> = (0..8)
            .map(|_| {
                let x: Vec<Cx> = (0..4)
                    .map(|_| c.point(rng.gen_range(0..c.order())))
                    .collect();
                ch.transmit(&x, &mut rng)
            })
            .collect();
        (h, sigma2_from_snr_db(14.0), ys, c)
    }

    #[test]
    fn fixed_variant_is_transparent() {
        let (h, sigma2, ys, c) = workload(1);
        let mut wrapped = CellDetector::fixed(c.clone(), 16);
        let mut plain = FlexCoreDetector::with_pes(c, 16);
        wrapped.prepare(&h, sigma2);
        plain.prepare(&h, sigma2);
        assert_eq!(wrapped.core().unwrap().config().stop_threshold, None);
        assert_eq!(wrapped.effort(), plain.effort());
        for y in &ys {
            assert_eq!(wrapped.detect(y), plain.detect(y));
            let (a, b) = (wrapped.detect_soft(y, sigma2), plain.detect_soft(y, sigma2));
            assert_eq!(a.hard, b.hard);
            assert_eq!(a.llrs, b.llrs);
        }
    }

    #[test]
    fn adaptive_variant_is_transparent() {
        let (h, sigma2, ys, c) = workload(2);
        let mut wrapped = CellDetector::adaptive(c.clone(), 16, 0.95);
        let mut plain = FlexCoreDetector::adaptive(c, 16, 0.95);
        wrapped.prepare(&h, sigma2);
        plain.prepare(&h, sigma2);
        assert_eq!(wrapped.core().unwrap().config().stop_threshold, Some(0.95));
        assert_eq!(wrapped.effort(), plain.effort());
        let core = wrapped.core().unwrap();
        assert_eq!(core.active_paths(), plain.active_paths());
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        assert_eq!(
            wrapped.detect_batch_refs(&refs),
            plain.detect_batch_refs(&refs)
        );
    }

    #[test]
    fn degraded_variants_are_transparent() {
        let (h, sigma2, ys, c) = workload(5);
        let mut sic_wrapped = CellDetector::sic(c.clone());
        let mut sic_plain = SicDetector::new(c.clone());
        let mut lin_wrapped = CellDetector::linear(c.clone());
        let mut lin_plain = MmseDetector::new(c);
        for d in [&mut sic_wrapped, &mut lin_wrapped] {
            d.prepare(&h, sigma2);
            assert!(d.core().is_none());
            assert_eq!(d.effort(), 1, "degraded tiers weigh one path");
            assert_eq!(d.extension_work(), 1);
        }
        sic_plain.prepare(&h, sigma2);
        lin_plain.prepare(&h, sigma2);
        assert!(matches!(sic_wrapped, CellDetector::Sic(_)));
        assert!(matches!(lin_wrapped, CellDetector::Linear(_)));
        for y in &ys {
            assert_eq!(sic_wrapped.detect(y), sic_plain.detect(y));
            assert_eq!(lin_wrapped.detect(y), lin_plain.detect(y));
        }
    }

    #[test]
    fn soft_hard_lockstep_and_llr_signs_on_degraded_tiers() {
        let (h, sigma2, ys, c) = workload(6);
        for mut det in [
            CellDetector::sic(c.clone()),
            CellDetector::linear(c.clone()),
        ] {
            det.prepare(&h, sigma2);
            for y in &ys {
                let soft = det.detect_soft(y, sigma2);
                // The SoftDetector contract: `hard` bit-identical to detect.
                assert_eq!(soft.hard, det.detect(y), "{}", det.name());
                for (s, llr) in soft.llrs.iter().enumerate() {
                    assert_eq!(llr.len(), c.bits_per_symbol());
                    let bits = c.index_to_bits(soft.hard[s]);
                    for (b, &l) in llr.iter().enumerate() {
                        assert!(l.abs() <= crate::soft::MISSING_HYPOTHESIS_LLR + 1e-12);
                        // Max-log sign must agree with the hard decision:
                        // the hard symbol attains the minimum of its own
                        // bit class at that level/stream.
                        if bits[b] == 0 {
                            assert!(l >= 0.0, "{} stream {s} bit {b}: {l}", det.name());
                        } else {
                            assert!(l <= 0.0, "{} stream {s} bit {b}: {l}", det.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn constructors_print_the_figure_legend_names() {
        let c = Constellation::new(Modulation::Qam16);
        assert_eq!(
            CellDetector::adaptive(c.clone(), 16, 0.95).name(),
            "a-FlexCore(N_PE=16, t=0.95)"
        );
        assert_eq!(
            CellDetector::fixed(c.clone(), 16).name(),
            "FlexCore(N_PE=16)"
        );
        assert_eq!(CellDetector::sic(c.clone()).name(), "SIC");
        assert_eq!(CellDetector::linear(c).name(), "MMSE");
    }

    #[test]
    fn batch_path_is_bit_identical_to_per_vector() {
        let (h, sigma2, ys, c) = workload(3);
        for mut det in [
            CellDetector::fixed(c.clone(), 12),
            CellDetector::adaptive(c.clone(), 12, 0.95),
            CellDetector::sic(c.clone()),
            CellDetector::linear(c.clone()),
        ] {
            det.prepare(&h, sigma2);
            let per_vec: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
            let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
            assert_eq!(det.detect_batch_refs(&refs), per_vec, "{}", det.name());
        }
    }

    #[test]
    fn adaptive_effort_shrinks_against_fixed_on_clean_channels() {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(4);
        let h = ChannelEnsemble::iid(8, 4).draw(&mut rng); // well-conditioned
        let sigma2 = sigma2_from_snr_db(30.0);
        let mut fixed = CellDetector::fixed(c.clone(), 16);
        let mut adaptive = CellDetector::adaptive(c, 16, 0.95);
        fixed.prepare(&h, sigma2);
        adaptive.prepare(&h, sigma2);
        assert_eq!(fixed.effort(), 16);
        assert!(
            adaptive.effort() < fixed.effort(),
            "adaptive effort {} should undercut the fixed budget",
            adaptive.effort()
        );
    }
}
