//! Property-based tests over the workspace's core invariants.

use flexcore::{LevelErrorModel, PositionVector, Preprocessor};
use flexcore_coding::{CodeRate, ConvCode, Interleaver};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::mat::norm_sqr;
use flexcore_numeric::qr::{mgs_qr, sorted_qr_sqrd};
use flexcore_numeric::solve::{back_substitute, hermitian_inverse};
use flexcore_numeric::symvec::{SymVec, INLINE_STREAMS};
use flexcore_numeric::{CMat, Cx};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn symvec_hash(v: &SymVec) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Strategy: a finite complex number with moderate magnitude.
fn cx() -> impl Strategy<Value = Cx> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Cx::new(re, im))
}

/// Strategy: an `n × n` complex matrix that is (almost surely) full rank.
fn square_mat(n: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec(cx(), n * n)
        .prop_map(move |v| CMat::from_rows(n, n, &v))
        .prop_filter("needs to be well-conditioned", |m| {
            // Cheap full-rank proxy: Gram diagonal bounded away from zero
            // after Cholesky succeeds.
            flexcore_numeric::solve::cholesky(&m.gram()).is_some()
                && m.gram().as_slice().iter().all(|z| z.is_finite())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn complex_field_axioms(a in cx(), b in cx(), c in cx()) {
        let assoc = (a * b) * c - a * (b * c);
        prop_assert!(assoc.abs() < 1e-9 * (1.0 + a.abs() * b.abs() * c.abs()));
        let distrib = a * (b + c) - (a * b + a * c);
        prop_assert!(distrib.abs() < 1e-9 * (1.0 + a.abs() * (b.abs() + c.abs())));
        // |ab| = |a||b|
        prop_assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
        // conj is an involution and multiplicative.
        prop_assert_eq!(a.conj().conj(), a);
        let mc = (a * b).conj() - a.conj() * b.conj();
        prop_assert!(mc.abs() < 1e-12 + 1e-12 * a.abs() * b.abs());
    }

    #[test]
    fn qr_reconstructs_any_full_rank_matrix(h in square_mat(4)) {
        for qr in [mgs_qr(&h), sorted_qr_sqrd(&h)] {
            let hp = h.permute_cols(&qr.perm);
            let scale = h.fro_norm().max(1.0);
            prop_assert!(qr.reconstruct().max_abs_diff(&hp) < 1e-8 * scale);
            prop_assert!(qr.q.gram().max_abs_diff(&CMat::identity(4)) < 1e-8);
        }
    }

    #[test]
    fn back_substitution_solves(h in square_mat(4), xs in proptest::collection::vec(cx(), 4)) {
        // On the triangular factor the detectors use.
        let qr = sorted_qr_sqrd(&h);
        // Only test when R is comfortably non-singular.
        let min_diag = (0..4).map(|i| qr.r[(i, i)].abs()).fold(f64::INFINITY, f64::min);
        prop_assume!(min_diag > 1e-3);
        let b = qr.r.mul_vec(&xs);
        let sol = back_substitute(&qr.r, &b);
        let err: f64 = sol.iter().zip(&xs).map(|(a, b)| (*a - *b).norm_sqr()).sum();
        prop_assert!(err.sqrt() < 1e-6 * (1.0 + norm_sqr(&xs).sqrt()));
    }

    #[test]
    fn hermitian_inverse_roundtrip(h in square_mat(3)) {
        let g = h.gram();
        prop_assume!((0..3).all(|i| g[(i, i)].re > 1e-3));
        let gi = hermitian_inverse(&g);
        let err = g.mul_mat(&gi).max_abs_diff(&CMat::identity(3));
        prop_assert!(err < 1e-6 * g.fro_norm().max(1.0));
    }

    #[test]
    fn modulation_roundtrip(bits in proptest::collection::vec(0u8..2, 6 * 20)) {
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let c = Constellation::new(m);
            let n = bits.len() - bits.len() % c.bits_per_symbol();
            let chunk = &bits[..n];
            prop_assert_eq!(c.demodulate(&c.modulate(chunk)), chunk.to_vec());
        }
    }

    #[test]
    fn slicing_is_nearest_point(y in cx()) {
        let c = Constellation::new(Modulation::Qam16);
        let idx = c.slice(y);
        let d = c.point(idx).dist_sqr(y);
        for other in 0..16 {
            prop_assert!(d <= c.point(other).dist_sqr(y) + 1e-12);
        }
    }

    #[test]
    fn viterbi_inverts_encoder(bits in proptest::collection::vec(0u8..2, 24..200)) {
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(rate);
            let coded = code.encode(&bits);
            prop_assert_eq!(code.decode(&coded, bits.len()), bits.clone());
        }
    }

    #[test]
    fn interleaver_is_a_bijection(bits in proptest::collection::vec(0u8..2, 96)) {
        let il = Interleaver::new(48, 2);
        prop_assert_eq!(il.deinterleave(&il.interleave(&bits)), bits);
    }

    #[test]
    fn preprocessor_output_is_sorted_unique_and_bounded(
        pes in proptest::collection::vec(0.01f64..0.5, 2..8),
        n_pe in 1usize..64,
    ) {
        let model = LevelErrorModel::from_pe(pes.clone());
        let out = Preprocessor::new(n_pe).run(&model, 16);
        prop_assert!(out.paths.len() <= n_pe);
        prop_assert!(!out.paths.is_empty());
        prop_assert_eq!(out.paths[0].clone(), PositionVector::ones(pes.len()));
        prop_assert_eq!(out.ln_probs.len(), out.paths.len());
        for w in out.ln_probs.windows(2) {
            prop_assert!(w[0] >= w[1], "not sorted");
        }
        let set: std::collections::HashSet<_> = out.paths.iter().cloned().collect();
        prop_assert_eq!(set.len(), out.paths.len());
        prop_assert!(out.cumulative_prob <= 1.0 + 1e-9);
        for p in &out.paths {
            prop_assert!(p.within_order(16));
        }
    }

    #[test]
    fn symvec_storage_is_representation_independent(
        syms in proptest::collection::vec(0u16..1024, 0usize..65),
    ) {
        // The massive-MIMO storage contract: any length up to 64 round
        // trips, spills exactly past the inline bound, and all observable
        // behaviour (slice, equality, hash, clone, reset) is independent
        // of whether the indices live inline or in a spill buffer.
        let idx: Vec<usize> = syms.iter().map(|&s| s as usize).collect();
        let v = SymVec::from_indices(&idx);
        prop_assert_eq!(v.len(), syms.len());
        prop_assert_eq!(v.as_slice(), &syms[..]);
        prop_assert_eq!(v.is_spilled(), syms.len() > INLINE_STREAMS);
        prop_assert_eq!(v.to_indices(), idx);
        // A spilled twin with the same contents, forced through the
        // boundary: equal and hash-identical whatever `v`'s representation.
        let mut twin = SymVec::zeroed(INLINE_STREAMS + 1);
        twin.assign(&syms);
        prop_assert!(twin.is_spilled());
        prop_assert_eq!(&twin, &v);
        prop_assert_eq!(symvec_hash(&twin), symvec_hash(&v));
        // Clone preserves contents; clone_from reuses the destination.
        prop_assert_eq!(&v.clone(), &v);
        let mut dst = SymVec::zeroed(INLINE_STREAMS + 1);
        dst.clone_from(&v);
        prop_assert_eq!(&dst, &v);
        // reset() zeroes at the same length, and crossing the spill
        // boundary in either direction keeps the vector well-formed.
        let mut r = v.clone();
        r.reset(syms.len());
        prop_assert!(r.as_slice().iter().all(|&s| s == 0));
        prop_assert_eq!(r.len(), syms.len());
        r.reset(64);
        prop_assert_eq!(r.len(), 64);
        prop_assert!(r.is_spilled());
        r.reset(1);
        prop_assert_eq!(r.as_slice(), &[0u16][..]);
    }

    #[test]
    fn path_probabilities_are_consistent(
        pes in proptest::collection::vec(0.01f64..0.5, 2..6),
        ranks in proptest::collection::vec(1u32..8, 2..6),
    ) {
        prop_assume!(pes.len() == ranks.len());
        let model = LevelErrorModel::from_pe(pes);
        let lp = model.ln_path_prob(&ranks);
        prop_assert!(lp <= model.ln_root_prob() + 1e-12);
        prop_assert!(lp.is_finite());
        // Deepening any level strictly reduces probability.
        let mut deeper = ranks.clone();
        deeper[0] += 1;
        prop_assert!(model.ln_path_prob(&deeper) < lp);
    }
}
