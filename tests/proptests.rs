//! Property-based tests over the workspace's core invariants, through the
//! crates' public items. Properties of crate-internal items (conjugation,
//! QR reconstruction, the triangular solvers, `SymVec` storage, the
//! modulation and interleaver round trips) run as seeded loops in their
//! owning modules' tests.

use flexcore::{LevelErrorModel, PositionVector, Preprocessor};
use flexcore_coding::{CodeRate, ConvCode};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use proptest::prelude::*;

/// Strategy: a finite complex number with moderate magnitude.
fn cx() -> impl Strategy<Value = Cx> {
    (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Cx::new(re, im))
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
        // (The conjugation half of this property runs in
        // `Cx`'s unit tests in flexcore-numeric: `conj` is crate-internal.)
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
