//! Property-based tests over the workspace's core invariants, through the
//! crates' public items. Properties of crate-internal items (conjugation,
//! QR reconstruction, the triangular solvers, `SymVec` storage, the
//! modulation and interleaver round trips, FlexCore's path model and
//! pre-processing search) run as seeded loops in their owning modules'
//! tests.

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
}
