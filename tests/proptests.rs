//! Property tests over the workspace's core invariants, through the
//! crates' public items, as seeded loops. Properties of crate-internal
//! items (conjugation, QR reconstruction, the triangular solvers, the
//! modulation and interleaver round trips, the Viterbi
//! decoder inverting the encoder, FlexCore's path model and pre-processing
//! search) run as seeded loops in their owning modules' tests.

use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: usize = 64;

/// A finite complex number with moderate magnitude.
fn cx(rng: &mut StdRng) -> Cx {
    Cx::new(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0))
}

#[test]
fn complex_field_axioms() {
    let mut rng = StdRng::seed_from_u64(0xF1E1D);
    for _ in 0..CASES {
        let (a, b, c) = (cx(&mut rng), cx(&mut rng), cx(&mut rng));
        let assoc = (a * b) * c - a * (b * c);
        assert!(assoc.abs() < 1e-9 * (1.0 + a.abs() * b.abs() * c.abs()));
        let distrib = a * (b + c) - (a * b + a * c);
        assert!(distrib.abs() < 1e-9 * (1.0 + a.abs() * (b.abs() + c.abs())));
        // |ab| = |a||b|
        assert!(((a * b).abs() - a.abs() * b.abs()).abs() < 1e-9 * (1.0 + a.abs() * b.abs()));
        // (The conjugation half of this property runs in
        // `Cx`'s unit tests in flexcore-numeric: `conj` is crate-internal.)
    }
}

#[test]
fn slicing_is_nearest_point() {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(0x511CE);
    for _ in 0..CASES {
        let y = cx(&mut rng);
        let idx = c.slice(y);
        let d = c.point(idx).dist_sqr(y);
        for other in 0..16 {
            assert!(d <= c.point(other).dist_sqr(y) + 1e-12, "{y:?}");
        }
    }
}
