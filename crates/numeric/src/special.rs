//! Special functions: `erfc` and the Bessel function `J₀` (plus the
//! Gaussian Q-function, a test reference).
//!
//! FlexCore's pre-processing model (Eq. 4 of the paper) evaluates the
//! complementary error function at `|R(l,l)|·√Es/σ`, which at the SNRs of
//! interest can be deep in the tail (`erfc(x) ~ 1e-12`). The implementation
//! therefore prioritises *relative* accuracy in the tail: we use the
//! Chebyshev-fitted exponential form popularised by Numerical Recipes
//! (`erfc(x) = t·exp(−x² + P(t))`, fractional error < 1.2e-7 everywhere),
//! which remains accurate where the naive `1 − erf(x)` cancels catastrophically.
//!
//! `J₀` backs the Jakes Doppler-correlation mapping of the time-varying
//! channel models (`ρ = J₀(2π·f_D·Δt)`), where the argument routinely
//! exceeds the radius of convergence of the small-x Taylor expansion.

/// Complementary error function `erfc(x) = 2/√π ∫_x^∞ e^{−t²} dt`.
///
/// Fractional error below `1.2e-7` over the whole real line.
///
/// ```
/// use flexcore_numeric::special::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-7);
/// assert!(erfc(5.0) > 0.0 && erfc(5.0) < 2e-12);
/// assert!((erfc(-1.0) + erfc(1.0) - 2.0).abs() < 1e-7);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev polynomial in t, evaluated via Horner.
    let poly = -z * z - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277))))))));
    let ans = t * poly.exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail probability `Q(x) = P(N(0,1) > x) = erfc(x/√2)/2`: the
/// reference the ziggurat sampler's distribution tests compare against.
#[cfg(test)]
pub(crate) fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Bessel function of the first kind, order zero, `J₀(x)`.
///
/// Abramowitz & Stegun rational approximations: the polynomial fit 9.4.1
/// on `|x| ≤ 3` (|ε| < 5e-8) and the modulus/phase form 9.4.3
/// (`J₀(x) = f₀(x)·cos(θ₀(x))/√x`) beyond, so the oscillatory tail —
/// including every zero crossing — is captured instead of diverging like
/// a truncated Taylor series.
///
/// ```
/// use flexcore_numeric::special::j0;
/// assert!((j0(0.0) - 1.0).abs() < 1e-8);
/// assert!(j0(2.404825557695773).abs() < 1e-6); // first zero
/// assert!(j0(4.0) < 0.0); // the tail oscillates
/// ```
pub fn j0(x: f64) -> f64 {
    let ax = x.abs();
    if ax <= 3.0 {
        // A&S 9.4.1, argument (x/3)².
        let t = (ax / 3.0) * (ax / 3.0);
        1.0 + t
            * (-2.249_999_7
                + t * (1.265_620_8
                    + t * (-0.316_386_6
                        + t * (0.044_447_9 + t * (-0.003_944_4 + t * 0.000_210_0)))))
    } else {
        // A&S 9.4.3: J₀(x) = f₀·cos(θ₀)/√x, argument 3/x.
        let t = 3.0 / ax;
        let f0 = 0.797_884_56
            + t * (-0.000_000_77
                + t * (-0.005_527_40
                    + t * (-0.000_095_12
                        + t * (0.001_372_37 + t * (-0.000_728_05 + t * 0.000_144_76)))));
        // The A&S 9.4.3 tabulated coefficient happens to approximate
        // FRAC_PI_4; substituting the exact constant would change J0's
        // output bits, so the published value stays verbatim.
        #[allow(clippy::approx_constant)]
        let theta0 = ax - 0.785_398_16
            + t * (-0.041_663_97
                + t * (-0.000_039_54
                    + t * (0.002_625_73
                        + t * (-0.000_541_25 + t * (-0.000_293_33 + t * 0.000_135_58)))));
        f0 * theta0.cos() / ax.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference values computed with mpmath (50 digits).
    const REF: &[(f64, f64)] = &[
        (0.0, 1.0),
        (0.1, 0.887537083981715),
        (0.5, 0.479500122186953),
        (1.0, 0.157299207050285),
        (1.5, 0.0338948535246893),
        (2.0, 0.00467773498104727),
        (3.0, 2.20904969985854e-5),
        (4.0, 1.54172579002800e-8),
        (5.0, 1.53745979442803e-12),
    ];

    #[test]
    fn erfc_matches_reference_relative() {
        for &(x, want) in REF {
            let got = erfc(x);
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(rel < 2e-7, "erfc({x}) = {got}, want {want} (rel {rel})");
        }
    }

    #[test]
    fn erfc_negative_axis_symmetry() {
        for &(x, want) in REF {
            let got = erfc(-x);
            assert!(
                (got - (2.0 - want)).abs() < 1e-7,
                "erfc(-{x}) should be 2 - erfc({x})"
            );
        }
    }

    #[test]
    fn erfc_monotone_decreasing() {
        let mut prev = erfc(-6.0);
        let mut x = -6.0;
        while x < 6.0 {
            x += 0.05;
            let v = erfc(x);
            assert!(v <= prev + 1e-12, "erfc not monotone at {x}");
            prev = v;
        }
    }

    #[test]
    fn q_function_basics() {
        // erfc carries ~1.2e-7 fractional error, so match that here.
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        // Q(1.6448536...) ≈ 0.05
        assert!((q_function(1.6448536269514722) - 0.05).abs() < 1e-7);
        // Complement law.
        for x in [0.3, 1.1, 2.7] {
            assert!((q_function(x) + q_function(-x) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn j0_matches_reference_values() {
        // mpmath besselj(0, x) to 16 digits.
        const J0_REF: &[(f64, f64)] = &[
            (0.0, 1.0),
            (0.5, 0.938469807240813),
            (1.0, 0.765197686557967),
            (2.0, 0.223890779141236),
            (3.0, -0.260051954901933),
            (5.0, -0.177596771314338),
            (10.0, -0.245935764451348),
            (20.0, 0.167024664340583),
        ];
        for &(x, want) in J0_REF {
            let got = j0(x);
            assert!((got - want).abs() < 1e-6, "j0({x}) = {got}, want {want}");
        }
    }

    #[test]
    fn j0_vanishes_at_known_zeros() {
        // The first two zeros straddle the 9.4.1 / 9.4.3 branch switch at
        // x = 3, exercising both fits.
        for zero in [2.404825557695773, 5.520078110286311] {
            assert!(j0(zero).abs() < 1e-6, "j0({zero}) = {}", j0(zero));
        }
    }

    #[test]
    fn j0_is_even_and_bounded() {
        let mut x = 0.0f64;
        while x < 30.0 {
            assert!((j0(x) - j0(-x)).abs() < 1e-15, "j0 not even at {x}");
            assert!(j0(x).abs() <= 1.0 + 1e-7, "j0({x}) out of [-1,1]");
            x += 0.13;
        }
    }

    #[test]
    fn j0_agrees_with_taylor_expansion_for_small_arguments() {
        // The old `rho_from_doppler` used 1 − x²/4 + x⁴/64; on its own turf
        // (x ≪ 1) the proper J₀ must agree with it — the regression half of
        // the fix (the other half is that J₀ keeps working beyond x ≈ 1).
        let mut x = 0.0f64;
        while x <= 0.6 {
            let series = 1.0 - x * x / 4.0 + x.powi(4) / 64.0;
            assert!((j0(x) - series).abs() < 1e-4, "j0({x}) vs series {series}");
            x += 0.05;
        }
    }
}
