//! Time-varying channels (first-order Gauss–Markov evolution).
//!
//! §3.1 of the paper discusses MIMO systems with dynamic channels and user
//! mobility: the most promising paths drift with the channel, so
//! pre-processing must be re-run alongside the usual channel-dependent
//! work (QR / channel inversion) whenever fresh estimates arrive. This
//! module provides the standard first-order autoregressive (Gauss–Markov /
//! Jakes-approximation) evolution used to study exactly that:
//!
//! ```text
//! H[k+1] = ρ·H[k] + √(1 − ρ²)·W[k],   W iid CN(0,1)
//! ```
//!
//! with `ρ = J₀(2π·f_D·Δt)` for Doppler `f_D` and update interval `Δt`.
//! The `stale_preprocessing_costs_throughput` test demonstrates the
//! paper's point: detecting with position vectors computed for an old
//! channel realisation degrades FlexCore toward (or below) its SIC floor,
//! while re-running `prepare` restores it.

use crate::model::ChannelEnsemble;
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::CMat;
use rand::Rng;

/// A first-order Gauss–Markov evolving MIMO channel.
#[derive(Clone, Debug)]
pub struct GaussMarkovChannel {
    /// Current realisation.
    h: CMat,
    /// Per-step correlation `ρ ∈ [0, 1]` (1 = static).
    rho: f64,
}

impl GaussMarkovChannel {
    /// Starts from a fresh draw of `ensemble` with per-step correlation
    /// `rho`.
    pub fn new<R: Rng + ?Sized>(ensemble: &ChannelEnsemble, rho: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0,1]");
        GaussMarkovChannel {
            h: ensemble.draw(rng),
            rho,
        }
    }

    /// A static channel pinned at `h`: `ρ = 1`, so [`GaussMarkovChannel::step`]
    /// never moves it and never consumes randomness. The zero-Doppler limit
    /// the streaming/block-fading bit-identity bridges are built on.
    pub fn frozen(h: CMat) -> Self {
        GaussMarkovChannel { h, rho: 1.0 }
    }

    /// Correlation coefficient from normalised Doppler `f_D·Δt`, via the
    /// Jakes model `ρ = J₀(2π·f_D·Δt)` with a proper Bessel evaluation
    /// ([`flexcore_numeric::special::j0`]).
    ///
    /// A first-order Gauss–Markov step only admits `ρ ∈ [0, 1]`, so the
    /// oscillatory tail of `J₀` (negative lobes beyond `x ≈ 2.405`, i.e.
    /// `f_D·Δt ≳ 0.38`) clamps to 0 — fully decorrelated per step, the
    /// right limit for fading faster than the update interval.
    pub fn rho_from_doppler(fd_dt: f64) -> f64 {
        let x = 2.0 * std::f64::consts::PI * fd_dt;
        flexcore_numeric::special::j0(x).clamp(0.0, 1.0)
    }

    /// The current channel matrix.
    pub fn current(&self) -> &CMat {
        &self.h
    }

    /// Advances one step: `H ← ρH + √(1−ρ²)·W`.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let innov = (1.0 - self.rho * self.rho).sqrt();
        if innov == 0.0 {
            return;
        }
        // Row by row over the matrix's own storage: the draw order of the
        // `(r, c)` double loop, without its two bounds checks per entry.
        for r in 0..self.h.rows() {
            for entry in self.h.row_mut(r) {
                let w = rng.cx_normal(1.0);
                *entry = entry.scale(self.rho) + w.scale(innov);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_numeric::Cx;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A realisation's entries, row by row.
    fn entries(h: &CMat) -> impl Iterator<Item = &Cx> {
        (0..h.rows()).flat_map(|r| h.row(r))
    }

    /// `‖H‖²_F`: the summed entry power of a realisation.
    fn energy(h: &CMat) -> f64 {
        entries(h).map(|z| z.norm_sqr()).sum()
    }

    /// Empirical correlation between two realisations: the normalised
    /// inner product `Re⟨a, b⟩ / (‖a‖·‖b‖)` of the vectorised matrices.
    fn correlation(a: &CMat, b: &CMat) -> f64 {
        let num: f64 = entries(a)
            .zip(entries(b))
            .map(|(x, y)| x.re * y.re + x.im * y.im)
            .sum();
        num / (energy(a) * energy(b)).sqrt()
    }

    #[test]
    fn static_channel_never_moves() {
        let mut rng = StdRng::seed_from_u64(1);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut ch = GaussMarkovChannel::new(&ens, 1.0, &mut rng);
        let h0 = ch.current().clone();
        for _ in 0..50 {
            ch.step(&mut rng);
        }
        assert_eq!(ch.current(), &h0);
    }

    #[test]
    fn frozen_channel_is_static_and_consumes_no_randomness() {
        let mut rng = StdRng::seed_from_u64(11);
        let ens = ChannelEnsemble::iid(3, 3);
        let h = ens.draw(&mut rng);
        let mut frozen = GaussMarkovChannel::frozen(h.clone());
        assert_eq!(frozen.rho, 1.0);
        let before: u64 = rng.gen();
        let mut check = StdRng::seed_from_u64(11);
        let _ = ens.draw(&mut check);
        for _ in 0..25 {
            frozen.step(&mut check);
        }
        assert_eq!(check.gen::<u64>(), before, "step must not draw from rng");
        assert_eq!(frozen.current(), &h);
    }

    #[test]
    fn correlation_decays_with_steps() {
        let mut rng = StdRng::seed_from_u64(2);
        let ens = ChannelEnsemble {
            user_snr_spread_db: 0.0,
            ..ChannelEnsemble::iid(8, 8)
        };
        let mut ch = GaussMarkovChannel::new(&ens, 0.95, &mut rng);
        let h0 = ch.current().clone();
        let mut last = 1.0f64;
        for checkpoint in 0..4 {
            for _ in 0..10 {
                ch.step(&mut rng);
            }
            let corr = correlation(ch.current(), &h0);
            assert!(
                corr < last + 0.05,
                "correlation should decay: step {checkpoint} corr {corr} last {last}"
            );
            last = corr;
        }
        assert!(last < 0.6, "after 40 steps at rho=0.95: corr {last}");
    }

    #[test]
    fn power_is_preserved_in_expectation() {
        let mut rng = StdRng::seed_from_u64(3);
        let ens = ChannelEnsemble {
            user_snr_spread_db: 0.0,
            ..ChannelEnsemble::iid(6, 6)
        };
        let mut ch = GaussMarkovChannel::new(&ens, 0.9, &mut rng);
        let mut acc = 0.0;
        let n = 400;
        for _ in 0..n {
            ch.step(&mut rng);
            acc += energy(ch.current()) / 36.0;
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.1, "mean entry power {mean}");
    }

    #[test]
    fn doppler_mapping_is_monotone() {
        let slow = GaussMarkovChannel::rho_from_doppler(0.001);
        let fast = GaussMarkovChannel::rho_from_doppler(0.05);
        assert!(slow > fast);
        assert!(slow > 0.999);
        assert!((0.0..1.0).contains(&fast));
    }

    #[test]
    fn doppler_mapping_handles_fast_fading() {
        use std::f64::consts::PI;
        // At the first Bessel zero (x ≈ 2.4048) the channel decorrelates
        // completely in one step. The old x⁴-truncated series gave 0.078
        // here.
        let at_zero = GaussMarkovChannel::rho_from_doppler(2.404825557695773 / (2.0 * PI));
        assert!(at_zero < 1e-6, "rho at the J₀ zero: {at_zero}");
        // Beyond the zero the series *diverged*: at x = 4 it evaluated to
        // exactly 1.0 (a frozen channel!) where J₀(4) ≈ −0.397 — the clamp
        // must now land at 0 (full per-step decorrelation), not 1.
        let beyond = GaussMarkovChannel::rho_from_doppler(4.0 / (2.0 * PI));
        assert_eq!(beyond, 0.0, "negative J₀ lobe must clamp to 0");
        // And x = 8 sits on a positive lobe: ρ small but non-zero, < 1.
        let lobe = GaussMarkovChannel::rho_from_doppler(8.0 / (2.0 * PI));
        assert!(lobe > 0.0 && lobe < 0.3, "positive lobe: {lobe}");
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn rejects_bad_rho() {
        let mut rng = StdRng::seed_from_u64(4);
        let ens = ChannelEnsemble::iid(2, 2);
        let _ = GaussMarkovChannel::new(&ens, 1.5, &mut rng);
    }
}
