//! Per-user arrival processes: how many frames a user offers per tick.
//!
//! Real cell traffic is not a constant frame rate — it is a mix of
//! memoryless background load, bursty on/off sources (interactive apps
//! waking up), and slow diurnal swells. Each [`TrafficSource`] owns one
//! [`ArrivalProcess`] and one seeded RNG, and draws **exactly one uniform
//! per tick** regardless of the process family or the load multiplier.
//! That discipline is what makes the city's load sweeps *coupled*: the
//! same seed at multipliers `m₁ < m₂` replays the same uniform sequence,
//! so a Poisson user's per-tick counts are pointwise non-decreasing in the
//! multiplier ([`poisson_quantile`] is monotone in its rate) and an on/off
//! user's burst timing is identical with only the emitted volume scaled.
//! The shed-fraction monotonicity property test leans directly on this.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hard cap on the frames one user can offer in a single tick. Bounds the
/// quantile inversion loop and keeps a mis-calibrated multiplier from
/// turning one tick into an unbounded allocation.
const MAX_ARRIVALS_PER_TICK: usize = 64;

/// A per-user arrival process, priced in frames per tick. All rates are
/// at load multiplier 1.0; [`TrafficSource::step`] scales them.
#[derive(Clone, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: `N_t ~ Poisson(rate)` i.i.d. per tick.
    Poisson {
        /// Mean frames per tick (must be finite and non-negative).
        rate: f64,
    },
    /// Interrupted (bursty) arrivals: a two-state Markov chain flips
    /// between *off* (no traffic) and *on* (a deterministic `peak` frames
    /// per tick via a fractional accumulator). Burst lengths are
    /// geometric with mean `1/p_off` ticks; gaps geometric with mean
    /// `1/p_on`; the stationary on-fraction is `p_on / (p_on + p_off)`.
    OnOff {
        /// Per-tick probability of an off→on flip, in `(0, 1]`.
        p_on: f64,
        /// Per-tick probability of an on→off flip, in `(0, 1]`.
        p_off: f64,
        /// Frames per tick while on (finite, non-negative).
        peak: f64,
    },
    /// A diurnal profile: Poisson arrivals whose rate follows a raised
    /// cosine over a `day_ticks`-tick day, dipping to zero at the start of
    /// each day and peaking at mid-day. The per-tick rates sum to exactly
    /// `daily_volume` over one day (`Σ_t (1 − cos(2πt/D)) = D`).
    Diurnal {
        /// Mean frames offered over one whole day (finite, non-negative).
        daily_volume: f64,
        /// Ticks per day (must be ≥ 1).
        day_ticks: u64,
    },
}

impl ArrivalProcess {
    /// The expected arrival rate (frames per tick, multiplier 1.0) at a
    /// given absolute tick. Constant for [`ArrivalProcess::Poisson`], the
    /// stationary mean for [`ArrivalProcess::OnOff`], and the profile
    /// value for [`ArrivalProcess::Diurnal`].
    pub fn rate_at(&self, tick: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff { p_on, p_off, peak } => peak * p_on / (p_on + p_off),
            ArrivalProcess::Diurnal {
                daily_volume,
                day_ticks,
            } => {
                let d = day_ticks as f64;
                let phase = (tick % day_ticks) as f64 / d;
                daily_volume * (1.0 - (2.0 * std::f64::consts::PI * phase).cos()) / d
            }
        }
    }

    /// The long-run mean arrival rate in frames per tick at multiplier
    /// 1.0 — the number admission control prices a user by.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate } => rate,
            ArrivalProcess::OnOff { p_on, p_off, peak } => peak * p_on / (p_on + p_off),
            ArrivalProcess::Diurnal {
                daily_volume,
                day_ticks,
            } => daily_volume / day_ticks as f64,
        }
    }

    /// Panics with a description of the first invalid parameter, if any.
    fn validate(&self) {
        match *self {
            ArrivalProcess::Poisson { rate } => {
                assert!(
                    rate.is_finite() && rate >= 0.0,
                    "ArrivalProcess::Poisson: bad rate {rate}"
                );
            }
            ArrivalProcess::OnOff { p_on, p_off, peak } => {
                assert!(
                    p_on > 0.0 && p_on <= 1.0 && p_off > 0.0 && p_off <= 1.0,
                    "ArrivalProcess::OnOff: flip probabilities must be in (0, 1]: \
                     p_on={p_on} p_off={p_off}"
                );
                assert!(
                    peak.is_finite() && peak >= 0.0,
                    "ArrivalProcess::OnOff: bad peak {peak}"
                );
            }
            ArrivalProcess::Diurnal {
                daily_volume,
                day_ticks,
            } => {
                assert!(
                    daily_volume.is_finite() && daily_volume >= 0.0,
                    "ArrivalProcess::Diurnal: bad daily volume {daily_volume}"
                );
                assert!(day_ticks >= 1, "ArrivalProcess::Diurnal: empty day");
            }
        }
    }
}

/// The Poisson quantile function by CDF inversion: the smallest `n` with
/// `P(N ≤ n) ≥ u` for `N ~ Poisson(lambda)`, capped at
/// [`MAX_ARRIVALS_PER_TICK`]. For a **fixed** uniform `u` the result is
/// non-decreasing in `lambda` (the Poisson family is stochastically
/// ordered), which is what couples a user's sample paths across load
/// multipliers: scaling the rate can only add arrivals tick by tick,
/// never move them.
fn poisson_quantile(lambda: f64, u: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let mut pmf = (-lambda).exp();
    let mut cdf = pmf;
    let mut n = 0usize;
    // For lambda large enough that exp(-lambda) underflows to 0 the loop
    // walks straight to the cap, which is the honest answer there anyway.
    while u > cdf && n < MAX_ARRIVALS_PER_TICK {
        n += 1;
        pmf *= lambda / n as f64;
        cdf += pmf;
    }
    n
}

/// One user's seeded traffic generator: an [`ArrivalProcess`] plus its
/// own RNG and burst state. Draws exactly one uniform per
/// [`TrafficSource::step`], so two sources with the same seed stay in
/// lockstep across different load multipliers.
#[derive(Clone, Debug)]
pub struct TrafficSource {
    process: ArrivalProcess,
    rng: StdRng,
    tick: u64,
    on: bool,
    acc: f64,
}

impl TrafficSource {
    /// A source over `process`, seeded so every run is replayable.
    /// On/off sources draw their initial state from the stationary
    /// distribution (one extra setup draw, not a per-tick one).
    ///
    /// # Panics
    /// Panics if the process parameters are invalid (negative or
    /// non-finite rates, flip probabilities outside `(0, 1]`, empty day).
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        process.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let on = match process {
            ArrivalProcess::OnOff { p_on, p_off, .. } => rng.gen_bool(p_on / (p_on + p_off)),
            _ => false,
        };
        TrafficSource {
            process,
            rng,
            tick: 0,
            on,
            acc: 0.0,
        }
    }

    /// Whether an on/off source is currently in a burst (always `false`
    /// for the other families).
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Advances one tick and returns how many frames arrive, with all
    /// rates scaled by `multiplier` (the city's calibrated load knob).
    /// Exactly one uniform is drawn per call.
    ///
    /// # Panics
    /// Panics unless `multiplier` is finite and non-negative.
    pub fn step(&mut self, multiplier: f64) -> usize {
        assert!(
            multiplier.is_finite() && multiplier >= 0.0,
            "TrafficSource::step: bad multiplier {multiplier}"
        );
        let u: f64 = self.rng.gen();
        let n = match self.process {
            ArrivalProcess::Poisson { rate } => poisson_quantile(rate * multiplier, u),
            ArrivalProcess::OnOff { p_on, p_off, peak } => {
                // The uniform drives the state flip; emission while on is a
                // deterministic fractional accumulator, so the multiplier
                // scales volume without touching burst timing.
                self.on = if self.on { u >= p_off } else { u < p_on };
                if self.on {
                    self.acc += peak * multiplier;
                }
                let whole = self.acc.floor();
                self.acc -= whole;
                (whole as usize).min(MAX_ARRIVALS_PER_TICK)
            }
            ArrivalProcess::Diurnal { .. } => {
                poisson_quantile(self.process.rate_at(self.tick) * multiplier, u)
            }
        };
        self.tick += 1;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_quantile_is_monotone_in_both_arguments() {
        for &u in &[0.01, 0.3, 0.5, 0.77, 0.99] {
            let mut prev = 0;
            for i in 0..60 {
                let lambda = 0.1 * i as f64;
                let n = poisson_quantile(lambda, u);
                assert!(n >= prev, "quantile fell: λ={lambda} u={u}");
                prev = n;
            }
        }
        for &lambda in &[0.2, 1.0, 4.0] {
            let mut prev = 0;
            for i in 1..100 {
                let n = poisson_quantile(lambda, i as f64 / 100.0);
                assert!(n >= prev, "quantile fell in u: λ={lambda} i={i}");
                prev = n;
            }
        }
    }

    #[test]
    fn one_draw_per_tick_keeps_multipliers_in_lockstep() {
        // Same seed, different multipliers: per-tick Poisson counts must be
        // pointwise ordered, and on/off burst timing identical.
        let mk = |m: f64| {
            let mut s = TrafficSource::new(ArrivalProcess::Poisson { rate: 1.3 }, 42);
            (0..500).map(|_| s.step(m)).collect::<Vec<_>>()
        };
        let (lo, hi) = (mk(1.0), mk(1.7));
        assert!(lo.iter().zip(&hi).all(|(a, b)| a <= b));
        assert!(lo.iter().sum::<usize>() < hi.iter().sum::<usize>());

        let bursts = |m: f64| {
            let mut s = TrafficSource::new(
                ArrivalProcess::OnOff {
                    p_on: 0.2,
                    p_off: 0.3,
                    peak: 1.5,
                },
                7,
            );
            (0..500)
                .map(|_| {
                    let n = s.step(m);
                    (s.is_on(), n)
                })
                .collect::<Vec<_>>()
        };
        let (b1, b2) = (bursts(1.0), bursts(2.0));
        assert!(b1.iter().zip(&b2).all(|(a, b)| a.0 == b.0), "timing moved");
        let (v1, v2) = (
            b1.iter().map(|x| x.1).sum::<usize>(),
            b2.iter().map(|x| x.1).sum::<usize>(),
        );
        assert!(v2 > v1, "doubled peak did not raise volume: {v1} vs {v2}");
    }

    #[test]
    fn diurnal_rate_dips_at_midnight_and_peaks_at_midday() {
        let p = ArrivalProcess::Diurnal {
            daily_volume: 120.0,
            day_ticks: 100,
        };
        assert!(p.rate_at(0) < 1e-12);
        assert!(p.rate_at(50) > p.rate_at(10));
        assert!(
            (p.rate_at(3) - p.rate_at(103)).abs() < 1e-12,
            "not periodic"
        );
    }

    #[test]
    #[should_panic(expected = "flip probabilities")]
    fn zero_flip_probability_is_rejected() {
        let _ = TrafficSource::new(
            ArrivalProcess::OnOff {
                p_on: 0.0,
                p_off: 0.5,
                peak: 1.0,
            },
            1,
        );
    }
}
