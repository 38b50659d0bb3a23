//! Streaming time-varying scenario driver.
//!
//! §3.1 of the paper stresses that in dynamic channels the pre-processing
//! must be re-run alongside the usual channel-dependent work whenever fresh
//! estimates arrive. This module provides the frame-scale version of that
//! scenario: every subcarrier owns a [`GaussMarkovChannel`] *truth* process
//! that ages once per frame, while the receiver's *estimate* — a
//! [`FrameChannel`] feeding a [`FrameEngine`](crate::FrameEngine)
//! preparation cache — is refreshed on a staggered round-robin schedule
//! (channel sounding covers `1/refresh_period` of the band per frame, the
//! way scattered pilots do). Between refreshes a subcarrier's prepared
//! state goes stale by up to `refresh_period` frames, so detection quality
//! degrades with Doppler exactly as the paper warns — and the engine's
//! generation cache re-prepares *only* the subcarriers whose estimates
//! moved, keeping the pre-processing cost at `n_subcarriers /
//! refresh_period` runs per frame instead of a full sweep.

use crate::channel::FrameChannel;
use crate::frame::RxFrame;
use flexcore_channel::{ChannelEnsemble, GaussMarkovChannel};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::symvec::INLINE_STREAMS;
use flexcore_numeric::{CMat, Cx};
use rand::Rng;

/// Per-subcarrier Gauss–Markov truth channels plus the staggered,
/// generation-bumping estimate the receiver actually detects with.
#[derive(Clone, Debug)]
pub struct ChannelStream {
    truth: Vec<GaussMarkovChannel>,
    estimate: FrameChannel,
    refresh_period: usize,
    frames_elapsed: u64,
}

impl ChannelStream {
    /// A stream of `n_subcarriers` independent Gauss–Markov channels drawn
    /// from `ensemble`, each with per-frame correlation `rho`
    /// ([`GaussMarkovChannel::rho_from_doppler`] maps a normalised Doppler
    /// to it). Estimates start perfectly fresh and are thereafter refreshed
    /// for `~n_subcarriers / refresh_period` subcarriers per
    /// [`ChannelStream::advance`] (`refresh_period = 1` re-sounds the whole
    /// band every frame).
    ///
    /// # Panics
    /// Panics on zero subcarriers, a zero refresh period, or a `sigma2`
    /// that is NaN, infinite or negative
    /// ([`FrameChannel::per_subcarrier`]).
    pub fn new<R: Rng + ?Sized>(
        ensemble: &ChannelEnsemble,
        n_subcarriers: usize,
        rho: f64,
        refresh_period: usize,
        sigma2: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n_subcarriers > 0, "ChannelStream: zero subcarriers");
        assert!(refresh_period >= 1, "ChannelStream: zero refresh period");
        let truth: Vec<GaussMarkovChannel> = (0..n_subcarriers)
            .map(|_| GaussMarkovChannel::new(ensemble, rho, rng))
            .collect();
        let estimate = FrameChannel::per_subcarrier(
            truth.iter().map(|t| t.current().clone()).collect(),
            sigma2,
        );
        ChannelStream {
            truth,
            estimate,
            refresh_period,
            frames_elapsed: 0,
        }
    }

    /// A *frozen* stream: every subcarrier holds the same static `h`
    /// (`ρ = 1`, whole-band refresh every frame), so truth and estimate
    /// never diverge and [`ChannelStream::advance`] draws no randomness.
    /// [`ChannelStream::transmit_frame_into`] then behaves exactly like a
    /// block-fading flat channel — what lets the cross-layer tests hold a
    /// serving cell's coded ticks to the per-vector references.
    ///
    /// # Panics
    /// Panics on zero subcarriers or a `sigma2` that is NaN, infinite or
    /// negative ([`FrameChannel::per_subcarrier`]).
    pub fn frozen(h: CMat, n_subcarriers: usize, sigma2: f64) -> Self {
        assert!(n_subcarriers > 0, "ChannelStream: zero subcarriers");
        let truth: Vec<GaussMarkovChannel> = (0..n_subcarriers)
            .map(|_| GaussMarkovChannel::frozen(h.clone()))
            .collect();
        let estimate = FrameChannel::per_subcarrier(vec![h; n_subcarriers], sigma2);
        ChannelStream {
            truth,
            estimate,
            refresh_period: 1,
            frames_elapsed: 0,
        }
    }

    /// The receiver-side channel state: feed this to
    /// [`FrameEngine::prepare`](crate::FrameEngine::prepare) after every
    /// [`ChannelStream::advance`] — only the refreshed subcarriers'
    /// generations moved, so only they re-prepare.
    pub fn estimate(&self) -> &FrameChannel {
        &self.estimate
    }

    /// The *true* current channel of one subcarrier (what the air applies;
    /// the receiver only knows its latest refreshed estimate).
    pub fn truth(&self, subcarrier: usize) -> &CMat {
        self.truth[subcarrier].current()
    }

    /// Number of data subcarriers.
    pub fn n_subcarriers(&self) -> usize {
        self.truth.len()
    }

    /// Ages every truth channel by one frame interval, then delivers fresh
    /// estimates for this frame's round-robin share of the band (bumping
    /// exactly those subcarriers' [`FrameChannel`] generations). Returns
    /// how many subcarriers were refreshed.
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        for t in &mut self.truth {
            t.step(rng);
        }
        self.frames_elapsed += 1;
        let due = (self.frames_elapsed as usize) % self.refresh_period;
        let mut refreshed = 0;
        for sc in 0..self.truth.len() {
            if sc % self.refresh_period == due {
                self.estimate
                    .update_subcarrier(sc, self.truth[sc].current());
                refreshed += 1;
            }
        }
        refreshed
    }

    /// Builds one received frame by passing the caller's transmitted
    /// vectors through the **truth** channels plus `CN(0, σ²)` noise:
    /// `tx(symbol, subcarrier)` supplies each grid cell's transmit vector.
    /// Detection then runs against the (possibly stale) estimates — the
    /// mismatch is the scenario. The owned-vector adapter over
    /// [`ChannelStream::transmit_frame_into`].
    pub fn transmit_frame<R, F>(&self, n_symbols: usize, mut tx: F, rng: &mut R) -> RxFrame
    where
        R: Rng + ?Sized,
        F: FnMut(usize, usize) -> Vec<Cx>,
    {
        self.transmit_frame_into(n_symbols, |sym, sc, x| x.copy_from_slice(&tx(sym, sc)), rng)
    }

    /// [`ChannelStream::transmit_frame`] with the transmit vector written
    /// in place: `tx(symbol, subcarrier, x)` fills each grid cell's `Nt`
    /// symbols into `x`. Up to [`INLINE_STREAMS`] antennas per side, `x`
    /// and the received vector are stack buffers, so building a frame
    /// allocates its plane and nothing else.
    pub fn transmit_frame_into<R, F>(&self, n_symbols: usize, mut tx: F, rng: &mut R) -> RxFrame
    where
        R: Rng + ?Sized,
        F: FnMut(usize, usize, &mut [Cx]),
    {
        let n_sc = self.truth.len();
        let sigma2 = self.estimate.sigma2();
        let (nr, nt) = (self.truth(0).rows(), self.truth(0).cols());
        let mut frame = RxFrame::empty(n_sc);
        frame.reserve(n_symbols * n_sc * nr);
        let mut stack = [[Cx::ZERO; INLINE_STREAMS]; 2];
        let mut heap = Vec::new();
        let (x, y) = if nt.max(nr) <= INLINE_STREAMS {
            let [x, y] = &mut stack;
            (&mut x[..nt], &mut y[..nr])
        } else {
            heap.resize(nt + nr, Cx::ZERO);
            heap.split_at_mut(nt)
        };
        // `H·x + n` lands in `y` and is appended to the frame's flat plane
        // — the products, the noise draws and their order are those of a
        // `mul_vec` per cell.
        for sym in 0..n_symbols {
            for (sc, truth) in self.truth.iter().enumerate() {
                tx(sym, sc, x);
                truth.current().mul_vec_into(x, y);
                for v in y.iter_mut() {
                    *v += rng.cx_normal(sigma2);
                }
                frame.push_vector(y);
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::FrameEngine;
    use flexcore_detect::MmseDetector;
    use flexcore_modulation::{Constellation, Modulation};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stream(n_sc: usize, rho: f64, period: usize, seed: u64) -> ChannelStream {
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        ChannelStream::new(&ens, n_sc, rho, period, 0.01, &mut rng)
    }

    #[test]
    fn staggered_refresh_covers_the_band_once_per_period() {
        let mut s = stream(8, 0.9, 4, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut refreshed_total = 0;
        let before: Vec<u64> = (0..8).map(|sc| s.estimate().generation(sc)).collect();
        for _ in 0..4 {
            refreshed_total += s.advance(&mut rng);
        }
        assert_eq!(refreshed_total, 8, "one full band sweep per period");
        for (sc, &b) in before.iter().enumerate() {
            assert!(
                s.estimate().generation(sc) > b,
                "subcarrier {sc} never refreshed"
            );
        }
    }

    #[test]
    fn engine_reprepares_exactly_the_refreshed_subcarriers() {
        let mut s = stream(12, 0.8, 3, 3);
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        assert_eq!(engine.prepare(s.estimate()), 12, "cold cache");
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..6 {
            let refreshed = s.advance(&mut rng);
            assert_eq!(refreshed, 4, "12 subcarriers / period 3");
            assert_eq!(
                engine.prepare(s.estimate()),
                refreshed,
                "cache must re-prepare only moved subcarriers"
            );
        }
    }

    #[test]
    fn non_divisible_band_refreshes_every_subcarrier_once_per_period() {
        // 7 subcarriers / period 3: the residue classes are uneven
        // ({0,3,6}, {1,4}, {2,5}), so per-frame refresh counts cannot be
        // equal — but every full 3-frame window must still cover each
        // subcarrier exactly once, with per-frame shares differing by ≤ 1.
        let mut s = stream(7, 0.9, 3, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for window in 0..4 {
            let before: Vec<u64> = (0..7).map(|sc| s.estimate().generation(sc)).collect();
            let counts: Vec<usize> = (0..3).map(|_| s.advance(&mut rng)).collect();
            assert_eq!(
                counts.iter().sum::<usize>(),
                7,
                "window {window}: one full band sweep per period, got {counts:?}"
            );
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "window {window}: refresh shares must differ by ≤ 1, got {counts:?}"
            );
            // Every subcarrier moved at least once; with exactly 7 updates
            // in the window, that is exactly once each.
            for (sc, &b) in before.iter().enumerate() {
                assert!(
                    s.estimate().generation(sc) > b,
                    "window {window}: subcarrier {sc} never refreshed"
                );
            }
        }
    }

    #[test]
    fn engine_tracks_uneven_refresh_shares_on_a_non_divisible_band() {
        // The cache contract from `engine_reprepares_exactly_the_refreshed
        // _subcarriers`, on a band the period does not divide: re-prepare
        // counts follow the uneven 2/2/3 cadence, never a rounded average.
        let mut s = stream(7, 0.8, 3, 9);
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        assert_eq!(engine.prepare(s.estimate()), 7, "cold cache");
        let mut rng = StdRng::seed_from_u64(10);
        for frame in 0..9 {
            let refreshed = s.advance(&mut rng);
            assert!(
                (2..=3).contains(&refreshed),
                "frame {frame}: 7 subcarriers / period 3 refreshes 2 or 3, got {refreshed}"
            );
            assert_eq!(
                engine.prepare(s.estimate()),
                refreshed,
                "frame {frame}: cache must re-prepare only moved subcarriers"
            );
        }
    }

    #[test]
    fn static_channel_keeps_estimates_exact() {
        let mut s = stream(6, 1.0, 2, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let h0: Vec<CMat> = (0..6).map(|sc| s.truth(sc).clone()).collect();
        for _ in 0..5 {
            s.advance(&mut rng);
        }
        for (sc, h) in h0.iter().enumerate() {
            assert_eq!(s.truth(sc), h, "rho=1 truth must not move");
            assert_eq!(s.estimate().h(sc), h, "estimate stays exact");
        }
    }

    #[test]
    fn estimates_go_stale_between_refreshes() {
        // Period 8 on 8 subcarriers: one refresh per frame. After one
        // advance, exactly one estimate matches its (moved) truth; the
        // others still hold the initial draw.
        let mut s = stream(8, 0.3, 8, 7);
        let initial: Vec<CMat> = (0..8).map(|sc| s.truth(sc).clone()).collect();
        let mut rng = StdRng::seed_from_u64(8);
        let refreshed = s.advance(&mut rng);
        assert_eq!(refreshed, 1);
        let mut fresh = 0;
        for (sc, init) in initial.iter().enumerate() {
            assert_ne!(s.truth(sc), init, "rho=0.3 truth must move");
            if s.estimate().h(sc) == s.truth(sc) {
                fresh += 1;
            } else {
                assert_eq!(s.estimate().h(sc), init, "stale = last refresh");
            }
        }
        assert_eq!(fresh, 1);
    }

    #[test]
    fn aged_subcarrier_lag1_autocorrelation_matches_doppler_mapping() {
        // The empirical lag-1 autocorrelation of one truth subcarrier under
        // advance() must track ρ = J₀(2π·f_D·Δt): E[h[t+1]·conj(h[t])] =
        // ρ·E[|h[t]|²] for the first-order Gauss–Markov recursion.
        for fd_dt in [0.02, 0.1] {
            let rho = flexcore_channel::GaussMarkovChannel::rho_from_doppler(fd_dt);
            let ens = ChannelEnsemble {
                user_snr_spread_db: 0.0,
                ..ChannelEnsemble::iid(4, 4)
            };
            let mut rng = StdRng::seed_from_u64(41);
            let mut s = ChannelStream::new(&ens, 2, rho, 2, 0.01, &mut rng);
            let mut num = 0.0f64;
            let mut den = 0.0f64;
            let mut prev: CMat = s.truth(0).clone();
            for _ in 0..600 {
                s.advance(&mut rng);
                let cur = s.truth(0);
                let prev_entries = (0..prev.rows()).flat_map(|r| prev.row(r));
                for (a, b) in (0..cur.rows()).flat_map(|r| cur.row(r)).zip(prev_entries) {
                    num += a.re * b.re + a.im * b.im; // Re(a·conj(b))
                    den += b.norm_sqr();
                }
                prev = cur.clone();
            }
            let empirical = num / den;
            assert!(
                (empirical - rho).abs() < 0.05,
                "fd_dt {fd_dt}: empirical lag-1 {empirical} vs rho {rho}"
            );
        }
    }

    #[test]
    fn refresh_period_one_resounds_the_whole_band_every_frame() {
        let mut s = stream(7, 0.6, 1, 31);
        let mut rng = StdRng::seed_from_u64(32);
        for frame in 0..4 {
            assert_eq!(s.advance(&mut rng), 7, "frame {frame}");
            for sc in 0..7 {
                assert_eq!(
                    s.estimate().h(sc),
                    s.truth(sc),
                    "frame {frame} sc {sc}: estimate must be fresh"
                );
            }
        }
    }

    #[test]
    fn single_subcarrier_stream_refreshes_on_schedule() {
        // n_subcarriers = 1 with period 3: the lone subcarrier refreshes
        // exactly on the frames where `frames_elapsed % 3 == 0` (its index,
        // 0, matches the round-robin slot), staying stale in between.
        let mut s = stream(1, 0.4, 3, 33);
        let mut rng = StdRng::seed_from_u64(34);
        let mut refreshed_frames = Vec::new();
        for frame in 1..=9u64 {
            if s.advance(&mut rng) == 1 {
                refreshed_frames.push(frame);
                assert_eq!(s.estimate().h(0), s.truth(0));
            }
        }
        assert_eq!(refreshed_frames, vec![3, 6, 9]);
        // And period 1 on one subcarrier never goes stale.
        let mut fresh = stream(1, 0.4, 1, 35);
        for _ in 0..5 {
            assert_eq!(fresh.advance(&mut rng), 1);
            assert_eq!(fresh.estimate().h(0), fresh.truth(0));
        }
    }

    #[test]
    fn frozen_stream_matches_flat_block_fading() {
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(36);
        let h = ens.draw(&mut rng);
        let mut s = ChannelStream::frozen(h.clone(), 5, 0.02);
        assert_eq!(s.n_subcarriers(), 5);
        for _ in 0..4 {
            s.advance(&mut rng);
            for sc in 0..5 {
                assert_eq!(s.truth(sc), &h);
                assert_eq!(s.estimate().h(sc), &h);
            }
        }
        assert_eq!(s.estimate().sigma2(), 0.02);
    }

    #[test]
    #[should_panic(expected = "sigma2 must be finite and >= 0: NaN")]
    fn a_stream_with_nan_noise_variance_is_rejected() {
        let ens = ChannelEnsemble::iid(4, 4);
        let mut rng = StdRng::seed_from_u64(37);
        let _ = ChannelStream::new(&ens, 3, 0.9, 1, f64::NAN, &mut rng);
    }

    #[test]
    #[should_panic(expected = "sigma2 must be finite and >= 0: -0.01")]
    fn a_frozen_stream_with_negative_noise_variance_is_rejected() {
        let _ = ChannelStream::frozen(CMat::from_fn(2, 2, |_, _| Cx::ZERO), 3, -0.01);
    }

    #[test]
    fn transmit_frame_applies_truth_channels() {
        // Near-zero noise: y must equal H_truth·x, not H_estimate·x.
        let ens = ChannelEnsemble::iid(4, 4);
        let mut quiet = ChannelStream::new(&ens, 3, 0.5, 1, 1e-30, &mut StdRng::seed_from_u64(9));
        let mut rng = StdRng::seed_from_u64(10);
        quiet.advance(&mut rng);
        let x = vec![
            Cx::new(1.0, 0.0),
            Cx::new(0.0, 1.0),
            Cx::new(-1.0, 0.5),
            Cx::ZERO,
        ];
        let frame = quiet.transmit_frame(2, |_, _| x.clone(), &mut rng);
        assert_eq!(frame.n_symbols(), 2);
        for sym in 0..2 {
            for sc in 0..3 {
                let want = quiet.truth(sc).mul_vec(&x);
                for (a, b) in frame.get(sym, sc).iter().zip(&want) {
                    assert!((*a - *b).abs() < 1e-9, "({sym},{sc})");
                }
            }
        }
    }

    #[test]
    fn in_place_transmit_equals_the_vec_adapter_on_stack_and_heap_widths() {
        // 4×4 runs in the stack buffers, 20×18 past them; both must draw
        // the same noise and land the same samples as the owned form.
        for (nr, nt) in [(4usize, 4usize), (20, 18)] {
            let mut rng = StdRng::seed_from_u64(11);
            let ens = ChannelEnsemble::iid(nr, nt);
            let s = ChannelStream::new(&ens, 5, 0.9, 2, 0.1, &mut rng);
            let x = |sym: usize, sc: usize, u: usize| Cx::new((sym + u) as f64, sc as f64 - 1.5);
            let owned = s.transmit_frame(
                3,
                |sym, sc| (0..nt).map(|u| x(sym, sc, u)).collect(),
                &mut StdRng::seed_from_u64(12),
            );
            let in_place = s.transmit_frame_into(
                3,
                |sym, sc, out| {
                    out.iter_mut()
                        .enumerate()
                        .for_each(|(u, v)| *v = x(sym, sc, u))
                },
                &mut StdRng::seed_from_u64(12),
            );
            for sym in 0..3 {
                for sc in 0..5 {
                    assert_eq!(owned.get(sym, sc), in_place.get(sym, sc), "{nr}x{nt}");
                    assert_eq!(in_place.get(sym, sc).len(), nr);
                }
            }
        }
    }
}
