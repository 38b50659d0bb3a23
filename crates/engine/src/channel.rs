//! Per-subcarrier channel state with generation counters.
//!
//! In a wideband OFDM system each data subcarrier sees its own narrowband
//! MIMO channel `H_sc`. Channel estimation updates arrive per subcarrier
//! (or per chunk of subcarriers); everything the detector pre-computed for
//! untouched subcarriers stays valid. [`FrameChannel`] tracks a
//! monotonically increasing *generation* per subcarrier so the
//! [`FrameEngine`](crate::FrameEngine) can re-run the paper's per-channel
//! pre-processing for exactly the subcarriers that changed.

use flexcore_numeric::CMat;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique [`FrameChannel`] identities. Generations are only
/// comparable within one channel instance; the id keeps a cache from
/// trusting generation numbers of an unrelated (e.g. freshly rebuilt)
/// channel object.
static NEXT_CHANNEL_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_channel_id() -> u64 {
    NEXT_CHANNEL_ID.fetch_add(1, Ordering::Relaxed)
}

/// Channel state for every data subcarrier of a frame, plus the noise
/// variance shared by all of them.
#[derive(Debug)]
pub struct FrameChannel {
    id: u64,
    hs: Vec<CMat>,
    generations: Vec<u64>,
    next_generation: u64,
    sigma2: f64,
}

impl Clone for FrameChannel {
    /// A clone is a *new channel instance*: it gets a fresh id so two
    /// diverging copies can never alias each other in an engine's
    /// preparation cache (their generation counters would collide).
    fn clone(&self) -> Self {
        FrameChannel {
            id: fresh_channel_id(),
            hs: self.hs.clone(),
            generations: self.generations.clone(),
            next_generation: self.next_generation,
            sigma2: self.sigma2,
        }
    }
}

impl FrameChannel {
    /// A frequency-selective channel: one matrix per subcarrier.
    ///
    /// # Panics
    /// Panics on zero subcarriers, or unless `sigma2` is finite and
    /// `≥ 0` (a NaN, infinite or negative variance makes every noise
    /// sample NaN, so every frame would be silently garbage).
    pub fn per_subcarrier(hs: Vec<CMat>, sigma2: f64) -> Self {
        assert!(!hs.is_empty(), "FrameChannel: zero subcarriers");
        assert!(
            sigma2.is_finite() && sigma2 >= 0.0,
            "FrameChannel: sigma2 must be finite and >= 0: {sigma2}"
        );
        let n = hs.len();
        FrameChannel {
            id: fresh_channel_id(),
            hs,
            generations: vec![1; n],
            next_generation: 2,
            sigma2,
        }
    }

    /// This channel instance's unique identity. Generations are only
    /// meaningful relative to one id; a rebuilt channel gets a fresh id so
    /// caches never confuse it with its predecessor.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of data subcarriers.
    pub fn n_subcarriers(&self) -> usize {
        self.hs.len()
    }

    /// Complex noise variance per receive antenna.
    pub fn sigma2(&self) -> f64 {
        self.sigma2
    }

    /// The channel matrix of one subcarrier.
    pub fn h(&self, subcarrier: usize) -> &CMat {
        &self.hs[subcarrier]
    }

    /// The current generation of one subcarrier (bumped on every update).
    pub(crate) fn generation(&self, subcarrier: usize) -> u64 {
        self.generations[subcarrier]
    }

    /// Replaces one subcarrier's channel (a narrowband estimation update)
    /// by copying `h` over the held matrix, so an update allocates
    /// nothing; only that subcarrier's generation is bumped.
    ///
    /// # Panics
    /// Panics unless `h` has the held matrix's shape.
    pub fn update_subcarrier(&mut self, subcarrier: usize, h: &CMat) {
        let held = &mut self.hs[subcarrier];
        assert!(
            (h.rows(), h.cols()) == (held.rows(), held.cols()),
            "FrameChannel: subcarrier {subcarrier} is {}x{}, the update {}x{}",
            held.rows(),
            held.cols(),
            h.rows(),
            h.cols()
        );
        held.clone_from(h);
        self.generations[subcarrier] = self.next_generation;
        self.next_generation += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_numeric::Cx;

    fn mat(v: f64) -> CMat {
        CMat::from_fn(
            2,
            2,
            |i, j| {
                if i == j {
                    Cx::real(v)
                } else {
                    Cx::real(0.0)
                }
            },
        )
    }

    fn uniform(n_subcarriers: usize) -> FrameChannel {
        FrameChannel::per_subcarrier(vec![mat(1.0); n_subcarriers], 0.1)
    }

    #[test]
    fn fresh_channel_starts_every_subcarrier_at_generation_one() {
        let ch = uniform(4);
        assert_eq!(ch.n_subcarriers(), 4);
        assert!((0..4).all(|sc| ch.generation(sc) == 1));
    }

    #[test]
    fn narrowband_update_bumps_one_generation() {
        let mut ch = uniform(4);
        ch.update_subcarrier(2, &mat(3.0));
        assert_eq!(ch.generation(2), 2);
        assert_eq!(ch.generation(0), 1);
        assert_eq!(ch.h(2)[(0, 0)].re, 3.0);
        assert_eq!(ch.h(0)[(0, 0)].re, 1.0);
    }

    #[test]
    #[should_panic(expected = "subcarrier 1 is 2x2, the update 3x2")]
    fn update_of_another_shape_is_rejected() {
        uniform(2).update_subcarrier(1, &CMat::from_fn(3, 2, |_, _| Cx::ZERO));
    }

    #[test]
    fn zero_noise_variance_is_legal() {
        assert_eq!(
            FrameChannel::per_subcarrier(vec![mat(1.0)], 0.0).sigma2(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "sigma2 must be finite and >= 0: NaN")]
    fn nan_noise_variance_is_rejected() {
        let _ = FrameChannel::per_subcarrier(vec![mat(1.0)], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "sigma2 must be finite and >= 0: inf")]
    fn infinite_noise_variance_is_rejected() {
        let _ = FrameChannel::per_subcarrier(vec![mat(1.0)], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "sigma2 must be finite and >= 0: -0.1")]
    fn negative_noise_variance_is_rejected() {
        let _ = FrameChannel::per_subcarrier(vec![mat(1.0)], -0.1);
    }

    #[test]
    fn clone_gets_a_fresh_identity() {
        // Diverging clones share generation numbers; only a fresh id keeps
        // an engine's cache from confusing them.
        let a = uniform(2);
        let b = a.clone();
        assert_ne!(a.id(), b.id());
        assert_eq!(b.h(0)[(0, 0)].re, 1.0);
        assert_eq!(b.generation(0), a.generation(0));
    }
}
