//! SNR operating-point calibration and SER sweeps.
//!
//! §5.1: "the examined SNR is such that an ML decoder reaches approximately
//! the practical packet error rates of 0.1 and 0.01". This module finds
//! those SNRs for *our* substrate (synthetic channels, configurable packet
//! sizes) by bisection on the monotone PER(SNR) curve of the exact-ML
//! sphere decoder, and provides the uncoded symbol-vector-error sweeps the
//! algorithmic comparisons are built on.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::SphereDecoder;
use flexcore_modulation::Constellation;
use flexcore_numeric::Cx;
use flexcore_phy::link::{packet_error_rate, LinkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Vector error rate (fraction of received MIMO vectors detected with at
/// least one wrong symbol) of a detector at the given SNR.
///
/// This is the uncoded proxy for PER: one vector error typically produces
/// a burst the convolutional code cannot absorb, so VER tracks PER closely
/// while being orders of magnitude cheaper to estimate. A channel's
/// vectors are all transmitted first (detection draws no randomness), then
/// detected in one [`Detector::detect_batch_into`] call.
pub(crate) fn vector_error_rate(
    det: &mut dyn Detector,
    ens: &ChannelEnsemble,
    constellation: &Constellation,
    snr_db: f64,
    n_channels: usize,
    vectors_per_channel: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let nt = ens.nt;
    let q = constellation.order();
    let mut errs = 0usize;
    let (mut sent, mut plane) = (Vec::new(), vec![0u16; vectors_per_channel * nt]);
    // One channel's received vectors back to back, one transmit vector,
    // and the vector slices' buffer (empty between channels, so it borrows
    // nothing across them).
    let (mut ys, mut x) = (
        vec![Cx::ZERO; vectors_per_channel * ens.nr],
        vec![Cx::ZERO; nt],
    );
    let mut spare: Vec<&'static [Cx]> = Vec::new();
    for _ in 0..n_channels {
        let ch = MimoChannel::new(ens.draw(&mut rng), snr_db);
        det.prepare(&ch.h, sigma2_from_snr_db(snr_db));
        sent.clear();
        for y in ys.chunks_exact_mut(ens.nr) {
            for x in &mut x {
                let i = rng.gen_range(0..q);
                sent.push(i as u16);
                *x = constellation.point(i);
            }
            ch.transmit_into(&x, &mut rng, y);
        }
        let mut refs: Vec<&[Cx]> = std::mem::take(&mut spare);
        refs.extend(ys.chunks_exact(ens.nr));
        det.detect_batch_into(&refs, &mut plane);
        // Emptied, back to `'static` by a collect that keeps the buffer.
        refs.clear();
        spare = refs.into_iter().map(|_| &[][..]).collect();
        errs += plane
            .chunks_exact(nt)
            .zip(sent.chunks_exact(nt))
            .filter(|(got, want)| got != want)
            .count();
    }
    errs as f64 / (n_channels * vectors_per_channel) as f64
}

/// Finds the SNR (dB) at which `det` reaches the target vector error rate,
/// via bisection over `[lo, hi]`. The curve is monotone decreasing in SNR.
#[allow(clippy::too_many_arguments)]
pub(crate) fn calibrate_snr_for_ver(
    det: &mut dyn Detector,
    ens: &ChannelEnsemble,
    constellation: &Constellation,
    target_ver: f64,
    lo_db: f64,
    hi_db: f64,
    samples: usize,
    seed: u64,
) -> f64 {
    let (mut lo, mut hi) = (lo_db, hi_db);
    for _ in 0..12 {
        let mid = 0.5 * (lo + hi);
        let ver = vector_error_rate(det, ens, constellation, mid, samples, 8, seed);
        if ver > target_ver {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Finds the SNR at which (near-)ML detection reaches the target *coded
/// packet* error rate — the paper's PER_ML operating points.
///
/// Below the operating point a depth-first sphere decoder's complexity
/// explodes (Table 1's own message), which would make bisection
/// intractable at the low edge of the bracket. We therefore use a
/// fixed-complexity **ML proxy**: FlexCore with a large path budget, which
/// Fig. 9 shows sitting on the ML bound in the PER regimes of interest.
/// The exact sphere decoder (`SphereDecoder`) verifies the proxy at the
/// found point in the `calibrate` binary's full mode.
pub fn calibrate_snr_for_ml_per(
    cfg: &LinkConfig,
    ens: &ChannelEnsemble,
    target_per: f64,
    lo_db: f64,
    hi_db: f64,
    n_packets: usize,
    seed: u64,
) -> f64 {
    let proxy_paths = 96 * cfg.constellation.order() / 16; // 96 @16-QAM, 384 @64-QAM
    let mut det = FlexCoreDetector::with_pes(cfg.constellation.clone(), proxy_paths);
    let (mut lo, mut hi) = (lo_db, hi_db);
    for _ in 0..8 {
        let mid = 0.5 * (lo + hi);
        let mut rng = StdRng::seed_from_u64(seed);
        let (per, _) = packet_error_rate(
            cfg,
            &mut det,
            n_packets,
            sigma2_from_snr_db(mid),
            |r| MimoChannel::new(ens.draw(r), mid),
            &mut rng,
        );
        if per > target_per {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Measures the exact-ML sphere decoder's PER at a given SNR (used to
/// verify the proxy-calibrated operating points).
pub fn ml_per_at(
    cfg: &LinkConfig,
    ens: &ChannelEnsemble,
    snr_db: f64,
    n_packets: usize,
    seed: u64,
) -> f64 {
    let mut det = SphereDecoder::new(cfg.constellation.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    packet_error_rate(
        cfg,
        &mut det,
        n_packets,
        sigma2_from_snr_db(snr_db),
        |r| MimoChannel::new(ens.draw(r), snr_db),
        &mut rng,
    )
    .0
}

/// Cached operating points: SNRs at which our substrate's ML detector
/// reaches the paper's PER targets (pre-computed with
/// `calibrate_snr_for_ml_per`; regenerate with
/// `cargo run -p flexcore-sim --bin calibrate`).
///
/// Keyed by `(nt, |Q|, per_target)`. The paper's WARP measurements quote
/// 13.5 dB (16-QAM 12×12, PER 0.1) and 21.6 dB (64-QAM 12×12, PER 0.01);
/// our synthetic i.i.d. Rayleigh channels with short packets reach the
/// same PER targets at lower SNRs (more diversity, no hardware
/// impairments, 120-byte packets instead of 500 kB) — the shape of every
/// comparison is what carries over (README, "Faithfulness and
/// substitutions").
pub fn operating_point_snr_db(nt: usize, q: usize, per_target: f64) -> f64 {
    // (nt, q, per) → snr. Values from `cargo run -p flexcore-sim --bin
    // calibrate -- --quick` (seed 7, 12-packet bisection, 120-byte
    // packets, FlexCore ML proxy).
    const POINTS: &[(usize, usize, f64, f64)] = &[
        (8, 16, 0.1, 7.5),
        (8, 16, 0.01, 8.6),
        (8, 64, 0.1, 14.9),
        (8, 64, 0.01, 15.6),
        (12, 16, 0.1, 6.3),
        (12, 16, 0.01, 6.9),
        (12, 64, 0.1, 14.1),
        (12, 64, 0.01, 17.0),
    ];
    for &(n, qq, p, snr) in POINTS {
        if n == nt && qq == q && (p - per_target).abs() < 1e-9 {
            return snr;
        }
    }
    // flexcore-lint: allow(FL004, reason = "misconfiguration trap: an uncalibrated operating point must fail loudly with the re-run instruction, not return a silently wrong SNR")
    panic!("no cached operating point for ({nt}, {q}, {per_target}); run the calibrate binary");
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_detect::MmseDetector;
    use flexcore_modulation::Modulation;

    #[test]
    fn ver_decreases_with_snr() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut det = MmseDetector::new(c.clone());
        let lo = vector_error_rate(&mut det, &ens, &c, 8.0, 30, 6, 1);
        let hi = vector_error_rate(&mut det, &ens, &c, 25.0, 30, 6, 1);
        assert!(hi < lo, "VER at 25 dB ({hi}) vs 8 dB ({lo})");
    }

    #[test]
    fn vector_error_rate_equals_a_per_vector_detect_count() {
        // The batch path against one `detect` per vector, same draws, on
        // detectors with a batch kernel of their own.
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(4, 4);
        let (snr, n_channels, per_channel, seed) = (10.0, 12, 5, 3);
        let detectors: [Box<dyn Detector>; 2] = [
            Box::new(FlexCoreDetector::with_pes(c.clone(), 16)),
            Box::new(MmseDetector::new(c.clone())),
        ];
        for mut det in detectors {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut errs = 0usize;
            for _ in 0..n_channels {
                let ch = MimoChannel::new(ens.draw(&mut rng), snr);
                det.prepare(&ch.h, sigma2_from_snr_db(snr));
                for _ in 0..per_channel {
                    let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
                    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                    errs += usize::from(det.detect(&ch.transmit(&x, &mut rng)) != s);
                }
            }
            assert!(errs > 0, "{}: no vector error at {snr} dB", det.name());
            let want = errs as f64 / (n_channels * per_channel) as f64;
            let got = vector_error_rate(det.as_mut(), &ens, &c, snr, n_channels, per_channel, seed);
            assert_eq!(got, want, "{}", det.name());
        }
    }

    #[test]
    fn calibration_hits_target() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(4, 4);
        let mut det = SphereDecoder::new(c.clone());
        let snr = calibrate_snr_for_ver(&mut det, &ens, &c, 0.1, 0.0, 30.0, 20, 2);
        // Re-measure at the calibrated point with a different seed.
        let ver = vector_error_rate(&mut det, &ens, &c, snr, 60, 8, 99);
        assert!(
            (0.03..0.3).contains(&ver),
            "VER at calibrated SNR {snr} dB is {ver}, want ≈0.1"
        );
    }

    #[test]
    fn cached_points_cover_paper_scenarios() {
        // All eight (Nt, |Q|, PER) combinations of Fig. 9 must resolve.
        for nt in [8usize, 12] {
            for q in [16usize, 64] {
                for per in [0.1, 0.01] {
                    let snr = operating_point_snr_db(nt, q, per);
                    assert!((2.0..35.0).contains(&snr));
                }
            }
        }
        // Ordering sanity: tighter PER targets need more SNR, and denser
        // constellations need more SNR.
        for nt in [8usize, 12] {
            for q in [16usize, 64] {
                assert!(operating_point_snr_db(nt, q, 0.01) >= operating_point_snr_db(nt, q, 0.1));
            }
            assert!(operating_point_snr_db(nt, 64, 0.1) > operating_point_snr_db(nt, 16, 0.1));
        }
    }

    #[test]
    #[should_panic(expected = "no cached operating point")]
    fn unknown_point_panics() {
        operating_point_snr_db(3, 4, 0.5);
    }
}
