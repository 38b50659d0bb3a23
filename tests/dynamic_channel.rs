//! Dynamic-channel integration test: §3.1's point that pre-processing
//! must be re-run when the channel changes.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Measures FlexCore's vector error rate over an evolving channel, with
/// pre-processing either refreshed every step or frozen at step 0.
fn ver_over_drift(refresh: bool, rho: f64, seed: u64) -> f64 {
    let c = Constellation::new(Modulation::Qam16);
    let snr = 10.0;
    let sigma2 = sigma2_from_snr_db(snr);
    let ens = ChannelEnsemble::iid(8, 8);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chan = GaussMarkovChannel::new(&ens, rho, &mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 24);
    det.prepare(chan.current(), sigma2);
    let (mut errs, mut total) = (0usize, 0usize);
    for _ in 0..40 {
        for _ in 0..5 {
            chan.step(&mut rng);
        }
        if refresh {
            det.prepare(chan.current(), sigma2);
        }
        let link = MimoChannel::new(chan.current().clone(), snr);
        for _ in 0..6 {
            let s: Vec<usize> = (0..8).map(|_| rng.gen_range(0..16)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let y = link.transmit(&x, &mut rng);
            if det.detect(&y) != s {
                errs += 1;
            }
            total += 1;
        }
    }
    errs as f64 / total as f64
}

#[test]
fn stale_preprocessing_costs_accuracy() {
    // With user mobility (rho < 1), frozen pre-processing (and a frozen QR!)
    // collapses; refreshing both per §3.1 keeps FlexCore near its static
    // performance.
    let fresh = ver_over_drift(true, 0.97, 42);
    let stale = ver_over_drift(false, 0.97, 42);
    assert!(
        stale > 3.0 * fresh.max(0.01),
        "stale VER {stale} should be far worse than refreshed VER {fresh}"
    );
}

#[test]
fn static_channel_needs_no_refresh() {
    let fresh = ver_over_drift(true, 1.0, 43);
    let stale = ver_over_drift(false, 1.0, 43);
    assert!(
        (fresh - stale).abs() < 0.05,
        "static channel: refresh should not matter ({fresh} vs {stale})"
    );
}

#[test]
fn slow_fading_degrades_gracefully() {
    // Very slow fading (rho → 1) should hurt a frozen detector less than
    // fast fading — the knob that sets how often pre-processing must run.
    let slow = ver_over_drift(false, 0.999, 44);
    let fast = ver_over_drift(false, 0.9, 44);
    assert!(
        fast > slow,
        "faster fading must hurt more: fast {fast} vs slow {slow}"
    );
}
