//! Cross-crate integration tests: the full coded OFDM-MIMO uplink through
//! every detector family.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{FcsdDetector, MmseDetector, SicDetector, SphereDecoder};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_phy::link::{simulate_packet, LinkConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs one packet through a detector at the given SNR and returns the
/// per-user success flags.
fn one_packet(
    det: &mut dyn Detector,
    modulation: Modulation,
    nt: usize,
    snr: f64,
    seed: u64,
) -> Vec<bool> {
    let c = Constellation::new(modulation);
    let link = LinkConfig::paper_default(c, 40);
    let mut rng = StdRng::seed_from_u64(seed);
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let ch = MimoChannel::new(h.clone(), snr);
    det.prepare(&h, sigma2_from_snr_db(snr));
    simulate_packet(&link, &ch, det, &mut rng).user_ok
}

#[test]
fn every_detector_delivers_clean_packets_at_high_snr() {
    let nt = 4;
    let snr = 40.0;
    let m = Modulation::Qam16;
    let c = Constellation::new(m);
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(MmseDetector::new(c.clone())),
        Box::new(SicDetector::new(c.clone())),
        Box::new(SphereDecoder::new(c.clone())),
        Box::new(FcsdDetector::new(c.clone(), 1)),
        Box::new(FlexCoreDetector::with_pes(c.clone(), 16)),
        Box::new(FlexCoreDetector::adaptive(c.clone(), 16, 0.95)),
    ];
    for det in detectors.iter_mut() {
        let ok = one_packet(det.as_mut(), m, nt, snr, 1);
        assert!(
            ok.iter().all(|&k| k),
            "{} dropped packets at 40 dB: {ok:?}",
            det.name()
        );
    }
}

#[test]
fn flexcore_beats_mmse_on_packets_at_operating_snr() {
    let nt = 8;
    let snr = 14.0;
    let m = Modulation::Qam16;
    let c = Constellation::new(m);
    let mut fc = FlexCoreDetector::with_pes(c.clone(), 32);
    let mut mmse = MmseDetector::new(c);
    let mut fc_ok = 0usize;
    let mut mmse_ok = 0usize;
    for seed in 0..12 {
        fc_ok += one_packet(&mut fc, m, nt, snr, seed)
            .iter()
            .filter(|&&k| k)
            .count();
        mmse_ok += one_packet(&mut mmse, m, nt, snr, seed)
            .iter()
            .filter(|&&k| k)
            .count();
    }
    assert!(
        fc_ok > mmse_ok,
        "FlexCore delivered {fc_ok}/96 vs MMSE {mmse_ok}/96"
    );
}

#[test]
fn flexcore_tracks_ml_on_packets() {
    let nt = 6;
    let snr = 15.0;
    let m = Modulation::Qam16;
    let c = Constellation::new(m);
    let mut fc = FlexCoreDetector::with_pes(c.clone(), 64);
    let mut ml = SphereDecoder::new(c);
    let mut fc_ok = 0usize;
    let mut ml_ok = 0usize;
    for seed in 100..112 {
        fc_ok += one_packet(&mut fc, m, nt, snr, seed)
            .iter()
            .filter(|&&k| k)
            .count();
        ml_ok += one_packet(&mut ml, m, nt, snr, seed)
            .iter()
            .filter(|&&k| k)
            .count();
    }
    assert!(
        fc_ok as f64 >= 0.9 * ml_ok as f64,
        "FlexCore-64 {fc_ok} vs ML {ml_ok} delivered users"
    );
}

#[test]
fn bpsk_and_qpsk_links_work() {
    // Exercise the non-square-QAM paths end to end.
    for m in [Modulation::Bpsk, Modulation::Qpsk] {
        let c = Constellation::new(m);
        let mut det = FlexCoreDetector::with_pes(c, 4);
        let ok = one_packet(&mut det, m, 4, 30.0, 3);
        assert!(ok.iter().all(|&k| k), "{m:?} packet failed");
    }
}

#[test]
fn detectors_share_identical_interfaces() {
    // The object-safe Detector trait lets the harness treat all schemes
    // uniformly — verify dynamic dispatch works for a mixed pool.
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(9);
    let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
    let detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(MmseDetector::new(c.clone())),
        Box::new(FlexCoreDetector::with_pes(c.clone(), 8)),
        Box::new(SphereDecoder::new(c.clone())),
    ];
    for mut det in detectors {
        det.prepare(&h, 0.01);
        let y = vec![flexcore_numeric::Cx::real(1.0); 4];
        let out = det.detect(&y);
        assert_eq!(out.len(), 4, "{}", det.name());
        assert!(out.iter().all(|&s| s < 16));
    }
}
