//! Edge-case and robustness integration tests.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{FcsdDetector, MmseDetector, SicDetector, SphereDecoder};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn qam256_detection_works() {
    // The densest constellation the workspace supports, where the paper
    // notes pre-processing latency matters most (§3.1.1).
    let c = Constellation::new(Modulation::Qam256);
    let mut rng = StdRng::seed_from_u64(1);
    let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 64);
    det.prepare(&h, sigma2_from_snr_db(35.0));
    for _ in 0..10 {
        let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..256)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let ch = MimoChannel::new(h.clone(), 35.0);
        let y = ch.transmit(&x, &mut rng);
        let got = det.detect(&y);
        assert_eq!(got.len(), 4);
        // At 35 dB, 256-QAM detection should be essentially error-free.
        assert_eq!(got, s);
    }
}

#[test]
fn extreme_noise_never_panics() {
    // At 1000% noise every detector must still return a well-formed
    // answer (garbage in, well-typed garbage out).
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(2);
    let h = ChannelEnsemble::iid(6, 6).draw(&mut rng);
    let snr = -20.0;
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(FlexCoreDetector::with_pes(c.clone(), 16)),
        Box::new(SphereDecoder::new(c.clone())),
        Box::new(FcsdDetector::new(c.clone(), 1)),
        Box::new(SicDetector::new(c.clone())),
        Box::new(MmseDetector::new(c.clone())),
    ];
    let ch = MimoChannel::new(h.clone(), snr);
    for det in detectors.iter_mut() {
        det.prepare(&h, sigma2_from_snr_db(snr));
        let s = [0usize; 6];
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = ch.transmit(&x, &mut rng);
        let out = det.detect(&y);
        assert_eq!(out.len(), 6, "{}", det.name());
        assert!(out.iter().all(|&v| v < 16), "{}", det.name());
    }
}

#[test]
fn near_singular_channel_is_handled() {
    // Two nearly-identical user columns: the worst conditioning FlexCore
    // can face short of exact rank deficiency. On some draws the second
    // column's SQRD residual rounds to exactly zero and leaves
    // `R(1,1) = 0` (seed 1720 of this sweep; seed 345 with polar draws),
    // so every draw must come back well-formed from both detect paths,
    // and the two must agree.
    //
    // Which draws confuse the ill-conditioned pair is luck, so one draw
    // says nothing about the detector: the other four streams collapse
    // (fewer than 2 of 4 right) at a bounded rate instead. Measured on
    // these 2 000 seeds: 32.4 % with Box–Muller draws (where the bound was
    // set), 32.5 % with polar ones, 32.2 % with ziggurat ones; one
    // standard error is 1.0 point.
    const DRAWS: u64 = 2000;
    const MAX_COLLAPSE_RATE: f64 = 0.38;
    let c = Constellation::new(Modulation::Qam16);
    let mut collapsed = 0;
    for seed in 0..DRAWS {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut h = ChannelEnsemble::iid(6, 6).draw(&mut rng);
        for r in 0..6 {
            let v = h[(r, 0)];
            h[(r, 1)] = v + v.scale(1e-4); // almost collinear
        }
        let mut det = FlexCoreDetector::with_pes(c.clone(), 32);
        det.prepare(&h, sigma2_from_snr_db(20.0));
        let s: Vec<usize> = (0..6).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let ch = MimoChannel::new(h, 20.0);
        let y = ch.transmit(&x, &mut rng);
        let out = det.detect(&y);
        assert_eq!(out.len(), 6, "seed {seed}");
        let mut plane = [0u16; 6];
        det.detect_batch_into(&[&y], &mut plane);
        assert_eq!(plane.map(usize::from).to_vec(), out, "seed {seed}");
        if (2..6).filter(|&i| out[i] == s[i]).count() < 2 {
            collapsed += 1;
        }
    }
    let rate = collapsed as f64 / DRAWS as f64;
    assert!(
        rate < MAX_COLLAPSE_RATE,
        "well-conditioned streams collapsed on {collapsed} of {DRAWS} draws"
    );
}

#[test]
fn tall_channel_more_antennas_than_users() {
    // Receive diversity (Nr > Nt) must work across the stack.
    let c = Constellation::new(Modulation::Qam64);
    let mut rng = StdRng::seed_from_u64(4);
    let h = ChannelEnsemble::iid(12, 4).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 8);
    det.prepare(&h, sigma2_from_snr_db(18.0));
    let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..64)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    let ch = MimoChannel::new(h, 18.0);
    let y = ch.transmit(&x, &mut rng);
    assert_eq!(det.detect(&y), s, "12x4 has enormous diversity at 18 dB");
}

#[test]
fn single_user_degenerates_to_slicing() {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(5);
    let h = ChannelEnsemble::iid(4, 1).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 4);
    det.prepare(&h, sigma2_from_snr_db(15.0));
    let s = vec![7usize];
    let x = vec![c.point(7)];
    let ch = MimoChannel::new(h, 15.0);
    let y = ch.transmit(&x, &mut rng);
    assert_eq!(det.detect(&y), s);
}

#[test]
fn repeated_prepare_is_idempotent() {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(6);
    let h = ChannelEnsemble::iid(4, 4).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 16);
    det.prepare(&h, 0.05);
    let paths1 = det.position_vectors().to_vec();
    let s: Vec<usize> = (0..4).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    let ch = MimoChannel::new(h.clone(), 15.0);
    let y = ch.transmit(&x, &mut rng);
    let out1 = det.detect(&y);
    det.prepare(&h, 0.05);
    assert_eq!(det.position_vectors(), paths1);
    assert_eq!(det.detect(&y), out1);
}

#[test]
fn detection_works_at_the_exact_inline_capacity() {
    // nt = 16, the widest channel the seed's fixed `[u16; 16]` store
    // held: noiseless recovery must be exact.
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(16);
    let h = ChannelEnsemble::iid(16, 16).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 8);
    det.prepare(&h, 1e-9);
    let s: Vec<usize> = (0..16).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    assert_eq!(det.detect(&h.mul_vec(&x)), s);
}

#[test]
fn detection_works_at_the_first_spilled_width() {
    // nt = 17: one past the seed's fixed store — the first channel the
    // seed-era prepare() rejected outright.
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(17);
    let h = ChannelEnsemble::iid(17, 17).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 8);
    det.prepare(&h, 1e-9);
    let s: Vec<usize> = (0..17).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    assert_eq!(det.detect(&h.mul_vec(&x)), s);
}

#[test]
fn detection_works_at_64_streams() {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(64);
    let h = ChannelEnsemble::iid(64, 64).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(c.clone(), 8);
    det.prepare(&h, 1e-9);
    let s: Vec<usize> = (0..64).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    assert_eq!(det.detect(&h.mul_vec(&x)), s);
}

#[test]
fn one_detector_instance_crosses_the_spill_boundary_both_ways() {
    // The same detector (and thus the same scratch discipline) re-prepared
    // narrow → wide → narrow: results must match a fresh instance at every
    // step, i.e. no state from a wider channel may leak into a narrower one.
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(8);
    let mut reused = FlexCoreDetector::with_pes(c.clone(), 12);
    for nt in [4usize, 32, 6, 20, 4] {
        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
        let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let ch = MimoChannel::new(h.clone(), 25.0);
        let y = ch.transmit(&x, &mut rng);
        reused.prepare(&h, sigma2_from_snr_db(25.0));
        let mut fresh = FlexCoreDetector::with_pes(c.clone(), 12);
        fresh.prepare(&h, sigma2_from_snr_db(25.0));
        assert_eq!(reused.detect(&y), fresh.detect(&y), "nt={nt}");
        // The shared-scratch batch path crosses the boundary too.
        let ys = [y.as_slice()];
        assert_eq!(
            reused.detect_batch_refs(&ys),
            fresh.detect_batch_refs(&ys),
            "batch nt={nt}"
        );
    }
}
