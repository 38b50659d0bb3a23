//! Cross-detector consistency: exact schemes must agree with each other;
//! approximate schemes must converge to them as their budgets grow.

use flexcore::{FlexCoreConfig, FlexCoreDetector, PathOrdering};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{
    FcsdDetector, MlDetector, MmseDetector, ParallelSicDetector, SicDetector, SphereDecoder,
};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct World {
    c: Constellation,
    ch: MimoChannel,
    rng: StdRng,
}

impl World {
    fn new(m: Modulation, nt: usize, snr: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
        World {
            c: Constellation::new(m),
            ch: MimoChannel::new(h, snr),
            rng,
        }
    }

    fn observe(&mut self) -> (Vec<usize>, Vec<Cx>) {
        let nt = self.ch.nt();
        let q = self.c.order();
        let s: Vec<usize> = (0..nt).map(|_| self.rng.gen_range(0..q)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| self.c.point(i)).collect();
        let y = self.ch.transmit(&x, &mut self.rng);
        (s, y)
    }
}

#[test]
fn sphere_decoder_equals_brute_force_ml_qpsk_4x4() {
    let mut w = World::new(Modulation::Qpsk, 4, 8.0, 1);
    let sigma2 = sigma2_from_snr_db(8.0);
    let mut sd = SphereDecoder::new(w.c.clone());
    let mut ml = MlDetector::new(w.c.clone());
    sd.prepare(&w.ch.h, sigma2);
    ml.prepare(&w.ch.h, sigma2);
    for _ in 0..50 {
        let (_, y) = w.observe();
        assert_eq!(sd.detect(&y), ml.detect(&y));
    }
}

#[test]
fn flexcore_converges_to_ml_as_pes_grow() {
    let sigma2 = sigma2_from_snr_db(10.0);
    let mut ml = MlDetector::new(Constellation::new(Modulation::Qpsk));
    let mut agreement = Vec::new();
    for n_pe in [1usize, 8, 64] {
        let mut w = World::new(Modulation::Qpsk, 3, 10.0, 3);
        let mut fc = FlexCoreDetector::with_pes(w.c.clone(), n_pe);
        fc.prepare(&w.ch.h, sigma2);
        ml.prepare(&w.ch.h, sigma2);
        let mut agree = 0;
        for _ in 0..80 {
            let (_, y) = w.observe();
            if fc.detect(&y) == ml.detect(&y) {
                agree += 1;
            }
        }
        agreement.push(agree);
    }
    assert!(agreement[1] >= agreement[0]);
    assert!(agreement[2] >= agreement[1]);
    assert!(
        agreement[2] >= 76,
        "64-PE FlexCore should nearly match ML: {agreement:?}"
    );
}

#[test]
fn exact_flexcore_at_full_budget_equals_ml_on_every_vector() {
    // Ground truth: with the exact per-level ordering and one PE per
    // position vector (N_PE = |Q|^nt) FlexCore selects every tree path,
    // so the bounded block walk must return the exhaustive-ML decision
    // on every vector, per vector (the scalar walk) and in batch (the
    // block walk). (The default `TriangleLut` ordering does not promise this:
    // its approximate ranks can miss a leaf even at the full budget.)
    for (m, nt) in [
        (Modulation::Qpsk, 2),
        (Modulation::Qpsk, 3),
        (Modulation::Qpsk, 4),
        (Modulation::Qam16, 2),
    ] {
        for (k, snr) in [0.0, 5.0, 10.0, 15.0, 20.0].into_iter().enumerate() {
            for trial in 0..4u64 {
                let mut w = World::new(m, nt, snr, 100 * k as u64 + trial);
                let sigma2 = sigma2_from_snr_db(snr);
                let n_pe = w.c.order().pow(nt as u32);
                let mut cfg = FlexCoreConfig::new(n_pe);
                cfg.path_ordering = PathOrdering::Exact;
                let mut fc = FlexCoreDetector::new(w.c.clone(), cfg);
                let mut ml = MlDetector::new(w.c.clone());
                fc.prepare(&w.ch.h, sigma2);
                ml.prepare(&w.ch.h, sigma2);
                let ys: Vec<Vec<Cx>> = (0..80).map(|_| w.observe().1).collect();
                let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
                let mut plane = vec![0u16; ys.len() * nt];
                fc.detect_batch_into(&refs, &mut plane);
                for (y, row) in ys.iter().zip(plane.chunks(nt)) {
                    let want = ml.detect(y);
                    let tag = format!("{m:?} nt {nt} {snr} dB trial {trial}");
                    assert_eq!(fc.detect(y), want, "detect: {tag}");
                    let batch: Vec<usize> = row.iter().map(|&s| usize::from(s)).collect();
                    assert_eq!(batch, want, "detect_batch_into: {tag}");
                }
            }
        }
    }
}

#[test]
fn fcsd_paths_are_a_subset_semantics_check() {
    // FCSD L=Nt is exhaustive → equals ML on a tiny system.
    let mut w = World::new(Modulation::Qpsk, 2, 6.0, 4);
    let sigma2 = sigma2_from_snr_db(6.0);
    let mut fcsd = FcsdDetector::new(w.c.clone(), 2);
    let mut ml = MlDetector::new(w.c.clone());
    fcsd.prepare(&w.ch.h, sigma2);
    ml.prepare(&w.ch.h, sigma2);
    assert_eq!(fcsd.paths(), 16);
    for _ in 0..40 {
        let (_, y) = w.observe();
        assert_eq!(fcsd.detect(&y), ml.detect(&y));
    }
}

#[test]
fn lut_and_exact_flexcore_agree_at_high_snr() {
    let snr = 30.0;
    let sigma2 = sigma2_from_snr_db(snr);
    let mut w = World::new(Modulation::Qam16, 6, snr, 5);
    let mk = |ord| {
        let mut cfg = FlexCoreConfig::new(16);
        cfg.path_ordering = ord;
        let mut d = FlexCoreDetector::new(w.c.clone(), cfg);
        d.prepare(&w.ch.h, sigma2);
        d
    };
    let lut = mk(PathOrdering::TriangleLut);
    let exact = mk(PathOrdering::Exact);
    let mut agree = 0;
    for _ in 0..100 {
        let (_, y) = w.observe();
        if lut.detect(&y) == exact.detect(&y) {
            agree += 1;
        }
    }
    assert!(agree >= 97, "LUT vs exact agreement {agree}/100");
}

#[test]
fn detect_batch_is_bit_identical_to_repeated_detect_for_every_detector() {
    // The batch API's contract: whatever a detector does internally,
    // `detect_batch_refs(ys)` must equal `ys.iter().map(detect)` bit for
    // bit. Exercised for every scheme in the workspace so every override
    // (and the trait default) is held to the contract.
    let m = Modulation::Qam16;
    let c = Constellation::new(m);
    let snr = 13.0;
    let sigma2 = sigma2_from_snr_db(snr);
    let mut w = World::new(m, 4, snr, 42);
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(MlDetector::new(c.clone())),
        Box::new(SphereDecoder::new(c.clone())),
        Box::new(MmseDetector::new(c.clone())),
        Box::new(SicDetector::new(c.clone())),
        Box::new(ParallelSicDetector::new(c.clone())),
        Box::new(FcsdDetector::new(c.clone(), 1)),
        Box::new(FlexCoreDetector::with_pes(c.clone(), 12)),
        Box::new(FlexCoreDetector::adaptive(c.clone(), 64, 0.95)),
    ];
    let ys: Vec<Vec<Cx>> = (0..17).map(|_| w.observe().1).collect();
    for det in detectors.iter_mut() {
        det.prepare(&w.ch.h, sigma2);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let batched = det.detect_batch_refs(&refs);
        let repeated: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
        assert_eq!(batched, repeated, "{}", det.name());
        // Empty batches are legal and empty.
        assert!(det.detect_batch_refs(&[]).is_empty(), "{}", det.name());
    }
}

#[test]
fn all_detectors_recover_noiseless_transmissions() {
    let m = Modulation::Qam16;
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(6);
    let h = ChannelEnsemble::iid(5, 5).draw(&mut rng);
    let s: Vec<usize> = (0..5).map(|_| rng.gen_range(0..16)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    let y = h.mul_vec(&x);
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(SphereDecoder::new(c.clone())),
        Box::new(FcsdDetector::new(c.clone(), 1)),
        Box::new(FlexCoreDetector::with_pes(c.clone(), 8)),
        Box::new(SicDetector::new(c.clone())),
        Box::new(ParallelSicDetector::new(c.clone())),
        Box::new(MmseDetector::new(c.clone())),
    ];
    for det in detectors.iter_mut() {
        det.prepare(&h, 1e-9);
        assert_eq!(det.detect(&y), s, "{}", det.name());
    }
}
