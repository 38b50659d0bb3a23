//! Cross-crate regression tests for PR 3: the adaptive detectors' batch
//! fast path, the engine's effort-adaptive scheduling, and the streaming
//! time-varying scenario.
//!
//! The load-bearing guarantees:
//! * a-FlexCore batch detection is bit-identical to its per-vector
//!   `detect` — and inside the engine the batch path is
//!   actually *taken* (no silent per-vector fallback, the PR 3 bugfix);
//! * adaptive and fixed FlexCore produce identical detected grids whenever
//!   the stopping criterion leaves every path active;
//! * LPT batch ordering never changes results, only scheduling.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_engine::{ChannelStream, FrameChannel, FrameEngine, RxFrame};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::{CMat, Cx};
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const NT: usize = 6;

fn selective_channel(n_sc: usize, snr: f64, seed: u64) -> FrameChannel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrameChannel::per_subcarrier(
        ChannelEnsemble::iid(NT, NT).draw_many(&mut rng, n_sc),
        sigma2_from_snr_db(snr),
    )
}

fn random_frame(channel: &FrameChannel, n_sym: usize, seed: u64) -> RxFrame {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frame = RxFrame::empty(channel.n_subcarriers());
    for _ in 0..n_sym {
        let mut row = Vec::with_capacity(channel.n_subcarriers());
        for sc in 0..channel.n_subcarriers() {
            let x: Vec<Cx> = (0..NT)
                .map(|_| c.point(rng.gen_range(0..c.order())))
                .collect();
            let ch = MimoChannel {
                h: channel.h(sc).clone(),
                sigma2: channel.sigma2(),
            };
            row.push(ch.transmit(&x, &mut rng));
        }
        frame.push_symbol(row);
    }
    frame
}

#[test]
fn adaptive_batch_paths_are_bit_identical_to_per_vector_detect() {
    // The batch-path regression: a-FlexCore's detect_batch_refs must
    // equal the per-vector loop exactly, across channels and SNRs.
    let c = Constellation::new(Modulation::Qam16);
    let ens = ChannelEnsemble::iid(NT, NT);
    let mut rng = StdRng::seed_from_u64(41);
    for snr in [8.0, 14.0, 25.0] {
        let h = ens.draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), snr);
        let ys: Vec<Vec<Cx>> = (0..16)
            .map(|_| {
                let x: Vec<Cx> = (0..NT)
                    .map(|_| c.point(rng.gen_range(0..c.order())))
                    .collect();
                ch.transmit(&x, &mut rng)
            })
            .collect();
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();

        let mut afc = FlexCoreDetector::adaptive(c.clone(), 16, 0.95);
        afc.prepare(&h, sigma2_from_snr_db(snr));
        let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| afc.detect(y)).collect();
        assert_eq!(
            afc.detect_batch_refs(&refs),
            per_vector,
            "a-FlexCore {snr} dB"
        );
    }
}

/// Test-local detector wrapper that counts which entry point a serving
/// layer drives: `calls.0` = `detect_batch_into` (the scratch-reuse batch
/// path), `calls.1` = per-vector `detect`. Clones share the counters, so a
/// template's tally covers every slot an engine stamps from it.
#[derive(Clone, Debug)]
struct Counting<D> {
    inner: D,
    calls: Arc<(AtomicU64, AtomicU64)>,
}

impl<D> Counting<D> {
    fn new(inner: D) -> Self {
        Counting {
            inner,
            calls: Arc::default(),
        }
    }

    /// `(batch calls, per-vector calls)` so far.
    fn calls(&self) -> (u64, u64) {
        (
            self.calls.0.load(Ordering::Relaxed),
            self.calls.1.load(Ordering::Relaxed),
        )
    }
}

impl<D: Detector> Detector for Counting<D> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn prepare(&mut self, h: &CMat, sigma2: f64) {
        self.inner.prepare(h, sigma2)
    }
    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        self.calls.1.fetch_add(1, Ordering::Relaxed);
        self.inner.detect(y)
    }
    fn n_streams(&self) -> usize {
        self.inner.n_streams()
    }
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        self.calls.0.fetch_add(1, Ordering::Relaxed);
        self.inner.detect_batch_into(ys, out)
    }
    fn effort(&self) -> usize {
        self.inner.effort()
    }
    fn extension_work(&self) -> usize {
        self.inner.extension_work()
    }
}

#[test]
fn engine_uses_the_batch_path_for_adaptive_detectors() {
    // The acceptance-criteria proof: a detect_frame serves every prepared
    // a-FlexCore slot through batch calls and makes *zero* per-vector
    // calls — the engine really goes through detect_batch_into (before
    // PR 3 the trait default silently fell back to detect per vector).
    let c = Constellation::new(Modulation::Qam16);
    let channel = selective_channel(8, 14.0, 42);
    let template = Counting::new(FlexCoreDetector::adaptive(c, 16, 0.95));
    let mut engine = FrameEngine::new(template.clone());
    engine.prepare(&channel);
    let frame = random_frame(&channel, 5, 43);
    let _ = engine.detect_frame(&frame, &CrossbeamPool::work_queue(3));
    let (batch, per_vector) = template.calls();
    assert!(batch >= 8, "a subcarrier never took the batch path");
    assert_eq!(per_vector, 0, "engine fell back to per-vector detect");
}

#[test]
fn adaptive_and_fixed_flexcore_agree_when_all_paths_stay_active() {
    // With threshold 1.0 on a moderate-SNR channel the cumulative path
    // probability never saturates, so a-FlexCore selects exactly the fixed
    // detector's N_PE paths — the detected grids must be identical.
    let c = Constellation::new(Modulation::Qam16);
    let channel = selective_channel(10, 12.0, 44);
    let frame = random_frame(&channel, 4, 45);
    let pool = SequentialPool::new(1);

    let mut fixed = FrameEngine::new(FlexCoreDetector::with_pes(c.clone(), 12));
    fixed.prepare(&channel);
    let mut adaptive = FrameEngine::new(FlexCoreDetector::adaptive(c, 12, 1.0));
    adaptive.prepare(&channel);

    for sc in 0..10 {
        assert_eq!(
            adaptive.detector(sc).active_paths(),
            fixed.detector(sc).active_paths(),
            "subcarrier {sc}: path sets must coincide at threshold 1.0"
        );
    }
    assert_eq!(adaptive.stats().effort_total, fixed.stats().effort_total);
    assert_eq!(
        adaptive.detect_frame(&frame, &pool),
        fixed.detect_frame(&frame, &pool)
    );
}

#[test]
fn adaptive_engine_spends_less_effort_at_high_snr() {
    // The tentpole's point, end to end: on a clean channel the adaptive
    // engine's effort profile collapses toward 1 path per subcarrier while
    // the fixed engine pins the full budget — and detection still works.
    let c = Constellation::new(Modulation::Qam16);
    let channel = selective_channel(12, 32.0, 46);
    let mut adaptive = FrameEngine::new(FlexCoreDetector::adaptive(c.clone(), 16, 0.95));
    adaptive.prepare(&channel);
    let mut fixed = FrameEngine::new(FlexCoreDetector::with_pes(c, 16));
    fixed.prepare(&channel);

    let a = adaptive.stats();
    let f = fixed.stats();
    assert_eq!(f.mean_effort(), 16.0);
    assert!(
        a.mean_effort() < 4.0,
        "adaptive effort should collapse at 32 dB: {}",
        a.mean_effort()
    );
    assert!(a.effort_total < f.effort_total / 2);
    // The histogram concentrates on small efforts.
    let small: u64 = a
        .effort_histogram
        .iter()
        .filter(|&&(e, _)| e <= 4)
        .map(|&(_, n)| n)
        .sum();
    assert!(small >= 9, "{:?}", a.effort_histogram);

    // Clean channel: the collapsed detector still recovers symbols.
    let frame = random_frame(&channel, 3, 47);
    let out = adaptive.detect_frame(&frame, &CrossbeamPool::work_queue(2));
    assert_eq!(out, fixed.detect_frame(&frame, &SequentialPool::new(1)));
}

#[test]
fn streaming_scenario_is_substrate_independent() {
    // A full streaming episode (advance → cached re-prepare → detect) must
    // produce identical grids on every pool, with the generation cache
    // touching only the refreshed slice of the band each frame.
    let c = Constellation::new(Modulation::Qam16);
    type DetectFn<'a> = &'a dyn Fn(&RxFrame, &FrameEngine<FlexCoreDetector>) -> Vec<Vec<usize>>;
    let run = |pool: DetectFn| {
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(48);
        let mut stream = ChannelStream::new(&ens, 9, 0.9, 3, sigma2_from_snr_db(16.0), &mut rng);
        let mut engine = FrameEngine::new(FlexCoreDetector::adaptive(c.clone(), 12, 0.95));
        assert_eq!(engine.prepare(stream.estimate()), 9);
        let mut all = Vec::new();
        for frame_no in 1..=4u64 {
            let refreshed = stream.advance(&mut rng);
            assert_eq!(refreshed, 3);
            assert_eq!(engine.prepare(stream.estimate()), 3);
            let mut sym_rng = StdRng::seed_from_u64(49 ^ frame_no);
            let frame = stream.transmit_frame(
                3,
                |_, _| {
                    (0..NT)
                        .map(|_| c.point(sym_rng.gen_range(0..c.order())))
                        .collect()
                },
                &mut StdRng::seed_from_u64(50 ^ frame_no),
            );
            all.extend(pool(&frame, &engine));
        }
        all
    };
    let seq = run(&|frame, engine| {
        engine
            .detect_frame(frame, &SequentialPool::new(1))
            .iter()
            .map(<[usize]>::to_vec)
            .collect()
    });
    let par = run(&|frame, engine| {
        engine
            .detect_frame(frame, &CrossbeamPool::work_queue(4))
            .iter()
            .map(<[usize]>::to_vec)
            .collect()
    });
    assert_eq!(seq, par);
}
