//! Massive-MIMO end-to-end tests: the widths the 16-stream ceiling used
//! to reject, run through the full prepare/plan/run lifecycle.
//!
//! The spill-capable `SymVec` opens 32×32 and 64×64 uplinks; these tests
//! drive them through `FrameEngine` and assert the substrate-equivalence
//! contract at scale: sequential, thread-pool, and fabric-priced plan
//! detection must be bit-identical, and noiseless frames must be
//! recovered exactly.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_detect::common::Detector;
use flexcore_detect::FcsdDetector;
use flexcore_engine::{
    ChannelStream, DetectedFrame, FrameChannel, FrameEngine, RxFrame, StreamingCell,
};
use flexcore_hwmodel::HeterogeneousFabric;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::Cx;
use flexcore_parallel::{lpt_makespan_weighted, CrossbeamPool, PePool, SequentialPool};
use flexcore_phy::link::{cell_packet_tick, LinkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn channel_for(nt: usize, n_sc: usize, snr_db: f64, seed: u64) -> FrameChannel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrameChannel::per_subcarrier(
        ChannelEnsemble::iid(nt, nt).draw_many(&mut rng, n_sc),
        sigma2_from_snr_db(snr_db),
    )
}

/// A noisy uplink frame plus the transmitted indices
/// (`sent[symbol][subcarrier]`).
fn random_frame(
    channel: &FrameChannel,
    c: &Constellation,
    nt: usize,
    n_sym: usize,
    seed: u64,
) -> (RxFrame, Vec<Vec<Vec<usize>>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frame = RxFrame::empty(channel.n_subcarriers());
    let mut sent = Vec::with_capacity(n_sym);
    for _ in 0..n_sym {
        let mut row = Vec::with_capacity(channel.n_subcarriers());
        let mut sent_row = Vec::with_capacity(channel.n_subcarriers());
        for sc in 0..channel.n_subcarriers() {
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let mut y = channel.h(sc).mul_vec(&x);
            for v in &mut y {
                *v += rng.cx_normal(channel.sigma2());
            }
            row.push(y);
            sent_row.push(s);
        }
        frame.push_symbol(row);
        sent.push(sent_row);
    }
    (frame, sent)
}

fn frame_on<D: Detector + Clone + Sync, P: PePool>(
    template: D,
    channel: &FrameChannel,
    frame: &RxFrame,
    pool: &P,
) -> DetectedFrame {
    let mut engine = FrameEngine::new(template);
    engine.prepare(channel);
    engine.detect_frame(frame, pool)
}

/// The acceptance matrix: every substrate must reproduce the sequential
/// reference bit for bit at the given width/modulation.
fn assert_substrate_identity(nt: usize, m: Modulation, seed: u64) {
    let c = Constellation::new(m);
    let channel = channel_for(nt, 4, 22.0, seed);
    let (frame, _) = random_frame(&channel, &c, nt, 3, seed + 1);
    let seq = SequentialPool::new(1);

    let mk_fixed = || FlexCoreDetector::with_pes(c.clone(), 16);
    let mk_adaptive = || FlexCoreDetector::adaptive(c.clone(), 16, 0.95);
    let fixed_ref = frame_on(mk_fixed(), &channel, &frame, &seq);
    let adaptive_ref = frame_on(mk_adaptive(), &channel, &frame, &seq);

    // Real threads (work-queue scheduling).
    let queue = CrossbeamPool::work_queue(3);
    assert_eq!(frame_on(mk_fixed(), &channel, &frame, &queue), fixed_ref);
    assert_eq!(
        frame_on(mk_adaptive(), &channel, &frame, &queue),
        adaptive_ref
    );

    // Heterogeneous fabric: a one-user plan for its 8 PEs is priced on
    // its speed factors, then runs bit-identically.
    let fabric = HeterogeneousFabric::lte_smallcell();
    let mut rng = StdRng::seed_from_u64(seed);
    let ens = ChannelEnsemble::iid(nt, nt);
    let stream = ChannelStream::new(&ens, 4, 1.0, 1, sigma2_from_snr_db(22.0), &mut rng);
    let mut cell = StreamingCell::new();
    cell.add_user(stream, mk_adaptive());
    cell.submit(0, frame.clone());
    let plan = cell.plan_tick(fabric.n_pes());
    let units: u64 = plan.costs().iter().sum();
    // At massive-MIMO widths every vector pays at least its nt² rotate.
    assert!(units >= (nt * nt * frame.n_symbols() * frame.n_subcarriers()) as u64);
    let span = lpt_makespan_weighted(plan.costs(), &fabric.speed_factors());
    assert!(span * fabric.total_speed() >= units as f64 * (1.0 - 1e-12));
    let want: Vec<usize> = adaptive_ref.iter().flatten().copied().collect();
    let got: Vec<usize> = cell
        .run_tick(plan, &SequentialPool::new(fabric.n_pes()))
        .flat_map(|(_, cells)| cells.iter().map(|&s| usize::from(s)))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn substrates_identical_at_32x32_qam64() {
    assert_substrate_identity(32, Modulation::Qam64, 1);
}

#[test]
fn substrates_identical_at_64x64_qam16() {
    assert_substrate_identity(64, Modulation::Qam16, 2);
}

#[test]
fn noiseless_massive_mimo_frames_recover_exactly() {
    // With no noise the SIC path (always in FlexCore's path set) solves
    // the triangular system exactly, so detection must return precisely
    // the transmitted indices — at every post-ceiling width/modulation
    // the ISSUE names, through the engine.
    for (nt, m, seed) in [
        (32usize, Modulation::Qam64, 10u64),
        (32, Modulation::Qam256, 11),
        (64, Modulation::Qam16, 12),
        (64, Modulation::Qam256, 13),
    ] {
        let c = Constellation::new(m);
        let channel = channel_for(nt, 3, 300.0, seed); // effectively noiseless
        let (frame, sent) = random_frame(&channel, &c, nt, 2, seed + 100);
        let out = frame_on(
            FlexCoreDetector::with_pes(c.clone(), 8),
            &channel,
            &frame,
            &SequentialPool::new(1),
        );
        let got: Vec<&[usize]> = out.iter().collect();
        for (t, row) in sent.iter().enumerate() {
            for (sc, s) in row.iter().enumerate() {
                let cell = got[t * row.len() + sc];
                assert_eq!(cell, &s[..], "nt={nt} {m:?} symbol {t} sc {sc}");
            }
        }
    }
}

#[test]
fn classical_detectors_cross_the_spill_boundary() {
    // FCSD's path scratch spills past 16 streams; it must detect a
    // noiseless 17-stream uplink (the first spilled width) and 32 streams.
    for nt in [17usize, 32] {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(nt as u64);
        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
        let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..16)).collect();
        let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
        let y = h.mul_vec(&x);
        let mut fcsd = FcsdDetector::new(c.clone(), 1);
        fcsd.prepare(&h, 1e-9);
        assert_eq!(fcsd.detect(&y), s, "FCSD nt={nt}");
    }
}

#[test]
fn coded_packet_survives_a_32x32_uplink() {
    // The full PHY stack (framing, coding, interleaving) over a 32-stream
    // channel through the serving tick, whose in-place transmit takes its
    // heap branch past 16 antennas: at high SNR the packet must be
    // delivered for every stream.
    let c = Constellation::new(Modulation::Qam16);
    let cfg = LinkConfig::paper_default(c.clone(), 40);
    let mut rng = StdRng::seed_from_u64(77);
    let h = ChannelEnsemble::iid(32, 32).draw(&mut rng);
    let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(30.0));
    let mut cell = StreamingCell::new();
    cell.add_user(stream, FlexCoreDetector::with_pes(c, 16));
    let pool = CrossbeamPool::work_queue(4);
    let out = cell_packet_tick(&cfg, &mut cell, &pool, &mut [rng]).remove(0);
    assert!(
        out.link.user_ok.iter().all(|&ok| ok),
        "32×32 coded uplink dropped a user at 30 dB: {:?}",
        out.link.user_ok
    );
}
