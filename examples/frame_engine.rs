//! Frame-level streaming detection: whole OFDM frames through any detector
//! on real worker threads.
//!
//! Run with: `cargo run --example frame_engine --release`
//!
//! An 8×8 uplink at 16-QAM, 48 data subcarriers × 14 OFDM symbols per
//! frame. The demo streams a burst of frames through FlexCore on (a) the
//! sequential simulated pool and (b) a real work-queue thread pool, shows
//! the outputs are bit-identical, reports frames/sec and detected Mbit/s,
//! and demonstrates the per-subcarrier preparation cache: a narrowband
//! channel update re-runs pre-processing for exactly one subcarrier.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_engine::{FrameChannel, FrameEngine, RxFrame};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::Cx;
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const N_SC: usize = 48;
const N_SYM: usize = 14;
const NT: usize = 8;
const N_FRAMES: usize = 20;

fn random_frame(channel: &FrameChannel, c: &Constellation, rng: &mut StdRng) -> RxFrame {
    let mut frame = RxFrame::empty(N_SC);
    for _ in 0..N_SYM {
        let mut row = Vec::with_capacity(N_SC);
        for sc in 0..N_SC {
            let x: Vec<Cx> = (0..NT)
                .map(|_| c.point(rng.gen_range(0..c.order())))
                .collect();
            let mut y = channel.h(sc).mul_vec(&x);
            for v in &mut y {
                *v += rng.cx_normal(channel.sigma2());
            }
            row.push(y);
        }
        frame.push_symbol(row);
    }
    frame
}

fn main() {
    let c = Constellation::new(Modulation::Qam16);
    let snr_db = 16.0;
    let mut rng = StdRng::seed_from_u64(0xF7A);
    let ens = ChannelEnsemble::iid(NT, NT);
    let mut channel =
        FrameChannel::per_subcarrier(ens.draw_many(&mut rng, N_SC), sigma2_from_snr_db(snr_db));

    println!("== FlexCore frame engine: {NT}x{NT} 16-QAM, {N_SC} subcarriers x {N_SYM} symbols");

    // One engine per substrate so the cache stats stay separate.
    let mut seq_engine = FrameEngine::new(FlexCoreDetector::with_pes(c.clone(), 16));
    let mut par_engine = FrameEngine::new(FlexCoreDetector::with_pes(c.clone(), 16));
    println!(
        "prepare: {} subcarriers refreshed (first sync runs QR + ordering everywhere)",
        seq_engine.prepare(&channel)
    );
    par_engine.prepare(&channel);

    let frames: Vec<RxFrame> = (0..N_FRAMES)
        .map(|_| random_frame(&channel, &c, &mut rng))
        .collect();
    let bits_per_frame = (N_SC * N_SYM * NT * c.bits_per_symbol()) as f64;

    // Stream the burst through both substrates.
    let seq_pool = SequentialPool::new(1);
    let t0 = Instant::now();
    let seq_out: Vec<_> = frames
        .iter()
        .map(|f| seq_engine.detect_frame(f, &seq_pool))
        .collect();
    let seq_dt = t0.elapsed().as_secs_f64();

    let queue_pool = CrossbeamPool::work_queue(4);
    let t0 = Instant::now();
    let par_out: Vec<_> = frames
        .iter()
        .map(|f| par_engine.detect_frame(f, &queue_pool))
        .collect();
    let par_dt = t0.elapsed().as_secs_f64();

    assert_eq!(seq_out, par_out, "substrates must agree bit-for-bit");
    println!("outputs: bit-identical on both substrates");
    println!(
        "sequential/1 : {:8.1} frames/sec  {:7.2} Mbit/s",
        N_FRAMES as f64 / seq_dt,
        N_FRAMES as f64 * bits_per_frame / seq_dt / 1e6
    );
    println!(
        "work_queue/4 : {:8.1} frames/sec  {:7.2} Mbit/s  ({:.2}x)",
        N_FRAMES as f64 / par_dt,
        N_FRAMES as f64 * bits_per_frame / par_dt / 1e6,
        seq_dt / par_dt
    );

    // Narrowband channel update: the cache re-prepares exactly one slot.
    channel.update_subcarrier(7, &ens.draw(&mut rng));
    let refreshed = par_engine.prepare(&channel);
    println!("narrowband update on subcarrier 7: {refreshed} subcarrier re-prepared");
    let stats = par_engine.stats();
    println!(
        "engine stats: {} frames, {} vectors, {} subcarriers refreshed",
        stats.frames, stats.vectors, stats.subcarriers_refreshed
    );
}
