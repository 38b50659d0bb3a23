//! Real-thread path parallelism — the "nearly embarrassingly parallel"
//! claim of §1, measured.
//!
//! Run with: `cargo run --example parallel_speedup --release`
//!
//! FlexCore's selected tree paths share nothing: each can run on its own
//! processing element with a single `min` reduction at the end. This
//! example times the same 512-path detection batch on the sequential pool
//! and on crossbeam pools of 2–16 worker threads, verifying identical
//! decisions and reporting wall-clock speedup.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    let constellation = Constellation::new(Modulation::Qam64);
    let (nt, snr_db, n_paths, n_vectors) = (12usize, 21.6, 512usize, 64usize);

    let mut rng = StdRng::seed_from_u64(5);
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let mut det = FlexCoreDetector::with_pes(constellation.clone(), n_paths);
    det.prepare(&h, sigma2_from_snr_db(snr_db));
    let ch = MimoChannel::new(h, snr_db);
    let ys: Vec<Vec<Cx>> = (0..n_vectors)
        .map(|_| {
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..64)).collect();
            let x: Vec<Cx> = s.iter().map(|&i| constellation.point(i)).collect();
            ch.transmit(&x, &mut rng)
        })
        .collect();
    let ys: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();

    // One task per tree path, each streaming the whole batch of vectors —
    // exactly how a pipelined hardware PE consumes subcarriers (§4).
    // Each pool gets one untimed warm-up pass (first-touch page faults and
    // thread start-up would otherwise dominate the short batch).
    let seq_pool = SequentialPool::new(n_paths);
    let _ = det.detect_batch_on_pool(&ys, &seq_pool);
    let start = Instant::now();
    let baseline = det.detect_batch_on_pool(&ys, &seq_pool);
    let t_seq = start.elapsed();
    println!(
        "{n_vectors} vectors x {n_paths} paths (12x12, 64-QAM)\n\
         sequential        : {:>8.1} ms",
        t_seq.as_secs_f64() * 1e3
    );
    for workers in [2usize, 4, 8, 16] {
        let pool = CrossbeamPool::new(workers);
        let _ = det.detect_batch_on_pool(&ys, &pool);
        let start = Instant::now();
        let out = det.detect_batch_on_pool(&ys, &pool);
        let t = start.elapsed();
        assert_eq!(out, baseline, "parallel result must match sequential");
        println!(
            "crossbeam x{workers:<2}      : {:>8.1} ms  ({:.2}x)",
            t.as_secs_f64() * 1e3,
            t_seq.as_secs_f64() / t.as_secs_f64()
        );
    }
    println!(
        "\ntasks executed per pool (accounting): {}",
        seq_pool.stats().tasks()
    );
    println!("decisions identical across all pools — shared-nothing paths.");
}
