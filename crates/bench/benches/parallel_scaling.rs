//! Criterion bench: real-thread scaling of FlexCore's path parallelism.
//!
//! Backs the paper's "nearly embarrassingly parallel" claim (§1) with
//! actual multi-threaded execution on the crossbeam PE pool: wall-clock
//! per batch should drop as worker threads grow, since paths share
//! nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::Cx;
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_pool_scaling(crit: &mut Criterion) {
    let c = Constellation::new(Modulation::Qam64);
    let mut rng = StdRng::seed_from_u64(0xACE);
    let nt = 12;
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let snr = 22.0;
    let mut det = FlexCoreDetector::with_pes(c.clone(), 512);
    det.prepare(&h, sigma2_from_snr_db(snr));
    let ch = MimoChannel::new(h, snr);
    let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..64)).collect();
    let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
    let y = ch.transmit(&x, &mut rng);

    let mut group = crit.benchmark_group("flexcore_512paths_pool");
    group.bench_function("sequential", |b| {
        let pool = SequentialPool::new(512);
        b.iter(|| det.detect_batch_on_pool(&[y.as_slice()], &pool)[0][0])
    });
    for workers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("crossbeam", workers),
            &workers,
            |b, &workers| {
                let pool = CrossbeamPool::new(workers);
                b.iter(|| det.detect_batch_on_pool(&[y.as_slice()], &pool)[0][0])
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool_scaling);
criterion_main!(benches);
