//! Bit-identity property tests for the PR 7 SIMD/SoA detection kernels.
//!
//! The lane kernels (`CxLane`, the `mul_vec_into` product, the blocked QR
//! rotate, the four-wide trie walk and path blocks; the crate-internal
//! Hermitian product is pinned in `flexcore-numeric`'s own tests, the
//! crate-internal `Triangular` lane kernels in `flexcore-detect`'s)
//! promise *bitwise* equality with their scalar twins: each lane replays
//! the scalar operation chain, so a lane path must never change a single
//! bit of any symbol decision or metric. A kernel picks its lane form from
//! its input size alone, so these tests pin every lane path to an
//! **explicitly scalar** chain built from the twins (`_scalar` matrix
//! products, `run_path_into`, `first_min_metric`) across
//! the full width sweep (nt 1..=64), every modulation (BPSK..256-QAM),
//! the lane-remainder edge cases (nt = 3, 5, 17; path counts 1, 2, 3),
//! and — at nt ∈ {4, 8, 16, 32, 64} — every pool execution substrate.

use flexcore::{CellDetector, FlexCoreDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::{first_min_metric, Detector, PathScratch, Triangular};
use flexcore_detect::FcsdDetector;
use flexcore_engine::{
    ChannelStream, DetectedFrame, FrameChannel, FrameEngine, RxFrame, StreamingCell,
};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::{CMat, Cx};
use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_cx_bits(a: Cx, b: Cx, ctx: &str) {
    assert_eq!(
        (a.re.to_bits(), a.im.to_bits()),
        (b.re.to_bits(), b.im.to_bits()),
        "{ctx}"
    );
}

fn random_mat(rows: usize, cols: usize, seed: u64) -> CMat {
    let mut rng = StdRng::seed_from_u64(seed);
    CMat::from_fn(rows, cols, |_, _| rng.cx_normal(1.0))
}

fn random_vec(n: usize, seed: u64) -> Vec<Cx> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.cx_normal(1.0)).collect()
}

const ALL_MODS: [Modulation; 5] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
    Modulation::Qam256,
];

#[test]
fn mat_lane_kernels_bit_identical_across_nt_1_to_64() {
    // Square and rectangular shapes cover every tail remainder of both
    // kernels, including the all-tail shapes below four rows / columns.
    for nt in 1..=64usize {
        for (rows, cols) in [(nt, nt), (nt + 3, nt)] {
            let a = random_mat(rows, cols, 1000 + nt as u64);
            let x = random_vec(cols, 2000 + nt as u64);
            let mut want = vec![Cx::ZERO; rows];
            let mut got = vec![Cx::ZERO; rows];
            a.mul_vec_into_scalar(&x, &mut want);
            a.mul_vec_into(&x, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_cx_bits(*w, *g, &format!("mul_vec {rows}x{cols}"));
            }
            // The Hermitian product's lane kernel is crate-internal; its
            // pin over the same sweep lives in `flexcore_numeric::mat`'s
            // tests.
        }
    }
}

#[test]
fn rotate_batch_bit_identical_under_both_dispatch_modes() {
    // The blocked batch rotate (full blocks of four observations plus the
    // per-vector tail) and the per-vector rotate, against the scalar twin
    // applied per observation.
    for &nt in &[1usize, 3, 4, 5, 8, 17, 32, 64] {
        let qr = sorted_qr_sqrd(&random_mat(nt, nt, 7000 + nt as u64));
        for &n_obs in &[1usize, 3, 4, 7] {
            let ys: Vec<Vec<Cx>> = (0..n_obs)
                .map(|j| random_vec(nt, 8000 + (nt * 100 + j) as u64))
                .collect();
            let refs: Vec<&[Cx]> = ys.iter().map(|y| y.as_slice()).collect();
            let mut want = vec![Cx::ZERO; n_obs * nt];
            let mut single = vec![Cx::ZERO; n_obs * nt];
            for (j, y) in ys.iter().enumerate() {
                qr.q.mul_vec_hermitian_into_scalar(y, &mut want[j * nt..(j + 1) * nt]);
                qr.rotate_into(y, &mut single[j * nt..(j + 1) * nt]);
            }
            let mut batch = vec![Cx::ZERO; n_obs * nt];
            qr.rotate_batch_into(&refs, &mut batch);
            for (kernel, got) in [("batch", &batch), ("single", &single)] {
                for (w, g) in want.iter().zip(got) {
                    assert_cx_bits(*w, *g, &format!("rotate {kernel} nt={nt} n={n_obs}"));
                }
            }
        }
    }
}

/// `Q*·y` through the scalar twin of the rotate.
fn rotate_scalar(tri: &Triangular, y: &[Cx]) -> Vec<Cx> {
    let mut ybar = vec![Cx::ZERO; tri.nt()];
    tri.qr.q.mul_vec_hermitian_into_scalar(y, &mut ybar);
    ybar
}

/// FlexCore's decision as a scalar chain: scalar rotate, every active
/// path through the per-path PE kernel `run_path_into`, the first
/// minimum metric (`first_min_metric`), unpermuted.
fn flexcore_scalar(det: &FlexCoreDetector, y: &[Cx]) -> Vec<usize> {
    let tri = det.triangular();
    let ybar = rotate_scalar(tri, y);
    let mut scratch = PathScratch::default();
    let paths = det.position_vectors();
    let metrics: Vec<f64> = paths
        .iter()
        .map(|p| {
            det.run_path_into(&ybar, p, &mut scratch)
                .unwrap_or(f64::NAN)
        })
        .collect();
    let (best, _) = first_min_metric(metrics).expect("the SIC path always completes");
    det.run_path_into(&ybar, &paths[best], &mut scratch);
    tri.unpermute(scratch.symbols.as_slice())
}

/// FCSD's decision as a scalar chain: scalar rotate, every path through
/// `run_path_into`, the first minimum metric, unpermuted.
fn fcsd_scalar(det: &FcsdDetector, y: &[Cx]) -> Vec<usize> {
    let tri = det.triangular();
    let ybar = rotate_scalar(tri, y);
    let mut scratch = PathScratch::default();
    let metrics: Vec<f64> = (0..det.paths())
        .map(|idx| det.run_path_into(&ybar, idx, &mut scratch))
        .collect();
    let (best, _) = first_min_metric(metrics).expect("at least one path");
    det.run_path_into(&ybar, best, &mut scratch);
    tri.unpermute(scratch.symbols.as_slice())
}

/// One random batch workload for a detector comparison.
fn workload(nt: usize, m: Modulation, n_obs: usize, seed: u64) -> (CMat, f64, Vec<Vec<Cx>>) {
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(seed);
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let snr = 14.0;
    let ch = MimoChannel::new(h.clone(), snr);
    let ys = (0..n_obs)
        .map(|_| {
            let x: Vec<Cx> = (0..nt)
                .map(|_| c.point(rng.gen_range(0..c.order())))
                .collect();
            ch.transmit(&x, &mut rng)
        })
        .collect();
    (h, sigma2_from_snr_db(snr), ys)
}

/// `detect_batch_into` over every prefix of `refs` — batch lengths 0 to
/// `refs.len()` — rows widened for comparison with per-vector `detect`.
/// The plane starts poisoned, so a row the batch forgets to write shows.
fn batch_into_prefixes(det: &dyn Detector, refs: &[&[Cx]]) -> Vec<Vec<Vec<usize>>> {
    let nt = det.n_streams();
    (0..=refs.len())
        .map(|n| {
            let mut plane = vec![u16::MAX; n * nt];
            det.detect_batch_into(&refs[..n], &mut plane);
            plane
                .chunks(nt)
                .map(|row| row.iter().map(|&s| usize::from(s)).collect())
                .collect()
        })
        .collect()
}

/// The explicitly scalar decision a detector's lane paths are pinned to.
type ScalarChain<'a, D> = &'a dyn Fn(&D, &[Cx]) -> Vec<usize>;

/// Prepares `det` and asserts its batch path, over every prefix of `ys`,
/// writes the rows of per-vector `detect`, and — given a `scalar` chain —
/// that both equal it on every observation.
fn assert_pinned<D: Detector>(
    mut det: D,
    h: &CMat,
    sigma2: f64,
    ys: &[Vec<Cx>],
    scalar: Option<ScalarChain<'_, D>>,
    ctx: &str,
) {
    det.prepare(h, sigma2);
    let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
    let want: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
    if let Some(scalar) = scalar {
        for (i, (y, got)) in ys.iter().zip(&want).enumerate() {
            assert_eq!(
                got,
                &scalar(&det, y),
                "{ctx}: detect vs scalar chain, vector {i}"
            );
        }
    }
    for (n, got) in batch_into_prefixes(&det, &refs).iter().enumerate() {
        assert_eq!(got.as_slice(), &want[..n], "{ctx}: batch of {n}");
    }
}

#[test]
fn detect_batch_into_is_bit_identical_to_detect_for_every_product_detector() {
    // Every batch path writes rows bit-identical to per-vector `detect`:
    // an empty batch, one vector, full four-observation blocks and masked
    // tails (batch lengths 0–9), at widths on both sides of each lane
    // boundary and of 16 streams. The detectors with lane forms of their own (the
    // block walk, path blocks) are also pinned to their scalar chains; SIC
    // and linear run only the matrix kernels above.
    for nt in [1usize, 3, 4, 8, 16, 17, 64] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let c = Constellation::new(m);
        let (h, s2, ys) = workload(nt, m, 9, 900 + nt as u64);
        let ctx = |name: &str| format!("{name} nt={nt}");
        let adaptive_core =
            |d: &CellDetector, y: &[Cx]| flexcore_scalar(d.core().expect("core"), y);
        let fc = FlexCoreDetector::with_pes(c.clone(), 12);
        assert_pinned(fc, &h, s2, &ys, Some(&flexcore_scalar), &ctx("FlexCore"));
        let adaptive = CellDetector::adaptive(c.clone(), 16, 0.95);
        assert_pinned(
            adaptive,
            &h,
            s2,
            &ys,
            Some(&adaptive_core),
            &ctx("a-FlexCore"),
        );
        assert_pinned(CellDetector::sic(c.clone()), &h, s2, &ys, None, &ctx("SIC"));
        assert_pinned(
            CellDetector::linear(c.clone()),
            &h,
            s2,
            &ys,
            None,
            &ctx("linear"),
        );
        let fcsd = FcsdDetector::new(c.clone(), 1);
        assert_pinned(fcsd, &h, s2, &ys, Some(&fcsd_scalar), &ctx("FCSD"));
    }
}

#[test]
fn detectors_bit_identical_at_lane_remainder_widths_and_path_counts() {
    // nt = 3, 5, 17 are the widths whose SoA planes end in masked tails;
    // path counts 1, 2, 3 keep FlexCore's trie below one full lane of
    // paths. Batch size 6 = one full observation block + a masked tail.
    for &nt in &[3usize, 5, 17] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let c = Constellation::new(m);
        let (h, s2, ys) = workload(nt, m, 6, 9000 + nt as u64);
        for n_pe in 1..=3usize {
            let fc = FlexCoreDetector::with_pes(c.clone(), n_pe);
            let ctx = format!("FlexCore nt={nt} n_pe={n_pe}");
            assert_pinned(fc, &h, s2, &ys, Some(&flexcore_scalar), &ctx);
        }
        let fcsd = FcsdDetector::new(c.clone(), 1);
        assert_pinned(
            fcsd,
            &h,
            s2,
            &ys,
            Some(&fcsd_scalar),
            &format!("FCSD nt={nt}"),
        );
    }
}

#[test]
fn detectors_bit_identical_across_modulations() {
    // BPSK (order 2 < LANES) through 256-QAM, at an odd width.
    for m in ALL_MODS {
        let (h, s2, ys) = workload(5, m, 5, 10_000 + m.order() as u64);
        let c = Constellation::new(m);
        let fc = FlexCoreDetector::with_pes(c.clone(), 6);
        assert_pinned(
            fc,
            &h,
            s2,
            &ys,
            Some(&flexcore_scalar),
            &format!("FlexCore {m:?}"),
        );
        let fcsd = FcsdDetector::new(c.clone(), 1);
        assert_pinned(
            fcsd,
            &h,
            s2,
            &ys,
            Some(&fcsd_scalar),
            &format!("FCSD {m:?}"),
        );
    }
}

fn frame_workload(
    nt: usize,
    m: Modulation,
    n_sc: usize,
    n_sym: usize,
    seed: u64,
) -> (ChannelStream, RxFrame) {
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(seed);
    // A static (ρ = 1) band: its estimate is the channel every frame sees.
    let ens = ChannelEnsemble::iid(nt, nt);
    let stream = ChannelStream::new(&ens, n_sc, 1.0, 1, sigma2_from_snr_db(14.0), &mut rng);
    let channel = stream.estimate();
    let mut frame = RxFrame::empty(n_sc);
    for _ in 0..n_sym {
        let mut row = Vec::with_capacity(n_sc);
        for sc in 0..n_sc {
            let x: Vec<Cx> = (0..nt)
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
    (stream, frame)
}

#[test]
fn substrates_bit_identical_across_dispatch_at_required_widths() {
    // The acceptance grid: at nt ∈ {4, 8, 16, 32, 64}, every pool
    // substrate's frame equals the scalar chain (scalar rotate +
    // `run_path_into` + `first_min_metric`) on every vector.
    use flexcore_hwmodel::LTE_SMALLCELL_SPEEDS;
    use flexcore_parallel::lpt_makespan_weighted;

    for &nt in &[4usize, 8, 16, 32, 64] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let c = Constellation::new(m);
        // 6 OFDM symbols per subcarrier: one full lane block + tail.
        let (stream, frame) = frame_workload(nt, m, 3, 6, 11_000 + nt as u64);
        let channel = stream.estimate();

        fn on_pool<P: PePool>(
            pool: &P,
            c: &Constellation,
            channel: &FrameChannel,
            frame: &RxFrame,
        ) -> DetectedFrame {
            let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(c.clone(), 8));
            engine.prepare(channel);
            engine.detect_frame(frame, pool)
        }
        let seq = SequentialPool::new(1);
        let cb = CrossbeamPool::work_queue(3);
        let frames = [
            on_pool(&seq, &c, channel, &frame),
            on_pool(&cb, &c, channel, &frame),
        ];
        // The same frame planned for the LTE small-cell fabric: every
        // vector is priced at least its nt² rotate, and the weighted-LPT
        // makespan is at least the area bound.
        let speeds = LTE_SMALLCELL_SPEEDS;
        let mut cell = StreamingCell::new();
        cell.add_user(stream.clone(), FlexCoreDetector::with_pes(c.clone(), 8));
        cell.submit(0, frame.clone());
        let plan = cell.plan_tick(speeds.len());
        let units: u64 = plan.costs().iter().sum();
        assert!(units >= (nt * nt * frame.n_symbols() * frame.n_subcarriers()) as u64);
        let span = lpt_makespan_weighted(plan.costs(), &speeds);
        assert!(span * speeds.iter().sum::<f64>() >= units as f64 * (1.0 - 1e-12));

        let detectors: Vec<FlexCoreDetector> = (0..frame.n_subcarriers())
            .map(|sc| {
                let mut det = FlexCoreDetector::with_pes(c.clone(), 8);
                det.prepare(channel.h(sc), channel.sigma2());
                det
            })
            .collect();
        for (i, got) in frames.iter().enumerate() {
            let got: Vec<&[usize]> = got.iter().collect();
            for sym in 0..frame.n_symbols() {
                for (sc, det) in detectors.iter().enumerate() {
                    let want = flexcore_scalar(det, frame.get(sym, sc));
                    let ctx = format!("nt={nt} substrate {i} symbol {sym} subcarrier {sc}");
                    let cell = got[sym * frame.n_subcarriers() + sc];
                    assert_eq!(cell, want.as_slice(), "{ctx}");
                }
            }
        }
    }
}
