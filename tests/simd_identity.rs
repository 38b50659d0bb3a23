//! Bit-identity property tests for the PR 7 SIMD/SoA detection kernels.
//!
//! The lane kernels (`CxLane`, the `mul_vec*` lane paths, the blocked QR
//! rotate, the four-wide trie walk and path blocks) promise *bitwise*
//! equality with the scalar fallback: each lane replays the scalar
//! operation chain, so toggling dispatch must never change a single bit
//! of any symbol decision or metric. These tests enforce that promise
//! across the full width sweep (nt 1..=64), every modulation
//! (BPSK..256-QAM), the lane-remainder edge cases (nt = 3, 5, 17; path
//! counts 1, 2, 3), and — at nt ∈ {4, 8, 16, 32, 64} — across every
//! pool/fabric execution substrate.
//!
//! Each dispatch-sensitive case runs under **both** settings of
//! `set_lane_dispatch` inside a serialising mutex (the toggle is a
//! process-global); CI additionally re-runs the entire workspace suite
//! with `FLEXCORE_FORCE_SCALAR=1` so the scalar fallback stays green on
//! its own.

use std::sync::Mutex;

use flexcore::{AdaptiveKBest, CellDetector, FlexCoreDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::{Detector, Triangular};
use flexcore_detect::{FcsdDetector, KBestDetector};
use flexcore_engine::{DetectedFrame, FrameChannel, FrameEngine, RxFrame};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::qr::sorted_qr_sqrd;
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::{set_lane_dispatch, CMat, Cx, CxLane, LANES};
use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Serialises every test that flips the process-global lane dispatch.
static DISPATCH_LOCK: Mutex<()> = Mutex::new(());

/// Dispatch setting the rest of the process expects when we're done: lane
/// kernels unless the CI scalar run forced the fallback via environment.
fn env_dispatch() -> bool {
    std::env::var_os("FLEXCORE_FORCE_SCALAR").is_none_or(|v| v.is_empty() || v == "0")
}

/// Runs `f` once with lane dispatch on and once forced scalar (under the
/// global lock), restores the environment-selected dispatch, and returns
/// both results for comparison.
fn under_both_dispatch_modes<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_lane_dispatch(true);
    let lanes = f();
    set_lane_dispatch(false);
    let scalar = f();
    set_lane_dispatch(env_dispatch());
    (lanes, scalar)
}

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
    // The explicit `_lanes`/`_scalar` variants are dispatch-independent,
    // so this sweep needs no lock. Square and rectangular shapes cover
    // every tail remainder of both kernels.
    for nt in 1..=64usize {
        for (rows, cols) in [(nt, nt), (nt + 3, nt)] {
            let a = random_mat(rows, cols, 1000 + nt as u64);
            let x = random_vec(cols, 2000 + nt as u64);
            let mut want = vec![Cx::ZERO; rows];
            let mut got = vec![Cx::ZERO; rows];
            a.mul_vec_into_scalar(&x, &mut want);
            a.mul_vec_into_lanes(&x, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_cx_bits(*w, *g, &format!("mul_vec {rows}x{cols}"));
            }
            let xh = random_vec(rows, 3000 + nt as u64);
            let mut want = vec![Cx::ZERO; cols];
            let mut got = vec![Cx::ZERO; cols];
            a.mul_vec_hermitian_into_scalar(&xh, &mut want);
            a.mul_vec_hermitian_into_lanes(&xh, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_cx_bits(*w, *g, &format!("mul_vec_hermitian {rows}x{cols}"));
            }
        }
    }
}

#[test]
fn triangular_lane_kernels_bit_identical_nt_sweep_all_modulations() {
    // The detection-side lane kernels read constellation points, so the
    // sweep crosses width with every modulation. Like the `_lanes`
    // variants above, these methods take the lane path unconditionally —
    // no lock needed; the scalar kernels are the reference.
    for nt in 1..=64usize {
        let qr = sorted_qr_sqrd(&random_mat(nt, nt, 4000 + nt as u64));
        let ybar = random_vec(nt, 5000 + nt as u64);
        for m in ALL_MODS {
            let c = Constellation::new(m);
            let q = c.order();
            let tri = Triangular::new(qr.clone(), c);
            let mut rng = StdRng::seed_from_u64(6000 + nt as u64 + q as u64);
            // Four independent decision vectors → one lane-resident
            // points plane.
            let lanes_syms: Vec<Vec<u16>> = (0..LANES)
                .map(|_| (0..nt).map(|_| rng.gen_range(0..q) as u16).collect())
                .collect();
            let points: Vec<CxLane> = (0..nt)
                .map(|p| CxLane::from_fn(|l| tri.constellation.point(lanes_syms[l][p] as usize)))
                .collect();
            let rows = [0, nt / 2, nt - 1];
            for &row in rows.iter() {
                let ybar_lane = CxLane::from_fn(|l| ybar[row] * Cx::real(1.0 + l as f64 * 0.25));
                let eff = tri.effective_point_lanes(ybar_lane, &points, row);
                let peds = tri.ped_increment_lanes(ybar_lane, &points, row);
                for l in 0..LANES {
                    let mut yb = ybar.clone();
                    yb[row] = ybar_lane.get(l);
                    let want_eff = tri.effective_point(&yb, &lanes_syms[l], row);
                    assert_cx_bits(
                        want_eff,
                        eff.get(l),
                        &format!("eff nt={nt} q={q} row={row}"),
                    );
                    let chosen = lanes_syms[l][row] as usize;
                    let want_ped = tri.ped_increment(&yb, &lanes_syms[l], row, chosen);
                    assert_eq!(
                        want_ped.to_bits(),
                        peds[l].to_bits(),
                        "ped_lanes nt={nt} q={q} row={row}"
                    );
                }
                if q >= LANES {
                    let survivor = &lanes_syms[0];
                    for sym0 in (0..=q - LANES).step_by(LANES) {
                        let block = tri.ped_increment_block(&ybar, survivor, row, sym0);
                        for (l, got) in block.iter().enumerate() {
                            let want = tri.ped_increment(&ybar, survivor, row, sym0 + l);
                            assert_eq!(
                                want.to_bits(),
                                got.to_bits(),
                                "ped_block nt={nt} q={q} row={row} sym0={sym0}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn rotate_batch_bit_identical_under_both_dispatch_modes() {
    for &nt in &[1usize, 3, 4, 5, 8, 17, 32, 64] {
        let qr = sorted_qr_sqrd(&random_mat(nt, nt, 7000 + nt as u64));
        for &n_obs in &[1usize, 3, 4, 7] {
            let ys: Vec<Vec<Cx>> = (0..n_obs)
                .map(|j| random_vec(nt, 8000 + (nt * 100 + j) as u64))
                .collect();
            let refs: Vec<&[Cx]> = ys.iter().map(|y| y.as_slice()).collect();
            // Dispatch-independent scalar reference.
            let mut want = vec![Cx::ZERO; n_obs * nt];
            for (j, y) in ys.iter().enumerate() {
                qr.q.mul_vec_hermitian_into_scalar(y, &mut want[j * nt..(j + 1) * nt]);
            }
            let (lanes, scalar) = under_both_dispatch_modes(|| {
                let mut out = vec![Cx::ZERO; n_obs * nt];
                qr.rotate_batch_into(&refs, &mut out);
                out
            });
            for (mode, got) in [("lanes", &lanes), ("scalar", &scalar)] {
                for (w, g) in want.iter().zip(got.iter()) {
                    assert_cx_bits(*w, *g, &format!("rotate_batch {mode} nt={nt} n={n_obs}"));
                }
            }
        }
    }
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

/// Asserts a prepared detector's batch output is identical under both
/// dispatch modes and equal to the per-vector scalar reference.
fn assert_detector_dispatch_identity(
    det: &mut dyn Detector,
    h: &CMat,
    sigma2: f64,
    ys: &[Vec<Cx>],
    ctx: &str,
) {
    det.prepare(h, sigma2);
    let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
    let (lanes, scalar) = {
        let _guard = DISPATCH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_lane_dispatch(true);
        let lanes = (
            det.detect_batch_refs(&refs),
            ys.iter().map(|y| det.detect(y)).collect::<Vec<_>>(),
        );
        set_lane_dispatch(false);
        let scalar = (
            det.detect_batch_refs(&refs),
            ys.iter().map(|y| det.detect(y)).collect::<Vec<_>>(),
        );
        set_lane_dispatch(env_dispatch());
        (lanes, scalar)
    };
    assert_eq!(lanes.0, scalar.0, "{ctx}: batch lanes vs scalar");
    assert_eq!(lanes.1, scalar.1, "{ctx}: per-vector lanes vs scalar");
    assert_eq!(lanes.0, scalar.1, "{ctx}: batch vs per-vector reference");
}

/// `detect_batch_into` over every prefix of `refs` — batch lengths 0 to
/// `refs.len()` — under the current dispatch mode, rows widened for
/// comparison with per-vector `detect`. The plane starts poisoned, so a
/// row the batch forgets to write shows.
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

#[test]
fn detect_batch_into_is_bit_identical_to_detect_for_every_product_detector() {
    // Every batch path writes rows bit-identical to per-vector `detect`:
    // an empty batch, one vector, full four-observation blocks and masked
    // tails (batch lengths 0–9), at widths on both sides of each lane and spill
    // boundary, with lane dispatch on and off.
    for nt in [1usize, 3, 4, 8, 16, 17, 64] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let c = Constellation::new(m);
        let (h, sigma2, ys) = workload(nt, m, 9, 900 + nt as u64);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(FlexCoreDetector::with_pes(c.clone(), 12)),
            Box::new(CellDetector::adaptive(c.clone(), 16, 0.95)),
            Box::new(CellDetector::sic(c.clone())),
            Box::new(CellDetector::linear(c.clone())),
            Box::new(FcsdDetector::new(c.clone(), 1)),
            Box::new(KBestDetector::new(c.clone(), 4)),
            Box::new(AdaptiveKBest::new(c.clone(), 8)),
        ];
        for mut det in detectors {
            det.prepare(&h, sigma2);
            let want: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
            let (lanes, scalar) = under_both_dispatch_modes(|| batch_into_prefixes(&*det, &refs));
            for (n, (lanes, scalar)) in lanes.iter().zip(&scalar).enumerate() {
                let ctx = format!("{} nt={nt}, batch of {n}", det.name());
                assert_eq!(lanes.as_slice(), &want[..n], "{ctx}: lanes");
                assert_eq!(scalar.as_slice(), &want[..n], "{ctx}: scalar");
            }
        }
    }
}

#[test]
fn detectors_bit_identical_at_lane_remainder_widths_and_path_counts() {
    // nt = 3, 5, 17 are the widths whose SoA planes end in masked tails;
    // path counts 1, 2, 3 keep FlexCore's trie below one full lane of
    // paths. Batch size 6 = one full observation block + a scalar tail.
    for &nt in &[3usize, 5, 17] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let (h, sigma2, ys) = workload(nt, m, 6, 9000 + nt as u64);
        for n_pe in 1..=3usize {
            let c = Constellation::new(m);
            let mut fc = FlexCoreDetector::with_pes(c, n_pe);
            assert_detector_dispatch_identity(
                &mut fc,
                &h,
                sigma2,
                &ys,
                &format!("FlexCore nt={nt} n_pe={n_pe}"),
            );
        }
        let c = Constellation::new(m);
        let mut fcsd = FcsdDetector::new(c.clone(), 1);
        assert_detector_dispatch_identity(&mut fcsd, &h, sigma2, &ys, &format!("FCSD nt={nt}"));
        let mut kb = KBestDetector::new(c, 3);
        assert_detector_dispatch_identity(&mut kb, &h, sigma2, &ys, &format!("KBest nt={nt}"));
    }
}

#[test]
fn detectors_bit_identical_across_modulations() {
    // BPSK (order 2 < LANES: pure scalar tail in the symbol-block loops)
    // through 256-QAM, at an odd width.
    for m in ALL_MODS {
        let (h, sigma2, ys) = workload(5, m, 5, 10_000 + m.order() as u64);
        let c = Constellation::new(m);
        let mut fc = FlexCoreDetector::with_pes(c.clone(), 6);
        assert_detector_dispatch_identity(&mut fc, &h, sigma2, &ys, &format!("FlexCore {m:?}"));
        let mut fcsd = FcsdDetector::new(c.clone(), 1);
        assert_detector_dispatch_identity(&mut fcsd, &h, sigma2, &ys, &format!("FCSD {m:?}"));
        let mut kb = KBestDetector::new(c, 4);
        assert_detector_dispatch_identity(&mut kb, &h, sigma2, &ys, &format!("KBest {m:?}"));
    }
}

fn frame_workload(
    nt: usize,
    m: Modulation,
    n_sc: usize,
    n_sym: usize,
    seed: u64,
) -> (FrameChannel, RxFrame) {
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(seed);
    let channel = FrameChannel::per_subcarrier(
        ChannelEnsemble::iid(nt, nt).draw_many(&mut rng, n_sc),
        sigma2_from_snr_db(14.0),
    );
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
    (channel, frame)
}

#[test]
fn substrates_bit_identical_across_dispatch_at_required_widths() {
    // The acceptance grid: at nt ∈ {4, 8, 16, 32, 64}, scalar and SIMD
    // dispatch must agree bit-for-bit on every pool/fabric substrate.
    use flexcore_engine::FabricStats;
    use flexcore_hwmodel::{CpuModel, HeterogeneousFabric, PeCost, WorkUnit};
    use flexcore_parallel::WeightedPool;

    for &nt in &[4usize, 8, 16, 32, 64] {
        let m = if nt > 8 {
            Modulation::Qpsk
        } else {
            Modulation::Qam16
        };
        let c = Constellation::new(m);
        // 6 OFDM symbols per subcarrier: one full lane block + tail.
        let (channel, frame) = frame_workload(nt, m, 3, 6, 11_000 + nt as u64);
        let unit_s = CpuModel::fx8120().unit_seconds(&WorkUnit::new(nt, 16));
        let flat = HeterogeneousFabric::uniform("flat", 3);
        let skewed = HeterogeneousFabric::lte_smallcell();

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
        let run_all = || -> Vec<DetectedFrame> {
            let seq = SequentialPool::new(1);
            let cb = CrossbeamPool::work_queue(3);
            let weighted = WeightedPool::new(flat.speed_factors());
            let fabric = WeightedPool::new(skewed.speed_factors());
            let out = vec![
                on_pool(&seq, &c, &channel, &frame),
                on_pool(&cb, &c, &channel, &frame),
                on_pool(&weighted, &c, &channel, &frame),
                on_pool(&fabric, &c, &channel, &frame),
            ];
            // The fabric run was placed by the engine's prices: every
            // vector pays at least its nt² rotate.
            let run = fabric.last_run().expect("the fabric recorded the run");
            let audit = FabricStats::from_run(&run, fabric.speeds(), unit_s);
            assert!(audit.total_units >= (nt * nt * frame.n_vectors()) as u64);
            out
        };
        let (lanes, scalar) = under_both_dispatch_modes(run_all);
        for (i, (a, b)) in lanes.iter().zip(&scalar).enumerate() {
            assert_eq!(a, b, "nt={nt} substrate {i}: lanes vs scalar");
        }
        for (i, a) in lanes.iter().enumerate().skip(1) {
            assert_eq!(a, &lanes[0], "nt={nt} substrate {i} vs sequential");
        }
    }
}
