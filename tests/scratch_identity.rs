//! Bit-identity property tests for the allocation-free detection hot path.
//!
//! PR 2 rebuilt every tree-search hot loop on scratch workspaces
//! (`PathScratch`, whose `Vec<u16>` symbol store is reused across
//! evaluations and widths) and `_into` kernels. The refactor's contract is *bit-identity*: for any channel,
//! SNR, and observation, the scratch-based paths must produce exactly the
//! symbols, metrics, and LLRs of the allocating paths they replaced.
//! These tests enforce the contract against independent re-enactments of
//! those allocating implementations, across random channels and SNRs.

use flexcore::{FlexCoreConfig, FlexCoreDetector, PositionVector, QrOrdering, SoftDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::{Detector, PathScratch, Triangular};
use flexcore_detect::FcsdDetector;
use flexcore_modulation::{Constellation, Modulation, OrderingLut};
use flexcore_numeric::{CMat, Cx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draws one random workload: channel, noisy observations, and noise power.
fn draw_workload_mod(
    seed: u64,
    nt: usize,
    m: Modulation,
    snr_db: f64,
    n_vecs: usize,
) -> (CMat, f64, Vec<Vec<Cx>>) {
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(seed);
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let ch = MimoChannel::new(h.clone(), snr_db);
    let ys: Vec<Vec<Cx>> = (0..n_vecs)
        .map(|_| {
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            ch.transmit(&x, &mut rng)
        })
        .collect();
    (h, sigma2_from_snr_db(snr_db), ys)
}

fn draw_workload(seed: u64, nt: usize, snr_db: f64, n_vecs: usize) -> (CMat, f64, Vec<Vec<Cx>>) {
    draw_workload_mod(seed, nt, Modulation::Qam16, snr_db, n_vecs)
}

/// The widened test domain's modulations, indexed by a strategy draw.
fn modulation(idx: usize) -> Modulation {
    [
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
        Modulation::Qam256,
    ][idx % 4]
}

/// `Q*·y` through the scalar twin of the rotate, so each reference below
/// is a scalar chain end to end (`Triangular::rotate` runs the lane
/// kernel from four streams up).
fn rotate_scalar(tri: &Triangular, y: &[Cx]) -> Vec<Cx> {
    let mut ybar = vec![Cx::ZERO; tri.nt()];
    tri.qr.q.mul_vec_hermitian_into_scalar(y, &mut ybar);
    ybar
}

/// The triangle LUT `FlexCoreDetector::new` builds, for [`run_path_pr1`]
/// (of a prepared detector).
fn pr1_lut(det: &FlexCoreDetector) -> OrderingLut {
    let c = &det.triangular().constellation;
    OrderingLut::new(c.modulation(), c.order())
}

/// PR 1's allocating per-path evaluation, re-enacted on plain `Vec`
/// storage from the public kernels: effective point, the triangle-LUT's
/// `k`-th nearest symbol (skip semantics, the default ordering) with the
/// rank-1 clamped-slicer fallback, and the per-level metric term. `None` =
/// the predefined order left the constellation (deactivated path). `lut`
/// is [`pr1_lut`] of the detector.
fn run_path_pr1(
    det: &FlexCoreDetector,
    lut: &OrderingLut,
    ybar: &[Cx],
    p: &PositionVector,
) -> Option<(Vec<u16>, f64)> {
    let tri = det.triangular();
    let c = &tri.constellation;
    let nt = tri.nt();
    let mut symbols = vec![0u16; nt];
    let mut metric = 0.0f64;
    for row in (0..nt).rev() {
        let eff = tri.effective_point(ybar, &symbols, row);
        let k = p.rank(row) as usize;
        let sym = match lut.kth_nearest_skip(c, eff, k) {
            Some(sym) => sym,
            None if k == 1 => c.slice(eff),
            None => return None,
        };
        symbols[row] = sym as u16;
        metric += tri.qr.r[(row, row)].norm_sqr() * c.point(sym).dist_sqr(eff);
    }
    Some((symbols, metric))
}

/// Asserts `run_path_into` reproduces [`run_path_pr1`] — symbols, metric
/// bits and deactivation — for every selected path of every observation,
/// evaluated in the caller's `scratch` (whatever an earlier width left in
/// it).
fn assert_run_path_into_equals_pr1(
    det: &FlexCoreDetector,
    ys: &[Vec<Cx>],
    scratch: &mut PathScratch,
) {
    let tri = det.triangular();
    let lut = pr1_lut(det);
    for y in ys {
        let ybar = tri.rotate(y);
        for p in det.position_vectors() {
            let alloc = run_path_pr1(det, &lut, &ybar, p);
            let metric = det.run_path_into(&ybar, p, scratch);
            match (alloc, metric) {
                (Some((symbols, m_alloc)), Some(m_into)) => {
                    // Exact f64 equality: the kernels must run the same
                    // operations in the same order.
                    assert_eq!(m_alloc.to_bits(), m_into.to_bits());
                    assert_eq!(symbols, scratch.symbols);
                }
                (None, None) => {}
                (a, b) => panic!("activation mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}

/// PR 1's nested batched reduction, re-enacted: evaluate every path with
/// the allocating per-path evaluation, transpose `results[path][vector]`
/// into per-vector candidate lists, and reduce with `Iterator::min_by`.
fn detect_batch_pr1(det: &FlexCoreDetector, ys: &[Vec<Cx>]) -> Vec<Vec<usize>> {
    let tri = det.triangular();
    let lut = pr1_lut(det);
    let ybars: Vec<Vec<Cx>> = ys.iter().map(|y| rotate_scalar(tri, y)).collect();
    #[allow(clippy::type_complexity)]
    let per_path: Vec<Vec<Option<(Vec<u16>, f64)>>> = det
        .position_vectors()
        .iter()
        .map(|p| {
            ybars
                .iter()
                .map(|yb| run_path_pr1(det, &lut, yb, p))
                .collect()
        })
        .collect();
    (0..ys.len())
        .map(|v| {
            let (symbols, _) = per_path
                .iter()
                .filter_map(|path_results| path_results[v].clone())
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN metric"))
                .expect("the SIC path always completes");
            tri.unpermute(&symbols)
        })
        .collect()
}

/// The FCSD decision from independent per-path scalar evaluations reduced
/// with `Iterator::min_by` — PR 1's shape, over `run_path_into`.
fn fcsd_per_path_reference(det: &FcsdDetector, y: &[Cx]) -> Vec<usize> {
    let tri = det.triangular();
    let ybar = rotate_scalar(tri, y);
    let mut scratch = PathScratch::default();
    let (symbols, _) = (0..det.paths())
        .map(|idx| {
            let metric = det.run_path_into(&ybar, idx, &mut scratch);
            (scratch.symbols.clone(), metric)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN metric"))
        .expect("at least one path");
    tri.unpermute(symbols.as_slice())
}

/// Cases per property, each drawn from the test's own seeded stream.
const CASES: usize = 12;

#[test]
fn run_path_into_equals_run_path() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 1);
    for _ in 0..CASES {
        let (seed, nt, snr, n_pe) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(2usize..7),
            rng.gen_range(6.0f64..24.0),
            rng.gen_range(1usize..48),
        );
        let (h, sigma2, ys) = draw_workload(seed, nt, snr, 3);
        let c = Constellation::new(Modulation::Qam16);
        let mut det = FlexCoreDetector::with_pes(c, n_pe);
        det.prepare(&h, sigma2);
        assert_run_path_into_equals_pr1(&det, &ys, &mut PathScratch::default());
    }
}

#[test]
fn batch_equals_nested_reduction() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 2);
    for _ in 0..CASES {
        let (seed, nt, snr, n_pe) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(2usize..6),
            rng.gen_range(6.0f64..24.0),
            rng.gen_range(1usize..32),
        );
        let (h, sigma2, ys) = draw_workload(seed, nt, snr, 8);
        let c = Constellation::new(Modulation::Qam16);
        let mut det = FlexCoreDetector::with_pes(c, n_pe);
        det.prepare(&h, sigma2);
        let reference = detect_batch_pr1(&det, &ys);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        assert_eq!(&det.detect_batch_refs(&refs), &reference);
        // And the trie-walk decisions match the nested reduction too.
        let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
        assert_eq!(&per_vector, &reference);
    }
}

#[test]
fn fcsd_scratch_equals_allocating_paths() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 3);
    for _ in 0..CASES {
        let (seed, nt, snr, l_full) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(2usize..6),
            rng.gen_range(6.0f64..24.0),
            rng.gen_range(0usize..3),
        );
        let (h, sigma2, ys) = draw_workload(seed, nt, snr, 5);
        let c = Constellation::new(Modulation::Qam16);
        let mut det = FcsdDetector::new(c, l_full.min(nt));
        det.prepare(&h, sigma2);
        for y in &ys {
            assert_eq!(&det.detect(y), &fcsd_per_path_reference(&det, y));
        }
    }
}

#[test]
fn run_path_into_equals_run_path_at_any_width() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 4);
    // One workspace for every case: consecutive widths shrink and grow
    // its symbol store, so stale entries past a new width must not leak
    // into a result.
    let mut scratch = PathScratch::default();
    let (mut prev_nt, mut shrank, mut grew) = (0, false, false);
    for _ in 0..CASES {
        let (seed, nt, m_idx, n_pe) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(1usize..65),
            rng.gen_range(0usize..4),
            rng.gen_range(1usize..17),
        );
        // The massive-MIMO domain: nt from 1 to 64, across all four
        // modulations, bit-identical to the allocating reference.
        shrank |= prev_nt > 16 && nt <= 16;
        grew |= prev_nt != 0 && prev_nt <= 16 && nt > 16;
        prev_nt = nt;
        let m = modulation(m_idx);
        let (h, sigma2, ys) = draw_workload_mod(seed, nt, m, 14.0, 2);
        let c = Constellation::new(m);
        let mut det = FlexCoreDetector::with_pes(c, n_pe);
        det.prepare(&h, sigma2);
        assert_run_path_into_equals_pr1(&det, &ys, &mut scratch);
    }
    assert!(shrank && grew, "the widths never crossed 16 both ways");
}

#[test]
fn detect_paths_agree_at_any_width() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 5);
    for _ in 0..CASES {
        let (seed, nt, m_idx, n_pe) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(1usize..65),
            rng.gen_range(0usize..4),
            rng.gen_range(1usize..13),
        );
        // Every public detection surface must agree at every width: the
        // trie-walk detect(), the shared-scratch batch, and the soft
        // output's hard decision.
        let m = modulation(m_idx);
        let (h, sigma2, ys) = draw_workload_mod(seed, nt, m, 16.0, 3);
        let c = Constellation::new(m);
        let mut det = FlexCoreDetector::with_pes(c, n_pe);
        det.prepare(&h, sigma2);
        let per_vector: Vec<Vec<usize>> = ys.iter().map(|y| det.detect(y)).collect();
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        assert_eq!(&det.detect_batch_refs(&refs), &per_vector);
        for (y, want) in ys.iter().zip(&per_vector) {
            assert_eq!(&det.detect_soft(y, sigma2).hard, want);
        }
    }
}

#[test]
fn fcsd_scratch_equals_allocating_paths_at_any_width() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 6);
    for _ in 0..CASES {
        let (seed, nt, m_idx) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(1usize..65),
            rng.gen_range(0usize..4),
        );
        let m = modulation(m_idx);
        let (h, sigma2, ys) = draw_workload_mod(seed, nt, m, 14.0, 2);
        let c = Constellation::new(m);
        // One fully-enumerated level where the path count stays test-sized.
        let l_full = usize::from(c.order() <= 64).min(nt);
        let mut det = FcsdDetector::new(c, l_full);
        det.prepare(&h, sigma2);
        for y in &ys {
            assert_eq!(&det.detect(y), &fcsd_per_path_reference(&det, y));
        }
    }
}

#[test]
fn soft_llrs_flat_buffers_equal_nested_reference() {
    let mut rng = StdRng::seed_from_u64(0x5C7A_0000 + 7);
    for _ in 0..CASES {
        let (seed, nt, snr, n_pe) = (
            rng.gen_range(0u64..1_000_000),
            rng.gen_range(2usize..5),
            rng.gen_range(6.0f64..24.0),
            rng.gen_range(1usize..24),
        );
        let (h, sigma2, ys) = draw_workload(seed, nt, snr, 4);
        let c = Constellation::new(Modulation::Qam16);
        let mut det = FlexCoreDetector::with_pes(c.clone(), n_pe);
        det.prepare(&h, sigma2);
        let tri = det.triangular();
        let lut = pr1_lut(&det);
        let bps = c.bits_per_symbol();
        for y in &ys {
            let soft = det.detect_soft(y, sigma2);
            // PR 1's nested min0/min1 reference, from the allocating paths.
            let ybar = rotate_scalar(tri, y);
            let mut list: Vec<(Vec<usize>, f64)> = Vec::new();
            for p in det.position_vectors() {
                if let Some((symbols, metric)) = run_path_pr1(&det, &lut, &ybar, p) {
                    list.push((tri.unpermute(&symbols), metric));
                }
            }
            let hard = list
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN metric"))
                .expect("non-empty")
                .0
                .clone();
            assert_eq!(&soft.hard, &hard);
            let mut min0 = vec![vec![f64::INFINITY; bps]; nt];
            let mut min1 = vec![vec![f64::INFINITY; bps]; nt];
            for (symbols, metric) in &list {
                for (stream, &sym) in symbols.iter().enumerate() {
                    for (j, &b) in c.index_to_bits(sym).iter().enumerate() {
                        let slot = if b == 0 {
                            &mut min0[stream][j]
                        } else {
                            &mut min1[stream][j]
                        };
                        if *metric < *slot {
                            *slot = *metric;
                        }
                    }
                }
            }
            for stream in 0..nt {
                for j in 0..bps {
                    let (m0, m1) = (min0[stream][j], min1[stream][j]);
                    let want = match (m0.is_finite(), m1.is_finite()) {
                        (true, true) => ((m1 - m0) / sigma2).clamp(-8.0, 8.0),
                        (true, false) => 8.0,
                        (false, true) => -8.0,
                        (false, false) => 0.0,
                    };
                    assert_eq!(soft.llrs[stream][j].to_bits(), want.to_bits());
                }
            }
        }
    }
}

/// Bits of a complex matrix, for exact comparison.
fn mat_bits(m: &CMat) -> Vec<(u64, u64)> {
    (0..m.rows())
        .flat_map(|r| m.row(r))
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Everything `prepare` leaves behind, `reused` against `fresh`.
fn assert_same_prepared_state(reused: &FlexCoreDetector, fresh: &FlexCoreDetector, what: &str) {
    let (a, b) = (&reused.triangular().qr, &fresh.triangular().qr);
    assert_eq!(a.perm, b.perm, "{what}: perm");
    assert_eq!((a.q.rows(), a.q.cols()), (b.q.rows(), b.q.cols()), "{what}");
    assert_eq!(mat_bits(&a.q), mat_bits(&b.q), "{what}: Q bits");
    assert_eq!(mat_bits(&a.r), mat_bits(&b.r), "{what}: R bits");
    assert_eq!(
        reused.position_vectors(),
        fresh.position_vectors(),
        "{what}: position vectors"
    );
    assert_eq!(
        reused.cumulative_prob().to_bits(),
        fresh.cumulative_prob().to_bits(),
        "{what}: cumulative probability bits"
    );
    assert_eq!(
        reused.preprocess_mults(),
        fresh.preprocess_mults(),
        "{what}"
    );
    assert_eq!(reused.effort(), fresh.effort(), "{what}: effort");
    assert_eq!(
        reused.extension_work(),
        fresh.extension_work(),
        "{what}: extension work"
    );
}

#[test]
fn in_place_prepare_equals_a_fresh_prepare() {
    // One detector re-prepared in place down a channel sequence against a
    // fresh clone of its template prepared on each channel alone: same
    // factors, same selection, same prices, same detections on the scalar
    // (`detect`) and the block (`detect_batch_refs`) walk.
    let c = Constellation::new(Modulation::Qam16);
    let scaled_identity = |n: usize, g: f64| {
        CMat::from_fn(n, n, |r, col| if r == col { Cx::real(g) } else { Cx::ZERO })
    };
    let orderings = [QrOrdering::Sqrd, QrOrdering::Fcsd(1), QrOrdering::Plain];
    for (o, &qr_ordering) in orderings.iter().enumerate() {
        for expand_batch in [1usize, 4] {
            for stop_threshold in [None, Some(0.95), Some(0.7)] {
                let mut cfg = FlexCoreConfig::new(16);
                cfg.qr_ordering = qr_ordering;
                cfg.expand_batch = expand_batch;
                cfg.stop_threshold = stop_threshold;
                let template = FlexCoreDetector::new(c.clone(), cfg);
                let mut rng = StdRng::seed_from_u64(0x19_0000 + (o * 8 + expand_batch) as u64);
                let mut iid = |nr: usize, nt: usize| ChannelEnsemble::iid(nr, nt).draw(&mut rng);
                // (channel, SNR dB, detect on it?)
                let mut zero_column = iid(8, 8);
                for row in 0..8 {
                    zero_column[(row, 5)] = Cx::ZERO;
                }
                let sequence = [
                    (iid(8, 8), 6.0, true),   // noisy: a long selection …
                    (iid(8, 8), 30.0, true),  // … then a shorter one than before
                    (iid(4, 4), 10.0, true),  // shape change down …
                    (iid(8, 8), 12.0, true),  // … and back up
                    (iid(12, 8), 10.0, true), // nr > nt
                    // A column with no residual (`nrm == 0`): R(0,0) = 0, so
                    // there is nothing to detect — the state must still agree.
                    (zero_column, 12.0, false),
                    // Equal R diagonals: every ln Pc ties exactly and the
                    // vector comparison decides the whole selection order.
                    (scaled_identity(8, 0.8), 8.0, true),
                    (iid(20, 20), 14.0, true), // past 16 streams …
                    (iid(8, 8), 9.0, true),    // … and back below
                ];
                let mut reused = template.clone();
                let mut longest = 0;
                for (step, (h, snr_db, detectable)) in sequence.into_iter().enumerate() {
                    if !detectable && matches!(qr_ordering, QrOrdering::Fcsd(_)) {
                        continue; // the FCSD ordering inverts the Gram matrix
                    }
                    let what = format!(
                        "{qr_ordering:?} batch {expand_batch} stop {stop_threshold:?} step {step}"
                    );
                    let sigma2 = sigma2_from_snr_db(snr_db);
                    reused.prepare(&h, sigma2);
                    let mut fresh = template.clone();
                    fresh.prepare(&h, sigma2);
                    assert_same_prepared_state(&reused, &fresh, &what);
                    if step == 1 && stop_threshold.is_some() {
                        assert!(
                            reused.active_paths() < longest,
                            "{what}: the sequence no longer shrinks the selection"
                        );
                    }
                    longest = longest.max(reused.active_paths());
                    if !detectable {
                        continue;
                    }
                    let ch = MimoChannel::new(h.clone(), snr_db);
                    let ys: Vec<Vec<Cx>> = (0..6)
                        .map(|_| {
                            let x: Vec<Cx> = (0..h.cols())
                                .map(|_| c.point(rng.gen_range(0..c.order())))
                                .collect();
                            ch.transmit(&x, &mut rng)
                        })
                        .collect();
                    let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
                    assert_eq!(
                        reused.detect_batch_refs(&refs),
                        fresh.detect_batch_refs(&refs),
                        "{what}: block walk"
                    );
                    for y in &ys {
                        assert_eq!(reused.detect(y), fresh.detect(y), "{what}: scalar walk");
                    }
                }
            }
        }
    }
}
