//! Allocation-regression guard for the detection hot path.
//!
//! The spill-capable `SymVec` must not tax the paper-regime (nt ≤ 16)
//! kernels: after `prepare()`, a warmed path evaluation touches the heap
//! zero times, exactly as the fixed-capacity storage guaranteed. Beyond
//! the inline bound the contract weakens only to *steady state*: once a
//! scratch has seen the width, further evaluations are allocation-free
//! because `reset`/`clone_from` reuse the spill buffers.
//!
//! The same discipline covers the channel-rate step: after one warm-up
//! `prepare`, a re-prepare on a new channel of the same shape overwrites
//! the prepared state in place — zero heap traffic for a detector at
//! nt ≤ 16 and for a whole `FrameEngine` band no plan shares.
//!
//! This binary installs a counting global allocator, so everything runs
//! inside the single `#[test]` below — libtest would otherwise run tests
//! on sibling threads and bleed their allocations into the counter.

use flexcore::{CellDetector, FlexCoreDetector};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel, MimoChannel};
use flexcore_coding::{CodeRate, ConvCode, ViterbiScratch};
use flexcore_detect::common::{Detector, PathScratch};
use flexcore_detect::FcsdDetector;
use flexcore_engine::{ChannelStream, FrameChannel, FrameEngine, StreamingCell};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::symvec::{SymVec, INLINE_STREAMS};
use flexcore_numeric::{sorted_qr_sqrd, sorted_qr_sqrd_into, Cx};
use flexcore_parallel::SequentialPool;
use flexcore_phy::link::{cell_packet_tick, LinkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

fn workload(nt: usize, m: Modulation, seed: u64) -> (FlexCoreDetector, Vec<Vec<Cx>>, f64) {
    let c = Constellation::new(m);
    let mut rng = StdRng::seed_from_u64(seed);
    let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
    let snr = 18.0;
    let ch = MimoChannel::new(h.clone(), snr);
    let ys: Vec<Vec<Cx>> = (0..8)
        .map(|_| {
            let x: Vec<Cx> = (0..nt)
                .map(|_| c.point(rng.gen_range(0..c.order())))
                .collect();
            ch.transmit(&x, &mut rng)
        })
        .collect();
    let mut det = FlexCoreDetector::with_pes(c, 12);
    det.prepare(&h, sigma2_from_snr_db(snr));
    (det, ys, sigma2_from_snr_db(snr))
}

#[test]
fn hot_path_allocation_budget() {
    // --- SymVec storage itself -------------------------------------------
    // Inline construction never allocates, right up to the boundary.
    assert_eq!(allocs_in(|| drop(SymVec::new())), 0);
    assert_eq!(allocs_in(|| drop(SymVec::zeroed(INLINE_STREAMS))), 0);
    // The first spilled width allocates exactly its buffer.
    assert_eq!(allocs_in(|| drop(SymVec::zeroed(INLINE_STREAMS + 1))), 1);
    // A warmed spilled vector resets across the boundary (both
    // directions) and is overwritten without further allocation.
    let mut warmed = SymVec::zeroed(64);
    let wide = SymVec::zeroed(40);
    assert_eq!(
        allocs_in(|| {
            warmed.reset(4);
            warmed.reset(64);
            warmed.clone_from(&wide);
        }),
        0
    );
    // An inline vector stays allocation-free through inline resets.
    let mut inline = SymVec::zeroed(12);
    assert_eq!(
        allocs_in(|| {
            inline.reset(INLINE_STREAMS);
            inline.reset(2);
        }),
        0
    );

    // --- Paper-regime kernels (nt ≤ 16): zero heap after prepare ---------
    for nt in [4usize, 12, INLINE_STREAMS] {
        let (det, ys, _) = workload(nt, Modulation::Qam16, nt as u64);
        let tri = det.triangular();
        let mut scratch = PathScratch::default();
        // Warm the ybar buffer (sized on first rotate).
        let mut ybar = vec![Cx::ZERO; nt];
        tri.qr.rotate_into(&ys[0], &mut ybar);
        let _ = det.run_path_into(&ybar, &det.position_vectors()[0], &mut scratch);
        let n = allocs_in(|| {
            for y in &ys {
                tri.qr.rotate_into(y, &mut ybar);
                for p in det.position_vectors() {
                    let _ = det.run_path_into(&ybar, p, &mut scratch);
                }
            }
        });
        assert_eq!(n, 0, "FlexCore kernel allocated at nt={nt}");
    }

    // FCSD's kernel under the same discipline.
    {
        let nt = 8;
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(99);
        let h = ChannelEnsemble::iid(nt, nt).draw(&mut rng);
        let mut det = FcsdDetector::new(c.clone(), 1);
        det.prepare(&h, sigma2_from_snr_db(18.0));
        let tri = det.triangular();
        let y: Vec<Cx> = (0..nt).map(|_| c.point(rng.gen_range(0..16))).collect();
        let mut ybar = vec![Cx::ZERO; nt];
        tri.qr.rotate_into(&y, &mut ybar);
        let mut scratch = PathScratch::default();
        let _ = det.run_path_into(&ybar, 0, &mut scratch);
        let n = allocs_in(|| {
            for idx in 0..det.paths() {
                let _ = det.run_path_into(&ybar, idx, &mut scratch);
            }
        });
        assert_eq!(n, 0, "FCSD kernel allocated");
    }

    // --- Spilled regime (nt > 16): steady-state allocation-free ----------
    for nt in [17usize, 32] {
        let (det, ys, _) = workload(nt, Modulation::Qam16, 100 + nt as u64);
        let tri = det.triangular();
        let mut scratch = PathScratch::default();
        let mut ybar = vec![Cx::ZERO; nt];
        // First evaluation spills the scratch; everything after reuses it.
        tri.qr.rotate_into(&ys[0], &mut ybar);
        let _ = det.run_path_into(&ybar, &det.position_vectors()[0], &mut scratch);
        let n = allocs_in(|| {
            for y in &ys {
                tri.qr.rotate_into(y, &mut ybar);
                for p in det.position_vectors() {
                    let _ = det.run_path_into(&ybar, p, &mut scratch);
                }
            }
        });
        assert_eq!(n, 0, "spilled FlexCore kernel allocated at nt={nt}");
    }

    // Same spilled width through the scalar twins (the rotate's scalar
    // form and the per-path walk): they honour the identical steady-state
    // budget, so the zero-alloc guarantee is a property of the kernels,
    // not of the lane path the input size happens to pick.
    {
        let nt = 32;
        let (det, ys, _) = workload(nt, Modulation::Qam16, 300 + nt as u64);
        let q = &det.triangular().qr.q;
        let mut scratch = PathScratch::default();
        let mut ybar = vec![Cx::ZERO; nt];
        q.mul_vec_hermitian_into_scalar(&ys[0], &mut ybar);
        let _ = det.run_path_into(&ybar, &det.position_vectors()[0], &mut scratch);
        let n = allocs_in(|| {
            for y in &ys {
                q.mul_vec_hermitian_into_scalar(y, &mut ybar);
                for p in det.position_vectors() {
                    let _ = det.run_path_into(&ybar, p, &mut scratch);
                }
            }
        });
        assert_eq!(n, 0, "scalar-twin FlexCore kernel allocated at nt={nt}");
    }

    // --- Full detect surface: a warm batch touches no heap ---------------
    // detect_batch_into writes into the caller's plane and walks in this
    // thread's scratch, which the first batch of a shape sizes (per-node
    // points, metrics and symbols, the winner buffer): from then on a
    // batch of any length — full blocks, a masked partial tail, one vector
    // — allocates nothing, inline and spilled widths alike.
    for nt in [4usize, 8, INLINE_STREAMS, INLINE_STREAMS + 1, 32, 64] {
        let (det, ys, _) = workload(nt, Modulation::Qam16, 200 + nt as u64);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let mut plane = vec![0u16; refs.len() * nt];
        det.detect_batch_into(&refs, &mut plane);
        for n in [1usize, 4, 7, 8] {
            let rows = &mut plane[..n * nt];
            let allocs = allocs_in(|| det.detect_batch_into(&refs[..n], rows));
            assert_eq!(
                allocs, 0,
                "warm detect_batch_into of {n} vectors allocated at nt={nt}"
            );
        }
    }

    // A one-path selection (FlexCore-1 here; most a-FlexCore channels at
    // high SNR) whose batch runs alone, not in a lane group, takes the
    // general block walk in the thread's scratch: once the thread has seen
    // the shape, a batch allocates nothing at 4, 8 and 16 rows.
    for nt in [4usize, 8, INLINE_STREAMS] {
        let (_, ys, sigma2) = workload(nt, Modulation::Qam16, 300 + nt as u64);
        let mut det = FlexCoreDetector::with_pes(Constellation::new(Modulation::Qam16), 1);
        let mut rng = StdRng::seed_from_u64(300 + nt as u64);
        det.prepare(&ChannelEnsemble::iid(nt, nt).draw(&mut rng), sigma2);
        assert_eq!(det.active_paths(), 1);
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let mut plane = vec![0u16; refs.len() * nt];
        det.detect_batch_into(&refs, &mut plane);
        for n in [1usize, 3, 4, 7, 8] {
            let rows = &mut plane[..n * nt];
            let allocs = allocs_in(|| det.detect_batch_into(&refs[..n], rows));
            assert_eq!(
                allocs, 0,
                "warm one-path detect_batch_into of {n} vectors allocated at nt={nt}"
            );
        }
    }

    // Four one-path subcarriers to a lane block: a group call copies its
    // slots' factors into stack lane planes and allocates nothing, at
    // both plane sizes (4 and 8 rows), for two to four slots, directly
    // and through `CellDetector`.
    for nt in [4usize, 8] {
        let c16 = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(320 + nt as u64);
        let (_, ys, sigma2) = workload(nt, Modulation::Qam16, 320 + nt as u64);
        let slots: Vec<CellDetector> = (0..4)
            .map(|_| {
                let mut det = CellDetector::fixed(c16.clone(), 1);
                det.prepare(&ChannelEnsemble::iid(nt, nt).draw(&mut rng), sigma2);
                det
            })
            .collect();
        let cell: Vec<&CellDetector> = slots.iter().collect();
        let cores: Vec<&FlexCoreDetector> = slots.iter().filter_map(CellDetector::core).collect();
        assert!(cell.iter().all(|d| cell[0].groups_with(d)));
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let mut plane = vec![0u16; refs.len() * nt];
        for g in 2..=4 {
            let ys = &refs[..g * 2];
            let rows = &mut plane[..g * 2 * nt];
            FlexCoreDetector::detect_group_into(&cores[..g], ys, rows);
            let direct = allocs_in(|| FlexCoreDetector::detect_group_into(&cores[..g], ys, rows));
            let wrapped = allocs_in(|| CellDetector::detect_group_into(&cell[..g], ys, rows));
            assert_eq!(
                (direct, wrapped),
                (0, 0),
                "warm group call of {g} slots allocated at nt={nt}"
            );
        }
    }

    // --- The frame engine and the serving cell: per call, not per vector --
    // A warm detect_frame / detect_tick plans and runs into planes, so what
    // it allocates (the plan, one slice table and task list per run, the
    // returned frames) does not depend on the grid: two grid sizes, one
    // count.
    {
        let c16 = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(4, 4);
        let pool = SequentialPool::new(4);
        let counts = |n_sc: usize, n_sym: usize| -> (u64, u64) {
            let mut rng = StdRng::seed_from_u64(450 + n_sc as u64);
            let mut cell = StreamingCell::new();
            let mut frames = Vec::new();
            for _ in 0..3 {
                let stream = ChannelStream::new(&ens, n_sc, 0.9, 3, 0.02, &mut rng);
                let frame = stream.transmit_frame(
                    n_sym,
                    |_, _| (0..4).map(|_| c16.point(rng.gen_range(0..16))).collect(),
                    &mut StdRng::seed_from_u64(7),
                );
                cell.add_user(stream, CellDetector::adaptive(c16.clone(), 16, 0.95));
                frames.push(frame);
            }
            let tick = |cell: &mut StreamingCell<CellDetector>| {
                let queued: Vec<_> = frames.clone();
                allocs_in(|| {
                    for (u, frame) in queued.into_iter().enumerate() {
                        cell.submit(u, frame);
                    }
                    drop(cell.detect_tick(&pool));
                })
            };
            tick(&mut cell);
            let per_tick = tick(&mut cell);
            let engine = cell.engine(0);
            drop(engine.detect_frame(&frames[0], &pool));
            let per_frame = allocs_in(|| drop(engine.detect_frame(&frames[0], &pool)));
            (per_frame, per_tick)
        };
        let (small, large) = (counts(12, 3), counts(48, 14));
        assert_eq!(
            small, large,
            "detect_frame / detect_tick allocations grew with the grid"
        );
    }

    // The blocked rotate on its own: the block's transposed observations
    // are a stack tile, never a per-block Vec — full blocks, a scalar tail,
    // and (130 × 8) a `Q` taller than one tile.
    for (nr, nt) in [(4usize, 4usize), (8, 8), (64, 64), (130, 8)] {
        let mut rng = StdRng::seed_from_u64(300 + nr as u64);
        let qr = sorted_qr_sqrd(&ChannelEnsemble::iid(nr, nt).draw(&mut rng));
        let ys: Vec<Vec<Cx>> = (0..7)
            .map(|_| (0..nr).map(|_| rng.cx_normal(1.0)).collect())
            .collect();
        let refs: Vec<&[Cx]> = ys.iter().map(Vec::as_slice).collect();
        let mut out = vec![Cx::ZERO; refs.len() * nt];
        let n = allocs_in(|| qr.rotate_batch_into(&refs, &mut out));
        assert_eq!(n, 0, "rotate_batch_into allocated at {nr}x{nt}");
    }

    // The SQRD on its own: a refresh writes into the `Qr` it replaces, and
    // works in this thread's planes, sized by the first call of a shape —
    // so once every shape has been seen, none of them allocates, in any
    // order (the planes shrink and grow across them without the heap).
    {
        let mut rng = StdRng::seed_from_u64(350);
        let shapes = [(4usize, 4usize), (8, 8), (64, 64), (70, 64)];
        let hs: Vec<_> = shapes
            .iter()
            .map(|&(nr, nt)| ChannelEnsemble::iid(nr, nt).draw(&mut rng))
            .collect();
        let mut qrs: Vec<_> = hs.iter().map(sorted_qr_sqrd).collect();
        for ((h, qr), (nr, nt)) in hs.iter().zip(&mut qrs).zip(shapes).rev() {
            let n = allocs_in(|| sorted_qr_sqrd_into(h, qr));
            assert_eq!(n, 0, "warm sorted_qr_sqrd_into allocated at {nr}x{nt}");
        }
    }

    // --- Re-prepare: a channel refresh overwrites the state it replaces ---
    // After one warm-up prepare, a second prepare on a different channel
    // of the same shape is allocation-free at the inline widths — fixed
    // and a-FlexCore (whose selection length moves with the channel).
    let c16 = Constellation::new(Modulation::Qam16);
    let sigma2 = sigma2_from_snr_db(12.0);
    for nt in [4usize, 8, INLINE_STREAMS, INLINE_STREAMS + 1, 64] {
        let mut rng = StdRng::seed_from_u64(400 + nt as u64);
        let hs = ChannelEnsemble::iid(nt, nt).draw_many(&mut rng, 4);
        for adaptive in [false, true] {
            let mut det = if adaptive {
                FlexCoreDetector::adaptive(c16.clone(), 12, 0.95)
            } else {
                FlexCoreDetector::with_pes(c16.clone(), 12)
            };
            det.prepare(&hs[0], sigma2);
            let n = allocs_in(|| {
                for h in &hs[1..] {
                    det.prepare(h, sigma2);
                }
            });
            let what = format!("nt={nt} adaptive={adaptive}");
            if nt <= INLINE_STREAMS || !adaptive {
                assert_eq!(n, 0, "warm re-prepare allocated: {what}");
            } else {
                // Spilled position vectors own a heap buffer each: a
                // selection that grows past its previous length buys
                // the new ones, never more than the budget per refresh.
                assert!(n <= 3 * 12, "warm re-prepare allocated {n}: {what}");
            }
        }
    }

    // A whole band: every subcarrier of a 48-wide frame channel refreshed,
    // no plan sharing the slots.
    {
        let mut rng = StdRng::seed_from_u64(500);
        let ens = ChannelEnsemble::iid(8, 8);
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(c16.clone(), 16));
        let first = FrameChannel::per_subcarrier(ens.draw_many(&mut rng, 48), sigma2);
        let second = FrameChannel::per_subcarrier(ens.draw_many(&mut rng, 48), sigma2);
        assert_eq!(engine.prepare(&first), 48);
        let mut refreshed = 0;
        let n = allocs_in(|| refreshed = engine.prepare(&second));
        assert_eq!(refreshed, 48);
        assert_eq!(n, 0, "FrameEngine::prepare allocated on an unshared band");
    }

    // --- The coded uplink: encoder and Viterbi into caller-owned buffers --
    // Once a `ViterbiScratch` and the output Vecs have seen a packet
    // length, encoding and decoding it again — hard or soft, any rate —
    // touches the heap zero times: path metrics live in registers,
    // decisions in the scratch.
    {
        let mut rng = StdRng::seed_from_u64(600);
        let mut scratch = ViterbiScratch::default();
        let mut decoded = Vec::new();
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let code = ConvCode::new(rate);
            let info: Vec<u8> = (0..240).map(|_| rng.gen_range(0..2u8)).collect();
            let coded = code.encode(&info);
            // Hard bits as saturated LLRs (±50, the soft decoder's clamp).
            let llrs: Vec<f64> = coded
                .iter()
                .map(|&b| if b == 0 { 50.0 } else { -50.0 })
                .collect();
            code.decode_into(&coded, info.len(), &mut scratch, &mut decoded);
            let mut encoded = Vec::new();
            code.encode_into(&info, &mut encoded);
            let n = allocs_in(|| {
                code.encode_into(&info, &mut encoded);
                assert_eq!(encoded, coded);
                code.decode_into(&coded, info.len(), &mut scratch, &mut decoded);
                assert_eq!(decoded, info);
                code.decode_soft_into(&llrs, info.len(), &mut scratch, &mut decoded);
                assert_eq!(decoded, info);
            });
            assert_eq!(n, 0, "warmed Viterbi allocated at {rate:?}");
        }
    }

    // One warmed serving tick at the benchmark's `cell_coded` shape: 8
    // users, 4×4 16-QAM a-FlexCore, 30-byte packets, sequential pool. The
    // tick detects into the cell's plane, builds each frame with its
    // transmit vector in a stack buffer, and runs the coded chains in the
    // codec's buffers; the pinned ceiling is what is left. Channel ageing
    // copies each refreshed estimate over the one it replaces, and the
    // codec (tables and buffers) is built once per thread and link
    // configuration, so neither allocates in a warm tick. Of the 69:
    // receive chains 25 (the outcome `Vec`s), the submit, plan and run 19,
    // transmit chains 17 (per user the payload and symbol planes), the
    // frames 8 (one plane each).
    {
        let cfg = LinkConfig::paper_default(c16.clone(), 30);
        let ens = ChannelEnsemble::iid(4, 4);
        let rho = GaussMarkovChannel::rho_from_doppler(0.02);
        let mut cell = StreamingCell::new();
        for u in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(700 + u);
            let sigma2 = sigma2_from_snr_db(16.0);
            let stream = ChannelStream::new(&ens, cfg.ofdm.n_data, rho, 4, sigma2, &mut rng);
            cell.add_user(stream, CellDetector::adaptive(c16.clone(), 16, 0.95));
        }
        let mut rngs: Vec<StdRng> = (0..8).map(|u| StdRng::seed_from_u64(800 + u)).collect();
        let pool = SequentialPool::new(8);
        drop(cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs));
        let n = allocs_in(|| drop(cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs)));
        assert!(n <= 69, "a warmed cell_coded-shaped tick allocated {n}");
    }

    // --- Discipline coverage: lint regions match the measured surface ----
    // Everything this counting-allocator test just exercised must sit
    // inside a `// flexcore-lint: hot-path` region, so FL001 statically
    // guards exactly the code whose budget was measured above. (Kept in
    // this single #[test]: a sibling test thread would bleed allocations
    // into the counter.)
    {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let marked = flexcore_lint::hot_path_modules(root).expect("lint scan");
        for exercised in [
            "crates/numeric/src/symvec.rs",  // SymVec storage contract
            "crates/numeric/src/qr.rs",      // rotate_into, the split-plane SQRD sweeps
            "crates/numeric/src/lanes.rs",   // lane kernels inside run_path_into
            "crates/detect/src/common.rs",   // Triangular::rotate_into, PathScratch
            "crates/core/src/detector.rs",   // FlexCore run_path_into / trie walk / prepare
            "crates/core/src/preprocess.rs", // the best-first search workspace
            "crates/core/src/model.rs",      // level-model refit
            "crates/core/src/position.rs",   // position-vector overwrites
            "crates/detect/src/fcsd.rs",     // FCSD run_path_into
            "crates/coding/src/conv.rs",     // the Viterbi step loop and its ACS kernel
            "crates/engine/src/tick.rs",     // the run core's scatter into planes
            "crates/engine/src/frame.rs",    // RxFrame::get, the run's slice table
            "crates/phy/src/link.rs",        // the receive chains' demap loop
        ] {
            assert!(
                marked.iter().any(|m| m == exercised),
                "{exercised} is exercised by the allocation test but carries no \
                 hot-path lint region; marked modules: {marked:?}"
            );
        }
    }
}
