//! `perf_smoke` — the tracked perf baseline for the detection hot path.
//!
//! Runs a fixed 8×8 16-QAM, 48-subcarrier × 14-symbol FlexCore-16 frame
//! workload (the `frame_engine` bench numerology) through the frame engine
//! on the sequential substrate and on real worker threads, three times per
//! substrate:
//!
//! * **pr1_alloc** — a faithful re-enactment of the PR 1 hot path:
//!   per-vector `Q*` materialisation, one heap-allocated symbol vector per
//!   tree path, nested `Vec<Option<(Vec, f64)>>` reduction;
//! * **scratch_pr2** — the PR 2 allocation-free scalar path
//!   (`rotate_into`, `PathScratch`/`SymVec`, flat grids, the
//!   prefix-sharing path trie), re-enacted by forcing lane dispatch off
//!   (`set_lane_dispatch(false)`): the scalar kernels are byte-for-byte
//!   the PR 2 code, so this row keeps the BENCH trajectory PR2 → PR7
//!   comparable;
//! * **simd** — the PR 7 SoA/lane path: blocked four-observation QR
//!   rotate (`rotate_batch_into`), the four-wide trie walk over
//!   structure-of-arrays symbol planes, and `CxLane` extension/distance
//!   kernels.
//!
//! Outputs are asserted bit-identical across all three paths — and, at
//! nt ∈ {4, 8, 16, 32, 64}, across every pool/fabric substrate under both
//! dispatch modes — before any timing. Two wide-regime rows (32×32 and
//! 64×64 QPSK) record where the SoA layout wins biggest.
//!
//! Timing is **interleaved min-of-reps**: all rows take turns detecting
//! one frame per pass, and each reports its best single-frame time, so
//! host-load drift between rows cannot masquerade as a speedup (or eat a
//! real one). Frames/sec and detected Mbit/s land in `BENCH_PR7.json`
//! (path overridable with `BENCH_OUT`). `PERF_SMOKE_FAST=1` shrinks
//! repetitions for CI, where the point is that the binary runs and the
//! gates hold, not that the numbers are stable.

use flexcore::{FlexCoreDetector, PathScratch};
use flexcore_bench::{assert_grid_identity, GridView};
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble};
use flexcore_engine::{pool_for, FabricStats, FrameChannel, FrameEngine, RxFrame};
use flexcore_hwmodel::{CpuModel, HeterogeneousFabric, PeCost, WorkUnit};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::{set_lane_dispatch, Cx};
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const N_SC: usize = 48;
const N_SYM: usize = 14;
const NT: usize = 8;
const N_PE: usize = 16;
const SNR_DB: f64 = 16.0;
const SEED: u64 = 0xBE2C;

fn workload_for(
    nt: usize,
    m: Modulation,
    n_sc: usize,
    n_sym: usize,
    seed: u64,
) -> (FrameChannel, RxFrame) {
    let c = Constellation::new(m);
    let ens = ChannelEnsemble::iid(nt, nt);
    let mut rng = StdRng::seed_from_u64(seed);
    let hs = ens.draw_many(&mut rng, n_sc);
    let sigma2 = sigma2_from_snr_db(SNR_DB);
    let mut frame = RxFrame::empty(n_sc);
    for _ in 0..n_sym {
        let mut row = Vec::with_capacity(n_sc);
        for h in &hs {
            let s: Vec<usize> = (0..nt).map(|_| rng.gen_range(0..c.order())).collect();
            let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
            let mut y = h.mul_vec(&x);
            for v in &mut y {
                *v += flexcore_numeric::rng::CxRng::cx_normal(&mut rng, sigma2);
            }
            row.push(y);
        }
        frame.push_symbol(row);
    }
    (FrameChannel::per_subcarrier(hs, sigma2), frame)
}

fn workload() -> (FrameChannel, RxFrame) {
    workload_for(NT, Modulation::Qam16, N_SC, N_SYM, SEED)
}

/// The PR 1 detection hot path, re-enacted per vector: materialise `Q*`
/// for the rotate (as `Qr::rotate` did before `rotate_into`), allocate a
/// fresh scratch and a `Vec<usize>` of symbols per path (PR 1's `run_path`
/// shape), and reduce a nested `Vec<Option<(Vec, f64)>>`.
fn detect_pr1_style(det: &FlexCoreDetector, y: &[Cx]) -> Vec<usize> {
    let tri = det.triangular();
    let ybar = tri.qr.q.hermitian().mul_vec(y);
    let results: Vec<Option<(Vec<usize>, f64)>> = det
        .position_vectors()
        .iter()
        .map(|p| {
            let mut scratch = PathScratch::new();
            let metric = det.run_path_into(&ybar, p, &mut scratch)?;
            Some((scratch.symbols.to_indices(), metric))
        })
        .collect();
    let (symbols, _) = results
        .into_iter()
        .flatten()
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN metric"))
        .expect("the SIC path always completes");
    tri.qr.unpermute(&symbols)
}

/// One measurement slot in the interleaved timing loop: a frame-detection
/// closure, the lane-dispatch mode it must run under, and the best
/// (minimum) single-frame wall time seen so far.
///
/// All slots are timed round-robin — one frame each per pass, `reps`
/// passes — instead of back-to-back per row, so slow drift on a shared
/// host (frequency scaling, noisy neighbours) hits every row equally and
/// the reported *ratios* stay stable; min-of-reps then rejects the
/// remaining one-sided noise. Back-to-back rows measured minutes apart
/// were observed to swing paired ratios by ±25% on the same binary.
struct Slot<'a> {
    name: &'static str,
    pes: usize,
    lanes: bool,
    run: Box<dyn FnMut() + 'a>,
    best: f64,
}

impl<'a> Slot<'a> {
    fn new(name: &'static str, pes: usize, lanes: bool, run: Box<dyn FnMut() + 'a>) -> Self {
        Slot {
            name,
            pes,
            lanes,
            run,
            best: f64::INFINITY,
        }
    }

    fn frames_per_sec(&self) -> f64 {
        1.0 / self.best
    }
}

/// Runs the interleaved min-of-`reps` measurement over `slots` (plus one
/// untimed warm-up pass), leaving each slot's best single-frame time in
/// [`Slot::best`].
fn measure_interleaved(slots: &mut [Slot<'_>], reps: usize) {
    for s in slots.iter_mut() {
        set_lane_dispatch(s.lanes);
        (s.run)(); // warm-up
    }
    for _ in 0..reps {
        for s in slots.iter_mut() {
            set_lane_dispatch(s.lanes);
            let t0 = Instant::now();
            (s.run)();
            s.best = s.best.min(t0.elapsed().as_secs_f64());
        }
    }
    set_lane_dispatch(true);
}

struct Row {
    name: &'static str,
    pes: usize,
    frames_per_sec: f64,
    mbit_per_sec: f64,
}

struct WideRow {
    nt: usize,
    modulation: &'static str,
    n_pe: usize,
    scalar_fps: f64,
    simd_fps: f64,
}

/// The acceptance grid: at nt ∈ {4, 8, 16, 32, 64}, scalar and SIMD
/// dispatch must produce identical frames on every pool/fabric substrate.
/// Panics (via `assert_grid_identity`) on the first diverging cell.
fn substrate_dispatch_gate() {
    let grid = [
        (4usize, Modulation::Qam16),
        (8, Modulation::Qam16),
        (16, Modulation::Qam16),
        (32, Modulation::Qpsk),
        (64, Modulation::Qpsk),
    ];
    for (nt, m) in grid {
        let (channel, frame) = workload_for(nt, m, 3, 6, SEED ^ nt as u64);
        let unit_s = CpuModel::fx8120().unit_seconds(&WorkUnit::new(nt, 16));
        let seq = SequentialPool::new(1);
        let wq = CrossbeamPool::work_queue(3);
        let weighted = pool_for(&HeterogeneousFabric::uniform("flat", 3));
        let fabric = pool_for(&HeterogeneousFabric::lte_smallcell());
        let mut outs = Vec::new();
        for lanes in [false, true] {
            set_lane_dispatch(lanes);
            let mut engine =
                FrameEngine::new(FlexCoreDetector::with_pes(Constellation::new(m), N_PE));
            engine.prepare(&channel);
            outs.push(engine.detect_frame(&frame, &seq));
            outs.push(engine.detect_frame(&frame, &wq));
            outs.push(engine.detect_frame(&frame, &weighted));
            outs.push(engine.detect_frame(&frame, &fabric));
            // The fabric placed the engine's priced batches; its record
            // must audit (every vector pays at least its nt² rotate).
            let run = fabric.last_run().expect("the fabric recorded the run");
            let audit = FabricStats::from_run(&run, fabric.speeds(), unit_s);
            assert!(audit.total_units >= (nt * nt * frame.n_vectors()) as u64);
        }
        set_lane_dispatch(true);
        for other in &outs[1..] {
            assert_grid_identity(
                "perf_smoke substrate/dispatch",
                &GridView::from_detected(&outs[0]),
                &GridView::from_detected(other),
            );
        }
        println!(
            "bit-identity: {nt}x{nt} scalar == simd on 4 substrates x 2 dispatch modes ({} cells)",
            outs.len() * 3 * 6
        );
    }
}

fn main() {
    let fast = std::env::var("PERF_SMOKE_FAST").is_ok();
    let reps: usize = if fast { 2 } else { 30 };
    let wide_reps = reps.div_ceil(3).max(2);
    let bits_per_frame =
        (N_SC * N_SYM * NT * Constellation::new(Modulation::Qam16).bits_per_symbol()) as f64;

    let (channel, frame) = workload();
    let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
        Constellation::new(Modulation::Qam16),
        N_PE,
    ));
    engine.prepare(&channel);

    let seq = SequentialPool::new(1);
    let wq2 = CrossbeamPool::work_queue(2);
    let wq4 = CrossbeamPool::work_queue(4);

    // Bit-identity gates: scratch_pr2 (scalar dispatch) must reproduce the
    // PR 1 path exactly, and the SIMD path must reproduce scratch_pr2
    // exactly, on every cell before any number is reported.
    set_lane_dispatch(false);
    let scratch_out = engine.detect_frame(&frame, &seq);
    let pr1_out = engine.process_frame(&frame, &seq, |det, _sc, ys| {
        ys.iter().map(|y| detect_pr1_style(det, y)).collect()
    });
    assert_grid_identity(
        "perf_smoke scratch_pr2/pr1",
        &GridView::from_detected(&scratch_out),
        &GridView::new(N_SC, pr1_out.iter().map(Vec::as_slice).collect()),
    );
    set_lane_dispatch(true);
    let simd_out = engine.detect_frame(&frame, &seq);
    assert_grid_identity(
        "perf_smoke simd/scratch_pr2",
        &GridView::from_detected(&simd_out),
        &GridView::from_detected(&scratch_out),
    );
    println!(
        "bit-identity: simd == scratch_pr2 == pr1 on all {} cells",
        pr1_out.len()
    );
    substrate_dispatch_gate();

    // Main table: every row is one slot in a single interleaved
    // min-of-reps loop (see [`Slot`]). pr1/scratch_pr2 slots run with lane
    // dispatch forced off so the scalar kernels they exercise are
    // byte-for-byte the historical baselines; simd slots run the PR 7
    // blocked QR rotate + four-wide walk.
    let mut slots: Vec<Slot<'_>> = vec![
        Slot::new(
            "pr1_alloc/sequential",
            1,
            false,
            Box::new(|| {
                let _ = engine.process_frame(&frame, &seq, |det, _sc, ys| {
                    ys.iter().map(|y| detect_pr1_style(det, y)).collect()
                });
            }),
        ),
        Slot::new(
            "scratch_pr2/sequential",
            1,
            false,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &seq);
            }),
        ),
        Slot::new(
            "scratch_pr2/work_queue",
            2,
            false,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &wq2);
            }),
        ),
        Slot::new(
            "scratch_pr2/work_queue",
            4,
            false,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &wq4);
            }),
        ),
        Slot::new(
            "simd/sequential",
            1,
            true,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &seq);
            }),
        ),
        Slot::new(
            "simd/work_queue",
            2,
            true,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &wq2);
            }),
        ),
        Slot::new(
            "simd/work_queue",
            4,
            true,
            Box::new(|| {
                let _ = engine.detect_frame(&frame, &wq4);
            }),
        ),
    ];
    measure_interleaved(&mut slots, reps);
    let rows: Vec<Row> = slots
        .iter()
        .map(|s| Row {
            name: s.name,
            pes: s.pes,
            frames_per_sec: s.frames_per_sec(),
            mbit_per_sec: s.frames_per_sec() * bits_per_frame / 1e6,
        })
        .collect();
    let fps_of = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .expect("row present")
            .frames_per_sec
    };
    let pr1_seq = fps_of("pr1_alloc/sequential");
    let scratch_seq = fps_of("scratch_pr2/sequential");
    let simd_seq = fps_of("simd/sequential");
    drop(slots);

    // Wide-regime rows: 32×32 and 64×64 QPSK uplinks, where four-wide SoA
    // planes amortise best. Sequential substrate, scalar vs SIMD dispatch,
    // interleaved the same way.
    let mut wide: Vec<WideRow> = Vec::new();
    for (nt, m, mname, n_pe, n_sc, n_sym) in [
        (32usize, Modulation::Qpsk, "QPSK", 32usize, 12usize, 4usize),
        (64, Modulation::Qpsk, "QPSK", 64, 6, 2),
    ] {
        let (wch, wframe) = workload_for(nt, m, n_sc, n_sym, SEED ^ (nt as u64) << 8);
        let mut wengine = FrameEngine::new(FlexCoreDetector::with_pes(Constellation::new(m), n_pe));
        wengine.prepare(&wch);
        set_lane_dispatch(false);
        let a = wengine.detect_frame(&wframe, &seq);
        set_lane_dispatch(true);
        let b = wengine.detect_frame(&wframe, &seq);
        assert_grid_identity(
            "perf_smoke wide simd/scalar",
            &GridView::from_detected(&b),
            &GridView::from_detected(&a),
        );
        let mut wslots = vec![
            Slot::new(
                "wide/scalar",
                1,
                false,
                Box::new(|| {
                    let _ = wengine.detect_frame(&wframe, &seq);
                }),
            ),
            Slot::new(
                "wide/simd",
                1,
                true,
                Box::new(|| {
                    let _ = wengine.detect_frame(&wframe, &seq);
                }),
            ),
        ];
        measure_interleaved(&mut wslots, wide_reps);
        wide.push(WideRow {
            nt,
            modulation: mname,
            n_pe,
            scalar_fps: wslots[0].frames_per_sec(),
            simd_fps: wslots[1].frames_per_sec(),
        });
    }

    let speedup_pr2 = scratch_seq / pr1_seq;
    let speedup_simd = simd_seq / scratch_seq;
    println!(
        "\nperf_smoke ({NT}x{NT} 16-QAM, {N_SC} sc x {N_SYM} sym, FlexCore-{N_PE}, \
         min over {reps} interleaved reps)"
    );
    println!(
        "{:<24} {:>4} {:>12} {:>10}",
        "path/substrate", "PEs", "frames/sec", "Mbit/s"
    );
    for r in &rows {
        println!(
            "{:<24} {:>4} {:>12.1} {:>10.2}",
            r.name, r.pes, r.frames_per_sec, r.mbit_per_sec
        );
    }
    println!("speedup scratch_pr2 vs pr1_alloc (sequential/1): {speedup_pr2:.2}x");
    println!("speedup simd vs scratch_pr2 (sequential/1): {speedup_simd:.2}x");
    for w in &wide {
        println!(
            "wide {nt}x{nt} {m} FlexCore-{pe}: scalar {s:.1} f/s, simd {v:.1} f/s ({x:.2}x)",
            nt = w.nt,
            m = w.modulation,
            pe = w.n_pe,
            s = w.scalar_fps,
            v = w.simd_fps,
            x = w.simd_fps / w.scalar_fps
        );
    }

    // Hand-rolled JSON (the workspace is offline; no serde).
    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"perf_smoke\",\n");
    json.push_str("  \"pr\": 7,\n");
    let _ = writeln!(
        json,
        "  \"workload\": {{\"nt\": {NT}, \"modulation\": \"16-QAM\", \"subcarriers\": {N_SC}, \
         \"ofdm_symbols\": {N_SYM}, \"detector\": \"FlexCore-{N_PE}\", \"snr_db\": {SNR_DB}, \
         \"reps\": {reps}, \"fast_mode\": {fast}}},"
    );
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"path\": \"{}\", \"pes\": {}, \"frames_per_sec\": {:.2}, \"mbit_per_sec\": {:.3}}}{}",
            r.name,
            r.pes,
            r.frames_per_sec,
            r.mbit_per_sec,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"wide_regime\": [\n");
    for (i, w) in wide.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"nt\": {}, \"modulation\": \"{}\", \"n_pe\": {}, \
             \"scalar_frames_per_sec\": {:.2}, \"simd_frames_per_sec\": {:.2}, \
             \"simd_speedup\": {:.3}}}{}",
            w.nt,
            w.modulation,
            w.n_pe,
            w.scalar_fps,
            w.simd_fps,
            w.simd_fps / w.scalar_fps,
            if i + 1 == wide.len() { "" } else { "," }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"speedup_scratch_pr2_vs_pr1_sequential\": {speedup_pr2:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_simd_vs_scratch_pr2_sequential\": {speedup_simd:.3},"
    );
    json.push_str(
        "  \"identity_note\": \"Every timed row is gated: simd == scratch_pr2 == pr1_alloc \
         bit-for-bit on all 672 grid cells, and scalar-vs-SIMD dispatch is asserted identical \
         across sequential/work-queue/weighted/fabric substrates at nt in {4,8,16,32,64} before \
         any timing. scratch_pr2 rows force lane dispatch off, so the scalar kernels they run \
         are byte-for-byte the PR 2 baseline and the BENCH trajectory PR2 -> PR7 stays \
         comparable. simd rows run the PR 7 SoA path: blocked four-observation QR rotate, \
         four-wide trie walk over structure-of-arrays symbol planes, and CxLane \
         extension/LUT-distance kernels. Per-element operation order is unchanged, so no \
         tolerance is involved anywhere — identity is exact.\"\n",
    );
    json.push_str("}\n");

    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_PR7.json",
            env!("CARGO_MANIFEST_DIR").trim_end_matches('/')
        )
    });
    std::fs::write(&out, &json).expect("write BENCH_PR7.json");
    println!("wrote {out}");
}
