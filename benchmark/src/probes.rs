//! Per-layer probes: each calls one layer's public function on the
//! workload's *own* matrices, columns or packets (never synthetic ones)
//! and reports the quiet-decile of `reps` repetitions.
//!
//! A probe gives the cost of a layer in isolation, warm. It says which
//! end-to-end metric a change to that layer should move (see README.md);
//! it is never itself an end-to-end number.

use crate::stats::{quiet_pick, Better};
use crate::workloads::{CodedCell, Kind, ProbeView, Spec};
use flexcore::CellDetector;
use flexcore_coding::{crc_check, ConvCode, Interleaver};
use flexcore_detect::common::Detector;
use flexcore_engine::{FrameEngine, RxFrame, StreamingCell};
use flexcore_modulation::OrderingLut;
use flexcore_numeric::{sorted_qr_sqrd, Cx, LANES};
use flexcore_parallel::{bounded, CrossbeamPool, PePool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Quiet-decile seconds of `reps` timed repetitions of `f`.
fn quiet_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    quiet_pick(&times, Better::Lower)
}

/// The probes every workload runs, on its own engine, channel and frame.
pub fn common(view: &ProbeView<'_>, spec: &Spec, reps: usize, out: &mut Layers) {
    let engine = view.engine;
    let channel = view.stream.estimate();
    let frame = view.frame;
    let (n_sc, n_sym, nt) = (spec.n_sc, frame.n_symbols(), spec.nt);
    let vectors = (n_sc * n_sym) as f64;
    let columns: Vec<Vec<&[Cx]>> = (0..n_sc)
        .map(|sc| (0..n_sym).map(|sym| frame.get(sym, sc)).collect())
        .collect();

    // numeric: the sorted QR `FlexCoreDetector::prepare` runs, and the
    // blocked rotate `detect_batch_refs` runs, on the prepared factors.
    let qr_s = quiet_seconds(reps, || {
        for sc in 0..n_sc {
            black_box(sorted_qr_sqrd(channel.h(sc)));
        }
    });
    out.insert("numeric.qr_us", qr_s / n_sc as f64 * 1e6);
    let mut rotated = vec![Cx::ZERO; n_sym * nt];
    let rotate_s = quiet_seconds(reps, || {
        for (sc, ys) in columns.iter().enumerate() {
            if let Some(core) = engine.detector(sc).core() {
                core.triangular().qr.rotate_batch_into(ys, &mut rotated);
            }
        }
        black_box(&rotated);
    });
    out.insert("numeric.rotate_ns_per_vec", rotate_s / vectors * 1e9);
    // Computed, not measured: Q is streamed once per four-observation
    // block, y is read and ȳ written once per vector, 16 B per complex.
    out.insert(
        "numeric.rotate_bytes_per_vec",
        (16 * (nt * nt / LANES + 2 * nt)) as f64,
    );

    // modulation: cold ordering-LUT build, and the locate + rank read the
    // trie walk does per node, on this frame's rotated observations.
    let c = engine.template().constellation().clone();
    let lut_s = quiet_seconds(reps, || {
        let lut = OrderingLut::new(c.modulation(), c.order());
        black_box(lut.build_table(&c, false));
    });
    out.insert("modulation.lut_build_ms", lut_s * 1e3);
    let lut = OrderingLut::new(c.modulation(), c.order());
    let table = lut.build_table(&c, false);
    // `rotated` now holds the last subcarrier's ȳ columns; dividing by the
    // diagonal of R puts them where the walk's effective points fall.
    let diag: Vec<f64> = engine
        .detector(n_sc - 1)
        .core()
        .map(|core| {
            let r = &core.triangular().qr.r;
            (0..nt).map(|i| r[(i, i)].re).collect()
        })
        .unwrap_or_else(|| vec![1.0; nt]);
    let effective: Vec<Cx> = rotated
        .iter()
        .enumerate()
        .map(|(i, y)| y.scale(1.0 / diag[i % nt]))
        .collect();
    let points: Vec<[Cx; LANES]> = effective
        .chunks_exact(LANES)
        .map(|p| [p[0], p[1], p[2], p[3]])
        .collect();
    const LOCATE_PASSES: usize = 64;
    let locate_s = quiet_seconds(reps, || {
        let mut acc = 0usize;
        for _ in 0..LOCATE_PASSES {
            for block in &points {
                for (ci, cj, tri) in table.locate_array(&lut, &c, block) {
                    if let Some(base) = table.base(ci, cj, tri) {
                        acc += table.get(base, 1).unwrap_or(0);
                    }
                }
            }
        }
        black_box(acc);
    });
    out.insert(
        "modulation.locate_ns",
        locate_s / (LOCATE_PASSES * points.len() * LANES) as f64 * 1e9,
    );

    // detect: the tier ladder's floor on the same channel and columns.
    let mut sics: Vec<CellDetector> = (0..n_sc).map(|_| CellDetector::sic(c.clone())).collect();
    for (sc, sic) in sics.iter_mut().enumerate() {
        sic.prepare(channel.h(sc), channel.sigma2());
    }
    let sic_s = quiet_seconds(reps, || {
        for (sic, ys) in sics.iter().zip(&columns) {
            black_box(sic.detect_batch_refs(ys));
        }
    });
    out.insert("detect.sic_ns_per_vec", sic_s / vectors * 1e9);

    // core: one full prepare per subcarrier, and the prepared effort.
    let mut det = engine.template().clone();
    let prepare_s = quiet_seconds(reps, || {
        for sc in 0..n_sc {
            det.prepare(channel.h(sc), channel.sigma2());
        }
        black_box(det.effort());
    });
    out.insert("core.prepare_us_per_sc", prepare_s / n_sc as f64 * 1e6);
    let mean = |f: &dyn Fn(usize) -> usize| (0..n_sc).map(f).sum::<usize>() as f64 / n_sc as f64;
    out.insert("core.paths_per_vec", mean(&|sc| engine.slot_effort(sc)));
    out.insert(
        "core.extension_work_per_vec",
        mean(&|sc| engine.slot_extension_work(sc)),
    );

    // channel (generator side), on a private copy of the stream. The
    // churn workload overwrites these with its in-situ spans.
    let mut stream = view.stream.clone();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let advance_s = quiet_seconds(reps, || {
        black_box(stream.advance(&mut rng));
    });
    out.insert("channel.advance_us_per_frame", advance_s * 1e6);
    let x: Vec<Cx> = (0..nt)
        .map(|_| c.point(rng.gen_range(0..c.order())))
        .collect();
    let transmit_s = quiet_seconds(reps, || {
        black_box(stream.transmit_frame(n_sym, |_, _| x.clone(), &mut rng));
    });
    out.insert("channel.transmit_us_per_frame", transmit_s * 1e6);

    parallel(engine, frame, reps, out);
}

/// parallel: empty-task dispatch, bounded-channel ping-pong, and the
/// two-worker speed-up of this workload's own frame.
fn parallel(engine: &FrameEngine<CellDetector>, frame: &RxFrame, reps: usize, out: &mut Layers) {
    const TASKS: usize = 64;
    let wq = CrossbeamPool::work_queue(2);
    let dispatch_s = quiet_seconds(reps, || {
        let tasks: Vec<_> = (0..TASKS).map(|i| move || i).collect();
        black_box(wq.run(tasks));
    });
    out.insert(
        "parallel.dispatch_us_per_task",
        dispatch_s / TASKS as f64 * 1e6,
    );

    const TRIPS: usize = 200;
    let (ping_tx, ping_rx) = bounded::<u64>(2);
    let (pong_tx, pong_rx) = bounded::<u64>(2);
    let roundtrip_s = std::thread::scope(|scope| {
        scope.spawn(move || {
            while let Some(v) = ping_rx.recv() {
                if pong_tx.send(v).is_err() {
                    break;
                }
            }
        });
        let s = quiet_seconds(reps, || {
            for i in 0..TRIPS as u64 {
                if ping_tx.send(i).is_err() {
                    break;
                }
                black_box(pong_rx.recv());
            }
        });
        drop(ping_tx); // end-of-stream: the echo thread exits and joins
        s
    });
    out.insert(
        "parallel.bounded_roundtrip_us",
        roundtrip_s / TRIPS as f64 * 1e6,
    );

    // Interleaved so host drift hits both substrates alike.
    let seq = SequentialPool::new(1);
    let (mut seq_t, mut wq_t) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        black_box(engine.detect_frame(frame, &seq));
        seq_t.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(engine.detect_frame(frame, &wq));
        wq_t.push(t0.elapsed().as_secs_f64());
    }
    out.insert(
        "parallel.speedup_2pe",
        quiet_pick(&seq_t, Better::Lower) / quiet_pick(&wq_t, Better::Lower),
    );
}

/// coding + phy probes of `cell_coded`, at the workload's packet length,
/// plus the probe-estimated children of one tick. Returns the estimated
/// seconds per tick spent in (engine detect, engine prepare, coding,
/// channel).
pub fn coded(w: &CodedCell, spec: &Spec, reps: usize, out: &mut Layers) -> [f64; 4] {
    debug_assert_eq!(spec.kind, Kind::Coded);
    let cfg = w.link_config();
    let cell = w.cell();
    let c = &cfg.constellation;
    let code = ConvCode::new(cfg.rate);
    let il = Interleaver::new(cfg.ofdm.n_data, c.bits_per_symbol());
    let n_sym = cfg.ofdm_symbols_per_packet();
    let padded = n_sym * cfg.bits_per_ofdm_symbol();
    let payload_bits = cfg.payload_bytes * 8;
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let payload: Vec<u8> = (0..payload_bits).map(|_| rng.gen_range(0..2u8)).collect();
    // A few packets per repetition so one repetition is well above the
    // clock's resolution.
    const PACKETS: usize = 8;
    let encode_s = quiet_seconds(reps, || {
        for _ in 0..PACKETS {
            let mut coded = code.encode(&payload);
            coded.resize(padded, 0);
            black_box(il.interleave_stream(&coded));
        }
    });
    let mut coded_bits = code.encode(&payload);
    coded_bits.resize(padded, 0);
    let on_air = il.interleave_stream(&coded_bits);
    let coded_len = code.coded_len(payload_bits);
    let viterbi_s = quiet_seconds(reps, || {
        for _ in 0..PACKETS {
            let deinterleaved = il.deinterleave_stream(&on_air);
            black_box(code.decode(&deinterleaved[..coded_len], payload_bits));
        }
    });
    let crc_s = quiet_seconds(reps, || {
        for _ in 0..PACKETS {
            black_box(crc_check(&payload, &payload));
        }
    });
    let per_packet = |s: f64| s / PACKETS as f64;
    out.insert("coding.encode_us_per_packet", per_packet(encode_s) * 1e6);
    out.insert("coding.viterbi_us_per_packet", per_packet(viterbi_s) * 1e6);
    out.insert("coding.crc_us_per_packet", per_packet(crc_s) * 1e6);
    let packets_per_tick = (spec.users * spec.nt) as f64;
    let coding_tick = packets_per_tick * per_packet(encode_s + viterbi_s + crc_s);

    // engine: the shared-pool detection tick on copies of the cell's
    // streams at their current state, with the closure timed in situ.
    let pool = SequentialPool::new(spec.pool_pes);
    let mut probe = StreamingCell::new();
    for u in 0..spec.users {
        probe.add_user(cell.stream(u).clone(), cell.engine(u).template().clone());
    }
    let x: Vec<Cx> = (0..spec.nt)
        .map(|_| c.point(rng.gen_range(0..c.order())))
        .collect();
    let closure_ns = AtomicU64::new(0);
    let closure_calls = AtomicU64::new(0);
    let mut tick_times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        for u in 0..spec.users {
            let frame = probe
                .stream(u)
                .transmit_frame(n_sym, |_, _| x.clone(), &mut rng);
            probe.submit(u, frame);
        }
        let t0 = Instant::now();
        black_box(probe.process_tick(&pool, |det, _u, _sc, ys| {
            let a = Instant::now();
            let cells = det.detect_batch_refs(ys);
            // Relaxed: plain statistics, read after the tick returns.
            closure_ns.fetch_add(a.elapsed().as_nanos() as u64, Ordering::Relaxed);
            closure_calls.fetch_add(1, Ordering::Relaxed);
            cells
        }));
        tick_times.push(t0.elapsed().as_secs_f64());
    }
    let ticks = tick_times.len() as f64;
    let detect_tick = quiet_pick(&tick_times, Better::Lower);
    let closure_tick = closure_ns.load(Ordering::Relaxed) as f64 * 1e-9 / ticks;
    let frames = ticks * spec.users as f64;
    out.insert(
        "core.detect_ns_per_vec",
        closure_tick / (spec.users * spec.n_sc * n_sym) as f64 * 1e9,
    );
    out.insert(
        "engine.overhead_share",
        1.0 - closure_tick * ticks / tick_times.iter().sum::<f64>(),
    );
    out.insert(
        "engine.tasks_per_frame",
        closure_calls.load(Ordering::Relaxed) as f64 / frames,
    );

    // engine prepare + channel aging per frame, on a copy of user 0.
    let mut stream = cell.stream(0).clone();
    let mut engine = FrameEngine::new(cell.engine(0).template().clone());
    engine.prepare(stream.estimate());
    let (mut prepare_t, mut slots) = (Vec::with_capacity(reps), 0usize);
    for _ in 0..reps.max(1) {
        stream.advance(&mut rng);
        let t0 = Instant::now();
        slots += engine.prepare(stream.estimate());
        prepare_t.push(t0.elapsed().as_secs_f64());
    }
    let prepare_frame = quiet_pick(&prepare_t, Better::Lower);
    let slots_per_frame = slots as f64 / prepare_t.len() as f64;
    out.insert("engine.prepare_ms_per_frame", prepare_frame * 1e3);
    out.insert("engine.prepared_slots_per_frame", slots_per_frame);
    out.insert(
        "engine.cache_hit_ratio",
        1.0 - slots_per_frame / spec.n_sc as f64,
    );

    let channel_frame = (out
        .get("channel.advance_us_per_frame")
        .copied()
        .unwrap_or(0.0)
        + out
            .get("channel.transmit_us_per_frame")
            .copied()
            .unwrap_or(0.0))
        * 1e-6;
    let users = spec.users as f64;
    [
        detect_tick,
        users * prepare_frame,
        coding_tick,
        users * channel_frame,
    ]
}
