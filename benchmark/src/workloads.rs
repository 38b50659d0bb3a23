//! The five workloads: what each one builds in set-up, what one operation
//! is, how its outputs are scored, and which correctness gates run on its
//! first warm-up operation.
//!
//! All load is generated in this process from the seed. Generating
//! channels, payloads and frames is the generator's cost: it happens
//! outside every timed interval and outside `setup_s`.

use crate::reference::{host_speed, Reference};
use crate::stats::Fnv;
use crate::trace::{Tracer, ROOT};
use flexcore::CellDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, GaussMarkovChannel};
use flexcore_detect::common::Detector;
use flexcore_engine::{ChannelStream, FrameEngine, PipelinedCell, RxFrame, StreamingCell};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_parallel::{CrossbeamPool, SequentialPool};
use flexcore_phy::link::{cell_packet_tick, LinkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How a workload drives the product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `FrameEngine::detect_frame` over pre-generated frames of a static
    /// channel: the run phase alone.
    Static,
    /// `FrameEngine::prepare` + `detect_frame` under an aging channel.
    Churn,
    /// `flexcore_phy::link::cell_packet_tick` over a coded multi-user cell.
    Coded,
    /// `PipelinedCell::run` on real threads.
    Pipelined,
}

/// One workload's fixed definition. Nothing here is calibrated at run
/// time: both sides of a comparison do identical work.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// How the product is driven.
    pub kind: Kind,
    /// Streams per user (= receive antennas).
    pub nt: usize,
    /// Modulation of every stream.
    pub modulation: Modulation,
    /// FlexCore path budget.
    pub n_pe: usize,
    /// a-FlexCore stopping threshold (`None` = fixed FlexCore).
    pub stop: Option<f64>,
    /// Data subcarriers.
    pub n_sc: usize,
    /// OFDM symbols per frame.
    pub n_sym: usize,
    /// Users (independent uplinks) served per operation.
    pub users: usize,
    /// Per-stream SNR in dB, fixed so that 0.005 ≤ error ratio ≤ 0.2.
    pub snr_db: f64,
    /// Normalised Doppler per frame interval (0 = static channel).
    pub fd_dt: f64,
    /// Estimate refresh period of the channel stream.
    pub refresh_period: usize,
    /// `F`: operations per timed block, sized on the 2-core sizing host so
    /// a block is ≈0.8 s and holds ≥ 100 operations.
    pub ops_per_block: usize,
    /// Pre-generated inputs the operations cycle over.
    pub cycle: usize,
    /// Independent channel realisations of the band the static workloads
    /// serve round-robin (the cycle is split evenly between them).
    pub epochs: usize,
    /// Modelled PEs of the sequential pool (real workers for `Pipelined`).
    pub pool_pes: usize,
    /// Host-speed reference units after every operation (≈8 % of its
    /// time); on `cell_pipelined`, one unit after every `ref_units`-th
    /// detection batch, on the worker that ran it (≈1.5 %).
    pub ref_units: u64,
}

impl Spec {
    /// Frames one operation detects.
    pub fn frames_per_op(&self) -> usize {
        self.users
    }

    /// Received vectors per frame.
    pub fn vectors_per_frame(&self) -> usize {
        self.n_sc * self.n_sym
    }

    fn constellation(&self) -> Constellation {
        Constellation::new(self.modulation)
    }

    fn template(&self) -> CellDetector {
        match self.stop {
            Some(t) => CellDetector::adaptive(self.constellation(), self.n_pe, t),
            None => CellDetector::fixed(self.constellation(), self.n_pe),
        }
    }

    /// This workload at smoke size: same numerology and code paths, a
    /// handful of operations (unit tests, `--smoke`).
    pub fn smoke(&self) -> Spec {
        Spec {
            ops_per_block: 3,
            cycle: 3,
            epochs: self.epochs.min(2),
            ..self.clone()
        }
    }
}

/// Payload bytes per coded packet on `cell_coded` (three OFDM symbols at
/// 16-QAM rate 1/2).
pub const PAYLOAD_BYTES: usize = 30;

/// The canonical workload set.
pub fn specs() -> Vec<Spec> {
    let base = Spec {
        name: "detect_8x8",
        kind: Kind::Static,
        nt: 8,
        modulation: Modulation::Qam16,
        n_pe: 16,
        stop: None,
        n_sc: 48,
        n_sym: 14,
        users: 1,
        snr_db: 9.0,
        fd_dt: 0.0,
        refresh_period: 1,
        ops_per_block: 390,
        cycle: 64,
        epochs: 8,
        pool_pes: 1,
        ref_units: 30,
    };
    vec![
        base.clone(),
        Spec {
            name: "churn_8x8",
            kind: Kind::Churn,
            n_sym: 4,
            fd_dt: 0.02,
            ops_per_block: 600,
            cycle: 1,
            epochs: 1,
            ref_units: 15,
            ..base.clone()
        },
        Spec {
            name: "wide_64x64",
            nt: 64,
            modulation: Modulation::Qpsk,
            n_sc: 12,
            snr_db: -2.0,
            ops_per_block: 100,
            cycle: 64,
            epochs: 32,
            ref_units: 130,
            ..base.clone()
        },
        Spec {
            name: "cell_coded",
            kind: Kind::Coded,
            nt: 4,
            stop: Some(0.95),
            n_sym: 3,
            users: 8,
            snr_db: 16.0,
            fd_dt: 0.02,
            refresh_period: 4,
            ops_per_block: 125,
            cycle: 1,
            epochs: 1,
            pool_pes: 8,
            ref_units: 100,
            ..base.clone()
        },
        Spec {
            name: "cell_pipelined",
            kind: Kind::Pipelined,
            nt: 4,
            users: 4,
            snr_db: 12.0,
            ops_per_block: 290,
            cycle: 16,
            epochs: 1,
            pool_pes: 2,
            ref_units: 96,
            ..base
        },
    ]
}

/// What one block of operations produced.
#[derive(Clone, Debug, Default)]
pub struct Block {
    /// Timed seconds: Σ operation durations (the wall time of the one
    /// `PipelinedCell::run` call on `cell_pipelined`).
    pub time_s: f64,
    /// Per-frame latency samples, submit → result returned, seconds.
    pub latencies_s: Vec<f64>,
    /// The same samples, each scaled by the host speed measured right
    /// after it (by the block's host speed on `cell_pipelined`).
    pub scaled_latencies_s: Vec<f64>,
    /// Operations attempted.
    pub ops: u64,
    /// Frames detected.
    pub frames: u64,
    /// Scored units: received vectors (coded packets on `cell_coded`).
    pub checked: u64,
    /// Scored units whose output differs from what was transmitted.
    pub wrong: u64,
    /// Operations refused, dropped or short of their expected output.
    pub refused: u64,
    /// Host-speed reference units run alongside the operations …
    pub ref_units: u64,
    /// … and the seconds they took (see `reference`).
    pub ref_s: f64,
}

impl Block {
    /// Runs `units` of the host-speed reference, books them to this block
    /// and returns the host speed they saw.
    fn reference(&mut self, reference: &Reference, units: u64) -> f64 {
        let seconds = reference.run(units);
        self.ref_s += seconds;
        self.ref_units += units;
        host_speed(units, seconds)
    }

    /// Books one sequential operation of `frames` frames that took `dt`
    /// seconds, then runs the reference slice that scales its latency.
    fn operation(&mut self, dt: f64, frames: u64, reference: &Reference, units: u64) {
        self.time_s += dt;
        self.ops += 1;
        self.frames += frames;
        self.latencies_s.push(dt);
        let speed = self.reference(reference, units);
        self.scaled_latencies_s.push(dt * speed);
    }
}

/// Counters a workload accumulates across blocks for the traced pass.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Σ `FrameEngine::prepare` return values (slots re-prepared).
    pub prepared_slots: u64,
    /// `prepare` calls made by the benchmark (one per frame on `churn_8x8`).
    pub prepare_calls: u64,
    /// Largest `CellStats::max_frames_behind` seen after an operation.
    pub frames_behind_max: u64,
    /// Coded packets offered / delivered (CRC ok).
    pub offered_packets: u64,
    /// See `offered_packets`.
    pub delivered_packets: u64,
}

/// A borrowed view of one engine of the workload plus one of its frames:
/// what the per-layer probes run on (the workload's own matrices and
/// columns, not synthetic ones).
pub struct ProbeView<'a> {
    /// A prepared engine (user 0's on the cell workloads).
    pub engine: &'a FrameEngine<CellDetector>,
    /// The channel stream that engine is prepared against.
    pub stream: &'a ChannelStream,
    /// One received frame of that stream.
    pub frame: &'a RxFrame,
}

/// A built workload: set-up is done, operations can run.
pub trait Workload {
    /// Runs the correctness gates on the next operation's input and
    /// returns a one-line description of what was checked.
    fn gate(&mut self) -> Result<String, String>;
    /// Runs `n_ops` operations, each followed by a slice of the host-speed
    /// reference; with a tracer, also records spans.
    fn run_ops(&mut self, n_ops: usize, tracer: Option<&Tracer>, reference: &Reference) -> Block;
    /// FNV digest over every output produced so far.
    fn digest(&self) -> Fnv;
    /// Counters for the traced pass.
    fn counts(&self) -> Counts;
    /// Engine + frame for the per-layer probes.
    fn probe_view(&self) -> ProbeView<'_>;
    /// The coded cell, for the `coding` and `phy` probes only it has.
    fn as_coded(&self) -> Option<&CodedCell> {
        None
    }
}

fn rng_for(seed: u64, lane: u64) -> StdRng {
    // Distinct, reproducible streams per purpose (channels, symbols,
    // aging, per-user traffic) from the one workload seed.
    StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn new_stream(spec: &Spec, rng: &mut StdRng) -> ChannelStream {
    let rho = if spec.fd_dt > 0.0 {
        GaussMarkovChannel::rho_from_doppler(spec.fd_dt)
    } else {
        1.0
    };
    ChannelStream::new(
        &ChannelEnsemble::iid(spec.nt, spec.nt),
        spec.n_sc,
        rho,
        spec.refresh_period,
        sigma2_from_snr_db(spec.snr_db),
        rng,
    )
}

/// One random frame through the stream's truth channels, with the
/// transmitted symbol indices (cell-major, `nt` per cell) for scoring.
fn tx_frame(
    stream: &ChannelStream,
    c: &Constellation,
    n_sym: usize,
    rng: &mut StdRng,
) -> (RxFrame, Vec<usize>) {
    let nt = stream.truth(0).cols();
    let n_sc = stream.n_subcarriers();
    let truth: Vec<usize> = (0..n_sym * n_sc * nt)
        .map(|_| rng.gen_range(0..c.order()))
        .collect();
    let frame = stream.transmit_frame(
        n_sym,
        |sym, sc| {
            let base = (sym * n_sc + sc) * nt;
            truth[base..base + nt].iter().map(|&i| c.point(i)).collect()
        },
        rng,
    );
    (frame, truth)
}

/// Scores detected cells against the transmitted symbols: returns
/// `(vectors checked, vectors with any wrong symbol)` and folds every
/// detection into the digest.
fn score<'a>(
    cells: impl Iterator<Item = &'a [usize]>,
    truth: &[usize],
    nt: usize,
    digest: &mut Fnv,
) -> (u64, u64) {
    let mut checked = 0;
    let mut wrong = 0;
    for (cell, want) in cells.zip(truth.chunks(nt)) {
        digest.symbols(cell);
        checked += 1;
        wrong += u64::from(cell != want);
    }
    (checked, wrong)
}

/// `FrameEngine::detect_frame` spelled through `process_frame` with a
/// span around every `detect_batch_refs` call.
fn traced_detect(
    engine: &FrameEngine<CellDetector>,
    frame: &RxFrame,
    pool: &SequentialPool,
    tracer: &Tracer,
    parent: u32,
    op: u64,
) -> Vec<Vec<usize>> {
    let start = Instant::now();
    let id = tracer.open("engine.process_frame", parent, op, start);
    let cells = engine.process_frame(frame, pool, |det, _sc, ys| {
        let a = Instant::now();
        let out = det.detect_batch_refs(ys);
        tracer.record("core.detect_batch", id, op, a, Instant::now());
        out
    });
    tracer.close(id, Instant::now());
    cells
}

/// Per-vector reference: every cell of `frame` through `Detector::detect`
/// on the engine's own prepared detectors.
fn per_vector_reference(engine: &FrameEngine<CellDetector>, frame: &RxFrame) -> Vec<Vec<usize>> {
    let n_sc = frame.n_subcarriers();
    (0..frame.n_symbols())
        .flat_map(|sym| (0..n_sc).map(move |sc| (sym, sc)))
        .map(|(sym, sc)| engine.detector(sc).detect(frame.get(sym, sc)))
        .collect()
}

fn first_difference<'a>(
    what: &str,
    got: impl Iterator<Item = &'a [usize]>,
    want: &[Vec<usize>],
) -> Result<(), String> {
    let mut n = 0;
    for (i, (g, w)) in got.zip(want).enumerate() {
        if g != w.as_slice() {
            return Err(format!("{what}: cell {i} differs: {g:?} vs {w:?}"));
        }
        n += 1;
    }
    if n != want.len() {
        return Err(format!("{what}: {n} cells, expected {}", want.len()));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// detect_8x8, wide_64x64 (static) and churn_8x8
// ---------------------------------------------------------------------

/// One channel realisation of the band with the engine prepared against
/// it and the frames transmitted through it.
struct Epoch {
    stream: ChannelStream,
    engine: FrameEngine<CellDetector>,
    /// Static: this epoch's share of the cycle. Churn: the current frame.
    frames: Vec<(RxFrame, Vec<usize>)>,
}

/// Frame engines on `SequentialPool::new(1)`.
///
/// The static workloads hold `Spec::epochs` independent channel
/// realisations, each prepared in set-up, and serve them round-robin: the
/// cost of walking a prepared trie depends on the channel it was built
/// for (±3 % between draws of one 48-subcarrier band), and a benchmark
/// number must not depend on the luck of one draw. `churn_8x8` has one
/// epoch whose channel ages every frame, which averages the same way over
/// time.
pub struct EngineWorkload {
    spec: Spec,
    c: Constellation,
    epochs: Vec<Epoch>,
    pool: SequentialPool,
    age_rng: StdRng,
    tx_rng: StdRng,
    next_op: u64,
    digest: Fnv,
    counts: Counts,
}

impl EngineWorkload {
    /// Generates the inputs, then runs (and times) the program's set-up.
    /// Returns the workload and the set-up seconds.
    pub fn build(spec: &Spec, seed: u64) -> (Self, f64) {
        // Generator side: channels and the frame cycle.
        let c = spec.constellation();
        let n_epochs = spec.epochs;
        let mut tx_rng = rng_for(seed, 2);
        let inputs: Vec<(ChannelStream, Vec<_>)> = (0..n_epochs)
            .map(|e| {
                let stream = new_stream(spec, &mut rng_for(seed, 10 + e as u64));
                let frames = (0..spec.cycle.div_ceil(n_epochs))
                    .map(|_| tx_frame(&stream, &c, spec.n_sym, &mut tx_rng))
                    .collect();
                (stream, frames)
            })
            .collect();
        // Program side: LUT build, engines, pool, full-band prepares,
        // first frame.
        let t0 = Instant::now();
        let template = spec.template();
        let pool = SequentialPool::new(spec.pool_pes);
        let epochs: Vec<Epoch> = inputs
            .into_iter()
            .map(|(stream, frames)| {
                let mut engine = FrameEngine::new(template.clone());
                engine.prepare(stream.estimate());
                Epoch {
                    stream,
                    engine,
                    frames,
                }
            })
            .collect();
        let first = epochs[0].engine.detect_frame(&epochs[0].frames[0].0, &pool);
        let setup_s = t0.elapsed().as_secs_f64();
        std::hint::black_box(first);
        (
            EngineWorkload {
                spec: spec.clone(),
                c,
                epochs,
                pool,
                age_rng: rng_for(seed, 3),
                tx_rng,
                next_op: 0,
                digest: Fnv::default(),
                counts: Counts::default(),
            },
            setup_s,
        )
    }

    /// Generator step before an operation: on `churn_8x8` ages the channel
    /// and transmits a fresh frame through it; on the static workloads
    /// just selects the next epoch (round-robin) and its next frame.
    /// Returns `(epoch, frame)` indices.
    fn next_input(&mut self, tracer: Option<&Tracer>) -> (usize, usize) {
        let op = self.next_op;
        self.next_op += 1;
        if self.spec.kind != Kind::Churn {
            let k = self.epochs.len() as u64;
            let per_epoch = self.epochs[0].frames.len() as u64;
            return ((op % k) as usize, (op / k % per_epoch) as usize);
        }
        let epoch = &mut self.epochs[0];
        let a = Instant::now();
        epoch.stream.advance(&mut self.age_rng);
        let b = Instant::now();
        epoch.frames[0] = tx_frame(&epoch.stream, &self.c, self.spec.n_sym, &mut self.tx_rng);
        if let Some(t) = tracer {
            t.record("channel.advance", ROOT, op, a, b);
            t.record("channel.transmit", ROOT, op, b, Instant::now());
        }
        (0, 0)
    }
}

impl Workload for EngineWorkload {
    fn gate(&mut self) -> Result<String, String> {
        // Every epoch once, so each prepared engine is checked.
        let mut cells = 0;
        for _ in 0..self.epochs.len() {
            let (e, f) = self.next_input(None);
            let epoch = &mut self.epochs[e];
            if self.spec.kind == Kind::Churn {
                epoch.engine.prepare(epoch.stream.estimate());
            }
            let frame = &epoch.frames[f].0;
            let reference = per_vector_reference(&epoch.engine, frame);
            let detected = epoch.engine.detect_frame(frame, &self.pool);
            first_difference(
                "detect_frame vs per-vector detect",
                detected.iter(),
                &reference,
            )?;
            let tracer = Tracer::with_capacity(1 + self.spec.n_sc * self.spec.n_sym);
            let traced = traced_detect(&epoch.engine, frame, &self.pool, &tracer, ROOT, 0);
            first_difference(
                "process_frame with span closure vs detect_frame",
                traced.iter().map(Vec::as_slice),
                &reference,
            )?;
            cells += reference.len();
        }
        Ok(format!(
            "{cells} cells over {} channel epoch(s): detect_frame == per-vector detect == traced process_frame",
            self.epochs.len()
        ))
    }

    fn run_ops(&mut self, n_ops: usize, tracer: Option<&Tracer>, reference: &Reference) -> Block {
        let mut block = Block::default();
        let nt = self.spec.nt;
        let churn = self.spec.kind == Kind::Churn;
        for _ in 0..n_ops {
            let (e, f) = self.next_input(tracer);
            let op = self.next_op - 1;
            let epoch = &mut self.epochs[e];
            let (frame, truth) = &epoch.frames[f];
            let t0 = Instant::now();
            let span = tracer.map(|t| (t, t.open("op", ROOT, op, t0)));
            if churn {
                self.counts.prepared_slots += epoch.engine.prepare(epoch.stream.estimate()) as u64;
                if let Some((t, id)) = span {
                    t.record("engine.prepare", id, op, t0, Instant::now());
                }
            }
            let (end, checked, wrong) = match span {
                None => {
                    let detected = epoch.engine.detect_frame(frame, &self.pool);
                    let end = Instant::now();
                    let (c, w) = score(detected.iter(), truth, nt, &mut self.digest);
                    (end, c, w)
                }
                Some((t, id)) => {
                    let cells = traced_detect(&epoch.engine, frame, &self.pool, t, id, op);
                    let end = Instant::now();
                    t.close(id, end);
                    let (c, w) =
                        score(cells.iter().map(Vec::as_slice), truth, nt, &mut self.digest);
                    (end, c, w)
                }
            };
            let dt = end - t0;
            self.counts.prepare_calls += u64::from(churn);
            block.checked += checked;
            block.wrong += wrong;
            block.refused += u64::from(checked != self.spec.vectors_per_frame() as u64);
            block.operation(dt.as_secs_f64(), 1, reference, self.spec.ref_units);
        }
        block
    }

    fn digest(&self) -> Fnv {
        self.digest
    }

    fn counts(&self) -> Counts {
        self.counts.clone()
    }

    fn probe_view(&self) -> ProbeView<'_> {
        ProbeView {
            engine: &self.epochs[0].engine,
            stream: &self.epochs[0].stream,
            frame: &self.epochs[0].frames[0].0,
        }
    }
}

// ---------------------------------------------------------------------
// cell_coded
// ---------------------------------------------------------------------

/// Eight coded streaming uplinks, one `cell_packet_tick` per operation.
pub struct CodedCell {
    spec: Spec,
    cfg: LinkConfig,
    cell: StreamingCell<CellDetector>,
    pool: SequentialPool,
    rngs: Vec<StdRng>,
    /// A frame of user 0 for the probes and the gate (never served).
    probe_frame: RxFrame,
    gate_rng: StdRng,
    next_op: u64,
    digest: Fnv,
    counts: Counts,
}

impl CodedCell {
    /// Generates the per-user streams, then runs (and times) the
    /// program's set-up including the first tick.
    pub fn build(spec: &Spec, seed: u64) -> (Self, f64) {
        let c = spec.constellation();
        let cfg = LinkConfig::paper_default(c.clone(), PAYLOAD_BYTES);
        let streams: Vec<ChannelStream> = (0..spec.users)
            .map(|u| new_stream(spec, &mut rng_for(seed, 100 + u as u64)))
            .collect();
        let mut rngs: Vec<StdRng> = (0..spec.users)
            .map(|u| rng_for(seed, 200 + u as u64))
            .collect();
        let mut gate_rng = rng_for(seed, 4);
        let (probe_frame, _) = tx_frame(
            &streams[0],
            &c,
            cfg.ofdm_symbols_per_packet(),
            &mut gate_rng,
        );

        let t0 = Instant::now();
        let template = spec.template();
        let mut cell = StreamingCell::new();
        for stream in streams {
            cell.add_user(stream, template.clone());
        }
        let pool = SequentialPool::new(spec.pool_pes);
        let first = cell_packet_tick(&cfg, &mut cell, &pool, &mut rngs);
        let setup_s = t0.elapsed().as_secs_f64();
        std::hint::black_box(first);
        (
            CodedCell {
                spec: spec.clone(),
                cfg,
                cell,
                pool,
                rngs,
                probe_frame,
                gate_rng,
                next_op: 0,
                digest: Fnv::default(),
                counts: Counts::default(),
            },
            setup_s,
        )
    }

    /// The link configuration (packet length for the coding probes).
    pub fn link_config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// The serving cell (streams and engines for the phy probes).
    pub fn cell(&self) -> &StreamingCell<CellDetector> {
        &self.cell
    }
}

impl Workload for CodedCell {
    fn gate(&mut self) -> Result<String, String> {
        // One uncoded frame per user through the serving cell itself: the
        // shared-pool tick must equal per-vector detection on each user's
        // own prepared detectors.
        let c = self.spec.constellation();
        let n_sym = self.cfg.ofdm_symbols_per_packet();
        let mut references = Vec::with_capacity(self.spec.users);
        for u in 0..self.spec.users {
            let (frame, _) = tx_frame(self.cell.stream(u), &c, n_sym, &mut self.gate_rng);
            references.push(per_vector_reference(self.cell.engine(u), &frame));
            self.cell.submit(u, frame);
        }
        let detected = self.cell.detect_tick(&self.pool);
        if detected.len() != self.spec.users {
            return Err(format!("detect_tick served {} users", detected.len()));
        }
        for (u, frame) in &detected {
            first_difference(
                &format!("detect_tick user {u} vs per-vector detect"),
                frame.iter(),
                &references[*u],
            )?;
        }
        Ok(format!(
            "{} users x {} cells: StreamingCell::detect_tick == per-vector detect",
            detected.len(),
            references[0].len()
        ))
    }

    fn run_ops(&mut self, n_ops: usize, tracer: Option<&Tracer>, reference: &Reference) -> Block {
        let mut block = Block::default();
        for _ in 0..n_ops {
            let op = self.next_op;
            self.next_op += 1;
            let t0 = Instant::now();
            let outcomes = cell_packet_tick(&self.cfg, &mut self.cell, &self.pool, &mut self.rngs);
            let end = Instant::now();
            if let Some(t) = tracer {
                t.record("phy.tick", ROOT, op, t0, end);
            }
            block.refused += u64::from(outcomes.len() != self.spec.users);
            for out in &outcomes {
                self.digest.word(out.user as u64);
                for (&ok, &raw) in out.crc_ok.iter().zip(&out.link.raw_bit_errors) {
                    self.digest.byte(u8::from(ok));
                    self.digest.word(raw as u64);
                    block.checked += 1;
                    block.wrong += u64::from(!ok);
                }
            }
            let behind = self.cell.stats().max_frames_behind;
            self.counts.frames_behind_max = self.counts.frames_behind_max.max(behind);
            block.operation(
                (end - t0).as_secs_f64(),
                outcomes.len() as u64,
                reference,
                self.spec.ref_units,
            );
        }
        self.counts.offered_packets += block.checked;
        self.counts.delivered_packets += block.checked - block.wrong;
        block
    }

    fn digest(&self) -> Fnv {
        self.digest
    }

    fn counts(&self) -> Counts {
        self.counts.clone()
    }

    fn probe_view(&self) -> ProbeView<'_> {
        ProbeView {
            engine: self.cell.engine(0),
            stream: self.cell.stream(0),
            frame: &self.probe_frame,
        }
    }

    fn as_coded(&self) -> Option<&CodedCell> {
        Some(self)
    }
}

// ---------------------------------------------------------------------
// cell_pipelined
// ---------------------------------------------------------------------

/// Four uplinks through the three-stage pipelined cell on two real
/// worker threads; one `PipelinedCell::run` call per block.
pub struct PipeCell {
    spec: Spec,
    pipe: PipelinedCell<CellDetector>,
    pool: CrossbeamPool,
    /// `ticks[t][u]` = (frame, transmitted symbols) of user `u`.
    ticks: Vec<Vec<(RxFrame, Vec<usize>)>>,
    next_tick: u64,
    digest: Fnv,
}

/// Reference units per sample on the pipeline's workers: a few in a row,
/// so the kernel's own cold start (its table was evicted by the batches
/// in between) does not dominate what it measures.
const PIPE_REF_UNITS: u64 = 6;

/// Between two samples the batches evict the kernel's table, so on the
/// workers it runs at this share of its warm speed even on a quiet host
/// (sizing runs of 2026-10-01). Sample times are rescaled by it so that
/// `host.speed_ratio` reads 1 and `frames_per_s` reads true frames per
/// second there, as on the sequential workloads.
const PIPE_REF_WARM_SHARE: f64 = 0.78;

/// Deadline handed to `PipelinedCell::run`. The benchmark reads raw
/// latency samples only; no deadline enters any count.
const NO_DEADLINE_S: f64 = 3600.0;

impl PipeCell {
    /// Generates streams and the tick cycle, then runs (and times) the
    /// program's set-up including one tick through the pipeline.
    pub fn build(spec: &Spec, seed: u64) -> (Self, f64) {
        let c = spec.constellation();
        let streams: Vec<ChannelStream> = (0..spec.users)
            .map(|u| new_stream(spec, &mut rng_for(seed, 100 + u as u64)))
            .collect();
        let mut tx_rng = rng_for(seed, 2);
        let ticks: Vec<Vec<_>> = (0..spec.cycle)
            .map(|_| {
                streams
                    .iter()
                    .map(|s| tx_frame(s, &c, spec.n_sym, &mut tx_rng))
                    .collect()
            })
            .collect();

        let t0 = Instant::now();
        let template = spec.template();
        let mut pipe = PipelinedCell::with_queue_depth(2);
        for stream in streams {
            pipe.add_user(stream, template.clone());
        }
        let pool = CrossbeamPool::work_queue(spec.pool_pes);
        let first = pipe.run(
            &pool,
            1,
            NO_DEADLINE_S,
            |_, _, _| {},
            |_, u, _| Some(ticks[0][u].0.clone()),
            |det, _u, _sc, ys| det.detect_batch_refs(ys),
            |_, out| {
                std::hint::black_box(&out.cells);
            },
            |_, _| false,
        );
        let setup_s = t0.elapsed().as_secs_f64();
        std::hint::black_box(first.frames);
        (
            PipeCell {
                spec: spec.clone(),
                pipe,
                pool,
                ticks,
                next_tick: 0,
                digest: Fnv::default(),
            },
            setup_s,
        )
    }
}

impl Workload for PipeCell {
    fn gate(&mut self) -> Result<String, String> {
        // The same ticks through the barrier cell on cloned streams and
        // through the pipeline; both must equal per-vector detection.
        let n_ticks = self.ticks.len().min(3);
        let users = self.spec.users;
        let mut barrier = StreamingCell::new();
        for u in 0..users {
            barrier.add_user(self.pipe.stream(u).clone(), self.spec.template());
        }
        let barrier_pool = SequentialPool::new(self.spec.pool_pes);
        let mut want: Vec<Vec<Vec<usize>>> = Vec::new();
        for tick in &self.ticks[..n_ticks] {
            for (u, (frame, _)) in tick.iter().enumerate() {
                let reference = per_vector_reference(self.pipe.engine(u), frame);
                want.push(reference);
                barrier.submit(u, frame.clone());
            }
            let base = want.len() - users;
            for (u, frame) in barrier.detect_tick(&barrier_pool) {
                first_difference(
                    &format!("barrier detect_tick user {u} vs per-vector detect"),
                    frame.iter(),
                    &want[base + u],
                )?;
            }
        }
        let ticks = &self.ticks;
        let mut got: Vec<Vec<Vec<usize>>> = Vec::new();
        self.pipe.run(
            &self.pool,
            n_ticks as u64,
            NO_DEADLINE_S,
            |_, _, _| {},
            |tick, u, _| Some(ticks[tick as usize][u].0.clone()),
            |det, _u, _sc, ys| det.detect_batch_refs(ys),
            |_, out| got.push(out.cells.clone()),
            |_, _| false,
        );
        if got.len() != want.len() {
            return Err(format!(
                "pipeline decoded {} frames, expected {}",
                got.len(),
                want.len()
            ));
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            first_difference(
                &format!("pipelined frame {i} vs barrier StreamingCell / per-vector detect"),
                g.iter().map(Vec::as_slice),
                w,
            )?;
        }
        Ok(format!(
            "{n_ticks} ticks x {users} users: PipelinedCell == StreamingCell::detect_tick == per-vector detect"
        ))
    }

    fn run_ops(&mut self, n_ops: usize, tracer: Option<&Tracer>, reference: &Reference) -> Block {
        let base = self.next_tick;
        self.next_tick += n_ops as u64;
        let nt = self.spec.nt;
        let users = self.spec.users as u64;
        let ticks = &self.ticks;
        let input = |tick: u64, u: usize| &ticks[((base + tick) % ticks.len() as u64) as usize][u];
        let mut digest = self.digest;
        let (mut checked, mut wrong) = (0u64, 0u64);
        let mut decode = |tick: u64, user: usize, cells: &[Vec<usize>]| {
            let (c, w) = score(
                cells.iter().map(Vec::as_slice),
                &input(tick, user).1,
                nt,
                &mut digest,
            );
            checked += c;
            wrong += w;
        };
        // The reference runs where the work runs: on the detect stage's
        // workers, one unit after every `ref_units`-th batch, so it sees
        // both cores under the conditions the batches saw. Relaxed: plain
        // statistics, read after `run` has joined its threads.
        let every = self.spec.ref_units;
        let (calls, ref_units, ref_ns) = (AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0));
        let sample = || {
            if calls.fetch_add(1, Ordering::Relaxed) % every == 0 {
                let ns = (reference.run(PIPE_REF_UNITS) * 1e9) as u64;
                ref_ns.fetch_add(ns, Ordering::Relaxed);
                ref_units.fetch_add(PIPE_REF_UNITS, Ordering::Relaxed);
            }
        };
        // With a tracer every closure call becomes a span under the run's
        // span; without one no clock is read. (The detect closure is not
        // told its tick: its spans carry the run's first tick id.)
        let t0 = Instant::now();
        let run = tracer.map(|t| (t, t.open("engine.pipe_run", ROOT, base, t0)));
        let started = || run.map(|_| Instant::now());
        let span = |name: &'static str, frame: u64, started: Option<Instant>| {
            if let (Some((t, run)), Some(a)) = (run, started) {
                t.record(name, run, frame, a, Instant::now());
            }
        };
        let report = self.pipe.run(
            &self.pool,
            n_ops as u64,
            NO_DEADLINE_S,
            |_, _, _| {},
            |tick, u, _| {
                let a = started();
                let frame = input(tick, u).0.clone();
                span("engine.pipe_transmit", base + tick, a);
                Some(frame)
            },
            |det, _u, _sc, ys| {
                let a = started();
                let out = det.detect_batch_refs(ys);
                span("core.detect_batch", base, a);
                sample();
                out
            },
            |tick, out| {
                let a = started();
                decode(tick, out.user, &out.cells);
                span("engine.pipe_decode", base + tick, a);
            },
            |_, _| false,
        );
        if let Some((t, run)) = run {
            t.close(run, Instant::now());
        }
        let wall_s = t0.elapsed().as_secs_f64();
        self.digest = digest;
        let expected = n_ops as u64 * users;
        let served = report.frames.min(report.overall.len() as u64);
        let ref_units = ref_units.load(Ordering::Relaxed);
        let ref_wall_s = ref_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        let ref_s = ref_wall_s * PIPE_REF_WARM_SHARE;
        let speed = host_speed(ref_units, ref_s);
        Block {
            // The reference units ran inside the wall time, spread over
            // the workers: take their share back out.
            time_s: wall_s - ref_wall_s / self.spec.pool_pes as f64,
            scaled_latencies_s: report.overall.samples().iter().map(|l| l * speed).collect(),
            latencies_s: report.overall.samples().to_vec(),
            ops: n_ops as u64,
            frames: report.frames,
            checked,
            wrong,
            refused: expected.saturating_sub(served).div_ceil(users),
            ref_units,
            ref_s,
        }
    }

    fn digest(&self) -> Fnv {
        self.digest
    }

    fn counts(&self) -> Counts {
        Counts::default()
    }

    fn probe_view(&self) -> ProbeView<'_> {
        ProbeView {
            engine: self.pipe.engine(0),
            stream: self.pipe.stream(0),
            frame: &self.ticks[0][0].0,
        }
    }
}

/// Builds `spec` from `seed`: returns the workload and the seconds the
/// program's own set-up took.
pub fn build(spec: &Spec, seed: u64) -> (Box<dyn Workload>, f64) {
    match spec.kind {
        Kind::Static | Kind::Churn => {
            let (w, s) = EngineWorkload::build(spec, seed);
            (Box::new(w), s)
        }
        Kind::Coded => {
            let (w, s) = CodedCell::build(spec, seed);
            (Box::new(w), s)
        }
        Kind::Pipelined => {
            let (w, s) = PipeCell::build(spec, seed);
            (Box::new(w), s)
        }
    }
}
