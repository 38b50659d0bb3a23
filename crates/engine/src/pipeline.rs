//! The pipelined driver: overlapped stages and per-frame latency SLOs
//! over the one serving cell.
//!
//! A barrier driver of a [`StreamingCell`] serialises a tick: every user's
//! transmit/prepare, then one shared detection run, then the caller's
//! decode — nothing overlaps, so the PEs idle during channel estimation
//! and CRC exactly as the paper's §4 hardware pipeline warns against.
//! [`PipelinedCell`] owns a [`StreamingCell`] — the user table, the
//! submit check, the plan and the booking are the cell's, not copies —
//! and drives it with the three stages overlapped the way a deployed
//! base-band does:
//!
//! * the **transmit stage** (caller thread) makes the same four calls
//!   every driver makes: it ages each user's channel
//!   ([`StreamingCell::age_user`], which re-prepares the moved
//!   subcarriers), submits frame *N+1* ([`StreamingCell::submit`]), plans
//!   the tick ([`StreamingCell::plan_tick`] — the same [`TickPlan`] a
//!   barrier tick builds, sharing each subcarrier's prepared detector by
//!   reference count) and books it, handing the plan on instead of
//!   running it;
//! * the **detect stage** (worker thread) runs frame *N*'s plan on the
//!   shared [`PePool`];
//! * the **decode stage** (worker thread) drains frame *N−1* into the
//!   caller's decode hook and stamps the frame's **submit→decode latency**
//!   into a [`LatencyRecord`].
//!
//! Stages are coupled by the bounded channels of `flexcore-parallel`
//! ([`flexcore_parallel::bounded`]): a slow detect stage back-pressures
//! the transmitter instead of queueing unboundedly, so offered load beyond
//! capacity shows up as latency — which is what the per-frame deadline
//! (see `flexcore_hwmodel::lte::frame_deadline_s`) is measured against.
//!
//! **Pipelining is placement-only.** A batch's result depends on exactly
//! two things: the prepared detector state it runs against and the batch
//! geometry. The plan that crosses the job channel *is* the barrier
//! tick's plan — same cell, same carve, same prices, same order — and it
//! holds the prepared slots it was planned against (a later re-prepare of
//! the engine copies on write), so the pipelined detections are
//! bit-identical to [`StreamingCell::process_tick`] — a property the
//! tests enforce cell-for-cell. Each user's a-FlexCore stopping threshold
//! (§5.1) is the one its detector was built with; the pipeline measures
//! latency, it does not steer effort.

use crate::engine::FrameEngine;
use crate::frame::RxFrame;
use crate::multiuser::StreamingCell;
use crate::stream::ChannelStream;
use crate::tick::{TickOutput, TickPlan};
use flexcore_detect::common::Detector;
use flexcore_numeric::Cx;
use flexcore_parallel::{bounded, PePool};
use std::time::Instant;

/// Per-frame submit→decode latency samples against one deadline.
///
/// Records every sample (seconds) plus a running deadline-miss count;
/// [`LatencyRecord::stats`] reduces them to nearest-rank percentiles.
///
/// ```
/// use flexcore_engine::pipeline::LatencyRecord;
/// let mut rec = LatencyRecord::new(0.010);
/// for ms in 1..=10u32 {
///     rec.record(ms as f64 * 1e-3);
/// }
/// assert_eq!(rec.len(), 10);
/// assert_eq!(rec.miss_rate(), 0.0); // 10 ms meets a 10 ms deadline
/// assert_eq!(rec.quantile(0.5), 0.005);
/// ```
#[derive(Clone, Debug)]
pub struct LatencyRecord {
    deadline_s: f64,
    samples: Vec<f64>,
    misses: u64,
}

/// The reduced form of a [`LatencyRecord`]: sample count, nearest-rank
/// percentiles, and the deadline-miss rate.
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub n: u64,
    /// The deadline (s) the miss rate is measured against.
    pub deadline_s: f64,
    /// Median latency (s), nearest-rank.
    pub p50_s: f64,
    /// 95th-percentile latency (s), nearest-rank.
    pub p95_s: f64,
    /// 99th-percentile latency (s), nearest-rank.
    pub p99_s: f64,
    /// Worst observed latency (s).
    pub max_s: f64,
    /// Mean latency (s).
    pub mean_s: f64,
    /// Fraction of samples strictly above the deadline.
    pub miss_rate: f64,
}

impl LatencyRecord {
    /// An empty record measured against `deadline_s` (must be positive).
    pub fn new(deadline_s: f64) -> Self {
        assert!(
            deadline_s > 0.0,
            "LatencyRecord: deadline must be positive, got {deadline_s}"
        );
        LatencyRecord {
            deadline_s,
            samples: Vec::new(),
            misses: 0,
        }
    }

    /// Stamps one frame's latency (seconds).
    pub fn record(&mut self, seconds: f64) {
        // flexcore-lint: hot-path
        // One push and one compare per decoded frame — this runs inside
        // the decode stage, between a frame's CRC and the next recv.
        self.samples.push(seconds);
        if seconds > self.deadline_s {
            self.misses += 1;
        }
    }

    /// Samples recorded so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in arrival order — enough to recompute the miss
    /// rate or window the record (e.g. drop a warm-up prefix).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Fraction of samples strictly above the deadline (0.0 when empty).
    pub fn miss_rate(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.misses as f64 / self.samples.len() as f64
    }

    /// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of the samples, 0.0 when
    /// empty: the smallest sample of rank `⌈q·n⌉`, so `quantile(1.0)` is
    /// the maximum and every returned value is an observed sample.
    pub fn quantile(&self, q: f64) -> f64 {
        Self::nearest_rank(&self.sorted(), q)
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The one definition of [`LatencyRecord::quantile`]'s rule, over
    /// already-sorted samples.
    fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile: q out of range: {q}");
        let n = sorted.len();
        if n == 0 {
            return 0.0;
        }
        sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
    }

    /// Reduces the record to counts, percentiles and the miss rate.
    pub fn stats(&self) -> LatencyStats {
        let n = self.samples.len();
        let mean = if n == 0 {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / n as f64
        };
        // One sort serves all four ranks.
        let sorted = self.sorted();
        LatencyStats {
            n: n as u64,
            deadline_s: self.deadline_s,
            p50_s: Self::nearest_rank(&sorted, 0.50),
            p95_s: Self::nearest_rank(&sorted, 0.95),
            p99_s: Self::nearest_rank(&sorted, 0.99),
            max_s: Self::nearest_rank(&sorted, 1.0),
            mean_s: mean,
            miss_rate: self.miss_rate(),
        }
    }
}

/// One tick travelling from the transmit stage to the detect stage.
struct TickJob<D> {
    tick: u64,
    submitted: Instant,
    plan: TickPlan<D>,
}

/// One detected tick travelling from the detect stage to the decode
/// stage.
struct DoneTick<T> {
    tick: u64,
    submitted: Instant,
    outputs: Vec<TickOutput<T>>,
}

/// Everything one pipelined run produced: progress counters and the
/// latency record.
#[derive(Clone, Debug)]
pub struct PipelineReport {
    /// Ticks that carried at least one frame into the pipeline.
    pub ticks: u64,
    /// Frames submitted (and, because the run drains before returning,
    /// detected and decoded) across all users.
    pub frames: u64,
    /// Submit→decode latency across every frame of every user.
    pub overall: LatencyRecord,
}

/// The pipelined driver of a [`StreamingCell`] — see the
/// [module docs](self).
///
/// Per tick, the transmit stage builds frame *N+1* while the detect stage
/// works frame *N* and the decode stage drains frame *N−1*; the bounded
/// hand-off queues (capacity [`PipelinedCell::with_queue_depth`]) make a
/// saturated detect stage back-pressure the transmitter.
pub struct PipelinedCell<D> {
    cell: StreamingCell<D>,
    queue_depth: usize,
}

impl<D: Detector + Clone + Send + Sync> Default for PipelinedCell<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Detector + Clone + Send + Sync> PipelinedCell<D> {
    /// An empty cell with the default hand-off queue depth of 2 (one tick
    /// in flight per stage boundary plus one buffered).
    pub fn new() -> Self {
        Self::with_queue_depth(2)
    }

    /// An empty cell whose stage hand-off queues each hold `queue_depth`
    /// ticks (must be ≥ 1). Deeper queues smooth bursty detect cost at
    /// the price of more frames in flight, each waiting longer.
    pub fn with_queue_depth(queue_depth: usize) -> Self {
        assert!(queue_depth >= 1, "PipelinedCell: queue depth must be ≥ 1");
        PipelinedCell {
            cell: StreamingCell::new(),
            queue_depth,
        }
    }

    /// Registers a user — see [`StreamingCell::add_user`]. Returns the
    /// user id.
    pub fn add_user(&mut self, stream: ChannelStream, template: D) -> usize {
        self.cell.add_user(stream, template)
    }

    /// Number of registered users.
    pub fn n_users(&self) -> usize {
        self.cell.n_users()
    }

    /// One user's channel stream.
    pub fn stream(&self, user: usize) -> &ChannelStream {
        self.cell.stream(user)
    }

    /// One user's frame engine (prepared detectors, effort profile).
    pub fn engine(&self, user: usize) -> &FrameEngine<D> {
        self.cell.engine(user)
    }

    /// The cell this pipeline drives, for tests auditing its accounting.
    #[cfg(test)]
    pub(crate) fn cell(&self) -> &StreamingCell<D> {
        &self.cell
    }

    /// Runs `n_ticks` through the three overlapped stages and returns the
    /// run's latency record once every submitted frame has drained.
    ///
    /// Per tick the **transmit stage** (this thread) ages every user's
    /// stream through `advance` (however the scenario dictates; the cell
    /// re-prepares what moved) and submits the frame `transmit` returns
    /// (`None` skips the user this tick); the tick is then planned as one
    /// [`TickPlan`] and booked, exactly like a barrier tick. The **detect
    /// stage** runs each plan on `pool`. The **decode stage** feeds every
    /// [`TickOutput`] to `decode` and stamps the frame's submit→decode
    /// latency against `deadline_s`.
    ///
    /// Every user's detections are bit-identical to the barrier
    /// [`StreamingCell::process_tick`] fed the same frames — pipelining
    /// is placement-only.
    ///
    /// `_retune`: ignored; removed by ROADMAP's `[benchmark]` item 5 (the
    /// benchmark still passes `|_, _| false`).
    ///
    /// # Panics
    /// Panics if `deadline_s` is not positive, if a transmitted frame does
    /// not match its user's stream ([`StreamingCell::submit`]), or if a
    /// stage worker panicked (the panic is resumed on this thread).
    #[allow(clippy::too_many_arguments)]
    pub fn run<P, T, A, X, F, G, R>(
        &mut self,
        pool: &P,
        n_ticks: u64,
        deadline_s: f64,
        mut advance: A,
        mut transmit: X,
        detect: F,
        decode: G,
        _retune: R,
    ) -> PipelineReport
    where
        P: PePool + Sync,
        T: Send,
        A: FnMut(u64, usize, &mut ChannelStream),
        X: FnMut(u64, usize, &ChannelStream) -> Option<RxFrame>,
        F: Fn(&D, usize, usize, &[&[Cx]]) -> Vec<T> + Sync,
        G: FnMut(u64, &TickOutput<T>) + Send,
        R: FnMut(&mut D, f64) -> bool,
    {
        assert!(
            deadline_s > 0.0,
            "PipelinedCell: deadline must be positive, got {deadline_s}"
        );
        let n_users = self.cell.n_users();
        let (job_tx, job_rx) = bounded::<TickJob<D>>(self.queue_depth);
        let (done_tx, done_rx) = bounded::<DoneTick<T>>(self.queue_depth);
        let detect_fn = &detect;

        let mut ticks = 0u64;
        let mut frames = 0u64;

        let overall = std::thread::scope(|scope| {
            let detect_handle = scope.spawn(move || {
                while let Some(job) = job_rx.recv() {
                    let done = DoneTick {
                        tick: job.tick,
                        submitted: job.submitted,
                        outputs: job.plan.run(pool, detect_fn),
                    };
                    if done_tx.send(done).is_err() {
                        break; // decode stage is gone; drain and exit
                    }
                }
            });
            let mut decode = decode;
            let decode_handle = scope.spawn(move || {
                let mut overall = LatencyRecord::new(deadline_s);
                while let Some(done) = done_rx.recv() {
                    for out in &done.outputs {
                        decode(done.tick, out);
                        // The frame's life ends here: latency spans
                        // submit (transmit-stage stamp, including any
                        // backpressure wait) through decode return.
                        overall.record(done.submitted.elapsed().as_secs_f64());
                    }
                }
                overall
            });

            for tick in 0..n_ticks {
                // Transmit/prepare frame N+1 while the workers hold N and
                // N−1.
                let mut offered = 0u64;
                for u in 0..n_users {
                    self.cell.age_user(u, |stream| advance(tick, u, stream));
                    if let Some(frame) = transmit(tick, u, self.cell.stream(u)) {
                        self.cell.submit(u, frame);
                        offered += 1;
                    }
                }
                if offered == 0 {
                    continue;
                }
                ticks += 1;
                frames += offered;
                // Booked here, from the plan: the detect thread owns the
                // outputs, this thread owns the cell.
                let submitted = Instant::now();
                let plan = self.cell.plan_tick(pool.n_pes());
                self.cell.book_tick(&plan);
                let job = TickJob {
                    tick,
                    submitted,
                    plan,
                };
                // A full queue blocks here — backpressure, not loss.
                if job_tx.send(job).is_err() {
                    break; // detect stage is gone; its panic resumes below
                }
            }

            // Closing the job channel drains the pipeline: detect sees
            // end-of-stream after the last job, decode after the last
            // done-tick.
            drop(job_tx);
            if let Err(payload) = detect_handle.join() {
                std::panic::resume_unwind(payload);
            }
            match decode_handle.join() {
                Ok(overall) => overall,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });

        PipelineReport {
            ticks,
            frames,
            overall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::DetectedFrame;
    use flexcore::CellDetector;
    use flexcore_channel::ChannelEnsemble;
    use flexcore_modulation::{Constellation, Modulation};
    use flexcore_parallel::{CrossbeamPool, SequentialPool, WeightedPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    const NT: usize = 4;

    fn c16() -> Constellation {
        Constellation::new(Modulation::Qam16)
    }

    fn mk_stream(n_sc: usize, seed: u64) -> ChannelStream {
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(seed);
        ChannelStream::new(&ens, n_sc, 0.9, 3, 0.02, &mut rng)
    }

    /// Random 16-QAM transmit frame through one user's truth channels,
    /// fully determined by `seed`.
    fn tx_frame(stream: &ChannelStream, n_sym: usize, seed: u64) -> RxFrame {
        let c = c16();
        let mut sym_rng = StdRng::seed_from_u64(seed);
        let mut noise_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        stream.transmit_frame(
            n_sym,
            |_, _| {
                (0..NT)
                    .map(|_| c.point(sym_rng.gen_range(0..c.order())))
                    .collect()
            },
            &mut noise_rng,
        )
    }

    fn advance_seed(tick: u64, user: usize) -> u64 {
        1000 * (user as u64 + 1) + tick
    }

    fn tx_seed(tick: u64, user: usize) -> u64 {
        500 + 10 * user as u64 + tick
    }

    #[test]
    fn latency_record_quantiles_and_miss_rate() {
        let empty = LatencyRecord::new(1.0);
        assert!(empty.is_empty());
        assert_eq!(empty.miss_rate(), 0.0);
        assert_eq!(empty.stats().p99_s, 0.0);

        // 1..=100 ms recorded out of order; nearest-rank percentiles must
        // be the observed samples regardless.
        let mut rec = LatencyRecord::new(0.095);
        for ms in (1..=100u32).rev() {
            rec.record(ms as f64 * 1e-3);
        }
        let stats = rec.stats();
        assert_eq!(stats.n, 100);
        assert_eq!(stats.p50_s, 0.050);
        assert_eq!(stats.p95_s, 0.095);
        assert_eq!(stats.p99_s, 0.099);
        assert_eq!(stats.max_s, 0.100);
        assert!((stats.mean_s - 0.0505).abs() < 1e-12);
        // 96..=100 ms are strictly above the 95 ms deadline.
        assert_eq!(stats.miss_rate, 0.05);
        assert!(stats.p50_s <= stats.p95_s && stats.p95_s <= stats.p99_s);
        assert!(stats.p99_s <= stats.max_s);

        // An unsorted record with ties and a non-round count: the one-sort
        // `stats()` must read exactly what four `quantile` calls read.
        let mut rec = LatencyRecord::new(0.5);
        for i in 0..37u32 {
            rec.record(f64::from(i * 7919 % 13) * 0.1 + 0.01);
        }
        let stats = rec.stats();
        assert_eq!(
            [stats.p50_s, stats.p95_s, stats.p99_s, stats.max_s],
            [0.50, 0.95, 0.99, 1.0].map(|q| rec.quantile(q))
        );
        let worst = rec.samples().iter().copied().fold(0.0, f64::max);
        assert_eq!(stats.max_s, worst);
    }

    /// Runs one schedule through the barrier cell and through a fresh
    /// pipelined cell on `pool`, and asserts they agree cell for cell.
    fn assert_pipeline_matches_the_barrier_tick<P: PePool + Sync>(pool: &P) {
        // 3 users (fixed + adaptive mix), 5 ticks, one user skipping one
        // tick: every decoded frame must equal the barrier StreamingCell
        // fed the same deterministic schedule, cell for cell.
        const N_SC: usize = 5;
        const N_SYM: usize = 3;
        const N_TICKS: u64 = 5;
        let mk_users = || {
            vec![
                (mk_stream(N_SC, 71), CellDetector::fixed(c16(), 8)),
                (mk_stream(N_SC, 72), CellDetector::adaptive(c16(), 8, 0.95)),
                (mk_stream(N_SC, 73), CellDetector::adaptive(c16(), 8, 0.9)),
            ]
        };
        let skip = |tick: u64, user: usize| tick == 2 && user == 1;

        // Barrier reference: advance → submit → tick, per tick.
        let mut cell = StreamingCell::new();
        for (stream, det) in mk_users() {
            cell.add_user(stream, det);
        }
        let mut want: Vec<(u64, usize, DetectedFrame)> = Vec::new();
        for tick in 0..N_TICKS {
            for u in 0..3 {
                let mut rng = StdRng::seed_from_u64(advance_seed(tick, u));
                cell.advance_user(u, &mut rng);
                if !skip(tick, u) {
                    let f = tx_frame(cell.stream(u), N_SYM, tx_seed(tick, u));
                    cell.submit(u, f);
                }
            }
            for (u, frame) in cell.detect_tick(&SequentialPool::new(4)) {
                want.push((tick, u, frame));
            }
        }

        // Pipelined run over the identical schedule on `pool`.
        let mut pipe = PipelinedCell::new();
        for (stream, det) in mk_users() {
            pipe.add_user(stream, det);
        }
        let got: Mutex<Vec<(u64, usize, DetectedFrame)>> = Mutex::new(Vec::new());
        let report = pipe.run(
            pool,
            N_TICKS,
            1.0,
            |tick, u, stream| {
                let mut rng = StdRng::seed_from_u64(advance_seed(tick, u));
                stream.advance(&mut rng);
            },
            |tick, u, stream| (!skip(tick, u)).then(|| tx_frame(stream, N_SYM, tx_seed(tick, u))),
            |det, _u, _sc, ys| det.detect_batch_refs(ys),
            |tick, out| {
                got.lock().unwrap().push((
                    tick,
                    out.user,
                    DetectedFrame::from_parts(out.n_subcarriers, NT, out.cells.concat()),
                ));
            },
            |_d, _t| false,
        );
        let got = got.into_inner().unwrap();

        assert_eq!(report.ticks, N_TICKS);
        assert_eq!(report.frames as usize, want.len());
        assert_eq!(got.len(), want.len());
        // Decode preserves tick order, and within a tick user order — the
        // same order the barrier loop produced.
        for ((gt, gu, gframe), (wt, wu, wframe)) in got.iter().zip(&want) {
            assert_eq!((gt, gu), (wt, wu));
            assert_eq!(gframe, wframe, "tick {gt} user {gu}");
        }
        // Latency accounting covered every frame.
        assert_eq!(report.overall.len(), want.len());
    }

    #[test]
    fn pipelined_detections_are_bit_identical_to_the_barrier_tick() {
        assert_pipeline_matches_the_barrier_tick(&CrossbeamPool::work_queue(3));
        assert_pipeline_matches_the_barrier_tick(&SequentialPool::new(4));
        assert_pipeline_matches_the_barrier_tick(&WeightedPool::new(vec![1.0, 0.5, 2.0]));
    }

    /// Sets its flag when dropped: captured by a stage's closure, it tells
    /// another stage that the first has unwound.
    struct SetOnDrop(Arc<AtomicBool>);

    impl Drop for SetOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    /// Runs `scenario` on a thread of its own and fails — instead of
    /// hanging the suite on a stage left blocked — when it takes a minute.
    fn within_a_minute(scenario: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            scenario();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("a pipeline stage is still blocked"),
        }
    }

    /// Eight one-symbol ticks of two users on `pool` — one symbol, so every
    /// tick calls `detect` exactly once per user and subcarrier and the
    /// `n`-th call for user 0's subcarrier 0 is tick `n`. Either `detect`
    /// panics on tick 3, or `decode` panics on tick 0 while tick 1's
    /// `detect` — inside `pool.run` — waits for it to have unwound.
    /// Returns what [`PipelinedCell::run`] unwound with.
    fn run_into_a_stage_panic(
        pool: &CrossbeamPool,
        detect_panics: bool,
    ) -> Box<dyn std::any::Any + Send> {
        let mut pipe = PipelinedCell::new();
        pipe.add_user(mk_stream(4, 61), CellDetector::fixed(c16(), 8));
        pipe.add_user(mk_stream(4, 62), CellDetector::fixed(c16(), 8));
        let tick_of_next_call = AtomicUsize::new(0);
        let decode_gone = Arc::new(AtomicBool::new(false));
        let decode_guard = SetOnDrop(Arc::clone(&decode_gone));
        catch_unwind(AssertUnwindSafe(|| {
            pipe.run(
                pool,
                8,
                1.0,
                |_, _, _| {},
                |tick, u, stream| Some(tx_frame(stream, 1, tx_seed(tick, u))),
                |det, u, sc, ys| {
                    if u == 0 && sc == 0 {
                        let tick = tick_of_next_call.fetch_add(1, Ordering::SeqCst);
                        if detect_panics && tick == 3 {
                            panic!("detect on tick 3");
                        }
                        if !detect_panics && tick == 1 {
                            let t0 = Instant::now();
                            while !decode_gone.load(Ordering::SeqCst)
                                && t0.elapsed() < Duration::from_secs(5)
                            {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                    det.detect_batch_refs(ys)
                },
                move |_tick, _out| {
                    let _unwound_with_the_stage = &decode_guard;
                    if !detect_panics {
                        panic!("decode on tick 0");
                    }
                },
                |_d, _t| false,
            )
        }))
        .expect_err("the run must unwind")
    }

    #[test]
    fn a_stage_panic_resumes_on_the_caller_and_the_same_pool_serves_the_next_cell() {
        // With parked helpers something does survive a batch: show that a
        // stage dying mid-run leaves no thread blocked on either channel
        // and leaves the pool's helpers serving.
        within_a_minute(|| {
            let pool = CrossbeamPool::work_queue(2);
            for (detect_panics, want) in [(true, "detect on tick 3"), (false, "decode on tick 0")] {
                let payload = run_into_a_stage_panic(&pool, detect_panics);
                assert_eq!(payload.downcast_ref::<&str>(), Some(&want));
                assert_pipeline_matches_the_barrier_tick(&pool);
            }
        });
    }

    #[test]
    fn empty_transmit_ticks_flow_through_without_output() {
        let mut pipe = PipelinedCell::new();
        pipe.add_user(mk_stream(3, 91), CellDetector::fixed(c16(), 4));
        let decoded = Mutex::new(0usize);
        let report = pipe.run(
            &SequentialPool::new(2),
            4,
            1.0,
            |_, _, _| {},
            |tick, u, stream| (tick % 2 == 0).then(|| tx_frame(stream, 2, tx_seed(tick, u))),
            |det, _u, _sc, ys| det.detect_batch_refs(ys),
            |_tick, _out| *decoded.lock().unwrap() += 1,
            |_d, _t| false,
        );
        assert_eq!(report.ticks, 2, "only frame-carrying ticks count");
        assert_eq!(report.frames, 2);
        assert_eq!(*decoded.lock().unwrap(), 2);
        assert_eq!(report.overall.len(), 2);
    }
}
