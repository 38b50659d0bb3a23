//! Cross-crate integration tests for the frame-level detection engine:
//! substrate equivalence on real detectors, preparation caching, and
//! whole coded packets through the engine on every pool.

use flexcore::FlexCoreDetector;
use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
use flexcore_detect::common::Detector;
use flexcore_detect::{FcsdDetector, MmseDetector, SphereDecoder};
use flexcore_engine::{
    ChannelStream, DetectedFrame, FrameChannel, FrameEngine, RxFrame, StreamingCell,
};
use flexcore_hwmodel::HeterogeneousFabric;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_numeric::rng::CxRng;
use flexcore_numeric::Cx;
use flexcore_parallel::{lpt_makespan_weighted, CrossbeamPool, PePool, SequentialPool};
use flexcore_phy::link::{cell_packet_tick, simulate_packet, LinkConfig};
use flexcore_phy::LinkOutcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::time::Instant;

const NT: usize = 4;
const SNR: f64 = 14.0;

fn selective_channel(n_sc: usize, seed: u64) -> FrameChannel {
    selective_channel_at(NT, SNR, n_sc, seed)
}

fn selective_channel_at(nt: usize, snr_db: f64, n_sc: usize, seed: u64) -> FrameChannel {
    let mut rng = StdRng::seed_from_u64(seed);
    FrameChannel::per_subcarrier(
        ChannelEnsemble::iid(nt, nt).draw_many(&mut rng, n_sc),
        sigma2_from_snr_db(snr_db),
    )
}

/// The band [`selective_channel_at`] draws, as a static (`ρ = 1`) stream
/// whose estimate a [`StreamingCell`] user prepares against.
fn selective_stream(nt: usize, snr_db: f64, n_sc: usize, seed: u64) -> ChannelStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let ens = ChannelEnsemble::iid(nt, nt);
    ChannelStream::new(&ens, n_sc, 1.0, 1, sigma2_from_snr_db(snr_db), &mut rng)
}

fn random_frame(channel: &FrameChannel, n_sym: usize, seed: u64) -> RxFrame {
    let c = Constellation::new(Modulation::Qam16);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut frame = RxFrame::empty(channel.n_subcarriers());
    for _ in 0..n_sym {
        let mut row = Vec::with_capacity(channel.n_subcarriers());
        for sc in 0..channel.n_subcarriers() {
            let x: Vec<Cx> = (0..channel.h(sc).cols())
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
    frame
}

fn frame_on<D: Detector + Clone + Sync, P: PePool>(
    template: D,
    channel: &FrameChannel,
    frame: &RxFrame,
    pool: &P,
) -> DetectedFrame {
    let mut engine = FrameEngine::new(template);
    engine.prepare(channel);
    engine.detect_frame(frame, pool)
}

/// `frame` as a one-user tick on `stream`'s estimate, planned for `n_pes`
/// PEs: the plan's prices (run order), then its decisions after a run on
/// `pool`, flattened like [`DetectedFrame::iter`].
fn plan_and_run<D: Detector + Clone + Sync, P: PePool>(
    template: D,
    stream: &ChannelStream,
    frame: &RxFrame,
    n_pes: usize,
    pool: &P,
) -> (Vec<u64>, Vec<usize>) {
    let mut cell = StreamingCell::new();
    let user = cell.add_user(stream.clone(), template);
    cell.submit(user, frame.clone());
    let plan = cell.plan_tick(n_pes);
    let costs = plan.costs().to_vec();
    let decisions = cell
        .run_tick(plan, pool)
        .flat_map(|(_, cells)| cells.iter().map(|&s| usize::from(s)))
        .collect();
    (costs, decisions)
}

fn flat(frame: &DetectedFrame) -> Vec<usize> {
    frame.iter().flatten().copied().collect()
}

/// Runs tasks in order on the calling thread and keeps the wall-clock
/// seconds of each task of its last batch.
struct TimedPool {
    n_pes: usize,
    task_seconds: RefCell<Vec<f64>>,
}

impl PePool for TimedPool {
    fn n_pes(&self) -> usize {
        self.n_pes
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let mut seconds = self.task_seconds.borrow_mut();
        seconds.clear();
        tasks
            .into_iter()
            .map(|task| {
                let t0 = Instant::now();
                let out = task();
                seconds.push(t0.elapsed().as_secs_f64());
                out
            })
            .collect()
    }
}

thread_local! {
    /// Batches per detection call on this thread, in call order: what
    /// [`Logged`] saw while a [`TimedPool`] ran a plan's tasks.
    static BATCHES_PER_CALL: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// FlexCore that logs how many batches each detection call took: one, or
/// a group's members when the tick put several one-path batches in one
/// task. The audit prices each timed task at the sum of its batches.
#[derive(Clone, Debug)]
struct Logged(FlexCoreDetector);

impl Detector for Logged {
    fn name(&self) -> String {
        self.0.name()
    }
    fn prepare(&mut self, h: &flexcore_numeric::CMat, sigma2: f64) {
        self.0.prepare(h, sigma2)
    }
    fn detect(&self, y: &[Cx]) -> Vec<usize> {
        self.0.detect(y)
    }
    fn n_streams(&self) -> usize {
        self.0.n_streams()
    }
    fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
        BATCHES_PER_CALL.with_borrow_mut(|calls| calls.push(1));
        self.0.detect_batch_into(ys, out)
    }
    fn groups_with(&self, other: &Self) -> bool {
        self.0.groups_with(&other.0)
    }
    fn detect_group_into(group: &[&Self], ys: &[&[Cx]], out: &mut [u16]) {
        BATCHES_PER_CALL.with_borrow_mut(|calls| calls.push(group.len()));
        let inner: Vec<&FlexCoreDetector> = group.iter().map(|d| &d.0).collect();
        FlexCoreDetector::detect_group_into(&inner, ys, out)
    }
    fn effort(&self) -> usize {
        self.0.effort()
    }
    fn extension_work(&self) -> usize {
        self.0.extension_work()
    }
}

/// The plan's batch prices (run order) summed per task of the run
/// [`BATCHES_PER_CALL`] logged: one detection call per task.
fn task_costs(costs: &[u64]) -> Vec<u64> {
    let calls = BATCHES_PER_CALL.take();
    let mut left = costs;
    let tasks = calls.iter().map(|&n| {
        let (task, rest) = left.split_at(n);
        left = rest;
        task.iter().sum()
    });
    let tasks = tasks.collect();
    assert!(left.is_empty(), "batches no call took");
    tasks
}

/// `|predicted − measured| / measured` makespan of one priced run on a
/// fabric of `speeds`. `costs` and `task_seconds` are in run order, which
/// is the plan's LPT order, so visiting them in order books each task
/// where the weighted LPT rule does: to the PE that would finish its
/// price earliest (ties to the lowest index). Measured busy time is
/// `Σ seconds / speed` per PE; the prediction is the model's makespan in
/// units times the run's own mean seconds per unit, which divides the
/// host's absolute speed out.
fn makespan_error(costs: &[u64], speeds: &[f64], task_seconds: &[f64]) -> f64 {
    assert_eq!(costs.len(), task_seconds.len(), "one time per priced task");
    let mut loads = vec![0u64; speeds.len()];
    let mut busy_s = vec![0.0f64; speeds.len()];
    for (&cost, &seconds) in costs.iter().zip(task_seconds) {
        let finish = |pe: usize| (loads[pe] + cost) as f64 / speeds[pe];
        let mut pe = 0;
        for other in 1..speeds.len() {
            if finish(other) < finish(pe) {
                pe = other;
            }
        }
        loads[pe] += cost;
        busy_s[pe] += seconds / speeds[pe];
    }
    let units = lpt_makespan_weighted(costs, speeds);
    let booked = loads.iter().zip(speeds).map(|(&l, &s)| l as f64 / s);
    assert_eq!(
        booked.fold(0.0, f64::max),
        units,
        "not the model's placement"
    );
    let predicted = units * task_seconds.iter().sum::<f64>() / costs.iter().sum::<u64>() as f64;
    let measured = busy_s.iter().copied().fold(0.0, f64::max);
    (predicted - measured).abs() / measured
}

#[test]
fn crossbeam_frame_output_is_identical_to_sequential_for_real_detectors() {
    // The ISSUE's substrate-equivalence requirement, on tree-search
    // detectors whose per-vector cost varies (the hard case for
    // scheduling): every pool must produce the same DetectedFrame.
    let channel = selective_channel(16, 1);
    let frame = random_frame(&channel, 6, 2);
    let c = Constellation::new(Modulation::Qam16);

    let seq = SequentialPool::new(1);
    let queue = CrossbeamPool::work_queue(4);

    let reference = frame_on(
        FlexCoreDetector::with_pes(c.clone(), 12),
        &channel,
        &frame,
        &seq,
    );
    assert_eq!(
        frame_on(
            FlexCoreDetector::with_pes(c.clone(), 12),
            &channel,
            &frame,
            &queue
        ),
        reference
    );

    let reference = frame_on(SphereDecoder::new(c.clone()), &channel, &frame, &seq);
    assert_eq!(
        frame_on(SphereDecoder::new(c.clone()), &channel, &frame, &queue),
        reference
    );

    let reference = frame_on(FcsdDetector::new(c.clone(), 1), &channel, &frame, &seq);
    assert_eq!(
        frame_on(FcsdDetector::new(c, 1), &channel, &frame, &queue),
        reference
    );
}

#[test]
fn one_persistent_pool_serves_100_frames_bit_identically_across_a_task_panic() {
    // The work-queue pool's helpers outlive every batch, so the pool —
    // not just each `run` — has to be shown stateless: 100 frames through
    // one `work_queue(2)` pool, a task panicking under frame 50, and the
    // frames after it still equal to the sequential reference.
    let channel = selective_channel(12, 41);
    let c = Constellation::new(Modulation::Qam16);
    let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(c, 12));
    engine.prepare(&channel);
    let seq = SequentialPool::new(1);
    let queue = CrossbeamPool::work_queue(2);
    for i in 0..100u64 {
        let frame = random_frame(&channel, 3, 1000 + i);
        if i == 50 {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.process_frame(&frame, &queue, |det, sc, ys| {
                    assert!(sc != 7, "subcarrier 7 of frame 50");
                    det.detect_batch_refs(ys)
                })
            }));
            let payload = unwound.expect_err("the frame must unwind");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"subcarrier 7 of frame 50")
            );
        }
        assert_eq!(
            engine.detect_frame(&frame, &queue),
            engine.detect_frame(&frame, &seq),
            "frame {i}"
        );
    }
}

#[test]
fn weighted_fabric_output_is_identical_to_sequential_for_real_detectors() {
    // The PR 5 extension of the substrate-equivalence requirement:
    // heterogeneous placement is a model over a plan's prices, never a
    // different run. On every fabric shape a one-user plan for the
    // fabric's PE count must detect exactly the sequential reference,
    // fixed and adaptive, and its weighted-LPT makespan must price under
    // any `PeCost` model.
    use flexcore_hwmodel::{CpuModel, FpgaModel, PeClass, PeCost, WorkUnit};

    let stream = selective_stream(NT, SNR, 12, 31);
    let frame = random_frame(stream.estimate(), 5, 32);
    let c = Constellation::new(Modulation::Qam16);
    let work = WorkUnit::new(NT, 16);
    let seq = SequentialPool::new(1);

    let fabrics = [
        HeterogeneousFabric::lte_smallcell(),
        HeterogeneousFabric::new("flat", vec![PeClass::new("pe", 5, 1.0)]),
        HeterogeneousFabric::new(
            "skew",
            vec![PeClass::new("fast", 1, 10.0), PeClass::new("slow", 2, 0.5)],
        ),
    ];
    let mk_fixed = || FlexCoreDetector::with_pes(c.clone(), 12);
    let mk_adaptive = || FlexCoreDetector::adaptive(c.clone(), 16, 0.95);

    let fixed_ref = flat(&frame_on(mk_fixed(), stream.estimate(), &frame, &seq));
    let adaptive_ref = flat(&frame_on(mk_adaptive(), stream.estimate(), &frame, &seq));
    for fabric in &fabrics {
        let (n_pes, speeds) = (fabric.n_pes(), fabric.speed_factors());
        let pool = SequentialPool::new(n_pes);
        let (_, fixed) = plan_and_run(mk_fixed(), &stream, &frame, n_pes, &pool);
        assert_eq!(fixed, fixed_ref, "{} fixed", fabric.name);
        let (costs, adaptive) = plan_and_run(mk_adaptive(), &stream, &frame, n_pes, &pool);
        assert_eq!(adaptive, adaptive_ref, "{} adaptive", fabric.name);
        // The adaptive plan, priced on CPU and FPGA models.
        let units: u64 = costs.iter().sum();
        let span = lpt_makespan_weighted(&costs, &speeds);
        let packing = units as f64 / (speeds.iter().sum::<f64>() * span);
        assert!(units > 0);
        assert!(
            packing > 0.0 && packing <= 1.0,
            "{} packing {packing}",
            fabric.name
        );
        let fpga = FpgaModel::new(flexcore_hwmodel::EngineKind::FlexCore, NT, 16);
        for unit_s in [
            CpuModel::fx8120().unit_seconds(&work),
            fpga.unit_seconds(&work),
        ] {
            let model_makespan_s = span * unit_s;
            assert!(model_makespan_s > 0.0 && model_makespan_s.is_finite());
        }
    }
}

#[test]
#[ignore = "timing audit: run in release"]
fn fabric_makespan_prediction_tracks_real_detection_cost() {
    // What every modelled number rests on (`hwtable`'s Mb/s, the city's
    // tick durations): a batch priced at `extension_work × symbols` must
    // cost real detection time in proportion, or the predicted makespan
    // silently drifts. PR 6 caught the unpriced nt² rotate at 64×64 with
    // exactly this audit; spin-loop tasks cannot.
    const MAX_MAKESPAN_ERROR: f64 = 0.25;
    let fabric = HeterogeneousFabric::lte_smallcell();
    let speeds = fabric.speed_factors();
    let pool = TimedPool {
        n_pes: fabric.n_pes(),
        task_seconds: RefCell::default(),
    };
    let c = Constellation::new(Modulation::Qam16);
    for nt in [8usize, 64] {
        // 52 subcarriers: each of the 8 PEs averages several, so
        // per-subcarrier cost spread the price cannot see evens out.
        let stream = selective_stream(nt, 20.0, 52, 600 + nt as u64);
        let frames: Vec<RxFrame> = (0..10)
            .map(|i| random_frame(stream.estimate(), 8, 700 + 10 * nt as u64 + i))
            .collect();
        for template in [
            Logged(FlexCoreDetector::with_pes(c.clone(), 16)),
            Logged(FlexCoreDetector::adaptive(c.clone(), 16, 0.95)),
        ] {
            let name = template.name();
            let mut cell = StreamingCell::new();
            cell.add_user(stream.clone(), template);
            // One frame as a one-user tick: the plan's prices, then that
            // plan run on the timed pool.
            let mut frame_error = |frame: &RxFrame| {
                cell.submit(0, frame.clone());
                let plan = cell.plan_tick(pool.n_pes());
                let costs = plan.costs().to_vec();
                let _ = cell.run_tick(plan, &pool);
                let costs = task_costs(&costs);
                makespan_error(&costs, &speeds, &pool.task_seconds.borrow())
            };
            // One warm-up frame, then the *minimum* error over 9 timed
            // frames: the channel (and so the batch plan and predicted
            // makespan) is the same every frame, and host-scheduler
            // preemptions only ever add time — one ~20 µs spike on a
            // ~6 µs batch of the critical PE inflates that frame's
            // measured makespan by 30–50 %. A systematic cost-model error
            // shows up in every frame including the quietest one, so
            // min-of-N is the denoised estimate of exactly the error this
            // audit is after.
            let mut quietest_frame_error = || {
                frame_error(&frames[0]);
                frames[1..]
                    .iter()
                    .map(&mut frame_error)
                    .fold(f64::INFINITY, f64::min)
            };
            let mut error = quietest_frame_error();
            if error >= MAX_MAKESPAN_ERROR {
                // Every frame noisy (a co-tenant hogging the host for the
                // whole measurement): one full re-measurement. A real
                // cost-model error reproduces, a busy neighbour usually
                // does not.
                error = quietest_frame_error();
            }
            // The margin, for whoever re-runs the audit after touching a
            // kernel (`-- --ignored --nocapture`).
            println!("{nt}x{nt} {name}: makespan error {:.1}%", error * 100.0);
            assert!(
                error < MAX_MAKESPAN_ERROR,
                "{nt}x{nt} {name}: predicted-vs-measured makespan error {:.1}% on the \
                 quietest frame, even after a retry",
                error * 100.0
            );
        }
    }
}

#[test]
fn engine_cache_tracks_narrowband_updates_through_detection() {
    let c = Constellation::new(Modulation::Qam16);
    let mut channel = selective_channel(8, 3);
    let mut engine = FrameEngine::new(MmseDetector::new(c.clone()));
    assert_eq!(engine.prepare(&channel), 8);

    let pool = CrossbeamPool::work_queue(2);
    let frame_a = random_frame(&channel, 4, 4);
    let out_a = engine.detect_frame(&frame_a, &pool);

    // Update two subcarriers; only they re-prepare, and subsequent
    // detection uses the fresh channels.
    let mut rng = StdRng::seed_from_u64(5);
    let ens = ChannelEnsemble::iid(NT, NT);
    channel.update_subcarrier(2, &ens.draw(&mut rng));
    channel.update_subcarrier(5, &ens.draw(&mut rng));
    assert_eq!(engine.prepare(&channel), 2);

    let frame_b = random_frame(&channel, 4, 6);
    let out_b = engine.detect_frame(&frame_b, &pool);

    // Reference: a fresh engine fully prepared against the updated channel.
    let reference = frame_on(
        MmseDetector::new(c),
        &channel,
        &frame_b,
        &SequentialPool::new(1),
    );
    assert_eq!(out_b, reference);
    // The pre-update output stays valid: 4 symbols × 8 subcarriers.
    assert_eq!(out_a.iter().count(), 4 * 8);
}

/// One coded packet through the engine: a one-user cell tick on a frozen
/// stream whose `H` is drawn from the user's own RNG first, as in the
/// per-vector reference.
fn tick_one_user<P: PePool>(cfg: &LinkConfig, seed: u64, snr: f64, pool: &P) -> LinkOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let h = ChannelEnsemble::iid(NT, NT).draw(&mut rng);
    let stream = ChannelStream::frozen(h, cfg.ofdm.n_data, sigma2_from_snr_db(snr));
    let mut cell = StreamingCell::new();
    cell.add_user(
        stream,
        FlexCoreDetector::with_pes(cfg.constellation.clone(), 16),
    );
    cell_packet_tick(cfg, &mut cell, pool, &mut [rng])
        .remove(0)
        .link
}

#[test]
fn framed_uplink_equals_sequential_uplink_through_every_pool() {
    // End-to-end: whole coded packets through the engine — a one-user
    // cell tick on a frozen stream — on every pool vs the per-vector
    // reference: identical delivered packets, identical raw bit errors.
    let c = Constellation::new(Modulation::Qam16);
    let cfg = LinkConfig::paper_default(c.clone(), 50);
    let ens = ChannelEnsemble::iid(NT, NT);
    let snr = 15.0;
    for seed in [11u64, 12] {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = ens.draw(&mut rng);
        let ch = MimoChannel::new(h.clone(), snr);
        let mut det = FlexCoreDetector::with_pes(c.clone(), 16);
        det.prepare(&h, sigma2_from_snr_db(snr));
        let reference = simulate_packet(&cfg, &ch, &det, &mut rng);

        let framed = [
            (
                "sequential",
                tick_one_user(&cfg, seed, snr, &SequentialPool::new(1)),
            ),
            (
                "work_queue(4)",
                tick_one_user(&cfg, seed, snr, &CrossbeamPool::work_queue(4)),
            ),
        ];
        for (pool, framed) in framed {
            assert_eq!(framed.user_ok, reference.user_ok, "seed {seed} {pool}");
            assert_eq!(
                framed.raw_bit_errors, reference.raw_bit_errors,
                "seed {seed} {pool}"
            );
        }
    }
}
