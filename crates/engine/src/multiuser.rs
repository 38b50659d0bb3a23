//! Multi-user streaming cell: N independent uplinks, one PE pool.
//!
//! A deployed base station does not serve one MIMO uplink — it serves many
//! concurrent user groups, each with its own time-varying channel, its own
//! detector configuration, and its own frame queue, all contending for one
//! pool of processing elements. [`StreamingCell`] is that serving layer,
//! and the only one: it owns the user table, and every serving loop in the
//! workspace is a *driver* making the same four calls on it — age
//! ([`StreamingCell::age_user`]) → [`StreamingCell::submit`] →
//! [`StreamingCell::plan_tick`] → run and book
//! ([`StreamingCell::run_tick`]). The barrier loop of
//! `flexcore_phy::link` makes them back to back,
//! [`PipelinedCell`](crate::PipelinedCell) books on its transmit thread
//! while its detect thread runs the plan, and the city's `CityCell` prices
//! the plan in modelled time between planning and running it.
//!
//! * each user owns a [`ChannelStream`] (truth + staggered estimates)
//!   and a [`FrameEngine`] stamped from its *own* detector template (mix
//!   fixed FlexCore and a-FlexCore users via `flexcore::CellDetector`);
//! * [`StreamingCell::process_tick`] pops the oldest queued frame of every
//!   user, plans **all** users' `(subcarrier × symbol)` batches as one
//!   [`TickPlan`] — ordered longest-processing-time-first across users by
//!   the prepared per-subcarrier work, so a crowded subcarrier of user 3
//!   is scheduled before an easy one of user 0, exactly as within a single
//!   frame — and runs it on one shared [`PePool`] in a single run;
//! * per-user accounting (frames submitted/completed, frames-behind,
//!   effort share) backs the fairness numbers in [`CellStats`].
//!
//! Sharding is **ordering-only**: every user's detections are bit-identical
//! to running that user's engine alone on any pool, which is what makes a
//! multi-user run auditable against N solo runs and keeps the §5.1
//! trace-driven methodology intact at cell scale.

use crate::engine::FrameEngine;
use crate::frame::{DetectedFrame, RxFrame};
use crate::stream::ChannelStream;
use crate::tick::{TickOutput, TickPlan, TickPlane};
use flexcore_detect::common::Detector;
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use rand::Rng;
use std::collections::VecDeque;

struct UserSlot<D> {
    stream: ChannelStream,
    engine: FrameEngine<D>,
    queue: VecDeque<RxFrame>,
    submitted: u64,
    completed: u64,
}

/// Snapshot of a cell's serving state: aggregate progress and per-user
/// fairness. (A tick's packing is modelled from its plan's prices:
/// `flexcore_parallel::lpt_makespan_weighted` over [`TickPlan::costs`].)
#[derive(Clone, Debug, PartialEq)]
pub struct CellStats {
    /// Users registered.
    pub n_users: usize,
    /// Ticks executed (shared pool runs with at least one frame).
    pub ticks: u64,
    /// Frames submitted across all users.
    pub frames_submitted: u64,
    /// Frames completed across all users.
    pub frames_completed: u64,
    /// `min_u (submitted_u − completed_u)` — the best-served user's lag.
    pub min_frames_behind: u64,
    /// `max_u (submitted_u − completed_u)` — the worst-served user's lag.
    /// A tick serves every user with queued work, so under equal offered
    /// load this stays equal to `min_frames_behind`; a growing gap means
    /// some user's traffic is being starved.
    pub max_frames_behind: u64,
    /// Per-user Σ [`Detector::effort`] over currently prepared subcarriers
    /// — how the PE demand splits across users right now.
    pub per_user_effort: Vec<u64>,
}

/// N per-user streaming uplinks sharing one processing-element pool.
///
/// Every serving loop is a driver of this one cell: age a user's channel
/// ([`StreamingCell::advance_user`]), [`StreamingCell::submit`] its
/// frame, [`StreamingCell::plan_tick`], then run and book
/// ([`StreamingCell::run_tick`]). All engines must be prepared before a
/// tick — [`StreamingCell::add_user`] prepares against the stream's
/// initial estimates and every ageing re-prepares exactly the refreshed
/// subcarriers, so the invariant holds as long as frames are built from
/// the same streams.
pub struct StreamingCell<D> {
    users: Vec<UserSlot<D>>,
    /// Non-empty ticks booked.
    ticks: u64,
    /// The last tick's hard decisions, reused tick after tick.
    plane: TickPlane,
}

impl<D: Detector + Clone + Sync> Default for StreamingCell<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<D: Detector + Clone + Sync> StreamingCell<D> {
    /// An empty cell.
    pub fn new() -> Self {
        StreamingCell {
            users: Vec::new(),
            ticks: 0,
            plane: TickPlane::default(),
        }
    }

    /// Registers a user: its channel stream plus the detector template its
    /// engine stamps per subcarrier. The engine is prepared against the
    /// stream's initial estimates immediately. Returns the user id.
    pub fn add_user(&mut self, stream: ChannelStream, template: D) -> usize {
        let mut engine = FrameEngine::new(template);
        engine.prepare(stream.estimate());
        self.users.push(UserSlot {
            stream,
            engine,
            queue: VecDeque::new(),
            submitted: 0,
            completed: 0,
        });
        self.users.len() - 1
    }

    /// Number of registered users.
    pub fn n_users(&self) -> usize {
        self.users.len()
    }

    /// One user's channel stream (for building transmit frames).
    pub fn stream(&self, user: usize) -> &ChannelStream {
        &self.users[user].stream
    }

    /// One user's frame engine (prepared detectors, effort profile).
    pub fn engine(&self, user: usize) -> &FrameEngine<D> {
        &self.users[user].engine
    }

    /// Lets `age` move one user's channel stream however the scenario
    /// dictates, then re-prepares exactly the subcarriers whose estimate
    /// moved — the one place a stream is mutated, so the engine can never
    /// be left stale against it. Returns how many subcarriers were
    /// re-prepared.
    pub(crate) fn age_user(&mut self, user: usize, age: impl FnOnce(&mut ChannelStream)) -> usize {
        let slot = &mut self.users[user];
        age(&mut slot.stream);
        slot.engine.prepare(slot.stream.estimate())
    }

    /// Ages one user's truth channels by a frame, refreshes its estimate
    /// share, and re-prepares exactly the moved subcarriers:
    /// `age_user` with [`ChannelStream::advance`].
    /// Returns how many subcarriers were refreshed.
    pub fn advance_user<R: Rng + ?Sized>(&mut self, user: usize, rng: &mut R) -> usize {
        self.age_user(user, |stream| {
            stream.advance(rng);
        })
    }

    /// Queues a received frame for one user.
    ///
    /// # Panics
    /// Panics if the frame's width does not match the user's stream, or if
    /// its vectors' length does not match the stream's receive-antenna
    /// count (a frame with no vectors has none to check). Nothing is
    /// queued or counted then.
    pub fn submit(&mut self, user: usize, frame: RxFrame) {
        let slot = &mut self.users[user];
        assert_eq!(
            frame.n_subcarriers(),
            slot.stream.n_subcarriers(),
            "submit: frame width does not match user {user}'s band"
        );
        let nr = slot.stream.estimate().h(0).rows();
        assert!(
            frame.n_vectors() == 0 || frame.get(0, 0).len() == nr,
            "submit: frame vector length does not match user {user}'s {nr} receive antennas"
        );
        slot.queue.push_back(frame);
        slot.submitted += 1;
    }

    /// Frames queued but not yet processed for one user.
    pub fn pending(&self, user: usize) -> usize {
        self.users[user].queue.len()
    }

    /// Whether any user has queued work (the next tick would be non-empty).
    pub fn has_queued(&self) -> bool {
        self.users.iter().any(|s| !s.queue.is_empty())
    }

    /// How many frames this user has submitted but not yet had completed.
    pub fn frames_behind(&self, user: usize) -> u64 {
        let slot = &self.users[user];
        slot.submitted - slot.completed
    }

    /// The plan half of a tick: pops every user's **oldest queued frame**
    /// (users with an empty queue are skipped) and plans them as one
    /// [`TickPlan`] for a pool of `n_pes`. The plan owns the popped
    /// frames, so it must be handed to [`StreamingCell::run_tick`] — its
    /// [`TickPlan::costs`] are the prices that run is ordered by, in run
    /// order, which is the city layer's *modelled-time* hook.
    pub fn plan_tick(&mut self, n_pes: usize) -> TickPlan<D> {
        let mut work: Vec<(usize, RxFrame)> = Vec::new();
        for (u, slot) in self.users.iter_mut().enumerate() {
            if let Some(frame) = slot.queue.pop_front() {
                work.push((u, frame));
            }
        }
        let users = &self.users;
        TickPlan::new(
            work.into_iter()
                .map(|(u, frame)| (u, frame, &users[u].engine)),
            n_pes,
        )
    }

    /// The run half of a tick: hard-detects a plan from
    /// [`StreamingCell::plan_tick`] on `pool` into the cell's own decision
    /// plane and books every served user's completion. Yields `(user id,
    /// decisions)` per served user, in user order: the user's frame as one
    /// symbol-major plane of `nt` stream-ordered symbol indices per grid
    /// cell, each bit-identical to [`Detector::detect`]. The plane is
    /// sized by the first tick of a shape and reused, so a warm tick
    /// allocates nothing per vector. A plan that serves nobody is not a
    /// tick.
    pub fn run_tick<P: PePool>(
        &mut self,
        plan: TickPlan<D>,
        pool: &P,
    ) -> impl Iterator<Item = (usize, &[u16])> + '_ {
        plan.detect_plane(pool, &mut self.plane);
        self.book_tick(&plan);
        self.plane.users().map(|(user, _, _, cells)| (user, cells))
    }

    /// The book half of a tick: counts every user `plan` serves as
    /// completed and bills its engine the frame. It reads the plan, not
    /// the outputs, so the pipeline's transmit thread books a tick while
    /// its detect thread is still running it. A plan that serves nobody is
    /// not a tick.
    pub(crate) fn book_tick(&mut self, plan: &TickPlan<D>) {
        let mut served = false;
        for (user, n_vectors) in plan.served() {
            served = true;
            let slot = &mut self.users[user];
            slot.completed += 1;
            slot.engine.record_frame(n_vectors);
        }
        if served {
            self.ticks += 1;
        }
    }

    /// Runs `f` over every `(user, subcarrier, symbol-batch)` of each
    /// user's **oldest queued frame**, all in one shared pool run, and
    /// reassembles per-user outputs in symbol-major order — the
    /// owned-output adapter over the plan → run core
    /// [`StreamingCell::run_tick`] drives.
    ///
    /// `f` receives the user's prepared subcarrier detector, the user id,
    /// the subcarrier index, and the borrowed batch of received vectors;
    /// it must return one output per vector. The batch list is ordered
    /// longest-processing-time-first by `extension_work × symbols` *across
    /// all users* — ordering only, outputs are scattered back by grid
    /// position, so results never depend on the pool or the user mix.
    pub fn process_tick<P, T, F>(&mut self, pool: &P, f: F) -> Vec<TickOutput<T>>
    where
        P: PePool,
        T: Send,
        F: Fn(&D, usize, usize, &[&[Cx]]) -> Vec<T> + Sync,
    {
        let plan = self.plan_tick(pool.n_pes());
        let outputs = plan.run(pool, f);
        self.book_tick(&plan);
        outputs
    }

    /// Hard-detects every served user's oldest queued frame in one shared
    /// pool run. Each user's [`DetectedFrame`] is bit-identical to
    /// [`FrameEngine::detect_frame`] on that user's engine alone.
    pub fn detect_tick<P: PePool>(&mut self, pool: &P) -> Vec<(usize, DetectedFrame)> {
        let plan = self.plan_tick(pool.n_pes());
        let _ = self.run_tick(plan, pool);
        self.plane
            .users()
            .map(|(user, n_sc, nt, cells)| {
                let symbols = cells.iter().map(|&s| usize::from(s)).collect();
                (user, DetectedFrame::from_parts(n_sc, nt, symbols))
            })
            .collect()
    }

    /// Serving statistics: aggregate progress and per-user fairness.
    pub fn stats(&self) -> CellStats {
        let behind: Vec<u64> = (0..self.users.len())
            .map(|u| self.frames_behind(u))
            .collect();
        CellStats {
            n_users: self.users.len(),
            ticks: self.ticks,
            frames_submitted: self.users.iter().map(|s| s.submitted).sum(),
            frames_completed: self.users.iter().map(|s| s.completed).sum(),
            min_frames_behind: behind.iter().copied().min().unwrap_or(0),
            max_frames_behind: behind.iter().copied().max().unwrap_or(0),
            per_user_effort: self.users.iter().map(|s| s.engine.effort_total()).collect(),
        }
    }

    /// Swaps one user's detector **type** and re-prepares against the
    /// user's current channel estimates — the city layer's load-shedding
    /// lever (`CellDetector` FlexCore → SIC/linear and back): a different
    /// detector needs its own preparation. Queue contents and
    /// submitted/completed counters are untouched, so frames queued before
    /// the swap are detected by the *new* detector and the fairness
    /// accounting spans the swap. Returns how many subcarriers were
    /// re-prepared (always the user's full band).
    pub fn swap_user_detector(&mut self, user: usize, template: D) -> usize {
        let slot = &mut self.users[user];
        slot.engine.set_template(template);
        slot.engine.prepare(slot.stream.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore::{CellDetector, FlexCoreDetector};
    use flexcore_channel::ChannelEnsemble;
    use flexcore_modulation::{Constellation, Modulation};
    use flexcore_numeric::CMat;
    use flexcore_parallel::{CrossbeamPool, SequentialPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const NT: usize = 4;

    fn c16() -> Constellation {
        Constellation::new(Modulation::Qam16)
    }

    fn mk_stream(n_sc: usize, rho: f64, seed: u64) -> ChannelStream {
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(seed);
        ChannelStream::new(&ens, n_sc, rho, 3, 0.02, &mut rng)
    }

    /// Random 16-QAM transmit frame through one user's truth channels.
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

    #[test]
    fn joint_tick_matches_each_users_solo_engine() {
        // 3 users with different channels; the shared-pool tick must equal
        // each user's own engine run, on every substrate.
        let mut cell = StreamingCell::new();
        for seed in 0..3u64 {
            cell.add_user(
                mk_stream(6, 0.9, 100 + seed),
                FlexCoreDetector::with_pes(c16(), 8),
            );
        }
        let frames: Vec<RxFrame> = (0..3)
            .map(|u| tx_frame(cell.stream(u), 4, 200 + u as u64))
            .collect();
        for (pool_name, outs) in [
            ("seq", {
                for (u, f) in frames.iter().enumerate() {
                    cell.submit(u, f.clone());
                }
                cell.detect_tick(&SequentialPool::new(4))
            }),
            ("wq", {
                for (u, f) in frames.iter().enumerate() {
                    cell.submit(u, f.clone());
                }
                cell.detect_tick(&CrossbeamPool::work_queue(3))
            }),
        ] {
            assert_eq!(outs.len(), 3, "{pool_name}");
            for (u, detected) in outs {
                let solo = cell
                    .engine(u)
                    .detect_frame(&frames[u], &SequentialPool::new(1));
                assert_eq!(detected, solo, "{pool_name} user {u}");
            }
        }
    }

    #[test]
    fn multi_user_run_is_bit_identical_to_solo_runs() {
        // User 1's detections inside a 3-user cell must equal the same
        // user running alone in its own cell (same stream seed, same
        // frames) — sharding is ordering-only.
        let build = |seeds: &[u64]| {
            let mut cell = StreamingCell::new();
            for &s in seeds {
                cell.add_user(mk_stream(5, 0.8, s), FlexCoreDetector::with_pes(c16(), 8));
            }
            cell
        };
        let mut multi = build(&[7, 8, 9]);
        let mut solo = build(&[8]);

        let pool = CrossbeamPool::work_queue(3);
        for round in 0..3u64 {
            // Advance every user with its own rng stream, then serve.
            for u in 0..3 {
                let mut rng = StdRng::seed_from_u64(1000 * (u as u64 + 1) + round);
                multi.advance_user(u, &mut rng);
                let f = tx_frame(multi.stream(u), 3, 500 + 10 * u as u64 + round);
                multi.submit(u, f);
            }
            let mut rng = StdRng::seed_from_u64(1000 * 2 + round);
            solo.advance_user(0, &mut rng);
            let f = tx_frame(solo.stream(0), 3, 500 + 10 + round);
            solo.submit(0, f);

            let multi_out = multi.detect_tick(&pool);
            let solo_out = solo.detect_tick(&SequentialPool::new(1));
            assert_eq!(multi_out[1].1, solo_out[0].1, "round {round}");
        }
    }

    #[test]
    fn queue_and_fairness_accounting() {
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(4, 1.0, 11), FlexCoreDetector::with_pes(c16(), 4));
        cell.add_user(mk_stream(4, 1.0, 12), FlexCoreDetector::with_pes(c16(), 4));
        // User 0 submits two frames, user 1 one: a single tick serves one
        // frame each, leaving user 0 one behind.
        cell.submit(0, tx_frame(cell.stream(0), 2, 21));
        cell.submit(0, tx_frame(cell.stream(0), 2, 22));
        cell.submit(1, tx_frame(cell.stream(1), 2, 23));
        assert_eq!(cell.pending(0), 2);
        let outs = cell.detect_tick(&SequentialPool::new(2));
        assert_eq!(outs.len(), 2);
        assert_eq!(cell.frames_behind(0), 1);
        assert_eq!(cell.frames_behind(1), 0);
        let stats = cell.stats();
        assert_eq!(stats.n_users, 2);
        assert_eq!(stats.ticks, 1);
        assert_eq!(stats.frames_submitted, 3);
        assert_eq!(stats.frames_completed, 2);
        assert_eq!((stats.min_frames_behind, stats.max_frames_behind), (0, 1));
        // Draining the backlog levels the lag; a tick with only user 0's
        // frame serves just that user.
        let outs = cell.detect_tick(&SequentialPool::new(2));
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, 0);
        assert_eq!(cell.stats().max_frames_behind, 0);
        // An empty tick is a no-op.
        assert!(cell.detect_tick(&SequentialPool::new(2)).is_empty());
        assert_eq!(cell.stats().ticks, 2);
    }

    #[test]
    fn mixed_fixed_and_adaptive_users_share_one_pool() {
        // One fixed and one adaptive user in the same cell: results equal
        // the respective solo engines, and the adaptive user's prepared
        // effort undercuts the fixed budget at high SNR.
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(31);
        let sigma2 = 1e-3; // 30 dB
        let s0 = ChannelStream::new(&ens, 6, 0.95, 2, sigma2, &mut rng);
        let s1 = ChannelStream::new(&ens, 6, 0.95, 2, sigma2, &mut rng);
        let mut cell = StreamingCell::new();
        cell.add_user(s0.clone(), CellDetector::fixed(c16(), 16));
        cell.add_user(s1.clone(), CellDetector::adaptive(c16(), 16, 0.95));
        for (u, s) in [(0usize, &s0), (1, &s1)] {
            cell.submit(u, tx_frame(s, 3, 40 + u as u64));
        }
        let outs = cell.detect_tick(&CrossbeamPool::work_queue(4));
        for (u, detected) in &outs {
            let mut solo = FrameEngine::new(match u {
                0 => CellDetector::fixed(c16(), 16),
                _ => CellDetector::adaptive(c16(), 16, 0.95),
            });
            solo.prepare(cell.stream(*u).estimate());
            let frame = tx_frame(cell.stream(*u), 3, 40 + *u as u64);
            assert_eq!(
                detected,
                &solo.detect_frame(&frame, &SequentialPool::new(1))
            );
        }
        let stats = cell.stats();
        assert_eq!(stats.per_user_effort[0], 6 * 16, "fixed pins the budget");
        assert!(
            stats.per_user_effort[1] < stats.per_user_effort[0],
            "adaptive user must undercut the fixed one: {:?}",
            stats.per_user_effort
        );
    }

    /// Test-local detector wrapper that counts which entry point a serving
    /// layer drives: `calls.0` = `detect_batch_into` (the scratch-reuse batch
    /// path), `calls.1` = per-vector `detect`. Clones share the counters, so a
    /// template's tally covers every slot an engine stamps from it.
    #[derive(Clone, Debug)]
    struct Counting<D> {
        inner: D,
        calls: Arc<(AtomicU64, AtomicU64)>,
    }

    impl<D> Counting<D> {
        fn new(inner: D) -> Self {
            Counting {
                inner,
                calls: Arc::default(),
            }
        }

        /// `(batch calls, per-vector calls)` so far.
        fn calls(&self) -> (u64, u64) {
            (
                self.calls.0.load(Ordering::Relaxed),
                self.calls.1.load(Ordering::Relaxed),
            )
        }
    }

    impl<D: Detector> Detector for Counting<D> {
        fn name(&self) -> String {
            self.inner.name()
        }
        fn prepare(&mut self, h: &CMat, sigma2: f64) {
            self.inner.prepare(h, sigma2)
        }
        fn detect(&self, y: &[Cx]) -> Vec<usize> {
            self.calls.1.fetch_add(1, Ordering::Relaxed);
            self.inner.detect(y)
        }
        fn n_streams(&self) -> usize {
            self.inner.n_streams()
        }
        fn detect_batch_into(&self, ys: &[&[Cx]], out: &mut [u16]) {
            self.calls.0.fetch_add(1, Ordering::Relaxed);
            self.inner.detect_batch_into(ys, out)
        }
        fn effort(&self) -> usize {
            self.inner.effort()
        }
        fn extension_work(&self) -> usize {
            self.inner.extension_work()
        }
    }

    #[test]
    fn adaptive_users_keep_the_batch_fast_path_under_joint_scheduling() {
        let mut cell = StreamingCell::new();
        let templates = [51u64, 52].map(|seed| {
            let template = Counting::new(FlexCoreDetector::adaptive(c16(), 8, 0.95));
            cell.add_user(mk_stream(5, 0.9, seed), template.clone());
            template
        });
        for u in 0..2 {
            cell.submit(u, tx_frame(cell.stream(u), 4, 60 + u as u64));
        }
        cell.detect_tick(&CrossbeamPool::work_queue(3));
        for (u, template) in templates.iter().enumerate() {
            let (batch, per_vector) = template.calls();
            assert!(batch >= 5, "user {u}: a subcarrier skipped the batch path");
            assert_eq!(per_vector, 0, "user {u} fell back per-vector");
        }
    }

    #[test]
    fn ticks_count_served_calls_across_pools_and_empty_ticks() {
        // A tick is counted only when it serves someone, whatever pool ran
        // it; an empty call does not move the tick counter.
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(5, 0.9, 141), FlexCoreDetector::with_pes(c16(), 8));
        cell.add_user(mk_stream(5, 0.9, 142), FlexCoreDetector::with_pes(c16(), 8));
        let submit_all = |cell: &mut StreamingCell<_>, seed: u64| {
            for u in 0..2 {
                let f = tx_frame(cell.stream(u), 3, seed + u as u64);
                cell.submit(u, f);
            }
        };
        assert_eq!(cell.stats().ticks, 0);

        // Tick 1 on real threads.
        let pool = CrossbeamPool::work_queue(3);
        submit_all(&mut cell, 1000);
        assert_eq!(cell.detect_tick(&pool).len(), 2);
        assert_eq!(cell.stats().ticks, 1);

        // Tick 2 on simulated PEs.
        submit_all(&mut cell, 2000);
        cell.detect_tick(&SequentialPool::new(4));
        assert_eq!(cell.stats().ticks, 2);

        // Empty call: not a tick.
        assert!(cell.detect_tick(&pool).is_empty());
        assert_eq!(cell.stats().ticks, 2);

        // Tick 3: the counter moves with the next served tick.
        submit_all(&mut cell, 3000);
        cell.detect_tick(&pool);
        assert_eq!(cell.stats().ticks, 3);
    }

    /// Runs its tasks in order on the calling thread and counts the
    /// batches it is handed.
    #[derive(Default)]
    struct CountingPool {
        batches: Cell<usize>,
    }

    impl PePool for CountingPool {
        fn n_pes(&self) -> usize {
            4
        }

        fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
        where
            T: Send,
            F: FnOnce() -> T + Send,
        {
            self.batches.set(self.batches.get() + 1);
            tasks.into_iter().map(|t| t()).collect()
        }
    }

    #[test]
    fn a_plan_that_serves_nobody_never_calls_the_pool() {
        let pool = CountingPool::default();
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(5, 0.9, 151), FlexCoreDetector::with_pes(c16(), 8));

        // A 0-symbol frame through the engine alone.
        let out = cell.engine(0).detect_frame(&RxFrame::empty(5), &pool);
        assert_eq!(out.n_symbols(), 0);
        assert_eq!(pool.batches.get(), 0, "detect_frame of an empty frame");

        // An empty plan: nothing is queued.
        let plan = cell.plan_tick(pool.n_pes());
        assert!(plan.costs().is_empty());
        assert_eq!(cell.run_tick(plan, &pool).count(), 0);
        assert_eq!(pool.batches.get(), 0, "run_tick of an empty plan");

        // A served tick is one pool run; the drained cell then runs none.
        cell.submit(0, tx_frame(cell.stream(0), 3, 152));
        assert_eq!(cell.detect_tick(&pool).len(), 1);
        assert_eq!(pool.batches.get(), 1, "a served tick");
        assert!(cell.detect_tick(&pool).is_empty());
        let outs = cell.process_tick(&pool, |d, _, _, ys| d.detect_batch_refs(ys));
        assert!(outs.is_empty());
        assert_eq!(pool.batches.get(), 1, "a drained cell ran a batch");
        assert_eq!(cell.stats().ticks, 1);
    }

    #[test]
    fn advance_reprepares_only_refreshed_subcarriers() {
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(9, 0.7, 71), FlexCoreDetector::with_pes(c16(), 4));
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..3 {
            // period 3 on 9 subcarriers: 3 refreshed per advance.
            assert_eq!(cell.advance_user(0, &mut rng), 3);
        }
        assert_eq!(cell.engine(0).stats().subcarriers_refreshed, 9 + 9);
    }

    #[test]
    fn idle_users_contribute_no_work_and_no_lag() {
        // Users with empty queues must not consume PE budget, must not
        // appear in the cross-user plan, and must not have their
        // frames-behind counters advanced. This pins the served-only behaviour the city layer's
        // arrival processes lean on (a bursty user is idle most ticks).
        const N_PES: usize = 8;
        let mut cell = StreamingCell::new();
        for u in 0..4 {
            cell.add_user(
                mk_stream(5, 0.9, 300 + u),
                FlexCoreDetector::with_pes(c16(), 8),
            );
        }
        // Only user 2 has traffic.
        let frame = tx_frame(cell.stream(2), 4, 310);
        cell.submit(2, frame.clone());
        assert!(cell.has_queued());

        // The plan covers exactly user 2's frame, and the shared task
        // target is divided by the *served* count (1), not the user count:
        // the lone backlogged user gets the whole 2·n_pes target (5
        // subcarriers × 4 one-symbol chunks; a quarter share would leave
        // one batch per subcarrier).
        let plan = cell.plan_tick(N_PES);
        assert_eq!(plan.costs().len(), 5 * 4);
        assert!(!cell.has_queued(), "planning pops the served frames");

        let before: Vec<u64> = (0..4).map(|u| cell.engine(u).stats().frames).collect();
        let outs: Vec<(usize, Vec<usize>)> = cell
            .run_tick(plan, &SequentialPool::new(N_PES))
            .map(|(u, cells)| (u, cells.iter().map(|&s| usize::from(s)).collect()))
            .collect();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, 2);
        let solo = cell.engine(2).detect_frame(&frame, &SequentialPool::new(1));
        assert!(outs[0].1.chunks(NT).eq(solo.iter()));
        for u in [0usize, 1, 3] {
            assert_eq!(cell.frames_behind(u), 0, "idle user {u} fell behind");
            assert_eq!(
                cell.engine(u).stats().frames,
                before[u],
                "idle user {u} was billed a frame"
            );
        }
        assert_eq!(cell.frames_behind(2), 0);
        let stats = cell.stats();
        assert_eq!((stats.min_frames_behind, stats.max_frames_behind), (0, 0));
        assert_eq!(stats.frames_completed, 1);
        assert!(!cell.has_queued());
        assert!(cell.plan_tick(N_PES).costs().is_empty());
    }

    #[test]
    fn swap_user_detector_is_bit_identical_to_a_solo_swapped_engine() {
        use flexcore_detect::SicDetector;
        // Downgrading user 1 of a 3-user cell to SIC must leave its
        // detections bit-identical to a solo engine built with the same
        // SIC template against the same estimates — the shedding lever
        // cannot perturb results, only costs.
        let mut cell = StreamingCell::new();
        for s in 0..3u64 {
            cell.add_user(mk_stream(5, 0.9, 400 + s), CellDetector::fixed(c16(), 16));
        }
        let refreshed = cell.swap_user_detector(1, CellDetector::sic(c16()));
        assert_eq!(refreshed, 5, "swap re-prepares the full band");
        let frames: Vec<RxFrame> = (0..3)
            .map(|u| tx_frame(cell.stream(u), 4, 410 + u as u64))
            .collect();
        for (u, f) in frames.iter().enumerate() {
            cell.submit(u, f.clone());
        }
        let outs = cell.detect_tick(&CrossbeamPool::work_queue(3));
        let mut solo = FrameEngine::new(SicDetector::new(c16()));
        solo.prepare(cell.stream(1).estimate());
        assert_eq!(
            outs[1].1,
            solo.detect_frame(&frames[1], &SequentialPool::new(1)),
            "swapped user diverged from its solo engine"
        );
        // The downgraded user's price collapses to one unit per subcarrier
        // while the FlexCore users keep their trie prices.
        let band_price = |u: usize| -> usize {
            (0..5)
                .map(|sc| cell.engine(u).slot_extension_work(sc))
                .sum()
        };
        assert_eq!(band_price(1), 5);
        assert!(
            band_price(1) * 4 < band_price(0),
            "SIC user should cost a small fraction of FlexCore: {} vs {}",
            band_price(1),
            band_price(0)
        );
    }

    #[test]
    #[should_panic(expected = "does not match user")]
    fn submitting_a_wrong_width_frame_panics() {
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(4, 1.0, 81), FlexCoreDetector::with_pes(c16(), 4));
        let narrow = mk_stream(3, 1.0, 82);
        let frame = tx_frame(&narrow, 1, 83);
        cell.submit(0, frame);
    }

    #[test]
    fn submitting_a_wrong_nr_frame_panics_and_queues_nothing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut cell = StreamingCell::new();
        cell.add_user(mk_stream(4, 1.0, 84), FlexCoreDetector::with_pes(c16(), 4));
        cell.submit(0, tx_frame(cell.stream(0), 1, 85));
        // Right width, one receive antenna too many.
        let mut wide = RxFrame::empty(4);
        wide.push_symbol(vec![vec![Cx::ZERO; NT + 1]; 4]);
        let payload = catch_unwind(AssertUnwindSafe(|| cell.submit(0, wide)))
            .expect_err("a wrong-Nr frame must be rejected at submit");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted message");
        assert!(message.contains("user 0"), "{message}");
        assert_eq!((cell.pending(0), cell.frames_behind(0)), (1, 1));
        // A frame with no vectors has no antenna count to check.
        cell.submit(0, RxFrame::empty(4));
        assert_eq!((cell.pending(0), cell.frames_behind(0)), (2, 2));
    }
}
