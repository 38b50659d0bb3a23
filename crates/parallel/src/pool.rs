//! Processing-element pools.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of sequential *rounds* needed to run `n_tasks` on `n_pes`
/// processing elements when each PE executes one task at a time
/// (`ceil(n_tasks / n_pes)`).
///
/// The paper's minimum-latency evaluations (Fig. 9) assume one task per PE,
/// i.e. one round; LTE-budget evaluations (Fig. 12) let PEs run several
/// tasks back-to-back, paying `schedule_rounds` in latency.
///
/// ```
/// use flexcore_parallel::schedule_rounds;
/// assert_eq!(schedule_rounds(9, 8), 2);
/// assert_eq!(schedule_rounds(8, 8), 1);
/// assert_eq!(schedule_rounds(0, 8), 0);
/// ```
pub fn schedule_rounds(n_tasks: usize, n_pes: usize) -> usize {
    assert!(n_pes > 0, "schedule_rounds: zero PEs");
    n_tasks.div_ceil(n_pes)
}

/// Longest-processing-time-first task order: indices into `costs`, most
/// expensive first, ties kept in submission order (stable).
///
/// The classic LPT list-scheduling rule: handing a work queue its tasks in
/// this order bounds makespan at `4/3 − 1/(3m)` of optimal, whereas an
/// arbitrary order can strand the longest task on an otherwise-drained
/// pool (`2 − 1/m`). The frame engine feeds this with per-subcarrier
/// detection costs so a handful of hard subcarriers start first and the
/// cheap near-SIC ones fill the tail — *ordering only*: result order and
/// values are unaffected.
///
/// ```
/// use flexcore_parallel::lpt_order;
/// assert_eq!(lpt_order(&[1, 9, 4]), vec![1, 2, 0]);
/// // Ties keep submission order, so schedules are deterministic.
/// assert_eq!(lpt_order(&[5, 3, 5]), vec![0, 2, 1]);
/// ```
pub fn lpt_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].cmp(&costs[a]));
    order
}

/// Modelled makespan of LPT list scheduling: feeds `costs` in
/// [`lpt_order`] to `n_pes` greedy workers (each task goes to the
/// least-loaded PE) and returns the maximum per-PE load.
///
/// This is the multi-user cell's shared-pool latency model: dividing
/// `Σ costs / n_pes` by it gives the modelled parallel efficiency of a
/// tick — 1.0 when the per-user batch costs pack perfectly, less when one
/// crowded subcarrier column dominates the critical path.
///
/// ```
/// use flexcore_parallel::lpt_makespan;
/// // One dominant task bounds the makespan from below…
/// assert_eq!(lpt_makespan(&[100, 1, 1, 1], 4), 100);
/// // …and equal costs pack perfectly.
/// assert_eq!(lpt_makespan(&[5, 5, 5, 5], 2), 10);
/// ```
pub fn lpt_makespan(costs: &[u64], n_pes: usize) -> u64 {
    assert!(n_pes > 0, "lpt_makespan: zero PEs");
    let mut loads = vec![0u64; n_pes];
    for i in lpt_order(costs) {
        // `n_pes > 0` is asserted above, so the minimum always exists;
        // the 0 fallback keeps this arm panic-free.
        let min = loads
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .map_or(0, |(p, _)| p);
        loads[min] += costs[i];
    }
    loads.into_iter().max().unwrap_or(0)
}

/// Cumulative work accounting for a pool.
///
/// ```
/// use flexcore_parallel::{PePool, SequentialPool};
/// let pool = SequentialPool::new(4);
/// pool.run((0..10).map(|i| move || i).collect::<Vec<_>>());
/// assert_eq!(pool.stats().tasks(), 10);
/// assert_eq!(pool.stats().batches(), 1);
/// assert_eq!(pool.stats().rounds(), 3); // ceil(10 / 4)
/// pool.stats().reset();
/// assert_eq!(pool.stats().tasks(), 0);
/// ```
#[derive(Debug, Default)]
pub struct WorkStats {
    tasks: AtomicU64,
    batches: AtomicU64,
    rounds: AtomicU64,
}

impl WorkStats {
    pub(crate) fn record(&self, n_tasks: usize, n_pes: usize) {
        self.tasks.fetch_add(n_tasks as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.rounds
            .fetch_add(schedule_rounds(n_tasks, n_pes) as u64, Ordering::Relaxed);
    }

    /// Total tasks executed.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Total `run` invocations.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Total modelled sequential rounds (latency units).
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Clears the counters.
    pub fn reset(&self) {
        self.tasks.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.rounds.store(0, Ordering::Relaxed);
    }
}

/// A pool of processing elements that can run a batch of independent tasks.
///
/// Implementations must return results **in task order** regardless of
/// execution order, so detector outputs do not depend on the substrate.
///
/// ```
/// use flexcore_parallel::{CrossbeamPool, PePool, SequentialPool};
/// fn tasks() -> Vec<impl FnOnce() -> usize + Send> {
///     (0..20).map(|i| move || i * i).collect()
/// }
/// // Any substrate, same results, in task order.
/// let seq = SequentialPool::new(4).run(tasks());
/// let par = CrossbeamPool::work_queue(4).run(tasks());
/// assert_eq!(seq, par);
/// assert_eq!(seq[7], 49);
/// ```
pub trait PePool {
    /// Number of processing elements this pool models or owns.
    fn n_pes(&self) -> usize;

    /// Runs every task and returns their results in order.
    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send;

    /// [`PePool::run`] for a caller that knows what each task costs:
    /// `costs[i]` is the predicted work of `tasks[i]`, in the caller's
    /// units. Placement and timing are the pool's business — a pool that
    /// models non-uniform PEs ([`WeightedPool`](crate::WeightedPool))
    /// places and times the batch by these prices; every other pool
    /// ignores them. Results are the same on every pool, in task order.
    ///
    /// ```
    /// use flexcore_parallel::{PePool, SequentialPool, WeightedPool};
    /// let tasks = || (0..4).map(|i| move || i * 10).collect::<Vec<_>>();
    /// let plain = SequentialPool::new(2).run_priced(tasks(), &[4, 3, 2, 1]);
    /// let placed = WeightedPool::new(vec![2.0, 1.0]).run_priced(tasks(), &[4, 3, 2, 1]);
    /// assert_eq!(plain, placed);
    /// ```
    fn run_priced<T, F>(&self, tasks: Vec<F>, costs: &[u64]) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let _ = costs;
        self.run(tasks)
    }

    /// Work accounting (tasks, batches, modelled rounds).
    fn stats(&self) -> &WorkStats;
}

/// Deterministic in-order execution with PE accounting — the "simulated
/// processing elements" used throughout the experiment harness.
///
/// ```
/// use flexcore_parallel::{PePool, SequentialPool};
/// let pool = SequentialPool::new(8);
/// assert_eq!(pool.n_pes(), 8);
/// assert_eq!(pool.run(vec![|| 1 + 1]), vec![2]);
/// ```
#[derive(Debug)]
pub struct SequentialPool {
    n_pes: usize,
    stats: WorkStats,
}

impl SequentialPool {
    /// A simulated pool of `n_pes` elements.
    ///
    /// # Panics
    /// Panics if `n_pes == 0`.
    ///
    /// ```
    /// use flexcore_parallel::{PePool, SequentialPool};
    /// assert_eq!(SequentialPool::new(3).n_pes(), 3);
    /// ```
    pub fn new(n_pes: usize) -> Self {
        assert!(n_pes > 0, "SequentialPool: zero PEs");
        SequentialPool {
            n_pes,
            stats: WorkStats::default(),
        }
    }
}

impl PePool for SequentialPool {
    fn n_pes(&self) -> usize {
        self.n_pes
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.stats.record(tasks.len(), self.n_pes);
        tasks.into_iter().map(|t| t()).collect()
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

/// How a [`CrossbeamPool`] distributes a batch over its workers.
///
/// ```
/// use flexcore_parallel::{CrossbeamPool, ScheduleMode};
/// assert_eq!(CrossbeamPool::new(4).mode(), ScheduleMode::Static);
/// assert_eq!(CrossbeamPool::work_queue(4).mode(), ScheduleMode::WorkQueue);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Round-robin pre-assignment: each worker owns a fixed strided subset
    /// of the task list. Zero scheduling overhead, but a slow task stalls
    /// its whole stride — the right choice for many uniform micro-tasks
    /// (e.g. one FlexCore tree path per task).
    #[default]
    Static,
    /// Shared work queue: workers pull the next task as they finish the
    /// previous one, so unequal task costs (a frame's subcarrier columns
    /// under a sphere decoder, say) balance dynamically. Pays one lock
    /// acquisition per task — the right choice for coarse tasks like the
    /// frame engine's per-subcarrier symbol batches.
    WorkQueue,
}

/// Real parallel execution on `n_pes` OS threads via `crossbeam` scoped
/// threads.
///
/// Two scheduling modes are available (see [`ScheduleMode`]): statically
/// strided assignment for uniform micro-tasks, and a shared work queue for
/// coarse, variable-cost tasks such as whole-frame detection. Results are
/// returned in task order in both modes, so detector output never depends
/// on the substrate — mirroring FlexCore's claim of near-embarrassing
/// parallelism.
///
/// ```
/// use flexcore_parallel::{CrossbeamPool, PePool};
/// let pool = CrossbeamPool::work_queue(4);
/// let out = pool.run((0..100).map(|i| move || i * 2).collect::<Vec<_>>());
/// assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
/// ```
#[derive(Debug)]
pub struct CrossbeamPool {
    n_pes: usize,
    mode: ScheduleMode,
    stats: WorkStats,
}

impl CrossbeamPool {
    /// A statically-scheduled pool backed by `n_pes` worker threads per
    /// batch.
    ///
    /// ```
    /// use flexcore_parallel::{CrossbeamPool, PePool};
    /// assert_eq!(CrossbeamPool::new(2).run(vec![|| 5]), vec![5]);
    /// ```
    pub fn new(n_pes: usize) -> Self {
        Self::with_mode(n_pes, ScheduleMode::Static)
    }

    /// A work-queue pool: `n_pes` workers pulling tasks from a shared
    /// queue. Use for coarse tasks of unequal cost (frame processing).
    ///
    /// ```
    /// use flexcore_parallel::{CrossbeamPool, ScheduleMode};
    /// assert_eq!(CrossbeamPool::work_queue(2).mode(), ScheduleMode::WorkQueue);
    /// ```
    pub fn work_queue(n_pes: usize) -> Self {
        Self::with_mode(n_pes, ScheduleMode::WorkQueue)
    }

    /// A pool with an explicit scheduling mode.
    ///
    /// # Panics
    /// Panics if `n_pes == 0`.
    ///
    /// ```
    /// use flexcore_parallel::{CrossbeamPool, PePool, ScheduleMode};
    /// let pool = CrossbeamPool::with_mode(3, ScheduleMode::Static);
    /// assert_eq!((pool.n_pes(), pool.mode()), (3, ScheduleMode::Static));
    /// ```
    pub fn with_mode(n_pes: usize, mode: ScheduleMode) -> Self {
        assert!(n_pes > 0, "CrossbeamPool: zero PEs");
        CrossbeamPool {
            n_pes,
            mode,
            stats: WorkStats::default(),
        }
    }

    /// The scheduling mode in use.
    pub fn mode(&self) -> ScheduleMode {
        self.mode
    }

    fn run_static<T, F>(&self, tasks: Vec<F>, workers: usize) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        let shared: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        // Hand each worker a strided subset of the (indexed) tasks.
        let mut buckets: Vec<Vec<(usize, F)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            buckets[i % workers].push((i, t));
        }
        let joined = crossbeam::thread::scope(|scope| {
            for bucket in buckets {
                scope.spawn(|_| {
                    let mut local: Vec<(usize, T)> = Vec::with_capacity(bucket.len());
                    for (i, task) in bucket {
                        local.push((i, task()));
                    }
                    let mut guard = shared.lock();
                    for (i, v) in local {
                        guard[i] = Some(v);
                    }
                });
            }
        });
        if let Err(payload) = joined {
            // A worker panicked: re-raise the original payload on the
            // scheduler thread instead of minting a new panic message, so
            // the task's own diagnostic reaches the caller intact.
            std::panic::resume_unwind(payload);
        }
        shared
            .into_inner()
            .into_iter()
            // flexcore-lint: allow(FL004, reason = "every slot is written exactly once before the scope joins; a worker panic has already propagated via resume_unwind above")
            .map(|v| v.expect("missing task result"))
            .collect()
    }

    fn run_queue<T, F>(&self, tasks: Vec<F>, workers: usize) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        // The queue is the task iterator itself: one lock acquisition pops
        // the next (index, task) pair, giving dynamic load balance.
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let shared: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        let joined = crossbeam::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|_| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    while let Some((i, task)) = {
                        let popped = queue.lock().next();
                        popped
                    } {
                        local.push((i, task()));
                    }
                    let mut guard = shared.lock();
                    for (i, v) in local {
                        guard[i] = Some(v);
                    }
                });
            }
        });
        if let Err(payload) = joined {
            // See run_static: re-raise the worker's own panic payload.
            std::panic::resume_unwind(payload);
        }
        shared
            .into_inner()
            .into_iter()
            // flexcore-lint: allow(FL004, reason = "every slot is written exactly once before the scope joins; a worker panic has already propagated via resume_unwind above")
            .map(|v| v.expect("missing task result"))
            .collect()
    }
}

impl PePool for CrossbeamPool {
    fn n_pes(&self) -> usize {
        self.n_pes
    }

    fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        self.stats.record(n, self.n_pes);
        if n == 0 {
            return Vec::new();
        }
        let workers = self.n_pes.min(n);
        match self.mode {
            ScheduleMode::Static => self.run_static(tasks, workers),
            ScheduleMode::WorkQueue => self.run_queue(tasks, workers),
        }
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_order_sorts_descending_with_stable_ties() {
        assert_eq!(lpt_order(&[]), Vec::<usize>::new());
        assert_eq!(lpt_order(&[7]), vec![0]);
        assert_eq!(lpt_order(&[1, 9, 4]), vec![1, 2, 0]);
        // Ties keep submission order: subcarriers of equal cost stay in
        // frequency order, so the schedule is deterministic.
        assert_eq!(lpt_order(&[5, 3, 5, 3, 5]), vec![0, 2, 4, 1, 3]);
    }

    #[test]
    fn lpt_makespan_packs_greedily() {
        // Classic 4/3-approximation example: greedy LPT on 2 PEs packs
        // 7|6, 5→PE1 (11), 4→PE0 (11), 3→PE0 (14); the optimum is 13
        // ({7,5} vs {6,4,3}).
        assert_eq!(lpt_makespan(&[7, 6, 5, 4, 3], 2), 14);
        // One dominant task bounds the makespan from below.
        assert_eq!(lpt_makespan(&[100, 1, 1, 1], 4), 100);
        // Perfect packing on equal costs.
        assert_eq!(lpt_makespan(&[5, 5, 5, 5], 2), 10);
        // Degenerate shapes.
        assert_eq!(lpt_makespan(&[], 3), 0);
        assert_eq!(lpt_makespan(&[9], 4), 9);
    }

    #[test]
    fn lpt_makespan_bounds_hold() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let total: u64 = costs.iter().sum();
        for m in 1..=6usize {
            let span = lpt_makespan(&costs, m);
            assert!(span >= total.div_ceil(m as u64), "m={m}: span {span}");
            assert!(span >= *costs.iter().max().unwrap());
            assert!(span <= total);
        }
        // More PEs never hurt.
        assert!(lpt_makespan(&costs, 4) <= lpt_makespan(&costs, 2));
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn lpt_makespan_rejects_zero_pes() {
        lpt_makespan(&[1], 0);
    }

    #[test]
    fn lpt_order_is_a_permutation() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let mut order = lpt_order(&costs);
        order.sort_unstable();
        assert_eq!(order, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_rounds_ceiling() {
        assert_eq!(schedule_rounds(0, 8), 0);
        assert_eq!(schedule_rounds(1, 8), 1);
        assert_eq!(schedule_rounds(8, 8), 1);
        assert_eq!(schedule_rounds(9, 8), 2);
        assert_eq!(schedule_rounds(4096, 64), 64);
    }

    #[test]
    #[should_panic(expected = "zero PEs")]
    fn schedule_rejects_zero_pes() {
        schedule_rounds(1, 0);
    }

    fn square_tasks(n: usize) -> Vec<impl FnOnce() -> usize + Send> {
        (0..n).map(|i| move || i * i).collect()
    }

    #[test]
    fn sequential_pool_preserves_order() {
        let pool = SequentialPool::new(4);
        let out = pool.run(square_tasks(10));
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks(), 10);
        assert_eq!(pool.stats().batches(), 1);
        assert_eq!(pool.stats().rounds(), 3); // ceil(10/4)
    }

    #[test]
    fn crossbeam_pool_preserves_order() {
        let pool = CrossbeamPool::new(8);
        let out = pool.run(square_tasks(100));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks(), 100);
    }

    #[test]
    fn crossbeam_matches_sequential_results() {
        let seq = SequentialPool::new(3);
        let par = CrossbeamPool::new(3);
        let a = seq.run(square_tasks(37));
        let b = par.run(square_tasks(37));
        assert_eq!(a, b);
    }

    #[test]
    fn work_queue_preserves_order() {
        let pool = CrossbeamPool::work_queue(8);
        assert_eq!(pool.mode(), ScheduleMode::WorkQueue);
        let out = pool.run(square_tasks(100));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(pool.stats().tasks(), 100);
    }

    #[test]
    fn work_queue_matches_static_under_skew() {
        // Tasks with wildly unequal costs: results must still come back in
        // task order, identical across modes, with every task run once.
        let make = || -> Vec<Box<dyn FnOnce() -> u64 + Send>> {
            (0..40u64)
                .map(|i| {
                    Box::new(move || {
                        let spins = if i % 7 == 0 { 200_000 } else { 10 };
                        (0..spins).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
                    }) as Box<dyn FnOnce() -> u64 + Send>
                })
                .collect()
        };
        let stat = CrossbeamPool::new(4).run(make());
        let queue = CrossbeamPool::work_queue(4).run(make());
        let seq = SequentialPool::new(4).run(make());
        assert_eq!(stat, seq);
        assert_eq!(queue, seq);
    }

    #[test]
    fn work_queue_handles_empty_single_and_overflow() {
        let pool = CrossbeamPool::work_queue(4);
        let empty: Vec<fn() -> usize> = Vec::new();
        assert!(pool.run(empty).is_empty());
        assert_eq!(pool.run(vec![|| 7usize]), vec![7]);
        let out = pool.run(square_tasks(33));
        assert_eq!(out.len(), 33);
    }

    #[test]
    fn pools_handle_empty_and_single() {
        let pool = CrossbeamPool::new(4);
        let empty: Vec<fn() -> usize> = Vec::new();
        assert!(pool.run(empty).is_empty());
        let one = pool.run(vec![|| 42usize]);
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn more_tasks_than_pes_works() {
        let pool = CrossbeamPool::new(2);
        let out = pool.run(square_tasks(33));
        assert_eq!(out.len(), 33);
        assert_eq!(pool.stats().rounds(), 17);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let pool = SequentialPool::new(4);
        pool.run(square_tasks(4));
        pool.run(square_tasks(8));
        assert_eq!(pool.stats().tasks(), 12);
        assert_eq!(pool.stats().batches(), 2);
        pool.stats().reset();
        assert_eq!(pool.stats().tasks(), 0);
    }
}
