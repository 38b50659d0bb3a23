//! Processing-element pools.

use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

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

/// Modelled makespan of LPT list scheduling on `n_pes` identical PEs:
/// [`lpt_assign_weighted`](crate::lpt_assign_weighted) at unit speeds
/// (each task, most expensive first, goes to the least-loaded PE, ties
/// to the lowest index), read back as the maximum per-PE load.
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
///
/// # Panics
/// Panics if `n_pes == 0`.
pub fn lpt_makespan(costs: &[u64], n_pes: usize) -> u64 {
    // Unit speeds keep every load an integer-valued f64, so the cast back
    // is exact.
    crate::weighted::lpt_assign_weighted(costs, &vec![1.0; n_pes]).makespan_units as u64
}

/// Cumulative work accounting for a pool.
///
/// ```
/// use flexcore_parallel::{PePool, SequentialPool};
/// let pool = SequentialPool::new(4);
/// pool.run((0..10).map(|i| move || i).collect::<Vec<_>>());
/// assert_eq!(pool.stats().tasks(), 10);
/// assert_eq!(pool.stats().batches(), 1);
/// pool.stats().reset();
/// assert_eq!(pool.stats().tasks(), 0);
/// ```
#[derive(Debug, Default)]
pub struct WorkStats {
    tasks: AtomicU64,
    batches: AtomicU64,
}

impl WorkStats {
    pub(crate) fn record(&self, n_tasks: usize) {
        self.tasks.fetch_add(n_tasks as u64, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Total tasks executed.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Total `run` invocations.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Clears the counters.
    pub fn reset(&self) {
        self.tasks.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
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

    /// Work accounting (tasks, batches).
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
        self.stats.record(tasks.len());
        tasks.into_iter().map(|t| t()).collect()
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

/// Real parallel execution on `n_pes` OS threads via `crossbeam` scoped
/// threads, scheduled through a shared work queue: workers pull the next
/// task as they finish the previous one, so unequal task costs (a frame's
/// subcarrier columns under a sphere decoder, say) balance dynamically at
/// the price of one lock acquisition per task.
///
/// Results are returned in task order, so detector output never depends
/// on the substrate — mirroring FlexCore's claim of near-embarrassing
/// parallelism. A task that panics unwinds out of [`PePool::run`] with its
/// own payload once every worker has been joined; the pool holds no state
/// between batches, so it stays usable afterwards.
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
    stats: WorkStats,
}

impl CrossbeamPool {
    /// A work-queue pool: up to `n_pes` workers per batch pulling tasks
    /// from a shared queue.
    ///
    /// # Panics
    /// Panics if `n_pes == 0`.
    ///
    /// ```
    /// use flexcore_parallel::{CrossbeamPool, PePool};
    /// assert_eq!(CrossbeamPool::work_queue(2).run(vec![|| 5]), vec![5]);
    /// ```
    pub fn work_queue(n_pes: usize) -> Self {
        assert!(n_pes > 0, "CrossbeamPool: zero PEs");
        CrossbeamPool {
            n_pes,
            stats: WorkStats::default(),
        }
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
        self.stats.record(n);
        if n == 0 {
            return Vec::new();
        }
        // The queue is the task iterator itself: one lock acquisition pops
        // the next (index, task) pair, giving dynamic load balance.
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let shared: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        // A task's panic is caught on its worker and carried out by hand: a
        // scoped thread that dies panicking makes the scope panic with a
        // generic message of its own, and the task's payload would be lost.
        let panicked = Mutex::new(None);
        let scoped = crossbeam::thread::scope(|scope| {
            for _ in 0..self.n_pes.min(n) {
                scope.spawn(|_| {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    while let Some((i, task)) = {
                        let popped = queue.lock().next();
                        popped
                    } {
                        match catch_unwind(AssertUnwindSafe(task)) {
                            Ok(v) => local.push((i, v)),
                            Err(payload) => {
                                panicked.lock().get_or_insert(payload);
                                return;
                            }
                        }
                    }
                    let mut guard = shared.lock();
                    for (i, v) in local {
                        guard[i] = Some(v);
                    }
                });
            }
        });
        if let Some(payload) = panicked.into_inner().or(scoped.err()) {
            // Re-raise the first caught payload on the scheduler thread, so
            // the task's own diagnostic reaches the caller intact.
            resume_unwind(payload);
        }
        shared
            .into_inner()
            .into_iter()
            // flexcore-lint: allow(FL004, reason = "every slot is written exactly once before the scope joins; a task panic has already propagated via resume_unwind above")
            .map(|v| v.expect("missing task result"))
            .collect()
    }

    fn stats(&self) -> &WorkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedPool;

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

    /// Unequal-cost tasks (every 7th spins ~10⁴× longer), so real workers
    /// finish them out of submission order.
    fn skewed_tasks(n: usize) -> Vec<impl FnOnce() -> u64 + Send> {
        (0..n as u64)
            .map(|i| {
                move || {
                    let spins = if i % 7 == 0 { 200_000 } else { 10 };
                    (0..spins).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
                }
            })
            .collect()
    }

    fn check_task_order<P: PePool>(name: &str, pool: P) {
        let n_pes = pool.n_pes();
        let sizes = [0, 1, n_pes - 1, n_pes + 1, 100];
        for n in sizes {
            // What the sequential pool is by definition: tasks called in order.
            let want: Vec<u64> = skewed_tasks(n).into_iter().map(|t| t()).collect();
            assert_eq!(pool.run(skewed_tasks(n)), want, "{name}: {n} tasks");
        }
        assert_eq!(pool.stats().tasks(), sizes.iter().sum::<usize>() as u64);
        assert_eq!(pool.stats().batches(), sizes.len() as u64);
    }

    #[test]
    fn every_pool_returns_task_order_results_at_every_batch_size() {
        check_task_order("sequential", SequentialPool::new(4));
        check_task_order("work queue", CrossbeamPool::work_queue(4));
        check_task_order("work queue, 8 PEs", CrossbeamPool::work_queue(8));
        check_task_order("weighted", WeightedPool::new(vec![4.0, 1.0, 1.0]));
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_with_its_own_payload() {
        let pool = CrossbeamPool::work_queue(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(tasks)))
            .expect_err("the batch must unwind");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        // Nothing survives a batch, so the same pool runs the next one clean.
        let clean: Vec<fn() -> usize> = vec![|| 1, || 2, || 3];
        assert_eq!(pool.run(clean), vec![1, 2, 3]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let pool = SequentialPool::new(4);
        pool.run(skewed_tasks(4));
        pool.run(skewed_tasks(8));
        assert_eq!(pool.stats().tasks(), 12);
        assert_eq!(pool.stats().batches(), 2);
        pool.stats().reset();
        assert_eq!(pool.stats().tasks(), 0);
        assert_eq!(pool.stats().batches(), 0);
    }
}
