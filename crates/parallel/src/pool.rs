//! Processing-element pools.

use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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

/// A pool of processing elements that can run a batch of independent tasks.
///
/// Implementations must return results **in task order** regardless of
/// execution order, so detector outputs do not depend on the substrate.
/// A pool only runs tasks: where a batch *would* land on a modelled
/// fabric is a pure function of its prices
/// ([`lpt_makespan_weighted`](crate::lpt_makespan_weighted)), read off
/// the plan rather than off the pool.
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
}

/// Deterministic in-order execution on the calling thread — the "simulated
/// processing elements" used throughout the experiment harness, whose
/// latency is modelled from task prices, not measured.
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
        SequentialPool { n_pes }
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
        tasks.into_iter().map(|t| t()).collect()
    }
}

/// A batch as the helpers see it: the drain loop of one [`PePool::run`].
type Job<'a> = dyn Fn() + Sync + 'a;

/// What a [`CrossbeamPool`]'s caller and helpers share, under one lock.
#[derive(Default)]
struct Slot {
    /// The published batch — `Some` only between [`Shared::publish`] and
    /// the drop of the [`Retract`] it returned.
    job: Option<&'static Job<'static>>,
    /// Helpers the published batch can still use.
    wanted: usize,
    /// Helpers inside `job` right now.
    running: usize,
    /// A `run` owns the slot; any other `run` drains inline meanwhile.
    busy: bool,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    slot: std::sync::Mutex<Slot>,
    /// Helpers park here until a batch wants them (or the pool shuts down).
    work: Condvar,
    /// A retracting `run` parks here until `running` reaches zero.
    idle: Condvar,
}

impl Shared {
    /// Every update leaves the slot valid, and nothing that can panic runs
    /// under the lock — recover the guard like `channel` does.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A helper thread's whole life: park, serve a batch, park again.
    fn serve(&self) {
        loop {
            let job = {
                let mut slot = self.lock();
                loop {
                    if slot.shutdown {
                        return;
                    }
                    if let (Some(job), true) = (slot.job, slot.wanted > 0) {
                        // Reading the reference and counting this helper
                        // in are one critical section: `Retract` cannot
                        // miss a helper that holds the batch.
                        slot.wanted -= 1;
                        slot.running += 1;
                        break job;
                    }
                    slot = self.work.wait(slot).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Counted out by a drop guard, so not even an unwind out of
            // `job` (tasks are caught inside it) could hang a `run`.
            let _leave = Leave(self);
            job();
        }
    }

    /// Hands `job` to up to `wanted` parked helpers until the returned
    /// guard drops, or returns `None` when another `run` owns the slot (the
    /// same pool re-entered from a task, or run from two threads at once).
    #[allow(unsafe_code)]
    fn publish<'a>(&'a self, job: &'a Job<'a>, wanted: usize) -> Option<Retract<'a>> {
        let mut slot = self.lock();
        if slot.busy {
            return None;
        }
        // SAFETY: only the lifetime changes, and the erased reference never
        // outlives `'a`: it is stored in `slot.job` and nowhere else; a
        // helper copies it out and increments `running` in one critical
        // section; and `Retract`'s drop — which runs on return and on
        // unwind alike, before `'a` can end — clears `slot.job` and waits
        // for `running == 0` under that same lock. So once the guard is
        // gone no helper holds the reference or can obtain it. `run`, the
        // only caller, never leaks the guard.
        let erased = unsafe { std::mem::transmute::<&'a Job<'a>, &'static Job<'static>>(job) };
        slot.job = Some(erased);
        slot.wanted = wanted;
        slot.busy = true;
        drop(slot);
        for _ in 0..wanted {
            self.work.notify_one();
        }
        Some(Retract(self))
    }
}

/// Counts a helper out of the batch it served.
struct Leave<'a>(&'a Shared);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.lock();
        slot.running -= 1;
        if slot.running == 0 {
            self.0.idle.notify_all();
        }
    }
}

/// Takes a published batch back: no helper can enter it once the drop
/// starts, and none is still inside it once the drop returns.
struct Retract<'a>(&'a Shared);

impl Drop for Retract<'_> {
    fn drop(&mut self) {
        let mut slot = self.0.lock();
        slot.job = None;
        slot.wanted = 0;
        while slot.running > 0 {
            slot = self
                .0
                .idle
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.busy = false;
    }
}

/// Real parallel execution on `n_pes` OS threads scheduled through a
/// shared work queue: the thread that calls [`PePool::run`] is PE 0 and
/// `n_pes − 1` long-lived helper threads, parked on a condvar between
/// batches, are the rest. Each pulls the next task as it finishes the
/// previous one, so unequal task costs (a frame's subcarrier columns under
/// a sphere decoder, say) balance dynamically at the price of one lock
/// acquisition per task. Nothing is spawned per batch, and a batch of one
/// task (or a pool of one PE) never leaves the calling thread.
///
/// Results are returned in task order, so detector output never depends
/// on the substrate — mirroring FlexCore's claim of near-embarrassing
/// parallelism. A task's panic is caught where the task ran and unwinds
/// out of [`PePool::run`] with its own payload once no helper is inside
/// the batch any more; the helpers survive it, so the pool stays usable.
/// `run` re-entered from one of the pool's own tasks, or called while
/// another thread's batch is published, drains its batch on the calling
/// thread alone. Dropping the pool joins the helpers.
///
/// The name is historical — the workers were `crossbeam` scoped threads
/// spawned per batch until PR 24 — and stays because `benchmark/`
/// constructs the pool by it.
///
/// ```
/// use flexcore_parallel::{CrossbeamPool, PePool};
/// let pool = CrossbeamPool::work_queue(4);
/// // Tasks may borrow from the caller's stack: no helper can touch a
/// // batch after `run` has returned.
/// let base = vec![1, 2, 3];
/// let base = &base;
/// let out = pool.run((0..100).map(|i| move || i * 2 + base[i % 3]).collect::<Vec<_>>());
/// assert_eq!(out[4], 8 + base[1]);
/// ```
pub struct CrossbeamPool {
    n_pes: usize,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

impl CrossbeamPool {
    /// A work-queue pool of `n_pes` PEs: the caller of each batch plus
    /// `n_pes − 1` parked helper threads, started here.
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
        let shared = Arc::<Shared>::default();
        let helpers = (1..n_pes)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.serve())
            })
            .collect();
        CrossbeamPool {
            n_pes,
            shared,
            helpers,
        }
    }
}

impl std::fmt::Debug for CrossbeamPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossbeamPool")
            .field("n_pes", &self.n_pes)
            .finish_non_exhaustive()
    }
}

impl Drop for CrossbeamPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            // A helper runs nothing that can panic outside a task's
            // `catch_unwind`; there is no error to report from a drop.
            let _ = helper.join();
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
        if n == 0 {
            return Vec::new();
        }
        // The queue is the task iterator itself: one lock acquisition pops
        // the next (index, task) pair, giving dynamic load balance.
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let shared: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        // A task's panic is caught where it ran and carried out by hand:
        // a helper must outlive it, and the caller must retract the batch
        // before it unwinds.
        let panicked = Mutex::new(None);
        let drain = || {
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
        };
        {
            // The calling thread is PE 0: it publishes the drain loop to as
            // many helpers as the batch has further tasks, drains the queue
            // itself, then takes the batch back.
            let wanted = (n - 1).min(self.helpers.len());
            let _retract = (wanted > 0)
                .then(|| self.shared.publish(&drain, wanted))
                .flatten();
            drain();
        }
        if let Some(payload) = panicked.into_inner() {
            // Re-raise the first caught payload on the calling thread, so
            // the task's own diagnostic reaches the caller intact.
            resume_unwind(payload);
        }
        shared
            .into_inner()
            .into_iter()
            // flexcore-lint: allow(FL004, reason = "every slot is written exactly once before the batch is retracted; a task panic has already propagated via resume_unwind above")
            .map(|v| v.expect("missing task result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc::RecvTimeoutError;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// LPT makespan on `n_pes` identical PEs: the weighted rule at unit
    /// speeds, whose loads stay integer-valued, so the cast is exact.
    fn lpt_makespan(costs: &[u64], n_pes: usize) -> u64 {
        crate::lpt_makespan_weighted(costs, &vec![1.0; n_pes]) as u64
    }

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
    }

    #[test]
    fn every_pool_returns_task_order_results_at_every_batch_size() {
        check_task_order("sequential", SequentialPool::new(4));
        check_task_order("work queue", CrossbeamPool::work_queue(4));
        check_task_order("work queue, 8 PEs", CrossbeamPool::work_queue(8));
    }

    /// A rendezvous that cannot hang a test: [`Meet::wait`] returns `true`
    /// once `n` threads are inside it at once, `false` after five seconds.
    struct Meet {
        n: usize,
        arrived: std::sync::Mutex<usize>,
        all: Condvar,
    }

    impl Meet {
        fn new(n: usize) -> Self {
            Meet {
                n,
                arrived: std::sync::Mutex::new(0),
                all: Condvar::new(),
            }
        }

        fn wait(&self) -> bool {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all.notify_all();
            let (_arrived, timeout) = self
                .all
                .wait_timeout_while(arrived, Duration::from_secs(5), |a| *a < self.n)
                .unwrap();
            !timeout.timed_out()
        }
    }

    /// Runs `f` on a thread of its own and fails — instead of hanging the
    /// suite — when it is not done within `limit`.
    fn within(limit: Duration, f: impl FnOnce() + Send + 'static) {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            f();
            let _ = done_tx.send(());
        });
        match done_rx.recv_timeout(limit) {
            Ok(()) => worker.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => resume_unwind(worker.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("not done within {limit:?}"),
        }
    }

    /// How many distinct threads serve a batch whose `n` tasks must all be
    /// running at once.
    fn pes_serving(pool: &CrossbeamPool, n: usize) -> usize {
        let meet = Meet::new(n);
        let tasks: Vec<_> = (0..n)
            .map(|_| {
                || {
                    meet.wait();
                    std::thread::current().id()
                }
            })
            .collect();
        pool.run(tasks).into_iter().collect::<HashSet<_>>().len()
    }

    fn unwind_of<R>(f: impl FnOnce() -> R) -> Box<dyn std::any::Any + Send> {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(_) => panic!("the batch must unwind"),
            Err(payload) => payload,
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_with_its_own_payload() {
        let pool = CrossbeamPool::work_queue(2);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom")), Box::new(|| 3)];
        let payload = unwind_of(|| pool.run(tasks));
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        let clean: Vec<fn() -> usize> = vec![|| 1, || 2, || 3];
        assert_eq!(pool.run(clean), vec![1, 2, 3]);
    }

    #[test]
    fn borrowed_tasks_mutate_the_callers_stack_over_1000_back_to_back_runs() {
        let pool = CrossbeamPool::work_queue(3);
        let words: Vec<String> = (0..7).map(|i| format!("word {i}")).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        for round in 0..1000usize {
            // Dies with the round: a helper that outlived `run` would read
            // freed memory here.
            let offsets = vec![round; 5];
            let tasks: Vec<_> = (0..5)
                .map(|i| {
                    let (words, seen, offsets) = (&words, &seen, &offsets);
                    move || {
                        seen.lock().unwrap().push(offsets[i] * 5 + i);
                        words[(offsets[i] + i) % words.len()].as_str()
                    }
                })
                .collect();
            let got: Vec<&str> = pool.run(tasks);
            let want: Vec<&str> = (0..5).map(|i| words[(round + i) % 7].as_str()).collect();
            assert_eq!(got, want, "round {round}");
        }
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..5000).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_on_the_caller_and_one_on_a_helper_each_reach_the_caller_and_both_pes_keep_serving() {
        let pool = CrossbeamPool::work_queue(2);
        let caller = std::thread::current().id();
        for on_caller in [true, false] {
            let meet = Meet::new(2);
            let tasks: Vec<_> = (0..2)
                .map(|_| {
                    || {
                        assert!(meet.wait(), "both PEs must be inside the batch at once");
                        if (std::thread::current().id() == caller) == on_caller {
                            std::panic::panic_any(format!("boom, on_caller = {on_caller}"));
                        }
                    }
                })
                .collect();
            let payload = unwind_of(|| pool.run(tasks));
            assert_eq!(
                payload.downcast_ref::<String>(),
                Some(&format!("boom, on_caller = {on_caller}"))
            );
            assert_eq!(
                pes_serving(&pool, 2),
                2,
                "after a panic, on_caller = {on_caller}"
            );
        }
    }

    #[test]
    fn run_does_not_unwind_while_a_helper_is_inside_the_batch() {
        let pool = CrossbeamPool::work_queue(2);
        let caller = std::thread::current().id();
        let meet = Meet::new(2);
        let helper_finished = AtomicBool::new(false);
        let tasks: Vec<_> = (0..2)
            .map(|_| {
                || {
                    assert!(meet.wait(), "both PEs must be inside the batch at once");
                    if std::thread::current().id() == caller {
                        panic!("the caller's task is done first");
                    }
                    std::thread::sleep(Duration::from_millis(50));
                    helper_finished.store(true, Ordering::SeqCst);
                }
            })
            .collect();
        unwind_of(|| pool.run(tasks));
        assert!(
            helper_finished.load(Ordering::SeqCst),
            "run left its frame while a helper still held the batch"
        );
    }

    /// A result that panics when a helper drops it: the one way an unwind
    /// can leave the drain loop itself, outside any task's `catch_unwind`.
    struct Bomb(ThreadId);

    impl Drop for Bomb {
        fn drop(&mut self) {
            if std::thread::current().id() != self.0 {
                panic!("dropped on a helper");
            }
        }
    }

    #[test]
    fn an_unwind_out_of_the_drain_loop_on_a_helper_cannot_hang_run() {
        within(Duration::from_secs(20), || {
            let pool = CrossbeamPool::work_queue(2);
            let caller = std::thread::current().id();
            let on_helper = AtomicUsize::new(0);
            // The caller holds its one task until the helper has taken the
            // other two: the first leaves a `Bomb` in the helper's results,
            // the second panics, and dropping those results unwinds the
            // helper out of the batch.
            let tasks: Vec<_> = (0..3)
                .map(|_| {
                    || {
                        if std::thread::current().id() == caller {
                            let t0 = Instant::now();
                            while on_helper.load(Ordering::SeqCst) < 2
                                && t0.elapsed() < Duration::from_secs(5)
                            {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        } else if on_helper.fetch_add(1, Ordering::SeqCst) == 1 {
                            panic!("second task on the helper");
                        }
                        Bomb(caller)
                    }
                })
                .collect();
            let payload = unwind_of(|| pool.run(tasks));
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"second task on the helper")
            );
            // The helper is gone; the caller alone still serves every batch.
            let clean: Vec<fn() -> usize> = vec![|| 1, || 2, || 3];
            assert_eq!(pool.run(clean), vec![1, 2, 3]);
        });
    }

    #[test]
    fn run_reentered_from_a_task_or_from_two_threads_at_once_completes_in_task_order() {
        within(Duration::from_secs(30), || {
            let pool = CrossbeamPool::work_queue(2);
            // Both PEs are inside an outer task when they re-enter the pool.
            let meet = Meet::new(2);
            let nested: Vec<_> = (0..2usize)
                .map(|i| {
                    let (pool, meet) = (&pool, &meet);
                    move || {
                        assert!(meet.wait(), "both PEs must be inside the batch at once");
                        pool.run((0..3).map(|j| move || i * 10 + j).collect::<Vec<_>>())
                    }
                })
                .collect();
            assert_eq!(pool.run(nested), vec![vec![0, 1, 2], vec![10, 11, 12]]);

            // Two callers whose first tasks wait for each other, so both
            // batches are in flight at once — one of them lost the gate.
            let meet = Meet::new(2);
            std::thread::scope(|scope| {
                for caller in 0..2usize {
                    let (pool, meet) = (&pool, &meet);
                    scope.spawn(move || {
                        for round in 0..200usize {
                            let tasks: Vec<_> = (0..6)
                                .map(|i| {
                                    move || {
                                        if round == 0 && i == 0 {
                                            assert!(meet.wait(), "batches must overlap");
                                        }
                                        caller * 1000 + round + i
                                    }
                                })
                                .collect();
                            let want: Vec<usize> =
                                (0..6).map(|i| caller * 1000 + round + i).collect();
                            assert_eq!(pool.run(tasks), want);
                        }
                    });
                }
            });
            assert_eq!(pes_serving(&pool, 2), 2);
        });
    }

    #[test]
    fn one_pe_pools_one_task_batches_and_empty_batches_wake_nobody() {
        let me = std::thread::current().id();
        // What a task sees: its thread, and whether its batch was published.
        fn probes(pool: &CrossbeamPool, n: usize) -> Vec<impl FnOnce() -> (ThreadId, bool) + '_> {
            (0..n)
                .map(|_| move || (std::thread::current().id(), pool.shared.lock().busy))
                .collect()
        }
        let solo = CrossbeamPool::work_queue(1);
        assert_eq!(solo.run(probes(&solo, 50)), vec![(me, false); 50]);
        let pool = CrossbeamPool::work_queue(4);
        for _ in 0..1000 {
            assert_eq!(pool.run(probes(&pool, 1)), vec![(me, false)]);
        }
        assert!(pool.run(probes(&pool, 0)).is_empty());
        // …whereas two tasks do publish the batch.
        assert!(pool.run(probes(&pool, 2)).iter().all(|&(_, busy)| busy));
    }

    #[test]
    fn dropping_a_pool_joins_its_helpers_within_a_second() {
        let idle = CrossbeamPool::work_queue(4);
        let panicked = CrossbeamPool::work_queue(4);
        unwind_of(|| panicked.run((0..8).map(|_| || panic!("last batch")).collect()));
        for pool in [idle, panicked] {
            // Every helper holds one reference to the shared slot until it
            // exits.
            let shared = Arc::clone(&pool.shared);
            assert_eq!(Arc::strong_count(&shared), 5);
            within(Duration::from_secs(1), move || drop(pool));
            assert_eq!(Arc::strong_count(&shared), 1, "a helper was not joined");
        }
    }

    #[test]
    fn the_sequential_pool_calls_its_tasks_in_order_on_the_calling_thread() {
        let pool = SequentialPool::new(4);
        let me = std::thread::current().id();
        let log = std::sync::Mutex::new(Vec::new());
        let tasks: Vec<_> = (0..12usize)
            .map(|i| {
                let log = &log;
                move || {
                    log.lock().unwrap().push(i);
                    (i * i, std::thread::current().id())
                }
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(log.into_inner().unwrap(), (0..12).collect::<Vec<_>>());
        assert_eq!(out, (0..12).map(|i| (i * i, me)).collect::<Vec<_>>());
    }
}
