//! The plan → run core: the one carve / price / order / scatter
//! implementation under every serving path.
//!
//! A *tick* is one shared pool run over one frame of each served user.
//! [`TickPlan::new`] is the plan phase: it shares each served engine's
//! prepared detectors (a refcount bump per subcarrier — a later
//! re-prepare of the engine copies on write, so the plan keeps the state
//! it was planned against), carves every frame's
//! *(subcarrier × symbol)* grid into batches under **one** `2·n_pes` task
//! target divided across the served users, prices each batch at
//! [`Detector::extension_work`]` × symbols`, and orders the batch list
//! longest-processing-time-first. [`TickPlan::run`] is the run phase: it
//! hands the tasks and their prices to the pool
//! ([`PePool::run_priced`] — placement and timing are the pool's business)
//! and scatters the per-batch outputs back by grid position.
//!
//! Plans are built in two places. [`FrameEngine::process_frame`] is a
//! one-entry plan run on the spot. Everything multi-user goes through the
//! one serving cell, [`StreamingCell::plan_tick`](crate::StreamingCell::plan_tick),
//! whose three drivers differ only in what happens between plan and book:
//! the barrier loop runs the plan and books it back to back
//! ([`StreamingCell::run_tick`](crate::StreamingCell::run_tick)),
//! [`PipelinedCell`](crate::PipelinedCell) books it on the transmit
//! thread and sends it across a bounded channel to run on its detect
//! thread, and the city reads [`TickPlan::costs`] for modelled time
//! before running the same plan.
//!
//! **Planning is scheduling-only.** A batch's result depends on the
//! prepared detector it runs against and on the batch geometry, never on
//! its price or its place in the run order — the scatter erases both — so
//! every caller returns cells bit-identical to per-vector
//! [`Detector::detect`] on any pool.

use crate::engine::FrameEngine;
use crate::frame::RxFrame;
use flexcore_detect::common::Detector;
use flexcore_numeric::Cx;
use flexcore_parallel::{lpt_order, PePool};
use std::borrow::Borrow;
use std::ops::Range;
use std::sync::Arc;

/// One user's share of a tick: the detected (or soft-demapped) cells of
/// its frame, symbol-major like [`RxFrame`].
#[derive(Clone, Debug)]
pub struct TickOutput<T> {
    /// The user this output belongs to.
    pub user: usize,
    /// Grid width, for reassembling `(symbol, subcarrier)` coordinates.
    pub n_subcarriers: usize,
    /// One entry per grid cell in symbol-major order.
    pub cells: Vec<T>,
}

/// One batch of a plan: `(entry index, subcarrier, symbol range)`.
type Batch = (usize, usize, usize, usize);

/// One served user's frame and the prepared detectors it runs against.
struct Entry<D, R> {
    user: usize,
    frame: R,
    detectors: Vec<Arc<D>>,
    /// Row width of its decisions: the prepared channel's transmit
    /// streams ([`Detector::n_streams`]).
    nt: usize,
}

/// One tick, planned: the served users' frames, their shared prepared
/// detectors, and the priced batch list in run order (the plan → run
/// core every serving path shares; `tick.rs` has the whole story).
///
/// `R` is how the plan holds its frames: owned ([`RxFrame`], the default —
/// the plan is then `Send` and can cross a stage boundary) or borrowed
/// (`&RxFrame`, for a frame the caller keeps).
pub struct TickPlan<D, R = RxFrame> {
    entries: Vec<Entry<D, R>>,
    /// Run order: most expensive first, ties in carve order.
    batches: Vec<Batch>,
    /// `costs[i]` prices `batches[i]`.
    costs: Vec<u64>,
    /// Received vectors over every entry: the rows of one run.
    vectors: usize,
}

/// Hard decisions of one tick: every served user's frame as one
/// symbol-major `u16` plane — `nt` symbols per grid cell — back to back in
/// plan order, plus the batch-major buffer the run wrote them to first.
/// Sized by the first tick of a shape and reused by every later one (a
/// [`StreamingCell`](crate::StreamingCell) keeps one).
#[derive(Debug, Default)]
pub(crate) struct TickPlane {
    rows: Vec<u16>,
    cells: Vec<u16>,
    /// Per served user, in plan order: `(user id, grid width, row width,
    /// its plane's span of cells)`.
    users: Vec<(usize, usize, usize, Range<usize>)>,
}

impl TickPlane {
    /// `(user id, grid width, row width, plane)` per served user of the
    /// last tick, in plan order.
    pub(crate) fn users(&self) -> impl Iterator<Item = (usize, usize, usize, &[u16])> + '_ {
        self.users
            .iter()
            .map(|(user, n_sc, nt, span)| (*user, *n_sc, *nt, &self.cells[span.clone()]))
    }
}

/// The symbol-chunk length that splits an `n_sc × n_sym` grid into about
/// `task_target` batches: every subcarrier contributes the same number of
/// contiguous symbol chunks (≥ 1, ≤ `n_sym`).
fn grid_chunk(n_sc: usize, n_sym: usize, task_target: usize) -> usize {
    let tasks_per_sc = task_target.div_ceil(n_sc.max(1)).clamp(1, n_sym.max(1));
    n_sym.div_ceil(tasks_per_sc).max(1)
}

impl<D: Detector + Clone + Sync, R: Borrow<RxFrame>> TickPlan<D, R> {
    /// Plans one tick over `served` — `(user id, frame, the user's
    /// engine)` per served user — for a pool of `n_pes`.
    ///
    /// One shared `2·n_pes` task target is divided across the served
    /// users, so an N-user tick stays at ~`2·n_pes` tasks instead of
    /// ~`2·N·n_pes` (each user still contributes ≥ 1 batch per subcarrier,
    /// the split's floor): per-task overhead is bounded by the pool, not
    /// by the user count. The batch list is sized before it is filled, so
    /// planning allocates per served user, never per batch.
    ///
    /// # Panics
    /// Panics if a frame's width does not match its engine's prepared
    /// band, or a subcarrier was never prepared.
    pub(crate) fn new<'e>(
        served: impl IntoIterator<Item = (usize, R, &'e FrameEngine<D>)>,
        n_pes: usize,
    ) -> Self
    where
        D: 'e,
    {
        let served: Vec<_> = served.into_iter().collect();
        let target = (2 * n_pes).div_ceil(served.len().max(1));
        let chunk = |grid: &RxFrame| grid_chunk(grid.n_subcarriers(), grid.n_symbols(), target);
        let n_batches = served
            .iter()
            .map(|(_, frame, _)| {
                let grid = frame.borrow();
                grid.n_subcarriers() * grid.n_symbols().div_ceil(chunk(grid))
            })
            .sum();
        let mut entries = Vec::with_capacity(served.len());
        let mut batches: Vec<Batch> = Vec::with_capacity(n_batches);
        let mut costs: Vec<u64> = Vec::with_capacity(n_batches);
        let mut vectors = 0;
        for (e, (user, frame, engine)) in served.into_iter().enumerate() {
            let grid: &RxFrame = frame.borrow();
            let (n_sym, step) = (grid.n_symbols(), chunk(grid));
            let detectors = engine.share_detectors(grid.n_subcarriers());
            for sc in 0..grid.n_subcarriers() {
                for from in (0..n_sym).step_by(step) {
                    let to = (from + step).min(n_sym);
                    batches.push((e, sc, from, to));
                    costs.push(engine.slot_extension_work(sc) as u64 * (to - from) as u64);
                }
            }
            vectors += grid.n_vectors();
            entries.push(Entry {
                user,
                frame,
                nt: detectors.first().map_or(0, |d| d.n_streams()),
                detectors,
            });
        }
        let order = lpt_order(&costs);
        TickPlan {
            entries,
            batches: order.iter().map(|&i| batches[i]).collect(),
            costs: order.iter().map(|&i| costs[i]).collect(),
            vectors,
        }
    }

    /// The price of every batch, in run order (non-increasing):
    /// [`Detector::extension_work`]` × symbols`, in path-extension units.
    /// Feeding these to `flexcore_parallel::lpt_makespan_weighted` with a
    /// fabric's speed factors yields the tick's deterministic makespan in
    /// work units before (or without) running it.
    pub fn costs(&self) -> &[u64] {
        &self.costs
    }

    /// `(user id, vectors in its frame)` per served user, in plan order —
    /// what the cell books a tick by, so booking needs no outputs and can
    /// happen while another thread runs the plan.
    pub(crate) fn served(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.entries
            .iter()
            .map(|e| (e.user, e.frame.borrow().n_vectors()))
    }

    /// The run core under every output form. One pool run in which each
    /// batch writes its rows — `width(entry)` elements per vector — into
    /// its own stretch of `rows`, batch-major in run order: the stretches
    /// are split off with `split_at_mut`, so the tasks share nothing
    /// mutable, and one slice table per run lends every batch its received
    /// vectors (consecutive symbols of one subcarrier, borrowed straight
    /// from the frame's flat plane). Then `place(entry, cell, row)` gets
    /// every row at its symbol-major grid position in that entry's frame —
    /// the ordering-erasing step that makes price and LPT order invisible
    /// downstream. A plan that serves nobody does not touch the pool.
    ///
    /// `fill` receives the batch's prepared detector, the user id, the
    /// subcarrier index, the batch's vectors and its rows.
    fn run_core<P, E, F>(
        &self,
        pool: &P,
        rows: &mut [E],
        width: impl Fn(&Entry<D, R>) -> usize,
        fill: F,
        mut place: impl FnMut(usize, usize, &mut [E]),
    ) where
        P: PePool,
        E: Send,
        F: Fn(&D, usize, usize, &[&[Cx]], &mut [E]) + Sync,
    {
        if self.entries.is_empty() {
            return;
        }
        let mut table: Vec<&[Cx]> = Vec::with_capacity(self.vectors);
        for &(e, sc, from, to) in &self.batches {
            let frame: &RxFrame = self.entries[e].frame.borrow();
            table.extend((from..to).map(|sym| frame.get(sym, sc)));
        }
        let fill = &fill;
        let (mut ys_left, mut rows_left) = (table.as_slice(), &mut *rows);
        let tasks: Vec<_> = self
            .batches
            .iter()
            .map(|&(e, sc, from, to)| {
                let entry = &self.entries[e];
                let (ys, ys_rest) = ys_left.split_at(to - from);
                let (out, rows_rest) =
                    std::mem::take(&mut rows_left).split_at_mut((to - from) * width(entry));
                (ys_left, rows_left) = (ys_rest, rows_rest);
                let (det, user): (&D, usize) = (&entry.detectors[sc], entry.user);
                move || fill(det, user, sc, ys, out)
            })
            .collect();
        pool.run_priced(tasks, &self.costs);
        // flexcore-lint: hot-path
        let mut left = rows;
        for &(e, sc, from, to) in &self.batches {
            let entry = &self.entries[e];
            let (w, n_sc) = (width(entry), entry.frame.borrow().n_subcarriers());
            let (batch, rest) = std::mem::take(&mut left).split_at_mut((to - from) * w);
            left = rest;
            for (offset, row) in batch.chunks_exact_mut(w).enumerate() {
                place(e, (from + offset) * n_sc + sc, row);
            }
        }
    }

    /// Hard-detects the whole plan in one pool run
    /// ([`Detector::detect_batch_into`] per batch) and hands every vector's
    /// decision row to `place(entry, cell, row)` by grid position. `rows`
    /// is the run's batch-major buffer, resized here (a warm one is
    /// reused). A plan that serves nobody does not touch the pool.
    pub(crate) fn detect_rows<P: PePool>(
        &self,
        pool: &P,
        rows: &mut Vec<u16>,
        place: impl FnMut(usize, usize, &mut [u16]),
    ) {
        let n_rows = self
            .entries
            .iter()
            .map(|e| e.frame.borrow().n_vectors() * e.nt);
        rows.resize(n_rows.sum(), 0);
        let detect =
            |det: &D, _user, _sc, ys: &[&[Cx]], out: &mut [u16]| det.detect_batch_into(ys, out);
        self.run_core(pool, rows, |e| e.nt, detect, place);
    }

    /// [`TickPlan::detect_rows`] into `plane`: every served user's
    /// decisions land in its own symbol-major span of the plane.
    pub(crate) fn detect_plane<P: PePool>(&self, pool: &P, plane: &mut TickPlane) {
        let TickPlane { rows, cells, users } = plane;
        users.clear();
        let mut end = 0;
        for entry in &self.entries {
            let grid: &RxFrame = entry.frame.borrow();
            let span = end..end + grid.n_vectors() * entry.nt;
            end = span.end;
            users.push((entry.user, grid.n_subcarriers(), entry.nt, span));
        }
        cells.resize(end, 0);
        self.detect_rows(pool, rows, |e, v, row| {
            // flexcore-lint: hot-path
            let start = users[e].3.start + v * row.len();
            cells[start..start + row.len()].copy_from_slice(row);
        });
    }

    /// Runs `f` over every batch of the plan in one pool run and
    /// reassembles per-user outputs in symbol-major order — one
    /// [`TickOutput`] per served user, in plan order: the owned-output
    /// adapter over the run core.
    ///
    /// `f` receives the batch's prepared detector, the user id, the
    /// subcarrier index, and the batch of received vectors; it must return
    /// one output per vector, in order.
    ///
    /// # Panics
    /// Panics if `f` returns the wrong number of outputs for a batch.
    pub(crate) fn run<P, T, F>(&self, pool: &P, f: F) -> Vec<TickOutput<T>>
    where
        P: PePool,
        T: Send,
        F: Fn(&D, usize, usize, &[&[Cx]]) -> Vec<T> + Sync,
    {
        let mut rows: Vec<Option<T>> = (0..self.vectors).map(|_| None).collect();
        let mut grids: Vec<Vec<Option<T>>> = self
            .entries
            .iter()
            .map(|e| (0..e.frame.borrow().n_vectors()).map(|_| None).collect())
            .collect();
        let fill = |det: &D, user, sc, ys: &[&[Cx]], out: &mut [Option<T>]| {
            let outputs = f(det, user, sc, ys);
            assert_eq!(outputs.len(), out.len(), "batch output count mismatch");
            for (slot, value) in out.iter_mut().zip(outputs) {
                *slot = Some(value);
            }
        };
        let place = |e: usize, v: usize, row: &mut [Option<T>]| grids[e][v] = row[0].take();
        self.run_core(pool, &mut rows, |_| 1, fill, place);
        self.entries
            .iter()
            .zip(grids)
            .map(|(entry, grid)| TickOutput {
                user: entry.user,
                n_subcarriers: entry.frame.borrow().n_subcarriers(),
                cells: grid
                    .into_iter()
                    // flexcore-lint: allow(FL004, reason = "the batches tile each entry's grid exactly (every (subcarrier, symbol) cell belongs to exactly one batch of the split), so every cell was produced above")
                    .map(|v| v.expect("tick cell never produced"))
                    .collect(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::FrameChannel;
    use crate::multiuser::StreamingCell;
    use crate::pipeline::PipelinedCell;
    use crate::stream::ChannelStream;
    use flexcore::CellDetector;
    use flexcore_channel::ChannelEnsemble;
    use flexcore_modulation::{Constellation, Modulation};
    use flexcore_parallel::{CrossbeamPool, SequentialPool, WeightedPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;

    const NT: usize = 4;

    /// One random tick: per user a stream, a detector template and a frame.
    fn random_tick(
        rng: &mut StdRng,
        n_users: usize,
        n_sc: usize,
        n_sym: usize,
    ) -> Vec<(ChannelStream, CellDetector, RxFrame)> {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(NT, NT);
        (0..n_users)
            .map(|_| {
                let stream = ChannelStream::new(&ens, n_sc, 0.9, 3, 0.02, rng);
                let template = match rng.gen_range(0..3) {
                    0 => CellDetector::fixed(c.clone(), 8),
                    1 => CellDetector::adaptive(c.clone(), 8, 0.9),
                    _ => CellDetector::sic(c.clone()),
                };
                let mut noise_rng = StdRng::seed_from_u64(rng.gen());
                let frame = stream.transmit_frame(
                    n_sym,
                    |_, _| {
                        (0..NT)
                            .map(|_| c.point(rng.gen_range(0..c.order())))
                            .collect()
                    },
                    &mut noise_rng,
                );
                (stream, template, frame)
            })
            .collect()
    }

    fn detect(det: &CellDetector, _user: usize, _sc: usize, ys: &[&[Cx]]) -> Vec<Vec<usize>> {
        det.detect_batch_refs(ys)
    }

    /// The one property test over the plan → run core, replacing the
    /// per-path copies: for random (users ≤ 5, n_sc ≤ 13, n_sym ≤ 9,
    /// n_pes ≤ 9) the plan tiles every user grid exactly once, stays
    /// within the `2·n_pes`-per-tick task bound plus the
    /// one-batch-per-subcarrier floor, is priced at
    /// `extension_work × symbols` in non-increasing run order — and
    /// `process_frame`, `process_tick`, `PipelinedCell::run` and a
    /// `WeightedPool` run of the same frames all return cells equal to
    /// per-vector `Detector::detect`.
    #[test]
    fn every_serving_path_runs_the_one_plan_bit_identically() {
        let mut rng = StdRng::seed_from_u64(0x71C4_0014);
        for case in 0..20 {
            let n_users = rng.gen_range(1..=5usize);
            let n_sc = rng.gen_range(1..=13usize);
            let n_sym = rng.gen_range(1..=9usize);
            let n_pes = rng.gen_range(1..=9usize);
            let tag = format!("case {case}: {n_users} users, {n_sc} sc x {n_sym} sym, {n_pes} PEs");
            let tick = random_tick(&mut rng, n_users, n_sc, n_sym);
            let engines: Vec<FrameEngine<CellDetector>> = tick
                .iter()
                .map(|(stream, template, _)| {
                    let mut engine = FrameEngine::new(template.clone());
                    engine.prepare(stream.estimate());
                    engine
                })
                .collect();
            // The reference: per-vector `detect` on the prepared slots.
            let want: Vec<Vec<Vec<usize>>> = tick
                .iter()
                .zip(&engines)
                .map(|((_, _, frame), engine)| {
                    (0..n_sym * n_sc)
                        .map(|v| {
                            engine
                                .detector(v % n_sc)
                                .detect(frame.get(v / n_sc, v % n_sc))
                        })
                        .collect()
                })
                .collect();

            // Plan structure.
            let plan = TickPlan::new(
                tick.iter()
                    .zip(&engines)
                    .enumerate()
                    .map(|(u, ((_, _, frame), engine))| (u, frame, engine)),
                n_pes,
            );
            let mut covered = vec![vec![0usize; n_sym * n_sc]; n_users];
            for (&(e, sc, from, to), &cost) in plan.batches.iter().zip(plan.costs()) {
                assert!(from < to && to <= n_sym, "{tag}: empty or overlong batch");
                assert_eq!(
                    cost,
                    engines[e].detector(sc).extension_work() as u64 * (to - from) as u64,
                    "{tag}: batch not priced at extension_work x symbols"
                );
                for sym in from..to {
                    covered[e][sym * n_sc + sc] += 1;
                }
            }
            assert!(
                covered.iter().flatten().all(|&n| n == 1),
                "{tag}: grids not tiled exactly once"
            );
            assert!(
                plan.batches.len() <= 2 * n_pes + n_users * n_sc,
                "{tag}: {} tasks",
                plan.batches.len()
            );
            assert!(
                plan.costs().windows(2).all(|w| w[0] >= w[1]),
                "{tag}: run order is not longest-first"
            );

            // The same plan on a heterogeneous fabric.
            let speeds: Vec<f64> = (0..n_pes).map(|_| rng.gen_range(0.5..4.0)).collect();
            let fabric = WeightedPool::new(speeds);
            let outs = plan.run(&fabric, detect);
            let run = fabric.last_run().expect("the fabric recorded the run");
            assert_eq!(
                run.costs,
                plan.costs(),
                "{tag}: the pool was handed other prices"
            );
            for (u, out) in outs.iter().enumerate() {
                assert_eq!((out.user, out.n_subcarriers), (u, n_sc), "{tag}");
                assert_eq!(out.cells, want[u], "{tag}: fabric run, user {u}");
            }

            // One-entry plans: each user's engine alone.
            for (u, ((_, _, frame), engine)) in tick.iter().zip(&engines).enumerate() {
                let cells =
                    engine.process_frame(frame, &SequentialPool::new(n_pes), |d, sc, ys| {
                        detect(d, u, sc, ys)
                    });
                assert_eq!(cells, want[u], "{tag}: process_frame, user {u}");
            }

            // The barrier cell on real threads.
            let mut cell = StreamingCell::new();
            for (u, (stream, template, frame)) in tick.iter().enumerate() {
                cell.add_user(stream.clone(), template.clone());
                cell.submit(u, frame.clone());
            }
            let outs = cell.process_tick(&CrossbeamPool::work_queue(n_pes), detect);
            assert_eq!(outs.len(), n_users, "{tag}");
            for (u, out) in outs.iter().enumerate() {
                assert_eq!(out.cells, want[u], "{tag}: process_tick, user {u}");
            }

            // The pipelined cell: the plan crosses the job channel.
            let mut pipe = PipelinedCell::new();
            for (stream, template, _) in &tick {
                pipe.add_user(stream.clone(), template.clone());
            }
            let got: Mutex<Vec<TickOutput<Vec<usize>>>> = Mutex::new(Vec::new());
            let report = pipe.run(
                &CrossbeamPool::work_queue(n_pes),
                1,
                1.0,
                |_, _, _| {},
                |_, u, _| Some(tick[u].2.clone()),
                detect,
                |_, out| got.lock().unwrap().push(out.clone()),
                |_, _| false,
            );
            assert_eq!(report.frames as usize, n_users, "{tag}");
            for (u, out) in got.into_inner().unwrap().iter().enumerate() {
                assert_eq!(out.user, u, "{tag}");
                assert_eq!(out.cells, want[u], "{tag}: PipelinedCell::run, user {u}");
                // The pipeline drives the same cell, so once drained it
                // has booked what the barrier leg booked.
                let (piped, barrier) = (pipe.engine(u).stats(), cell.engine(u).stats());
                assert_eq!(
                    (piped.frames, piped.vectors),
                    (barrier.frames, barrier.vectors),
                    "{tag}: pipelined booking, user {u}"
                );
                assert_eq!(pipe.cell().frames_behind(u), 0, "{tag}: user {u} undrained");
            }
        }
    }

    #[test]
    fn a_plan_keeps_the_state_it_was_planned_against() {
        // Copy-on-write is the pipeline's frozen view: re-preparing the
        // engine or swapping its template after planning must not reach
        // the plan.
        let mut rng = StdRng::seed_from_u64(0x71C4_0015);
        let (stream, _, frame) = random_tick(&mut rng, 1, 6, 4).remove(0);
        let c = Constellation::new(Modulation::Qam16);
        let mut engine = FrameEngine::new(CellDetector::adaptive(c.clone(), 8, 0.95));
        engine.prepare(stream.estimate());
        let pool = SequentialPool::new(3);
        let before = engine.process_frame(&frame, &pool, |d, _, ys| d.detect_batch_refs(ys));

        let plan = TickPlan::new([(0, frame.clone(), &engine)], 3);
        let mut moved = stream.clone();
        moved.advance(&mut rng);
        engine.prepare(moved.estimate());
        engine.set_template(CellDetector::sic(c));

        let frozen = plan.run(&pool, detect);
        assert_eq!(frozen[0].cells, before);
    }

    #[test]
    fn a_refresh_replaces_shared_slots_and_overwrites_unshared_ones() {
        // `FrameEngine::prepare` re-prepares a stale slot in place — unless
        // a plan still shares it, in which case the slot is replaced and
        // the plan goes on detecting against the channel it was planned on.
        let mut rng = StdRng::seed_from_u64(0x71C4_0019);
        let (n_sc, n_sym) = (6, 4);
        let (stream, _, frame) = random_tick(&mut rng, 1, n_sc, n_sym).remove(0);
        let template = CellDetector::fixed(Constellation::new(Modulation::Qam16), 8);
        let mut engine = FrameEngine::new(template.clone());
        engine.prepare(stream.estimate());
        let pool = SequentialPool::new(3);
        let before = engine.process_frame(&frame, &pool, |d, _, ys| d.detect_batch_refs(ys));
        let addresses = |engine: &FrameEngine<CellDetector>| -> Vec<*const CellDetector> {
            (0..n_sc)
                .map(|sc| engine.detector(sc) as *const _)
                .collect()
        };
        let fresh_on = |channel: &FrameChannel| {
            let mut fresh = FrameEngine::new(template.clone());
            fresh.prepare(channel);
            fresh.process_frame(&frame, &pool, |d, _, ys| d.detect_batch_refs(ys))
        };
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut new_band = || {
            FrameChannel::per_subcarrier(ens.draw_many(&mut rng, n_sc), stream.estimate().sigma2())
        };

        // Shared by a plan: every slot is replaced, none overwritten.
        let plan = TickPlan::new([(0, frame.clone(), &engine)], 3);
        let planned_against = addresses(&engine);
        let second = new_band();
        assert_eq!(engine.prepare(&second), n_sc);
        for (old, new) in planned_against.iter().zip(addresses(&engine)) {
            assert_ne!(*old, new, "a shared slot was re-prepared under its plan");
        }
        assert_eq!(plan.run(&pool, detect)[0].cells, before);
        let on_second = engine.process_frame(&frame, &pool, |d, _, ys| d.detect_batch_refs(ys));
        assert_eq!(on_second, fresh_on(&second));
        assert_ne!(on_second, before, "the refresh changed nothing");

        // Unshared: every slot is overwritten where it sits.
        drop(plan);
        let in_place = addresses(&engine);
        let third = new_band();
        assert_eq!(engine.prepare(&third), n_sc);
        assert_eq!(
            addresses(&engine),
            in_place,
            "an unshared slot was replaced"
        );
        let on_third = engine.process_frame(&frame, &pool, |d, _, ys| d.detect_batch_refs(ys));
        assert_eq!(on_third, fresh_on(&third));
    }
}
