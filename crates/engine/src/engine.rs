//! The frame engine: prepared-detector cache in front of the tick core.

use crate::channel::FrameChannel;
use crate::frame::{DetectedFrame, RxFrame};
use crate::tick::TickPlan;
use flexcore_detect::common::Detector;
use flexcore_numeric::Cx;
use flexcore_parallel::PePool;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Snapshot of an engine's cumulative work counters plus the current
/// per-subcarrier effort profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Frames pushed through [`FrameEngine::detect_frame`] /
    /// [`FrameEngine::process_frame`], plus every frame of this engine's
    /// user a [`StreamingCell`](crate::StreamingCell) tick served (the
    /// cell bills each served engine when it books the tick).
    pub frames: u64,
    /// Received vectors detected.
    pub vectors: u64,
    /// Subcarrier slots refreshed by [`FrameEngine::prepare`], one
    /// channel-dependent preparation (QR / ordering / filters) each.
    pub subcarriers_refreshed: u64,
    /// Subcarriers currently holding a prepared detector.
    pub prepared_subcarriers: u64,
    /// Σ of [`Detector::effort`] over the prepared subcarriers — for
    /// FlexCore templates, the total active paths (PEs) the current channel
    /// costs per OFDM symbol. Fixed FlexCore-`N` pins this at
    /// `N · prepared_subcarriers`; a-FlexCore shrinks it wherever the
    /// stopping criterion fires, and the difference is the §5.1 effort
    /// saving at frame scale.
    pub effort_total: u64,
    /// Histogram of per-subcarrier effort: sorted `(effort, count)` pairs
    /// over the prepared subcarriers. A clean channel piles the mass on
    /// small efforts; a crowded one spreads it toward the PE budget.
    pub effort_histogram: Vec<(usize, u64)>,
}

impl EngineStats {
    /// Mean per-subcarrier effort (0.0 when nothing is prepared) — the
    /// frame-scale analogue of Fig. 10's mean active PEs.
    pub fn mean_effort(&self) -> f64 {
        if self.prepared_subcarriers == 0 {
            return 0.0;
        }
        self.effort_total as f64 / self.prepared_subcarriers as f64
    }
}

struct Slot<D> {
    /// Shared with every in-flight [`TickPlan`] that was planned against
    /// this slot, so a plan keeps the state it was planned against: a
    /// refresh re-prepares through [`Arc::get_mut`] when no plan holds the
    /// slot and replaces a shared detector otherwise. A shared slot is
    /// never mutated.
    detector: Arc<D>,
    channel_id: u64,
    generation: u64,
    /// [`Detector::effort`] captured right after preparation — the
    /// reported per-subcarrier load (active paths).
    effort: usize,
    /// [`Detector::extension_work`] captured right after preparation —
    /// the price the tick core plans this subcarrier's symbol batches at
    /// (equal efforts can hide severalfold work differences).
    extension_work: usize,
}

impl<D: Detector> Slot<D> {
    fn new(detector: D, channel: &FrameChannel, subcarrier: usize) -> Self {
        Slot {
            effort: detector.effort(),
            extension_work: detector.extension_work(),
            detector: Arc::new(detector),
            channel_id: channel.id(),
            generation: channel.generation(subcarrier),
        }
    }

    /// Re-prepares this slot's detector in place against `subcarrier` of
    /// `channel` — unless an in-flight plan still shares it (`false`).
    fn refresh(&mut self, channel: &FrameChannel, subcarrier: usize) -> bool {
        let Some(detector) = Arc::get_mut(&mut self.detector) else {
            return false;
        };
        detector.prepare(channel.h(subcarrier), channel.sigma2());
        self.effort = detector.effort();
        self.extension_work = detector.extension_work();
        self.channel_id = channel.id();
        self.generation = channel.generation(subcarrier);
        true
    }
}

/// Drives one detector design across whole OFDM frames.
///
/// The engine owns one prepared detector per subcarrier, stamped out of
/// the template on first use and from then on refreshed in place.
/// [`FrameEngine::prepare`] is the paper's pre-processing phase with a
/// cache in front: a subcarrier is re-prepared only when its
/// [`FrameChannel`] generation moved.
/// [`FrameEngine::detect_frame`] is the parallel phase: the
/// *(subcarrier × symbol)* grid is carved into per-subcarrier symbol
/// batches by the tick core (see [`TickPlan`]) and scheduled onto the
/// given [`PePool`], each batch flowing
/// through [`Detector::detect_batch_into`] on its subcarrier's prepared
/// clone — borrowed slices in, decision rows out into one plane for the
/// whole run, so a software PE streams a subcarrier's symbols exactly like
/// the paper's pipelined hardware engines (§4), with no per-vector heap
/// traffic.
///
/// The engine is also **load-aware**: preparation captures each
/// subcarrier's [`Detector::effort`] (for a-FlexCore, the PEs its stopping
/// criterion activates — §5.1's adjustable FlexCore, lifted to the frame
/// grid) and [`Detector::extension_work`], aggregates the effort profile
/// into [`EngineStats`], and the plan orders symbol batches
/// longest-processing-time-first by work so cheap near-SIC subcarriers
/// never pad out the critical path behind the crowded ones.
pub struct FrameEngine<D> {
    template: D,
    slots: Vec<Option<Slot<D>>>,
    frames: AtomicU64,
    vectors: AtomicU64,
    subcarriers_refreshed: AtomicU64,
}

impl<D: Detector + Clone + Sync> FrameEngine<D> {
    /// An engine stamping out clones of `template`; no subcarrier is
    /// prepared yet.
    pub fn new(template: D) -> Self {
        FrameEngine {
            template,
            slots: Vec::new(),
            frames: AtomicU64::new(0),
            vectors: AtomicU64::new(0),
            subcarriers_refreshed: AtomicU64::new(0),
        }
    }

    /// Cumulative work counters plus the current effort profile.
    pub fn stats(&self) -> EngineStats {
        let mut histogram: BTreeMap<usize, u64> = BTreeMap::new();
        for slot in self.slots.iter().flatten() {
            *histogram.entry(slot.effort).or_insert(0) += 1;
        }
        EngineStats {
            frames: self.frames.load(Ordering::Relaxed),
            vectors: self.vectors.load(Ordering::Relaxed),
            subcarriers_refreshed: self.subcarriers_refreshed.load(Ordering::Relaxed),
            prepared_subcarriers: histogram.values().sum(),
            effort_total: self.effort_total(),
            effort_histogram: histogram.into_iter().collect(),
        }
    }

    /// Σ [`Detector::effort`] over the prepared subcarriers
    /// ([`EngineStats::effort_total`] without building the histogram).
    pub(crate) fn effort_total(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|slot| slot.effort as u64)
            .sum()
    }

    /// The reported load of one subcarrier: its prepared detector's
    /// [`Detector::effort`], or 1 while unprepared.
    pub fn slot_effort(&self, subcarrier: usize) -> usize {
        self.slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            .map_or(1, |slot| slot.effort)
    }

    /// The planning price of one subcarrier: its prepared detector's
    /// [`Detector::extension_work`], or 1 while unprepared — public so
    /// serving layers (the city simulation's admission and load
    /// calibration) can price a user's frames in the same units every
    /// [`TickPlan`] is priced in.
    pub fn slot_extension_work(&self, subcarrier: usize) -> usize {
        self.slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            .map_or(1, |slot| slot.extension_work)
    }

    /// The prepared detector of one subcarrier.
    ///
    /// # Panics
    /// Panics if [`FrameEngine::prepare`] has not covered `subcarrier`.
    pub fn detector(&self, subcarrier: usize) -> &D {
        &self
            .slots
            .get(subcarrier)
            .and_then(Option::as_ref)
            // flexcore-lint: allow(FL004, reason = "prepare-before-access API contract; documented panic on the public accessor")
            .expect("FrameEngine: subcarrier not prepared")
            .detector
    }

    /// The prepared detectors of an `n_sc`-wide frame, shared (a refcount
    /// bump each) — a [`TickPlan`]'s frozen view of this engine.
    ///
    /// # Panics
    /// Panics if the engine's prepared band is not `n_sc` wide, or a
    /// subcarrier was never prepared.
    pub(crate) fn share_detectors(&self, n_sc: usize) -> Vec<Arc<D>> {
        assert_eq!(
            n_sc,
            self.slots.len(),
            "FrameEngine: frame has {n_sc} subcarriers, engine prepared {}",
            self.slots.len()
        );
        self.slots
            .iter()
            .map(|slot| {
                let slot = slot
                    .as_ref()
                    // flexcore-lint: allow(FL004, reason = "prepare-before-detect API contract; documented panic on every frame entry point")
                    .expect("FrameEngine: subcarrier not prepared");
                Arc::clone(&slot.detector)
            })
            .collect()
    }

    /// Synchronises the per-subcarrier prepared detectors with `channel`,
    /// re-running preparation for exactly the subcarriers whose generation
    /// changed (all of them, on first call). Returns how many were
    /// refreshed.
    ///
    /// A stale slot is re-prepared **in place** — its detector overwrites
    /// the state it replaces. Only an empty slot, or one an in-flight
    /// [`TickPlan`] still shares (the plan keeps the channel it was planned
    /// against), gets a fresh clone of the template instead.
    pub fn prepare(&mut self, channel: &FrameChannel) -> usize {
        let n_sc = channel.n_subcarriers();
        if self.slots.len() != n_sc {
            self.slots = (0..n_sc).map(|_| None).collect();
        }
        let mut refreshed = 0;
        for (sc, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|slot| {
                slot.channel_id == channel.id() && slot.generation == channel.generation(sc)
            }) {
                continue;
            }
            refreshed += 1;
            if !slot.as_mut().is_some_and(|slot| slot.refresh(channel, sc)) {
                let mut detector = self.template.clone();
                detector.prepare(channel.h(sc), channel.sigma2());
                *slot = Some(Slot::new(detector, channel, sc));
            }
        }
        self.subcarriers_refreshed
            .fetch_add(refreshed as u64, Ordering::Relaxed);
        refreshed
    }

    /// Replaces the template detector wholesale and **clears every
    /// prepared slot** — the service-tier swap behind the city layer's
    /// load-shedding lever (`CellDetector` FlexCore → SIC/linear): a
    /// different detector type needs its own preparation (QR factors,
    /// MMSE filter, path selection) against the channel.
    ///
    /// Work counters are kept: the user keeps its service history across
    /// the swap. The engine is unprepared until the next
    /// [`FrameEngine::prepare`].
    pub(crate) fn set_template(&mut self, template: D) {
        self.template = template;
        self.slots.fill_with(|| None);
    }

    /// The current template detector (the swap target; per-slot
    /// prepared clones may carry channel-dependent state on top).
    pub fn template(&self) -> &D {
        &self.template
    }

    /// Credits one frame of `n_vectors` vectors to this engine's counters
    /// — a tick detects many users' frames in one shared pool run, then
    /// each user's share is booked here so [`FrameEngine::stats`] stays
    /// truthful per user.
    pub(crate) fn record_frame(&self, n_vectors: usize) {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.vectors.fetch_add(n_vectors as u64, Ordering::Relaxed);
    }

    /// Runs `f` over every `(subcarrier, symbol-batch)` of the frame on the
    /// pool and reassembles the per-vector outputs in symbol-major order —
    /// a one-entry [`TickPlan`], run on the spot.
    ///
    /// `f` receives the subcarrier's prepared detector, the subcarrier
    /// index, and the batch of received vectors (consecutive symbols of
    /// that subcarrier, borrowed straight from the frame's flat plane); it
    /// must return one output per vector, in order. This is the owned-output
    /// adapter over the run core [`FrameEngine::detect_frame`] drives: the
    /// soft-output uplink streams LLRs through it.
    ///
    /// Batches are priced at [`Detector::extension_work`]` × symbols` and
    /// handed to the pool most expensive first (the prices are what
    /// `flexcore_parallel::lpt_makespan_weighted` places on a modelled
    /// fabric; see [`TickPlan::costs`]). Outputs are scattered back by
    /// grid position, so they never depend on the pool.
    ///
    /// # Panics
    /// Panics if a subcarrier of `frame` was never prepared, or if `f`
    /// returns the wrong number of outputs for a batch.
    pub fn process_frame<P, T, F>(&self, frame: &RxFrame, pool: &P, f: F) -> Vec<T>
    where
        P: PePool,
        T: Send,
        F: Fn(&D, usize, &[&[Cx]]) -> Vec<T> + Sync,
    {
        let outputs = TickPlan::new([(0, frame, self)], pool.n_pes())
            .run(pool, |det, _user, sc, ys| f(det, sc, ys));
        self.record_frame(frame.n_vectors());
        outputs
            .into_iter()
            .next()
            .map_or_else(Vec::new, |out| out.cells)
    }

    /// Detects every received vector of the frame, returning decisions in
    /// the same grid shape. Results are bit-identical to calling
    /// [`Detector::detect`] on each vector with that subcarrier's prepared
    /// detector, regardless of the pool or batch shape. The run writes
    /// decision rows into one plane and widens them into the returned
    /// frame's, so the allocations do not depend on the grid size.
    pub fn detect_frame<P: PePool>(&self, frame: &RxFrame, pool: &P) -> DetectedFrame {
        let plan = TickPlan::new([(0, frame, self)], pool.n_pes());
        let nt = self.detector(0).n_streams();
        let mut symbols = vec![0usize; frame.n_vectors() * nt];
        plan.detect_rows(pool, &mut Vec::new(), |_, v, row| {
            // flexcore-lint: hot-path
            for (out, &s) in symbols[v * nt..(v + 1) * nt].iter_mut().zip(row.iter()) {
                *out = usize::from(s);
            }
        });
        self.record_frame(frame.n_vectors());
        DetectedFrame::from_parts(frame.n_subcarriers(), nt, symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_channel::{sigma2_from_snr_db, ChannelEnsemble, MimoChannel};
    use flexcore_detect::{MmseDetector, SphereDecoder};
    use flexcore_modulation::{Constellation, Modulation};
    use flexcore_parallel::{CrossbeamPool, SequentialPool};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const NT: usize = 4;
    const SNR: f64 = 14.0;

    fn build_frame(
        n_sc: usize,
        n_sym: usize,
        channel: &FrameChannel,
        seed: u64,
    ) -> (RxFrame, Vec<Vec<usize>>) {
        let c = Constellation::new(Modulation::Qam16);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut frame = RxFrame::empty(n_sc);
        let mut truth = Vec::new();
        for _ in 0..n_sym {
            let mut row = Vec::with_capacity(n_sc);
            for sc in 0..n_sc {
                let s: Vec<usize> = (0..NT).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                let ch = MimoChannel {
                    h: channel.h(sc).clone(),
                    sigma2: channel.sigma2(),
                };
                row.push(ch.transmit(&x, &mut rng));
                truth.push(s);
            }
            frame.push_symbol(row);
        }
        (frame, truth)
    }

    fn selective_channel(n_sc: usize, seed: u64) -> FrameChannel {
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(seed);
        FrameChannel::per_subcarrier(ens.draw_many(&mut rng, n_sc), sigma2_from_snr_db(SNR))
    }

    #[test]
    fn prepare_is_cached_by_generation() {
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        let mut ch = selective_channel(8, 1);
        assert_eq!(engine.prepare(&ch), 8);
        assert_eq!(engine.prepare(&ch), 0, "unchanged channel re-prepared");
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(99);
        ch.update_subcarrier(3, &ens.draw(&mut rng));
        assert_eq!(engine.prepare(&ch), 1, "only the touched subcarrier");
        assert_eq!(engine.stats().subcarriers_refreshed, 9);
    }

    #[test]
    fn substrates_and_batch_shapes_agree() {
        let ch = selective_channel(12, 4);
        let mut engine =
            FrameEngine::new(SphereDecoder::new(Constellation::new(Modulation::Qam16)));
        engine.prepare(&ch);
        let (frame, _) = build_frame(12, 6, &ch, 5);
        let seq1 = SequentialPool::new(1);
        let seq7 = SequentialPool::new(7);
        let queue4 = CrossbeamPool::work_queue(4);
        let queue9 = CrossbeamPool::work_queue(9);
        let reference = engine.detect_frame(&frame, &seq1);
        assert_eq!(engine.detect_frame(&frame, &seq7), reference);
        assert_eq!(engine.detect_frame(&frame, &queue4), reference);
        assert_eq!(engine.detect_frame(&frame, &queue9), reference);
    }

    #[test]
    fn detection_matches_per_vector_reference() {
        let ch = selective_channel(6, 6);
        let mut engine =
            FrameEngine::new(SphereDecoder::new(Constellation::new(Modulation::Qam16)));
        engine.prepare(&ch);
        let (frame, _) = build_frame(6, 4, &ch, 7);
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(3));
        for sym in 0..4 {
            for sc in 0..6 {
                let mut det = SphereDecoder::new(Constellation::new(Modulation::Qam16));
                det.prepare(ch.h(sc), ch.sigma2());
                assert_eq!(
                    out.get(sym, sc),
                    det.detect(frame.get(sym, sc)),
                    "({sym},{sc})"
                );
            }
        }
    }

    #[test]
    fn noiseless_frame_recovered_exactly() {
        let c = Constellation::new(Modulation::Qam16);
        let ens = ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(8);
        let hs = ens.draw_many(&mut rng, 5);
        let ch = FrameChannel::per_subcarrier(hs.clone(), 1e-12);
        let mut frame = RxFrame::empty(5);
        let mut truth = Vec::new();
        for _ in 0..3 {
            let mut row = Vec::new();
            for h in &hs {
                let s: Vec<usize> = (0..NT).map(|_| rng.gen_range(0..16)).collect();
                let x: Vec<Cx> = s.iter().map(|&i| c.point(i)).collect();
                row.push(h.mul_vec(&x));
                truth.push(s);
            }
            frame.push_symbol(row);
        }
        let mut engine = FrameEngine::new(SphereDecoder::new(c));
        engine.prepare(&ch);
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(4));
        for (cell, want) in out.iter().zip(&truth) {
            assert_eq!(cell, want.as_slice());
        }
        assert_eq!(engine.stats().frames, 1);
        assert_eq!(engine.stats().vectors, 15);
    }

    #[test]
    fn rebuilt_channel_is_never_mistaken_for_cached() {
        // A fresh FrameChannel starts its generations at 1 just like the
        // previous one — the instance id must force re-preparation.
        let c = Constellation::new(Modulation::Qam16);
        let mut engine = FrameEngine::new(MmseDetector::new(c));
        let a = selective_channel(4, 11);
        let b = selective_channel(4, 12); // different H, same generations
        assert_eq!(engine.prepare(&a), 4);
        assert_eq!(
            engine.prepare(&b),
            4,
            "new channel instance must re-prepare"
        );
        let mut reference = MmseDetector::new(Constellation::new(Modulation::Qam16));
        reference.prepare(b.h(2), b.sigma2());
        let mut rng = StdRng::seed_from_u64(13);
        let y: Vec<Cx> = (0..NT)
            .map(|_| Cx::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        assert_eq!(engine.detector(2).detect(&y), reference.detect(&y));
    }

    #[test]
    #[should_panic(expected = "not prepared")]
    fn unprepared_subcarrier_panics() {
        let engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        let _ = engine.detector(0);
    }

    #[test]
    fn effort_profile_tracks_prepared_slots() {
        // Fixed-cost template: every slot reports effort 1 and the
        // histogram is a single bucket.
        let mut engine = FrameEngine::new(MmseDetector::new(Constellation::new(Modulation::Qam16)));
        assert_eq!(engine.stats().prepared_subcarriers, 0);
        assert_eq!(engine.stats().mean_effort(), 0.0);
        let ch = selective_channel(6, 21);
        engine.prepare(&ch);
        let stats = engine.stats();
        assert_eq!(stats.prepared_subcarriers, 6);
        assert_eq!(stats.effort_total, 6);
        assert_eq!(stats.effort_histogram, vec![(1, 6)]);
        assert_eq!(stats.mean_effort(), 1.0);
    }

    #[test]
    fn flexcore_effort_profile_counts_paths() {
        use flexcore::FlexCoreDetector;
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            12,
        ));
        let ch = selective_channel(5, 22);
        engine.prepare(&ch);
        let stats = engine.stats();
        // No stopping threshold: every subcarrier spends the full budget.
        assert_eq!(stats.effort_total, 5 * 12);
        assert_eq!(stats.effort_histogram, vec![(12, 5)]);
        assert_eq!(stats.mean_effort(), 12.0);
    }

    #[test]
    fn empty_frame_and_single_subcarrier_schedules() {
        // The plan must survive the degenerate grids: a frame with zero
        // symbols produces no batches, a one-subcarrier frame slices into
        // per-PE chunks that reassemble in order.
        let c = Constellation::new(Modulation::Qam16);
        let mut engine = FrameEngine::new(MmseDetector::new(c.clone()));
        let ch = selective_channel(1, 25);
        engine.prepare(&ch);

        let empty = RxFrame::empty(1);
        let out = engine.detect_frame(&empty, &SequentialPool::new(4));
        assert_eq!(out.n_symbols(), 0);
        let plan = TickPlan::new([(0, &empty, &engine)], 4);
        assert!(plan.costs().is_empty(), "an empty frame has no batches");

        let (frame, _) = build_frame(1, 9, &ch, 26);
        let plan = TickPlan::new([(0, &frame, &engine)], 4);
        assert!(
            plan.costs().len() > 1,
            "single subcarrier should still chunk"
        );
        let out = engine.detect_frame(&frame, &CrossbeamPool::work_queue(3));
        let mut reference = MmseDetector::new(c);
        reference.prepare(ch.h(0), ch.sigma2());
        for sym in 0..9 {
            assert_eq!(out.get(sym, 0), reference.detect(frame.get(sym, 0)));
        }
    }

    #[test]
    fn fabric_makespan_is_read_off_the_plans_prices() {
        use flexcore::FlexCoreDetector;
        use flexcore_parallel::lpt_makespan_weighted;
        let ch = selective_channel(16, 43);
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            16,
        ));
        engine.prepare(&ch);
        let (frame, _) = build_frame(16, 8, &ch, 44);
        // 2 fast + 6 slow PEs, the LTE small-cell shape.
        let speeds = [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let plan = TickPlan::new([(0, &frame, &engine)], speeds.len());
        // Batches are priced at extension_work × symbols: the prepared
        // tries' static walk costs, channel-dependent even at a fixed
        // path budget.
        let want_units: u64 = (0..16)
            .map(|sc| engine.detector(sc).extension_work() as u64 * 8)
            .sum();
        let units: u64 = plan.costs().iter().sum();
        assert_eq!(units, want_units);
        assert!(
            units >= 16 * 8 * 16,
            "a 16-path trie walk costs at least one unit per path: {units}"
        );
        let packing = |costs: &[u64], speeds: &[f64]| {
            let span = lpt_makespan_weighted(costs, speeds);
            assert!(span > 0.0);
            costs.iter().sum::<u64>() as f64 / (speeds.iter().sum::<f64>() * span)
        };
        let fabric = packing(plan.costs(), &speeds);
        assert!(fabric > 0.0 && fabric <= 1.0, "packing {fabric}");
        // The same matrix on every subcarrier prepares to the same
        // detector, so every batch costs the same and a uniform fabric
        // packs perfectly.
        let ens = flexcore_channel::ChannelEnsemble::iid(NT, NT);
        let mut rng = StdRng::seed_from_u64(45);
        let flat =
            FrameChannel::per_subcarrier(vec![ens.draw(&mut rng); 16], sigma2_from_snr_db(SNR));
        let mut engine = FrameEngine::new(FlexCoreDetector::with_pes(
            Constellation::new(Modulation::Qam16),
            16,
        ));
        engine.prepare(&flat);
        let (frame, _) = build_frame(16, 8, &flat, 46);
        let plan = TickPlan::new([(0, &frame, &engine)], 4);
        assert_eq!(packing(plan.costs(), &[1.0; 4]), 1.0);
    }

    #[test]
    fn lpt_scheduling_preserves_bit_identity_for_adaptive_templates() {
        use flexcore::FlexCoreDetector;
        // The scheduling tentpole must not change results: adaptive
        // template, unequal efforts, every substrate agrees cell-for-cell.
        let mk = || FlexCoreDetector::adaptive(Constellation::new(Modulation::Qam16), 16, 0.95);
        let ch = selective_channel(10, 27);
        let (frame, _) = build_frame(10, 5, &ch, 28);
        let mut engine = FrameEngine::new(mk());
        engine.prepare(&ch);
        let reference = engine.detect_frame(&frame, &SequentialPool::new(1));
        assert_eq!(
            engine.detect_frame(&frame, &CrossbeamPool::work_queue(4)),
            reference
        );
        // And cell-for-cell against the per-vector sequential detector.
        for sym in 0..5 {
            for sc in 0..10 {
                let mut det = mk();
                det.prepare(ch.h(sc), ch.sigma2());
                assert_eq!(reference.get(sym, sc), det.detect(frame.get(sym, sc)));
            }
        }
    }
}
