//! One city cell: a [`StreamingCell`] wrapped in traffic, modelled time,
//! QoS accounting, and the overload (load-shedding) policy.
//!
//! Each tick is one 1 ms LTE subframe, served by the LTE small-cell
//! fabric (2 fast DSP + 6 slow ARM PEs). A tick:
//!
//! 1. ages every user's channel and draws its arrivals (frames beyond the
//!    user's queue cap are shed at the door);
//! 2. serves shared-pool rounds in **modelled time**: each round is
//!    planned once ([`StreamingCell::plan_tick`]), its duration is the
//!    deterministic weighted-LPT makespan of that plan's batch costs
//!    ([`TickPlan::costs`](flexcore_engine::TickPlan::costs)) on the
//!    fabric, priced in seconds by the CPU cost model, and the
//!    same plan then runs ([`StreamingCell::run_tick`]) — rounds start
//!    while the interval has time left, and time that spills past the
//!    interval carries into the next tick as backlog;
//! 3. evaluates the shed policy on the signals the serving layer already
//!    keeps: per-user frames-behind counters and the windowed latency
//!    percentile ([`LatencyRecord`]).
//!
//! The shedding lever is [`StreamingCell::swap_user_detector`] down the
//! [`ServiceTier`] ladder (FlexCore → SIC → linear MMSE). Swaps
//! change *cost*, never correctness bookkeeping: a downgraded user's
//! detections remain bit-identical to a solo engine running the same tier
//! on the same channel, which the invariant suite checks outright.
//! Bulk users are always downgraded before any latency user — the policy
//! refuses a latency victim while any bulk user still holds a tier above
//! the bottom, and every decision records how many bulk users were still
//! undegraded so the property test can audit the ordering after the fact.
//!
//! Determinism: every random stream (traffic, channel aging, payloads,
//! noise) is derived from the owning user's profile seed, payloads keyed
//! by `(seed, tick, arrival index)` — so a user's offered traffic does not
//! depend on its neighbours, a rerun with the same seed is bit-identical
//! (the delivered-detection digest pins this), and load multipliers only
//! add arrivals rather than reshuffling them.

use std::collections::VecDeque;

use flexcore::CellDetector;
use flexcore_engine::{ChannelStream, LatencyRecord, RxFrame, StreamingCell};
use flexcore_hwmodel::{CpuModel, HeterogeneousFabric, PeCost, WorkUnit};
use flexcore_modulation::Constellation;
use flexcore_parallel::{lpt_makespan_weighted, PePool, SequentialPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::qos::{QosClass, UserProfile};
use super::traffic::TrafficSource;
use super::CityConfig;

/// The scheduling interval: one LTE subframe, in seconds. Detection
/// queued in one interval should drain within it, or the cell is falling
/// behind.
const SUBFRAME_S: f64 = 1e-3;

// The shed policy's thresholds: the LTE small-cell tuning every recorded
// run used.
/// Downgrade when any user's frames-behind reaches this.
const LAG_FRAMES: u64 = 4;
/// Downgrade when the windowed p95 latency exceeds this (seconds).
const P95_LIMIT_S: f64 = QosClass::Latency.deadline_s();
/// Width of the latency window the p95 signal is computed over.
const WINDOW_TICKS: u64 = 10;
/// Ticks between policy actions (rate limit / hysteresis guard).
const COOLDOWN_TICKS: u64 = 2;
/// Most downgrades applied in one decision — lets the policy shed a deep
/// overload in a few ticks instead of one user per cooldown.
const ACTIONS_PER_TICK: usize = 4;
/// Calm ticks required before restoring a degraded user.
const RESTORE_AFTER_TICKS: u64 = 40;
/// Restore only while the windowed p95 sits below this fraction of the
/// limit (hysteresis against flapping).
const RESTORE_P95_FRACTION: f64 = 0.5;

/// Domain tags for deriving independent per-user random streams from one
/// profile seed.
const TAG_CHANNEL: u64 = 0x6368616E;
const TAG_TRAFFIC: u64 = 0x74726166;
const TAG_SYMBOLS: u64 = 0x73796D73;
const TAG_NOISE: u64 = 0x6E6F6973;

/// SplitMix64-style mixer: collapses `(seed, tag, a, b)` into one well-
/// spread 64-bit seed, so per-(user, tick, arrival) RNGs are independent
/// without any global draw ordering to keep in sync.
fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut x = seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a fold of one 64-bit word into a running digest.
pub(super) fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for byte in x.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The FNV-1a offset basis — the digest's starting value.
pub(super) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// One queued frame's city-side bookkeeping, FIFO-parallel to the user's
/// queue inside the [`StreamingCell`].
struct PendingFrame {
    /// Modelled arrival time (seconds since the run started).
    arrival_s: f64,
    /// The transmitted symbol indices: one plane of `nt`-wide rows,
    /// symbol-major like the detections.
    truth: Vec<u16>,
}

/// The service a user gets, ordered from best to cheapest. The shed
/// policy walks users *down* this ladder instead of letting their queues
/// starve, and back up once the cell is calm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceTier {
    /// Full tree-search service: the cell's FlexCore-16 detector.
    Full,
    /// Ordered successive interference cancellation — one path, a small
    /// SER penalty, a fraction of the trie-walk work.
    Sic,
    /// Linear MMSE — one matrix–vector product per received vector, the
    /// cheapest tier and the largest SER penalty.
    Linear,
}

impl ServiceTier {
    /// One step down the ladder, `None` at the bottom.
    fn down(self) -> Option<Self> {
        match self {
            ServiceTier::Full => Some(ServiceTier::Sic),
            ServiceTier::Sic => Some(ServiceTier::Linear),
            ServiceTier::Linear => None,
        }
    }

    /// One step up the ladder, `None` at the top.
    fn up(self) -> Option<Self> {
        match self {
            ServiceTier::Linear => Some(ServiceTier::Sic),
            ServiceTier::Sic => Some(ServiceTier::Full),
            ServiceTier::Full => None,
        }
    }
}

/// Per-user serving state and counters. The counters are what
/// [`City::run`](super::City::run) reports.
pub(super) struct CellUser {
    profile: UserProfile,
    tier: ServiceTier,
    source: TrafficSource,
    chan_rng: StdRng,
    pending: VecDeque<PendingFrame>,
    /// Frames offered by the traffic source.
    pub(super) offered: u64,
    /// Frames shed at the queue cap.
    pub(super) shed: u64,
    /// Frames detected and delivered.
    pub(super) delivered: u64,
    /// Delivered frames that met their deadline.
    pub(super) on_time: u64,
    /// Bits of symbol-correct detections delivered on time.
    pub(super) good_bits: u64,
}

/// One shed-policy action, recorded for post-hoc audit.
#[derive(Clone, Debug, PartialEq)]
pub struct ShedEvent {
    /// Tick (0-based) the action was taken on.
    pub tick: u64,
    /// The user whose tier changed.
    pub user: usize,
    /// The user's QoS class.
    pub class: QosClass,
    /// Tier before the action.
    pub from: ServiceTier,
    /// Tier after the action.
    pub to: ServiceTier,
    /// `true` for an upgrade back toward full service, `false` for a
    /// downgrade.
    pub restore: bool,
    /// Bulk users still above the bottom tier when the decision was taken
    /// — zero whenever a latency user is picked as a downgrade victim,
    /// which the invariant suite asserts.
    pub bulk_above_bottom: usize,
}

/// One delivered frame, handed to [`CityCell::step_with`]'s sink as it
/// completes — the hook the bit-identity tests and custom probes use.
pub struct DeliveredFrame<'a> {
    /// The user the frame belongs to.
    pub user: usize,
    /// The tick the frame completed on (0-based).
    pub tick: u64,
    /// Completion latency in modelled seconds (completion − arrival).
    pub latency_s: f64,
    /// Whether the frame met its user's deadline.
    pub on_time: bool,
    /// Detected symbol indices: the frame's decision plane, symbol-major,
    /// `nt` stream-ordered indices per grid cell.
    pub cells: &'a [u16],
}

/// One cell of the city: traffic in, modelled-time serving, QoS-aware
/// shedding, one 1 ms LTE subframe per [`CityCell::step_with`].
pub struct CityCell {
    cell: StreamingCell<CellDetector>,
    pub(super) users: Vec<CellUser>,
    /// The fabric's per-PE speed factors: each round's plan is priced on
    /// them (weighted LPT), then runs in order on `pool`.
    speeds: Vec<f64>,
    pool: SequentialPool,
    /// Seconds one path-extension unit takes on the FX-8120 cost model.
    unit_s: f64,
    /// Path-extension units the fabric retires per subframe.
    capacity_units: f64,
    constellation: Constellation,
    /// The full-tier detector every user starts on and is restored to.
    base: CellDetector,
    shedding: bool,
    tick: u64,
    backlog_s: f64,
    window: LatencyRecord,
    last_window_p95: f64,
    cooldown: u64,
    calm_streak: u64,
    events: Vec<ShedEvent>,
    /// Latency-class completion latencies over the whole run.
    pub(super) latency_rec: LatencyRecord,
    /// Bulk-class completion latencies over the whole run.
    pub(super) bulk_rec: LatencyRecord,
    /// FNV-1a digest of every delivered detection, in delivery order.
    pub(super) digest: u64,
}

impl CityCell {
    /// An empty cell running `cfg`'s shed policy.
    pub fn new(cfg: &CityConfig) -> Self {
        let fabric = HeterogeneousFabric::lte_smallcell();
        let work_unit = WorkUnit::new(CityConfig::NT, CityConfig::MODULATION.order());
        let unit_s = CpuModel::fx8120().unit_seconds(&work_unit);
        CityCell {
            cell: StreamingCell::new(),
            users: Vec::new(),
            speeds: fabric.speed_factors(),
            pool: SequentialPool::new(fabric.n_pes()),
            unit_s,
            capacity_units: fabric.total_speed() * SUBFRAME_S / unit_s,
            constellation: Constellation::new(CityConfig::MODULATION),
            base: CellDetector::fixed(
                Constellation::new(CityConfig::MODULATION),
                CityConfig::FLEXCORE_BUDGET,
            ),
            shedding: cfg.shedding,
            tick: 0,
            backlog_s: 0.0,
            window: LatencyRecord::default(),
            last_window_p95: 0.0,
            cooldown: 0,
            calm_streak: 0,
            events: Vec::new(),
            latency_rec: LatencyRecord::default(),
            bulk_rec: LatencyRecord::default(),
            digest: FNV_OFFSET,
        }
    }

    /// Registers a user at [`ServiceTier::Full`]: its channel stream and
    /// traffic source are seeded from the profile seed alone, so the same
    /// profile produces the same traffic and channel in any cell. Returns
    /// the user id.
    pub fn add_user(&mut self, profile: UserProfile) -> usize {
        let ens = flexcore_channel::ChannelEnsemble::iid(CityConfig::NT, CityConfig::NT);
        let mut stream_rng = StdRng::seed_from_u64(mix(profile.seed, TAG_CHANNEL, 0, 0));
        let stream = ChannelStream::new(
            &ens,
            CityConfig::N_SUBCARRIERS,
            CityConfig::RHO,
            CityConfig::REFRESH_PERIOD,
            CityConfig::SIGMA2,
            &mut stream_rng,
        );
        let source = TrafficSource::new(
            profile.arrivals.clone(),
            mix(profile.seed, TAG_TRAFFIC, 0, 0),
        );
        let chan_rng = StdRng::seed_from_u64(mix(profile.seed, TAG_CHANNEL, 1, 0));
        self.cell.add_user(stream, self.base.clone());
        self.users.push(CellUser {
            profile,
            tier: ServiceTier::Full,
            source,
            chan_rng,
            pending: VecDeque::new(),
            offered: 0,
            shed: 0,
            delivered: 0,
            on_time: 0,
            good_bits: 0,
        });
        self.users.len() - 1
    }

    /// Registered users.
    pub(crate) fn n_users(&self) -> usize {
        self.users.len()
    }

    /// One user's current service tier.
    pub fn tier(&self, user: usize) -> ServiceTier {
        self.users[user].tier
    }

    /// One user's profile.
    pub fn profile(&self, user: usize) -> &UserProfile {
        &self.users[user].profile
    }

    /// Modelled processing backlog carried past the last tick's interval,
    /// in seconds — positive means the cell is running behind real time.
    #[cfg(test)]
    fn backlog_s(&self) -> f64 {
        self.backlog_s
    }

    /// The shed-policy actions taken so far, in order.
    pub fn events(&self) -> &[ShedEvent] {
        &self.events
    }

    /// Frames shed at the users' queue caps so far.
    pub fn shed_frames(&self) -> u64 {
        self.users.iter().map(|u| u.shed).sum()
    }

    /// The measured price of one of `user`'s frames right now, in
    /// path-extension units (`n_symbols × Σ_sc slot_extension_work`) —
    /// the same units [`CityCell::capacity_units`] prices capacity in.
    /// The city's load calibration sums this over users.
    pub(crate) fn frame_units(&self, user: usize) -> u64 {
        let engine = self.cell.engine(user);
        let per_symbol: u64 = (0..CityConfig::N_SUBCARRIERS)
            .map(|sc| engine.slot_extension_work(sc) as u64)
            .sum();
        per_symbol * CityConfig::N_SYMBOLS as u64
    }

    /// The cell's per-subframe capacity in path-extension units under
    /// perfect packing: `total_speed × subframe / unit_seconds` on the
    /// FX-8120 cost model. The realised capacity is this times the LPT
    /// packing efficiency.
    pub(crate) fn capacity_units(&self) -> f64 {
        self.capacity_units
    }

    /// Forces one user onto a tier immediately, through the same swap
    /// path the policy uses (recorded as a policy event). This is the
    /// test hook for pinning a fixed configuration or replaying a
    /// known downgrade schedule.
    pub fn force_tier(&mut self, user: usize, tier: ServiceTier) {
        if self.users[user].tier == tier {
            return;
        }
        // The tier ladder orders best→cheapest, so moving to a *greater*
        // tier is a downgrade.
        self.apply_tier(user, tier, tier > self.users[user].tier);
    }

    /// Advances one scheduling interval. Equivalent to
    /// [`CityCell::step_with`] with a sink that drops the frames.
    pub(crate) fn step(&mut self, multiplier: f64) {
        self.step_with(multiplier, &mut |_| {});
    }

    /// Advances one scheduling interval — arrivals, modelled-time serving
    /// rounds, policy — handing each delivered frame to `sink` as it
    /// completes.
    pub fn step_with(&mut self, multiplier: f64, sink: &mut dyn FnMut(&DeliveredFrame<'_>)) {
        let start_s = self.tick as f64 * SUBFRAME_S;

        // 1. Channel aging and arrivals. Shedding at the queue cap is the
        // *admission-to-queue* decision; the frame still counts as offered
        // load in the report.
        for u in 0..self.users.len() {
            self.cell.advance_user(u, &mut self.users[u].chan_rng);
            let n = self.users[u].source.step(multiplier);
            for k in 0..n {
                let (frame, truth) = self.make_frame(u, k as u64);
                self.users[u].offered += 1;
                if self.cell.pending(u) >= self.users[u].profile.class.queue_cap() {
                    self.users[u].shed += 1;
                } else {
                    self.cell.submit(u, frame);
                    self.users[u].pending.push_back(PendingFrame {
                        arrival_s: start_s,
                        truth,
                    });
                }
            }
        }

        // 2. Serve rounds in modelled time. A round may start whenever the
        // interval still has time left (so a backlogged cell always makes
        // progress), and its completion may spill past the interval — the
        // spill carries forward as backlog and shows up as latency. One
        // plan per round: its costs price the round, then that plan runs.
        // The serving cell is moved out for the rounds, so each round's
        // decisions are delivered straight from its plane while `deliver`
        // updates the rest of `self`.
        let mut cell = std::mem::take(&mut self.cell);
        let mut free_at = self.backlog_s;
        while free_at < SUBFRAME_S && cell.has_queued() {
            let plan = cell.plan_tick(self.pool.n_pes());
            free_at += lpt_makespan_weighted(plan.costs(), &self.speeds) * self.unit_s;
            let done_s = start_s + free_at;
            for (user, cells) in cell.run_tick(plan, &self.pool) {
                self.deliver(user, cells, done_s, sink);
            }
        }
        self.cell = cell;
        self.backlog_s = (free_at - SUBFRAME_S).max(0.0);

        // 3. Bookkeeping and policy.
        self.tick += 1;
        if self.tick.is_multiple_of(WINDOW_TICKS) {
            self.last_window_p95 = if self.window.is_empty() {
                0.0
            } else {
                self.window.quantile(0.95)
            };
            self.window = LatencyRecord::default();
        }
        self.apply_policy();
    }

    /// Books one delivered frame: latency records, goodput, digest, sink.
    fn deliver(
        &mut self,
        u: usize,
        cells: &[u16],
        done_s: f64,
        sink: &mut dyn FnMut(&DeliveredFrame<'_>),
    ) {
        let Some(pending) = self.users[u].pending.pop_front() else {
            // Queue and pending deque are pushed/popped in lockstep, so
            // this cannot happen; skipping beats poisoning the run.
            return;
        };
        let latency_s = done_s - pending.arrival_s;
        let class = self.users[u].profile.class;
        let on_time = latency_s <= class.deadline_s();
        self.window.record(latency_s);
        match class {
            QosClass::Latency => self.latency_rec.record(latency_s),
            QosClass::Bulk => self.bulk_rec.record(latency_s),
        }

        let mut good_syms = 0u64;
        let mut h = fnv(self.digest, u as u64);
        for (&a, &b) in cells.iter().zip(&pending.truth) {
            h = fnv(h, u64::from(a));
            if a == b {
                good_syms += 1;
            }
        }
        self.digest = h;

        let user = &mut self.users[u];
        user.delivered += 1;
        if on_time {
            user.on_time += 1;
            user.good_bits += good_syms * self.constellation.bits_per_symbol() as u64;
        }
        sink(&DeliveredFrame {
            user: u,
            tick: self.tick,
            latency_s,
            on_time,
            cells,
        });
    }

    /// Builds one arrival for `user`: payload symbols and noise keyed by
    /// `(seed, tick, arrival index)`, so the k-th arrival of tick t is the
    /// same frame at every load multiplier that produces it.
    fn make_frame(&self, user: usize, k: u64) -> (RxFrame, Vec<u16>) {
        let seed = self.users[user].profile.seed;
        let mut sym_rng = StdRng::seed_from_u64(mix(seed, TAG_SYMBOLS, self.tick, k));
        let mut noise_rng = StdRng::seed_from_u64(mix(seed, TAG_NOISE, self.tick, k));
        let stream = self.cell.stream(user);
        let n_sc = stream.n_subcarriers();
        let order = self.constellation.order();
        let nt = CityConfig::NT;
        let truth: Vec<u16> = (0..CityConfig::N_SYMBOLS * n_sc * nt)
            .map(|_| sym_rng.gen_range(0..order) as u16)
            .collect();
        let frame = stream.transmit_frame_into(
            CityConfig::N_SYMBOLS,
            |sym, sc, x| {
                let row = &truth[(sym * n_sc + sc) * nt..][..nt];
                for (x, &i) in x.iter_mut().zip(row) {
                    *x = self.constellation.point(usize::from(i));
                }
            },
            &mut noise_rng,
        );
        (frame, truth)
    }

    /// Evaluates the shed policy for this tick: downgrade under pressure,
    /// restore after a sustained calm stretch, both rate-limited by the
    /// cooldown.
    fn apply_policy(&mut self) {
        if !self.shedding {
            return;
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
        }
        let lag = (0..self.users.len())
            .map(|u| self.cell.frames_behind(u))
            .max()
            .unwrap_or(0);
        let hot = lag >= LAG_FRAMES || self.backlog_s > 0.0 || self.last_window_p95 > P95_LIMIT_S;
        if hot {
            self.calm_streak = 0;
            if self.cooldown == 0 {
                for _ in 0..ACTIONS_PER_TICK {
                    if !self.downgrade_one() {
                        break;
                    }
                }
                self.cooldown = COOLDOWN_TICKS;
            }
            return;
        }
        let calm = lag == 0
            && self.backlog_s == 0.0
            && self.last_window_p95 <= RESTORE_P95_FRACTION * P95_LIMIT_S;
        if calm {
            self.calm_streak += 1;
            if self.calm_streak >= RESTORE_AFTER_TICKS && self.cooldown == 0 && self.restore_one() {
                self.cooldown = COOLDOWN_TICKS;
            }
        } else {
            self.calm_streak = 0;
        }
    }

    /// Applies a tier change through the engine swap and records it.
    fn apply_tier(&mut self, user: usize, to: ServiceTier, is_downgrade: bool) {
        let bulk_above_bottom = self
            .users
            .iter()
            .filter(|s| s.profile.class == QosClass::Bulk && s.tier != ServiceTier::Linear)
            .count();
        let from = self.users[user].tier;
        let template = match to {
            ServiceTier::Full => self.base.clone(),
            ServiceTier::Sic => CellDetector::sic(self.constellation.clone()),
            ServiceTier::Linear => CellDetector::linear(self.constellation.clone()),
        };
        self.cell.swap_user_detector(user, template);
        self.users[user].tier = to;
        self.events.push(ShedEvent {
            tick: self.tick,
            user,
            class: self.users[user].profile.class,
            from,
            to,
            restore: !is_downgrade,
            bulk_above_bottom,
        });
    }

    /// Downgrades the most backlogged eligible user one tier. Bulk users
    /// are always eligible first; a latency user can only be picked once
    /// every bulk user sits at the bottom tier. Returns whether an action
    /// was taken.
    fn downgrade_one(&mut self) -> bool {
        let pick = |users: &[CellUser], cell: &StreamingCell<CellDetector>, class: QosClass| {
            users
                .iter()
                .enumerate()
                .filter(|(_, s)| s.profile.class == class && s.tier != ServiceTier::Linear)
                .max_by_key(|&(u, s)| {
                    (
                        s.tier == ServiceTier::Full,
                        cell.frames_behind(u),
                        cell.pending(u),
                        std::cmp::Reverse(u),
                    )
                })
                .map(|(u, _)| u)
        };
        let victim = pick(&self.users, &self.cell, QosClass::Bulk)
            .or_else(|| pick(&self.users, &self.cell, QosClass::Latency));
        let Some(u) = victim else { return false };
        let Some(next) = self.users[u].tier.down() else {
            return false;
        };
        self.apply_tier(u, next, true);
        true
    }

    /// Restores one degraded user a tier toward full service — latency
    /// users first, most degraded first. Returns whether an action was
    /// taken.
    fn restore_one(&mut self) -> bool {
        let candidate = self
            .users
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tier != ServiceTier::Full)
            .max_by_key(|&(u, s)| {
                (
                    s.profile.class == QosClass::Latency,
                    s.tier == ServiceTier::Linear,
                    std::cmp::Reverse(u),
                )
            })
            .map(|(u, _)| u);
        let Some(u) = candidate else { return false };
        let Some(next) = self.users[u].tier.up() else {
            return false;
        };
        self.apply_tier(u, next, false);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::traffic::ArrivalProcess;
    use super::*;

    fn add_users(cell: &mut CityCell, n: usize, class: QosClass, rate: f64, seed0: u64) {
        for i in 0..n {
            cell.add_user(UserProfile::new(
                class,
                ArrivalProcess::Poisson { rate },
                seed0 + i as u64,
            ));
        }
    }

    /// `(offered, shed, delivered, on_time, good_bits)` summed over the
    /// cell's users.
    fn totals(cell: &CityCell) -> (u64, u64, u64, u64, u64) {
        cell.users.iter().fold((0, 0, 0, 0, 0), |t, u| {
            (
                t.0 + u.offered,
                t.1 + u.shed,
                t.2 + u.delivered,
                t.3 + u.on_time,
                t.4 + u.good_bits,
            )
        })
    }

    #[test]
    fn capacity_matches_hand_calculation() {
        // FX-8120 at nt=4: 48 · 4 · 7 / 2 = 672 cycles/unit at 3.1 GHz;
        // the LTE small-cell fabric's total speed is 14, 1 ms subframe.
        let cap = CityCell::new(&CityConfig::small_city()).capacity_units();
        let want = 14.0 * 1e-3 / (672.0 / 3.1e9);
        assert!((cap - want).abs() / want < 1e-12, "{cap} vs {want}");
    }

    #[test]
    fn tier_ladder_orders_best_to_cheapest_and_round_trips() {
        use ServiceTier::*;
        assert!(Full < Sic && Sic < Linear);
        assert_eq!(Full.down(), Some(Sic));
        assert_eq!(Sic.down(), Some(Linear));
        assert_eq!(Linear.down(), None);
        assert_eq!(Linear.up(), Some(Sic));
        assert_eq!(Sic.up(), Some(Full));
        assert_eq!(Full.up(), None);
        for t in [Full, Sic, Linear] {
            assert_eq!(t.down().and_then(ServiceTier::up).unwrap_or(t), t);
            assert_eq!(t.up().and_then(ServiceTier::down).unwrap_or(t), t);
        }
    }

    #[test]
    fn light_load_serves_everything_on_time_with_no_shedding() {
        let cfg = CityConfig::small_city();
        let mut cell = CityCell::new(&cfg);
        add_users(&mut cell, 2, QosClass::Latency, 0.3, 10);
        add_users(&mut cell, 2, QosClass::Bulk, 0.3, 20);
        for _ in 0..60 {
            cell.step(1.0);
        }
        let (offered, shed, delivered, on_time, good_bits) = totals(&cell);
        assert!(offered > 20, "no traffic generated: {offered}");
        assert_eq!(shed, 0);
        assert_eq!(delivered, offered);
        assert_eq!(on_time, delivered);
        assert!(cell.events().is_empty());
        assert!(good_bits > 0);
        assert!(cell.backlog_s() == 0.0);
        assert!((0..4).all(|u| cell.tier(u) == ServiceTier::Full));
    }

    #[test]
    fn same_seed_reruns_are_bit_identical() {
        let run = || {
            let cfg = CityConfig::small_city();
            let mut cell = CityCell::new(&cfg);
            add_users(&mut cell, 2, QosClass::Latency, 0.4, 10);
            add_users(&mut cell, 2, QosClass::Bulk, 0.6, 20);
            for _ in 0..40 {
                cell.step(1.3);
            }
            (cell.digest, totals(&cell))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overload_triggers_bulk_downgrades_and_bounds_the_backlog() {
        let cfg = CityConfig::small_city();
        let mut cell = CityCell::new(&cfg);
        add_users(&mut cell, 2, QosClass::Latency, 0.5, 30);
        add_users(&mut cell, 2, QosClass::Bulk, 0.5, 40);
        // Find the multiplier that makes offered work ≈ 2× capacity.
        let per_tick_units: f64 = (0..4).map(|u| cell.frame_units(u) as f64 * 0.5).sum();
        let mult = 2.0 * cell.capacity_units() / per_tick_units;
        for _ in 0..80 {
            cell.step(mult);
        }
        assert!(
            cell.events().iter().any(|e| !e.restore),
            "2x overload never shed: {:?}",
            totals(&cell)
        );
        // Every downgrade victim so far should be bulk (bulk users were
        // never exhausted down to the bottom tier here).
        for e in cell.events() {
            if !e.restore && e.class == QosClass::Latency {
                assert_eq!(e.bulk_above_bottom, 0, "latency user shed early: {e:?}");
            }
        }
    }

    #[test]
    fn force_tier_swaps_and_records_through_the_policy_path() {
        let cfg = CityConfig::small_city();
        let mut cell = CityCell::new(&cfg);
        add_users(&mut cell, 1, QosClass::Bulk, 0.2, 50);
        assert_eq!(cell.tier(0), ServiceTier::Full);
        cell.force_tier(0, ServiceTier::Linear);
        assert_eq!(cell.tier(0), ServiceTier::Linear);
        assert_eq!(cell.events().len(), 1);
        assert!(!cell.events()[0].restore);
        cell.force_tier(0, ServiceTier::Linear); // no-op
        assert_eq!(cell.events().len(), 1);
        cell.force_tier(0, ServiceTier::Full);
        assert!(cell.events()[1].restore);
    }

    #[test]
    fn a_round_is_priced_and_run_from_one_plan() {
        // One `step_with` carves each round once: the round's modelled
        // duration is the makespan of the plan of exactly the frames it
        // served. A twin cell — the served users' streams and templates,
        // one frame of the same shape each — replans that round: a plan's
        // prices depend on the prepared detectors and the grid, not on
        // the received samples.
        let mut cfg = CityConfig::small_city();
        cfg.shedding = false;
        let mut cell = CityCell::new(&cfg);
        add_users(&mut cell, 3, QosClass::Bulk, 0.6, 70);
        cell.force_tier(2, ServiceTier::Sic);
        let mut single_round_ticks = 0;
        for _ in 0..40 {
            // Light load: every tick starts drained, at modelled time 0
            // of its interval.
            assert_eq!(cell.backlog_s(), 0.0);
            assert!(!cell.cell.has_queued());
            let rounds_before = cell.cell.stats().ticks;
            let mut served: Vec<(usize, f64)> = Vec::new();
            cell.step_with(1.0, &mut |f| served.push((f.user, f.latency_s)));
            if cell.cell.stats().ticks - rounds_before != 1 {
                continue; // no arrivals, or a user queued two frames
            }
            single_round_ticks += 1;

            // The round, replanned.
            let mut twin = StreamingCell::new();
            for &(u, _) in &served {
                let engine = cell.cell.engine(u);
                let id = twin.add_user(cell.cell.stream(u).clone(), engine.template().clone());
                let n_vectors = CityConfig::N_SYMBOLS * CityConfig::N_SUBCARRIERS;
                let zeros = vec![vec![flexcore_numeric::Cx::ZERO; CityConfig::NT]; n_vectors];
                twin.submit(id, RxFrame::from_vectors(CityConfig::N_SUBCARRIERS, zeros));
            }
            let plan = twin.plan_tick(cell.pool.n_pes());
            let ran = plan.costs();
            assert!(ran.windows(2).all(|w| w[0] >= w[1]), "run order");
            // Every served user's whole frame is in that one vector.
            let offered: u64 = served.iter().map(|&(u, _)| cell.frame_units(u)).sum();
            assert_eq!(ran.iter().sum::<u64>(), offered);
            // What was priced: every delivery's latency is the round's
            // modelled duration, which must be the makespan of exactly
            // that vector.
            let round_s = lpt_makespan_weighted(ran, &cell.speeds) * cell.unit_s;
            // (`latency = (start + round) − start`, so equal up to the
            // rounding of the tick's start time.)
            assert!(round_s > 0.0);
            assert!(
                served
                    .iter()
                    .all(|&(_, l)| (l - round_s).abs() < 1e-9 * round_s),
                "{served:?} vs {round_s}"
            );
        }
        assert!(single_round_ticks >= 5, "{single_round_ticks} usable ticks");
    }
}
