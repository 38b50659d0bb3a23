//! City-scale serving: many cells, thousands of users, bursty traffic,
//! QoS-aware admission and load shedding.
//!
//! The engine's `StreamingCell` answers "how do N queued uplinks
//! share one PE pool"; this module answers the deployment question above
//! it: **who gets in, who gets what tier, and what happens at 2× load.**
//! A [`City`] is a set of [`CityCell`]s, each serving 1 ms LTE subframes
//! on the LTE small-cell fabric; a deterministic population of
//! [`UserProfile`]s (per-user [`ArrivalProcess`]es and [`QosClass`]es)
//! is placed round-robin and gated by latency-first admission. Under
//! overload each cell's shed policy downgrades backlogged bulk users down
//! the [`ServiceTier`] ladder (FlexCore → SIC → linear) instead of letting
//! the backlog starve everyone — decisions
//! driven by the serving layer's frames-behind counters and windowed
//! latency percentiles.
//!
//! Everything is seeded: the same [`CityConfig`] and seed replays the
//! same arrivals, channels, payloads, swaps and detections, and the
//! delivered-detection digest in [`CityReport`] pins that bit-for-bit.
//! Load sweeps are *coupled* — each user draws one uniform per tick no
//! matter the multiplier — so offered load scales without reshuffling
//! anyone's burst timing.

mod cell;
mod qos;
mod traffic;

pub use cell::{CityCell, DeliveredFrame, ServiceTier, ShedEvent};
pub use qos::{QosClass, UserProfile};
pub use traffic::{ArrivalProcess, TrafficSource};

use flexcore_engine::LatencyRecord;
use flexcore_modulation::Modulation;

use cell::{fnv, FNV_OFFSET};

/// The city parameterisation: size, population mix, admission headroom,
/// the shedding switch and the run seed. The PHY shape (4×4 16-QAM
/// FlexCore-16 uplinks, 4 subcarriers × 2 OFDM symbols per frame,
/// Gauss–Markov ρ = 0.95, a refresh every 4 subcarriers, 30 dB SNR) is
/// the same for every city, as constants below.
#[derive(Clone, Debug)]
pub struct CityConfig {
    /// Number of cells.
    pub n_cells: usize,
    /// Users *requesting* admission per cell (admission may reject some).
    pub users_per_cell: usize,
    /// Fraction of the population in the latency class, spread evenly;
    /// in `[0, 1]`.
    pub latency_fraction: f64,
    /// Admission headroom in `(0, 1]`: the fraction of each cell's
    /// capacity admission books. Booking to 1.0 leaves no slack for burst
    /// peaks above the mean.
    pub headroom: f64,
    /// Whether the cells shed load; `false` pins every user at full
    /// service (the "fixed" arm of a shedding comparison).
    pub shedding: bool,
    /// Root seed; every per-user stream derives from this.
    pub seed: u64,
}

impl CityConfig {
    /// Transmit/receive antennas per user.
    const NT: usize = 4;
    /// Modulation of every uplink.
    const MODULATION: Modulation = Modulation::Qam16;
    /// Subcarriers per user band.
    const N_SUBCARRIERS: usize = 4;
    /// OFDM symbols per frame.
    const N_SYMBOLS: usize = 2;
    /// Gauss–Markov channel coherence (0 = i.i.d. per frame, 1 = frozen).
    const RHO: f64 = 0.95;
    /// Subcarriers between estimate refreshes (staggered pilots).
    const REFRESH_PERIOD: usize = 4;
    /// Mean offered frames per tick per user at load 1.0 (before the
    /// city-level calibration rescales to a capacity multiple).
    const BASE_RATE: f64 = 0.4;
    /// Ticks per diurnal day for the diurnal arrival cohort.
    const DAY_TICKS: u64 = 120;
    /// FlexCore path budget at full service.
    const FLEXCORE_BUDGET: usize = 16;
    /// Noise variance per receive antenna (30 dB SNR).
    const SIGMA2: f64 = 1e-3;

    /// A small city for tests and smokes: 2 cells × 32 users, a quarter
    /// of them latency-class, 90 % admission headroom, shedding on.
    pub fn small_city() -> Self {
        CityConfig {
            n_cells: 2,
            users_per_cell: 32,
            latency_fraction: 0.25,
            headroom: 0.9,
            shedding: true,
            seed: 0xC17_15EED,
        }
    }
}

/// City-level outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct CityReport {
    /// Users admitted across all cells.
    pub n_admitted: usize,
    /// Users rejected by admission control.
    pub n_rejected: usize,
    /// Frames offered by all admitted users.
    pub offered_frames: u64,
    /// Frames shed at queue caps.
    pub shed_frames: u64,
    /// Frames detected and delivered.
    pub delivered_frames: u64,
    /// Delivered frames that met their deadline.
    pub on_time_frames: u64,
    /// Bits offered (`offered_frames × bits/frame`).
    pub offered_bits: u64,
    /// Goodput: bits of symbol-correct detections delivered on time.
    pub goodput_bits: u64,
    /// `shed_frames / offered_frames` (0 when nothing was offered).
    pub shed_fraction: f64,
    /// Fraction of *delivered* frames that missed their deadline.
    pub deadline_miss_rate: f64,
    /// Jain index over per-user goodput bits, admitted users only.
    pub jain: f64,
    /// `goodput_bits × jain` — the metric on which shedding must dominate
    /// fixed full service under overload.
    pub goodput_fairness: f64,
    /// Latency-class worst-cell p95 latency.
    pub latency_class_p95_s: f64,
    /// Bulk-class worst-cell p95 latency.
    pub bulk_class_p95_s: f64,
    /// Downgrade actions across all cells.
    pub downgrades: usize,
    /// Restore actions across all cells.
    pub restores: usize,
    /// FNV-1a fold of every cell's delivered-detection digest — the
    /// run-to-run determinism gate.
    pub digest: u64,
}

/// A deterministic multi-cell city. Build with [`City::new`] (which
/// places and admits the population), then [`City::run`].
pub struct City {
    cells: Vec<CityCell>,
    n_rejected: usize,
}

impl City {
    /// Builds the city: generates the population deterministically from
    /// `cfg.seed`, spreads requests round-robin over the cells, and runs
    /// latency-first admission against each cell's budgeted capacity.
    ///
    /// The population cycles through the three arrival families
    /// (Poisson, on/off, diurnal), each scaled to the same mean rate, and
    /// the latency class is spread evenly at `cfg.latency_fraction`.
    pub fn new(cfg: &CityConfig) -> Self {
        assert!(cfg.n_cells >= 1, "City: need at least one cell");
        assert!(
            cfg.headroom > 0.0 && cfg.headroom <= 1.0,
            "City: headroom must be in (0, 1]: {}",
            cfg.headroom
        );
        assert!(
            (0.0..=1.0).contains(&cfg.latency_fraction),
            "City: latency_fraction must be in [0, 1]: {}",
            cfg.latency_fraction
        );
        let mut cells: Vec<CityCell> = (0..cfg.n_cells).map(|_| CityCell::new(cfg)).collect();

        // Deterministic population: class via an exact-fraction
        // accumulator, arrivals cycling through the three families at
        // equal mean rate, seeds derived from the run seed by index.
        let total = cfg.n_cells * cfg.users_per_cell;
        let mut class_acc = 0.0;
        let mut profiles: Vec<Vec<UserProfile>> = vec![Vec::new(); cfg.n_cells];
        for i in 0..total {
            class_acc += cfg.latency_fraction;
            let class = if class_acc >= 1.0 {
                class_acc -= 1.0;
                QosClass::Latency
            } else {
                QosClass::Bulk
            };
            let arrivals = match i % 3 {
                0 => ArrivalProcess::Poisson {
                    rate: CityConfig::BASE_RATE,
                },
                1 => {
                    // Stationary mean p_on/(p_on+p_off) × peak = BASE_RATE.
                    let (p_on, p_off) = (0.1, 0.25);
                    ArrivalProcess::OnOff {
                        p_on,
                        p_off,
                        peak: CityConfig::BASE_RATE * (p_on + p_off) / p_on,
                    }
                }
                _ => ArrivalProcess::Diurnal {
                    daily_volume: CityConfig::BASE_RATE * CityConfig::DAY_TICKS as f64,
                    day_ticks: CityConfig::DAY_TICKS,
                },
            };
            let seed = cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let profile = UserProfile::new(class, arrivals, seed);
            profiles[i % cfg.n_cells].push(profile);
        }

        // Price demand in measured extension-work units: one probe user
        // tells us what a full-tier frame costs on this PHY shape (the
        // fixed-budget FlexCore price is channel-independent).
        let unit_price = {
            let mut probe = CityCell::new(cfg);
            probe.add_user(UserProfile::new(
                QosClass::Bulk,
                ArrivalProcess::Poisson { rate: 0.0 },
                cfg.seed,
            ));
            probe.frame_units(0) as f64
        };

        let mut n_rejected = 0;
        for (cell, profiles) in cells.iter_mut().zip(&profiles) {
            let requests: Vec<(QosClass, f64)> = profiles
                .iter()
                .map(|p| (p.class, p.arrivals.mean_rate() * unit_price))
                .collect();
            let admitted = qos::admit(cfg.headroom * cell.capacity_units(), &requests);
            for (ok, profile) in admitted.iter().zip(profiles) {
                if *ok {
                    cell.add_user(profile.clone());
                } else {
                    n_rejected += 1;
                }
            }
        }
        City { cells, n_rejected }
    }

    /// The cells, in placement order.
    pub fn cells(&self) -> &[CityCell] {
        &self.cells
    }

    /// Users admitted across all cells.
    pub fn n_admitted(&self) -> usize {
        self.cells.iter().map(CityCell::n_users).sum()
    }

    /// The traffic multiplier that makes the admitted population's mean
    /// offered work equal `load ×` the city's total per-tick capacity.
    /// Deterministic: prices each admitted user at its measured full-tier
    /// frame cost.
    fn calibrate_multiplier(&self, load: f64) -> f64 {
        assert!(load.is_finite() && load > 0.0, "City: bad load {load}");
        let capacity: f64 = self.cells.iter().map(CityCell::capacity_units).sum();
        let offered: f64 = self
            .cells
            .iter()
            .map(|cell| {
                (0..cell.n_users())
                    .map(|u| cell.profile(u).arrivals.mean_rate() * cell.frame_units(u) as f64)
                    .sum::<f64>()
            })
            .sum();
        assert!(offered > 0.0, "City: nobody admitted offers any traffic");
        load * capacity / offered
    }

    /// Runs `n_ticks` at `load ×` capacity (calibrated up front, from the
    /// full-tier prices at run start) and reports over every cell.
    /// Continues from the current state — run once per `City` for a clean
    /// experiment.
    pub fn run(&mut self, n_ticks: u64, load: f64) -> CityReport {
        let multiplier = self.calibrate_multiplier(load);
        for _ in 0..n_ticks {
            for cell in &mut self.cells {
                cell.step(multiplier);
            }
        }
        self.report()
    }

    /// Aggregates every cell: counters summed, Jain's index over every
    /// user's goodput, worst-cell class p95s, and an FNV-1a fold of the
    /// cells' delivered-detection digests in order.
    fn report(&self) -> CityReport {
        let users = || self.cells.iter().flat_map(|c| &c.users);
        let events = || self.cells.iter().flat_map(CityCell::events);
        let frame_bits = (CityConfig::N_SYMBOLS
            * CityConfig::N_SUBCARRIERS
            * CityConfig::NT
            * CityConfig::MODULATION.bits_per_symbol()) as u64;
        let offered_frames: u64 = users().map(|u| u.offered).sum();
        let shed_frames: u64 = users().map(|u| u.shed).sum();
        let delivered_frames: u64 = users().map(|u| u.delivered).sum();
        let on_time_frames: u64 = users().map(|u| u.on_time).sum();
        let goodput_bits: u64 = users().map(|u| u.good_bits).sum();
        let per_user: Vec<f64> = users().map(|u| u.good_bits as f64).collect();
        let jain = jain_index(&per_user);
        let worst_p95 = |rec: fn(&CityCell) -> &LatencyRecord| {
            self.cells
                .iter()
                .map(|c| rec(c).quantile(0.95))
                .fold(0.0, f64::max)
        };
        CityReport {
            n_admitted: users().count(),
            n_rejected: self.n_rejected,
            offered_frames,
            shed_frames,
            delivered_frames,
            on_time_frames,
            offered_bits: offered_frames * frame_bits,
            goodput_bits,
            shed_fraction: if offered_frames == 0 {
                0.0
            } else {
                shed_frames as f64 / offered_frames as f64
            },
            deadline_miss_rate: if delivered_frames == 0 {
                0.0
            } else {
                (delivered_frames - on_time_frames) as f64 / delivered_frames as f64
            },
            jain,
            goodput_fairness: goodput_bits as f64 * jain,
            latency_class_p95_s: worst_p95(|c| &c.latency_rec),
            bulk_class_p95_s: worst_p95(|c| &c.bulk_rec),
            downgrades: events().filter(|e| !e.restore).count(),
            restores: events().filter(|e| e.restore).count(),
            digest: self.cells.iter().fold(FNV_OFFSET, |h, c| fnv(h, c.digest)),
        }
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1.0 for a perfectly even
/// allocation, `1/n` when one user gets everything. Empty and all-zero
/// inputs — nobody is being treated unequally — return 1.0.
fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn city_builds_admits_and_runs_deterministically() {
        let mut cfg = CityConfig::small_city();
        cfg.users_per_cell = 8;
        let run = || {
            let mut city = City::new(&cfg);
            assert_eq!(city.cells().len(), 2);
            assert!(city.n_admitted() > 0);
            let r = city.run(30, 0.7);
            (r.digest, r.goodput_bits, r.shed_frames, r.n_admitted)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn jain_index_brackets() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        let skew = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((skew - 0.25).abs() < 1e-12);
    }

    #[test]
    fn population_mixes_classes_and_arrival_families() {
        let mut cfg = CityConfig::small_city();
        cfg.users_per_cell = 12;
        cfg.headroom = 1.0;
        let city = City::new(&cfg);
        let mut latency = 0;
        let mut families = [0usize; 3];
        for cell in city.cells() {
            for u in 0..cell.n_users() {
                let p = cell.profile(u);
                if p.class == QosClass::Latency {
                    latency += 1;
                }
                match p.arrivals {
                    ArrivalProcess::Poisson { .. } => families[0] += 1,
                    ArrivalProcess::OnOff { .. } => families[1] += 1,
                    ArrivalProcess::Diurnal { .. } => families[2] += 1,
                }
            }
        }
        assert!(latency > 0, "no latency users");
        assert!(
            families.iter().all(|&f| f > 0),
            "missing family: {families:?}"
        );
        // All three families carry the same mean rate.
        for cell in city.cells() {
            for u in 0..cell.n_users() {
                let m = cell.profile(u).arrivals.mean_rate();
                assert!(
                    (m - CityConfig::BASE_RATE).abs() < 1e-12,
                    "family rate drifted: {m}"
                );
            }
        }
    }

    #[test]
    fn headroom_scales_the_admitted_population() {
        // 160 users ask one cell for more than its capacity at the base
        // rate, so a tighter headroom must turn more of them away.
        let admitted = |headroom| {
            let mut cfg = CityConfig::small_city();
            (cfg.n_cells, cfg.users_per_cell) = (1, 160);
            cfg.headroom = headroom;
            City::new(&cfg).n_admitted()
        };
        let (half, full) = (admitted(0.5), admitted(1.0));
        assert!(0 < half && half < full, "{half} vs {full}");
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn zero_headroom_is_rejected() {
        let mut cfg = CityConfig::small_city();
        cfg.headroom = 0.0;
        let _ = City::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "latency_fraction")]
    fn nan_latency_fraction_is_rejected() {
        let mut cfg = CityConfig::small_city();
        cfg.latency_fraction = f64::NAN;
        let _ = City::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "latency_fraction")]
    fn latency_fraction_above_one_is_rejected() {
        let mut cfg = CityConfig::small_city();
        cfg.latency_fraction = 1.5;
        let _ = City::new(&cfg);
    }

    #[test]
    fn calibration_hits_the_requested_load() {
        let mut cfg = CityConfig::small_city();
        cfg.users_per_cell = 8;
        let city = City::new(&cfg);
        let capacity: f64 = city.cells().iter().map(CityCell::capacity_units).sum();
        for load in [0.5, 1.0, 2.0] {
            let m = city.calibrate_multiplier(load);
            let offered: f64 = city
                .cells()
                .iter()
                .map(|cell| {
                    (0..cell.n_users())
                        .map(|u| {
                            m * cell.profile(u).arrivals.mean_rate() * cell.frame_units(u) as f64
                        })
                        .sum::<f64>()
                })
                .sum();
            assert!(
                (offered / capacity - load).abs() < 1e-9,
                "load {load}: calibrated to {}",
                offered / capacity
            );
        }
    }
}
