//! Property pins for the city's QoS and shedding behaviour (ISSUE 10,
//! satellite 2):
//!
//! * class protection — no admitted latency user is ever downgraded while
//!   any bulk user still holds a tier above the bottom;
//! * shed fraction is monotone non-decreasing in offered load (the
//!   one-uniform-per-tick traffic coupling makes load sweeps comparable
//!   path by path);
//! * a downgraded user's detections are bit-identical to a solo cell
//!   running the same profile with the same tier schedule — shedding
//!   changes cost and scheduling, never results;
//! * same-seed city runs are bit-identical end to end, and equal to the
//!   digests recorded before the plan → run refactor.

use flexcore_sim::city::{
    ArrivalProcess, City, CityCell, CityConfig, QosClass, ServiceTier, UserProfile,
};

fn test_city_config(users_per_cell: usize) -> CityConfig {
    let mut cfg = CityConfig::small_city();
    cfg.users_per_cell = users_per_cell;
    cfg
}

#[test]
fn latency_users_are_only_downgraded_after_every_bulk_user() {
    // A single deliberately tiny, deliberately drowned cell where the
    // *latency* users carry most of the load: three latency users beside
    // one bulk user at ~6× capacity. Downgrading the lone bulk user
    // cannot cool the cell, so the policy is forced all the way to
    // latency victims — but it must still walk every bulk tier first,
    // and the event log must prove it did.
    let mut cfg = test_city_config(4);
    cfg.n_cells = 1;
    cfg.latency_fraction = 0.75;
    cfg.headroom = 1.0;
    let mut city = City::new(&cfg);
    assert_eq!(city.n_admitted(), 4, "tiny cell should admit everyone");
    city.run(150, 6.0);

    let events = city.cells()[0].events();
    let downs: Vec<_> = events.iter().filter(|e| !e.restore).collect();
    assert!(!downs.is_empty(), "6x overload never downgraded anyone");
    assert!(
        downs.iter().any(|e| e.class == QosClass::Latency),
        "overload never reached the latency user, test is vacuous"
    );
    for e in &downs {
        if e.class == QosClass::Latency {
            assert_eq!(
                e.bulk_above_bottom, 0,
                "latency user downgraded while {} bulk users kept a tier: {e:?}",
                e.bulk_above_bottom
            );
        }
    }
    // And the ordering in time: the first latency downgrade comes after
    // the last bulk user left Full service.
    let first_latency = downs
        .iter()
        .position(|e| e.class == QosClass::Latency)
        .unwrap();
    assert!(downs[..first_latency]
        .iter()
        .all(|e| e.class == QosClass::Bulk));
}

#[test]
fn shed_fraction_is_monotone_in_offered_load() {
    // Same seed at every load: the coupled traffic sources make higher
    // load a pathwise superset of lower load, so the realised shed
    // fraction must be non-decreasing across the sweep.
    let cfg = test_city_config(16);
    let mut prev = -1.0;
    let mut fractions = Vec::new();
    for load in [0.5, 1.0, 1.5, 2.0, 2.5] {
        let mut city = City::new(&cfg);
        let r = city.run(100, load);
        fractions.push((load, r.shed_fraction));
        assert!(
            r.shed_fraction >= prev,
            "shed fraction fell with load: {fractions:?}"
        );
        prev = r.shed_fraction;
    }
    // The sweep must actually spread: near-nothing shed at half load
    // (shallow latency queue caps clip the occasional within-tick burst
    // even when the cell keeps up), a solid fraction at 2.5×.
    let (first, last) = (fractions[0].1, fractions[fractions.len() - 1].1);
    assert!(first < 0.06, "0.5x load sheds heavily: {fractions:?}");
    assert!(
        last > first + 0.05,
        "the sweep never entered the shedding regime: {fractions:?}"
    );
}

#[test]
fn downgraded_user_detections_match_a_solo_run_with_the_same_schedule() {
    // The watched user rides in a 3-user cell (multi) and alone (solo),
    // same profile seed, same forced tier schedule: Full for 10 ticks,
    // SIC for 10, linear for 10. Light load so queues drain every tick —
    // then the k-th delivered frame sees the same tier in both cells, and
    // detections must agree bit for bit.
    let cfg = test_city_config(4);
    let watched = UserProfile::new(
        QosClass::Bulk,
        ArrivalProcess::Poisson { rate: 0.6 },
        0xFEED_F00D,
    );
    let others = [
        UserProfile::new(QosClass::Latency, ArrivalProcess::Poisson { rate: 0.5 }, 51),
        UserProfile::new(QosClass::Bulk, ArrivalProcess::Poisson { rate: 0.5 }, 52),
    ];

    let run = |profiles: &[UserProfile], watch: usize| {
        let mut cell = CityCell::new(&cfg);
        for p in profiles {
            cell.add_user(p.clone());
        }
        let mut frames: Vec<Vec<u16>> = Vec::new();
        for (tick, tier) in [
            (0u64, ServiceTier::Full),
            (10, ServiceTier::Sic),
            (20, ServiceTier::Linear),
        ]
        .iter()
        .flat_map(|&(start, tier)| (start..start + 10).map(move |t| (t, tier)))
        {
            if tick == 10 || tick == 20 {
                cell.force_tier(watch, tier);
            }
            cell.step_with(1.0, &mut |f| {
                if f.user == watch {
                    frames.push(f.cells.to_vec());
                }
            });
        }
        assert_eq!(cell.shed_frames(), 0, "light load must not shed");
        frames
    };

    let multi_profiles = vec![others[0].clone(), watched.clone(), others[1].clone()];
    let multi = run(&multi_profiles, 1);
    let solo = run(std::slice::from_ref(&watched), 0);

    assert!(
        multi.len() > 10,
        "watched user delivered too little: {}",
        multi.len()
    );
    assert_eq!(
        multi.len(),
        solo.len(),
        "same traffic must deliver the same frame count at light load"
    );
    for (k, (m, s)) in multi.iter().zip(&solo).enumerate() {
        assert_eq!(m, s, "frame {k} diverged between multi-user and solo runs");
    }
}

/// `CityReport::digest` of `test_city_config(12)` run for 60 ticks at load
/// 1.8, recorded at commit `111ed89` (before the serving loops were folded
/// onto one plan → run core). The digest folds every delivered detection
/// in delivery order, so it moves if planning, scheduling or shedding ever
/// leaks into results — a rerun compared only with itself cannot see that.
/// Both pins were re-recorded twice, deliberately, when `CxRng::cx_normal`
/// moved from Box–Muller to the polar method and then to the ziggurat:
/// each changes every channel and noise draw, so every detection input.
const SMALL_CITY_DIGEST: u64 = 0x803f_a1ea_9699_8a13;

/// The same pin at full `CityConfig::small_city()` size (2 cells × 32
/// users, shedding on): seed `0x5EED_0010`, 60 ticks at load 1.8.
const SEEDED_SMALL_CITY_DIGEST: u64 = 0xf6d1_a60e_958b_4c59;

#[test]
fn same_seed_city_runs_are_bit_identical() {
    let cfg = test_city_config(12);
    let run = || City::new(&cfg).run(60, 1.8);
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same-seed city runs diverged");
    assert!(a.delivered_frames > 0);
    assert!(a.goodput_bits > 0);
    assert_eq!(
        a.digest, SMALL_CITY_DIGEST,
        "delivered detections moved: {:#018x}",
        a.digest
    );
}

#[test]
fn seeded_small_city_digest_is_pinned() {
    let mut cfg = CityConfig::small_city();
    cfg.seed = 0x5EED_0010;
    let report = City::new(&cfg).run(60, 1.8);
    assert_eq!(
        report.digest, SEEDED_SMALL_CITY_DIGEST,
        "delivered detections moved: {:#018x}",
        report.digest
    );
}

#[test]
fn shedding_keeps_latency_users_inside_their_deadline_under_overload() {
    // The policy's purpose, end to end: at 2x load with shedding on, the
    // latency class's p95 stays within its deadline once the policy has
    // had time to bite; with shedding off it blows through it — and
    // degrading a few bulk users beats letting the backlog starve
    // everyone on goodput × Jain fairness.
    let mut cfg = test_city_config(16);
    cfg.seed = 0xA11_0C8ED;
    let shed = City::new(&cfg).run(120, 2.0);
    let mut fixed_cfg = cfg.clone();
    fixed_cfg.shedding = false;
    let fixed = City::new(&fixed_cfg).run(120, 2.0);
    assert!(shed.downgrades > 0, "2x load never shed: {shed:?}");
    assert_eq!(fixed.downgrades, 0);
    assert!(
        shed.latency_class_p95_s < fixed.latency_class_p95_s,
        "shedding did not improve latency-class p95: {} vs {}",
        shed.latency_class_p95_s,
        fixed.latency_class_p95_s
    );
    assert!(
        shed.goodput_fairness > fixed.goodput_fairness,
        "shedding did not dominate on goodput x fairness: {:.3e} vs {:.3e}",
        shed.goodput_fairness,
        fixed.goodput_fairness
    );
}
