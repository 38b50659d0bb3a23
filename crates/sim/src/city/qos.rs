//! QoS classes, per-user profiles, and capacity-based admission control.
//!
//! The city serves two service classes. *Latency* users (voice,
//! interactive) carry tight per-frame deadlines and shallow queues — a
//! late frame is worthless, so buffering deeply only manufactures misses.
//! *Bulk* users (uploads, telemetry) tolerate tens of milliseconds and
//! deep queues, and they are the ones the overload policy downgrades
//! first: a bulk user served by SIC or a linear equalizer still moves
//! bits, while a latency user starved behind a backlog moves none.
//!
//! [`AdmissionController`] gates who gets in at all: it prices each user
//! at its mean offered work (frames/tick × work units/frame, the same
//! path-extension units `flexcore_hwmodel::CellBudget` prices capacity
//! in) and admits greedily, latency class first, until a headroom
//! fraction of the cell's per-tick capacity is spoken for.

use super::traffic::ArrivalProcess;

/// The service class a user is admitted under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Tight per-frame deadline, shallow queue, downgraded only as a last
    /// resort.
    Latency,
    /// Loose deadline, deep queue, first in line for tier downgrades
    /// under overload.
    Bulk,
}

impl QosClass {
    /// The class's default per-frame deadline in seconds: 4 ms for
    /// latency users (four LTE subframes), 25 ms for bulk.
    pub const fn default_deadline_s(self) -> f64 {
        match self {
            QosClass::Latency => 4e-3,
            QosClass::Bulk => 25e-3,
        }
    }

    /// The class's default queue cap in frames: latency queues stay
    /// shallow (a frame queued deeper than the deadline is already dead),
    /// bulk queues ride out bursts.
    pub fn default_queue_cap(self) -> usize {
        match self {
            QosClass::Latency => 4,
            QosClass::Bulk => 32,
        }
    }
}

/// One user's service contract: class, traffic, deadline, queue cap, and
/// the seed every per-user random stream (traffic, channel, payloads) is
/// derived from.
#[derive(Clone, Debug)]
pub struct UserProfile {
    /// Service class.
    pub class: QosClass,
    /// The user's offered-traffic process.
    pub arrivals: ArrivalProcess,
    /// Per-frame deadline in seconds; a frame delivered later counts as a
    /// miss and contributes nothing to goodput.
    pub deadline_s: f64,
    /// Most frames the user may hold queued; arrivals beyond this are
    /// shed at the door.
    pub queue_cap: usize,
    /// Root seed for this user's traffic, channel, and payload RNGs.
    pub seed: u64,
}

impl UserProfile {
    /// A profile with the class's default deadline and queue cap.
    pub fn new(class: QosClass, arrivals: ArrivalProcess, seed: u64) -> Self {
        UserProfile {
            class,
            arrivals,
            deadline_s: class.default_deadline_s(),
            queue_cap: class.default_queue_cap(),
            seed,
        }
    }
}

/// One row of an admission decision: who asked, what class, and the mean
/// work they would offer.
#[derive(Clone, Debug)]
pub struct AdmissionRequest {
    /// Requested service class.
    pub class: QosClass,
    /// Mean offered work in path-extension units per tick
    /// (mean frames/tick × priced units/frame).
    pub mean_units_per_tick: f64,
}

/// Greedy latency-first admission against a per-tick capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionController {
    /// Fraction of capacity the controller will book, in `(0, 1]`.
    /// Booking to 1.0 leaves no slack for burst peaks above the mean.
    pub headroom: f64,
}

impl AdmissionController {
    /// A controller booking up to `headroom × capacity`.
    ///
    /// # Panics
    /// Panics unless `headroom` is in `(0, 1]`.
    pub fn new(headroom: f64) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "AdmissionController: headroom must be in (0, 1]: {headroom}"
        );
        AdmissionController { headroom }
    }

    /// Decides admission for `requests` against `capacity_units` (the
    /// cell's per-tick capacity in path-extension units). Latency users
    /// are considered first, each class in request order; a user is
    /// admitted iff its mean demand still fits under the headroom-scaled
    /// capacity, and a user that does not fit is skipped without blocking
    /// later, smaller requests. Returns one flag per request, in request
    /// order.
    pub fn admit(&self, capacity_units: f64, requests: &[AdmissionRequest]) -> Vec<bool> {
        assert!(
            capacity_units.is_finite() && capacity_units >= 0.0,
            "AdmissionController: bad capacity {capacity_units}"
        );
        let limit = self.headroom * capacity_units;
        let mut booked = 0.0;
        let mut admitted = vec![false; requests.len()];
        for pass_class in [QosClass::Latency, QosClass::Bulk] {
            for (i, req) in requests.iter().enumerate() {
                if req.class != pass_class {
                    continue;
                }
                assert!(
                    req.mean_units_per_tick.is_finite() && req.mean_units_per_tick >= 0.0,
                    "AdmissionController: bad demand {}",
                    req.mean_units_per_tick
                );
                if booked + req.mean_units_per_tick <= limit {
                    booked += req.mean_units_per_tick;
                    admitted[i] = true;
                }
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(class: QosClass, units: f64) -> AdmissionRequest {
        AdmissionRequest {
            class,
            mean_units_per_tick: units,
        }
    }

    #[test]
    fn latency_users_are_admitted_before_bulk_regardless_of_order() {
        let ctl = AdmissionController::new(1.0);
        // Bulk asks first and would exhaust capacity, but the latency user
        // still gets in: the latency pass runs first.
        let requests = vec![
            req(QosClass::Bulk, 60.0),
            req(QosClass::Latency, 50.0),
            req(QosClass::Bulk, 40.0),
        ];
        let admitted = ctl.admit(100.0, &requests);
        assert_eq!(admitted, vec![false, true, true]);
    }

    #[test]
    fn headroom_scales_the_bookable_capacity() {
        let ctl = AdmissionController::new(0.5);
        let requests = vec![req(QosClass::Latency, 30.0), req(QosClass::Latency, 30.0)];
        assert_eq!(ctl.admit(100.0, &requests), vec![true, false]);
    }

    #[test]
    fn skipping_a_big_request_does_not_block_smaller_ones() {
        let ctl = AdmissionController::new(1.0);
        let requests = vec![
            req(QosClass::Bulk, 80.0),
            req(QosClass::Bulk, 200.0),
            req(QosClass::Bulk, 15.0),
        ];
        assert_eq!(ctl.admit(100.0, &requests), vec![true, false, true]);
    }

    #[test]
    fn profile_defaults_follow_the_class() {
        let p = UserProfile::new(QosClass::Latency, ArrivalProcess::Poisson { rate: 0.5 }, 9);
        assert_eq!(p.deadline_s, 4e-3);
        assert_eq!(p.queue_cap, 4);
        let b = UserProfile::new(QosClass::Bulk, ArrivalProcess::Poisson { rate: 0.5 }, 9);
        assert!(b.deadline_s > p.deadline_s);
        assert!(b.queue_cap > p.queue_cap);
    }

    #[test]
    #[should_panic(expected = "headroom")]
    fn zero_headroom_is_rejected() {
        let _ = AdmissionController::new(0.0);
    }
}
