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
//! Admission ([`City::new`](super::City::new)) gates who gets in at all:
//! it prices each user at its mean offered work (frames/tick × work
//! units/frame, the same path-extension units
//! [`CityCell::capacity_units`](super::CityCell::capacity_units) prices
//! capacity in) and admits greedily, latency class first, until a
//! headroom fraction of the cell's per-tick capacity is spoken for.

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
    /// The class's per-frame deadline in seconds: 4 ms for latency users
    /// (four LTE subframes), 25 ms for bulk. A frame delivered later
    /// counts as a miss and contributes nothing to goodput.
    pub const fn deadline_s(self) -> f64 {
        match self {
            QosClass::Latency => 4e-3,
            QosClass::Bulk => 25e-3,
        }
    }

    /// The class's queue cap in frames: latency queues stay shallow (a
    /// frame queued deeper than the deadline is already dead), bulk queues
    /// ride out bursts. Arrivals beyond the cap are shed at the door.
    pub(crate) fn queue_cap(self) -> usize {
        match self {
            QosClass::Latency => 4,
            QosClass::Bulk => 32,
        }
    }
}

/// One user's service contract: class, traffic, and the seed every
/// per-user random stream (traffic, channel, payloads) is derived from.
/// The deadline and queue cap follow the class.
#[derive(Clone, Debug)]
pub struct UserProfile {
    /// Service class.
    pub class: QosClass,
    /// The user's offered-traffic process.
    pub arrivals: ArrivalProcess,
    /// Root seed for this user's traffic, channel, and payload RNGs.
    pub seed: u64,
}

impl UserProfile {
    /// A profile of `class` offering `arrivals`, seeded by `seed`.
    pub fn new(class: QosClass, arrivals: ArrivalProcess, seed: u64) -> Self {
        UserProfile {
            class,
            arrivals,
            seed,
        }
    }
}

/// Greedy latency-first admission: each request is `(class, mean offered
/// work per tick)` in path-extension units. Latency users are considered
/// first, each class in request order; a user is admitted iff its mean
/// demand still fits under `limit` (the headroom-scaled per-tick
/// capacity), and a user that does not fit is skipped without blocking
/// later, smaller requests. Returns one flag per request, in request
/// order.
pub(crate) fn admit(limit: f64, requests: &[(QosClass, f64)]) -> Vec<bool> {
    let mut booked = 0.0;
    let mut admitted = vec![false; requests.len()];
    for pass_class in [QosClass::Latency, QosClass::Bulk] {
        for (i, &(class, units)) in requests.iter().enumerate() {
            if class == pass_class && booked + units <= limit {
                booked += units;
                admitted[i] = true;
            }
        }
    }
    admitted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_users_are_admitted_before_bulk_regardless_of_order() {
        // Bulk asks first and would exhaust capacity, but the latency user
        // still gets in: the latency pass runs first.
        let requests = [
            (QosClass::Bulk, 60.0),
            (QosClass::Latency, 50.0),
            (QosClass::Bulk, 40.0),
        ];
        assert_eq!(admit(100.0, &requests), vec![false, true, true]);
    }

    #[test]
    fn skipping_a_big_request_does_not_block_smaller_ones() {
        let requests = [
            (QosClass::Bulk, 80.0),
            (QosClass::Bulk, 200.0),
            (QosClass::Bulk, 15.0),
        ];
        assert_eq!(admit(100.0, &requests), vec![true, false, true]);
    }

    #[test]
    fn class_contracts_favour_latency() {
        assert_eq!(QosClass::Latency.deadline_s(), 4e-3);
        assert_eq!(QosClass::Latency.queue_cap(), 4);
        assert!(QosClass::Bulk.deadline_s() > QosClass::Latency.deadline_s());
        assert!(QosClass::Bulk.queue_cap() > QosClass::Latency.queue_cap());
    }
}
