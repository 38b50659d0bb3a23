//! # flexcore-phy
//!
//! The OFDM-MIMO uplink the paper evaluates on (§5.1): an 802.11-like
//! system with 64 subcarriers (48 data), 4 µs OFDM symbols over 20 MHz,
//! rate-1/2 convolutional coding, and one independently-coded packet per
//! user.
//!
//! * [`ofdm`] — the OFDM numerology (payload subcarriers, symbol
//!   duration); detection runs per subcarrier in the frequency domain;
//! * [`link`] — the end-to-end coded uplink: per-user encode → interleave →
//!   modulate → MIMO channel → detect (any [`flexcore_detect::Detector`]) →
//!   deinterleave → Viterbi → packet check. [`simulate_packet`] detects
//!   one vector at a time and is the reference Figs. 9 and 10 are built
//!   on; [`cell_packet_tick`] is the one engine-backed path, a whole
//!   multi-user cell served in one shared pool run through
//!   `flexcore-engine`, and on frozen channels it reproduces the reference
//!   bit for bit;
//! * [`soft_link`] — the same reference and tick carrying LLRs end to end
//!   (list-based max-log demapping → soft Viterbi), generic over any
//!   [`flexcore::SoftDetector`]: [`simulate_packet_soft`] and
//!   [`cell_packet_tick_soft`];
//! * [`throughput`] — PER → network-throughput mapping (the y-axis of
//!   Figs. 9 and 10).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod ofdm;
pub mod soft_link;
pub mod throughput;

pub use link::{
    cell_packet_tick, packet_error_rate, simulate_packet, LinkConfig, LinkOutcome, StreamedOutcome,
};
pub use ofdm::OfdmConfig;
pub use soft_link::{cell_packet_tick_soft, simulate_packet_soft};
pub use throughput::network_throughput_mbps;
