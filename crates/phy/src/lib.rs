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
//!   one vector at a time and is the reference; every engine-backed path
//!   is an instantiation of **one** packet runner and **one** cell tick,
//!   generic over hard/soft output: whole frames on a PE pool through
//!   `flexcore-engine` over a block-fading channel
//!   ([`simulate_packet_framed`]) or a streaming time-varying one
//!   ([`simulate_packet_streamed`]), and [`cell_packet_tick`] for a whole
//!   multi-user cell — all with bit-identical outcomes where the channel
//!   realisations coincide;
//! * [`soft_link`] — the same runner and tick carrying LLRs end to end
//!   (list-based max-log demapping → soft Viterbi), generic over any
//!   [`flexcore::SoftDetector`]: the per-vector reference
//!   [`simulate_packet_soft`], [`simulate_packet_soft_streamed`] and
//!   [`cell_packet_tick_soft`];
//! * [`throughput`] — PER → network-throughput mapping (the y-axis of
//!   Figs. 9 and 10) plus the [`GoodputMeter`] CRC-delivery accounting of
//!   the streamed paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod link;
pub mod ofdm;
pub mod soft_link;
pub mod throughput;

pub use link::{
    cell_packet_tick, packet_error_rate, simulate_packet, simulate_packet_framed,
    simulate_packet_streamed, LinkConfig, LinkOutcome, StreamedOutcome,
};
pub use ofdm::OfdmConfig;
pub use soft_link::{cell_packet_tick_soft, simulate_packet_soft, simulate_packet_soft_streamed};
pub use throughput::{network_throughput_mbps, GoodputMeter};
