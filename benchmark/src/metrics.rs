//! The metric names, units and directions the benchmark prints. They are
//! the contract with `BENCHMARK.json` (a unit test checks the two agree)
//! and with later issues, which refer to metrics by these names.

use crate::stats::Better;
use Better::{Higher, Lower};

/// Name, unit, and which direction is good.
pub type MetricDef = (&'static str, &'static str, Better);

/// What a user of the system sees; same names on every workload. Every
/// timing is wall clock scaled by the host-speed reference of its block,
/// median across blocks (see `reference` and `run::timings`).
pub const END_TO_END: &[MetricDef] = &[
    ("frames_per_s", "1/s", Higher),
    ("frame_p50_ms", "ms", Lower),
    ("frame_p90_ms", "ms", Lower),
    ("error_ratio", "ratio", Lower),
    ("setup_s", "s", Lower),
];

/// Single-layer metrics of the traced pass. A metric a workload does not
/// exercise reads 0 there (e.g. `coding.*` outside `cell_coded`).
pub const PER_LAYER: &[MetricDef] = &[
    ("numeric.qr_us", "us", Lower),
    ("numeric.rotate_ns_per_vec", "ns", Lower),
    ("numeric.rotate_share", "ratio", Lower),
    ("numeric.rotate_bytes_per_vec", "B", Lower),
    ("modulation.lut_build_ms", "ms", Lower),
    ("modulation.locate_ns", "ns", Lower),
    ("detect.sic_ns_per_vec", "ns", Lower),
    ("core.prepare_us_per_sc", "us", Lower),
    ("core.detect_ns_per_vec", "ns", Lower),
    ("core.paths_per_vec", "count", Lower),
    ("core.extension_work_per_vec", "count", Lower),
    ("core.walk_share", "ratio", Lower),
    ("engine.prepare_ms_per_frame", "ms", Lower),
    ("engine.prepare_share", "ratio", Lower),
    ("engine.prepared_slots_per_frame", "count", Lower),
    ("engine.cache_hit_ratio", "ratio", Higher),
    ("engine.overhead_share", "ratio", Lower),
    ("engine.tasks_per_frame", "count", Lower),
    ("engine.frames_behind_max", "count", Lower),
    ("engine.pipe_transmit_busy", "ratio", Lower),
    ("engine.pipe_detect_busy", "ratio", Higher),
    ("engine.pipe_decode_busy", "ratio", Lower),
    ("engine.pipe_queue_wait_ms", "ms", Lower),
    ("parallel.dispatch_us_per_task", "us", Lower),
    ("parallel.bounded_roundtrip_us", "us", Lower),
    ("parallel.speedup_2pe", "ratio", Higher),
    ("coding.encode_us_per_packet", "us", Lower),
    ("coding.viterbi_us_per_packet", "us", Lower),
    ("coding.crc_us_per_packet", "us", Lower),
    ("phy.tick_ms", "ms", Lower),
    ("phy.offered_packets", "count", Higher),
    ("phy.delivered_packets", "count", Higher),
    ("phy.glue_share", "ratio", Lower),
    ("channel.advance_us_per_frame", "us", Lower),
    ("channel.transmit_us_per_frame", "us", Lower),
    ("trace.overhead_ratio", "ratio", Higher),
    ("trace.coverage", "ratio", Higher),
    ("host.speed_ratio", "ratio", Higher),
    ("host.raw_frames_per_s", "1/s", Higher),
    ("host.whole_run_frames_per_s", "1/s", Higher),
    ("host.whole_run_p99_ms", "ms", Lower),
    ("host.noisy_block_share", "ratio", Lower),
    ("setup.first_build_s", "s", Lower),
    ("mem.peak_rss_mb", "MB", Lower),
    ("digest", "fnv32", Higher),
];
