//! Generates a synthetic channel-trace campaign (the repo's substitute for
//! the paper's over-the-air WARP measurements; README, "Faithfulness and
//! substitutions").
//!
//! Usage: `cargo run -p flexcore-sim --bin gen_traces --release -- \
//!           [nr] [nt] [count] [out.trace] [seed]`
//!
//! Defaults: 12 12 100 flexcore_12x12.trace 2017. The emitted file replays
//! bit-exactly through `flexcore_channel::read_traces` (see the
//! `uplink_12x12` example for the full record/replay workflow).

use flexcore_channel::{write_traces, ChannelEnsemble, TraceSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufWriter;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let arg = |i: usize, d: &str| args.get(i).cloned().unwrap_or_else(|| d.to_string());
    let nr: usize = arg(1, "12").parse().expect("nr");
    let nt: usize = arg(2, "12").parse().expect("nt");
    let count: usize = arg(3, "100").parse().expect("count");
    let path = arg(4, "flexcore_12x12.trace");
    let seed: u64 = arg(5, "2017").parse().expect("seed");

    let mut rng = StdRng::seed_from_u64(seed);
    let ens = ChannelEnsemble::iid(nr, nt);
    let set = TraceSet::new(ens.draw_many(&mut rng, count));
    let file = std::fs::File::create(&path).expect("create trace file");
    write_traces(&mut BufWriter::new(file), &set).expect("write traces");
    println!("wrote {count} {nr}x{nt} channels to {path} (seed {seed})");
}
