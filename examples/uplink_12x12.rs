//! Trace-driven 12×12 64-QAM uplink — a miniature of the paper's Fig. 9.
//!
//! Run with: `cargo run --example uplink_12x12 --release`
//!
//! Mirrors §5.1's trace-driven methodology: a synthetic channel-trace
//! campaign is recorded to disk once, then replayed identically through
//! MMSE, FCSD and FlexCore at several PE budgets, reporting coded packet
//! error rate and network throughput for each.

use flexcore::FlexCoreDetector;
use flexcore_channel::{
    read_traces, sigma2_from_snr_db, write_traces, ChannelEnsemble, MimoChannel, TraceSet,
};
use flexcore_detect::common::Detector;
use flexcore_detect::{FcsdDetector, MmseDetector};
use flexcore_modulation::{Constellation, Modulation};
use flexcore_phy::link::{simulate_packet, LinkConfig};
use flexcore_phy::throughput::network_throughput_mbps;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let modulation = Modulation::Qam64;
    let constellation = Constellation::new(modulation);
    let (nt, snr_db, n_packets) = (12usize, 14.1, 6usize);

    // Record a trace campaign (the paper measured 1×12 channels over the
    // air and combined them; we synthesise — README, "Faithfulness and
    // substitutions").
    let mut rng = StdRng::seed_from_u64(99);
    let ens = ChannelEnsemble::iid(nt, nt);
    let set = TraceSet::new(ens.draw_many(&mut rng, n_packets));
    let path = std::env::temp_dir().join("flexcore_12x12.trace");
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create trace"));
    write_traces(&mut file, &set).expect("write trace");
    drop(file);
    println!("recorded {} channels to {}", set.len(), path.display());

    // Replay through every detector.
    let mut file = std::io::BufReader::new(std::fs::File::open(&path).expect("open trace"));
    let replay = read_traces(&mut file).expect("read trace");
    assert_eq!(replay, set, "trace replay must be bit-exact");

    let link = LinkConfig::paper_default(constellation.clone(), 40);
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(MmseDetector::new(constellation.clone())),
        Box::new(FcsdDetector::new(constellation.clone(), 1)), // 64 paths
        Box::new(FlexCoreDetector::with_pes(constellation.clone(), 8)),
        Box::new(FlexCoreDetector::with_pes(constellation.clone(), 32)),
        Box::new(FlexCoreDetector::with_pes(constellation.clone(), 64)),
    ];
    println!(
        "\n{:<22} {:>8} {:>18}",
        "detector", "PER", "throughput (Mbit/s)"
    );
    for det in detectors.iter_mut() {
        let mut rng = StdRng::seed_from_u64(7); // identical noise per scheme
        let mut fails = 0usize;
        let mut users = 0usize;
        for h in replay.channels() {
            let ch = MimoChannel::new(h.clone(), snr_db);
            det.prepare(h, sigma2_from_snr_db(snr_db));
            let out = simulate_packet(&link, &ch, det.as_ref(), &mut rng);
            fails += out.user_ok.iter().filter(|&&ok| !ok).count();
            users += out.user_ok.len();
        }
        let per = fails as f64 / users as f64;
        let tput = network_throughput_mbps(&link.ofdm, modulation, link.rate, nt, per);
        println!("{:<22} {:>8.3} {:>18.1}", det.name(), per, tput);
    }
    println!(
        "\n(ML ceiling at PER 0: {:.0} Mbit/s)",
        network_throughput_mbps(&link.ofdm, modulation, link.rate, nt, 0.0)
    );
}
