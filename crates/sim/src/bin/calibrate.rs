//! Regenerates the cached SNR operating points used by the experiment
//! drivers: for each (Nt, |Q|, PER target) scenario of Fig. 9, bisect the
//! SNR until the exact-ML sphere decoder's coded packet error rate hits
//! the target (§5.1's methodology). Paste the output into
//! `flexcore-sim::calibrate::operating_point_snr_db`.

use flexcore_channel::ChannelEnsemble;
use flexcore_modulation::{Constellation, Modulation};
use flexcore_phy::link::LinkConfig;
use flexcore_sim::calibrate::calibrate_snr_for_ml_per;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let (packets, payload) = if quick { (12, 120) } else { (30, 300) };
    println!("// (nt, q, per) -> snr  [packets={packets}, payload={payload}B]");
    for &nt in &[8usize, 12] {
        for &m in &[Modulation::Qam16, Modulation::Qam64] {
            let c = Constellation::new(m);
            let link = LinkConfig::paper_default(c.clone(), payload);
            let ens = ChannelEnsemble::iid(nt, nt);
            for &per in &[0.1, 0.01] {
                let (lo, hi) = match m {
                    Modulation::Qam16 => (2.0, 24.0),
                    _ => (8.0, 32.0),
                };
                let snr = calibrate_snr_for_ml_per(&link, &ens, per, lo, hi, packets, 7);
                println!("({nt}, {}, {per}, {snr:.1}),", c.order());
            }
        }
    }
    if !quick {
        // Verify the ML proxy at the 12x12 64-QAM PER=0.01 point with the
        // exact sphere decoder.
        use flexcore_sim::calibrate::{ml_per_at, operating_point_snr_db};
        let c = Constellation::new(Modulation::Qam64);
        let link = LinkConfig::paper_default(c, 300);
        let ens = ChannelEnsemble::iid(12, 12);
        let snr = operating_point_snr_db(12, 64, 0.01);
        let per = ml_per_at(&link, &ens, snr, 12, 11);
        println!("// exact-ML PER at cached (12,64,0.01) point {snr} dB: {per:.4}");
    }
}
