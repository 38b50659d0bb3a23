//! LTE timing budgets — a miniature of the paper's Fig. 12 and §5.2.
//!
//! Run with: `cargo run --example lte_budget --release`
//!
//! For each LTE bandwidth mode, asks the calibrated GTX-970 model how many
//! FlexCore paths per subcarrier fit inside a 500 µs timeslot, and whether
//! the FCSD (locked to |Q|^L paths) fits at all — the flexibility story:
//! FlexCore degrades gracefully, the FCSD falls off a cliff.

use flexcore_hwmodel::{CpuModel, GpuModel, LTE_MODES};

fn main() {
    let gpu = GpuModel::gtx970();
    let cpu = CpuModel::fx8120();
    let q = 64;

    for nt in [8usize, 12] {
        println!("== {nt} users x {nt}-antenna AP, 64-QAM ==");
        println!(
            "{:>10} {:>18} {:>12} {:>12}",
            "LTE mode", "FlexCore paths", "FCSD L=1", "FCSD L=2"
        );
        for mode in LTE_MODES {
            let e = mode.max_flexcore_paths(&gpu, nt);
            let l1 = if mode.fcsd_supported(&gpu, nt, q, 1) {
                "fits"
            } else {
                "MISSES"
            };
            let l2 = if mode.fcsd_supported(&gpu, nt, q, 2) {
                "fits"
            } else {
                "MISSES"
            };
            println!(
                "{:>7} MHz {:>18} {:>12} {:>12}",
                mode.bandwidth_mhz, e, l1, l2
            );
        }
        println!();
    }

    // The §5.2 OpenMP context.
    println!("OpenMP scaling (paper: 5.14x on 8 threads):");
    for t in [1usize, 2, 4, 8] {
        println!("  {t} threads -> {:.2}x", cpu.parallel_speedup(t));
    }
    let nsc = 1024;
    let t_gpu = gpu.fcsd_time_s(nsc, q, 1, 12);
    let t_cpu = cpu.time_s(nsc * q, 12, 8);
    println!(
        "GPU FCSD vs 8-thread CPU FCSD (12x12, L=1, Nsc={nsc}): {:.1}x faster",
        t_cpu / t_gpu
    );
}
