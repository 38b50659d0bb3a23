//! Fig. 11 — FlexCore's GPU speedup over the GPU-based FCSD
//! (12×12, 64-QAM, L ∈ {1, 2}), with CPU/OpenMP reference lines.
//!
//! Driven entirely by the calibrated `flexcore-hwmodel` GPU/CPU models
//! (see the README's "Faithfulness and substitutions"). Reproduced claims:
//!
//! 1. speedup grows as `|E|` shrinks, reaching ~19× at `|E| = 128` vs the
//!    L=2 FCSD (the §5.2 headline);
//! 2. larger subcarrier batches (`Nsc ≥ 1024`) maximise the speedup;
//! 3. the GPU FCSD is ≥ 21× faster than its 8-thread OpenMP port, which
//!    itself scales sublinearly (5.14× at 8 threads).

use crate::table::ResultTable;
use flexcore_hwmodel::{CpuModel, GpuModel};

/// Streams (the paper plots 12×12).
const NT: usize = 12;
/// Constellation size.
const Q: usize = 64;
/// FlexCore path counts (the x-axis, descending in the paper).
const E_GRID: [usize; 8] = [1024, 512, 256, 128, 64, 32, 16, 8];
/// Subcarrier batch sizes (the paper's three curves).
const NSC_GRID: [usize; 3] = [64, 1024, 16384];
/// FCSD expansion depths to use as baselines.
const L_GRID: [u32; 2] = [1, 2];
/// OpenMP thread counts for the CPU reference rows.
const OMP_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs the experiment. Rows: FlexCore speedups per (L, Nsc, |E|), then
/// CPU reference rows (speedup < 1 means slower than the GPU FCSD).
/// Analytic: the paper's grid, with no preset to choose.
pub fn run() -> ResultTable {
    let gpu = GpuModel::gtx970();
    let cpu = CpuModel::fx8120();
    let mut table = ResultTable::new(
        "Fig. 11: FlexCore speedup vs GPU-based FCSD (12x12, 64-QAM)",
        &["kind", "fcsd_l", "nsc", "e_paths", "speedup_vs_gpu_fcsd"],
    );
    for l in L_GRID {
        for nsc in NSC_GRID {
            for e in E_GRID {
                let s = gpu.speedup_vs_fcsd(e, nsc, Q, l, NT);
                table.push_row(vec![
                    "FlexCore".into(),
                    format!("{l}"),
                    format!("{nsc}"),
                    format!("{e}"),
                    format!("{s:.2}"),
                ]);
            }
        }
    }
    // CPU reference rows: FCSD on OpenMP vs FCSD on GPU (same L, large
    // batch — the regime the paper profiles).
    for l in L_GRID {
        let nsc = 1024usize;
        let paths = nsc * Q.pow(l);
        let t_gpu = gpu.fcsd_time_s(nsc, Q, l, NT);
        for threads in OMP_THREADS {
            let t_cpu = cpu.time_s(paths, NT, threads);
            table.push_row(vec![
                format!("FCSD-OpenMP-{threads}"),
                format!("{l}"),
                format!("{nsc}"),
                format!("{}", Q.pow(l)),
                format!("{:.4}", t_gpu / t_cpu),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_numbers() {
        let t = run();
        // Find the |E|=128, L=2, Nsc=16384 row.
        let row = t
            .rows()
            .iter()
            .position(|r| r[0] == "FlexCore" && r[1] == "2" && r[2] == "16384" && r[3] == "128")
            .expect("headline row present");
        let s: f64 = t.rows()[row][4].parse().unwrap();
        assert!((15.0..=25.0).contains(&s), "headline speedup {s}");
    }

    #[test]
    fn cpu_rows_are_below_one() {
        let t = run();
        for r in t.rows().iter().filter(|r| r[0].starts_with("FCSD-OpenMP")) {
            let s: f64 = r[4].parse().unwrap();
            assert!(s < 1.0, "CPU must be slower than the GPU FCSD: {r:?}");
        }
        // 8 threads beat 1 thread.
        let get = |name: &str| -> f64 {
            t.rows()
                .iter()
                .find(|r| r[0] == name && r[1] == "1")
                .unwrap()[4]
                .parse()
                .unwrap()
        };
        assert!(get("FCSD-OpenMP-8") > get("FCSD-OpenMP-1"));
    }

    #[test]
    fn speedup_monotone_in_e() {
        let t = run();
        let series: Vec<f64> = t
            .rows()
            .iter()
            .filter(|r| r[0] == "FlexCore" && r[1] == "2" && r[2] == "1024")
            .map(|r| r[4].parse().unwrap())
            .collect();
        for w in series.windows(2) {
            assert!(w[1] >= w[0], "speedup must grow as |E| drops: {series:?}");
        }
    }
}
