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

/// Configuration for the Fig. 11 run.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Streams (the paper plots 12×12).
    pub nt: usize,
    /// Constellation size.
    pub q: usize,
    /// FlexCore path counts (the x-axis, descending in the paper).
    pub e_grid: Vec<usize>,
    /// Subcarrier batch sizes (the paper's three curves).
    pub nsc_grid: Vec<usize>,
    /// FCSD expansion depths to use as baselines.
    pub l_grid: Vec<u32>,
    /// OpenMP thread counts for the CPU reference rows.
    pub omp_threads: Vec<usize>,
}

impl Cfg {
    /// The paper's grid (analytic, so quick == full).
    pub fn quick() -> Self {
        Cfg {
            nt: 12,
            q: 64,
            e_grid: vec![1024, 512, 256, 128, 64, 32, 16, 8],
            nsc_grid: vec![64, 1024, 16384],
            l_grid: vec![1, 2],
            omp_threads: vec![1, 2, 4, 8],
        }
    }

    /// Same grid.
    pub fn full() -> Self {
        Cfg::quick()
    }
}

/// Runs the experiment. Rows: FlexCore speedups per (L, Nsc, |E|), then
/// CPU reference rows (speedup < 1 means slower than the GPU FCSD).
pub fn run(cfg: &Cfg) -> ResultTable {
    let gpu = GpuModel::gtx970();
    let cpu = CpuModel::fx8120();
    let mut table = ResultTable::new(
        "Fig. 11: FlexCore speedup vs GPU-based FCSD (12x12, 64-QAM)",
        &["kind", "fcsd_l", "nsc", "e_paths", "speedup_vs_gpu_fcsd"],
    );
    for &l in &cfg.l_grid {
        for &nsc in &cfg.nsc_grid {
            for &e in &cfg.e_grid {
                let s = gpu.speedup_vs_fcsd(e, nsc, cfg.q, l, cfg.nt);
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
    for &l in &cfg.l_grid {
        let nsc = 1024usize;
        let paths = nsc * cfg.q.pow(l);
        let t_gpu = gpu.fcsd_time_s(nsc, cfg.q, l, cfg.nt);
        for &threads in &cfg.omp_threads {
            let t_cpu = cpu.time_s(paths, cfg.nt, threads);
            table.push_row(vec![
                format!("FCSD-OpenMP-{threads}"),
                format!("{l}"),
                format!("{nsc}"),
                format!("{}", cfg.q.pow(l)),
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
        let t = run(&Cfg::quick());
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
        let t = run(&Cfg::quick());
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
        let t = run(&Cfg::quick());
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
