//! Calibration pins: exact expectations for every cost model's constants.
//!
//! The hardware figures and the city's modelled time are only meaningful
//! if the cost models stay put: a refactor that silently changed a
//! calibration constant would shift every hardware prediction in the repo
//! without failing a single behavioural test. This table pins the
//! `(config → cycles / seconds / paths)` surface of each model to exact
//! values, so any such change has to be made — and justified — here.

use flexcore_hwmodel::{
    CpuModel, EngineKind, FpgaModel, GpuModel, LTE_MODES, LTE_SMALLCELL_SPEEDS,
};

const TOL: f64 = 1e-9;

fn assert_close(got: f64, want: f64, label: &str) {
    assert!(
        (got - want).abs() <= TOL * want.abs().max(1.0),
        "{label}: got {got}, pinned {want}"
    );
}

#[test]
fn gpu_thread_cycles_pin_table() {
    // cycles_per_level = 220, path = 220·nt(nt+3)/2, ×1.60 FlexCore
    // thread overhead, read through the times Fig. 11 and Fig. 12 divide:
    // one thread per path, `q` of them (one wave), so a batch is one
    // thread's cycles plus the launch overhead.
    let gpu = GpuModel::gtx970();
    let cycles = |t: f64| (t - gpu.launch_overhead_s) * gpu.clock_hz;
    let table: &[(usize, usize, f64)] = &[
        // (nt, q, pinned FCSD thread cycles)
        (4, 16, 220.0 * 14.0),  // 220·4·7/2   = 3 080
        (8, 16, 220.0 * 44.0),  // 220·8·11/2  = 9 680
        (12, 16, 220.0 * 90.0), // 220·12·15/2 = 19 800
        (12, 64, 220.0 * 90.0), // |Q| does not change thread cost
    ];
    for &(nt, q, want) in table {
        let label = format!("gpu {nt}x{nt} {q}-QAM");
        let fcsd = gpu.fcsd_time_s(1, q, 1, nt);
        assert_close(cycles(fcsd), want, &format!("{label} FCSD thread"));
        // FlexCore with |E| = q paths runs as many threads, each 1.60×.
        let flexcore = fcsd / gpu.speedup_vs_fcsd(q, 1, q, 1, nt);
        assert_close(
            cycles(flexcore),
            want * 1.60,
            &format!("{label} FlexCore thread"),
        );
    }
    assert_close(gpu.clock_hz, 1.05e9, "gpu clock");
}

#[test]
fn cpu_unit_seconds_pin_table() {
    // cycles_per_level = 48 at 3.1 GHz, no thread overhead factor.
    let cpu = CpuModel::fx8120();
    let table: &[(usize, f64)] = &[
        (4, 48.0 * 14.0),  //  672
        (8, 48.0 * 44.0),  // 2 112
        (12, 48.0 * 90.0), // 4 320
    ];
    for &(nt, want) in table {
        assert_close(
            cpu.unit_seconds(nt) * 3.1e9,
            want,
            &format!("cpu {nt}x{nt}"),
        );
    }
    assert_close(cpu.clock_hz, 3.1e9, "cpu clock");
    // OpenMP calibration: α solves 8/(1+7α) = 5.14.
    assert!((cpu.parallel_speedup(8) - 5.14).abs() < 0.02);
}

#[test]
fn fpga_fmax_pin_table() {
    // Pipelined engines: one path per cycle at the Table 3 fmax,
    // independent of nt and |Q|.
    for (kind, fmax) in [(EngineKind::FlexCore, 312.5e6), (EngineKind::Fcsd, 370.4e6)] {
        for nt in [4usize, 8, 12] {
            let m = FpgaModel::new(kind, nt, 64);
            assert_close(m.fmax_hz(), fmax, &format!("{kind:?} nt={nt} fmax"));
        }
    }
}

#[test]
fn fpga_table3_anchor_pin_table() {
    // The published Table 3 numbers, one row per (engine, nt):
    // (lut_logic, lut_mem, ff_pairs, clb_slices, dsp48, power_w).
    let table: &[(EngineKind, usize, [f64; 6])] = &[
        (
            EngineKind::FlexCore,
            8,
            [3206.0, 15276.0, 1187.0, 5363.0, 16.0, 6.82],
        ),
        (
            EngineKind::FlexCore,
            12,
            [5795.0, 28810.0, 2497.0, 11415.0, 24.0, 9.157],
        ),
        (
            EngineKind::Fcsd,
            8,
            [2187.0, 11320.0, 713.0, 4717.0, 16.0, 6.54],
        ),
        (
            EngineKind::Fcsd,
            12,
            [4364.0, 23252.0, 1537.0, 10501.0, 24.0, 9.04],
        ),
    ];
    for &(kind, nt, [ll, lm, ff, cs, dsp, pw]) in table {
        let m = FpgaModel::new(kind, nt, 64);
        let r = m.single_pe();
        let label = format!("{kind:?} nt={nt}");
        assert_close(r.lut_logic, ll, &format!("{label} lut_logic"));
        assert_close(r.lut_mem, lm, &format!("{label} lut_mem"));
        assert_close(r.ff_pairs, ff, &format!("{label} ff_pairs"));
        assert_close(r.clb_slices, cs, &format!("{label} clb_slices"));
        assert_close(r.dsp48, dsp, &format!("{label} dsp48"));
        assert_close(m.power_w(1), pw, &format!("{label} power_w(1)"));
    }
}

#[test]
fn lte_path_budget_pin_table() {
    // The Fig. 12 budget solver's output on the pinned GPU calibration:
    // largest FlexCore |E| per LTE mode at Nt = 8, 64-QAM. These are the
    // model's committed predictions — not the paper's exact measurements —
    // so a calibration drift moves them and fails here.
    let gpu = GpuModel::gtx970();
    let budgets: Vec<usize> = LTE_MODES
        .iter()
        .map(|m| m.max_flexcore_paths(&gpu, 8))
        .collect();
    // The committed budget vector across the 1.25–20 MHz modes — the
    // model's analogue of the paper's "~105 down to ~4 paths" range.
    assert_eq!(budgets, vec![103, 52, 26, 13, 8, 6]);
}

#[test]
fn lte_smallcell_speeds_pin_table() {
    // The fabric the city prices its rounds on: 2 DSP + 6 ARM PEs, whose
    // speeds sum to exactly 14.
    assert_eq!(
        LTE_SMALLCELL_SPEEDS,
        [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    );
    assert_eq!(LTE_SMALLCELL_SPEEDS.iter().sum::<f64>(), 14.0);
}
