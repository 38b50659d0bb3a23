//! Calibration pins: exact expectations for every cost model's constants.
//!
//! The hardware tables and the engine's fabric audit are only meaningful
//! if the cost models stay put: a refactor that silently changed a
//! calibration constant would shift every hardware prediction in the repo
//! without failing a single behavioural test. This table pins the
//! `(config → cycles / seconds / paths)` surface of each model to exact
//! values, so any such change has to be made — and justified — here.

use flexcore_hwmodel::{
    CpuModel, EngineKind, FpgaModel, GpuModel, HeterogeneousFabric, PeCost, WorkUnit, LTE_MODES,
};

const TOL: f64 = 1e-9;

fn assert_close(got: f64, want: f64, label: &str) {
    assert!(
        (got - want).abs() <= TOL * want.abs().max(1.0),
        "{label}: got {got}, pinned {want}"
    );
}

#[test]
fn gpu_unit_cycles_pin_table() {
    // cycles_per_level = 220, path = 220·nt(nt+3)/2, ×1.60 FlexCore
    // thread overhead. One row per swept antenna config.
    let gpu = GpuModel::gtx970();
    let table: &[(usize, usize, f64)] = &[
        // (nt, q, pinned unit cycles)
        (4, 16, 220.0 * 14.0 * 1.60),  // 220·4·7/2 ·1.6  = 4 928
        (8, 16, 220.0 * 44.0 * 1.60),  // 220·8·11/2·1.6  = 15 488
        (12, 16, 220.0 * 90.0 * 1.60), // 220·12·15/2·1.6 = 31 680
        (12, 64, 220.0 * 90.0 * 1.60), // |Q| does not change thread cost
    ];
    for &(nt, q, want) in table {
        let w = WorkUnit::new(nt, q);
        assert_close(gpu.unit_cycles(&w), want, &format!("gpu {nt}x{nt} {q}-QAM"));
    }
    assert_close(gpu.clock_hz(), 1.05e9, "gpu clock");
}

#[test]
fn cpu_unit_cycles_pin_table() {
    // cycles_per_level = 48, no thread overhead factor.
    let cpu = CpuModel::fx8120();
    let table: &[(usize, f64)] = &[
        (4, 48.0 * 14.0),  //  672
        (8, 48.0 * 44.0),  // 2 112
        (12, 48.0 * 90.0), // 4 320
    ];
    for &(nt, want) in table {
        let w = WorkUnit::new(nt, 16);
        assert_close(cpu.unit_cycles(&w), want, &format!("cpu {nt}x{nt}"));
    }
    assert_close(cpu.clock_hz(), 3.1e9, "cpu clock");
    // OpenMP calibration: α solves 8/(1+7α) = 5.14.
    assert!((cpu.parallel_speedup(8) - 5.14).abs() < 0.02);
}

#[test]
fn fpga_unit_seconds_pin_table() {
    // Pipelined engines: one path per cycle at the Table 3 fmax,
    // independent of nt and |Q|.
    for (kind, fmax) in [(EngineKind::FlexCore, 312.5e6), (EngineKind::Fcsd, 370.4e6)] {
        for nt in [4usize, 8, 12] {
            let m = FpgaModel::new(kind, nt, 64);
            let w = WorkUnit::new(nt, 64);
            assert_close(m.unit_cycles(&w), 1.0, &format!("{kind:?} nt={nt} cycles"));
            assert_close(
                m.unit_seconds(&w),
                1.0 / fmax,
                &format!("{kind:?} nt={nt} seconds"),
            );
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
        .map(|m| m.max_flexcore_paths(&gpu, 8, 64))
        .collect();
    // The committed budget vector across the 1.25–20 MHz modes — the
    // model's analogue of the paper's "~105 down to ~4 paths" range.
    assert_eq!(budgets, vec![103, 52, 26, 13, 8, 6]);
}

#[test]
fn fabric_presets_pin_table() {
    // The fabric shapes the `hwtable` sweep commits to.
    let table: &[(HeterogeneousFabric, usize, f64)] = &[
        (HeterogeneousFabric::fpga_engines(8), 8, 8.0),
        (
            HeterogeneousFabric::gpu_sms(&GpuModel::gtx970()),
            13,
            13.0 * 128.0,
        ),
        (HeterogeneousFabric::lte_smallcell(), 8, 14.0),
    ];
    for (fabric, n_pes, total_speed) in table {
        assert_eq!(fabric.n_pes(), *n_pes, "{} n_pes", fabric.name);
        assert_close(
            fabric.total_speed(),
            *total_speed,
            &format!("{} total_speed", fabric.name),
        );
    }
}
