//! The unified per-path cost interface and heterogeneous PE fabrics.
//!
//! The [`fpga`](crate::fpga), [`gpu`](crate::gpu) and [`lte`](crate::lte)
//! modules each model one of the paper's testbeds with its own vocabulary
//! (pipeline fill, thread waves, slot budgets). This module is the bridge
//! the *scheduling stack* consumes: every substrate is reduced to
//!
//! 1. a [`PeCost`] — how many cycles (and therefore seconds) one
//!    reference-speed processing element spends on one **path-extension
//!    unit of work** (a full tree-path descent) at a given antenna /
//!    modulation configuration ([`WorkUnit`]), and
//! 2. a [`HeterogeneousFabric`] — a pool of PEs with per-PE *speed
//!    factors* (a PE of speed `s` finishes a unit in `unit_seconds / s`).
//!
//! `flexcore-parallel`'s `lpt_makespan_weighted` places a plan's prices
//! on the speed factors, `flexcore-engine`'s planner multiplies the detector's
//! effort-family cost signal (`Detector::effort()` /
//! `Detector::extension_work()`) by a `PeCost` into per-slot predicted
//! costs, and `flexcore-sim`'s `hwtable` driver converts planned makespans
//! back into the paper-style throughput-per-hardware table.
//!
//! ## Calibration constants
//!
//! Each [`PeCost`] implementation documents where its numbers come from:
//!
//! | model | unit cycles | clock | anchor |
//! |---|---|---|---|
//! | [`FpgaModel`] | `1` (pipelined: one path enters per cycle) | per-engine fmax, 312.5 / 370.4 MHz | Table 3 timing closure |
//! | [`GpuModel`]  | `cycles_per_level · nt(nt+3)/2` (× 1.60 FlexCore overhead) | 1.05 GHz | Fig. 11/12 calibration (§5.2) |
//! | [`CpuModel`]  | `cycles_per_level · nt(nt+3)/2` | 3.1 GHz | the "at least 21×" GPU/CPU gap (§5.2) |

use crate::fpga::FpgaModel;
use crate::gpu::{CpuModel, GpuModel};

/// One *path-extension unit of work*: a full tree-path descent (root to
/// leaf) for an `nt`-stream transmission over a `|Q| = q` constellation.
///
/// This is the work quantum both the detectors' `effort()` values and the
/// [`PeCost`] models are denominated in: a FlexCore detector with `|E|`
/// active paths spends `|E|` units per received vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// Transmit streams (tree height).
    pub nt: usize,
    /// Constellation size `|Q|`.
    pub q: usize,
}

impl WorkUnit {
    /// A unit of work at `nt` streams and constellation size `q`.
    ///
    /// # Panics
    /// Panics unless `nt ≥ 1` and `q` is a power of two ≥ 2.
    ///
    /// ```
    /// use flexcore_hwmodel::WorkUnit;
    /// assert_eq!(WorkUnit::new(12, 64).nt, 12);
    /// ```
    pub fn new(nt: usize, q: usize) -> Self {
        assert!(nt >= 1, "WorkUnit: zero streams");
        assert!(q >= 2 && q.is_power_of_two(), "WorkUnit: bad |Q| {q}");
        WorkUnit { nt, q }
    }

    /// Information bits one detected vector carries: `nt · log2(q)`.
    pub(crate) fn bits_per_vector(&self) -> usize {
        self.nt * self.q.ilog2() as usize
    }
}

/// Cycles / latency one reference-speed PE spends per path-extension unit
/// of work — the common denominator over the FPGA, GPU and CPU models.
///
/// Implementations are *throughput* costs: the steady-state occupancy one
/// unit adds to a PE, not the fill latency of a cold pipeline. A PE with
/// speed factor `s` in a [`HeterogeneousFabric`] finishes a unit in
/// [`PeCost::unit_seconds`]` / s`.
///
/// ```
/// use flexcore_hwmodel::{FpgaModel, EngineKind, PeCost, WorkUnit};
/// let fpga = FpgaModel::new(EngineKind::FlexCore, 8, 64);
/// let w = WorkUnit::new(8, 64);
/// // A pipelined engine accepts one path per cycle at fmax.
/// assert_eq!(fpga.unit_cycles(&w), 1.0);
/// assert!((fpga.unit_seconds(&w) - 1.0 / 312.5e6).abs() < 1e-18);
/// ```
pub trait PeCost {
    /// Cycles one reference-speed PE spends per unit of work at `work`.
    fn unit_cycles(&self, work: &WorkUnit) -> f64;

    /// Reference clock of the substrate, Hz.
    fn clock_hz(&self) -> f64;

    /// Seconds per unit of work on a reference-speed PE:
    /// `unit_cycles / clock_hz`.
    fn unit_seconds(&self, work: &WorkUnit) -> f64 {
        self.unit_cycles(work) / self.clock_hz()
    }

    /// Short substrate name for table rows (e.g. `"fpga"`).
    fn label(&self) -> &'static str;
}

/// The FPGA engines are fully pipelined (§4): once the pipeline is full,
/// **one path enters per cycle** whatever `nt` and `|Q|` are — extra tree
/// levels deepen the pipeline (latency) without reducing throughput. The
/// unit cost is therefore exactly one cycle at the engine's Table 3
/// timing-closure clock (FlexCore 312.5 MHz, FCSD 370.4 MHz).
impl PeCost for FpgaModel {
    fn unit_cycles(&self, _work: &WorkUnit) -> f64 {
        1.0
    }

    fn clock_hz(&self) -> f64 {
        self.fmax_hz()
    }

    fn label(&self) -> &'static str {
        "fpga"
    }
}

/// On the GPU one tree path is one thread (§4), so the unit cost is the
/// whole-descent thread cost `GpuModel::path_cycles` — `cycles_per_level
/// · nt(nt+3)/2`, with `cycles_per_level = 220` calibrated against the
/// paper's Fig. 12 path budgets — times the ×1.60 FlexCore per-thread
/// overhead (`GpuModel::FLEXCORE_THREAD_OVERHEAD`). The reference PE is
/// one resident thread; a whole SM is represented in a fabric as a PE with
/// speed factor `cores_per_sm`.
impl PeCost for GpuModel {
    fn unit_cycles(&self, work: &WorkUnit) -> f64 {
        self.path_cycles(work.nt) * Self::FLEXCORE_THREAD_OVERHEAD
    }

    fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    fn label(&self) -> &'static str {
        "gpu"
    }
}

/// On the CPU a path descent is the same `nt(nt+3)/2` level-extension
/// sweep at the CPU's `cycles_per_level = 48` (calibrated so the GPU beats
/// the 8-thread FX-8120 by the paper's "at least 21×", §5.2). The
/// reference PE is one core at 3.1 GHz.
impl PeCost for CpuModel {
    fn unit_cycles(&self, work: &WorkUnit) -> f64 {
        self.cycles_per_level * (work.nt as f64) * (work.nt as f64 + 3.0) / 2.0
    }

    fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    fn label(&self) -> &'static str {
        "cpu"
    }
}

/// A named group of identical PEs inside a [`HeterogeneousFabric`].
///
/// ```
/// use flexcore_hwmodel::PeClass;
/// let dsp = PeClass::new("dsp", 2, 4.0);
/// assert_eq!(dsp.count, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PeClass {
    /// Class label (e.g. `"dsp"`, `"sm"`, `"arm"`).
    pub name: &'static str,
    /// How many PEs of this class the fabric holds.
    pub count: usize,
    /// Speed factor relative to the substrate's reference PE: a PE of
    /// speed `s` finishes a unit of work in `unit_seconds / s`.
    pub speed: f64,
}

impl PeClass {
    /// A class of `count` PEs at speed factor `speed`.
    ///
    /// # Panics
    /// Panics if `count == 0` or `speed` is not strictly positive.
    ///
    /// ```
    /// use flexcore_hwmodel::PeClass;
    /// assert_eq!(PeClass::new("sm", 13, 128.0).speed, 128.0);
    /// ```
    pub fn new(name: &'static str, count: usize, speed: f64) -> Self {
        assert!(count >= 1, "PeClass: empty class");
        assert!(
            speed.is_finite() && speed > 0.0,
            "PeClass: bad speed {speed}"
        );
        PeClass { name, count, speed }
    }
}

/// A pool of non-uniform processing elements: the hardware side of the
/// scheduling stack.
///
/// The paper's claim is that FlexCore's flexible path allocation maps onto
/// *any* processing fabric — FPGA DSP slices, GPU SMs, many-core CPUs —
/// including fabrics whose PEs are **not identical**. A fabric is a list
/// of [`PeClass`]es; [`HeterogeneousFabric::speed_factors`] expands it to
/// the per-PE speed vector the uniform-machines LPT model
/// (`flexcore_parallel::lpt_makespan_weighted`) consumes.
///
/// ```
/// use flexcore_hwmodel::HeterogeneousFabric;
/// let fabric = HeterogeneousFabric::lte_smallcell();
/// assert_eq!(fabric.n_pes(), 8); // 2 fast DSP + 6 slow ARM PEs
/// let speeds = fabric.speed_factors();
/// assert!(speeds[0] > speeds[7]);
/// assert_eq!(fabric.total_speed(), speeds.iter().sum::<f64>());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct HeterogeneousFabric {
    /// Fabric label for table rows (e.g. `"fpga-8"`).
    pub name: &'static str,
    classes: Vec<PeClass>,
}

impl HeterogeneousFabric {
    /// A fabric from explicit PE classes.
    ///
    /// # Panics
    /// Panics on an empty class list.
    ///
    /// ```
    /// use flexcore_hwmodel::{HeterogeneousFabric, PeClass};
    /// let f = HeterogeneousFabric::new("mix", vec![PeClass::new("fast", 1, 2.0),
    ///                                              PeClass::new("slow", 3, 1.0)]);
    /// assert_eq!(f.speed_factors(), vec![2.0, 1.0, 1.0, 1.0]);
    /// ```
    pub fn new(name: &'static str, classes: Vec<PeClass>) -> Self {
        assert!(!classes.is_empty(), "HeterogeneousFabric: no PE classes");
        HeterogeneousFabric { name, classes }
    }

    /// The XCVU440 FPGA fabric: `m` identical pipelined detection engines.
    /// Engines stamped from the same RTL close timing together, so the
    /// fabric is uniform — heterogeneity on the FPGA shows up as *how
    /// many* engines fit ([`FpgaModel::max_pes`]), not as speed spread.
    ///
    /// ```
    /// use flexcore_hwmodel::HeterogeneousFabric;
    /// assert_eq!(HeterogeneousFabric::fpga_engines(8).n_pes(), 8);
    /// ```
    pub fn fpga_engines(m: usize) -> Self {
        Self::new("fpga", vec![PeClass::new("engine", m, 1.0)])
    }

    /// The GTX 970 fabric: 13 SMs, each a PE of speed 128 (the SM's
    /// resident CUDA cores) relative to the [`GpuModel`]'s
    /// one-thread-per-path reference cost.
    ///
    /// ```
    /// use flexcore_hwmodel::{GpuModel, HeterogeneousFabric};
    /// let f = HeterogeneousFabric::gpu_sms(&GpuModel::gtx970());
    /// assert_eq!(f.n_pes(), 13);
    /// assert_eq!(f.total_speed(), 13.0 * 128.0);
    /// ```
    pub fn gpu_sms(gpu: &GpuModel) -> Self {
        Self::new(
            "gpu",
            vec![PeClass::new("sm", gpu.sm_count, gpu.cores_per_sm as f64)],
        )
    }

    /// A small-cell LTE baseband SoC: 2 fast DSP cores (speed 4) beside 6
    /// slow ARM cores (speed 1) — the paper's LTE deployment scenario
    /// (§5.2) run on the kind of asymmetric fabric an eNodeB actually
    /// ships, and the canonical "2 fast + 6 slow" pool the heterogeneous
    /// scheduler is exercised against.
    ///
    /// ```
    /// use flexcore_hwmodel::HeterogeneousFabric;
    /// let f = HeterogeneousFabric::lte_smallcell();
    /// assert_eq!((f.n_pes(), f.total_speed()), (8, 2.0 * 4.0 + 6.0));
    /// ```
    pub fn lte_smallcell() -> Self {
        Self::new(
            "lte",
            vec![PeClass::new("dsp", 2, 4.0), PeClass::new("arm", 6, 1.0)],
        )
    }

    /// Total number of PEs across all classes.
    ///
    /// ```
    /// use flexcore_hwmodel::HeterogeneousFabric;
    /// assert_eq!(HeterogeneousFabric::fpga_engines(5).n_pes(), 5);
    /// ```
    pub fn n_pes(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Per-PE speed factors, classes expanded in declaration order — the
    /// vector `flexcore_parallel::lpt_makespan_weighted` takes.
    pub fn speed_factors(&self) -> Vec<f64> {
        let mut speeds = Vec::with_capacity(self.n_pes());
        for class in &self.classes {
            speeds.extend(std::iter::repeat_n(class.speed, class.count));
        }
        speeds
    }

    /// Σ of all speed factors — the fabric's aggregate unit-throughput:
    /// it completes `total_speed / unit_seconds` units per second when
    /// perfectly packed.
    pub fn total_speed(&self) -> f64 {
        self.classes.iter().map(|c| c.count as f64 * c.speed).sum()
    }

    /// Ideal (perfect-packing) detection throughput in bits/second on
    /// `cost`'s substrate when every received vector needs
    /// `units_per_vector` path-extension units: the fabric completes
    /// `total_speed / unit_seconds` units/s, each vector costs
    /// `units_per_vector` of them and yields
    /// `nt · log2|Q|` bits.
    ///
    /// `flexcore-sim`'s `hwtable` driver multiplies this by the
    /// scheduler's packing efficiency to get table throughput.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel, HeterogeneousFabric, WorkUnit};
    /// let fpga = FpgaModel::new(EngineKind::FlexCore, 12, 64);
    /// let fabric = HeterogeneousFabric::fpga_engines(32);
    /// let w = WorkUnit::new(12, 64);
    /// // 32 pipelined engines, 32 paths/vector, 72 bits/vector at 312.5 MHz:
    /// // exactly the paper's §5.3 throughput formula.
    /// let bps = fabric.ideal_throughput_bps(&fpga, &w, 32.0);
    /// assert!((bps - fpga.throughput_bps(32, 32)).abs() / bps < 1e-12);
    /// ```
    ///
    /// # Panics
    /// Panics unless `units_per_vector` is strictly positive.
    pub fn ideal_throughput_bps(
        &self,
        cost: &impl PeCost,
        work: &WorkUnit,
        units_per_vector: f64,
    ) -> f64 {
        assert!(
            units_per_vector > 0.0,
            "ideal_throughput_bps: non-positive units/vector"
        );
        let units_per_sec = self.total_speed() / cost.unit_seconds(work);
        units_per_sec / units_per_vector * work.bits_per_vector() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fpga::EngineKind;

    #[test]
    fn bits_per_vector_is_nt_log2_q() {
        assert_eq!(WorkUnit::new(8, 16).bits_per_vector(), 8 * 4);
        assert_eq!(WorkUnit::new(12, 64).bits_per_vector(), 72);
    }

    #[test]
    fn fpga_unit_cost_is_one_cycle_at_fmax() {
        let w = WorkUnit::new(8, 64);
        let fc = FpgaModel::new(EngineKind::FlexCore, 8, 64);
        let fcsd = FpgaModel::new(EngineKind::Fcsd, 8, 64);
        assert_eq!(fc.unit_cycles(&w), 1.0);
        assert_eq!(fcsd.unit_cycles(&w), 1.0);
        // The engines differ only through timing closure.
        assert!(fc.unit_seconds(&w) > fcsd.unit_seconds(&w));
        assert_eq!(fc.label(), "fpga");
    }

    #[test]
    fn gpu_unit_cost_matches_thread_model() {
        let gpu = GpuModel::gtx970();
        let w = WorkUnit::new(12, 64);
        let want = 220.0 * 12.0 * 15.0 / 2.0 * GpuModel::FLEXCORE_THREAD_OVERHEAD;
        assert_eq!(gpu.unit_cycles(&w), want);
        assert!((gpu.unit_seconds(&w) - want / 1.05e9).abs() < 1e-15);
    }

    #[test]
    fn cpu_unit_cost_matches_level_sweep() {
        let cpu = CpuModel::fx8120();
        let w = WorkUnit::new(8, 16);
        assert_eq!(cpu.unit_cycles(&w), 48.0 * 8.0 * 11.0 / 2.0);
        assert_eq!(cpu.label(), "cpu");
    }

    #[test]
    fn unit_costs_grow_with_tree_height_except_fpga() {
        let gpu = GpuModel::gtx970();
        let cpu = CpuModel::fx8120();
        let fpga = FpgaModel::new(EngineKind::FlexCore, 8, 64);
        let (w4, w12) = (WorkUnit::new(4, 16), WorkUnit::new(12, 16));
        assert!(gpu.unit_cycles(&w12) > gpu.unit_cycles(&w4));
        assert!(cpu.unit_cycles(&w12) > cpu.unit_cycles(&w4));
        assert_eq!(fpga.unit_cycles(&w4), fpga.unit_cycles(&w12));
    }

    #[test]
    fn fabric_expansion_orders_classes() {
        let f = HeterogeneousFabric::new(
            "mix",
            vec![PeClass::new("fast", 2, 4.0), PeClass::new("slow", 3, 1.0)],
        );
        assert_eq!(f.speed_factors(), vec![4.0, 4.0, 1.0, 1.0, 1.0]);
        assert_eq!(f.n_pes(), 5);
        assert_eq!(f.total_speed(), 11.0);
    }

    #[test]
    fn preset_fabrics_have_documented_shapes() {
        assert_eq!(
            HeterogeneousFabric::fpga_engines(8).speed_factors(),
            vec![1.0; 8]
        );
        let gpu = HeterogeneousFabric::gpu_sms(&GpuModel::gtx970());
        assert_eq!(gpu.speed_factors(), vec![128.0; 13]);
        let lte = HeterogeneousFabric::lte_smallcell();
        assert_eq!(
            lte.speed_factors(),
            vec![4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        );
    }

    #[test]
    fn ideal_throughput_reduces_to_paper_formula_on_fpga() {
        // fabric(total_speed=m)/unit_seconds(=1/fmax)/paths·bits ==
        // fmax·m/paths·bits, the §5.3 FCSD L=1 formula.
        let m = FpgaModel::new(EngineKind::Fcsd, 12, 64);
        let fabric = HeterogeneousFabric::fpga_engines(8);
        let w = WorkUnit::new(12, 64);
        let got = fabric.ideal_throughput_bps(&m, &w, 64.0);
        let want = 6.0 * 12.0 * 370.4e6 * 8.0 / 64.0;
        assert!((got - want).abs() < 1.0, "{got} vs {want}");
    }

    #[test]
    fn heterogeneous_fabric_outruns_its_slowest_uniform_equivalent() {
        let cpu = CpuModel::fx8120();
        let w = WorkUnit::new(8, 16);
        let hetero = HeterogeneousFabric::lte_smallcell(); // total speed 14
        let slow = HeterogeneousFabric::new("slow", vec![PeClass::new("pe", 8, 1.0)]); // total speed 8
        assert!(
            hetero.ideal_throughput_bps(&cpu, &w, 16.0) > slow.ideal_throughput_bps(&cpu, &w, 16.0)
        );
    }

    #[test]
    #[should_panic(expected = "no PE classes")]
    fn empty_fabric_is_rejected() {
        let _ = HeterogeneousFabric::new("empty", Vec::new());
    }

    #[test]
    #[should_panic(expected = "bad speed")]
    fn non_positive_speed_is_rejected() {
        let _ = PeClass::new("zero", 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "bad |Q|")]
    fn non_power_of_two_constellation_is_rejected() {
        let _ = WorkUnit::new(4, 12);
    }
}
