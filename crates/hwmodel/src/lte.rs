//! LTE frame timing and the path-budget solver (Fig. 12).
//!
//! §5.2: an LTE 10 ms frame holds 20 timeslots of 500 µs; across the frame
//! the detector must process `140 ×` the number of occupied subcarriers.
//! For each LTE bandwidth mode this module answers the question Fig. 12 is
//! built on: *how many tree paths per subcarrier can a given compute
//! substrate afford inside the slot budget?* FlexCore can run at **any**
//! such budget; the FCSD only at powers of `|Q|` — which is why the paper
//! finds it unsupported beyond the 1.25 MHz mode.

use crate::gpu::GpuModel;

/// One LTE bandwidth mode.
///
/// ```
/// use flexcore_hwmodel::LTE_MODES;
/// let narrow = LTE_MODES[0];
/// assert_eq!(narrow.bandwidth_mhz, 1.25);
/// assert_eq!(narrow.occupied_subcarriers, 76);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LteMode {
    /// Marketing bandwidth label in MHz (the paper's x-axis).
    pub bandwidth_mhz: f64,
    /// Occupied payload subcarriers.
    pub occupied_subcarriers: usize,
}

/// The six LTE modes of Fig. 12.
///
/// ```
/// use flexcore_hwmodel::LTE_MODES;
/// assert_eq!(LTE_MODES.len(), 6);
/// assert_eq!(LTE_MODES[5].occupied_subcarriers, 1200);
/// ```
pub const LTE_MODES: [LteMode; 6] = [
    LteMode {
        bandwidth_mhz: 1.25,
        occupied_subcarriers: 76,
    },
    LteMode {
        bandwidth_mhz: 2.5,
        occupied_subcarriers: 150,
    },
    LteMode {
        bandwidth_mhz: 5.0,
        occupied_subcarriers: 300,
    },
    LteMode {
        bandwidth_mhz: 10.0,
        occupied_subcarriers: 600,
    },
    LteMode {
        bandwidth_mhz: 15.0,
        occupied_subcarriers: 900,
    },
    LteMode {
        bandwidth_mhz: 20.0,
        occupied_subcarriers: 1200,
    },
];

/// Per-PE speed factors of a small-cell LTE baseband SoC: 2 fast DSP
/// cores (speed 4) beside 6 slow ARM cores (speed 1), the asymmetric
/// fabric an eNodeB ships. A PE of speed `s` finishes a unit of work in
/// `unit_seconds / s`; the city prices its rounds on this vector with
/// `flexcore_parallel::lpt_makespan_weighted`.
///
/// ```
/// use flexcore_hwmodel::LTE_SMALLCELL_SPEEDS;
/// assert_eq!(LTE_SMALLCELL_SPEEDS.iter().sum::<f64>(), 2.0 * 4.0 + 6.0);
/// ```
pub const LTE_SMALLCELL_SPEEDS: [f64; 8] = [4.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

/// Timeslot duration (s).
pub(crate) const SLOT_S: f64 = 500e-6;
/// OFDM symbols per slot (normal cyclic prefix).
pub(crate) const SYMBOLS_PER_SLOT: usize = 7;

impl LteMode {
    /// Received MIMO vectors that must be detected per timeslot.
    pub(crate) fn vectors_per_slot(&self) -> usize {
        self.occupied_subcarriers * SYMBOLS_PER_SLOT
    }

    /// Largest FlexCore path count `|E|` the GPU sustains within the slot
    /// (8 CUDA streams overlap transfers as in §5.2, folded into the
    /// model's bandwidth figure). Returns 0 when even one path misses.
    ///
    /// ```
    /// use flexcore_hwmodel::{GpuModel, LTE_MODES};
    /// let gpu = GpuModel::gtx970();
    /// // Wider bands afford fewer paths per subcarrier (Fig. 12).
    /// let narrow = LTE_MODES[0].max_flexcore_paths(&gpu, 8);
    /// let wide = LTE_MODES[5].max_flexcore_paths(&gpu, 8);
    /// assert!(narrow > wide && wide >= 1);
    /// ```
    pub fn max_flexcore_paths(&self, gpu: &GpuModel, nt: usize) -> usize {
        let nsc = self.vectors_per_slot();
        let mut best = 0usize;
        // |E| is at most a few thousand; linear scan keeps this exact.
        for e in 1..=4096 {
            if gpu.flexcore_time_s(nsc, e, nt) <= SLOT_S {
                best = e;
            } else {
                break;
            }
        }
        best
    }

    /// Whether the FCSD with `l` fully-expanded levels fits the slot.
    ///
    /// ```
    /// use flexcore_hwmodel::{GpuModel, LTE_MODES};
    /// let gpu = GpuModel::gtx970();
    /// // §5.2: the FCSD only fits the narrowest mode, at L = 1.
    /// assert!(LTE_MODES[0].fcsd_supported(&gpu, 8, 64, 1));
    /// assert!(!LTE_MODES[5].fcsd_supported(&gpu, 8, 64, 1));
    /// ```
    pub fn fcsd_supported(&self, gpu: &GpuModel, nt: usize, q: usize, l: u32) -> bool {
        gpu.fcsd_time_s(self.vectors_per_slot(), q, l, nt) <= SLOT_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_table_shape() {
        assert_eq!(LTE_MODES.len(), 6);
        assert_eq!(LTE_MODES[0].occupied_subcarriers, 76);
        assert_eq!(LTE_MODES[5].occupied_subcarriers, 1200);
        // Monotone in bandwidth.
        for w in LTE_MODES.windows(2) {
            assert!(w[1].occupied_subcarriers > w[0].occupied_subcarriers);
        }
        assert_eq!(LTE_MODES[0].vectors_per_slot(), 76 * 7);
        assert_eq!(LTE_MODES[2].vectors_per_slot(), 300 * 7);
        // Slot arithmetic is fixed by the standard, not by calibration:
        // an LTE 10 ms frame holds 20 slots of 7 symbols.
        assert_eq!(20.0 * SLOT_S, 10e-3);
        assert_eq!(SYMBOLS_PER_SLOT, 7);
        assert_eq!(LTE_MODES[5].vectors_per_slot(), 1200 * 7);
    }

    #[test]
    fn flexcore_supports_all_modes_with_some_paths() {
        // §5.2 headline: FlexCore is the first sphere-decoding detector
        // supporting every LTE bandwidth (Nt up to 12, 64-QAM).
        let gpu = GpuModel::gtx970();
        for mode in LTE_MODES {
            for nt in [8usize, 12] {
                let e = mode.max_flexcore_paths(&gpu, nt);
                assert!(
                    e >= 1,
                    "FlexCore must support {} MHz at Nt={nt} (got {e} paths)",
                    mode.bandwidth_mhz
                );
            }
        }
    }

    #[test]
    fn budget_shrinks_with_bandwidth() {
        let gpu = GpuModel::gtx970();
        let paths: Vec<usize> = LTE_MODES
            .iter()
            .map(|m| m.max_flexcore_paths(&gpu, 8))
            .collect();
        for w in paths.windows(2) {
            assert!(
                w[1] <= w[0],
                "wider band must not allow more paths: {paths:?}"
            );
        }
        // Fig. 12's Nt=8 range is ~105 paths (1.25 MHz) down to ~4 (20 MHz):
        // same order of magnitude here.
        assert!(paths[0] >= 20, "1.25 MHz budget too small: {paths:?}");
        assert!(paths[5] <= 64, "20 MHz budget too large: {paths:?}");
    }

    #[test]
    fn fcsd_only_fits_narrow_modes() {
        // §5.2: the FCSD's inflexibility limits it to the 1.25 MHz mode at
        // L=1, and L=2 fits nowhere (Nt ∈ {8, 12}, 64-QAM).
        let gpu = GpuModel::gtx970();
        for nt in [8usize, 12] {
            assert!(
                !LTE_MODES[5].fcsd_supported(&gpu, nt, 64, 1),
                "FCSD L=1 must miss the 20 MHz budget at Nt={nt}"
            );
            for mode in LTE_MODES {
                assert!(
                    !mode.fcsd_supported(&gpu, nt, 64, 2),
                    "FCSD L=2 must miss every mode (failed at {} MHz, Nt={nt})",
                    mode.bandwidth_mhz
                );
            }
        }
        // And the narrowest mode does fit at L=1 (the paper's one supported case).
        assert!(LTE_MODES[0].fcsd_supported(&gpu, 8, 64, 1));
    }
}
