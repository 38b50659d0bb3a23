//! SIMT GPU and multicore CPU cost models (the paper's GTX 970 / FX-8120).
//!
//! Both the FCSD and FlexCore map *one tree path to one thread*
//! (§4: `Nsc·|Q|^L` vs `Nsc·|E|` threads). Detection time is then governed
//! by how many thread "waves" the device needs:
//!
//! ```text
//! t_kernel = ceil(threads / concurrent_threads) · cycles_per_path / clock
//!            + launch_overhead
//! t_total  = t_kernel + bytes_moved / pcie_bandwidth
//! ```
//!
//! FlexCore's per-thread workload is slightly higher than the FCSD's
//! (extra arithmetic/branching and work at the topmost level, §4);
//! [`GpuModel::FLEXCORE_THREAD_OVERHEAD`] carries that factor. The CPU
//! model applies the paper's measured OpenMP scaling (5.14× on 8 threads,
//! 64.25 % parallel efficiency).

/// GPU execution model.
///
/// ```
/// use flexcore_hwmodel::GpuModel;
/// let gpu = GpuModel::gtx970();
/// // §5.2: FlexCore |E|=128 vs the FCSD's L=2 expansion — "up to 19x".
/// let s = gpu.speedup_vs_fcsd(128, 16384, 64, 2, 12);
/// assert!(s > 10.0);
/// ```
#[derive(Clone, Debug)]
pub struct GpuModel {
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Board power in watts (used for energy-per-bit).
    pub power_w: f64,
    /// Kernel launch + driver overhead per batch, seconds.
    pub launch_overhead_s: f64,
    /// Host↔device bandwidth in bytes/second (PCIe 3.0 x16 effective).
    pub pcie_bw: f64,
    /// Cycles one thread spends per tree level of a path (includes the
    /// cancellation multiply-adds, slicing and metric update).
    pub cycles_per_level: f64,
}

impl GpuModel {
    /// FlexCore threads do more work per level than FCSD threads
    /// (predefined-order lookup, offset arithmetic, and the
    /// arithmetic/branching applied to the topmost level, §4). Calibrated
    /// jointly with `cycles_per_level` against the paper's measured
    /// |E|=128-vs-L=2 speedup ("up to 19×").
    pub(crate) const FLEXCORE_THREAD_OVERHEAD: f64 = 1.60;

    /// The paper's NVIDIA GTX 970 (Maxwell): 13 SMs × 128 cores, 1.05 GHz,
    /// 145 W TDP. `cycles_per_level` (effective cycles per tree level per
    /// thread, global-memory stalls included) is calibrated so the LTE
    /// budget solver lands on the paper's measured path counts (105→4 for
    /// Nt=8 across the 1.25→20 MHz modes, Fig. 12).
    ///
    /// ```
    /// use flexcore_hwmodel::GpuModel;
    /// let gpu = GpuModel::gtx970();
    /// assert_eq!((gpu.sm_count, gpu.cores_per_sm), (13, 128));
    /// ```
    pub fn gtx970() -> Self {
        GpuModel {
            sm_count: 13,
            cores_per_sm: 128,
            clock_hz: 1.05e9,
            power_w: 145.0,
            launch_overhead_s: 10e-6,
            pcie_bw: 12e9,
            cycles_per_level: 220.0,
        }
    }

    /// Threads resident across the device.
    pub(crate) fn concurrent_threads(&self) -> usize {
        self.sm_count * self.cores_per_sm
    }

    /// Raw kernel compute time for `threads` threads of `cycles` cycles
    /// each (no launch overhead).
    pub(crate) fn kernel_time_s(&self, threads: usize, cycles: f64) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        let waves = threads.div_ceil(self.concurrent_threads()) as f64;
        waves * cycles / self.clock_hz
    }

    /// Host→device transfer time.
    pub(crate) fn transfer_time_s(&self, bytes: usize) -> f64 {
        bytes as f64 / self.pcie_bw
    }

    /// Per-path (whole-descent) cycle cost for an `nt`-level tree:
    /// level `l` from the top does `O(nt − l)` cancellation multiply-adds
    /// plus fixed slicing/metric work, so a path is
    /// `cycles_per_level · nt·(nt+3)/2`. This is the FCSD thread cost; a
    /// FlexCore thread multiplies in [`GpuModel::FLEXCORE_THREAD_OVERHEAD`].
    pub(crate) fn path_cycles(&self, nt: usize) -> f64 {
        self.cycles_per_level * (nt as f64) * (nt as f64 + 3.0) / 2.0
    }

    /// Batch time with copy/compute overlap: the implementation uses CUDA
    /// streams (§4), so transfers hide behind the kernel of the previous
    /// chunk — total time is the max of the two, plus launch overhead.
    fn batch_time_s(&self, threads: usize, cycles: f64, bytes: usize) -> f64 {
        self.kernel_time_s(threads, cycles)
            .max(self.transfer_time_s(bytes))
            + self.launch_overhead_s
    }

    /// FCSD detection time for `nsc` subcarriers, constellation size `q`,
    /// `l` fully-expanded levels, `nt` streams (threads = `nsc·q^l`).
    ///
    /// ```
    /// use flexcore_hwmodel::GpuModel;
    /// let gpu = GpuModel::gtx970();
    /// // A second fully-expanded level multiplies the thread count by |Q|.
    /// assert!(gpu.fcsd_time_s(1024, 64, 2, 12) > 10.0 * gpu.fcsd_time_s(1024, 64, 1, 12));
    /// ```
    pub fn fcsd_time_s(&self, nsc: usize, q: usize, l: u32, nt: usize) -> f64 {
        let threads = nsc * q.pow(l);
        self.batch_time_s(threads, self.path_cycles(nt), self.io_bytes(nsc, nt))
    }

    /// FlexCore detection time for `nsc` subcarriers and `e` paths
    /// (threads = `nsc·e`). §4's extra H2D payloads — the triangle order
    /// (2·|Q|·4 bytes) and the `Nsc·Nt·|E|` position-vector matrix — are
    /// uploaded when the *channel* changes (they are pre-processing
    /// products), so like the QR factors they amortise across the many
    /// detection batches of a packet and are excluded from the per-batch
    /// critical path.
    pub(crate) fn flexcore_time_s(&self, nsc: usize, e: usize, nt: usize) -> f64 {
        let threads = nsc * e;
        self.batch_time_s(
            threads,
            self.path_cycles(nt) * Self::FLEXCORE_THREAD_OVERHEAD,
            self.io_bytes(nsc, nt),
        )
    }

    /// Baseline y/R/output traffic per batch.
    fn io_bytes(&self, nsc: usize, nt: usize) -> usize {
        // y (Nr≈Nt complex f32), R (Nt² complex f32, upper half), output
        // (Nt bytes) per subcarrier.
        nsc * (nt * 8 + nt * nt * 4 + nt)
    }

    /// Fig. 11's headline metric: FlexCore speedup over the GPU FCSD at
    /// equal subcarrier batching.
    ///
    /// ```
    /// use flexcore_hwmodel::GpuModel;
    /// let gpu = GpuModel::gtx970();
    /// // The speedup grows as |E| shrinks.
    /// assert!(gpu.speedup_vs_fcsd(64, 1024, 64, 2, 12) > gpu.speedup_vs_fcsd(512, 1024, 64, 2, 12));
    /// ```
    pub fn speedup_vs_fcsd(&self, e: usize, nsc: usize, q: usize, l: u32, nt: usize) -> f64 {
        self.fcsd_time_s(nsc, q, l, nt) / self.flexcore_time_s(nsc, e, nt)
    }
}

/// OpenMP-style multicore model (the paper's AMD FX-8120).
///
/// ```
/// use flexcore_hwmodel::CpuModel;
/// let cpu = CpuModel::fx8120();
/// // The paper's measured OpenMP scaling: 8 threads -> 5.14x.
/// assert!((cpu.parallel_speedup(8) - 5.14).abs() < 0.02);
/// ```
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Physical cores.
    pub cores: usize,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Package power in watts.
    pub power_w: f64,
    /// Cycles one (scalar, cache-friendly) path-level costs on the CPU.
    pub cycles_per_level: f64,
}

impl CpuModel {
    /// The paper's FX-8120 (8 cores, 3.1 GHz, 125 W). `cycles_per_level`
    /// is calibrated so the GPU-vs-8-thread ratio lands at the paper's
    /// "at least 21×".
    ///
    /// ```
    /// use flexcore_hwmodel::CpuModel;
    /// assert_eq!(CpuModel::fx8120().cores, 8);
    /// ```
    pub fn fx8120() -> Self {
        CpuModel {
            cores: 8,
            clock_hz: 3.1e9,
            power_w: 125.0,
            cycles_per_level: 48.0,
        }
    }

    /// Parallel speedup of `threads` OpenMP threads. Calibrated to the
    /// paper's measurement: 8 threads → 5.14× (64.25 % efficiency), with
    /// Amdahl-style decay `eff(t) = t / (1 + α(t−1))`.
    ///
    /// ```
    /// use flexcore_hwmodel::CpuModel;
    /// let cpu = CpuModel::fx8120();
    /// assert!((cpu.parallel_speedup(1) - 1.0).abs() < 1e-12);
    /// assert!(cpu.parallel_speedup(4) < 4.0);
    /// ```
    pub fn parallel_speedup(&self, threads: usize) -> f64 {
        assert!(threads >= 1);
        // α solves 8/(1+7α) = 5.14 → α ≈ 0.0795.
        const ALPHA: f64 = 0.079_5;
        threads as f64 / (1.0 + ALPHA * (threads as f64 - 1.0))
    }

    /// Seconds one core spends on one path-extension unit of work (a full
    /// `nt`-level path descent): the same `nt(nt+3)/2` level-step sweep as
    /// the GPU's thread, at `cycles_per_level = 48` (calibrated so the GPU
    /// beats the 8-thread FX-8120 by the paper's "at least 21×", §5.2) and
    /// 3.1 GHz. The city prices its modelled rounds with it.
    ///
    /// ```
    /// use flexcore_hwmodel::CpuModel;
    /// let unit_s = CpuModel::fx8120().unit_seconds(4);
    /// assert_eq!(unit_s, 48.0 * 4.0 * 7.0 / 2.0 / 3.1e9);
    /// ```
    pub fn unit_seconds(&self, nt: usize) -> f64 {
        self.cycles_per_level * (nt as f64) * (nt as f64 + 3.0) / 2.0 / self.clock_hz
    }

    /// Time for `paths` total tree paths of `nt` levels on `threads`
    /// OpenMP threads.
    ///
    /// ```
    /// use flexcore_hwmodel::CpuModel;
    /// let cpu = CpuModel::fx8120();
    /// // 8 threads beat 1 thread by the measured 5.14x.
    /// let ratio = cpu.time_s(4096, 12, 1) / cpu.time_s(4096, 12, 8);
    /// assert!((ratio - 5.14).abs() < 0.02);
    /// ```
    pub fn time_s(&self, paths: usize, nt: usize, threads: usize) -> f64 {
        paths as f64 * self.unit_seconds(nt) / self.parallel_speedup(threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openmp_scaling_matches_paper() {
        let cpu = CpuModel::fx8120();
        assert!((cpu.parallel_speedup(1) - 1.0).abs() < 1e-12);
        let s8 = cpu.parallel_speedup(8);
        assert!((s8 - 5.14).abs() < 0.02, "8-thread speedup {s8}");
        // Efficiency ≈ 64.25%.
        assert!((s8 / 8.0 - 0.6425).abs() < 0.005);
    }

    #[test]
    fn gpu_beats_8_thread_cpu_by_at_least_21x() {
        // §5.2: "the GPU-based FCSD is at least 21× faster than the
        // 8-threaded CPU version" — 12×12, 64-QAM, L=1.
        let gpu = GpuModel::gtx970();
        let cpu = CpuModel::fx8120();
        let nsc = 1024;
        let paths = nsc * 64;
        let t_gpu = gpu.fcsd_time_s(nsc, 64, 1, 12);
        let t_cpu = cpu.time_s(paths, 12, 8);
        let ratio = t_cpu / t_gpu;
        assert!(ratio >= 21.0, "GPU/CPU ratio {ratio}");
    }

    #[test]
    fn headline_19x_speedup_reproduces() {
        // §5.2: FlexCore with |E|=128 vs FCSD L=2 (4096 paths) at 12×12
        // 64-QAM: up to 19×. "Up to" = at favourable batching.
        let gpu = GpuModel::gtx970();
        let s = gpu.speedup_vs_fcsd(128, 16384, 64, 2, 12);
        assert!(
            (15.0..=25.0).contains(&s),
            "speedup at |E|=128 vs L=2 is {s}, expected ~19×"
        );
    }

    #[test]
    fn thread_timing_internals() {
        let gpu = GpuModel::gtx970();
        assert_eq!(GpuModel::FLEXCORE_THREAD_OVERHEAD, 1.60);
        assert_eq!(gpu.concurrent_threads(), 13 * 128);
        // Calibration pins: a path is cycles_per_level · nt(nt+3)/2.
        assert_eq!(gpu.path_cycles(8), 220.0 * 8.0 * 11.0 / 2.0);
        assert!((gpu.path_cycles(12) - 19_800.0).abs() <= 1e-9 * 19_800.0);
        // One extra thread beyond full residency starts a second wave.
        let full = gpu.kernel_time_s(gpu.concurrent_threads(), 100.0);
        assert_eq!(
            gpu.kernel_time_s(gpu.concurrent_threads() + 1, 100.0),
            2.0 * full
        );
        // 12 GB at 12 GB/s takes one second.
        assert!((gpu.transfer_time_s(12_000_000_000) - 1.0).abs() < 1e-12);
        // FlexCore threads cost more than FCSD threads at equal counts, and
        // fewer paths detect faster.
        assert!(gpu.flexcore_time_s(1024, 64, 12) > gpu.fcsd_time_s(1024, 64, 1, 12) / 2.0);
        assert!(gpu.flexcore_time_s(4096, 32, 12) < gpu.flexcore_time_s(4096, 256, 12));
    }

    #[test]
    fn speedup_grows_as_e_shrinks() {
        let gpu = GpuModel::gtx970();
        let mut prev = 0.0;
        for &e in &[1024usize, 512, 256, 128, 64, 32] {
            let s = gpu.speedup_vs_fcsd(e, 1024, 64, 2, 12);
            assert!(s > prev, "speedup must grow as |E| shrinks ({e}: {s})");
            prev = s;
        }
    }

    #[test]
    fn small_batches_blunt_the_speedup() {
        // Fig. 11: at Nsc=64 the launch overhead and partial occupancy
        // compress the gap relative to Nsc=16384.
        let gpu = GpuModel::gtx970();
        let small = gpu.speedup_vs_fcsd(128, 64, 64, 2, 12);
        let large = gpu.speedup_vs_fcsd(128, 16384, 64, 2, 12);
        assert!(small < large, "Nsc=64 {small} vs Nsc=16384 {large}");
    }

    #[test]
    fn kernel_time_scales_with_waves() {
        let gpu = GpuModel::gtx970();
        let one_wave = gpu.kernel_time_s(gpu.concurrent_threads(), 100.0);
        let two_waves = gpu.kernel_time_s(gpu.concurrent_threads() + 1, 100.0);
        assert!(two_waves > one_wave);
        assert_eq!(gpu.kernel_time_s(0, 100.0), 0.0);
    }

    #[test]
    fn flexcore_more_energy_efficient_at_same_work() {
        // With 32× fewer threads at only 1.3× per-thread cost, FlexCore's
        // J/bit advantage vs FCSD L=2 must be large (§5.2 reports +97%).
        let gpu = GpuModel::gtx970();
        let nsc = 16384;
        let bits = (nsc * 12 * 6) as f64; // info bits per batch

        // Energy per information bit: power × batch time / bits.
        let e_fc = gpu.power_w * gpu.flexcore_time_s(nsc, 128, 12) / bits;
        let e_fcsd = gpu.power_w * gpu.fcsd_time_s(nsc, 64, 2, 12) / bits;
        assert!(
            e_fcsd / e_fc > 1.9,
            "FCSD J/bit should be ≫ FlexCore's: {e_fcsd} vs {e_fc}"
        );
    }
}
