//! GPU configuration.

use sim_core::{Bandwidth, SimDuration};

/// How the TB scheduler orders the ready queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadyPolicy {
    /// Hardware default: dispatch in ready-time order. Identical kernels on
    /// different GPUs drift apart because upstream communication completes
    /// at different times on each device.
    #[default]
    Fifo,
    /// CAIS compiler TB grouping: dispatch in deterministic
    /// [`order_key`](crate::kernel::TbDesc::order_key) order, identical on
    /// every GPU, maximizing temporal locality of mergeable requests.
    GroupOrdered,
}

/// Static parameters of one simulated GPU.
///
/// Defaults model the paper's *half-scale* H100 (Sec. IV-B): 66 SMs, with
/// peak math throughput and HBM bandwidth scaled 50% from the H100 SXM
/// datasheet values (989 BF16 TFLOPS, 3.35 TB/s).
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Concurrently resident TBs per SM (big GEMM tiles occupy most of an
    /// SM's registers/smem, so this is small).
    pub tb_slots_per_sm: usize,
    /// Peak dense math throughput of one SM, in FLOP per nanosecond.
    pub flops_per_ns_per_sm: f64,
    /// Aggregate HBM bandwidth of the device.
    pub hbm_bw: Bandwidth,
    /// Host-side kernel launch overhead applied before any TB of a kernel
    /// becomes ready.
    pub kernel_launch_overhead: SimDuration,
    /// Upper bound of the uniform per-TB dispatch jitter modeling OS and
    /// clock drift across devices.
    pub dispatch_jitter: SimDuration,
    /// Upper bound of the uniform per-kernel launch skew: host/driver
    /// noise staggering the same kernel's launch across GPUs (the
    /// dominant source of the paper's ~35 us uncoordinated request
    /// spread; see Jain et al. \[18\] on ML-job variability).
    pub launch_skew: SimDuration,
    /// Upper bound of the uniform per-compute-phase duration jitter
    /// (divergence accumulated while a TB executes).
    pub compute_jitter: SimDuration,
    /// Ready-queue ordering policy.
    pub ready_policy: ReadyPolicy,
    /// Compute-phase duration multiplier; `1.0` (the default) is bit-exact
    /// with no scaling. Set above `1.0` by the fault plan's straggler spec
    /// to model one GPU running slow (thermal throttling, clock skew).
    pub compute_scale: f64,
}

impl GpuConfig {
    /// Half-scale H100 used for the paper's main experiments.
    pub fn h100_half() -> GpuConfig {
        GpuConfig {
            sm_count: 66,
            tb_slots_per_sm: 2,
            // 989 TFLOPS / 132 SMs = 7.49 TFLOP/s per SM = 7492 FLOP/ns.
            flops_per_ns_per_sm: 7492.0,
            hbm_bw: Bandwidth::gbps(3350.0 / 2.0),
            kernel_launch_overhead: SimDuration::from_us(3),
            dispatch_jitter: SimDuration::from_us(8),
            launch_skew: SimDuration::from_us(25),
            compute_jitter: SimDuration::from_us(2),
            ready_policy: ReadyPolicy::Fifo,
            compute_scale: 1.0,
        }
    }

    /// Full-scale H100 (Table II validation).
    pub fn h100_full() -> GpuConfig {
        GpuConfig {
            sm_count: 132,
            hbm_bw: Bandwidth::gbps(3350.0),
            ..GpuConfig::h100_half()
        }
    }

    /// Total TB slots on the device.
    pub fn total_slots(&self) -> usize {
        self.sm_count * self.tb_slots_per_sm
    }

    /// HBM bandwidth available to one SM when all SMs stream concurrently.
    pub fn hbm_bw_per_sm(&self) -> Bandwidth {
        self.hbm_bw.split(self.sm_count)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::h100_half()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_scale_halves_resources() {
        let half = GpuConfig::h100_half();
        let full = GpuConfig::h100_full();
        assert_eq!(full.sm_count, 2 * half.sm_count);
        assert!((full.hbm_bw.as_gbps() - 2.0 * half.hbm_bw.as_gbps()).abs() < 1e-9);
        // Per-SM throughput identical: scaling down removes SMs, not clocks.
        assert_eq!(full.flops_per_ns_per_sm, half.flops_per_ns_per_sm);
    }

    #[test]
    fn derived_quantities() {
        let c = GpuConfig::h100_half();
        assert_eq!(c.total_slots(), 132);
        assert!((c.hbm_bw_per_sm().as_gbps() - 1675.0 / 66.0).abs() < 1e-6);
    }
}
