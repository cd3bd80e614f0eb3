//! System-level configuration.

use gpu_sim::GpuConfig;
use noc_sim::FabricConfig;
use sim_core::{AuditConfig, FaultPlan, SimDuration, SimTime};

/// Configuration of the whole multi-GPU system plus engine knobs.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of GPUs.
    pub n_gpus: usize,
    /// Number of switch planes.
    pub n_planes: usize,
    /// Per-GPU configuration (identical GPUs).
    pub gpu: GpuConfig,
    /// Fabric configuration; `n_gpus`/`n_planes` here are authoritative
    /// and copied into it by [`SystemConfig::fabric_config`].
    pub fabric: FabricConfig,
    /// Latency for the home GPU's memory system to serve a remote read.
    pub mem_read_latency: SimDuration,
    /// GEMM tile edge (square `tile x tile` output tiles).
    pub tile: u64,
    /// Chunk size for collective lowering (ring steps, NVLS pushes).
    pub coll_chunk_bytes: u64,
    /// Per-(GPU, plane) cap on outstanding CAIS-tagged requests; models
    /// the paper's TB-aware request throttling driven by merge-table
    /// credits. `None` disables throttling.
    pub cais_credits_per_plane: Option<usize>,
    /// Master seed for all jitter streams.
    pub seed: u64,
    /// Hard wall on simulated time; exceeding it makes the run fail with
    /// [`SimError::DeadlineExceeded`](crate::SimError::DeadlineExceeded).
    pub deadline: SimTime,
    /// Fault-injection plan; the default injects nothing and leaves every
    /// result byte-identical to a fault-free run.
    pub faults: FaultPlan,
    /// Conservation-auditor settings: `enabled` (off by default) adds
    /// cadence checks and the forensic event ring. The end-of-run
    /// quiescence check runs regardless; auditing is observe-only.
    pub audit: AuditConfig,
}

impl SystemConfig {
    /// The paper's main setup: 8 GPUs, 4 NVSwitch planes, half-scale H100s.
    pub fn dgx_h100() -> SystemConfig {
        let n_gpus = 8;
        let n_planes = 4;
        SystemConfig {
            n_gpus,
            n_planes,
            gpu: GpuConfig::h100_half(),
            fabric: FabricConfig::default_for(n_gpus, n_planes),
            mem_read_latency: SimDuration::from_ns(400),
            tile: 128,
            coll_chunk_bytes: 512 * 1024,
            cais_credits_per_plane: None,
            seed: 0xCA15,
            deadline: SimTime::from_ms(10_000),
            faults: FaultPlan::default(),
            audit: AuditConfig::default(),
        }
    }

    /// Fabric config with system-level fields made consistent.
    pub fn fabric_config(&self) -> FabricConfig {
        let mut f = self.fabric.clone();
        f.n_gpus = self.n_gpus;
        f.n_planes = self.n_planes;
        f.faults = self.faults.clone();
        f
    }

    /// TP degree as `u64` for workload builders.
    pub fn tp(&self) -> u64 {
        self.n_gpus as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_defaults_match_paper() {
        let c = SystemConfig::dgx_h100();
        assert_eq!(c.n_gpus, 8);
        assert_eq!(c.n_planes, 4);
        assert_eq!(c.gpu.sm_count, 66);
        assert_eq!(c.fabric.link_latency, SimDuration::from_ns(250));
    }

    #[test]
    fn fabric_config_follows_system_dims() {
        let mut c = SystemConfig::dgx_h100();
        c.n_gpus = 16;
        let f = c.fabric_config();
        assert_eq!(f.n_gpus, 16);
        assert_eq!(c.tp(), 16);
    }
}
