//! Execution reports.

use noc_sim::FabricReport;
use sim_core::{GpuId, KernelId, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Recorded lifetime of one kernel instance.
#[derive(Debug, Clone)]
pub struct KernelSpan {
    /// Kernel name from lowering.
    pub name: Arc<str>,
    /// GPU it ran on.
    pub gpu: GpuId,
    /// Launch time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
}

impl KernelSpan {
    /// Wall-clock duration of the kernel.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Result of executing one [`Program`](crate::Program).
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// End-to-end simulated time (to full quiescence).
    pub total: SimDuration,
    /// Per-GPU SM-slot occupancy over the run.
    pub gpu_occupancy: Vec<f64>,
    /// Link usage.
    pub fabric: FabricReport,
    /// Per-kernel lifetimes, ordered by [`KernelId`] so every iteration
    /// (report rows, prefix sums, golden comparisons) is deterministic.
    pub kernel_spans: BTreeMap<KernelId, KernelSpan>,
    /// Every subsystem's counters from the end-of-run audit probe, in
    /// listing order: the fabric's, the engine's, then the switch
    /// logic's. Each name is listed once, under its owner's prefix
    /// (`fabric.`, `engine.`, `cais.`, `nvls.`).
    pub counters: Vec<(&'static str, f64)>,
    /// The switch logic's counters (merge statistics, sync releases, NVLS
    /// counts): the tail of [`ExecReport::counters`], in listing order.
    pub logic_stats: Vec<(String, f64)>,
    /// Remote fetches avoided by the per-GPU tile directory (L2 capture).
    pub deduped_fetches: u64,
    /// Total semantic reduction contributions delivered to tiles. This is
    /// determined by the dataflow graph alone (the sum of every reduced
    /// tile's expected contribution count), so it is invariant across
    /// lowering strategies and fault plans — the chaos soak's
    /// semantic-reduction equivalence oracle.
    pub semantic_contribs: u64,
    /// Discrete events processed across all GPU queues and the fabric
    /// queue (perf accounting; drives `BENCH_sim.json`). Link wakes and
    /// dispatches that would have found nothing to do are not scheduled;
    /// the counters `fabric.parked_wakes` and `engine.dormant_dispatches`
    /// count them.
    pub events_processed: u64,
    /// Largest pending-event count reached by any single queue.
    pub queue_peak: usize,
    /// Engine loop iterations (`engine.steps`): one per drain of GPU
    /// effects and fabric deliveries. Deterministic, so `BENCH_sim.json`
    /// pins it beside `events_processed`.
    pub steps: u64,
}

impl ExecReport {
    /// Mean occupancy across GPUs.
    pub fn mean_occupancy(&self) -> f64 {
        if self.gpu_occupancy.is_empty() {
            return 0.0;
        }
        self.gpu_occupancy.iter().sum::<f64>() / self.gpu_occupancy.len() as f64
    }

    /// Looks up a counter by name.
    pub fn stat(&self, key: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// Sum of wall time of kernels whose name starts with `prefix`,
    /// on GPU 0 (kernels are symmetric across GPUs).
    pub fn kernel_time_with_prefix(&self, prefix: &str) -> SimDuration {
        self.kernel_spans
            .values()
            .filter(|s| s.gpu == GpuId(0) && s.name.starts_with(prefix))
            .map(|s| s.duration())
            .sum()
    }

    /// Speedup of this report relative to `baseline` (baseline time /
    /// this time).
    pub fn speedup_over(&self, baseline: &ExecReport) -> f64 {
        baseline.total.as_secs_f64() / self.total.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::FabricReport;

    fn report(total_us: u64) -> ExecReport {
        ExecReport {
            total: SimDuration::from_us(total_us),
            gpu_occupancy: vec![0.5, 0.7],
            fabric: FabricReport::new(SimDuration::from_us(total_us), vec![]),
            kernel_spans: BTreeMap::new(),
            counters: vec![("cais.loads_merged", 42.0)],
            logic_stats: vec![("cais.loads_merged".into(), 42.0)],
            deduped_fetches: 0,
            semantic_contribs: 0,
            events_processed: 0,
            queue_peak: 0,
            steps: 0,
        }
    }

    #[test]
    fn aggregates() {
        let r = report(100);
        assert!((r.mean_occupancy() - 0.6).abs() < 1e-12);
        assert_eq!(r.stat("cais.loads_merged"), Some(42.0));
        assert_eq!(r.stat("nope"), None);
    }

    #[test]
    fn speedup() {
        let fast = report(50);
        let slow = report(100);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_prefix_times() {
        let mut r = report(10);
        r.kernel_spans.insert(
            KernelId(0),
            KernelSpan {
                name: "coll.ar".into(),
                gpu: GpuId(0),
                start: SimTime::ZERO,
                end: SimTime::from_us(4),
            },
        );
        r.kernel_spans.insert(
            KernelId(1),
            KernelSpan {
                name: "gemm.fc1".into(),
                gpu: GpuId(0),
                start: SimTime::from_us(4),
                end: SimTime::from_us(9),
            },
        );
        // Same names on another GPU are excluded.
        r.kernel_spans.insert(
            KernelId(2),
            KernelSpan {
                name: "coll.ar".into(),
                gpu: GpuId(1),
                start: SimTime::ZERO,
                end: SimTime::from_us(4),
            },
        );
        assert_eq!(r.kernel_time_with_prefix("coll."), SimDuration::from_us(4));
        assert_eq!(r.kernel_time_with_prefix("gemm."), SimDuration::from_us(5));
    }
}
