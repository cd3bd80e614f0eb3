//! Fig. 2 — computation vs. communication time when scaling up.
//!
//! LLaMA-7B under TP with NVLS collectives, varying the TP degree.
//! The paper's observation: communication overtakes computation beyond
//! 4–8 GPUs; at 8 GPUs communication is ~1.6x computation.

use crate::runner::{compute_and_comm_us, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_baselines::BaselineStrategy;
use llm_workload::{Pass, TpMode};

/// The experiment: one job per GPU count.
pub const EXPERIMENT: Experiment = Experiment::new("fig2", manifest, render);

fn gpu_counts(scale: Scale) -> Vec<usize> {
    scale.pick(vec![2, 4, 8, 16], vec![2, 4])
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.llama_7b_halved();
    gpu_counts(scale)
        .into_iter()
        .map(|p| {
            let mut cfg = scale.system();
            cfg.n_gpus = p;
            cfg.fabric = noc_sim::FabricConfig::default_for(p, cfg.n_planes);
            // This figure is about the compute/communication balance,
            // not launch noise; quiesce the host-side skew so the
            // per-layer times reflect work, not jitter.
            cfg.gpu.launch_skew = sim_core::SimDuration::ZERO;
            cfg.gpu.dispatch_jitter = sim_core::SimDuration::from_us(1);
            let workload = Workload::layer(&model, TpMode::BasicTp, Pass::Forward);
            let strategy = Box::new(BaselineStrategy::tp_nvls());
            JobSpec::new(format!("tp-nvls/{p}gpus"), workload, strategy, cfg)
        })
        .collect()
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let mut table = Table::new(
        "fig02",
        "LLaMA-7B per-layer compute vs. communication time (TP-NVLS)",
        vec!["compute_us".into(), "comm_us".into(), "comm/compute".into()],
    );
    for (res, p) in results.iter().zip(gpu_counts(scale)) {
        let (compute, comm) = res
            .report()
            .map_or((f64::NAN, f64::NAN), compute_and_comm_us);
        let ratio = if compute > 0.0 {
            comm / compute
        } else if compute.is_nan() {
            f64::NAN
        } else {
            0.0
        };
        table.push(format!("{p} GPUs"), vec![compute, comm, ratio]);
    }
    table.absorb_failures(results);
    table.notes = "paper: communication overtakes compute beyond 4-8 GPUs; ~1.6x at 8 GPUs".into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_share_grows_with_gpus() {
        let tables = EXPERIMENT.run(Scale::Smoke, 1);
        let t = &tables[0];
        let r2 = t.cell("2 GPUs", "comm/compute").unwrap();
        let r4 = t.cell("4 GPUs", "comm/compute").unwrap();
        assert!(
            r4 > 1.2 * r2,
            "communication share must grow with TP degree: {r2} vs {r4}"
        );
    }
}
