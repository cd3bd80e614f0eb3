//! Fig. 17 — scalability with increasing GPU count.
//!
//! Per-GPU throughput of CAIS and CoCoNet-NVLS as the system grows,
//! with the model's hidden dimensions scaled proportionally (so per-GPU
//! work stays constant). The paper reports <5% per-GPU throughput drop
//! from 8 to 32 GPUs.

use crate::runner::{Entry, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use llm_workload::{ModelConfig, Pass, TpMode};

/// The experiment: one job per GPU count × strategy.
pub const EXPERIMENT: Experiment = Experiment::new("fig17", manifest, render);

/// The base GPU count and the GPU counts swept.
fn gpu_counts(scale: Scale) -> (usize, Vec<usize>) {
    scale.pick((8, vec![8, 16, 32]), (4, vec![4, 8]))
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let (base_p, gpu_counts) = gpu_counts(scale);
    let base_model = scale.model(&ModelConfig::llama_7b());
    let mut specs = Vec::new();
    for p in gpu_counts {
        let mut cfg = scale.system();
        cfg.n_gpus = p;
        cfg.fabric = noc_sim::FabricConfig::default_for(p, cfg.n_planes);
        let model = base_model.scale_hidden(p as u64, base_p as u64);
        for Entry { strategy, mode } in [
            Entry::new(CaisStrategy::full(), TpMode::SeqPar),
            Entry::new(BaselineStrategy::coconet_nvls(), TpMode::BasicTp),
        ] {
            let label = format!("{}/{p}gpus", strategy.name());
            let workload = Workload::layer(&model, mode, Pass::Forward);
            specs.push(JobSpec::new(label, workload, strategy, cfg.clone()));
        }
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let mut table = Table::new(
        "fig17",
        "per-GPU throughput normalized to CAIS at the base GPU count",
        vec!["CAIS".into(), "CoCoNet-NVLS".into()],
    );
    // FLOP counts come from the (cheap, deterministic) graph build; only
    // the simulations themselves ran on the pool.
    let throughputs: Vec<f64> = manifest(scale)
        .iter()
        .zip(results)
        .map(|(spec, res)| spec.graph().expect("a layer graph").total_flops() / res.secs())
        .collect();
    let norm = throughputs[0];
    for (pair, p) in throughputs.chunks(2).zip(gpu_counts(scale).1) {
        table.push(format!("{p} GPUs"), vec![pair[0] / norm, pair[1] / norm]);
    }
    table.absorb_failures(results);
    table.notes = "paper: CAIS per-GPU throughput drop stays within 5% up to 32 GPUs".into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_gpu_throughput_stays_flat() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        let first = t.rows.first().unwrap().1[0];
        let last = t.rows.last().unwrap().1[0];
        assert!((first - 1.0).abs() < 1e-9);
        assert!(
            last > 0.75,
            "per-GPU CAIS throughput should not collapse when scaling: {last:.3}"
        );
    }
}
