//! Table II — validation of the scaled-down methodology.
//!
//! The paper justifies running half-size models on half-SM GPUs by
//! showing the CAIS-over-TP-NVLS speedup barely moves between the full
//! setup (hidden 8192, 132 SMs) and the half setup (hidden 4096, 66
//! SMs): 1.43x vs. 1.40x.

use crate::runner::{tp_nvls_and_cais, Entry, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use gpu_sim::GpuConfig;
use llm_workload::{ModelConfig, Pass};

/// The experiment: two jobs (TP-NVLS, CAIS) per setup.
pub const EXPERIMENT: Experiment = Experiment::new("table2", manifest, render);

fn setups(scale: Scale) -> [(String, ModelConfig, GpuConfig); 2] {
    let half = scale.model(&ModelConfig::llama_7b());
    let full = scale.pick(ModelConfig::llama_full_scale(), half.scale_hidden(2, 1));
    [
        ("full", full, GpuConfig::h100_full()),
        ("half", half, GpuConfig::h100_half()),
    ]
    .map(|(name, model, gpu)| {
        let label = format!("{name} ({}, {} SM)", model.hidden, gpu.sm_count);
        (label, model, gpu)
    })
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (setup, model, gpu) in setups(scale) {
        let mut cfg = scale.system();
        cfg.gpu = gpu;
        for Entry { strategy, mode } in tp_nvls_and_cais() {
            let label = format!("{setup}/{}", strategy.name());
            let workload = Workload::layer(&model, mode, Pass::Forward);
            specs.push(JobSpec::new(label, workload, strategy, cfg.clone()));
        }
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let mut table = Table::new(
        "table2",
        "scaled-down validation: CAIS speedup over TP-NVLS",
        vec!["speedup".into()],
    );
    for (pair, (label, _, _)) in results.chunks(2).zip(setups(scale)) {
        table.push(label, vec![pair[0].secs() / pair[1].secs()]);
    }
    table.absorb_failures(results);
    table.notes = "paper: 1.43 (full) vs 1.40 (half) — the half-scale setup preserves the \
                   speedup ordering and magnitude"
        .into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_scale_preserves_speedup_magnitude() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        let full = t.rows[0].1[0];
        let half = t.rows[1].1[0];
        assert!(full > 1.0 && half > 1.0, "CAIS must win in both setups");
        let rel = (full - half).abs() / full;
        assert!(
            rel < 0.25,
            "full {full:.2} vs half {half:.2}: scaled-down setup should track"
        );
    }
}
