//! Fig. 12 — sub-layer performance speedup (L1–L4).
//!
//! The four GEMM-RS → LN → AG-GEMM sub-layers are the graph-level
//! optimizer's home turf; paper geomeans run slightly above the
//! end-to-end numbers (e.g. 1.39x over TP-NVLS, 1.64x over T3, 7.9x
//! over LADM).

use crate::runner::{push_speedups, roster, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use llm_workload::{ModelConfig, SubLayer};

/// The experiment: one job per strategy × sub-layer.
pub const EXPERIMENT: Experiment = Experiment::new("fig12", manifest, render);

fn sublayers(scale: Scale) -> Vec<SubLayer> {
    scale.pick(SubLayer::ALL.to_vec(), vec![SubLayer::L1, SubLayer::L2])
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.model(&ModelConfig::llama_7b());
    sublayers(scale)
        .into_iter()
        .flat_map(|which| roster().into_iter().map(move |entry| (which, entry)))
        .map(|(which, entry)| {
            let label = format!("{}/{}", entry.strategy.name(), which.label());
            let workload = Workload::sublayer(&model, which);
            JobSpec::new(label, workload, entry.strategy, scale.system())
        })
        .collect()
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let model = scale.model(&ModelConfig::llama_7b());
    let sublayers = sublayers(scale);
    let mut columns: Vec<String> = sublayers.iter().map(|s| s.label().to_string()).collect();
    columns.push("geomean".into());
    let mut table = Table::new(
        "fig12",
        format!("CAIS sub-layer speedup on {}", model.name),
        columns,
    );
    push_speedups(&mut table, results);
    table.absorb_failures(results);
    table.notes =
        "all systems run the same RS+LN+AG sub-layer graph; paper geomeans: TP-NVLS 1.39, \
         SP-NVLS 1.91, T3 1.64, T3-NVLS 1.47, LADM 7.9, CAIS-Base ~1.47"
            .into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sublayer_speedups_favor_cais() {
        let tables = EXPERIMENT.run(Scale::Smoke, 1);
        let t = &tables[0];
        for (label, values) in &t.rows {
            if label != "vs CAIS" {
                let geo = *values.last().unwrap();
                assert!(geo > 0.95, "{label}: {geo:.3}");
            }
        }
        // The stripped-down CAIS-Base must clearly trail full CAIS here.
        let base = t.cell("vs CAIS-Base", "geomean").unwrap();
        assert!(base > 1.05, "CAIS-Base geomean {base:.3}");
    }
}
