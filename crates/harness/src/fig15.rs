//! Fig. 15 — average bandwidth utilization per sub-layer.
//!
//! CAIS-Base vs. CAIS-Partial (graph-level optimizer, no traffic
//! control) vs. full CAIS, averaged across all links and both directions.
//! Paper averages: 62.4% → 84.7% → 90.2%.

use crate::runner::{Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_core::CaisStrategy;
use cais_engine::Strategy;
use llm_workload::{ModelConfig, SubLayer};

/// The experiment: one job per sub-layer × CAIS variant.
pub const EXPERIMENT: Experiment = Experiment::new("fig15", manifest, render);

fn sublayers(scale: Scale) -> Vec<SubLayer> {
    scale.pick(SubLayer::ALL.to_vec(), vec![SubLayer::L1, SubLayer::L2])
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.model(&ModelConfig::llama_7b());
    let mut specs = Vec::new();
    for which in sublayers(scale) {
        for strategy in variants() {
            let label = format!("{}/{}", strategy.name(), which.label());
            let workload = Workload::sublayer(&model, which);
            let spec = JobSpec::new(label, workload, Box::new(strategy), scale.system());
            specs.push(spec);
        }
    }
    specs
}

/// The three CAIS variants compared, in column order; Fig. 16 compares
/// the same three.
pub(crate) fn variants() -> [CaisStrategy; 3] {
    [
        CaisStrategy::base(),
        CaisStrategy::partial(),
        CaisStrategy::full(),
    ]
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let sublayers = sublayers(scale);
    let mut table = Table::new(
        "fig15",
        "mean link bandwidth utilization per sub-layer (%)",
        vec!["CAIS-Base".into(), "CAIS-Partial".into(), "CAIS".into()],
    );
    let mut sums = [0.0f64; 3];
    for (triple, which) in results.chunks(3).zip(&sublayers) {
        let mut row = Vec::with_capacity(3);
        for (i, res) in triple.iter().enumerate() {
            let util = res
                .report()
                .map(|r| r.fabric.mean_utilization() * 100.0)
                .unwrap_or(f64::NAN);
            sums[i] += util;
            row.push(util);
        }
        table.push(which.label(), row);
    }
    table.absorb_failures(results);
    let n = sublayers.len() as f64;
    table.push("average", sums.iter().map(|s| s / n).collect());
    table.notes = "paper averages: 62.4 / 84.7 / 90.2".into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimizer_and_traffic_control_raise_utilization() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        let avg = &t.rows.last().unwrap().1;
        assert!(
            avg[2] > avg[0],
            "full CAIS ({:.1}%) must beat CAIS-Base ({:.1}%)",
            avg[2],
            avg[0]
        );
    }
}
