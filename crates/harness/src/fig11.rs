//! Fig. 11 — end-to-end model speedup across training and inference.
//!
//! CAIS's speedup over every baseline for the three Table-I models, on
//! both the communication-heavy prefill (inference) and one training
//! step of a transformer layer. The paper's headline geomeans: 1.38x
//! over TP-NVLS, ~1.9x over SP-NVLS/CoCoNet/FuseLib, 1.61x over T3,
//! 1.2-1.25x over the NVLS-enhanced overlappers, 1.45x over T3-NVLS,
//! ~7.6x over LADM, and ~1.45x over CAIS-Base.

use crate::runner::{push_speedups, roster, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use llm_workload::{ModelConfig, Pass};

/// The experiment: one table per phase (inference, training), each over
/// the full strategy × model cross product.
pub const EXPERIMENT: Experiment = Experiment::new("fig11", manifest, render);

fn models(scale: Scale) -> Vec<ModelConfig> {
    scale.pick(
        ModelConfig::table1(),
        vec![scale.model(&ModelConfig::mega_gpt_4b())],
    )
}

fn passes(scale: Scale) -> Vec<(&'static str, Pass)> {
    scale.pick(
        vec![("inference", Pass::Forward), ("training", Pass::Training)],
        vec![("inference", Pass::Forward)],
    )
}

/// Per phase and model, the whole roster.
fn manifest(scale: Scale) -> Vec<JobSpec> {
    let (models, cfg) = (models(scale), scale.system());
    let mut specs = Vec::new();
    for (_, pass) in passes(scale) {
        for model in &models {
            for entry in roster() {
                let label = format!("{}/{}/{pass:?}", entry.strategy.name(), model.name);
                let workload = Workload::layer(model, entry.mode, pass);
                specs.push(JobSpec::new(label, workload, entry.strategy, cfg.clone()));
            }
        }
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let models = models(scale);
    let per_phase = results.len() / passes(scale).len();
    passes(scale)
        .into_iter()
        .zip(results.chunks(per_phase))
        .map(|((phase, _), results)| {
            let mut columns: Vec<String> = models.iter().map(|m| m.name.to_string()).collect();
            columns.push("geomean".into());
            let title = format!("CAIS end-to-end speedup, {phase}");
            let mut table = Table::new("fig11", title, columns);
            push_speedups(&mut table, results);
            table.absorb_failures(results);
            table.notes = "values are CAIS time advantage over each system (>1 = CAIS faster); \
                           paper geomeans: TP-NVLS 1.38, SP-NVLS 1.89, CoCoNet 1.98, \
                           FuseLib 1.90, T3 1.61, CoCoNet-NVLS 1.25, FuseLib-NVLS 1.21, \
                           T3-NVLS 1.45, LADM 7.6, CAIS-Base ~1.45"
                .into();
            table
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cais_beats_every_baseline_in_smoke_run() {
        let tables = EXPERIMENT.run(Scale::Smoke, 1);
        let t = &tables[0];
        for (label, values) in &t.rows {
            let geo = *values.last().unwrap();
            if label == "vs CAIS" {
                assert!((geo - 1.0).abs() < 1e-9);
            } else {
                assert!(geo > 1.0, "{label} should trail CAIS, got {geo:.3}");
            }
        }
    }
}
