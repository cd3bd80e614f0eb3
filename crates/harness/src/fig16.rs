//! Fig. 16 — bandwidth utilization over time (L2 sub-layer, LLaMA-7B).
//!
//! Time series for CAIS-Base, CAIS-Partial and full CAIS. The paper
//! shows CAIS sustaining near-peak utilization while the partial
//! configuration dips under contention and the base configuration
//! fluctuates at low levels.

use crate::runner::{Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_engine::Strategy;
use llm_workload::{ModelConfig, SubLayer};
use sim_core::SimDuration;

/// The experiment; rows are time buckets. One job per CAIS variant.
pub const EXPERIMENT: Experiment = Experiment::new("fig16", manifest, render);

fn bucket(scale: Scale) -> SimDuration {
    scale.pick(SimDuration::from_us(10), SimDuration::from_us(5))
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.model(&ModelConfig::llama_7b());
    let mut cfg = scale.system();
    cfg.fabric.series_bucket = Some(bucket(scale));
    let l2 = Workload::sublayer(&model, SubLayer::L2);
    crate::fig15::variants()
        .into_iter()
        .map(|s| JobSpec::new(s.name().to_string(), l2.clone(), Box::new(s), cfg.clone()))
        .collect()
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let bucket = bucket(scale);
    let mut table = Table::new(
        "fig16",
        "link utilization over time, L2 sub-layer (%)",
        vec!["CAIS-Base".into(), "CAIS-Partial".into(), "CAIS".into()],
    );
    let series: Vec<Vec<f64>> = results
        .iter()
        .map(|r| {
            r.report()
                .map(|rep| rep.fabric.mean_series())
                .unwrap_or_default()
        })
        .collect();
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    for i in 0..len {
        let row: Vec<f64> = series
            .iter()
            .map(|s| s.get(i).copied().unwrap_or(0.0) * 100.0)
            .collect();
        table.push(format!("t={}us", i as u64 * bucket.as_ns() / 1000), row);
    }
    table.absorb_failures(results);
    table.notes = "each row is one time bucket; CAIS should sustain the highest steady \
                   utilization and finish first (zeros after completion)"
        .into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cais_sustains_higher_peak_utilization() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        let peak = |col: usize| t.rows.iter().map(|(_, v)| v[col]).fold(0.0f64, f64::max);
        assert!(
            peak(2) >= peak(0),
            "CAIS peak {:.1}% vs base peak {:.1}%",
            peak(2),
            peak(0)
        );
        assert!(!t.rows.is_empty());
    }
}
