//! Fig. 13 — merge-table sizing and the coordination ablation.
//!
//! (a) Minimal Merging-Table size needed to merge every mergeable
//! request, with and without merging-aware TB coordination: the paper
//! reports <40 KB/port coordinated vs. up to ~250 KB/port uncoordinated
//! (an 87% reduction). Measured here as the peak per-port occupancy of
//! an *unbounded* table.
//!
//! (b) The cumulative coordination ablation: average waiting time
//! between the earliest and latest request for the same address, from
//! ~35 µs uncoordinated down to <3 µs with all mechanisms.

use crate::runner::{Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_core::strategies::DEFAULT_PACKET_BYTES;
use cais_core::{CaisStrategy, CoordinationOpts};
use llm_workload::{ModelConfig, SubLayer};

/// The experiment: both halves, (a) then (b).
pub const EXPERIMENT: Experiment = Experiment::new("fig13", manifest, render);

/// Fig. 13a's (model, sub-layer) cells.
fn cells(scale: Scale) -> Vec<(ModelConfig, SubLayer)> {
    let models = scale.pick(
        ModelConfig::table1(),
        vec![scale.model(&ModelConfig::llama_7b())],
    );
    let sublayers = scale.pick(SubLayer::ALL.to_vec(), vec![SubLayer::L1]);
    models
        .iter()
        .flat_map(|m| sublayers.iter().map(move |&w| (m.clone(), w)))
        .collect()
}

/// Fig. 13a: two jobs (coordinated, uncoordinated) per model ×
/// sub-layer cell, on an unbounded table. Fig. 13b: one job per rung of
/// the cumulative coordination ladder, on the L2 sub-layer.
fn manifest(scale: Scale) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (model, which) in cells(scale) {
        for coordinated in [true, false] {
            let mut strategy = CaisStrategy::full().with_merge_table(None);
            if !coordinated {
                strategy = strategy.with_coordination("w/o-coord", CoordinationOpts::none());
            }
            let tag = if coordinated { "coord" } else { "uncoord" };
            let label = format!("{}/{}/{tag}", model.name, which.label());
            let workload = Workload::sublayer(&model, which);
            let spec = JobSpec::new(label, workload, Box::new(strategy), scale.system());
            specs.push(spec);
        }
    }
    let model = scale.model(&ModelConfig::llama_7b());
    for (name, opts) in CoordinationOpts::ladder() {
        let strategy = CaisStrategy::full()
            .with_coordination(name, opts)
            .with_merge_table(None);
        let l2 = Workload::sublayer(&model, SubLayer::L2);
        specs.push(JobSpec::new(name, l2, Box::new(strategy), scale.system()));
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let cells = cells(scale);
    let (sizing, ladder) = results.split_at(2 * cells.len());
    vec![table_size(&cells, sizing), ablation(ladder)]
}

/// Fig. 13a: minimal required merge-table size per sub-layer.
fn table_size(cells: &[(ModelConfig, SubLayer)], results: &[JobResult]) -> Table {
    // Peak occupancy is measured in simulator bytes; report it on the
    // paper's axis by converting through entry counts (entry = one
    // packet-granularity session; the paper's entries are 128 B).
    let to_paper_kb = |bytes: f64| bytes / (DEFAULT_PACKET_BYTES + 16) as f64 * 128.0 / 1024.0;
    let mut table = Table::new(
        "fig13a",
        "minimal merge-table size to merge all requests (paper-equivalent KB/port)",
        vec![
            "coordinated_kb".into(),
            "uncoordinated_kb".into(),
            "reduction_%".into(),
        ],
    );
    for (pair, (model, which)) in results.chunks(2).zip(cells) {
        let occupancy = |r: &JobResult| {
            r.report()
                .map(|rep| rep.stat("cais.peak_port_occupancy").unwrap_or(0.0))
                .unwrap_or(f64::NAN)
        };
        let c = to_paper_kb(occupancy(&pair[0]));
        let u = to_paper_kb(occupancy(&pair[1]));
        let red = if u > 0.0 {
            (1.0 - c / u) * 100.0
        } else if u.is_nan() {
            f64::NAN
        } else {
            0.0
        };
        table.push(format!("{} {}", model.name, which.label()), vec![c, u, red]);
    }
    table.absorb_failures(results);
    table.notes = "paper: coordinated <40 KB on every sub-layer, uncoordinated up to 250 KB \
                   (87% reduction)"
        .into();
    table
}

/// Fig. 13b: the cumulative coordination ablation ladder.
fn ablation(results: &[JobResult]) -> Table {
    let mut table = Table::new(
        "fig13b",
        "mean request spread per merged address (us)",
        vec!["spread_us".into()],
    );
    for (res, (name, _)) in results.iter().zip(CoordinationOpts::ladder()) {
        let spread = res
            .report()
            .map(|r| r.stat("cais.mean_spread_us").unwrap_or(0.0))
            .unwrap_or(f64::NAN);
        table.push(name, vec![spread]);
    }
    table.absorb_failures(results);
    table.notes = "paper: 35 us uncoordinated falling below 3 us with all mechanisms".into();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_shrinks_required_table() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        for (label, v) in &t.rows {
            let (c, u) = (v[0], v[1]);
            assert!(
                c < u,
                "{label}: coordinated {c:.1} KB must need less than uncoordinated {u:.1} KB"
            );
        }
    }

    #[test]
    fn ablation_monotonically_tightens_spread() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[1];
        let first = t.rows.first().unwrap().1[0];
        let last = t.rows.last().unwrap().1[0];
        assert!(
            last < first,
            "full coordination ({last:.2} us) must beat baseline ({first:.2} us)"
        );
    }
}
