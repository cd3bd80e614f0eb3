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

use crate::runner::{Scale, Table};
use crate::sweep::{self, SweepJob};
use cais_core::strategies::DEFAULT_PACKET_BYTES;
use cais_core::{CaisStrategy, CoordinationOpts};
use cais_engine::strategy::execute;
use llm_workload::{sublayer, ModelConfig, SubLayer};

/// Runs both halves of the experiment.
pub fn run(scale: Scale, jobs: usize) -> Vec<Table> {
    vec![run_table_size(scale, jobs), run_ablation(scale, jobs)]
}

/// Fig. 13a: minimal required merge-table size per sub-layer. Two sweep
/// jobs (coordinated, uncoordinated) per model × sub-layer cell.
pub fn run_table_size(scale: Scale, jobs: usize) -> Table {
    let models: Vec<ModelConfig> = match scale {
        Scale::Paper => ModelConfig::table1(),
        Scale::Smoke => vec![Scale::Smoke.model(&ModelConfig::llama_7b())],
    };
    let sublayers: Vec<SubLayer> = match scale {
        Scale::Paper => SubLayer::ALL.to_vec(),
        Scale::Smoke => vec![SubLayer::L1],
    };
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
    let cfg = scale.system();
    let cells: Vec<(&ModelConfig, SubLayer)> = models
        .iter()
        .flat_map(|m| sublayers.iter().map(move |w| (m, *w)))
        .collect();
    let manifest: Vec<SweepJob> = cells
        .iter()
        .flat_map(|(model, which)| {
            let mk = |coordinated: bool| {
                let (model, cfg, which) = ((*model).clone(), cfg.clone(), *which);
                let tag = if coordinated { "coord" } else { "uncoord" };
                SweepJob::new(
                    format!("{}/{}/{tag}", model.name, which.label()),
                    move || {
                        let dfg = sublayer(&model, cfg.tp(), which);
                        let mut strategy = CaisStrategy::full().with_merge_table(None);
                        if !coordinated {
                            strategy =
                                strategy.with_coordination("w/o-coord", CoordinationOpts::none());
                        }
                        execute(&strategy, &dfg, &cfg)
                    },
                )
            };
            [mk(true), mk(false)]
        })
        .collect();
    let results = sweep::run_jobs(manifest, jobs);
    sweep::log_timing("fig13a", &results);
    for (pair, (model, which)) in results.chunks(2).zip(&cells) {
        let occupancy = |r: &sweep::JobResult| {
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
    table.absorb_failures(&results);
    table.notes = "paper: coordinated <40 KB on every sub-layer, uncoordinated up to 250 KB \
                   (87% reduction)"
        .into();
    table
}

/// Fig. 13b: the cumulative coordination ablation ladder. One sweep job
/// per ladder rung.
pub fn run_ablation(scale: Scale, jobs: usize) -> Table {
    let model = scale.model(&ModelConfig::llama_7b());
    let cfg = scale.system();
    let mut table = Table::new(
        "fig13b",
        "mean request spread per merged address (us)",
        vec!["spread_us".into()],
    );
    let ladder = CoordinationOpts::ladder();
    let manifest: Vec<SweepJob> = ladder
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let (model, cfg) = (model.clone(), cfg.clone());
            SweepJob::new(*name, move || {
                let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
                let (name, opts) = CoordinationOpts::ladder().swap_remove(i);
                execute(
                    &CaisStrategy::full()
                        .with_coordination(name, opts)
                        .with_merge_table(None),
                    &dfg,
                    &cfg,
                )
            })
        })
        .collect();
    let results = sweep::run_jobs(manifest, jobs);
    sweep::log_timing("fig13b", &results);
    for (res, (name, _)) in results.iter().zip(&ladder) {
        let spread = res
            .report()
            .map(|r| r.stat("cais.mean_spread_us").unwrap_or(0.0))
            .unwrap_or(f64::NAN);
        table.push(*name, vec![spread]);
    }
    table.absorb_failures(&results);
    table.notes = "paper: 35 us uncoordinated falling below 3 us with all mechanisms".into();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordination_shrinks_required_table() {
        let t = run_table_size(Scale::Smoke, 1);
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
        let t = run_ablation(Scale::Smoke, 1);
        let first = t.rows.first().unwrap().1[0];
        let last = t.rows.last().unwrap().1[0];
        assert!(
            last < first,
            "full coordination ({last:.2} us) must beat baseline ({first:.2} us)"
        );
    }
}
