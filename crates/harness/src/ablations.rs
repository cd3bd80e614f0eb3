//! Design-choice ablations beyond the paper's figures.
//!
//! DESIGN.md calls out three lowering/architecture choices worth
//! sensitivity analysis:
//!
//! 1. **`red.cais` packet granularity** — how finely reduction tiles are
//!    split into mergeable switch packets (the paper's hardware works on
//!    128 B lines; our simulator defaults to 8 KB);
//! 2. **throttle credits** — the per-(GPU, plane) outstanding-request cap
//!    that backs TB-aware request throttling;
//! 3. **cross-layer fusion** — whether the graph-level optimizer's
//!    ability to fuse across *layer* boundaries (the L2/L4 patterns)
//!    materializes as end-to-end gains on a multi-layer stack.

use crate::runner::{Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_core::CaisStrategy;
use llm_workload::{Pass, SubLayer, TpMode};

/// All three ablations: packet size, then credits, then the stack.
pub const EXPERIMENT: Experiment = Experiment::new("ablations", manifest, render);

/// Ablation 1's reduction packet sizes.
fn packet_sizes(scale: Scale) -> Vec<u64> {
    scale.pick(
        vec![2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10],
        vec![4 << 10, 8 << 10, 32 << 10],
    )
}

/// Ablation 2's throttle-credit settings.
const CREDITS: [(&str, Option<usize>); 5] = [
    ("8", Some(8)),
    ("16", Some(16)),
    ("64 (default)", Some(64)),
    ("256", Some(256)),
    ("unthrottled", None),
];

/// Ablation 3's cases: the two stack strategies plus the single-layer
/// reference.
type StackCase = (&'static str, fn() -> CaisStrategy, u64);
const STACK_CASES: [StackCase; 3] = [
    ("CAIS stack", CaisStrategy::full, 2),
    ("CAIS-Base stack", CaisStrategy::base, 2),
    ("2 x CAIS single layer", CaisStrategy::full, 1),
];

/// One job per packet size, per credit setting and per stack case.
fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.llama_7b_halved();
    let l2 = || Workload::sublayer(&model, SubLayer::L2);
    let cfg = scale.system();
    let mut specs = Vec::new();
    for bytes in packet_sizes(scale) {
        let strategy = CaisStrategy::full()
            .with_packet_bytes(bytes)
            .with_merge_table(None);
        let label = format!("packet/{}kb", bytes >> 10);
        specs.push(JobSpec::new(label, l2(), Box::new(strategy), cfg.clone()));
    }
    for (label, credits) in CREDITS {
        let strategy = Box::new(CaisStrategy::full().with_credits(credits));
        let label = format!("credits/{label}");
        specs.push(JobSpec::new(label, l2(), strategy, cfg.clone()));
    }
    for (label, make, layers) in STACK_CASES {
        let workload = Workload::Layers {
            model: model.clone(),
            mode: TpMode::SeqPar,
            pass: Pass::Forward,
            layers,
        };
        specs.push(JobSpec::new(label, workload, Box::new(make()), cfg.clone()));
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let sizes = packet_sizes(scale);
    let (packet, rest) = results.split_at(sizes.len());
    let (credits, stack) = rest.split_at(CREDITS.len());
    vec![
        packet_size(&sizes, packet),
        credit_table(credits),
        multi_layer(stack),
    ]
}

/// Ablation 1: reduction packet granularity.
fn packet_size(sizes: &[u64], results: &[JobResult]) -> Table {
    let mut table = Table::new(
        "abl-packet",
        "CAIS sensitivity to red.cais packet granularity (L2)",
        vec!["time_us".into(), "peak_table_kb".into()],
    );
    for (res, &bytes) in results.iter().zip(sizes) {
        let peak = res
            .report()
            .map(|r| r.stat("cais.peak_port_occupancy").unwrap_or(0.0) / 1024.0)
            .unwrap_or(f64::NAN);
        let us = res
            .report()
            .map(|r| r.total.as_us_f64())
            .unwrap_or(f64::NAN);
        table.push(format!("{} KB", bytes >> 10), vec![us, peak]);
    }
    table.absorb_failures(results);
    table.notes = "finer packets shrink the required merge table (shorter session \
                   lifetimes) at the cost of more switch transactions"
        .into();
    table
}

/// Ablation 2: throttle credits.
fn credit_table(results: &[JobResult]) -> Table {
    let mut table = Table::new(
        "abl-credits",
        "CAIS sensitivity to throttle credits per (GPU, plane) (L2, 40 KB table)",
        vec!["time_us".into(), "evictions".into()],
    );
    for (res, (label, _)) in results.iter().zip(CREDITS) {
        let (us, evictions) = match res.report() {
            Some(r) => (
                r.total.as_us_f64(),
                r.stat("cais.evictions_lru").unwrap_or(0.0)
                    + r.stat("cais.evictions_timeout").unwrap_or(0.0),
            ),
            None => (f64::NAN, f64::NAN),
        };
        table.push(label, vec![us, evictions]);
    }
    table.absorb_failures(results);
    table.notes = "too few credits starve the links; too many overflow the table \
                   (evictions) when requests burst"
        .into();
    table
}

/// Ablation 3: cross-layer fusion on a 2-layer stack.
fn multi_layer(results: &[JobResult]) -> Table {
    let mut table = Table::new(
        "abl-stack",
        "cross-layer fusion: 2-layer stack vs 2x single layer",
        vec!["time_us".into()],
    );
    for (res, (label, _, layers)) in results.iter().zip(STACK_CASES) {
        let mut us = res
            .report()
            .map(|r| r.total.as_us_f64())
            .unwrap_or(f64::NAN);
        if layers == 1 {
            us *= 2.0; // the single-layer run stands in for two isolated layers
        }
        table.push(label, vec![us]);
    }
    table.absorb_failures(results);
    table.notes = "the stack under CAIS should beat two isolated layers: the layer \
                   boundary is an L2-shaped RS+LN+AG chain the optimizer pipelines"
        .into();
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finer_packets_shrink_the_required_table() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[0];
        let first = &t.rows.first().unwrap(); // 4 KB
        let last = &t.rows.last().unwrap(); // 32 KB
        assert!(
            first.1[1] < last.1[1],
            "4 KB packets ({:.0} KB table) should need less than 32 KB packets ({:.0} KB)",
            first.1[1],
            last.1[1]
        );
    }

    #[test]
    fn starvation_credits_hurt() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[1];
        let tight = t.rows[0].1[0];
        let default = t.rows[2].1[0];
        assert!(
            tight >= default * 0.95,
            "8 credits ({tight:.0} us) should not beat the default ({default:.0} us) meaningfully"
        );
    }

    #[test]
    fn stack_fusion_does_not_regress() {
        let t = &EXPERIMENT.run(Scale::Smoke, 1)[2];
        let stack = t.rows[0].1[0];
        let two_singles = t.rows[2].1[0];
        assert!(
            stack <= two_singles * 1.05,
            "fused stack {stack:.0} us vs 2x single {two_singles:.0} us"
        );
    }
}
