//! One counter vocabulary: every subsystem lists each counter it owns
//! exactly once, under its owner's prefix, and the run report's scalar
//! fields and switch-logic statistics read that same list.

use cais::baselines::BaselineStrategy;
use cais::core::CaisStrategy;
use cais::engine::{strategy::execute, ExecReport, Strategy};
use cais::harness::runner::Scale;
use cais::llm_workload::{sublayer, ModelConfig, SubLayer};
use cais::sim_core::{DegradeSpec, FaultPlan, SimDuration};
use std::collections::HashSet;

/// The LLaMA-7B L2 smoke sub-layer under `strategy`, with packet drops
/// and degradation windows so the resilience counters are not all zero.
fn faulted_smoke_run(strategy: &dyn Strategy) -> ExecReport {
    let mut cfg = Scale::Smoke.system();
    cfg.faults = FaultPlan::default()
        .with_seed(7)
        .with_drop_rate(1e-3)
        .with_degrade(DegradeSpec {
            factor: 2.0,
            period: SimDuration::from_us(10),
            duration: SimDuration::from_us(3),
        });
    let model = Scale::Smoke.model(&ModelConfig::llama_7b());
    let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
    execute(strategy, &dfg, &cfg).expect("smoke run completes")
}

fn check_vocabulary(logic_prefix: &str, r: &ExecReport) {
    let names: Vec<&str> = r.counters.iter().map(|(k, _)| *k).collect();
    let unique: HashSet<&str> = names.iter().copied().collect();
    assert_eq!(
        unique.len(),
        names.len(),
        "a counter is listed twice: {names:?}"
    );

    // Fabric, engine, then the switch logic, each under its own prefix.
    let owner_rank = |name: &str| {
        ["fabric.", "engine.", logic_prefix]
            .iter()
            .position(|p| name.starts_with(p))
            .unwrap_or_else(|| panic!("{name} carries no owner prefix"))
    };
    let ranks: Vec<usize> = names.iter().map(|n| owner_rank(n)).collect();
    assert!(ranks.is_sorted(), "owners interleave: {names:?}");
    assert_eq!(ranks.first(), Some(&0));
    assert_eq!(ranks.last(), Some(&2));

    // The engine's components list their own counters: the tile
    // directory, the CAIS host protocol, then the kernel DAG.
    let engine: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| n.starts_with("engine."))
        .collect();
    assert_eq!(
        engine,
        [
            "engine.blocked_tbs",
            "engine.semantic_contribs",
            "engine.deduped_fetches",
            "engine.inflight_cais_loads",
            "engine.throttle_outstanding",
            "engine.throttle_queued",
            "engine.credits_over_returned",
            "engine.preaccess_blocked",
            "engine.kernels_remaining",
        ]
    );

    let listed_logic: Vec<(String, f64)> = r
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(logic_prefix))
        .map(|&(k, v)| (k.to_owned(), v))
        .collect();
    assert_eq!(r.logic_stats, listed_logic);

    let counter = |name: &str| {
        r.stat(name)
            .unwrap_or_else(|| panic!("{name} is not listed"))
    };
    let fabric = &r.fabric;
    let res = fabric.resilience();
    for (name, field) in [
        ("engine.semantic_contribs", r.semantic_contribs),
        ("engine.deduped_fetches", r.deduped_fetches),
        ("fabric.early_departures", fabric.early_departures()),
        ("fabric.events_saved", fabric.events_saved()),
        ("fabric.drops", res.drops),
        ("fabric.corruptions", res.corruptions),
        ("fabric.retries", res.retries),
        ("fabric.budget_exhausted", res.budget_exhausted),
        ("fabric.down_stalls", res.down_stalls),
        ("fabric.degraded_serves", res.degraded_serves),
    ] {
        assert_eq!(counter(name), field as f64, "{name}");
    }
    assert_eq!(counter("fabric.backoff_us"), res.backoff_time.as_us_f64());
    assert!(res.drops > 0 && res.degraded_serves > 0, "{res:?}");
}

#[test]
fn cais_run_lists_each_counter_once() {
    let r = faulted_smoke_run(&CaisStrategy::full());
    check_vocabulary("cais.", &r);
    assert!(r.stat("cais.sessions_opened").unwrap() > 0.0);
}

#[test]
fn nvls_run_lists_each_counter_once() {
    let r = faulted_smoke_run(&BaselineStrategy::tp_nvls());
    check_vocabulary("nvls.", &r);
    let switch_ops: f64 = r.logic_stats.iter().map(|(_, v)| v).sum();
    assert!(switch_ops > 0.0, "{:?}", r.logic_stats);
}
