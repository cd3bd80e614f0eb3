//! Determinism: identical configurations must produce bit-identical
//! simulation results, regardless of host hash randomization.

use cais::baselines::BaselineStrategy;
use cais::core::CaisStrategy;
use cais::engine::{strategy::execute, Strategy, SystemConfig};
use cais::harness::runner::Scale;
use cais::llm_workload::{sublayer, ModelConfig, SubLayer};
use cais::sim_core::SimDuration;

fn small_model() -> ModelConfig {
    ModelConfig {
        hidden: 1024,
        ffn_hidden: 2048,
        heads: 8,
        seq_len: 512,
        batch: 1,
        ..ModelConfig::llama_7b()
    }
}

fn cfg() -> SystemConfig {
    let mut cfg = SystemConfig::dgx_h100();
    cfg.n_gpus = 4;
    cfg.n_planes = 2;
    cfg.fabric = cais::noc_sim::FabricConfig::default_for(4, 2);
    cfg
}

fn run_twice(strategy: impl Fn() -> Box<dyn Strategy>) {
    let dfg = sublayer(&small_model(), 4, SubLayer::L1);
    let a = execute(strategy().as_ref(), &dfg, &cfg()).expect("run completes");
    let b = execute(strategy().as_ref(), &dfg, &cfg()).expect("run completes");
    assert_eq!(
        a.total,
        b.total,
        "{}: totals must be bit-identical across runs",
        strategy().name()
    );
    assert_eq!(a.gpu_occupancy, b.gpu_occupancy);
    assert_eq!(a.logic_stats, b.logic_stats);
    assert_eq!(a.deduped_fetches, b.deduped_fetches);
}

#[test]
fn cais_is_deterministic() {
    run_twice(|| Box::new(CaisStrategy::full()));
}

#[test]
fn cais_base_is_deterministic() {
    run_twice(|| Box::new(CaisStrategy::base()));
}

#[test]
fn nvls_baseline_is_deterministic() {
    run_twice(|| Box::new(BaselineStrategy::sp_nvls()));
}

#[test]
fn ring_baseline_is_deterministic() {
    run_twice(|| Box::new(BaselineStrategy::coconet()));
}

#[test]
fn t3_is_deterministic() {
    run_twice(|| Box::new(BaselineStrategy::t3_nvls()));
}

/// The merge-table *eviction* machinery (LRU victim selection, the
/// timeout sweep walking every port, re-arm scheduling) must be as
/// host-independent as the happy path. A tiny table plus a tight
/// timeout on a multi-plane system forces both eviction kinds to fire;
/// the full stat vector (which includes every eviction counter) must
/// come back bit-identical.
#[test]
fn merge_table_eviction_paths_are_deterministic() {
    let strategy = || {
        // Uncoordinated and unthrottled so requests burst, on a table
        // holding only a handful of packet-sized sessions per port,
        // with a timeout tight enough for the sweep to fire mid-run.
        CaisStrategy::full()
            .with_coordination("w/o-coord", cais::core::CoordinationOpts::none())
            .with_credits(None)
            .with_merge_table(Some(64 * 1024))
            .with_timeout(SimDuration::from_us(2))
    };
    let dfg = sublayer(&small_model(), 4, SubLayer::L2);
    let a = execute(&strategy(), &dfg, &cfg()).expect("run completes");
    let b = execute(&strategy(), &dfg, &cfg()).expect("run completes");
    assert_eq!(a.total, b.total, "totals must be bit-identical");
    assert_eq!(a.gpu_occupancy, b.gpu_occupancy);
    assert_eq!(
        a.logic_stats, b.logic_stats,
        "MergeStats must be bit-identical"
    );
    assert_eq!(a.deduped_fetches, b.deduped_fetches);
    // The point of the config: both eviction paths actually ran.
    let stat = |key: &str| a.stat(key).unwrap_or(0.0);
    assert!(
        stat("cais.evictions_lru") + stat("cais.evictions_timeout") > 0.0,
        "config must exercise the eviction machinery (lru={}, timeout={})",
        stat("cais.evictions_lru"),
        stat("cais.evictions_timeout"),
    );
}

#[test]
fn different_seeds_differ() {
    let dfg = sublayer(&small_model(), 4, SubLayer::L1);
    let a = execute(&CaisStrategy::full(), &dfg, &cfg()).expect("run completes");
    let mut cfg2 = cfg();
    cfg2.seed ^= 0xDEAD_BEEF;
    let b = execute(&CaisStrategy::full(), &dfg, &cfg2).expect("run completes");
    assert_ne!(a.total, b.total, "jitter must actually depend on the seed");
}

#[test]
fn cadence_audits_leave_the_report_unchanged() {
    // Audits run between engine steps and inside the fabric's run-ahead
    // alike; at every cadence the run reports the same bytes, step count
    // included.
    let cfg = Scale::Smoke.system();
    let model = Scale::Smoke.model(&ModelConfig::llama_7b());
    let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
    let plain = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
    assert!(
        plain.events_processed > 10_000,
        "{}",
        plain.events_processed
    );
    for cadence in [1, 7, 4096] {
        let mut audited = cfg.clone();
        audited.audit.enabled = true;
        audited.audit.cadence_events = cadence;
        let report = execute(&CaisStrategy::full(), &dfg, &audited).expect("audited run completes");
        assert_eq!(
            format!("{report:?}"),
            format!("{plain:?}"),
            "cadence {cadence}"
        );
    }
}
