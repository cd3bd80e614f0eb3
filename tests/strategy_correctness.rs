//! Cross-crate correctness: every strategy executes every workload shape
//! to completion with conserved accounting.

use cais::baselines::{BaselineStrategy, LadmStrategy};
use cais::core::CaisStrategy;
use cais::engine::{strategy::execute, ExecReport, Strategy, SystemConfig};
use cais::llm_workload::{sublayer, transformer_layer, ModelConfig, Pass, SubLayer, TpMode};
use cais::noc_sim::Direction;

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
    cfg.coll_chunk_bytes = 128 * 1024;
    cfg
}

fn roster() -> Vec<(Box<dyn Strategy>, TpMode)> {
    vec![
        (Box::new(BaselineStrategy::tp_nvls()), TpMode::BasicTp),
        (Box::new(BaselineStrategy::sp_nvls()), TpMode::SeqPar),
        (Box::new(BaselineStrategy::coconet()), TpMode::BasicTp),
        (Box::new(BaselineStrategy::fuselib()), TpMode::BasicTp),
        (Box::new(BaselineStrategy::t3()), TpMode::SeqPar),
        (Box::new(BaselineStrategy::coconet_nvls()), TpMode::BasicTp),
        (Box::new(BaselineStrategy::fuselib_nvls()), TpMode::BasicTp),
        (Box::new(BaselineStrategy::t3_nvls()), TpMode::SeqPar),
        (Box::new(LadmStrategy::new()), TpMode::SeqPar),
        (Box::new(CaisStrategy::base()), TpMode::SeqPar),
        (Box::new(CaisStrategy::partial()), TpMode::SeqPar),
        (Box::new(CaisStrategy::full()), TpMode::SeqPar),
    ]
}

fn check_report(name: &str, r: &ExecReport) {
    assert!(
        r.total > cais::sim_core::SimDuration::from_us(5),
        "{name}: implausibly fast ({})",
        r.total
    );
    assert!(
        r.total < cais::sim_core::SimDuration::from_ms(50),
        "{name}: implausibly slow ({})",
        r.total
    );
    // Every kernel span is well-formed.
    for s in r.kernel_spans.values() {
        assert!(
            s.end >= s.start,
            "{name}: kernel {} ends before start",
            s.name
        );
    }
    // Fabric moved something in both directions for every strategy (all
    // our workloads are communication-bearing).
    assert!(
        r.fabric.bytes_dir(Direction::Up) > 0,
        "{name}: no upstream traffic"
    );
    assert!(
        r.fabric.bytes_dir(Direction::Down) > 0,
        "{name}: no downstream traffic"
    );
}

#[test]
fn every_strategy_completes_every_sublayer() {
    let cfg = cfg();
    let model = small_model();
    for which in SubLayer::ALL {
        for (strategy, _) in roster() {
            let dfg = sublayer(&model, cfg.tp(), which);
            let r = execute(strategy.as_ref(), &dfg, &cfg).expect("run completes");
            check_report(&format!("{} {}", strategy.name(), which.label()), &r);
        }
    }
}

#[test]
fn every_strategy_completes_forward_and_training_layers() {
    let cfg = cfg();
    let model = small_model();
    for pass in [Pass::Forward, Pass::Training] {
        for (strategy, mode) in roster() {
            let dfg = transformer_layer(&model, cfg.tp(), mode, pass);
            let r = execute(strategy.as_ref(), &dfg, &cfg).expect("run completes");
            check_report(&format!("{} {pass:?}", strategy.name()), &r);
        }
    }
}

#[test]
fn cais_merge_accounting_is_conserved() {
    let cfg = cfg();
    let dfg = sublayer(&small_model(), cfg.tp(), SubLayer::L1);
    let r = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
    let reqs = r.stat("cais.load_requests").unwrap();
    let merged = r.stat("cais.loads_merged").unwrap();
    let forwarded = r.stat("cais.loads_forwarded").unwrap();
    // Every request is either merged into a session or forwarded.
    assert_eq!(merged + forwarded, reqs, "load accounting must balance");
    // No sessions left open at quiescence.
    let contribs = r.stat("cais.reduce_contribs").unwrap();
    let flushes = r.stat("cais.reduce_flushes").unwrap();
    assert!(flushes > 0.0 && flushes <= contribs);
}

#[test]
fn cais_moves_less_upstream_than_unmerged_nvls_gather() {
    // In-switch load merging should cut the gather's *upstream* traffic
    // (one fetch instead of p-1) relative to LADM's unmerged reads.
    let cfg = cfg();
    let dfg = sublayer(&small_model(), cfg.tp(), SubLayer::L1);
    let cais = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
    let ladm = execute(&LadmStrategy::new(), &dfg, &cfg).expect("run completes");
    let cais_up = cais.fabric.bytes_dir(Direction::Up);
    let ladm_up = ladm.fabric.bytes_dir(Direction::Up);
    assert!(
        (cais_up as f64) < 0.7 * ladm_up as f64,
        "CAIS up {cais_up} vs LADM up {ladm_up}"
    );
}

#[test]
fn fused_pipeline_overlaps_kernels_in_time() {
    // Under full CAIS the producer GEMM and the consumer AG-GEMM must be
    // in flight simultaneously (asymmetric kernel overlapping).
    let cfg = cfg();
    let dfg = sublayer(&small_model(), cfg.tp(), SubLayer::L1);
    let r = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
    let span = |prefix: &str| {
        r.kernel_spans
            .values()
            .find(|s| s.gpu == cais::sim_core::GpuId(0) && s.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("kernel {prefix} missing"))
    };
    let producer = span("gemm.attn.proj");
    let consumer = span("gemm.ffn.fc1");
    assert!(
        consumer.start < producer.end,
        "consumer must launch before the producer drains: {} vs {}",
        consumer.start,
        producer.end
    );
}

#[test]
fn base_variant_serializes_stages() {
    let cfg = cfg();
    let dfg = sublayer(&small_model(), cfg.tp(), SubLayer::L1);
    let r = execute(&CaisStrategy::base(), &dfg, &cfg).expect("run completes");
    let span = |prefix: &str| {
        r.kernel_spans
            .values()
            .find(|s| s.gpu == cais::sim_core::GpuId(0) && s.name.starts_with(prefix))
            .unwrap_or_else(|| panic!("kernel {prefix} missing"))
    };
    let mid = span("fused.mid");
    let consumer = span("gemm.ffn.fc1");
    assert!(
        consumer.start >= mid.end,
        "CAIS-Base keeps the coarse barrier: consumer {} vs mid end {}",
        consumer.start,
        mid.end
    );
}

/// `run` depends only on its arguments: everything lowering hands to the
/// switch travels in the `Program`, so a strategy that lowered other
/// graphs in between runs an earlier program exactly like a fresh one.
/// L1 and L2 of one model lower to the same sync-group sizes; a longer
/// sequence lowers to more groups, with the owner-skipping `p - 1` groups
/// at other ids.
#[test]
fn cais_run_ignores_later_lowerings_on_the_same_strategy() {
    let (model, cfg) = (small_model(), cfg());
    let longer = ModelConfig {
        seq_len: 2 * model.seq_len,
        ..model.clone()
    };
    let l1 = sublayer(&model, cfg.tp(), SubLayer::L1);
    let fingerprint = |r: &ExecReport| {
        format!(
            "total={:?} events={} logic={:?} spans={}",
            r.total,
            r.events_processed,
            r.logic_stats,
            r.kernel_spans.len()
        )
    };
    let fresh = execute(&CaisStrategy::full(), &l1, &cfg).expect("L1 run completes");

    for later in [
        sublayer(&model, cfg.tp(), SubLayer::L2),
        sublayer(&longer, cfg.tp(), SubLayer::L1),
    ] {
        let reused = CaisStrategy::full();
        let mut tuned = cfg.clone();
        reused.tune(&mut tuned);
        let program_l1 = reused.lower(&l1, &tuned);
        let _ = reused.lower(&later, &tuned);
        let report = reused.run(tuned, program_l1).expect("L1 run completes");
        assert_eq!(fingerprint(&report), fingerprint(&fresh));
    }
}
