//! Golden digest of one 32-GPU run: CAIS-full on the smoke-scale LLaMA-7B
//! forward layer with hidden dimensions scaled from 8 to 32 GPUs, the
//! shape of the paper's largest Fig. 17 point at smoke scale.
//!
//! The figure goldens stop at 8 GPUs; this one pins the engine and GPU
//! paths that only a large system exercises (per-GPU tile tables, ready
//! gates shared by many TBs, the due-GPU scan). The digest covers total
//! simulated time, event count and queue peak, semantic contributions,
//! deduplicated fetches, kernel spans, fabric traffic and every
//! switch-logic statistic.
//!
//! If an intentional model change moves the digest, regenerate it with
//! `TP32_GOLDEN_PRINT=1 cargo test -p cais-harness --test golden_tp32 -- --nocapture`
//! and justify the diff in the change description.

use cais_core::CaisStrategy;
use cais_engine::strategy::execute;
use cais_engine::ExecReport;
use cais_harness::runner::Scale;
use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
use noc_sim::FabricConfig;

fn digest(r: &ExecReport) -> String {
    let packets: u64 = r.fabric.usages().iter().map(|u| u.packets).sum();
    let bytes: u64 = r.fabric.usages().iter().map(|u| u.bytes).sum();
    let mut out = format!(
        "total_ps {}\nevents {}\nqueue_peak {}\nsemantic_contribs {}\ndeduped_fetches {}\nkernel_spans {}\nfabric_packets {}\nfabric_bytes {}\n",
        r.total.as_ps(),
        r.events_processed,
        r.queue_peak,
        r.semantic_contribs,
        r.deduped_fetches,
        r.kernel_spans.len(),
        packets,
        bytes,
    );
    for (k, v) in &r.logic_stats {
        out.push_str(&format!("{k} {v}\n"));
    }
    out
}

#[test]
fn cais_full_on_32_gpus_matches_golden_digest() {
    let (base_p, p) = (8u64, 32usize);
    let model = Scale::Smoke
        .model(&ModelConfig::llama_7b())
        .scale_hidden(p as u64, base_p);
    let mut cfg = Scale::Smoke.system();
    cfg.n_gpus = p;
    cfg.fabric = FabricConfig::default_for(p, cfg.n_planes);
    let dfg = transformer_layer(&model, p as u64, TpMode::SeqPar, Pass::Forward);
    let report = execute(&CaisStrategy::full(), &dfg, &cfg).expect("32-GPU CAIS run completes");
    let got = digest(&report);
    if std::env::var_os("TP32_GOLDEN_PRINT").is_some() {
        print!("{got}");
    }
    assert_eq!(
        got,
        include_str!("golden/tp32_smoke_digest.txt"),
        "32-GPU CAIS digest drifted from the golden"
    );
}
