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
//!
//! With the self-profiler compiled in (`--features sim-core/profiler`),
//! the same run is also a memory guard: its live-heap peak must stay
//! under a ceiling.

use cais_core::CaisStrategy;
use cais_engine::strategy::execute;
use cais_engine::ExecReport;
use cais_harness::runner::Scale;
use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
use noc_sim::FabricConfig;
use sim_core::profile;
use std::sync::Mutex;

/// Counts every allocation when the profiler is compiled in; passes
/// straight through otherwise.
#[global_allocator]
static COUNTING_ALLOC: profile::CountingAllocator = profile::CountingAllocator;

/// The live-heap count is process-wide, so the two runs of this binary
/// take turns: the memory guard must see its own run alone.
static ONE_RUN_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Live-heap peak of the 32-GPU run, in bytes: the value measured when
/// the ceiling was set (7,903,208 B, the largest of six runs) plus 5%.
/// Lower it when a change shrinks the run; raise it only with a reason.
const PEAK_LIVE_CEILING: u64 = 8_298_368;

fn run_tp32() -> ExecReport {
    let (base_p, p) = (8u64, 32usize);
    let model = Scale::Smoke
        .model(&ModelConfig::llama_7b())
        .scale_hidden(p as u64, base_p);
    let mut cfg = Scale::Smoke.system();
    cfg.n_gpus = p;
    cfg.fabric = FabricConfig::default_for(p, cfg.n_planes);
    let dfg = transformer_layer(&model, p as u64, TpMode::SeqPar, Pass::Forward);
    execute(&CaisStrategy::full(), &dfg, &cfg).expect("32-GPU CAIS run completes")
}

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
    let report = {
        let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
        run_tp32()
    };
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

/// Checked with `--features sim-core/profiler`, as CI's profiler step
/// runs it; without the profiler there is no heap count and the test
/// passes vacuously. Set `TP32_PEAK_PRINT=1` to print the measured peak.
#[test]
fn live_heap_peak_of_32_gpu_run_stays_under_ceiling() {
    if !profile::enabled() {
        return;
    }
    let _turn = ONE_RUN_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    profile::reset();
    let base = profile::live_bytes();
    drop(run_tp32());
    let peak = profile::peak_live_bytes() - base;
    if std::env::var_os("TP32_PEAK_PRINT").is_some() {
        println!("peak_live_bytes {peak}");
    }
    assert!(
        peak <= PEAK_LIVE_CEILING,
        "32-GPU live-heap peak {peak} B exceeds the ceiling {PEAK_LIVE_CEILING} B"
    );
}
