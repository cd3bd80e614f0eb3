//! `cais-experiments --profile`: per-subsystem hot-path breakdown.
//!
//! Runs one end-to-end simulation per representative workload shape on
//! the calling thread and prints the simulator's self-profiler report
//! (self wall time, scope entries, allocation counters, and the peak of
//! live heap bytes over the run) for each. The
//! numbers come from [`sim_core::profile`], which is compiled out by
//! default — build with `--features profiler` to populate the table:
//!
//! ```text
//! cargo run --release -p cais-harness --features profiler \
//!     --bin cais-experiments -- --profile
//! ```
//!
//! Without the feature the mode still runs (it is a useful smoke check
//! of the shapes) but prints a hint instead of all-zero rows. The
//! profiler observes only — goldens are byte-identical either way; the
//! `profiler_feature_preserves_results` test in this crate pins that.

use crate::runner::Scale;
use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use cais_engine::{strategy::execute, Strategy, SystemConfig};
use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
use sim_core::profile::{self, SubsystemReport};

/// One profiled end-to-end run.
struct ProfiledRun {
    name: &'static str,
    wall_ms: f64,
    events: u64,
    rows: Vec<SubsystemReport>,
    /// High-water mark of live heap bytes from set-up to report.
    peak_live_bytes: u64,
}

fn profiled_run(
    name: &'static str,
    strategy: &dyn Strategy,
    model: &ModelConfig,
    mode: TpMode,
    cfg: &SystemConfig,
) -> ProfiledRun {
    let dfg = transformer_layer(model, cfg.tp(), mode, Pass::Forward);
    profile::reset();
    let t0 = std::time::Instant::now();
    let report = execute(strategy, &dfg, cfg).expect("profile run completes");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    ProfiledRun {
        name,
        wall_ms,
        events: report.events_processed,
        rows: profile::report(),
        peak_live_bytes: profile::peak_live_bytes(),
    }
}

fn render(run: &ProfiledRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile {} ({} events, {:.1} ms wall)",
        run.name, run.events, run.wall_ms
    );
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>12} {:>12} {:>14}",
        "subsystem", "calls", "self_ms", "allocs", "alloc_bytes"
    );
    let total: u64 = run.rows.iter().map(|r| r.wall_ns).sum();
    for r in &run.rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>12.3} {:>12} {:>14}",
            r.subsystem.label(),
            r.calls,
            r.wall_ns as f64 / 1e6,
            r.allocs,
            r.alloc_bytes
        );
    }
    let _ = writeln!(out, "  instrumented total: {:.3} ms", total as f64 / 1e6);
    let _ = writeln!(
        out,
        "  peak live heap: {} B ({:.1} MB)",
        run.peak_live_bytes,
        run.peak_live_bytes as f64 / 1e6
    );
    out
}

/// Runs the representative shapes and prints their profiler breakdowns.
pub fn run(scale: Scale) {
    if !profile::enabled() {
        eprintln!(
            "note: built without the `profiler` feature; subsystem rows are \
             empty. Rebuild with `--features profiler` for the breakdown."
        );
    }
    let cfg = scale.system();
    let nvls = BaselineStrategy::tp_nvls();
    let cais = CaisStrategy::full();
    let runs = [
        profiled_run(
            "tp_nvls/mega_gpt_4b",
            &nvls,
            &scale.model(&ModelConfig::mega_gpt_4b()),
            TpMode::BasicTp,
            &cfg,
        ),
        profiled_run(
            "cais_full/mega_gpt_4b",
            &cais,
            &scale.model(&ModelConfig::mega_gpt_4b()),
            TpMode::SeqPar,
            &cfg,
        ),
        profiled_run(
            "cais_full/llama_7b",
            &cais,
            &scale.model(&ModelConfig::llama_7b()),
            TpMode::SeqPar,
            &cfg,
        ),
    ];
    for run in &runs {
        println!("{}", render(run));
    }
}
