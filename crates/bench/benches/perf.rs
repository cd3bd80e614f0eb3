//! End-to-end single-run performance tracking (`BENCH_sim.json`).
//!
//! Times one full `SystemSim` run per representative workload — the
//! TP-NVLS baseline, CAIS, and CAIS on a larger model shape — and
//! writes machine-readable results to `BENCH_sim.json` so successive
//! PRs have a perf trajectory to compare against. Invoke with:
//!
//! ```text
//! cargo bench -p cais-bench --bench perf            # measure + write baseline
//! cargo bench -p cais-bench --bench perf -- --quick # smoke shapes for CI
//! cargo bench -p cais-bench --bench perf -- --check # compare vs committed baseline
//! cargo bench -p cais-bench --bench perf -- --check --bless # update after review
//! ```
//!
//! `--check` re-measures and exits nonzero when a run's deterministic
//! results (`events`, `steps`, `sim_total_us`) differ at all from the committed
//! `BENCH_sim.json`, or when its best-of-N wall time (`min_ms`) is more
//! than 20% slower (speed ratio below 0.8; override the fraction with the
//! `CAIS_BENCH_CHECK_THRESHOLD` env var). Wall time is gated directly
//! rather than as events/sec, which would reward a change that adds
//! events; comparing minima rather than means damps scheduler noise on
//! both sides. `--check` never writes the baseline; pass `--bless` to
//! update it after an intentional change.
//!
//! Built with `--features sim-core/profiler`, the bench is also the
//! simulator's self-profiler report. It prints each shape's
//! per-subsystem table (scope entries, self time, allocations) and the
//! live-heap peak, and records them in a `"profile"` object per run. The
//! rows describe the last timed run alone, so `calls` and `allocs`
//! repeat exactly between invocations:
//!
//! ```text
//! cargo bench -p cais-bench --bench perf --features sim-core/profiler -- --quick
//! ```

use cais_baselines::BaselineStrategy;
use cais_bench::{profiled, timeit, RunProfile, Scale};
use cais_core::CaisStrategy;
use cais_engine::{strategy::execute, ExecReport, Strategy, SystemConfig};
use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
use sim_core::profile;
use std::fmt::Write as _;

/// Route every heap allocation through the counting front-end so the
/// profiler's per-subsystem allocation counters see them. A plain
/// pass-through to the system allocator without the profiler.
#[global_allocator]
static COUNTING_ALLOC: profile::CountingAllocator = profile::CountingAllocator;

struct RunResult {
    name: &'static str,
    wall_ms: f64,
    min_ms: f64,
    events: u64,
    /// Engine loop iterations (`ExecReport::steps`).
    steps: u64,
    events_per_sec: f64,
    queue_peak: u64,
    sim_total_us: f64,
    /// The self-profiler's account of the last timed run.
    profile: RunProfile,
}

fn bench_run(
    name: &'static str,
    strategy: &dyn Strategy,
    model: &ModelConfig,
    mode: TpMode,
    cfg: &SystemConfig,
    iters: u32,
) -> RunResult {
    let dfg = transformer_layer(model, cfg.tp(), mode, Pass::Forward);
    let mut last: Option<(ExecReport, RunProfile)> = None;
    let stats = timeit(name, iters, || {
        // Free the previous run's report before the capture restarts the
        // live-heap peak, so the peak sees this run alone.
        last = None;
        last = Some(profiled(|| {
            execute(strategy, &dfg, cfg).expect("bench run completes")
        }));
    });
    let (report, profile) = last.expect("at least one timed iteration");
    let wall = stats.mean.as_secs_f64();
    RunResult {
        name,
        wall_ms: wall * 1e3,
        min_ms: stats.min.as_secs_f64() * 1e3,
        events: report.events_processed,
        steps: report.steps,
        events_per_sec: if wall > 0.0 {
            report.events_processed as f64 / wall
        } else {
            0.0
        },
        queue_peak: report.queue_peak as u64,
        sim_total_us: report.total.as_ps() as f64 / 1e6,
        profile,
    }
}

/// The profiler's table for one run: a row per subsystem, then the
/// instrumented total and the live-heap peak.
fn render_profile(r: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "profile {} ({} events)", r.name, r.events);
    let _ = writeln!(
        out,
        "  {:<16} {:>10} {:>12} {:>12} {:>14}",
        "subsystem", "calls", "self_ms", "allocs", "alloc_bytes"
    );
    for row in &r.profile.rows {
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>12.3} {:>12} {:>14}",
            row.subsystem.label(),
            row.calls,
            row.wall_ns as f64 / 1e6,
            row.allocs,
            row.alloc_bytes
        );
    }
    let total: u64 = r.profile.rows.iter().map(|row| row.wall_ns).sum();
    let _ = writeln!(out, "  instrumented total: {:.3} ms", total as f64 / 1e6);
    let peak = r.profile.peak_live_bytes;
    let _ = writeln!(
        out,
        "  peak live heap: {peak} B ({:.1} MB)",
        peak as f64 / 1e6
    );
    out
}

fn render_json(scale_label: &str, runs: &[RunResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"scale\": \"{scale_label}\",\n  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"wall_ms\": {:.3}, \"min_ms\": {:.3}, \
             \"events\": {}, \"steps\": {}, \"events_per_sec\": {:.0}, \
             \"queue_peak\": {}, \"sim_total_us\": {:.3}",
            r.name,
            r.wall_ms,
            r.min_ms,
            r.events,
            r.steps,
            r.events_per_sec,
            r.queue_peak,
            r.sim_total_us
        );
        if !r.profile.rows.is_empty() {
            let _ = write!(
                out,
                ",\n     \"profile\": {{\"peak_live_bytes\": {}, \"rows\": [",
                r.profile.peak_live_bytes
            );
            for (j, row) in r.profile.rows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"subsystem\": \"{}\", \"calls\": {}, \"wall_ms\": {:.3}, \
                     \"allocs\": {}, \"alloc_bytes\": {}}}",
                    if j == 0 { "" } else { ", " },
                    row.subsystem,
                    row.calls,
                    row.wall_ns as f64 / 1e6,
                    row.allocs,
                    row.alloc_bytes
                );
            }
            out.push_str("]}");
        }
        out.push('}');
        let _ = writeln!(out, "{}", if i + 1 < runs.len() { "," } else { "" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// One baseline entry scraped from `BENCH_sim.json`.
struct BaselineRun {
    name: String,
    events: u64,
    /// `None` in a baseline written before steps were recorded.
    steps: Option<u64>,
    min_ms: f64,
    sim_total_us: f64,
}

/// Extracts the first JSON number after `key` in `line`.
fn scan_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start_matches([':', ' ']);
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the quoted string after `key` in `line`.
fn scan_string(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start_matches([':', ' ', '"']);
    Some(rest[..rest.find('"')?].to_string())
}

/// Hand-rolled scan of the committed baseline (the workspace takes no
/// external dependencies, so no serde): one run object per line, as
/// [`render_json`] writes them. Returns the file's scale label and runs.
fn parse_baseline(text: &str) -> (Option<String>, Vec<BaselineRun>) {
    let mut scale = None;
    let mut runs = Vec::new();
    for line in text.lines() {
        if line.trim_start().starts_with("\"scale\"") || line.contains("\"scale\"") {
            if let Some(s) = scan_string(line, "\"scale\"") {
                scale = Some(s);
            }
        }
        if !line.contains("\"name\"") {
            continue;
        }
        let (Some(name), Some(events), Some(min_ms), Some(sim_total_us)) = (
            scan_string(line, "\"name\""),
            scan_number(line, "\"events\""),
            scan_number(line, "\"min_ms\""),
            scan_number(line, "\"sim_total_us\""),
        ) else {
            continue;
        };
        runs.push(BaselineRun {
            name,
            events: events as u64,
            steps: scan_number(line, "\"steps\"").map(|s| s as u64),
            min_ms,
            sim_total_us,
        });
    }
    (scale, runs)
}

/// Compares each fresh run against the committed baseline: its
/// deterministic results must match exactly, its best-of-N wall time
/// within the threshold. Returns `false` when any matched run fails.
fn check_runs(runs: &[RunResult], scale_label: &str, path: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("check: no baseline at {path}; nothing to compare (run --bless first)");
        return true;
    };
    let threshold: f64 = std::env::var("CAIS_BENCH_CHECK_THRESHOLD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20);
    let (base_scale, baseline) = parse_baseline(&text);
    if let Some(bs) = &base_scale {
        if bs != scale_label {
            println!(
                "check: baseline was measured at scale \"{bs}\" but this run used \
                 \"{scale_label}\"; no comparable baseline (re-run at the matching scale)"
            );
            return true;
        }
    }
    let mut failures: Vec<String> = Vec::new();
    for r in runs {
        let Some(base) = baseline.iter().find(|b| b.name == r.name) else {
            println!("check {:40} no baseline entry; skipped", r.name);
            continue;
        };
        // Deterministic results: any difference is a model change that
        // needs a blessed baseline, however fast the run.
        if r.events != base.events {
            failures.push(format!(
                "{}: events {} vs baseline {}",
                r.name, r.events, base.events
            ));
        }
        if base.steps != Some(r.steps) {
            failures.push(format!(
                "{}: steps {} vs baseline {:?}",
                r.name, r.steps, base.steps
            ));
        }
        // The baseline stores `sim_total_us` to three decimals.
        if format!("{:.3}", r.sim_total_us) != format!("{:.3}", base.sim_total_us) {
            failures.push(format!(
                "{}: sim_total_us {:.3} vs baseline {:.3}",
                r.name, r.sim_total_us, base.sim_total_us
            ));
        }
        // Speed ratio of the best iterations: above 1 is faster.
        let ratio = base.min_ms / r.min_ms;
        let slow = ratio + threshold < 1.0;
        if slow {
            failures.push(format!(
                "{}: min_ms {:.3} vs baseline {:.3} = {ratio:.2}x speed (allowed >= {:.2}x)",
                r.name,
                r.min_ms,
                base.min_ms,
                1.0 - threshold
            ));
        }
        println!(
            "check {:40} {:>10.3} min_ms vs baseline {:>10.3}  ({ratio:.2}x)  {}",
            r.name,
            r.min_ms,
            base.min_ms,
            if slow { "REGRESSED" } else { "ok" }
        );
    }
    if !failures.is_empty() {
        println!(
            "check: {} failure(s); results must equal the baseline exactly and \
             min_ms may be at most {:.0}% slower (CAIS_BENCH_CHECK_THRESHOLD, \
             default 20%):",
            failures.len(),
            threshold * 100.0
        );
        for f in &failures {
            println!("check   {f}");
        }
        println!(
            "check: baseline is {path}; run with --bless to accept an \
             intentional change, or raise CAIS_BENCH_CHECK_THRESHOLD for a \
             noisy host"
        );
    }
    failures.is_empty()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let bless = args.iter().any(|a| a == "--bless");
    let (scale, scale_label, iters) = if quick {
        (Scale::Smoke, "smoke", 5)
    } else {
        (Scale::Paper, "paper", 3)
    };
    let cfg = scale.system();

    let nvls = BaselineStrategy::tp_nvls();
    let cais = CaisStrategy::full();
    let runs = vec![
        bench_run(
            "perf/tp_nvls_mega_gpt_4b",
            &nvls,
            &scale.model(&ModelConfig::mega_gpt_4b()),
            TpMode::BasicTp,
            &cfg,
            iters,
        ),
        bench_run(
            "perf/cais_full_mega_gpt_4b",
            &cais,
            &scale.model(&ModelConfig::mega_gpt_4b()),
            TpMode::SeqPar,
            &cfg,
            iters,
        ),
        bench_run(
            "perf/cais_full_llama_7b",
            &cais,
            &scale.model(&ModelConfig::llama_7b()),
            TpMode::SeqPar,
            &cfg,
            iters,
        ),
    ];

    for r in runs.iter().filter(|r| !r.profile.rows.is_empty()) {
        println!("{}", render_profile(r));
    }

    // Always land at the workspace root regardless of bench CWD.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    if check {
        let ok = check_runs(&runs, scale_label, path);
        if bless {
            let json = render_json(scale_label, &runs);
            std::fs::write(path, &json).expect("write BENCH_sim.json");
            println!("blessed {path}:\n{json}");
        }
        if !ok {
            std::process::exit(1);
        }
    } else {
        let json = render_json(scale_label, &runs);
        std::fs::write(path, &json).expect("write BENCH_sim.json");
        println!("wrote {path}:\n{json}");
    }
}
