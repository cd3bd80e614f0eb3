//! CLI to regenerate the paper's tables and figures.
//!
//! ```text
//! cais-experiments [fig2|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|table2|area|ablations|sensitivity|resilience|chaos|all]
//!                  [--smoke] [--jobs N] [--timeout-secs N]
//! cais-experiments --profile [--smoke]
//! ```
//!
//! `--jobs N` bounds the sweep worker pool (default: the host's
//! available parallelism). The printed tables are byte-identical at
//! every worker count; timing diagnostics go to stderr. A simulation
//! that returns a typed error or panics becomes a FAILED line (and NaN
//! cells) in its table; `--timeout-secs N` arms a per-job wall-clock
//! watchdog whose victims become TIMEOUT lines instead. Either makes the
//! process exit with status 1.
//!
//! Every run ends with the conservation auditor's quiescence check (see
//! [`sim_core::audit`]); a violation fails the run with a forensic
//! report. The `chaos` experiment also runs cadence checks during its
//! own runs. An unknown `--flag` exits with status 2.
//!
//! `--profile` runs the representative workload shapes single-threaded
//! and prints the simulator's per-subsystem self-profiler breakdown;
//! build with `--features profiler` to populate it (see
//! [`cais_harness::profile`]).

use cais_harness::{runner::Scale, sweep, Table};
use std::time::{Duration, Instant};

/// Per-thread allocation counters for `--profile` runs; a transparent
/// pass-through to the system allocator without the `profiler` feature.
#[cfg(feature = "profiler")]
#[global_allocator]
static COUNTING_ALLOC: sim_core::profile::CountingAllocator = sim_core::profile::CountingAllocator;

/// Extracts the value of `--<name> N` / `--<name>=N` as a positive
/// integer, exiting with status 2 on a malformed value.
fn parse_flag(args: &[String], name: &str) -> Option<u64> {
    let bad = || -> ! {
        eprintln!("--{name} needs a positive integer");
        std::process::exit(2);
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == &format!("--{name}") {
            return Some(
                it.next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| bad()),
            );
        }
        if let Some(v) = a.strip_prefix(&format!("--{name}=")) {
            return Some(v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| bad()));
        }
    }
    None
}

/// Flags that stand alone.
const SWITCHES: [&str; 2] = ["--smoke", "--profile"];
/// Flags that take a value, as `--name N` or `--name=N`.
const VALUED: [&str; 2] = ["--jobs", "--timeout-secs"];

/// Exits with status 2 on any `--flag` that is not known, so a stale or
/// misspelled flag never passes without a word.
fn reject_unknown_flags(args: &[String]) {
    for a in args.iter().filter(|a| a.starts_with("--")) {
        let name = a.split_once('=').map_or(a.as_str(), |(n, _)| n);
        if !SWITCHES.contains(&a.as_str()) && !VALUED.contains(&name) {
            eprintln!(
                "unknown flag {a}; known flags: {} {}",
                SWITCHES.join(" "),
                VALUED.map(|f| format!("{f} N")).join(" ")
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    reject_unknown_flags(&args);
    let smoke = args.iter().any(|a| a == "--smoke");
    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    if args.iter().any(|a| a == "--profile") {
        cais_harness::profile::run(scale);
        return;
    }
    let jobs = parse_flag(&args, "jobs")
        .map(|n| n as usize)
        .unwrap_or_else(sweep::default_jobs);
    sweep::set_job_timeout(parse_flag(&args, "timeout-secs").map(Duration::from_secs));
    let mut skip_next = false;
    let which: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUED.contains(&a.as_str()) {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    type Experiment = (&'static str, fn(Scale, usize) -> Vec<Table>);
    let experiments: Vec<Experiment> = vec![
        ("fig2", cais_harness::fig02::run),
        ("fig11", cais_harness::fig11::run),
        ("fig12", cais_harness::fig12::run),
        ("fig13", cais_harness::fig13::run),
        ("fig14", cais_harness::fig14::run),
        ("fig15", cais_harness::fig15::run),
        ("fig16", cais_harness::fig16::run),
        ("fig17", cais_harness::fig17::run),
        ("fig18", cais_harness::fig18::run),
        ("table2", cais_harness::table2::run),
        ("area", cais_harness::area::run),
        ("ablations", cais_harness::ablations::run),
        ("sensitivity", cais_harness::sensitivity::run),
        ("resilience", cais_harness::resilience::run),
        ("chaos", cais_harness::chaos::run),
    ];

    let run_all = which.contains(&"all");
    let mut ran = 0;
    let mut failed = 0usize;
    let mut timed_out = 0usize;
    for (name, f) in &experiments {
        if run_all || which.contains(name) {
            let t0 = Instant::now();
            for table in f(scale, jobs) {
                failed += table.failures.len();
                timed_out += table.timeouts.len();
                println!("{}", table.render());
            }
            eprintln!("[{name} done in {:.1}s]\n", t0.elapsed().as_secs_f64());
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!(
            "unknown experiment {which:?}; options: {} all",
            experiments
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(" ")
        );
        std::process::exit(2);
    }
    if failed > 0 || timed_out > 0 {
        eprintln!(
            "{failed} sweep job(s) failed, {timed_out} timed out; see FAILED/TIMEOUT lines above"
        );
        std::process::exit(1);
    }
}
