//! CLI to regenerate the paper's tables and figures.
//!
//! ```text
//! cais-experiments [fig2|fig11|fig12|fig13|fig14|fig15|fig16|fig17|fig18|table2|area|ablations|sensitivity|resilience|chaos|all]
//!                  [--smoke] [--jobs N] [--timeout-secs N]
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
//! own runs. An unknown `--flag` or experiment name exits with status 2.
//!
//! The selected experiments run as one suite: every job spec is built up
//! front and each distinct one runs once (see [`run_suite`]); stderr
//! reports the job count and the distinct-run count.

use cais_harness::runner::{run_suite, Scale};
use cais_harness::{sweep, EXPERIMENTS};
use std::time::{Duration, Instant};

/// Prints `msg` and exits with status 2, so a stale or misspelled flag or
/// experiment name never passes without a word.
fn usage_error(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn main() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let (mut smoke, mut jobs, mut timeout, mut which) = (false, None, None, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        match flag {
            "--smoke" if inline.is_none() => smoke = true,
            "--jobs" | "--timeout-secs" => {
                let n: u64 = inline
                    .or_else(|| args.next())
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage_error(format!("{flag} needs a positive integer")));
                if flag == "--jobs" {
                    jobs = Some(n as usize);
                } else {
                    timeout = Some(Duration::from_secs(n));
                }
            }
            _ if arg.starts_with("--") => usage_error(format!(
                "unknown flag {arg}; known flags: --smoke --jobs N --timeout-secs N"
            )),
            _ if arg == "all" || names.contains(&arg.as_str()) => which.push(arg),
            _ => usage_error(format!(
                "unknown experiment {arg:?}; options: {} all",
                names.join(" ")
            )),
        }
    }
    let run_all = which.is_empty() || which.iter().any(|w| w == "all");
    let selected: Vec<_> = EXPERIMENTS
        .into_iter()
        .filter(|e| run_all || which.iter().any(|w| w == e.name))
        .collect();
    let scale = if smoke { Scale::Smoke } else { Scale::Paper };
    sweep::set_job_timeout(timeout);

    let t0 = Instant::now();
    let mut failed = 0usize;
    let mut timed_out = 0usize;
    let workers = jobs.unwrap_or_else(sweep::default_jobs);
    for table in run_suite(&selected, scale, workers).into_iter().flatten() {
        failed += table.failures.len();
        timed_out += table.timeouts.len();
        println!("{}", table.render());
    }
    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
    if failed > 0 || timed_out > 0 {
        eprintln!(
            "{failed} sweep job(s) failed, {timed_out} timed out; see FAILED/TIMEOUT lines above"
        );
        std::process::exit(1);
    }
}
