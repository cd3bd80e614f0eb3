//! Benchmark binary driven by `perfbench/run.py`. Each invocation does one
//! thing and prints one JSON object on stdout:
//!
//! ```text
//! perfbench pass <workload> --seed N --workers K [--audit|--no-audit]
//! perfbench drivers
//! ```
//!
//! `pass` runs one pass of the workload's manifest through
//! `sweep::run_jobs`, checks every job, and reports host timings, the
//! process's peak resident memory, per-layer counters, a deterministic
//! fingerprint per job, and (in a `trace` build) the simulator's
//! self-profiler rows. `drivers` runs the standalone per-layer drivers.

mod drivers;
mod json;
mod workloads;

use cais_engine::ExecReport;
use cais_harness::sweep::{self, JobResult, SweepJob};
use json::Obj;
use sim_core::profile::{self, Subsystem, SubsystemReport};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use workloads::{Spec, Workload};

#[cfg(feature = "trace")]
#[global_allocator]
static COUNTING_ALLOC: profile::CountingAllocator = profile::CountingAllocator;

/// `EventQueue` depth for the queue driver: the `tp32-cais` queue peak.
const QUEUE_DEPTH: u64 = 23_141;

/// Set-ups per pass, at least: a pass of fewer jobs sets each job up
/// more times.
const MIN_SETUPS: usize = 5;

/// Set-ups per job, at least. A job keeps the median of its set-ups, so
/// one preempted set-up of a few milliseconds does not move `setup_s`.
const MIN_JOB_SETUPS: usize = 3;

/// What one job measured from outside the simulator, beside its report.
#[derive(Default)]
struct JobRecord {
    /// Median graph-build and tune + lower seconds of the job's set-ups.
    dfg_s: f64,
    lower_s: f64,
    /// Seconds spent in all of the job's set-ups, for the traced spans.
    spent_dfg_s: f64,
    spent_lower_s: f64,
    run_s: f64,
    kernels: u64,
    tbs: u64,
    profile: Vec<SubsystemReport>,
}

type Records = Arc<Vec<Mutex<Option<JobRecord>>>>;

fn sweep_job(spec: Spec, setups: usize, slot: usize, records: &Records) -> SweepJob {
    let records = Arc::clone(records);
    SweepJob::new(spec.label.clone(), move || {
        profile::reset();
        let mut samples = Vec::with_capacity(setups);
        for _ in 1..setups {
            let extra = spec.prepare();
            samples.push((extra.dfg_s, extra.lower_s));
        }
        let prepared = spec.prepare();
        samples.push((prepared.dfg_s, prepared.lower_s));
        let spent_dfg_s = samples.iter().map(|s| s.0).sum();
        let spent_lower_s = samples.iter().map(|s| s.1).sum();
        samples.sort_by(|a, b| (a.0 + a.1).total_cmp(&(b.0 + b.1)));
        let (dfg_s, lower_s) = samples[samples.len() / 2];
        let mut record = JobRecord {
            dfg_s,
            lower_s,
            spent_dfg_s,
            spent_lower_s,
            kernels: prepared.program.kernels.len() as u64,
            tbs: prepared.program.total_tbs() as u64,
            ..JobRecord::default()
        };
        let t0 = Instant::now();
        let outcome = prepared.strategy.run(prepared.cfg, prepared.program);
        record.run_s = t0.elapsed().as_secs_f64();
        record.profile = profile::report();
        *records[slot].lock().expect("record slot poisoned") = Some(record);
        outcome
    })
}

/// Peak resident set size of this process in MiB, from `/proc`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Counters that must repeat exactly for a job: simulated results and
/// work counts, never host times.
fn fingerprint(report: &ExecReport, record: &JobRecord) -> Obj {
    let fabric = &report.fabric;
    let res = fabric.resilience();
    let mut fp = Obj::new();
    fp.int("sim_ps", report.total.as_ps())
        .int("events", report.events_processed)
        .int("queue_peak", report.queue_peak as u64)
        .int("deduped_fetches", report.deduped_fetches)
        .int("semantic_contribs", report.semantic_contribs)
        .int("kernel_spans", report.kernel_spans.len() as u64)
        .int("kernels", record.kernels)
        .int("tbs", record.tbs)
        .num("occupancy_mean", report.mean_occupancy())
        .int("packets", fabric.usages().iter().map(|u| u.packets).sum())
        .int("bytes", fabric.usages().iter().map(|u| u.bytes).sum())
        .int("events_saved", fabric.events_saved())
        .num("util_mean", fabric.mean_utilization())
        .int("drops", res.drops)
        .int("corruptions", res.corruptions)
        .int("retries", res.retries)
        .int("backoff_ps", res.backoff_time.as_ps())
        .int("budget_exhausted", res.budget_exhausted)
        .int("down_stalls", res.down_stalls)
        .int("degraded_serves", res.degraded_serves);
    for (key, value) in &report.logic_stats {
        fp.num(key, *value);
    }
    fp
}

/// Sums the per-layer counters over a pass's successful jobs.
fn layer_counters(results: &[JobResult], records: &[JobRecord]) -> Obj {
    let ok: Vec<(&ExecReport, &JobRecord)> = results
        .iter()
        .zip(records)
        .filter_map(|(r, rec)| r.report().map(|rep| (rep, rec)))
        .collect();
    let sum = |f: &dyn Fn(&ExecReport, &JobRecord) -> f64| -> f64 {
        ok.iter().map(|(rep, rec)| f(rep, rec)).sum()
    };
    let mean =
        |f: &dyn Fn(&ExecReport, &JobRecord) -> f64| -> f64 { sum(f) / ok.len().max(1) as f64 };
    let stat = |key: &'static str| sum(&move |r, _| r.stat(key).unwrap_or(0.0));
    let res = |f: fn(&noc_sim::ResilienceCounters) -> u64| {
        sum(&move |r, _| f(r.fabric.resilience()) as f64)
    };

    let events = sum(&|r, _| r.events_processed as f64);
    let run_s = sum(&|_, rec| rec.run_s);
    let packets = sum(&|r, _| r.fabric.usages().iter().map(|u| u.packets).sum::<u64>() as f64);
    let saved = sum(&|r, _| r.fabric.events_saved() as f64);
    let requests = stat("cais.load_requests");
    let merged = stat("cais.loads_merged");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut walls: Vec<f64> = results.iter().map(|r| r.wall.as_secs_f64()).collect();
    walls.sort_by(f64::total_cmp);

    let mut o = Obj::new();
    o.num("lower.host_s", sum(&|_, rec| rec.lower_s))
        .num("lower.kernels", sum(&|_, rec| rec.kernels as f64))
        .num("lower.tbs", sum(&|_, rec| rec.tbs as f64))
        .num("engine.run_s", run_s)
        .num("engine.events", events)
        .num("engine.ns_per_event", ratio(run_s * 1e9, events))
        .num(
            "engine.queue_peak",
            ok.iter().map(|(r, _)| r.queue_peak).max().unwrap_or(0) as f64,
        )
        .num(
            "engine.deduped_fetches",
            sum(&|r, _| r.deduped_fetches as f64),
        )
        .num("gpu_sim.occupancy_mean", mean(&|r, _| r.mean_occupancy()))
        .num(
            "gpu_sim.kernel_spans",
            sum(&|r, _| r.kernel_spans.len() as f64),
        )
        .num("noc_sim.packets", packets)
        .num(
            "noc_sim.bytes",
            sum(&|r, _| r.fabric.usages().iter().map(|u| u.bytes).sum::<u64>() as f64),
        )
        .num("noc_sim.events_saved", saved)
        .num("noc_sim.coalesce_ratio", ratio(saved, saved + packets))
        .num(
            "noc_sim.util_mean",
            mean(&|r, _| r.fabric.mean_utilization()),
        )
        .num("noc_sim.drops", res(|c| c.drops))
        .num("noc_sim.retries", res(|c| c.retries))
        .num("noc_sim.degraded_serves", res(|c| c.degraded_serves))
        .num(
            "noc_sim.backoff_us",
            sum(&|r, _| r.fabric.resilience().backoff_time.as_us_f64()),
        )
        .num("cais.load_requests", requests)
        .num("cais.loads_merged", merged)
        .num("cais.merge_ratio", ratio(merged, requests))
        .num(
            "cais.evictions",
            stat("cais.evictions_lru") + stat("cais.evictions_timeout"),
        )
        .num("cais.bypasses", stat("cais.bypasses"))
        .num(
            "cais.peak_port_occupancy",
            ok.iter()
                .map(|(r, _)| r.stat("cais.peak_port_occupancy").unwrap_or(0.0))
                .fold(0.0, f64::max),
        )
        .num("cais.sync_releases", stat("cais.sync_releases"))
        .num("cais.entry_faults", stat("cais.entry_faults"))
        .num("cais.degraded_bypasses", stat("cais.degraded_bypasses"))
        .num("nvls.multicasts", stat("nvls.multicasts"))
        .num("nvls.reductions", stat("nvls.reductions"))
        .num("nvls.pulls", stat("nvls.pulls"))
        .num("harness.job_s_p50", percentile(&walls, 0.5))
        .num("harness.job_s_p90", percentile(&walls, 0.9));
    o
}

/// Self-profiler rows and outside spans summed over a pass's jobs.
fn trace_rows(records: &[JobRecord]) -> Obj {
    let mut o = Obj::new();
    for sys in Subsystem::ALL {
        let rows = records
            .iter()
            .flat_map(|rec| rec.profile.iter().filter(move |r| r.subsystem == sys));
        let (mut ns, mut calls, mut allocs) = (0u64, 0u64, 0u64);
        for r in rows {
            ns += r.wall_ns;
            calls += r.calls;
            allocs += r.allocs;
        }
        let label = sys.label();
        o.num(&format!("{label}.self_ms"), ns as f64 / 1e6)
            .num(&format!("{label}.calls"), calls as f64)
            .num(&format!("{label}.allocs"), allocs as f64);
    }
    o.num("span.dfg_s", records.iter().map(|r| r.spent_dfg_s).sum())
        .num(
            "span.lower_s",
            records.iter().map(|r| r.spent_lower_s).sum(),
        )
        .num("span.run_s", records.iter().map(|r| r.run_s).sum());
    o
}

fn run_pass(workload: Workload, seed: u64, workers: usize, audit: bool) -> String {
    let specs = workloads::manifest(workload, seed, audit);
    let records: Records = Arc::new((0..specs.len()).map(|_| Mutex::new(None)).collect());
    let setups = MIN_SETUPS.div_ceil(specs.len()).max(MIN_JOB_SETUPS);
    let jobs: Vec<SweepJob> = specs
        .into_iter()
        .enumerate()
        .map(|(i, spec)| sweep_job(spec, setups, i, &records))
        .collect();
    let t0 = Instant::now();
    let results = sweep::run_jobs(jobs, workers);
    let wall_s = t0.elapsed().as_secs_f64();

    let records: Vec<Option<JobRecord>> = records
        .iter()
        .map(|m| m.lock().expect("record slot poisoned").take())
        .collect();
    let kernels: Vec<Option<u64>> = records
        .iter()
        .map(|r| r.as_ref().map(|r| r.kernels))
        .collect();
    let failures = workloads::check(workload, &results, &kernels);
    let records: Vec<JobRecord> = records.into_iter().map(Option::unwrap_or_default).collect();

    let job_wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    let mut layer = layer_counters(&results, &records);
    layer.num(
        "harness.sweep_efficiency",
        job_wall / (workers.min(results.len()) as f64 * wall_s),
    );

    let mut jobs = Vec::new();
    for (r, rec) in results.iter().zip(&records) {
        let mut j = Obj::new();
        j.str("label", &r.label).num("wall_s", r.wall.as_secs_f64());
        if let Some(report) = r.report() {
            j.raw("fp", &fingerprint(report, rec).finish());
        }
        jobs.push(j.finish());
    }
    let mut failed: Vec<usize> = failures.iter().map(|(i, _)| *i).collect();
    failed.dedup();
    let failures: Vec<String> = failures
        .iter()
        .map(|(i, msg)| {
            let mut f = Obj::new();
            f.str("label", &results[*i].label).str("reason", msg);
            f.finish()
        })
        .collect();

    let mut out = Obj::new();
    out.str("workload", workload.name())
        .int("workers", workers as u64)
        .num("wall_s", wall_s)
        .num(
            "setup_s",
            records.iter().map(|r| r.dfg_s + r.lower_s).sum::<f64>(),
        )
        .num("peak_rss_mb", peak_rss_mb())
        .int("attempted", results.len() as u64)
        .int("failed", failed.len() as u64)
        .raw("failures", &format!("[{}]", failures.join(", ")))
        .raw("layer", &layer.finish())
        .raw("jobs", &format!("[{}]", jobs.join(", ")));
    if workload == Workload::Fig11Llama7b {
        out.num("cais_speedup", workloads::cais_speedup(&results));
    }
    if profile::enabled() {
        out.raw("trace", &trace_rows(&records).finish());
    }
    out.finish()
}

fn run_drivers() -> String {
    let mut out = Obj::new();
    out.num(
        "sim_core.queue_ns_per_op",
        drivers::queue_ns_per_op(QUEUE_DEPTH),
    )
    .num(
        "noc_sim.inject_ns_per_packet",
        drivers::inject_ns_per_packet(),
    )
    .num("gpu_sim.dispatch_ns_per_tb", drivers::dispatch_ns_per_tb())
    .num("cais.merge_ns_per_req", drivers::merge_ns_per_req());
    out.finish()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench pass <workload> --seed N --workers K [--audit|--no-audit]\n       \
         perfbench drivers"
    );
    std::process::exit(2)
}

fn flag(args: &[String], name: &str) -> Option<u64> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)
        .and_then(|v| v.parse().ok())
        .or_else(|| usage())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = || {
        args.get(1)
            .and_then(|w| Workload::parse(w))
            .unwrap_or_else(|| usage())
    };
    let seed = || flag(&args, "--seed").unwrap_or(0);
    let line = match args.first().map(String::as_str) {
        Some("pass") => {
            let workers = flag(&args, "--workers").unwrap_or(1).max(1) as usize;
            let has = |f: &str| args.iter().any(|a| a == f);
            let workload = workload();
            let audit = has("--audit") || (workload == Workload::ChaosFaults && !has("--no-audit"));
            run_pass(workload, seed(), workers, audit)
        }
        Some("drivers") => run_drivers(),
        _ => usage(),
    };
    println!("{line}");
}
