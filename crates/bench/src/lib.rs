//! Benchmark crate: see `benches/perf.rs` (end-to-end single-run
//! timings gated against `BENCH_sim.json`, plus the simulator's
//! self-profiler report) and `benches/sweep.rs` (serial vs. parallel
//! sweep-runner scaling). Per-figure wall times come from
//! `cais-experiments`, which logs them to stderr.
//!
//! All benches are plain `harness = false` binaries built on the tiny
//! wall-clock [`timeit`] helper — no external benchmarking framework, so
//! the crate builds in offline environments. [`profiled`] captures the
//! self-profiler's rows for exactly one run; they are populated only in a
//! build with the profiler compiled in.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p cais-bench
//! cargo bench -p cais-bench --bench perf --features sim-core/profiler
//! ```

pub use cais_harness::runner::Scale;
use sim_core::profile::{self, SubsystemReport};
pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Summary statistics for one benchmark target.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Number of timed iterations.
    pub iters: u32,
    /// Mean wall-clock time per iteration.
    pub mean: Duration,
    /// Fastest iteration.
    pub min: Duration,
    /// Slowest iteration.
    pub max: Duration,
}

/// Times `f` over `iters` iterations (after one untimed warm-up call)
/// and prints a one-line summary. Returns the stats so callers can
/// compare targets (e.g. the sweep bench's speedup line).
pub fn timeit<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> BenchStats {
    assert!(iters > 0, "need at least one iteration");
    black_box(f()); // warm-up: page in code/data, fill allocator caches
    let mut samples = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed());
    }
    let total: Duration = samples.iter().sum();
    let stats = BenchStats {
        iters,
        mean: total / iters,
        min: *samples.iter().min().expect("iters > 0"),
        max: *samples.iter().max().expect("iters > 0"),
    };
    println!(
        "{name:<40} {:>10.3} ms/iter  (min {:.3}, max {:.3}, n={})",
        stats.mean.as_secs_f64() * 1e3,
        stats.min.as_secs_f64() * 1e3,
        stats.max.as_secs_f64() * 1e3,
        stats.iters,
    );
    stats
}

/// The self-profiler's account of one run.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Per-subsystem rows in [`profile::Subsystem::ALL`] order; empty
    /// unless the profiler is compiled in.
    pub rows: Vec<SubsystemReport>,
    /// High-water mark of live heap bytes over the run; zero unless the
    /// profiler is compiled in and the binary installs
    /// [`profile::CountingAllocator`].
    pub peak_live_bytes: u64,
}

/// Runs `f` once with the profiler's counters cleared at its start, and
/// returns its result with the profile of that one run. Drop the previous
/// run's result before calling, or the live-heap peak counts it too.
pub fn profiled<R>(f: impl FnOnce() -> R) -> (R, RunProfile) {
    profile::reset();
    let out = f();
    let run = RunProfile {
        rows: profile::report(),
        peak_live_bytes: profile::peak_live_bytes(),
    };
    (out, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_core::CaisStrategy;
    use cais_engine::strategy::execute;
    use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};

    #[global_allocator]
    static COUNTING_ALLOC: profile::CountingAllocator = profile::CountingAllocator;

    #[test]
    fn timeit_reports_sane_stats() {
        let s = timeit("noop", 5, || 1 + 1);
        assert_eq!(s.iters, 5);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }

    /// One smoke run of the CAIS LLaMA-7B shape, profiled.
    fn profiled_smoke_run() -> RunProfile {
        let cfg = Scale::Smoke.system();
        let model = Scale::Smoke.model(&ModelConfig::llama_7b());
        let dfg = transformer_layer(&model, cfg.tp(), TpMode::SeqPar, Pass::Forward);
        let strategy = CaisStrategy::full();
        profiled(|| execute(&strategy, &dfg, &cfg).expect("smoke run completes")).1
    }

    /// Each capture describes one run, so two runs of one shape count the
    /// same calls and allocations in every subsystem.
    #[test]
    fn profiled_rows_describe_one_run() {
        let first = profiled_smoke_run();
        let second = profiled_smoke_run();
        if !profile::enabled() {
            assert!(first.rows.is_empty() && second.rows.is_empty());
            assert_eq!((first.peak_live_bytes, second.peak_live_bytes), (0, 0));
            return;
        }
        assert_eq!(first.rows.len(), profile::Subsystem::ALL.len());
        let counts = |p: &RunProfile| -> Vec<(u64, u64)> {
            p.rows.iter().map(|r| (r.calls, r.allocs)).collect()
        };
        assert_eq!(counts(&first), counts(&second));
        assert!(first.rows.iter().all(|r| r.calls > 0));
        assert!(second.peak_live_bytes > 0);
    }
}
