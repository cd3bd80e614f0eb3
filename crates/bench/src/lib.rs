//! Benchmark crate: see `benches/perf.rs` (end-to-end single-run
//! timings gated against `BENCH_sim.json`), `benches/simulator.rs`
//! (microbenches of the event engine, fabric, GPU dispatch and merge
//! unit) and `benches/sweep.rs` (serial vs. parallel sweep-runner
//! scaling). Per-figure wall times come from `cais-experiments`, which
//! logs them to stderr.
//!
//! All benches are plain `harness = false` binaries built on the tiny
//! wall-clock [`timeit`] helper — no external benchmarking framework, so
//! the crate builds in offline environments.
//!
//! Run with:
//!
//! ```text
//! cargo bench -p cais-bench
//! ```

pub use cais_harness::runner::Scale;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeit_reports_sane_stats() {
        let s = timeit("noop", 5, || 1 + 1);
        assert_eq!(s.iters, 5);
        assert!(s.min <= s.mean && s.mean <= s.max);
    }
}
