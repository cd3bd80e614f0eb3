//! Golden-snapshot regression gate for the figure tables.
//!
//! The performance work on the simulator (dense state tables, segment
//! coalescing, the calendar event queue) must never change what the
//! experiments *compute* — only how fast they compute it. This test
//! pins the rendered smoke-scale output of two representative
//! experiments, byte for byte, against snapshots taken before that
//! work landed:
//!
//! * **fig11** — end-to-end speedup table (the paper's headline
//!   result), exercising CAIS and every baseline interconnect model.
//! * **fig14** — the densest smoke sweep (3 sizes × 2 variants),
//!   exercising the memory-heavy decode path and chunked sweeps.
//!
//! If an intentional model change shifts these numbers, regenerate the
//! snapshots (see `EXPERIMENTS.md`) and justify the diff in the PR.

use cais_harness::runner::Scale;
use cais_harness::sweep::{self, JobResult, SweepJob};
use cais_harness::{fig11, fig14, Table};

/// With the profiler compiled in, every allocation of this test binary is
/// counted, so the profiler-preservation test below also runs the
/// live-heap accounting. Without it the allocator passes straight through.
#[global_allocator]
static COUNTING_ALLOC: sim_core::profile::CountingAllocator = sim_core::profile::CountingAllocator;

/// Renders tables exactly as `cais-experiments` prints them to stdout:
/// each table's `render()` followed by a newline.
fn rendered(tables: Vec<Table>) -> String {
    let mut out = String::new();
    for t in &tables {
        assert!(
            t.failures.is_empty(),
            "{}: sweep jobs failed: {:?}",
            t.id,
            t.failures
        );
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[test]
fn fig11_smoke_matches_golden() {
    let golden = include_str!("golden/fig11_smoke.txt");
    let got = rendered(fig11::EXPERIMENT.run(Scale::Smoke, 2));
    assert_eq!(
        got, golden,
        "fig11 smoke output drifted from the golden snapshot"
    );
}

/// The self-profiler observes the simulation but must never perturb it:
/// CI runs this test both with and without `--features sim-core/profiler`,
/// and the rendered tables must match the same golden bytes in both
/// builds.
/// A single-threaded sweep keeps the profiler's thread-local counters on
/// one thread, the configuration the profiler is specified for. The
/// live-heap count observes too: it must have seen the sweep's heap while
/// the tables stay byte-identical.
#[test]
fn profiler_feature_preserves_results() {
    let golden = include_str!("golden/fig11_smoke.txt");
    sim_core::profile::reset();
    let got = rendered(fig11::EXPERIMENT.run(Scale::Smoke, 1));
    assert_eq!(
        got,
        golden,
        "experiment output drifted with profiler enabled={}",
        sim_core::profile::enabled()
    );
    assert_eq!(
        sim_core::profile::peak_live_bytes() > 0,
        sim_core::profile::enabled(),
        "the live-heap peak is counted exactly when the profiler is compiled in"
    );
}

#[test]
fn fig14_smoke_matches_golden() {
    let golden = include_str!("golden/fig14_smoke.txt");
    let got = rendered(fig14::EXPERIMENT.run(Scale::Smoke, 2));
    assert_eq!(
        got, golden,
        "fig14 smoke output drifted from the golden snapshot"
    );
}

/// The fig11 smoke roster jobs and the fig14 smoke coordinated and
/// uncoordinated jobs, with the auditor's cadence checks and event ring
/// switched by `audit`.
fn golden_jobs(audit: bool) -> Vec<SweepJob> {
    [fig11::EXPERIMENT, fig14::EXPERIMENT]
        .iter()
        .flat_map(|e| (e.manifest)(Scale::Smoke))
        .map(|mut spec| {
            spec.cfg.audit.enabled = audit;
            spec.cfg.audit.cadence_events = 1024;
            spec.into_job()
        })
        .collect()
}

/// What a run computed: total time, event count, switch-logic counters
/// and the bytes every link carried.
fn fingerprint(r: &JobResult) -> String {
    let report = r
        .report()
        .unwrap_or_else(|| panic!("{} failed: {:?}", r.label, r.failure()));
    let bytes: Vec<u64> = report.fabric.usages().iter().map(|u| u.bytes).collect();
    format!(
        "{}: total={:?} events={} logic={:?} bytes={bytes:?}",
        r.label, report.total, report.events_processed, report.logic_stats
    )
}

/// The conservation auditor must be observe-only, exactly like the
/// profiler: the golden-table jobs compute identical reports with
/// `cfg.audit.enabled` on (checking every 1024 events) and off.
#[test]
fn audit_config_is_observe_only_on_golden_jobs() {
    let on: Vec<String> = sweep::run_jobs(golden_jobs(true), 2)
        .iter()
        .map(fingerprint)
        .collect();
    let off: Vec<String> = sweep::run_jobs(golden_jobs(false), 2)
        .iter()
        .map(fingerprint)
        .collect();
    assert_eq!(on.len(), 17);
    for (a, b) in on.iter().zip(&off) {
        assert_eq!(a, b, "report drifted with the audit enabled");
    }
}
