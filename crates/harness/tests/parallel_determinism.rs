//! The sweep runner's core contract: the worker count is invisible in
//! the output. Tables produced at `--jobs 1` and `--jobs 4` must match
//! bit-for-bit — labels, every f64 cell, rendering, failure lists.

use cais_harness::runner::Scale;
use cais_harness::Table;

fn assert_identical(a: &[Table], b: &[Table]) {
    assert_eq!(a.len(), b.len(), "table count must match");
    for (ta, tb) in a.iter().zip(b) {
        assert_eq!(ta.id, tb.id);
        assert_eq!(ta.columns, tb.columns);
        assert_eq!(ta.failures, tb.failures, "{}: failure lists differ", ta.id);
        assert_eq!(ta.rows.len(), tb.rows.len(), "{}: row count differs", ta.id);
        for ((la, va), (lb, vb)) in ta.rows.iter().zip(&tb.rows) {
            assert_eq!(la, lb, "{}: row labels differ", ta.id);
            // Bit-level comparison: NaN == NaN, and no tolerance — the
            // simulations are deterministic, so parallel assembly must
            // reproduce the serial f64s exactly.
            for (ca, cb) in va.iter().zip(vb) {
                assert_eq!(ca.to_bits(), cb.to_bits(), "{}/{la}: {ca} vs {cb}", ta.id);
            }
        }
        assert_eq!(ta.render(), tb.render(), "{}: rendering differs", ta.id);
    }
}

/// fig14 is the densest smoke sweep (3 sizes × 2 variants = 6
/// simulations) and exercises chunked result pairing.
#[test]
fn fig14_is_identical_across_worker_counts() {
    let serial = cais_harness::fig14::EXPERIMENT.run(Scale::Smoke, 1);
    let parallel = cais_harness::fig14::EXPERIMENT.run(Scale::Smoke, 4);
    assert_identical(&serial, &parallel);
}

/// fig11 exercises the roster × model manifest plus geomean assembly.
#[test]
fn fig11_is_identical_across_worker_counts() {
    let serial = cais_harness::fig11::EXPERIMENT.run(Scale::Smoke, 1);
    let parallel = cais_harness::fig11::EXPERIMENT.run(Scale::Smoke, 4);
    assert_identical(&serial, &parallel);
}

/// The fault-injection sweep must be just as scheduler-independent:
/// identical seeds give byte-identical fault timelines (and therefore
/// identical retry/backoff counters) at every worker count.
#[test]
fn resilience_is_identical_across_worker_counts() {
    let serial = cais_harness::resilience::EXPERIMENT.run(Scale::Smoke, 1);
    let parallel = cais_harness::resilience::EXPERIMENT.run(Scale::Smoke, 8);
    assert_identical(&serial, &parallel);
}
