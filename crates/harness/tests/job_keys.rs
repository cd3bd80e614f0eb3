//! The suite runs each distinct job key once and hands its result to
//! every spec with that key. That is sound only if equal keys compute
//! equal reports: this test runs every occurrence of each repeated key
//! in the smoke suite and compares what they computed.

use cais_harness::runner::Scale;
use cais_harness::sweep::{run_jobs, JobResult};
use cais_harness::{JobSpec, EXPERIMENTS};
use std::collections::BTreeMap;

/// What a run computed: total time, events, semantic contributions and
/// every subsystem counter.
fn fingerprint(r: &JobResult) -> String {
    let report = r
        .report()
        .unwrap_or_else(|| panic!("{} failed: {:?}", r.label, r.failure()));
    format!(
        "total={:?} events={} contribs={} counters={:?}",
        report.total, report.events_processed, report.semantic_contribs, report.counters
    )
}

#[test]
fn equal_keys_give_equal_results() {
    let specs: Vec<JobSpec> = EXPERIMENTS
        .iter()
        .flat_map(|e| (e.manifest)(Scale::Smoke))
        .collect();
    let mut by_key: BTreeMap<String, Vec<JobSpec>> = BTreeMap::new();
    let n_jobs = specs.len();
    for spec in specs {
        by_key.entry(spec.key()).or_default().push(spec);
    }
    assert_eq!(n_jobs, 176, "smoke suite job count");
    assert_eq!(by_key.len(), 166, "smoke suite distinct-key count");

    let repeats: Vec<Vec<JobSpec>> = by_key.into_values().filter(|g| g.len() > 1).collect();
    let sizes: Vec<usize> = repeats.iter().map(Vec::len).collect();
    assert_eq!(
        sizes.iter().sum::<usize>() - sizes.len(),
        10,
        "repeated jobs"
    );
    let results = run_jobs(
        repeats
            .into_iter()
            .flatten()
            .map(JobSpec::into_job)
            .collect(),
        2,
    );
    let mut rest = &results[..];
    for size in sizes {
        let (group, tail) = rest.split_at(size);
        rest = tail;
        let first = fingerprint(&group[0]);
        for r in &group[1..] {
            assert_eq!(
                fingerprint(r),
                first,
                "{} and {} share a key",
                r.label,
                group[0].label
            );
        }
    }
}
