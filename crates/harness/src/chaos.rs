//! Chaos soak — seeded fault matrix under full conservation audit
//! (robustness gate, not a paper figure).
//!
//! Runs a matrix of fault-RNG seeds × strategies (CAIS, TP-NVLS) × fault
//! plans (fault-free, packet drops, bandwidth-degradation windows,
//! merge-table entry faults) over the LLaMA-7B L2 sub-layer, with the
//! conservation auditor enabled for every run: cadence ledger checks
//! during the run and quiescence verification at the end. Any
//! [`SimError::AuditViolation`](cais_engine::SimError) becomes a FAILED
//! line, so the soak doubles as a randomized search for bookkeeping leaks.
//!
//! On top of the audit, three metamorphic oracles compare runs that must
//! agree:
//!
//! 1. **Inert plans change nothing** — the fault-free plan run with two
//!    different fault seeds must be byte-identical (total time, events
//!    processed, semantic contributions) and report clean resilience
//!    counters; a zero-rate plan that perturbs anything is a gating bug.
//!    TP-NVLS has no merge unit, so its merge-fault run must equal its
//!    fault-free run in the same three numbers.
//! 2. **Fault-plan invariance** — retransmission delivers every packet
//!    exactly once and degradation only stretches time, so each
//!    strategy's *semantic* counters (tile reduction contributions;
//!    CAIS merge-unit arrivals; NVLS multicast/reduce/pull counts) must
//!    match its own fault-free reference under every fault plan.
//! 3. **Semantic-reduction equivalence** — CAIS and TP-NVLS lower the
//!    *same* dataflow graph, whose per-tile contribution contract the
//!    engine enforces at delivery time; both must complete it under full
//!    audit for every (seed, plan) cell. Their raw reduction counters are
//!    intentionally not compared (8 KB in-switch merges vs 256 KB NVLS
//!    chunks), but each side's counters are pinned by oracle 2.
//!
//! The whole soak is deterministic in its seed list, so a failure
//! reproduces by rerunning the same scale.

use crate::runner::{Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use cais_engine::{ExecReport, Strategy};
use llm_workload::{ModelConfig, SubLayer};
use sim_core::{DegradeSpec, FaultPlan, MergeFaultSpec, SimDuration};

/// Root of the soak's fault-seed sequence.
pub const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// The soak: one row per fault seed; failed runs and violated oracles
/// surface as FAILED lines.
pub const EXPERIMENT: Experiment = Experiment::new("chaos", manifest, render);

/// Fault-plan variants exercised for every (seed, strategy) pair. The
/// second fault-free variant reseeds the fault RNG streams to prove the
/// zero-rate plan is inert (oracle 1).
const PLANS: [&str; 5] = ["none", "none-reseeded", "drop", "degrade", "merge-faults"];

/// Strategies in column order.
const STRATEGIES: [&str; 2] = ["CAIS", "TP-NVLS"];

fn seeds(scale: Scale) -> Vec<u64> {
    // At smoke scale 8 seeds x 2 strategies x 5 plans = 80 audited runs.
    let n = scale.pick(16, 8);
    (0..n).map(|i| CHAOS_SEED ^ (i * 0x9E37_79B9)).collect()
}

/// The fault plan for one (seed, variant) cell.
fn plan(variant: &str, seed: u64) -> FaultPlan {
    let base = FaultPlan::default().with_seed(seed);
    match variant {
        "none" => base,
        "none-reseeded" => FaultPlan::default().with_seed(seed ^ 0x5EED_0BAD),
        "drop" => base.with_drop_rate(1e-3),
        "degrade" => base.with_degrade(DegradeSpec {
            factor: 2.0,
            period: SimDuration::from_us(10),
            duration: SimDuration::from_us(3),
        }),
        "merge-faults" => base.with_merge_faults(MergeFaultSpec {
            rate: 0.02,
            degrade_threshold: 4,
        }),
        other => unreachable!("unknown plan variant {other}"),
    }
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.model(&ModelConfig::llama_7b());
    let mut specs = Vec::new();
    for seed in seeds(scale) {
        for strat in STRATEGIES {
            for variant in PLANS {
                let strategy: Box<dyn Strategy> = match strat {
                    "CAIS" => Box::new(CaisStrategy::full()),
                    _ => Box::new(BaselineStrategy::tp_nvls()),
                };
                let label = format!("seed={seed:#x}/{strat}/{variant}");
                let l2 = Workload::sublayer(&model, SubLayer::L2);
                let mut cfg = scale.system();
                cfg.faults = plan(variant, seed);
                cfg.audit.enabled = true;
                // Tight enough that cadence checks fire many times per
                // run, not just the final quiescence pass.
                cfg.audit.cadence_events = 4096;
                specs.push(JobSpec::new(label, l2, strategy, cfg));
            }
        }
    }
    specs
}

/// How `run` differs from `reference` in total time, events processed
/// and semantic contributions, if it does.
fn run_mismatch(reference: &ExecReport, run: &ExecReport) -> Option<String> {
    let fingerprint = |r: &ExecReport| (r.total, r.events_processed, r.semantic_contribs);
    let ((t0, e0, c0), (t1, e1, c1)) = (fingerprint(reference), fingerprint(run));
    ((t0, e0, c0) != (t1, e1, c1))
        .then(|| format!("total {t0} vs {t1}, events {e0} vs {e1}, contribs {c0} vs {c1}"))
}

fn stat(r: &ExecReport, key: &str) -> f64 {
    r.stat(key).unwrap_or(0.0)
}

/// Checks the metamorphic oracles for one (seed, strategy) group of plan
/// runs; pushes one message per violated oracle.
fn check_group(
    label: &str,
    cais: bool,
    runs: &[Option<&ExecReport>],
    violations: &mut Vec<String>,
) {
    let mut fail = |msg: String| violations.push(format!("{label}: {msg}"));
    let Some(reference) = runs[0] else {
        return; // run failure already reported by absorb_failures
    };
    // Oracle 1: the two fault-free runs are byte-identical and clean,
    // and a merge-fault plan without a merge unit changes nothing.
    if let Some(m) = runs[1].and_then(|reseeded| run_mismatch(reference, reseeded)) {
        fail(format!(
            "zero-fault plan not byte-identical under reseed: {m}"
        ));
    }
    if !cais {
        let merge_faults = PLANS.iter().position(|&p| p == "merge-faults");
        if let Some(m) = merge_faults
            .and_then(|vi| runs[vi])
            .and_then(|run| run_mismatch(reference, run))
        {
            fail(format!(
                "plan merge-faults without a merge unit changed the run: {m}"
            ));
        }
    }
    if !reference.fabric.resilience().is_clean() {
        fail("fault-free reference reports resilience activity".into());
    }
    // Oracle 2: semantic counters invariant under every fault plan.
    for (vi, run) in runs.iter().enumerate().skip(1) {
        let Some(run) = run else { continue };
        let variant = PLANS[vi];
        if run.semantic_contribs != reference.semantic_contribs {
            fail(format!(
                "plan {variant}: semantic tile contributions {} != fault-free {}",
                run.semantic_contribs, reference.semantic_contribs
            ));
        }
        let keys: &[&str] = if cais {
            // Merge-entry faults may legally reroute merge-unit arrivals
            // through the degraded bypass path; the engine-level
            // `semantic_contribs` check above still pins the semantics.
            if variant == "merge-faults" {
                &[]
            } else {
                &["cais.load_requests", "cais.reduce_contribs"]
            }
        } else {
            &["nvls.multicasts", "nvls.reductions", "nvls.pulls"]
        };
        for key in keys {
            let (got, want) = (stat(run, key), stat(reference, key));
            if got != want {
                fail(format!("plan {variant}: {key} {got} != fault-free {want}"));
            }
        }
    }
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let seeds = seeds(scale);
    let mut table = Table::new(
        "chaos-soak",
        "seeded fault matrix under full conservation audit (LLaMA-7B L2)",
        vec![
            "CAIS none (us)".into(),
            "CAIS drop (us)".into(),
            "CAIS degrade (us)".into(),
            "CAIS merge (us)".into(),
            "TP-NVLS none (us)".into(),
            "oracle fails".into(),
        ],
    );
    let mut oracle_violations: Vec<String> = Vec::new();
    let per_seed = STRATEGIES.len() * PLANS.len();
    for (seed, runs) in seeds.iter().zip(results.chunks(per_seed)) {
        let before = oracle_violations.len();
        for (strat, group) in STRATEGIES.iter().zip(runs.chunks(PLANS.len())) {
            let reports: Vec<Option<&ExecReport>> = group.iter().map(JobResult::report).collect();
            let label = format!("seed={seed:#x}/{strat}");
            check_group(&label, *strat == "CAIS", &reports, &mut oracle_violations);
        }
        let row_fails = (oracle_violations.len() - before) as f64;
        // CAIS none, drop, degrade and merge-faults, then TP-NVLS none.
        let mut row: Vec<f64> = [0, 2, 3, 4, PLANS.len()]
            .iter()
            .map(|&i| runs[i].secs() * 1e6)
            .collect();
        row.push(row_fails);
        table.push(format!("seed {seed:#x}"), row);
    }
    table.absorb_failures(results);
    table.failures.extend(oracle_violations);
    table.notes = format!(
        "{} audited runs ({} seeds x {} strategies x {} plans); every run \
         verifies conservation ledgers at a {}-event cadence plus end-of-run \
         quiescence; oracle fails counts metamorphic-oracle violations \
         (zero-fault determinism, fault-plan counter invariance)",
        results.len(),
        seeds.len(),
        STRATEGIES.len(),
        PLANS.len(),
        4096,
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_well_formed_and_clean() {
        let tables = EXPERIMENT.run(Scale::Smoke, 2);
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert!(t.failures.is_empty(), "{:?}", t.failures);
        assert!(t.timeouts.is_empty(), "{:?}", t.timeouts);
        assert_eq!(t.rows.len(), seeds(Scale::Smoke).len());
        for (label, row) in &t.rows {
            assert_eq!(*row.last().expect("cells"), 0.0, "{label} oracle fails");
            assert!(row[..5].iter().all(|v| *v > 0.0), "{label} has empty cells");
        }
    }

    /// The paper-scale cell `seed=0x863a8f6f3/CAIS/merge-faults` once
    /// deadlocked: a merge session opened while a faulted session's
    /// refetch was in flight, consumed that response, and its requester
    /// was never answered. It must now finish clean under full audit.
    #[test]
    fn paper_scale_merge_fault_cell_drains() {
        let cell = manifest(Scale::Paper)
            .into_iter()
            .find(|s| s.label == "seed=0x863a8f6f3/CAIS/merge-faults")
            .expect("the cell is in the paper-scale soak");
        if let Err(e) = cell.run() {
            panic!("{e}");
        }
    }

    /// TP-NVLS has no merge unit: its merge-fault run must equal its
    /// fault-free run, and the oracle says so when a report differs.
    /// CAIS may legally diverge under the same plan.
    #[test]
    fn merge_faults_without_a_merge_unit_change_nothing() {
        let none = manifest(Scale::Smoke)
            .into_iter()
            .find(|s| s.label.ends_with("/TP-NVLS/none"))
            .expect("a TP-NVLS fault-free cell")
            .run()
            .expect("run");
        let mut moved = none.clone();
        moved.events_processed += 1;
        let mut runs = [Some(&none); PLANS.len()];
        let mut violations = Vec::new();
        check_group("g", false, &runs, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
        runs[PLANS.len() - 1] = Some(&moved);
        check_group("g", false, &runs, &mut violations);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("merge-faults"), "{violations:?}");
        violations.clear();
        check_group("g", true, &runs, &mut violations);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
