//! Resilience — fault-injection sweep (robustness study, not a paper
//! figure).
//!
//! Two tables over the LLaMA-7B L2 sub-layer, CAIS vs. TP-NVLS:
//!
//! * **resil-drop** — per-packet drop-rate sweep. Every dropped packet is
//!   detected at its would-be delivery instant (NACK/timeout round) and
//!   retransmitted after bounded exponential backoff, so runs complete at
//!   every rate; the table reports step time plus the CAIS run's
//!   retry/backoff counters from the fabric's
//!   [`ResilienceCounters`](noc_sim::ResilienceCounters).
//! * **resil-degrade** — periodic link bandwidth-degradation windows at
//!   increasing severity factors (`x1.0` = fault-free baseline).
//!
//! All fault timelines derive from [`FAULT_SEED`], so the tables are
//! byte-identical across `--jobs` settings and hosts. The zero-fault rows
//! use `FaultPlan::default()` and therefore match a build without the
//! fault subsystem exactly.

use crate::runner::{tp_nvls_and_cais, Entry, Experiment, JobSpec, Scale, Table, Workload};
use crate::sweep::JobResult;
use llm_workload::{ModelConfig, SubLayer};
use sim_core::{DegradeSpec, FaultPlan, SimDuration};

/// Root seed for every resilience run's fault RNG streams.
pub const FAULT_SEED: u64 = 0xFA17;

/// The experiment: (CAIS, TP-NVLS) per drop rate, then per degradation
/// factor.
pub const EXPERIMENT: Experiment = Experiment::new("resilience", manifest, render);

/// Per-packet drop probabilities swept by `resil-drop`.
fn drop_rates(scale: Scale) -> Vec<f64> {
    scale.pick(vec![0.0, 1e-4, 1e-3, 5e-3, 1e-2], vec![0.0, 1e-3, 1e-2])
}

/// Bandwidth-degradation factors swept by `resil-degrade` (`1.0` is the
/// fault-free baseline row).
const DEGRADE_FACTORS: [f64; 4] = [1.0, 1.5, 2.0, 4.0];

fn us(secs: f64) -> f64 {
    secs * 1e6
}

fn manifest(scale: Scale) -> Vec<JobSpec> {
    let model = scale.model(&ModelConfig::llama_7b());
    let base = FaultPlan::default().with_seed(FAULT_SEED);
    let drops = drop_rates(scale).into_iter().map(|rate| {
        (
            format!("drop={rate:.0e}"),
            base.clone().with_drop_rate(rate),
        )
    });
    let degrades = DEGRADE_FACTORS.into_iter().map(|factor| {
        let faults = if factor > 1.0 {
            base.clone().with_degrade(DegradeSpec {
                factor,
                period: SimDuration::from_us(10),
                duration: SimDuration::from_us(3),
            })
        } else {
            base.clone()
        };
        (format!("degrade=x{factor}"), faults)
    });
    let mut specs = Vec::new();
    for (plan, faults) in drops.chain(degrades) {
        let mut cfg = scale.system();
        cfg.faults = faults;
        for Entry { strategy, .. } in tp_nvls_and_cais().into_iter().rev() {
            let label = format!("{plan}/{}", strategy.name());
            let workload = Workload::sublayer(&model, SubLayer::L2);
            specs.push(JobSpec::new(label, workload, strategy, cfg.clone()));
        }
    }
    specs
}

fn render(scale: Scale, results: &[JobResult]) -> Vec<Table> {
    let rates = drop_rates(scale);
    let (drop_results, degrade_results) = results.split_at(2 * rates.len());

    let mut drop_table = Table::new(
        "resil-drop",
        "step time vs packet-drop rate with retransmission (LLaMA-7B L2)",
        vec![
            "CAIS (us)".into(),
            "TP-NVLS (us)".into(),
            "retries".into(),
            "backoff (us)".into(),
            "drops".into(),
        ],
    );
    let cais_counters = |c: &JobResult| {
        c.report()
            .map(|r| r.fabric.resilience().clone())
            .unwrap_or_default()
    };
    for (pair, rate) in drop_results.chunks(2).zip(rates) {
        let (c, n) = (&pair[0], &pair[1]);
        let res = cais_counters(c);
        drop_table.push(
            format!("drop {rate:.0e}"),
            vec![
                us(c.secs()),
                us(n.secs()),
                res.retries as f64,
                us(res.backoff_time.as_secs_f64()),
                res.drops as f64,
            ],
        );
    }
    drop_table.absorb_failures(drop_results);
    drop_table.notes = format!(
        "retry/backoff/drop counters are from the CAIS run; every drop is \
         NACKed and retransmitted after bounded exponential backoff, so all \
         rates complete; fault seed {FAULT_SEED:#x}"
    );

    let mut degrade_table = Table::new(
        "resil-degrade",
        "step time vs link bandwidth-degradation factor (LLaMA-7B L2)",
        vec![
            "CAIS (us)".into(),
            "TP-NVLS (us)".into(),
            "degraded serves".into(),
        ],
    );
    for (pair, factor) in degrade_results.chunks(2).zip(DEGRADE_FACTORS) {
        let (c, n) = (&pair[0], &pair[1]);
        let res = cais_counters(c);
        degrade_table.push(
            format!("x{factor}"),
            vec![us(c.secs()), us(n.secs()), res.degraded_serves as f64],
        );
    }
    degrade_table.absorb_failures(degrade_results);
    degrade_table.notes = "periodic 3us-in-10us windows stretch transfer times by the \
                           factor; x1.0 runs the default (fault-free) plan"
        .into();

    vec![drop_table, degrade_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_well_formed() {
        let tables = EXPERIMENT.run(Scale::Smoke, 2);
        assert_eq!(tables.len(), 2);
        let drops = &tables[0];
        assert!(drops.failures.is_empty(), "{:?}", drops.failures);
        assert_eq!(drops.rows.len(), 3);
        // The zero-rate row is fault-free: no retries, no backoff, and a
        // step time that matches a run without the fault subsystem.
        let clean = &drops.rows[0].1;
        assert!(clean[0] > 0.0 && clean[1] > 0.0);
        assert_eq!(clean[2], 0.0, "zero-rate row must not retry");
        assert_eq!(clean[3], 0.0, "zero-rate row must not back off");
        // The heaviest rate visibly exercises the retransmit path.
        let heavy = drops.rows.last().expect("rows").1.clone();
        assert!(heavy[2] > 0.0, "1e-2 drop rate must trigger retries");
        assert!(heavy[4] >= heavy[2], "drops >= successful retries");

        let degrade = &tables[1];
        assert!(degrade.failures.is_empty(), "{:?}", degrade.failures);
        assert_eq!(degrade.rows.len(), DEGRADE_FACTORS.len());
        let base = &degrade.rows[0].1;
        assert_eq!(base[2], 0.0, "x1.0 row runs the default plan");
        let worst = degrade.rows.last().expect("rows").1.clone();
        assert!(worst[2] > 0.0, "x4.0 windows must catch some serves");
        assert!(worst[0] >= base[0], "degradation must not speed the run up");
    }
}
