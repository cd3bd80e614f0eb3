//! The benchmark's workloads as sweep manifests, and the checks on their
//! outputs.
//!
//! Every job builds its graph, constructs a fresh strategy, tunes and
//! lowers on the worker thread that claims it (a reused `CaisStrategy`
//! would serve the lowering from its cache and hide set-up time), then
//! runs the lowered program through `Strategy::run`.

use cais_baselines::BaselineStrategy;
use cais_core::CaisStrategy;
use cais_engine::{ExecReport, Program, Strategy, SystemConfig};
use cais_harness::chaos::CHAOS_SEED;
use cais_harness::runner::{roster, Scale};
use cais_harness::sweep::JobResult;
use llm_workload::{sublayer, transformer_layer, ModelConfig, Pass, SubLayer, TpMode};
use noc_sim::FabricConfig;
use sim_core::{DegradeSpec, FaultPlan, MergeFaultSpec, SimDuration};
use std::time::Instant;

/// One set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One CAIS-full LLaMA-7B forward layer on 32 GPUs (the largest
    /// Fig. 17 point), as a single job.
    Tp32Cais,
    /// The LLaMA-7B bars of Fig. 11: 11 roster strategies x {Forward,
    /// Training} on 8 GPUs.
    Fig11Llama7b,
    /// A window of the paper-scale chaos matrix: 4 fault seeds x {CAIS,
    /// TP-NVLS} x 5 fault plans on the LLaMA-7B L2 sub-layer, audited.
    ChaosFaults,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::Tp32Cais,
        Workload::Fig11Llama7b,
        Workload::ChaosFaults,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Tp32Cais => "tp32-cais",
            Workload::Fig11Llama7b => "fig11-llama7b",
            Workload::ChaosFaults => "chaos-faults",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Fault plans of one chaos (seed, strategy) group, in manifest order.
/// The second fault-free plan reseeds the fault streams to show a
/// zero-rate plan is inert.
const PLANS: [&str; 5] = ["none", "none-reseeded", "drop", "degrade", "merge-faults"];

/// Fault seeds per chaos pass. The paper-scale soak runs 16; four keep a
/// single-threaded pass near ten seconds, so a run times three passes.
const CHAOS_SEEDS: u64 = 4;

/// Events between the auditor's cadence checks when a pass is audited.
const AUDIT_CADENCE: u64 = 4096;

/// Merge-entry faults after which a port degrades to the unmerged path.
/// The paper-scale soak uses 4, and then a re-forwarded load response
/// can be absorbed by a later session for the same address on the same
/// port, which loses its requester (a known deadlock in about one
/// CAIS/merge-faults job in sixteen). Degrading at the first fault opens
/// no such later session, so every job completes while entry faults,
/// re-forwarding and the degraded bypass still run.
const DEGRADE_THRESHOLD: u32 = 1;

/// The fault seeds of one chaos pass. The benchmark seed picks a window
/// of the soak's seed sequence; seed 0 is the start of the paper-scale
/// `cais-experiments chaos` list.
fn fault_seeds(seed: u64) -> Vec<u64> {
    (0..CHAOS_SEEDS)
        .map(|i| {
            let k = seed.wrapping_mul(CHAOS_SEEDS).wrapping_add(i);
            CHAOS_SEED ^ k.wrapping_mul(0x9E37_79B9)
        })
        .collect()
}

fn fault_plan(variant: &str, seed: u64) -> FaultPlan {
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
            degrade_threshold: DEGRADE_THRESHOLD,
        }),
        other => unreachable!("unknown plan variant {other}"),
    }
}

enum Kind {
    /// Roster entry `index` on one transformer layer of `model`, in the
    /// parallelism layout the entry was designed for.
    Roster {
        index: usize,
        mode: TpMode,
        model: ModelConfig,
        pass: Pass,
    },
    /// CAIS-full on one LLaMA-7B forward layer with hidden dimensions
    /// grown with the GPU count.
    ScaledCais { model: ModelConfig },
    /// CAIS-full or TP-NVLS on the LLaMA-7B L2 sub-layer.
    Chaos { cais: bool, model: ModelConfig },
}

/// One job of a manifest: what to build, lower and run, and on which
/// system.
pub struct Spec {
    /// Manifest label, used in failure reports.
    pub label: String,
    kind: Kind,
    cfg: SystemConfig,
}

/// A job's lowered program, ready to run, with its set-up timings.
pub struct Prepared {
    /// The freshly constructed strategy that lowered the program.
    pub strategy: Box<dyn Strategy>,
    /// The tuned system configuration.
    pub cfg: SystemConfig,
    /// The lowered program.
    pub program: Program,
    /// Host seconds spent building the dataflow graph.
    pub dfg_s: f64,
    /// Host seconds spent in `Strategy::tune` + `Strategy::lower`.
    pub lower_s: f64,
}

impl Spec {
    /// Builds the graph, constructs a fresh strategy, tunes and lowers.
    pub fn prepare(&self) -> Prepared {
        let strategy: Box<dyn Strategy> = match &self.kind {
            Kind::Roster { index, .. } => roster().swap_remove(*index).strategy,
            Kind::Chaos { cais: false, .. } => Box::new(BaselineStrategy::tp_nvls()),
            Kind::ScaledCais { .. } | Kind::Chaos { cais: true, .. } => {
                Box::new(CaisStrategy::full())
            }
        };
        let tp = self.cfg.tp();
        let t0 = Instant::now();
        let dfg = match &self.kind {
            Kind::Roster {
                mode, model, pass, ..
            } => transformer_layer(model, tp, *mode, *pass),
            Kind::ScaledCais { model } => {
                transformer_layer(model, tp, TpMode::SeqPar, Pass::Forward)
            }
            Kind::Chaos { model, .. } => sublayer(model, tp, SubLayer::L2),
        };
        let dfg_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut cfg = self.cfg.clone();
        strategy.tune(&mut cfg);
        let program = strategy.lower(&dfg, &cfg);
        let lower_s = t1.elapsed().as_secs_f64();
        Prepared {
            strategy,
            cfg,
            program,
            dfg_s,
            lower_s,
        }
    }
}

/// The job manifest of one pass of `workload`. `seed` selects the chaos
/// fault seeds and is ignored by the other workloads, which have no
/// random inputs. `audit` switches the conservation auditor.
pub fn manifest(workload: Workload, seed: u64, audit: bool) -> Vec<Spec> {
    let mut specs = match workload {
        Workload::Tp32Cais => {
            let (base_p, p) = (8, 32);
            let mut cfg = Scale::Paper.system();
            cfg.n_gpus = p;
            cfg.fabric = FabricConfig::default_for(p, cfg.n_planes);
            let model = ModelConfig::llama_7b().scale_hidden(p as u64, base_p);
            vec![Spec {
                label: format!("CAIS/{}/{p}gpus", model.name),
                kind: Kind::ScaledCais { model },
                cfg,
            }]
        }
        Workload::Fig11Llama7b => {
            let cfg = Scale::Paper.system();
            let entries: Vec<(String, TpMode)> = roster()
                .iter()
                .map(|e| (e.strategy.name().to_string(), e.mode))
                .collect();
            let mut specs = Vec::new();
            for pass in [Pass::Forward, Pass::Training] {
                for (index, (name, mode)) in entries.iter().enumerate() {
                    for model in fig11_models() {
                        specs.push(Spec {
                            label: format!("{name}/{}/{pass:?}", model.name),
                            kind: Kind::Roster {
                                index,
                                mode: *mode,
                                model,
                                pass,
                            },
                            cfg: cfg.clone(),
                        });
                    }
                }
            }
            specs
        }
        Workload::ChaosFaults => {
            let model = Scale::Paper.model(&ModelConfig::llama_7b());
            let mut specs = Vec::new();
            for fault_seed in fault_seeds(seed) {
                for (cais, strat) in [(true, "CAIS"), (false, "TP-NVLS")] {
                    for variant in PLANS {
                        let mut cfg = Scale::Paper.system();
                        cfg.faults = fault_plan(variant, fault_seed);
                        specs.push(Spec {
                            label: format!("seed={fault_seed:#x}/{strat}/{variant}"),
                            kind: Kind::Chaos {
                                cais,
                                model: model.clone(),
                            },
                            cfg,
                        });
                    }
                }
            }
            specs
        }
    };
    for spec in &mut specs {
        spec.cfg.audit.enabled = audit;
        spec.cfg.audit.cadence_events = AUDIT_CADENCE;
    }
    specs
}

/// Checks every job's output. Returns, in manifest order, each failed
/// job's index with the reason: a typed error or panic, a report that did not complete its program, or (on the
/// chaos workload) a violated fault-plan oracle.
pub fn check(
    workload: Workload,
    results: &[JobResult],
    kernels: &[Option<u64>],
) -> Vec<(usize, String)> {
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (i, r) in results.iter().enumerate() {
        let reason = match (&r.outcome, kernels[i]) {
            (Err(f), _) => Some(format!("{:?}: {}", f.kind, f.message)),
            (Ok(_), None) => Some("no set-up record".to_string()),
            (Ok(rep), Some(k)) => {
                if rep.total.as_ps() == 0 || rep.events_processed == 0 {
                    Some("empty report".to_string())
                } else if rep.kernel_spans.len() as u64 != k {
                    Some(format!(
                        "{} of {k} lowered kernels have a span",
                        rep.kernel_spans.len()
                    ))
                } else {
                    None
                }
            }
        };
        if let Some(reason) = reason {
            failures.push((i, reason));
        }
    }
    if workload == Workload::ChaosFaults {
        for (g, group) in results.chunks(PLANS.len()).enumerate() {
            let cais = g % 2 == 0;
            for (vi, msg) in chaos_oracles(cais, group) {
                failures.push((g * PLANS.len() + vi, msg));
            }
        }
        failures.sort_by_key(|(i, _)| *i);
    }
    failures
}

fn stat(r: &ExecReport, key: &str) -> f64 {
    r.stat(key).unwrap_or(0.0)
}

/// The chaos soak's metamorphic oracles for one (seed, strategy) group
/// of plan runs: zero-fault reseed identity, a clean fault-free
/// reference, and semantic counters invariant across fault plans.
/// Returns (plan index, violation) pairs.
fn chaos_oracles(cais: bool, group: &[JobResult]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let Some(reference) = group[0].report() else {
        return out;
    };
    if !reference.fabric.resilience().is_clean() {
        out.push((0, "fault-free reference reports resilience activity".into()));
    }
    if let Some(reseeded) = group[1].report() {
        if (
            reference.total,
            reference.events_processed,
            reference.semantic_contribs,
        ) != (
            reseeded.total,
            reseeded.events_processed,
            reseeded.semantic_contribs,
        ) {
            out.push((
                1,
                format!(
                    "zero-fault plan changed under reseed: total {} vs {}, events {} vs {}",
                    reference.total,
                    reseeded.total,
                    reference.events_processed,
                    reseeded.events_processed
                ),
            ));
        }
    }
    for (vi, run) in group.iter().enumerate().skip(1) {
        let Some(run) = run.report() else { continue };
        let variant = PLANS[vi];
        if run.semantic_contribs != reference.semantic_contribs {
            out.push((
                vi,
                format!(
                    "plan {variant}: semantic_contribs {} != fault-free {}",
                    run.semantic_contribs, reference.semantic_contribs
                ),
            ));
        }
        // Merge-entry faults may legally reroute merge-unit arrivals
        // through the degraded bypass; `semantic_contribs` still pins them.
        let keys: &[&str] = match (cais, variant) {
            (true, "merge-faults") => &[],
            (true, _) => &["cais.load_requests", "cais.reduce_contribs"],
            (false, _) => &["nvls.multicasts", "nvls.reductions", "nvls.pulls"],
        };
        for key in keys {
            let (got, want) = (stat(run, key), stat(reference, key));
            if got != want {
                out.push((
                    vi,
                    format!("plan {variant}: {key} {got} != fault-free {want}"),
                ));
            }
        }
    }
    out
}

/// The Table-I models of the `fig11-llama7b` manifest. The other two
/// would triple a pass that already takes about ten seconds on one core.
fn fig11_models() -> [ModelConfig; 1] {
    [ModelConfig::llama_7b()]
}

/// Geomean over the Fig. 11 (model, pass) cells of TP-NVLS simulated time
/// over CAIS simulated time; NaN when a cell failed.
pub fn cais_speedup(results: &[JobResult]) -> f64 {
    let n_models = fig11_models().len();
    let n_entries = roster().len();
    let per_pass = n_entries * n_models;
    let mut log_sum = 0.0;
    let mut cells = 0;
    for pass in results.chunks(per_pass) {
        for m in 0..n_models {
            // Roster order puts TP-NVLS first and CAIS last.
            let nvls = pass[m].secs();
            let cais = pass[(n_entries - 1) * n_models + m].secs();
            log_sum += (nvls / cais).ln();
            cells += 1;
        }
    }
    (log_sum / cells as f64).exp()
}
