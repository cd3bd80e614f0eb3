//! Shared experiment plumbing: scales, strategy roster, job specs, the
//! suite runner and result tables.

use crate::sweep::{self, JobResult, SweepJob};
use cais_baselines::{BaselineStrategy, LadmStrategy};
use cais_core::CaisStrategy;
use cais_engine::strategy::execute;
use cais_engine::{ExecReport, IdAlloc, Program, SimError, Strategy, SystemConfig, SystemSim};
use llm_workload::{sublayer, transformer_stack, Dfg, ModelConfig, Pass, SubLayer, TpMode};
use nvls::{nvls_all_reduce, NvlsLogic};
use sim_core::stats::geomean;
use sim_core::GpuId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration (Table I models on 8 half-scale H100s).
    Paper,
    /// Reduced dimensions for fast smoke runs/tests.
    Smoke,
}

impl Scale {
    /// `paper` at paper scale, `smoke` at smoke scale.
    pub(crate) fn pick<T>(self, paper: T, smoke: T) -> T {
        match self {
            Scale::Paper => paper,
            Scale::Smoke => smoke,
        }
    }

    /// Scales a Table-I model down for smoke runs.
    pub fn model(self, base: &ModelConfig) -> ModelConfig {
        match self {
            Scale::Paper => base.clone(),
            Scale::Smoke => ModelConfig {
                hidden: (base.hidden / 4).max(1024),
                ffn_hidden: (base.ffn_hidden / 4).max(2048),
                heads: (base.heads / 4).max(8),
                seq_len: (base.seq_len / 4).max(256),
                batch: (base.batch / 2).max(1),
                ..base.clone()
            },
        }
    }

    /// LLaMA-7B, halved rather than quartered for smoke runs: Fig. 2 and
    /// the ablations need real work to dominate launch overheads.
    pub(crate) fn llama_7b_halved(self) -> ModelConfig {
        match self {
            Scale::Paper => ModelConfig::llama_7b(),
            Scale::Smoke => ModelConfig {
                hidden: 2048,
                ffn_hidden: 5632,
                heads: 16,
                seq_len: 1536,
                batch: 2,
                ..ModelConfig::llama_7b()
            },
        }
    }

    /// The base system configuration for this scale.
    pub fn system(self) -> SystemConfig {
        let mut cfg = SystemConfig::dgx_h100();
        if self == Scale::Smoke {
            cfg.coll_chunk_bytes = 256 * 1024;
        }
        cfg
    }
}

/// A printable experiment result.
#[derive(Debug, Clone)]
pub struct Table {
    /// Short id ("fig11", "table2", ...).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers (after the row label).
    pub columns: Vec<String>,
    /// Rows: label + one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Free-form notes (paper reference values, caveats).
    pub notes: String,
    /// Sweep jobs that returned a typed [`SimError`] or panicked
    /// ("label: message"). Rows derived from a failed job carry NaN
    /// cells; the CLI exits nonzero when any table has failures.
    pub failures: Vec<String>,
    /// Sweep jobs killed by the per-job wall-clock watchdog, rendered
    /// separately from failures so a hung run is distinguishable from a
    /// diverged one. Also makes the CLI exit nonzero.
    pub timeouts: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<String>) -> Table {
        Table {
            id,
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: String::new(),
            failures: Vec::new(),
            timeouts: Vec::new(),
        }
    }

    /// Records every failed job from a sweep batch so the rendered table
    /// explains its NaN cells, routing watchdog timeouts to their own
    /// section. Results are scanned in manifest order, so both lists are
    /// as deterministic as the rows.
    pub fn absorb_failures(&mut self, results: &[JobResult]) {
        for r in results {
            if let Some(f) = r.failure() {
                let line = format!("{}: {}", r.label, f.message);
                match f.kind {
                    crate::sweep::FailKind::Timeout => self.timeouts.push(line),
                    crate::sweep::FailKind::Failed => self.failures.push(line),
                }
            }
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the column count.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), values));
    }

    /// Looks up a cell by row label and column name.
    pub fn cell(&self, row: &str, col: &str) -> Option<f64> {
        let ci = self.columns.iter().position(|c| c == col)?;
        self.rows.iter().find(|(l, _)| l == row).map(|(_, v)| v[ci])
    }

    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        let _ = write!(out, "{:label_w$}", "");
        for c in &self.columns {
            let _ = write!(out, " {c:>12}");
        }
        let _ = writeln!(out);
        for (label, values) in &self.rows {
            let _ = write!(out, "{label:label_w$}");
            for v in values {
                if v.abs() >= 1000.0 {
                    let _ = write!(out, " {v:>12.0}");
                } else {
                    let _ = write!(out, " {v:>12.3}");
                }
            }
            let _ = writeln!(out);
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED {f}");
        }
        for t in &self.timeouts {
            let _ = writeln!(out, "  TIMEOUT {t}");
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out, "  note: {}", self.notes);
        }
        out
    }
}

/// A named strategy plus the TP flavour of the graph it runs on.
pub struct Entry {
    /// The strategy.
    pub strategy: Box<dyn Strategy>,
    /// Which parallelism layout its graphs use.
    pub mode: TpMode,
}

impl Entry {
    pub(crate) fn new(strategy: impl Strategy + 'static, mode: TpMode) -> Entry {
        Entry {
            strategy: Box::new(strategy),
            mode,
        }
    }
}

/// The Fig. 11/12 roster: nine baselines, the CAIS-Base ablation, and
/// CAIS. TP-NVLS and the GEMM+AllReduce pipeliners run Basic TP graphs;
/// sequence-parallel systems run SP graphs — each system gets the layout
/// it was designed for, as in the paper.
pub fn roster() -> Vec<Entry> {
    vec![
        Entry::new(BaselineStrategy::tp_nvls(), TpMode::BasicTp),
        Entry::new(BaselineStrategy::sp_nvls(), TpMode::SeqPar),
        Entry::new(BaselineStrategy::coconet(), TpMode::BasicTp),
        Entry::new(BaselineStrategy::fuselib(), TpMode::BasicTp),
        Entry::new(BaselineStrategy::t3(), TpMode::SeqPar),
        Entry::new(BaselineStrategy::coconet_nvls(), TpMode::BasicTp),
        Entry::new(BaselineStrategy::fuselib_nvls(), TpMode::BasicTp),
        Entry::new(BaselineStrategy::t3_nvls(), TpMode::SeqPar),
        Entry::new(LadmStrategy::new(), TpMode::SeqPar),
        Entry::new(CaisStrategy::base(), TpMode::SeqPar),
        Entry::new(CaisStrategy::full(), TpMode::SeqPar),
    ]
}

/// TP-NVLS and CAIS, the pair most experiments compare: the roster's
/// first and last entries.
pub(crate) fn tp_nvls_and_cais() -> [Entry; 2] {
    [
        Entry::new(BaselineStrategy::tp_nvls(), TpMode::BasicTp),
        Entry::new(CaisStrategy::full(), TpMode::SeqPar),
    ]
}

/// Appends one `vs <system>` row per roster entry to a speedup table:
/// each system's time over CAIS's (the roster's last entry) per column,
/// then their geomean. `results` holds one run of the whole roster per
/// column, column after column.
pub(crate) fn push_speedups(table: &mut Table, results: &[JobResult]) {
    let roster = roster();
    let columns: Vec<&[JobResult]> = results.chunks(roster.len()).collect();
    for (si, entry) in roster.iter().enumerate() {
        let mut speedups: Vec<f64> = columns
            .iter()
            .map(|c| c[si].secs() / c[roster.len() - 1].secs())
            .collect();
        speedups.push(geomean(&speedups));
        table.push(format!("vs {}", entry.strategy.name()), speedups);
    }
}

/// GPU 0's compute and collective (`coll.` kernel) time in µs.
pub(crate) fn compute_and_comm_us(report: &ExecReport) -> (f64, f64) {
    let comm = report.kernel_time_with_prefix("coll.").as_us_f64();
    let total: f64 = report
        .kernel_spans
        .values()
        .filter(|s| s.gpu == GpuId(0))
        .map(|s| s.duration().as_us_f64())
        .sum();
    (total - comm, comm)
}

/// What one sweep job simulates.
#[derive(Debug, Clone)]
pub enum Workload {
    /// `layers` transformer layers of `model` in `mode` (one layer, or a
    /// stack whose layer boundaries the optimizer may fuse across).
    Layers {
        /// The model.
        model: ModelConfig,
        /// Parallelism layout of the graph.
        mode: TpMode,
        /// Forward or training step.
        pass: Pass,
        /// Layer count (1 = a single layer).
        layers: u64,
    },
    /// One GEMM-RS → LN → AG-GEMM sub-layer of `model`.
    SubLayer {
        /// The model.
        model: ModelConfig,
        /// Which of the four sub-layers.
        which: SubLayer,
    },
    /// A bare NVLS AllReduce of `bytes` on switch multicast/reduction
    /// logic, with no strategy (Fig. 18's validation runs).
    NvlsAllReduce {
        /// Message size.
        bytes: u64,
    },
}

impl Workload {
    /// One transformer layer of `model`.
    pub fn layer(model: &ModelConfig, mode: TpMode, pass: Pass) -> Workload {
        let model = model.clone();
        Workload::Layers {
            model,
            mode,
            pass,
            layers: 1,
        }
    }

    /// One sub-layer of `model`.
    pub fn sublayer(model: &ModelConfig, which: SubLayer) -> Workload {
        let model = model.clone();
        Workload::SubLayer { model, which }
    }
}

/// One sweep job as data: what to simulate, under which strategy, on
/// which system. Two specs with equal [`key`](JobSpec::key)s compute the
/// same report, so the suite runs each key once.
#[derive(Debug)]
pub struct JobSpec {
    /// The experiment's name for this job, shown in FAILED/TIMEOUT lines
    /// and timing logs. Not part of the key.
    pub label: String,
    /// What to simulate.
    pub workload: Workload,
    /// How to lower and run it; `None` exactly for
    /// [`Workload::NvlsAllReduce`].
    pub strategy: Option<Box<dyn Strategy>>,
    /// The system before the strategy tunes it.
    pub cfg: SystemConfig,
}

impl JobSpec {
    /// A job running `strategy` on a graph workload.
    pub fn new(
        label: impl Into<String>,
        workload: Workload,
        strategy: Box<dyn Strategy>,
        cfg: SystemConfig,
    ) -> JobSpec {
        JobSpec {
            label: label.into(),
            workload,
            strategy: Some(strategy),
            cfg,
        }
    }

    /// A bare NVLS AllReduce of `bytes` on `cfg`.
    pub fn all_reduce(label: impl Into<String>, bytes: u64, cfg: SystemConfig) -> JobSpec {
        JobSpec {
            label: label.into(),
            workload: Workload::NvlsAllReduce { bytes },
            strategy: None,
            cfg,
        }
    }

    /// The canonical identity of what this job computes: the derived
    /// `Debug` of the workload, the strategy and the config, so no field
    /// can be left out of it.
    pub fn key(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.workload, self.strategy, self.cfg)
    }

    /// The dataflow graph of a graph workload, at the config's TP degree.
    pub fn graph(&self) -> Option<Dfg> {
        let tp = self.cfg.tp();
        match &self.workload {
            Workload::Layers {
                model,
                mode,
                pass,
                layers,
            } => Some(transformer_stack(model, tp, *mode, *pass, *layers)),
            Workload::SubLayer { model, which } => Some(sublayer(model, tp, *which)),
            Workload::NvlsAllReduce { .. } => None,
        }
    }

    /// Runs the job. A graph workload without a strategy, or an AllReduce
    /// with one, is a manifest bug: it panics, and the sweep runner turns
    /// the panic into a FAILED line.
    ///
    /// # Errors
    ///
    /// Propagates the run's typed [`SimError`].
    pub fn run(&self) -> Result<ExecReport, SimError> {
        match (&self.workload, &self.strategy, self.graph()) {
            (_, Some(strategy), Some(dfg)) => execute(strategy.as_ref(), &dfg, &self.cfg),
            (&Workload::NvlsAllReduce { bytes }, None, None) => {
                let cfg = self.cfg.clone();
                let mut prog = Program::new();
                let mut ids = IdAlloc::new(cfg.n_gpus);
                nvls_all_reduce(&mut prog, &mut ids, &cfg, "ar", bytes, &[], None);
                let n = cfg.n_gpus;
                SystemSim::new(cfg, prog, NvlsLogic::new(n)).run()
            }
            _ => panic!("{}: strategy does not fit workload", self.label),
        }
    }

    /// The sweep job that runs this spec on the worker that claims it.
    pub fn into_job(self) -> SweepJob {
        SweepJob::new(self.label.clone(), move || self.run())
    }
}

/// One table- or figure-producing experiment: the jobs it needs, and how
/// their results become tables.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI name ("fig11", "chaos", ...).
    pub name: &'static str,
    /// The jobs, in the order `render` reads their results.
    pub manifest: fn(Scale) -> Vec<JobSpec>,
    /// Builds the tables from the results of `manifest`, one per spec,
    /// each under its spec's label.
    pub render: fn(Scale, &[JobResult]) -> Vec<Table>,
}

impl Experiment {
    /// The experiment `name` on the CLI.
    pub const fn new(
        name: &'static str,
        manifest: fn(Scale) -> Vec<JobSpec>,
        render: fn(Scale, &[JobResult]) -> Vec<Table>,
    ) -> Experiment {
        Experiment {
            name,
            manifest,
            render,
        }
    }

    /// Runs this experiment alone on `workers` threads.
    pub fn run(self, scale: Scale, workers: usize) -> Vec<Table> {
        run_suite(&[self], scale, workers)
            .pop()
            .expect("one table list per experiment")
    }
}

/// Runs `experiments` as one suite on `workers` threads and returns each
/// experiment's tables.
///
/// Every manifest is built up front. Each distinct [`JobSpec::key`] runs
/// once, in manifest order, from one [`sweep::run_jobs`] queue; each
/// experiment then gets one result per spec, carrying its own label.
/// Logs the suite's job and distinct-run counts on stderr.
pub fn run_suite(experiments: &[Experiment], scale: Scale, workers: usize) -> Vec<Vec<Table>> {
    let mut first_of: HashMap<String, usize> = HashMap::new();
    let mut queue: Vec<SweepJob> = Vec::new();
    let mut n_jobs = 0;
    let slots: Vec<Vec<(String, usize)>> = experiments
        .iter()
        .map(|e| {
            let manifest = (e.manifest)(scale);
            n_jobs += manifest.len();
            manifest
                .into_iter()
                .map(|spec| {
                    let label = spec.label.clone();
                    let slot = *first_of.entry(spec.key()).or_insert_with(|| {
                        queue.push(spec.into_job());
                        queue.len() - 1
                    });
                    (label, slot)
                })
                .collect()
        })
        .collect();
    let results = sweep::run_jobs(queue, workers);
    sweep::log_timing("suite", n_jobs, &results);
    experiments
        .iter()
        .zip(slots)
        .map(|(e, slots)| {
            let own: Vec<JobResult> = slots
                .into_iter()
                .map(|(label, slot)| JobResult {
                    label,
                    ..results[slot].clone()
                })
                .collect();
            (e.render)(scale, &own)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_render_and_cell() {
        let mut t = Table::new("t", "demo", vec!["a".into(), "b".into()]);
        t.push("row1", vec![1.0, 2.0]);
        t.push("row2", vec![3.0, 4.5]);
        assert_eq!(t.cell("row2", "b"), Some(4.5));
        assert_eq!(t.cell("nope", "b"), None);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("row1"));
    }

    #[test]
    fn failed_jobs_render_and_keep_nan_rows() {
        use crate::sweep::{run_jobs, SweepJob};
        let results = run_jobs(
            vec![SweepJob::new("bad-config", || panic!("deadline exceeded"))],
            2,
        );
        let mut t = Table::new("t", "demo", vec!["secs".into()]);
        t.push("bad-config", vec![results[0].secs()]);
        t.absorb_failures(&results);
        assert_eq!(t.failures, vec!["bad-config: deadline exceeded"]);
        assert!(t.rows[0].1[0].is_nan());
        let s = t.render();
        assert!(s.contains("FAILED bad-config: deadline exceeded"), "{s}");
        assert!(s.contains("NaN"), "{s}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("t", "demo", vec!["a".into()]);
        t.push("r", vec![1.0, 2.0]);
    }

    #[test]
    fn roster_has_eleven_entries() {
        let r = roster();
        assert_eq!(r.len(), 11);
        assert_eq!(r[0].strategy.name(), "TP-NVLS");
        assert_eq!(r[10].strategy.name(), "CAIS");
    }

    #[test]
    fn smoke_scale_shrinks_models() {
        let base = ModelConfig::llama_7b();
        let small = Scale::Smoke.model(&base);
        assert!(small.hidden < base.hidden);
        assert!(small.hidden.is_multiple_of(8), "TP divisibility preserved");
    }
}
