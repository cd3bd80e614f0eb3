//! Shared experiment plumbing: scales, strategy roster, result tables.

use crate::sweep::{JobResult, SweepJob};
use cais_baselines::{BaselineStrategy, LadmStrategy};
use cais_core::CaisStrategy;
use cais_engine::{strategy::execute, ExecReport, SimError, Strategy, SystemConfig};
use llm_workload::{transformer_layer, Dfg, ModelConfig, Pass, TpMode};
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
    fn new(strategy: impl Strategy + 'static, mode: TpMode) -> Entry {
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

/// Executes one strategy on a transformer layer of `model`.
///
/// # Errors
///
/// Propagates the run's typed [`SimError`].
pub fn run_layer(
    entry: &Entry,
    model: &ModelConfig,
    cfg: &SystemConfig,
    pass: Pass,
) -> Result<ExecReport, SimError> {
    let dfg = transformer_layer(model, cfg.tp(), entry.mode, pass);
    execute(entry.strategy.as_ref(), &dfg, cfg)
}

/// Executes one strategy on an arbitrary graph.
///
/// # Errors
///
/// Propagates the run's typed [`SimError`].
pub fn run_graph(entry: &Entry, dfg: &Dfg, cfg: &SystemConfig) -> Result<ExecReport, SimError> {
    execute(entry.strategy.as_ref(), dfg, cfg)
}

/// Display name of roster entry `si`.
///
/// # Panics
///
/// Panics with a descriptive message if `si` is out of roster range (a
/// manifest-construction bug, not a runtime condition).
pub fn roster_name(si: usize) -> String {
    let r = roster();
    let n = r.len();
    r.into_iter()
        .nth(si)
        .unwrap_or_else(|| panic!("roster index {si} out of range (roster has {n} entries)"))
        .strategy
        .name()
        .to_string()
}

/// A sweep job running roster entry `si` on one transformer layer of
/// `model`. The entry and the graph are constructed inside the closure,
/// on the worker thread that claims the job.
pub fn layer_job(si: usize, model: &ModelConfig, cfg: &SystemConfig, pass: Pass) -> SweepJob {
    let label = format!("{}/{}/{pass:?}", roster_name(si), model.name);
    let (model, cfg) = (model.clone(), cfg.clone());
    SweepJob::new(label, move || {
        let entry = roster().swap_remove(si);
        run_layer(&entry, &model, &cfg, pass)
    })
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
