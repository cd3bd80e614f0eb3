//! Sec. V-D — hardware overhead at TSMC 12 nm.

use crate::runner::{Experiment, Scale, Table};
use crate::sweep::JobResult;
use cais_core::area::paper_estimate;

/// The area model. Analytic only: no jobs.
pub const EXPERIMENT: Experiment = Experiment::new("area", |_| Vec::new(), render);

fn render(_scale: Scale, _results: &[JobResult]) -> Vec<Table> {
    let r = paper_estimate();
    let mut table = Table::new(
        "area",
        "CAIS hardware overhead (12 nm analytic model)",
        vec!["mm2".into(), "fraction_of_die_%".into()],
    );
    table.push(
        "switch (merge unit + sync table)",
        vec![r.switch_mm2, r.switch_fraction * 100.0],
    );
    table.push(
        "GPU (synchronizer)",
        vec![r.gpu_mm2, r.gpu_fraction * 100.0],
    );
    table.notes = "paper: ~0.50 mm2 per switch (<1% of the NVSwitch die), ~0.019 mm2 per \
                   GPU (<0.01% of H100)"
        .into();
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overheads_are_below_one_percent() {
        let t = &EXPERIMENT.run(Scale::Paper, 1)[0];
        assert!(t.rows[0].1[1] < 1.0);
        assert!(t.rows[1].1[1] < 0.01);
    }
}
