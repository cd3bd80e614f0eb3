//! Sweep-runner scaling: the same smoke-scale figure manifest executed
//! at increasing worker counts. The tables are byte-identical at every
//! count (asserted here), so this bench reports the pure wall-clock
//! effect of `--jobs`.

use cais_bench::{black_box, timeit, Scale};
use cais_harness::sweep;

fn render_all(tables: &[cais_harness::Table]) -> String {
    tables.iter().map(|t| t.render()).collect()
}

fn main() {
    let reference = render_all(&cais_harness::fig11::EXPERIMENT.run(Scale::Smoke, 1));
    let serial = timeit("sweep/fig11_smoke_jobs=1", 3, || {
        black_box(cais_harness::fig11::EXPERIMENT.run(Scale::Smoke, 1).len())
    });
    for workers in [2, 4, 8] {
        if workers > sweep::default_jobs() {
            println!(
                "(skipping jobs={workers}: only {} hardware threads)",
                sweep::default_jobs()
            );
            continue;
        }
        let tables = cais_harness::fig11::EXPERIMENT.run(Scale::Smoke, workers);
        assert_eq!(
            render_all(&tables),
            reference,
            "tables must be byte-identical at jobs={workers}"
        );
        let parallel = timeit(&format!("sweep/fig11_smoke_jobs={workers}"), 3, || {
            black_box(
                cais_harness::fig11::EXPERIMENT
                    .run(Scale::Smoke, workers)
                    .len(),
            )
        });
        println!(
            "  -> speedup over jobs=1: {:.2}x",
            serial.mean.as_secs_f64() / parallel.mean.as_secs_f64()
        );
    }
}
