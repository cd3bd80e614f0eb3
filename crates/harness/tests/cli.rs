//! The `cais-experiments` binary end to end: the whole smoke suite's
//! stdout is pinned byte for byte, and bad experiment names are refused.
//!
//! If an intentional model change shifts these numbers, regenerate
//! `golden/all_smoke.txt` (see `EXPERIMENTS.md`) and justify the diff.

use std::process::{Command, Output};

fn cais_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cais-experiments"))
        .args(args)
        .output()
        .expect("cais-experiments starts")
}

#[test]
fn smoke_suite_matches_golden() {
    let out = cais_experiments(&["all", "--smoke", "--jobs", "2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        out.stdout == include_bytes!("golden/all_smoke.txt"),
        "smoke suite output drifted from the golden snapshot:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("[suite: 176 jobs, 166 distinct runs, 0 failed,"),
        "{stderr}"
    );
}

#[test]
fn unknown_experiment_names_are_rejected() {
    for args in [&["area", "bogus", "--smoke"][..], &["bogus"]] {
        let out = cais_experiments(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
        assert!(
            stderr.contains("unknown experiment \"bogus\"; options: fig2 ")
                && stderr.contains(" all"),
            "{args:?}: {stderr}"
        );
    }
}
