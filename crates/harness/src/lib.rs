//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Sec. V) on the simulated DGX-H100.
//!
//! One module per experiment; each exposes `run(scale, jobs) -> Vec<Table>`,
//! describing its sweep as a flat job manifest executed by the
//! deterministic parallel runner in [`sweep`]:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig02`] | Fig. 2 — compute vs. communication time scaling with GPU count |
//! | [`fig11`] | Fig. 11 — end-to-end speedup, training + inference, 3 models × 11 systems |
//! | [`fig12`] | Fig. 12 — sub-layer (L1–L4) speedup |
//! | [`fig13`] | Fig. 13 — required merge-table size and coordination ablation |
//! | [`fig14`] | Fig. 14 — performance sensitivity to merge-table size |
//! | [`fig15`] | Fig. 15 — average bandwidth utilization per sub-layer |
//! | [`fig16`] | Fig. 16 — bandwidth utilization over time (L2, LLaMA-7B) |
//! | [`fig17`] | Fig. 17 — scalability with increasing GPU count |
//! | [`fig18`] | Fig. 18 — NVLS simulation validation vs. an NCCL-style reference |
//! | [`table2`] | Table II — full- vs. half-scale validation |
//! | [`area`] | Sec. V-D — hardware overhead |
//! | [`ablations`] | extra design-choice sensitivity studies (packet size, credits, cross-layer fusion) |
//! | [`sensitivity`] | fabric-bandwidth sweep validating the calibration story |
//! | [`resilience`] | robustness study — packet-drop/retransmission and link-degradation sweeps |
//!
//! Run everything from the CLI: `cargo run --release --bin cais-experiments -- all`.
//! Pass `--smoke` for reduced sizes (used by the test suite) and
//! `--jobs N` to bound the worker pool (default: available parallelism;
//! the tables are byte-identical at every worker count).

#![warn(missing_docs)]

pub mod ablations;
pub mod area;
pub mod chaos;
pub mod fig02;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod resilience;
pub mod runner;
pub mod sensitivity;
pub mod sweep;
pub mod table2;

pub use runner::{Scale, Table};
pub use sweep::{JobResult, SweepJob};
