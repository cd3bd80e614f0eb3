//! System co-simulation engine.
//!
//! Glues the GPU simulators ([`gpu_sim`]) and the interconnect simulator
//! ([`noc_sim`]) into one multi-GPU system, executes a [`Program`] (the
//! lowered form of an LLM dataflow graph), and produces an [`ExecReport`].
//!
//! The engine is strategy-agnostic: an execution strategy (TP-NVLS,
//! CoCoNet, T3, CAIS, ...) is a [`Strategy`] implementation that lowers a
//! workload [`Dfg`](llm_workload::Dfg) into kernels/thread blocks and
//! supplies the [`SwitchLogic`](noc_sim::SwitchLogic) the switches run
//! (plain routing, NVLS multicast/reduction, or the CAIS merge unit).
//!
//! [`SystemSim`] keeps the event loop, routes GPU effects and fabric
//! deliveries and assembles the report. Its state lives in three
//! components, each a plain struct that lists its own counters and
//! ledgers: the **kernel DAG** (kernels held until their dependencies
//! complete, and their spans); the **tile directory** (per-GPU tile
//! state with L2-style intra-GPU fetch dedup, reduction contributions,
//! and the TBs blocked on tiles, loads and dispatch gates); and the
//! **CAIS host protocol** (per-plane request credits, CAIS loads in
//! flight, pre-access waiters). [`Msg`] names every packet type.

#![warn(missing_docs)]

mod cais_host;
pub mod config;
mod dag;
pub mod error;
pub mod ids;
pub mod lower;
pub mod msg;
pub mod program;
pub mod report;
pub mod strategy;
pub mod system;
mod tiles;

pub use config::SystemConfig;
pub use error::{DeadlockDiag, SimError};
pub use ids::IdAlloc;
pub use lower::{GemmLowering, KernelBuilder, KernelSpec, Tiling};
pub use msg::Msg;
pub use program::{PlannedKernel, Program};
pub use report::ExecReport;
pub use strategy::Strategy;
pub use system::SystemSim;
