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
//! Responsibilities:
//!
//! * **message vocabulary** ([`Msg`]) — every packet type in the system,
//!   from remote loads to TB-group sync;
//! * **tile directory** — per-GPU producer/consumer state for fine-grained
//!   TB dependencies and intra-GPU fetch deduplication (the L2 would
//!   capture duplicate reads of a gathered row within one GPU);
//! * **memory semantics** — auto-responding to remote load requests,
//!   counting reduction contributions, releasing blocked TBs;
//! * **kernel scheduling** — local and global kernel-completion barriers;
//! * **TB-group synchronization plumbing** between GPUs and the switch.

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod ids;
pub mod lower;
pub mod msg;
pub mod program;
pub mod report;
pub mod strategy;
pub mod system;

pub use config::SystemConfig;
pub use error::{DeadlockDiag, SimError};
pub use ids::IdAlloc;
pub use lower::{GemmLowering, KernelBuilder, KernelSpec, Tiling};
pub use msg::Msg;
pub use program::{PlannedKernel, Program};
pub use report::ExecReport;
pub use strategy::Strategy;
pub use system::SystemSim;
