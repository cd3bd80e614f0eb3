//! Thread-block-granularity multi-GPU execution simulator.
//!
//! This crate replaces the role Accel-Sim plays in the paper: it models
//! *when* thread blocks (TBs) run and *when* they touch memory, not what
//! arithmetic they perform. A GPU is an array of SMs with a bounded number
//! of resident TB slots; a kernel is a grid of TBs, each an explicit
//! sequence of [`Phase`]s (compute intervals, memory-request issues,
//! TB-group synchronizations, tile signals). Tile *waits* are dispatch
//! gates the engine resolves before a TB becomes ready. A
//! [`KernelDesc`] is this GPU's TB id range plus a [`KernelBody`] that
//! the same kernel on other GPUs may share (tensor parallelism is SPMD).
//!
//! Everything the paper's mechanisms key on is first-class here:
//!
//! * **Scheduling drift across GPUs** (Sec. II-D challenge 2): per-TB
//!   dispatch jitter and per-phase compute jitter, both deterministic from
//!   an explicit seed, model the OS/clock variance that staggers identical
//!   TBs across devices by tens of microseconds.
//! * **Ready-queue policy**: FIFO (default hardware behaviour) or
//!   group-ordered (the CAIS compiler's TB grouping, which makes all GPUs
//!   drain ready TBs in the same deterministic order).
//! * **Pre-launch gating**: TBs whose group requires launch alignment stay
//!   pending until the engine releases their group (the switch's Group
//!   Sync Table decides when).
//!
//! The simulator is driven by an external engine through a simple
//! time-polling interface ([`GpuSim::next_time`] / [`GpuSim::advance`])
//! and communicates through drained [`GpuEffect`]s.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod gpu;
pub mod kernel;

pub use config::{GpuConfig, ReadyPolicy};
pub use cost::KernelCost;
pub use gpu::{GpuEffect, GpuSim};
pub use kernel::{KernelBody, KernelDesc, MemOp, MemOpKind, Phase, SyncKind, TbBody, TbDesc};
