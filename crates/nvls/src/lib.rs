//! NVLink SHARP (NVLS) style in-switch collectives and GPU-driven ring
//! baselines.
//!
//! Two halves:
//!
//! * [`NvlsLogic`] — the switch-resident datapath: `multimem.st` push
//!   multicast, `multimem.red` push reduction (reduce-and-multicast), and
//!   `multimem.ld_reduce` pull reduction (fetch-from-peers, reduce
//!   in-flight, respond). This reproduces the *communication-centric*
//!   in-switch computing the paper contrasts CAIS against.
//! * Lowering helpers that turn logical collectives into communication
//!   kernels: [`ring`] (GPU-driven NCCL-style ring AllGather /
//!   ReduceScatter / AllReduce used by the non-NVLS baselines) and
//!   [`push`] (NVLS collective kernels built on `multimem` operations).
//!
//! Every collective lowering shares one signature ([`Collective`]) and
//! exposes per-chunk *arrival tiles*, so overlap-capable strategies
//! (CoCoNet chunking, T3 fusion) can consume collective results at chunk
//! granularity instead of waiting for kernel completion.

#![warn(missing_docs)]

pub mod logic;
pub mod push;
pub mod ring;

pub use logic::NvlsLogic;
pub use push::{nvls_all_gather, nvls_all_reduce, nvls_reduce_scatter};
pub use ring::{
    ring_all_gather, ring_all_reduce, ring_reduce_scatter, CollOutput, Collective, InputTiles,
};
