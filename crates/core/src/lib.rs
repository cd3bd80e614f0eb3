//! CAIS: Compute-Aware In-Switch computing.
//!
//! The paper's contribution, reproduced as four cooperating mechanisms:
//!
//! 1. **Compute-aware ISA + switch microarchitecture** ([`merge`]):
//!    `ld.cais` / `red.cais` instructions carry a 1-bit merge eligibility
//!    flag (`MemOp::cais` in the lowered program, the `cais` field of the
//!    request messages); the switch's merge unit (CAM lookup table +
//!    Merging Table with Load-Wait / Load-Ready / Reduction sessions,
//!    LRU eviction, timeout forward-progress) turns `p - 1` identical
//!    remote loads into one fetch plus `p - 1` replies, and `p - 1`
//!    reduction pushes into one accumulated write.
//! 2. **Merging-aware TB coordination** ([`coordination`], [`sync`]):
//!    a compiler pass groups corresponding thread blocks across GPUs
//!    (their CAIS addresses are GPU-invariant by construction, so every
//!    row is mergeable and grouping is on or off); pre-launch and pre-access
//!    synchronization through the switch's Group Sync Table aligns their
//!    request timing from ~35 µs of drift down to ~3 µs.
//! 3. **Graph-level dataflow optimizer** ([`dataflow`]): fuses
//!    GEMM-RS → LN → AG-GEMM chains with TB-level dependencies and
//!    overlaps kernels with complementary (asymmetric) traffic
//!    directions; traffic control separates load and reduction virtual
//!    channels.
//! 4. **Execution strategies** ([`strategies`]): `CAIS`, `CAIS-Partial`
//!    (no traffic control) and `CAIS-Base` (no coordination, no dataflow
//!    optimizer) as [`cais_engine::Strategy`] implementations.
//!
//! [`area`] holds the 12 nm hardware-overhead model of Sec. V-D.

#![warn(missing_docs)]

pub mod area;
pub mod coordination;
pub mod dataflow;
pub mod logic;
pub mod merge;
pub mod strategies;
pub mod sync;

pub use coordination::CoordinationOpts;
pub use dataflow::FusionPlan;
pub use logic::CaisLogic;
pub use merge::{MergeConfig, MergeStats, MergeUnit};
pub use strategies::{CaisStrategy, CaisVariant};
pub use sync::GroupSyncTable;
