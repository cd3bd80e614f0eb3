//! Discrete-event simulation core for the CAIS reproduction.
//!
//! This crate provides the time base, deterministic event queue, identifier
//! newtypes, bandwidth arithmetic and statistics collectors shared by every
//! simulator layer (interconnect, GPU, in-switch computing).
//!
//! # Design notes
//!
//! * Time is kept in integer **picoseconds** ([`SimTime`]). NVLink-class
//!   links serialize a 16 B flit in ~0.14 ns at 112.5 GB/s, so nanosecond
//!   resolution would alias; picoseconds keep all transfer-time arithmetic
//!   exact enough while `u64` still covers ~213 days of simulated time.
//! * All event ordering is deterministic: ties at the same timestamp are
//!   broken by a monotonically increasing sequence number, never by hash or
//!   allocation order.
//! * No global state and no wall-clock access anywhere in simulation
//!   paths; randomness is always an explicitly seeded [`rng::JitterRng`]
//!   owned by the component that needs it. One observe-only exception is
//!   documented in place: the feature-gated self-profiler ([`profile`]),
//!   which cannot feed a value back into simulation state.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::from_ns(10), "b");
//! q.push(SimTime::from_ns(5), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::from_ns(5), "a"));
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod bandwidth;
pub mod fault;
pub mod ids;
pub mod profile;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use audit::{AuditConfig, AuditPhase, AuditProbe, AuditReport, EventRing, LedgerViolation};
pub use bandwidth::Bandwidth;
pub use fault::{
    DegradeSpec, DownSpec, FaultPlan, MergeFaultSpec, RetxConfig, StragglerSpec, WindowSchedule,
};
pub use ids::{
    Addr, DenseMap, DenseSet, FastHash, GpuId, GroupId, IdIndex, KernelId, PlaneId, TbId, TileId,
};
pub use profile::{prof_scope, Subsystem};
pub use queue::EventQueue;
pub use time::{SimDuration, SimTime};
