//! Kernel and thread-block descriptors.

use sim_core::{Addr, GroupId, KernelId, SimDuration, TbId, TileId};
use std::sync::Arc;

/// The kind of a remote memory operation issued by a TB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpKind {
    /// Pull-mode remote read (CAIS `ld.cais`, or an uncached remote load
    /// for strategies without in-switch support). The issuing TB receives
    /// the data back.
    RemoteLoad,
    /// Push-mode reduction contribution (CAIS `red.cais`, NVLS
    /// `multimem.red`): data flows to the home GPU of the address and is
    /// accumulated there (or in the switch).
    RemoteReduce,
    /// Plain remote write (T3-style direct store to a peer).
    RemoteWrite,
    /// NVLS `multimem.st`: push one chunk once; the switch replicates it
    /// to every other GPU.
    MulticastStore,
    /// NVLS `multimem.ld_reduce`: pull-mode reduction; the switch fetches
    /// the chunk from every other GPU, reduces in flight, and returns the
    /// sum to the issuer.
    LoadReduce,
}

/// One remote memory operation.
#[derive(Debug, Clone, Copy)]
pub struct MemOp {
    /// Operation kind.
    pub kind: MemOpKind,
    /// Global address (its [`Addr::home_gpu`] is the data's owner).
    pub addr: Addr,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Whether the request is CAIS-tagged (eligible for in-switch merging).
    pub cais: bool,
    /// Tile this operation materializes locally (loads) or contributes to
    /// (reductions); lets the engine publish tile availability.
    pub tile: Option<TileId>,
}

/// Which CAIS synchronization point a [`Phase::SyncGroup`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyncKind {
    /// Pre-launch alignment (handled at dispatch, before the TB occupies
    /// an SM slot).
    PreLaunch,
    /// Pre-access alignment (the first `*.cais` instruction of a warp
    /// waits until all group peers reach the same point).
    PreAccess,
}

/// One step in a TB's execution.
#[derive(Debug, Clone)]
pub enum Phase {
    /// Occupy the SM for this long (roofline-derived duration).
    Compute(SimDuration),
    /// Issue remote memory operations. With `wait`, the TB blocks until the
    /// engine reports completion (loads returning data / acked writes);
    /// otherwise it proceeds immediately (fire-and-forget reductions).
    IssueMem {
        /// The operations to issue. Shared: the TBs of one coordinated
        /// row issue identical (GPU-invariant) operations, so a lowering
        /// builds the list once and hands every GPU's TB a reference.
        ops: Arc<[MemOp]>,
        /// Whether the TB blocks until the engine resumes it.
        wait: bool,
    },
    /// Block until the engine releases this TB's group (pre-access sync).
    SyncGroup(SyncKind),
    /// Publish a locally produced tile (fine-grained producer signal).
    SignalTile(TileId),
}

/// A thread block.
#[derive(Debug, Clone)]
pub struct TbDesc {
    /// Globally unique id (assigned by the engine/lowering).
    pub id: TbId,
    /// Deterministic dispatch-order key, identical for semantically
    /// corresponding TBs on every GPU (the CAIS compiler's TB grouping
    /// relies on this; see [`ReadyPolicy::GroupOrdered`](crate::ReadyPolicy::GroupOrdered)).
    pub order_key: u64,
    /// CAIS TB group this block belongs to, if any.
    pub group: Option<GroupId>,
    /// Whether dispatch must wait for a pre-launch group release.
    pub pre_launch_sync: bool,
    /// Execution phases, run in order.
    pub phases: Vec<Phase>,
}

impl TbDesc {
    /// Creates an ungrouped TB that runs `phases`.
    pub fn new(id: TbId, order_key: u64, phases: Vec<Phase>) -> TbDesc {
        TbDesc {
            id,
            order_key,
            group: None,
            pre_launch_sync: false,
            phases,
        }
    }

    /// Creates a plain compute TB with no communication.
    pub fn compute_only(id: TbId, order_key: u64, dur: SimDuration) -> TbDesc {
        TbDesc::new(id, order_key, vec![Phase::Compute(dur)])
    }

    /// Sum of declared compute time (ignores jitter and blocking).
    pub fn compute_time(&self) -> SimDuration {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Compute(d) => *d,
                _ => SimDuration::ZERO,
            })
            .sum()
    }

    /// Total bytes this TB moves through the fabric.
    pub fn remote_bytes(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::IssueMem { ops, .. } => ops.iter().map(|o| o.bytes).sum(),
                _ => 0,
            })
            .sum()
    }
}

/// A kernel: a grid of TBs launched together on one GPU.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Globally unique kernel id.
    pub id: KernelId,
    /// Human-readable name for reports ("qkv_gemm", "allgather", ...),
    /// shared by every GPU's copy of the kernel and by its spans.
    pub name: Arc<str>,
    /// The grid.
    pub tbs: Vec<TbDesc>,
    /// When false, TBs additionally wait for the engine to mark them ready
    /// (fine-grained cross-kernel dependencies); when true every TB is
    /// ready as soon as the kernel launches.
    pub tbs_auto_ready: bool,
    /// Skip the host launch overhead (used for stages fused into a single
    /// kernel by FuseLib-style strategies).
    pub fused_launch: bool,
    /// Persistent-kernel semantics (NCCL-style communication kernels):
    /// TBs dispatch strictly in `order_key` order with no per-TB
    /// dispatch jitter — the "TBs" are loop steps of one resident
    /// kernel, not independently scheduled blocks.
    pub ordered: bool,
}

impl KernelDesc {
    /// Creates a kernel whose TBs are all immediately ready at launch.
    pub fn new(id: KernelId, name: impl Into<Arc<str>>, tbs: Vec<TbDesc>) -> KernelDesc {
        KernelDesc {
            id,
            name: name.into(),
            tbs,
            tbs_auto_ready: true,
            fused_launch: false,
            ordered: false,
        }
    }

    /// Total declared compute time across TBs.
    pub fn total_compute(&self) -> SimDuration {
        self.tbs.iter().map(|tb| tb.compute_time()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::GpuId;

    #[test]
    fn tb_aggregates() {
        let tb = TbDesc {
            id: TbId(1),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::Compute(SimDuration::from_us(2)),
                Phase::IssueMem {
                    ops: Arc::new([MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr: Addr::new(GpuId(1), 0),
                        bytes: 4096,
                        cais: true,
                        tile: None,
                    }]),
                    wait: true,
                },
                Phase::Compute(SimDuration::from_us(3)),
            ],
        };
        assert_eq!(tb.compute_time(), SimDuration::from_us(5));
        assert_eq!(tb.remote_bytes(), 4096);
    }

    #[test]
    fn kernel_totals() {
        let tbs = (0..4)
            .map(|i| TbDesc::compute_only(TbId(i), i, SimDuration::from_us(1)))
            .collect();
        let k = KernelDesc::new(KernelId(0), "k", tbs);
        assert_eq!(k.total_compute(), SimDuration::from_us(4));
        assert!(k.tbs_auto_ready);
        assert!(!k.fused_launch);
    }
}
