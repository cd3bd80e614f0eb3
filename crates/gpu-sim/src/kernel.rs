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

/// What corresponding thread blocks of an SPMD kernel share on every
/// GPU: everything but the TB id.
///
/// Tensor parallelism runs the same kernel on every GPU, so a lowering
/// builds one phase list per row of corresponding TBs and every GPU's TB
/// holds a reference to it.
#[derive(Debug, Clone)]
pub struct TbBody {
    /// Deterministic dispatch-order key, identical for semantically
    /// corresponding TBs on every GPU (the CAIS compiler's TB grouping
    /// relies on this; see [`ReadyPolicy::GroupOrdered`](crate::ReadyPolicy::GroupOrdered)).
    pub order_key: u64,
    /// CAIS TB group this block belongs to, if any.
    pub group: Option<GroupId>,
    /// Whether dispatch must wait for a pre-launch group release.
    pub pre_launch_sync: bool,
    /// Execution phases, run in order.
    pub phases: Arc<[Phase]>,
}

impl TbBody {
    /// An ungrouped TB body that runs `phases`.
    pub fn new(order_key: u64, phases: impl Into<Arc<[Phase]>>) -> TbBody {
        TbBody {
            order_key,
            group: None,
            pre_launch_sync: false,
            phases: phases.into(),
        }
    }

    /// Whether `self` and `other` describe the same TB: equal order key,
    /// group and pre-launch flag, and the same phase list by pointer (a
    /// lowering that shares a row's list shares the `Arc`).
    pub fn same_as(&self, other: &TbBody) -> bool {
        self.order_key == other.order_key
            && self.group == other.group
            && self.pre_launch_sync == other.pre_launch_sync
            && Arc::ptr_eq(&self.phases, &other.phases)
    }
}

/// One thread block written out whole, for kernels built by hand:
/// [`KernelDesc::new`] splits it into its id and its [`TbBody`].
#[derive(Debug, Clone)]
pub struct TbDesc {
    /// Globally unique id; a kernel's TBs take consecutive ids.
    pub id: TbId,
    /// See [`TbBody::order_key`].
    pub order_key: u64,
    /// See [`TbBody::group`].
    pub group: Option<GroupId>,
    /// See [`TbBody::pre_launch_sync`].
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
}

/// What every GPU's instance of an SPMD kernel shares: the name, the
/// launch flags and one [`TbBody`] per TB.
#[derive(Debug, Clone)]
pub struct KernelBody {
    /// Human-readable name for reports ("qkv_gemm", "allgather", ...),
    /// shared by the kernel's spans.
    pub name: Arc<str>,
    /// Skip the host launch overhead (used for stages fused into a single
    /// kernel by FuseLib-style strategies).
    pub fused_launch: bool,
    /// Persistent-kernel semantics (NCCL-style communication kernels):
    /// TBs dispatch strictly in `order_key` order with no per-TB
    /// dispatch jitter — the "TBs" are loop steps of one resident
    /// kernel, not independently scheduled blocks.
    pub ordered: bool,
    /// The grid, in TB order.
    pub tbs: Box<[TbBody]>,
}

/// A kernel: a grid of TBs launched together on one GPU. The body may be
/// shared with the same kernel on other GPUs; the ids and the dispatch
/// dependencies are this GPU's own.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Globally unique kernel id.
    pub id: KernelId,
    /// Name, launch flags and TB bodies.
    pub body: Arc<KernelBody>,
    /// The id of TB 0: a kernel's TB ids are one range, and TB `i` runs
    /// `body.tbs[i]` under id `first_tb + i`.
    pub first_tb: TbId,
    /// Fine-grained readiness: TB `i` may dispatch only once the tiles of
    /// `deps[i]` are present on this GPU, and the engine marks it ready
    /// ([`GpuSim::make_tb_ready`](crate::GpuSim::make_tb_ready)). An
    /// empty list is ready at launch, and so is every TB when `deps` is
    /// empty (no allocation). Lists are shared: the TBs of one row or
    /// band wait on the same tiles, so a lowering builds the list once
    /// and clones the `Arc`.
    pub deps: Box<[Arc<[TileId]>]>,
}

impl KernelDesc {
    /// Creates a kernel whose TBs are all immediately ready at launch.
    ///
    /// # Panics
    ///
    /// Panics if the TBs' ids are not consecutive, in order.
    pub fn new(id: KernelId, name: impl Into<Arc<str>>, tbs: Vec<TbDesc>) -> KernelDesc {
        let first_tb = tbs.first().map_or(TbId(0), |tb| tb.id);
        assert!(
            (tbs.iter().zip(first_tb.0..)).all(|(tb, i)| tb.id.0 == i),
            "kernel {id}: TB ids are not consecutive"
        );
        let bodies = tbs.into_iter().map(|tb| TbBody {
            order_key: tb.order_key,
            group: tb.group,
            pre_launch_sync: tb.pre_launch_sync,
            phases: tb.phases.into(),
        });
        KernelDesc {
            id,
            body: Arc::new(KernelBody {
                name: name.into(),
                fused_launch: false,
                ordered: false,
                tbs: bodies.collect(),
            }),
            first_tb,
            deps: Box::default(),
        }
    }

    /// The TB ids, in body order.
    pub fn tb_ids(&self) -> impl Iterator<Item = TbId> {
        (self.first_tb.0..).map(TbId).take(self.body.tbs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_totals() {
        let tbs = (0..4)
            .map(|i| TbDesc::compute_only(TbId(i), i, SimDuration::from_us(1)))
            .collect();
        let k = KernelDesc::new(KernelId(0), "k", tbs);
        assert!(k.deps.is_empty(), "every TB is ready at launch");
        assert!(!k.body.fused_launch);
    }

    #[test]
    fn new_round_trips_ids_keys_groups_and_phases() {
        let grouped = TbDesc {
            group: Some(GroupId(3)),
            pre_launch_sync: true,
            phases: vec![
                Phase::SyncGroup(SyncKind::PreAccess),
                Phase::SignalTile(TileId(9)),
            ],
            ..TbDesc::new(TbId(7), 2, Vec::new())
        };
        let plain = TbDesc::compute_only(TbId(8), 1, SimDuration::from_us(1));
        let k = KernelDesc::new(KernelId(5), "k", vec![grouped, plain]);
        assert_eq!(k.id, KernelId(5));
        assert_eq!(&*k.body.name, "k");
        assert_eq!(k.first_tb, TbId(7));
        let tbs: Vec<_> = k
            .tb_ids()
            .zip(k.body.tbs.iter())
            .map(|(id, tb)| {
                let phases: Vec<String> = tb.phases.iter().map(|p| format!("{p:?}")).collect();
                (id, tb.order_key, tb.group, tb.pre_launch_sync, phases)
            })
            .collect();
        assert_eq!(
            tbs,
            vec![
                (
                    TbId(7),
                    2,
                    Some(GroupId(3)),
                    true,
                    vec![
                        "SyncGroup(PreAccess)".into(),
                        "SignalTile(TileId(9))".into()
                    ]
                ),
                (
                    TbId(8),
                    1,
                    None,
                    false,
                    vec![format!("{:?}", Phase::Compute(SimDuration::from_us(1)))]
                ),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "not consecutive")]
    fn new_rejects_non_consecutive_ids() {
        let tbs = [0, 2]
            .map(|i| TbDesc::compute_only(TbId(i), i, SimDuration::from_us(1)))
            .to_vec();
        let _ = KernelDesc::new(KernelId(0), "k", tbs);
    }

    #[test]
    fn same_as_compares_phase_lists_by_pointer() {
        let phases: Arc<[Phase]> = Arc::new([Phase::Compute(SimDuration::from_us(1))]);
        let a = TbBody::new(0, Arc::clone(&phases));
        assert!(a.same_as(&TbBody::new(0, Arc::clone(&phases))));
        // Equal content in another allocation is a different list.
        assert!(!a.same_as(&TbBody::new(
            0,
            vec![Phase::Compute(SimDuration::from_us(1))]
        )));
        assert!(!a.same_as(&TbBody::new(1, Arc::clone(&phases))));
        let grouped = TbBody {
            group: Some(GroupId(0)),
            ..a.clone()
        };
        assert!(!a.same_as(&grouped));
    }
}
