//! Merging-aware TB coordination (paper Sec. III-B).
//!
//! The compiler pass: thread blocks on different GPUs whose CAIS-tagged
//! accesses are GPU-invariant (per [`crate::index`] analysis) form a
//! **TB group**. Group members are tagged for pre-launch gating and get a
//! pre-access synchronization point before their first `*.cais`
//! instruction. The runtime half (synchronizers + Group Sync Table) lives
//! in `gpu-sim` and [`crate::sync`].

use crate::index::Expr;
use cais_engine::IdAlloc;
use gpu_sim::{Phase, TbDesc};
use sim_core::GroupId;

/// Which coordination mechanisms are enabled (the Fig. 13b ablation
/// toggles these cumulatively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordinationOpts {
    /// Compiler TB grouping (also switches the GPU ready queue to
    /// deterministic group order).
    pub grouping: bool,
    /// Pre-launch synchronization through the switch.
    pub pre_launch: bool,
    /// Pre-access synchronization at the first CAIS instruction.
    pub pre_access: bool,
    /// TB-aware request throttling via merge-table credits.
    pub throttling: bool,
}

impl CoordinationOpts {
    /// Everything on (full CAIS).
    pub fn full() -> CoordinationOpts {
        CoordinationOpts {
            grouping: true,
            pre_launch: true,
            pre_access: true,
            throttling: true,
        }
    }

    /// Everything off (CAIS-Base).
    pub fn none() -> CoordinationOpts {
        CoordinationOpts {
            grouping: false,
            pre_launch: false,
            pre_access: false,
            throttling: false,
        }
    }

    /// The cumulative ablation ladder of Fig. 13b: none → +grouping →
    /// +pre-launch → +pre-access → +throttling (full).
    pub fn ladder() -> Vec<(&'static str, CoordinationOpts)> {
        let mut o = CoordinationOpts::none();
        let mut steps = vec![("baseline", o)];
        o.grouping = true;
        steps.push(("+grouping", o));
        o.pre_launch = true;
        steps.push(("+pre-launch", o));
        o.pre_access = true;
        steps.push(("+pre-access", o));
        o.throttling = true;
        steps.push(("+throttling", o));
        steps
    }
}

/// Applies the grouping pass to one *row* of corresponding TBs (one per
/// GPU, same logical block index) whose CAIS accesses follow `addr_expr`.
///
/// Returns the assigned group, or `None` when grouping is disabled or the
/// address expression is GPU-variant (not mergeable, per the static index
/// analysis).
pub fn coordinate_row<'a>(
    ids: &mut IdAlloc,
    opts: &CoordinationOpts,
    row: impl IntoIterator<Item = &'a mut TbDesc>,
    addr_expr: &Expr,
) -> Option<GroupId> {
    if !opts.grouping || !addr_expr.is_gpu_invariant() {
        return None;
    }
    let group = ids.group();
    for tb in row {
        tb.group = Some(group);
        tb.pre_launch_sync = opts.pre_launch;
        if opts.pre_access {
            insert_pre_access(tb);
        }
    }
    Some(group)
}

/// Inserts a pre-access sync point before the first CAIS-tagged memory
/// phase (the paper's "first `*.cais` instruction of a warp").
fn insert_pre_access(tb: &mut TbDesc) {
    let pos = tb
        .phases
        .iter()
        .position(|p| matches!(p, Phase::IssueMem { ops, .. } if ops.iter().any(|o| o.cais)));
    if let Some(pos) = pos {
        // Idempotence: skip if a sync already sits right before it.
        if pos > 0 && matches!(tb.phases[pos - 1], Phase::SyncGroup(_)) {
            return;
        }
        // Grow by exactly the one slot: the default doubling left a
        // quarter of all phase slots empty at 32 GPUs.
        tb.phases.reserve_exact(1);
        tb.phases
            .insert(pos, Phase::SyncGroup(gpu_sim::SyncKind::PreAccess));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{MemOp, MemOpKind, SyncKind};
    use sim_core::{Addr, GpuId, SimDuration, TbId};
    use std::sync::Arc;

    fn cais_tb(id: u64) -> TbDesc {
        TbDesc {
            id: TbId(id),
            order_key: id,
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::Compute(SimDuration::from_us(1)),
                Phase::IssueMem {
                    ops: Arc::new([MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr: Addr::new(GpuId(1), 0),
                        bytes: 128,
                        cais: true,
                        tile: None,
                    }]),
                    wait: true,
                },
            ],
        }
    }

    fn invariant_expr() -> Expr {
        Expr::mul(Expr::BlockIdx, Expr::Const(128))
    }

    #[test]
    fn full_coordination_tags_and_inserts_sync() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let mut b = cais_tb(1);
        let group = coordinate_row(
            &mut ids,
            &CoordinationOpts::full(),
            [&mut a, &mut b],
            &invariant_expr(),
        );
        assert!(group.is_some());
        assert_eq!(a.group, group);
        assert_eq!(b.group, group);
        assert!(a.pre_launch_sync);
        assert!(matches!(a.phases[1], Phase::SyncGroup(SyncKind::PreAccess)));
        // The sync sits immediately before the CAIS access.
        assert!(matches!(a.phases[2], Phase::IssueMem { .. }));
    }

    #[test]
    fn disabled_grouping_is_a_no_op() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let group = coordinate_row(
            &mut ids,
            &CoordinationOpts::none(),
            [&mut a],
            &invariant_expr(),
        );
        assert!(group.is_none());
        assert!(a.group.is_none());
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn gpu_variant_addresses_are_not_grouped() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let variant = Expr::add(Expr::GpuId, Expr::BlockIdx);
        let group = coordinate_row(&mut ids, &CoordinationOpts::full(), [&mut a], &variant);
        assert!(group.is_none());
    }

    #[test]
    fn pre_access_only_when_enabled() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let opts = CoordinationOpts {
            pre_access: false,
            ..CoordinationOpts::full()
        };
        coordinate_row(&mut ids, &opts, [&mut a], &invariant_expr());
        assert!(a.group.is_some());
        assert!(!a.phases.iter().any(|p| matches!(p, Phase::SyncGroup(_))));
    }

    #[test]
    fn sync_insertion_keeps_the_phase_list_exact() {
        let mut a = cais_tb(0);
        assert_eq!(a.phases.capacity(), 2);
        insert_pre_access(&mut a);
        assert_eq!(a.phases.len(), 3);
        assert_eq!(a.phases.capacity(), 3);
    }

    #[test]
    fn idempotent_insertion() {
        let mut a = cais_tb(0);
        insert_pre_access(&mut a);
        insert_pre_access(&mut a);
        let syncs = a
            .phases
            .iter()
            .filter(|p| matches!(p, Phase::SyncGroup(_)))
            .count();
        assert_eq!(syncs, 1);
    }

    #[test]
    fn ladder_is_cumulative() {
        let ladder = CoordinationOpts::ladder();
        assert_eq!(ladder.len(), 5);
        assert_eq!(ladder[0].1, CoordinationOpts::none());
        assert_eq!(ladder[4].1, CoordinationOpts::full());
        // Each step only adds mechanisms.
        for w in ladder.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            assert!(!a.grouping || b.grouping);
            assert!(!a.pre_launch || b.pre_launch);
            assert!(!a.pre_access || b.pre_access);
        }
    }
}
