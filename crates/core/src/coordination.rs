//! Merging-aware TB coordination (paper Sec. III-B).
//!
//! The compiler pass: thread blocks on different GPUs whose CAIS-tagged
//! accesses are GPU-invariant form a **TB group**. The CAIS lowering
//! builds every coordinated row from GPU-invariant addresses (one shared
//! `MemOp` list per row), so the paper's static index analysis always
//! finds a row mergeable and grouping reduces to
//! [`CoordinationOpts::grouping`]. Group members are tagged for
//! pre-launch gating and get a pre-access synchronization point before
//! their first `*.cais` instruction. The runtime half (synchronizers +
//! Group Sync Table) lives in `gpu-sim` and [`crate::sync`].

use cais_engine::IdAlloc;
use gpu_sim::{Phase, SyncKind, TbBody};
use sim_core::GroupId;
use std::sync::Arc;

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
/// GPU, same logical block index).
///
/// Returns the assigned group, or `None` when grouping is disabled.
/// TBs of the row that share a phase list keep sharing one: the
/// pre-access rewrite builds a new list once per distinct list, not once
/// per GPU.
pub fn coordinate_row<'a>(
    ids: &mut IdAlloc,
    opts: &CoordinationOpts,
    row: impl IntoIterator<Item = &'a mut TbBody>,
) -> Option<GroupId> {
    if !opts.grouping {
        return None;
    }
    let group = ids.group();
    // The last list rewritten, and its rewrite.
    let mut plain: Option<Arc<[Phase]>> = None;
    let mut synced: Option<Arc<[Phase]>> = None;
    for tb in row {
        tb.group = Some(group);
        tb.pre_launch_sync = opts.pre_launch;
        if !opts.pre_access {
            continue;
        }
        if !plain.as_ref().is_some_and(|p| Arc::ptr_eq(p, &tb.phases)) {
            synced = Some(with_pre_access(&tb.phases));
            plain = Some(Arc::clone(&tb.phases));
        }
        tb.phases = synced.clone().expect("set with `plain`");
    }
    Some(group)
}

/// `phases` with a pre-access sync point before the first CAIS-tagged
/// memory phase (the paper's "first `*.cais` instruction of a warp"),
/// allocated at exactly its length. Returns `phases` itself when it has
/// no CAIS access or a sync already sits right before it.
fn with_pre_access(phases: &Arc<[Phase]>) -> Arc<[Phase]> {
    let pos = phases
        .iter()
        .position(|p| matches!(p, Phase::IssueMem { ops, .. } if ops.iter().any(|o| o.cais)));
    match pos {
        Some(pos) if pos == 0 || !matches!(phases[pos - 1], Phase::SyncGroup(_)) => phases[..pos]
            .iter()
            .cloned()
            .chain([Phase::SyncGroup(SyncKind::PreAccess)])
            .chain(phases[pos..].iter().cloned())
            .collect(),
        _ => Arc::clone(phases),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{MemOp, MemOpKind};
    use sim_core::{Addr, GpuId, SimDuration};

    fn cais_phases() -> Arc<[Phase]> {
        Arc::new([
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
        ])
    }

    fn cais_tb(id: u64) -> TbBody {
        TbBody::new(id, cais_phases())
    }

    #[test]
    fn full_coordination_tags_and_inserts_sync() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let mut b = cais_tb(1);
        let group = coordinate_row(&mut ids, &CoordinationOpts::full(), [&mut a, &mut b]);
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
        let group = coordinate_row(&mut ids, &CoordinationOpts::none(), [&mut a]);
        assert!(group.is_none());
        assert!(a.group.is_none());
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn pre_access_only_when_enabled() {
        let mut ids = IdAlloc::new(2);
        let mut a = cais_tb(0);
        let opts = CoordinationOpts {
            pre_access: false,
            ..CoordinationOpts::full()
        };
        coordinate_row(&mut ids, &opts, [&mut a]);
        assert!(a.group.is_some());
        assert!(!a.phases.iter().any(|p| matches!(p, Phase::SyncGroup(_))));
    }

    #[test]
    fn sync_insertion_keeps_the_phase_list_exact() {
        let plain = cais_phases();
        let synced = with_pre_access(&plain);
        assert_eq!(synced.len(), 3, "exactly one phase more");
        assert!(matches!(synced[1], Phase::SyncGroup(SyncKind::PreAccess)));
        assert_eq!(plain.len(), 2, "the shared original is left as it was");
    }

    #[test]
    fn pre_access_on_a_shared_row_allocates_one_list() {
        let mut ids = IdAlloc::new(32);
        let shared = cais_phases();
        let mut row: Vec<TbBody> = (0..32)
            .map(|_| TbBody::new(0, Arc::clone(&shared)))
            .collect();
        coordinate_row(&mut ids, &CoordinationOpts::full(), row.iter_mut());
        let synced = &row[0].phases;
        assert_eq!(synced.len(), 3);
        assert!(row.iter().all(|tb| Arc::ptr_eq(&tb.phases, synced)));
        // Held by the row alone: no per-GPU copy was made and kept.
        assert_eq!(Arc::strong_count(synced), 32);
        assert_eq!(
            Arc::strong_count(&shared),
            1,
            "the row let go of the original"
        );
    }

    #[test]
    fn idempotent_insertion() {
        let once = with_pre_access(&cais_phases());
        let twice = with_pre_access(&once);
        assert!(Arc::ptr_eq(&once, &twice), "no second sync, no new list");
        let syncs = twice
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
