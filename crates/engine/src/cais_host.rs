//! The host side of the CAIS protocol: per-plane request credits, the
//! CAIS loads in flight, and the TBs blocked on pre-access sync.

use crate::msg::{request, Msg};
use crate::tiles::MIN_TABLE_CAPACITY;
use gpu_sim::{MemOp, MemOpKind};
use sim_core::{shrink_sparse, Addr, AuditProbe, FastHash, GpuId, GroupId, PlaneId, TbId};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

const _: () = assert!(std::mem::size_of::<ParkedRun>() <= 32);

/// CAIS requests of one memory issue parked behind one plane's credits:
/// the issuing TB and its shared op list, whose parked positions are the
/// next `len` entries of [`ThrottleState::parked`]. Each request is
/// rebuilt from its op with [`request`] when a credit frees.
#[derive(Debug)]
struct ParkedRun {
    tb: TbId,
    ops: Arc<[MemOp]>,
    len: u32,
}

/// One (GPU, plane) pair's CAIS credits: requests in flight, and the
/// requests parked until a credit frees, oldest first.
#[derive(Debug, Default)]
struct ThrottleState {
    outstanding: usize,
    runs: VecDeque<ParkedRun>,
    /// Positions of the parked ops in their runs' op lists: the first
    /// `runs[0].len` belong to `runs[0]`, the next to `runs[1]`, and so
    /// on.
    parked: VecDeque<u32>,
}

impl ThrottleState {
    /// Parks `ops[pos]` of `tb`'s issue. It joins the newest run when
    /// that run is the same TB's same op list, as every parked op of one
    /// issue on one plane is.
    fn park(&mut self, tb: TbId, ops: &Arc<[MemOp]>, pos: usize) {
        match self.runs.back_mut() {
            Some(run) if run.tb == tb && Arc::ptr_eq(&run.ops, ops) => run.len += 1,
            _ => self.runs.push_back(ParkedRun {
                tb,
                ops: Arc::clone(ops),
                len: 1,
            }),
        }
        self.parked
            .push_back(u32::try_from(pos).expect("op list exceeds u32 positions"));
    }

    /// Takes the oldest parked op and its TB.
    fn unpark(&mut self) -> Option<(TbId, MemOp)> {
        let pos = self.parked.pop_front()?;
        let run = self.runs.front_mut().expect("a parked op belongs to a run");
        let op = (run.tb, run.ops[pos as usize]);
        run.len -= 1;
        if run.len == 0 {
            self.runs.pop_front();
        }
        Some(op)
    }
}

/// Every GPU's CAIS request credits, CAIS loads in flight and pre-access
/// waiters. It decides when a request may go on the wire.
#[derive(Debug)]
pub(crate) struct CaisHost {
    /// Requests one (GPU, plane) pair may have in flight; `None` leaves
    /// CAIS requests unthrottled.
    limit: Option<usize>,
    n_planes: usize,
    /// Per-plane credit state, flat-indexed `gpu * n_planes + plane`.
    throttle: Vec<ThrottleState>,
    /// Credits returned beyond those outstanding on their plane.
    credits_over_returned: u64,
    /// CAIS loads in flight per (requester, address); each response
    /// returns one credit while its pair's count is nonzero. Holds only
    /// pairs with loads in flight, and shrinks after a burst.
    inflight_cais_loads: HashMap<(GpuId, Addr), u32, FastHash>,
    /// Pre-access-blocked TBs of the (GPU, group) pairs that have any,
    /// in (GPU, group) order; a pair's entry goes at its release.
    preaccess_blocked: BTreeMap<(GpuId, GroupId), Vec<TbId>>,
    /// Running total of `preaccess_blocked`, so cadence audits need not
    /// sum every waiter list.
    preaccess_waiting: usize,
}

impl CaisHost {
    /// The host state of `n_gpus` GPUs on `n_planes` planes, each pair
    /// with `limit` request credits (`None`: unthrottled).
    pub(crate) fn new(n_gpus: usize, n_planes: usize, limit: Option<usize>) -> CaisHost {
        CaisHost {
            limit,
            n_planes,
            throttle: (0..n_gpus * n_planes)
                .map(|_| ThrottleState::default())
                .collect(),
            credits_over_returned: 0,
            inflight_cais_loads: HashMap::default(),
            preaccess_blocked: BTreeMap::new(),
            preaccess_waiting: 0,
        }
    }

    /// Admits the CAIS request for `ops[pos]` of `gpu`'s TB `tb`: returns
    /// its plane if a credit is free, and parks it otherwise. A load
    /// counts as in flight either way.
    pub(crate) fn send(
        &mut self,
        gpu: GpuId,
        tb: TbId,
        ops: &Arc<[MemOp]>,
        pos: usize,
    ) -> Option<PlaneId> {
        let op = ops[pos];
        if op.kind == MemOpKind::RemoteLoad {
            *self.inflight_cais_loads.entry((gpu, op.addr)).or_default() += 1;
        }
        let plane = op.addr.plane(self.n_planes);
        if let Some(limit) = self.limit {
            let st = &mut self.throttle[gpu.index() * self.n_planes + plane.index()];
            if st.outstanding >= limit {
                st.park(tb, ops, pos);
                return None;
            }
            st.outstanding += 1;
        }
        Some(plane)
    }

    /// Counts a load response for `addr` reaching `gpu`; returns whether
    /// it answers a CAIS load, whose credit then comes back.
    pub(crate) fn load_answered(&mut self, gpu: GpuId, addr: Addr) -> bool {
        let Entry::Occupied(mut loads) = self.inflight_cais_loads.entry((gpu, addr)) else {
            return false;
        };
        *loads.get_mut() -= 1;
        if *loads.get() == 0 {
            loads.remove();
            shrink_sparse(&mut self.inflight_cais_loads, MIN_TABLE_CAPACITY);
        }
        true
    }

    /// Returns `n` of `gpu`'s credits on `plane` and hands each parked
    /// request the freed credits admit to `send` with its home GPU,
    /// oldest first.
    pub(crate) fn return_credits(
        &mut self,
        gpu: GpuId,
        plane: PlaneId,
        mut n: u32,
        mut send: impl FnMut(GpuId, Msg),
    ) {
        let Some(limit) = self.limit else {
            return;
        };
        loop {
            let st = &mut self.throttle[gpu.index() * self.n_planes + plane.index()];
            let returned = (n as usize).min(st.outstanding);
            self.credits_over_returned += (n as usize - returned) as u64;
            st.outstanding -= returned;
            n = 0;
            if st.outstanding >= limit {
                break;
            }
            let Some((tb, op)) = st.unpark() else {
                break;
            };
            // A burst can park far more requests than the plane has
            // credits; once it drains, drop the buffers it grew.
            if st.parked.is_empty() && st.parked.capacity() > limit {
                st.parked = VecDeque::new();
                st.runs = VecDeque::new();
            }
            st.outstanding += 1;
            send(op.addr.home_gpu(), request(gpu, tb, op));
        }
    }

    /// Blocks `gpu`'s TB `tb` until `group`'s pre-access release.
    pub(crate) fn preaccess_wait(&mut self, gpu: GpuId, group: GroupId, tb: TbId) {
        self.preaccess_blocked
            .entry((gpu, group))
            .or_default()
            .push(tb);
        self.preaccess_waiting += 1;
    }

    /// Takes the TBs of `gpu` blocked on `group`'s pre-access release.
    pub(crate) fn preaccess_release(&mut self, gpu: GpuId, group: GroupId) -> Vec<TbId> {
        let waiters = self
            .preaccess_blocked
            .remove(&(gpu, group))
            .unwrap_or_default();
        self.preaccess_waiting -= waiters.len();
        waiters
    }

    /// Names the first 8 (GPU, group) pairs with pre-access waiters, each
    /// with its waiter count.
    pub(crate) fn preaccess_waiters(&self) -> Vec<String> {
        self.preaccess_blocked
            .iter()
            .map(|((g, grp), tbs)| format!("{g}/{grp}:{}", tbs.len()))
            .take(8)
            .collect()
    }

    /// Lists the host's counters and, at quiescence, requires every
    /// credit home, every load answered and every pre-access waiter
    /// released.
    pub(crate) fn audit_probe(&self, probe: &mut AuditProbe) {
        let outstanding: usize = self.throttle.iter().map(|t| t.outstanding).sum();
        let queued: usize = self.throttle.iter().map(|t| t.parked.len()).sum();
        let inflight: u32 = self.inflight_cais_loads.values().sum();
        for (name, value) in [
            ("engine.inflight_cais_loads", inflight as u64),
            ("engine.throttle_outstanding", outstanding as u64),
            ("engine.throttle_queued", queued as u64),
            ("engine.credits_over_returned", self.credits_over_returned),
            ("engine.preaccess_blocked", self.preaccess_waiting as u64),
        ] {
            probe.counter(name, value as f64);
        }
        if !probe.is_quiescence() {
            return;
        }
        const OWNER: &str = "engine.cais_host";
        for (ledger, value) in [
            ("quiescence: no CAIS loads still in flight", inflight as u64),
            (
                "quiescence: no requests queued behind throttle credits",
                queued as u64,
            ),
            (
                "quiescence: no outstanding throttle credits",
                outstanding as u64,
            ),
            (
                "quiescence: no credits returned beyond those outstanding",
                self.credits_over_returned,
            ),
        ] {
            probe.require_zero(OWNER, ledger, value);
        }
        // The one full recount of every (GPU, group) waiter list.
        let preaccess = self.preaccess_blocked.values().map(Vec::len).sum::<usize>() as u64;
        let waiting = self.preaccess_waiting as u64;
        probe.ledger(
            OWNER,
            "pre-access tally matches the waiter lists",
            preaccess,
            waiting,
        );
        probe.require_zero(
            OWNER,
            "quiescence: no TBs blocked on pre-access sync",
            preaccess,
        );
    }

    /// Appends waits-for edges until `edges` holds `max`: which (GPU,
    /// plane) pairs have requests parked behind credits, then which (GPU,
    /// group) pairs are blocked on pre-access sync.
    pub(crate) fn waits_for(&self, edges: &mut Vec<String>, max: usize) {
        let parked = self
            .throttle
            .iter()
            .enumerate()
            .filter(|(_, st)| !st.parked.is_empty());
        let throttled = parked.map(|(i, st)| {
            format!(
                "g{} -> plane{} ({} queued behind {} outstanding credits)",
                i / self.n_planes,
                i % self.n_planes,
                st.parked.len(),
                st.outstanding
            )
        });
        let synced = self.preaccess_blocked.iter().map(|((g, grp), tbs)| {
            format!(
                "g{} -> group{} ({} TBs awaiting pre-access release)",
                g.index(),
                grp.index(),
                tbs.len()
            )
        });
        let room = max.saturating_sub(edges.len());
        edges.extend(throttled.chain(synced).take(room));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim_core::{AuditPhase, TileId};

    /// Sizes of one (GPU, plane) credit queue.
    #[derive(Debug)]
    pub(crate) struct QueueSizes {
        pub(crate) outstanding: usize,
        pub(crate) parked: usize,
        pub(crate) parked_capacity: usize,
        pub(crate) runs: usize,
        pub(crate) runs_capacity: usize,
    }

    /// Views of the host's private state for tests that build it alone.
    impl CaisHost {
        fn queue(&self, gpu: GpuId, plane: PlaneId) -> &ThrottleState {
            &self.throttle[gpu.index() * self.n_planes + plane.index()]
        }

        /// The sizes of `gpu`'s credit queue on `plane`.
        pub(crate) fn queue_sizes(&self, gpu: GpuId, plane: PlaneId) -> QueueSizes {
            let st = self.queue(gpu, plane);
            QueueSizes {
                outstanding: st.outstanding,
                parked: st.parked.len(),
                parked_capacity: st.parked.capacity(),
                runs: st.runs.len(),
                runs_capacity: st.runs.capacity(),
            }
        }

        /// The requests parked on `gpu`'s queue on `plane`, oldest first,
        /// as `return_credits` would rebuild them.
        pub(crate) fn parked(&self, gpu: GpuId, plane: PlaneId) -> Vec<String> {
            let st = self.queue(gpu, plane);
            let mut positions = st.parked.iter();
            st.runs
                .iter()
                .flat_map(|run| {
                    positions
                        .by_ref()
                        .take(run.len as usize)
                        .map(|&pos| request(gpu, run.tb, run.ops[pos as usize]))
                        .collect::<Vec<_>>()
                })
                .map(|msg| format!("{msg:?}"))
                .collect()
        }

        /// Every op of the issues with requests parked on `gpu`'s queue
        /// on `plane`, parked or not.
        pub(crate) fn parked_run_ops(&self, gpu: GpuId, plane: PlaneId) -> Vec<MemOp> {
            let runs = &self.queue(gpu, plane).runs;
            runs.iter()
                .flat_map(|run| run.ops.iter().copied())
                .collect()
        }
    }

    fn op(kind: MemOpKind, home: u16, offset: u64, tile: Option<u64>) -> MemOp {
        MemOp {
            kind,
            addr: Addr::new(GpuId(home), offset),
            bytes: 4096,
            cais: true,
            tile: tile.map(TileId),
        }
    }

    fn counters(host: &CaisHost, phase: AuditPhase) -> AuditProbe {
        let mut probe = AuditProbe::new(phase);
        host.audit_probe(&mut probe);
        probe
    }

    #[test]
    fn unthrottled_requests_go_out_at_once() {
        let mut host = CaisHost::new(2, 4, None);
        let ops: Arc<[MemOp]> = (0..8)
            .map(|i| op(MemOpKind::RemoteReduce, 1, i * 4096, None))
            .collect();
        for pos in 0..ops.len() {
            let plane = host.send(GpuId(0), TbId(0), &ops, pos);
            assert_eq!(plane, Some(ops[pos].addr.plane(4)), "no credit limit");
        }
        // Credits only count when limited.
        host.return_credits(GpuId(0), PlaneId(0), 3, |_, m| panic!("{m:?} was parked"));
        let probe = counters(&host, AuditPhase::Quiescence);
        assert!(!probe.has_violations(), "{:?}", probe.violations());
    }

    #[test]
    fn each_answered_load_returns_one_credit() {
        let mut host = CaisHost::new(2, 1, Some(1));
        let ops: Arc<[MemOp]> = vec![
            op(MemOpKind::RemoteLoad, 1, 0, Some(1)),
            op(MemOpKind::RemoteLoad, 1, 0, None),
        ]
        .into();
        let (g0, p0, addr) = (GpuId(0), PlaneId(0), ops[0].addr);
        assert_eq!(host.send(g0, TbId(0), &ops, 0), Some(p0));
        assert_eq!(host.send(g0, TbId(0), &ops, 1), None, "one credit");
        let probe = counters(&host, AuditPhase::Cadence);
        assert!(probe
            .counters()
            .contains(&("engine.inflight_cais_loads", 2.0)));
        assert!(host.load_answered(g0, addr));
        let mut sent = Vec::new();
        host.return_credits(g0, p0, 1, |home, m| sent.push((home, format!("{m:?}"))));
        let parked = format!("{:?}", request(g0, TbId(0), ops[1]));
        assert_eq!(sent, [(GpuId(1), parked)]);
        assert!(host.load_answered(g0, addr));
        host.return_credits(g0, p0, 1, |_, m| panic!("{m:?} was not parked"));
        // A response to no CAIS load returns nothing.
        assert!(!host.load_answered(g0, addr));
        let probe = counters(&host, AuditPhase::Quiescence);
        assert!(!probe.has_violations(), "{:?}", probe.violations());
    }

    #[test]
    fn preaccess_waiters_are_released_per_gpu_and_group() {
        let mut host = CaisHost::new(2, 1, None);
        host.preaccess_wait(GpuId(1), GroupId(0), TbId(3));
        host.preaccess_wait(GpuId(0), GroupId(5), TbId(1));
        host.preaccess_wait(GpuId(1), GroupId(0), TbId(4));
        assert_eq!(host.preaccess_waiters(), ["gpu0/grp5:1", "gpu1/grp0:2"]);
        let mut edges = vec!["earlier".to_string()];
        host.waits_for(&mut edges, 2);
        assert_eq!(
            edges,
            [
                "earlier",
                "g0 -> group5 (1 TBs awaiting pre-access release)"
            ]
        );
        let broken = counters(&host, AuditPhase::Quiescence);
        assert_eq!(broken.violations().len(), 1);
        assert_eq!(broken.violations()[0].subsystem, "engine.cais_host");
        assert_eq!(
            host.preaccess_release(GpuId(1), GroupId(0)),
            [TbId(3), TbId(4)]
        );
        assert!(host.preaccess_release(GpuId(1), GroupId(0)).is_empty());
        assert_eq!(host.preaccess_release(GpuId(0), GroupId(5)), [TbId(1)]);
        let probe = counters(&host, AuditPhase::Quiescence);
        assert!(!probe.has_violations(), "{:?}", probe.violations());
        assert!(probe
            .counters()
            .contains(&("engine.preaccess_blocked", 0.0)));
    }
}
