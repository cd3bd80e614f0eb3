//! The multi-GPU system co-simulator: the event loop and the run report.
//! Its state lives in three crate-private components, each in its own
//! module: the kernel DAG (`dag`), the tile directory (`tiles`) and the
//! host side of the CAIS protocol (`cais_host`); `route` hands each GPU
//! effect and fabric delivery to the one that owns the state it changes.

use crate::cais_host::CaisHost;
use crate::config::SystemConfig;
use crate::dag::KernelDag;
use crate::error::{DeadlockDiag, SimError};
use crate::msg::Msg;
use crate::program::Program;
use crate::report::ExecReport;
use crate::tiles::TileDirectory;
use gpu_sim::{GpuConfig, GpuEffect, GpuSim, Phase};
use noc_sim::{Delivery, Fabric, SwitchLogic};
use sim_core::profile::{prof_scope, Subsystem};
use sim_core::{AuditPhase, AuditProbe, GpuId, SimTime};
use std::sync::Arc;

mod route;

// Every lowered TB holds a few phases; a shared `ops` list keeps each at
// a fat pointer plus the `wait` flag.
const _: () = assert!(std::mem::size_of::<Phase>() <= 24);

/// Most waits-for edges a deadlock report lists.
const MAX_EDGES: usize = 16;

/// Executes a [`Program`] on a configured system with a given switch logic.
///
/// Construct with [`SystemSim::new`], then call [`SystemSim::run`].
///
/// Generic over the switch-logic type so the per-packet callback
/// monomorphizes to a direct call: each concrete logic (`PureRouter`,
/// `NvlsLogic`, `CaisLogic`) compiles a dedicated fabric with no virtual
/// dispatch on the packet path.
pub struct SystemSim<L: SwitchLogic<Msg>> {
    cfg: SystemConfig,
    gpus: Vec<GpuSim>,
    fabric: Fabric<Msg, L>,
    now: SimTime,
    dag: KernelDag,
    tiles: TileDirectory,
    cais: CaisHost,
}

impl<L: SwitchLogic<Msg>> std::fmt::Debug for SystemSim<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("now", &self.now)
            .field("kernels_remaining", &self.dag.remaining())
            .finish_non_exhaustive()
    }
}

impl<L: SwitchLogic<Msg>> SystemSim<L> {
    /// Builds a system ready to run `program` with `logic` installed in
    /// every switch plane.
    ///
    /// # Panics
    ///
    /// Panics if the program fails validation.
    pub fn new(cfg: SystemConfig, program: Program, logic: L) -> SystemSim<L> {
        program
            .validate()
            .unwrap_or_else(|e| panic!("invalid program: {e}"));

        // One shared config for the whole system; only a straggler GPU
        // (different compute scale) gets its own copy.
        let shared_cfg: Arc<GpuConfig> = Arc::new(cfg.gpu.clone());
        let gpus: Vec<GpuSim> = (0..cfg.n_gpus)
            .map(|i| {
                let gpu_cfg = match &cfg.faults.straggler {
                    Some(s) if s.gpu == i => Arc::new(GpuConfig {
                        compute_scale: s.compute_factor,
                        ..cfg.gpu.clone()
                    }),
                    _ => Arc::clone(&shared_cfg),
                };
                GpuSim::new(gpu_cfg, cfg.seed ^ (0x9E37 + i as u64 * 0x1234_5678))
            })
            .collect();
        let mut fabric = Fabric::new(cfg.fabric_config(), logic);
        if cfg.audit.enabled {
            fabric.enable_audit_ring();
        }
        let tiles = TileDirectory::new(cfg.n_gpus, &program);
        SystemSim {
            gpus,
            fabric,
            now: SimTime::ZERO,
            dag: KernelDag::new(program.kernels),
            tiles,
            cais: CaisHost::new(cfg.n_gpus, cfg.n_planes, cfg.cais_credits_per_plane),
            cfg,
        }
    }

    /// Test-only access to the fabric, for audit corruption-injection
    /// tests that deliberately skew a tally before running.
    #[doc(hidden)]
    pub fn fabric_mut(&mut self) -> &mut Fabric<Msg, L> {
        &mut self.fabric
    }

    /// Runs the program to completion and full network quiescence.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadlock`] when no pending events remain while
    /// work does, [`SimError::DeadlineExceeded`] when simulated time passes
    /// the configured deadline, and [`SimError::FaultBudgetExhausted`] when
    /// fault injection force-delivered packets past their retransmit
    /// budget, and [`SimError::AuditViolation`] when a conservation ledger
    /// is broken: at the end-of-run quiescence check, which every run
    /// makes, or at a cadence check when `cfg.audit.enabled`.
    pub fn run(mut self) -> Result<ExecReport, SimError> {
        let _prof = prof_scope(Subsystem::EngineLoop);
        self.step_to_end()?;
        self.finish()
    }

    /// Launches the root kernels and processes events until none remain.
    fn step_to_end(&mut self) -> Result<(), SimError> {
        for i in self.dag.roots() {
            self.launch_kernel(SimTime::ZERO, i);
        }
        // The GPUs whose next event is at the step's time, ascending.
        let mut due = Vec::new();
        // Drain buffers the producers swap their effects and deliveries
        // into, so each drain recycles one instead of growing a new one.
        let (mut effects, mut deliveries) = (Vec::new(), Vec::new());
        // The fabric event count at the last cadence audit.
        let mut last_audit_events = 0;
        loop {
            {
                let _p = prof_scope(Subsystem::DrainEffects);
                self.drain_effects(&mut effects, &mut deliveries);
            }
            // One scan finds both the earliest pending time and which
            // components own it, so the advance pass below touches only
            // the components that actually have work at `t`. The global
            // minimum guarantees any due component's next event is at
            // exactly `t`, and GPU handlers cannot enqueue into other
            // components mid-advance (cross-component traffic flows
            // through drained effects), so skipping the rest is exact.
            let mut t: Option<SimTime> = None;
            due.clear();
            for (i, gpu) in self.gpus.iter().enumerate() {
                let Some(gt) = gpu.next_time() else { continue };
                match t {
                    Some(cur) if gt > cur => continue,
                    Some(cur) if gt == cur => {}
                    _ => {
                        t = Some(gt);
                        due.clear();
                    }
                }
                due.push(i);
            }
            let mut fabric_due = false;
            if let Some(ft) = self.fabric.next_time() {
                match t {
                    Some(cur) if ft > cur => {}
                    Some(cur) if ft == cur => fabric_due = true,
                    _ => {
                        t = Some(ft);
                        due.clear();
                        fabric_due = true;
                    }
                }
            }
            let Some(t) = t else { break };
            if t > self.cfg.deadline {
                return Err(SimError::DeadlineExceeded {
                    deadline: self.cfg.deadline,
                    now: t,
                    kernels_remaining: self.dag.remaining(),
                });
            }
            {
                let _p = prof_scope(Subsystem::GpuAdvance);
                for &i in &due {
                    self.gpus[i].advance(t);
                }
            }
            if fabric_due {
                let _p = prof_scope(Subsystem::FabricAdvance);
                self.fabric.advance(t);
            }
            self.now = t;
            if self.cfg.audit.enabled {
                let done = self.fabric.events_processed();
                if done - last_audit_events >= self.cfg.audit.cadence_events {
                    last_audit_events = done;
                    self.audit_check(AuditPhase::Cadence)?;
                }
            }
        }
        Ok(())
    }

    /// Lists every subsystem into one probe: the fabric, the engine's
    /// components, then the switch logic, whose counters close the list.
    /// Returns the probe and the index of the logic's first counter.
    fn probe(&self, phase: AuditPhase) -> (AuditProbe, usize) {
        let mut probe = AuditProbe::new(phase);
        self.fabric.audit_probe(&mut probe);
        self.tiles.audit_probe(&mut probe);
        self.cais.audit_probe(&mut probe);
        self.dag.audit_probe(&mut probe);
        let logic_start = probe.counters().len();
        self.fabric.logic().audit_probe(&mut probe);
        (probe, logic_start)
    }

    /// Runs one audit pass over every subsystem; a violated ledger becomes
    /// [`SimError::AuditViolation`] with the full forensic report.
    fn audit_check(&self, phase: AuditPhase) -> Result<(AuditProbe, usize), SimError> {
        let (probe, logic_start) = self.probe(phase);
        if probe.has_violations() {
            return Err(SimError::AuditViolation(Box::new(
                probe.into_report(self.now, self.fabric.audit_recent_events()),
            )));
        }
        Ok((probe, logic_start))
    }

    /// Routes GPU effects and fabric deliveries until neither is left.
    fn drain_effects(
        &mut self,
        effects: &mut Vec<(SimTime, GpuEffect)>,
        deliveries: &mut Vec<Delivery<Msg>>,
    ) {
        loop {
            let mut any = false;
            for gi in 0..self.gpus.len() {
                if !self.gpus[gi].has_effects() {
                    continue;
                }
                self.gpus[gi].drain_effects_into(effects);
                any = true;
                for (t, e) in effects.drain(..) {
                    self.handle_gpu_effect(t, GpuId(gi as u16), e);
                }
            }
            if self.fabric.has_deliveries() {
                self.fabric.drain_deliveries_into(deliveries);
                any = true;
                for d in deliveries.drain(..) {
                    self.handle_delivery(d);
                }
            }
            if !any {
                break;
            }
        }
    }

    fn launch_kernel(&mut self, now: SimTime, idx: usize) {
        let planned = self.dag.launch(now, idx);
        let sim = &mut self.gpus[planned.gpu.index()];
        self.tiles.launch(now, sim, planned.desc);
    }

    /// What a stalled run left behind: every subsystem's counters, the
    /// unlaunched and incomplete kernels, pre-access waiters, blocked
    /// TBs and the waits-for edges.
    fn deadlock_diag(&self) -> DeadlockDiag {
        let mut waits_for = Vec::new();
        self.tiles.waits_for(&mut waits_for, MAX_EDGES);
        self.cais.waits_for(&mut waits_for, MAX_EDGES);
        DeadlockDiag {
            counters: self.probe(AuditPhase::Cadence).0.counters().to_vec(),
            preaccess_waiters: self.cais.preaccess_waiters(),
            kernels: self
                .dag
                .stuck(|gpu, k| self.gpus[gpu.index()].kernel_pending(k)),
            blocked_tbs: self
                .tiles
                .blocked_tbs()
                .take(16)
                .map(|tb| tb.to_string())
                .collect(),
            waits_for,
            recent_events: self.fabric.audit_recent_events(),
        }
    }

    fn finish(self) -> Result<ExecReport, SimError> {
        // Fault pressure first: a run that only completed because packets
        // were force-delivered past their retransmit budget is not a valid
        // result even if every kernel finished.
        if let Some(c) = self.fabric.resilience_counters() {
            if c.budget_exhausted > 0 {
                return Err(SimError::FaultBudgetExhausted {
                    exhausted: c.budget_exhausted,
                    drops: c.drops,
                    retries: c.retries,
                });
            }
        }
        if self.dag.remaining() > 0 || self.tiles.blocked_tbs().next().is_some() {
            return Err(SimError::Deadlock(Box::new(self.deadlock_diag())));
        }
        // Mandatory end-of-run quiescence verification: every queue
        // drained and every table empty. Runs on the success path of
        // every run, audited or not, so that silent bookkeeping leaks
        // cannot survive a "passing" run.
        let (probe, logic_start) = self.audit_check(AuditPhase::Quiescence)?;
        let counters = probe.counters().to_vec();
        let logic_stats = counters[logic_start..]
            .iter()
            .map(|&(k, v)| (k.to_owned(), v))
            .collect();
        let total = self.now.since(SimTime::ZERO);
        let events_processed = self.gpus.iter().map(|g| g.events_processed()).sum::<u64>()
            + self.fabric.events_processed();
        let gpu_queue_peak = self.gpus.iter().map(GpuSim::queue_peak).max();
        let queue_peak = gpu_queue_peak.unwrap_or(0).max(self.fabric.queue_peak());
        let (semantic_contribs, deduped_fetches) = self.tiles.tallies();
        Ok(ExecReport {
            total,
            gpu_occupancy: self.gpus.iter().map(|g| g.occupancy(total)).collect(),
            fabric: self.fabric.report(total),
            deduped_fetches,
            semantic_contribs,
            kernel_spans: self.dag.into_spans(),
            counters,
            logic_stats,
            events_processed,
            queue_peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAlloc;
    use crate::program::PlannedKernel;
    use crate::tiles::MIN_TABLE_CAPACITY;
    use gpu_sim::{KernelDesc, MemOp, MemOpKind, SyncKind, TbDesc};
    use noc_sim::PureRouter;
    use sim_core::{Addr, GroupId, KernelId, PlaneId, SimDuration, TbId, TileId};
    use std::collections::VecDeque;

    fn quiet_cfg(n_gpus: usize) -> SystemConfig {
        let mut cfg = SystemConfig::dgx_h100();
        cfg.n_gpus = n_gpus;
        cfg.n_planes = 1;
        cfg.fabric = noc_sim::FabricConfig::default_for(n_gpus, 1);
        cfg.gpu.dispatch_jitter = SimDuration::ZERO;
        cfg.gpu.launch_skew = SimDuration::ZERO;
        cfg.gpu.compute_jitter = SimDuration::ZERO;
        cfg
    }

    fn run(cfg: SystemConfig, program: Program) -> ExecReport {
        SystemSim::new(cfg, program, PureRouter)
            .run()
            .expect("test program must complete")
    }

    #[test]
    fn remote_load_blocks_until_response() {
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let addr = ids.addr(GpuId(1), 4096);
        let tb = TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::IssueMem {
                    ops: Arc::new([MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr,
                        bytes: 4096,
                        cais: false,
                        tile: None,
                    }]),
                    wait: true,
                },
                Phase::Compute(SimDuration::from_us(1)),
            ],
        };
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
            after: vec![],
        });
        let report = run(cfg, p);
        // 3us launch + round trip (~1us links + serialization) + mem
        // latency + 1us compute: must exceed 5us and be well under 100us.
        assert!(
            report.total > SimDuration::from_us(5),
            "total {}",
            report.total
        );
        assert!(report.total < SimDuration::from_us(100));
    }

    #[test]
    fn tile_dedup_avoids_duplicate_fetches() {
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let addr = ids.addr(GpuId(1), 4096);
        let tile = ids.tile();
        let mk_tb = |ids: &mut IdAlloc, key| TbDesc {
            id: ids.tb(),
            order_key: key,
            group: None,
            pre_launch_sync: false,
            phases: vec![Phase::IssueMem {
                ops: Arc::new([MemOp {
                    kind: MemOpKind::RemoteLoad,
                    addr,
                    bytes: 4096,
                    cais: false,
                    tile: Some(tile),
                }]),
                wait: true,
            }],
        };
        let tbs = vec![mk_tb(&mut ids, 0), mk_tb(&mut ids, 1), mk_tb(&mut ids, 2)];
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "loaders", tbs),
            after: vec![],
        });
        let report = run(cfg, p);
        assert_eq!(report.deduped_fetches, 2, "two of three loads deduped");
    }

    #[test]
    fn reduce_contributions_complete_consumer_tile() {
        // Two producer GPUs reduce into a tile on GPU 0; a consumer kernel
        // TB on GPU 0 is gated on that tile.
        let cfg = quiet_cfg(3);
        let mut ids = IdAlloc::new(3);
        let addr = ids.addr(GpuId(0), 8192);
        let tile = ids.tile();
        let mut p = Program::new();
        let mut producer_ids = vec![];
        for g in 0..3u16 {
            let tb = TbDesc {
                id: ids.tb(),
                order_key: 0,
                group: None,
                pre_launch_sync: false,
                phases: vec![
                    Phase::Compute(SimDuration::from_us(2)),
                    Phase::IssueMem {
                        ops: Arc::new([MemOp {
                            kind: MemOpKind::RemoteReduce,
                            addr,
                            bytes: 8192,
                            cais: false,
                            tile: Some(tile),
                        }]),
                        wait: false,
                    },
                ],
            };
            let kid = ids.kernel();
            producer_ids.push(kid);
            p.push(PlannedKernel {
                gpu: GpuId(g),
                desc: KernelDesc::new(kid, format!("prod{g}"), vec![tb]),
                after: vec![],
            });
        }
        let consumer_tb = ids.tb();
        let mut desc = KernelDesc::new(
            ids.kernel(),
            "consumer",
            vec![TbDesc::compute_only(
                consumer_tb,
                0,
                SimDuration::from_us(1),
            )],
        );
        Arc::make_mut(&mut desc.body).tbs_auto_ready = false;
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc,
            after: vec![],
        });
        p.tb_ready_deps.insert(consumer_tb, Arc::new([tile]));
        p.tile_expected.insert(tile, 3);
        let report = run(cfg, p);
        let span = report
            .kernel_spans
            .values()
            .find(|s| &*s.name == "consumer")
            .unwrap();
        // Consumer can only finish after remote contributions arrived
        // (launch 3us + produce 2us + wire time), then 1us compute.
        assert!(span.end > SimTime::from_us(6));
    }

    #[test]
    fn kernel_barrier_orders_execution() {
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let mut p = Program::new();
        let mut first = vec![];
        for g in 0..2u16 {
            let kid = ids.kernel();
            first.push(kid);
            p.push(PlannedKernel {
                gpu: GpuId(g),
                desc: KernelDesc::new(
                    kid,
                    "first",
                    vec![TbDesc::compute_only(ids.tb(), 0, SimDuration::from_us(5))],
                ),
                after: vec![],
            });
        }
        let second = ids.kernel();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(
                second,
                "second",
                vec![TbDesc::compute_only(ids.tb(), 0, SimDuration::from_us(1))],
            ),
            after: first.clone(),
        });
        let report = run(cfg, p);
        let s = &report.kernel_spans[&second];
        for f in &first {
            assert!(s.start >= report.kernel_spans[f].end);
        }
    }

    #[test]
    fn throttle_credits_serialize_cais_loads() {
        // One credit per plane: two CAIS loads to tiles on the same plane
        // must round-trip one at a time (the second waits for the first
        // response to return the credit).
        let mut unthrottled_cfg = quiet_cfg(2);
        unthrottled_cfg.n_planes = 1;
        unthrottled_cfg.fabric = noc_sim::FabricConfig::default_for(2, 1);
        let mut throttled_cfg = unthrottled_cfg.clone();
        throttled_cfg.cais_credits_per_plane = Some(1);

        let build = |cfg: &SystemConfig| {
            let mut ids = IdAlloc::new(2);
            let ops: Vec<MemOp> = (0..2)
                .map(|_| MemOp {
                    kind: MemOpKind::RemoteLoad,
                    addr: ids.addr(GpuId(1), 1 << 20),
                    bytes: 1 << 20,
                    cais: true,
                    tile: Some(ids.tile()),
                })
                .collect();
            let tb = TbDesc {
                id: ids.tb(),
                order_key: 0,
                group: None,
                pre_launch_sync: false,
                phases: vec![Phase::IssueMem {
                    ops: ops.into(),
                    wait: true,
                }],
            };
            let mut p = Program::new();
            p.push(PlannedKernel {
                gpu: GpuId(0),
                desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
                after: vec![],
            });
            let _ = cfg;
            p
        };
        let fast = SystemSim::new(unthrottled_cfg.clone(), build(&unthrottled_cfg), PureRouter)
            .run()
            .expect("unthrottled run completes");
        let slow = SystemSim::new(throttled_cfg.clone(), build(&throttled_cfg), PureRouter)
            .run()
            .expect("throttled run completes");
        // With one credit the two 1 MB responses cannot overlap on the
        // wire, so the throttled run is measurably longer.
        assert!(
            slow.total.as_ns() > fast.total.as_ns() + 1_000,
            "throttled {} vs unthrottled {}",
            slow.total,
            fast.total
        );
    }

    /// The `i`th op of a credit burst from GPU 0 to `home`, and the
    /// request it must put on the wire: tiled and tile-less `red.cais`
    /// pushes and `ld.cais` loads in turn, each with its own address and
    /// tile.
    fn burst_op(ids: &mut IdAlloc, i: usize, home: GpuId, tb: TbId) -> (MemOp, Msg) {
        let (addr, tile) = (ids.addr(home, 4096), ids.tile());
        let bytes = 4096 + i as u64;
        let (kind, tile) = match i % 4 {
            0 => (MemOpKind::RemoteReduce, Some(tile)),
            1 => (MemOpKind::RemoteReduce, None),
            2 => (MemOpKind::RemoteLoad, None),
            _ => (MemOpKind::RemoteLoad, Some(tile)),
        };
        let msg = match kind {
            MemOpKind::RemoteReduce => Msg::Reduce {
                addr,
                bytes,
                src: GpuId(0),
                contribs: 1,
                tile,
                cais: true,
            },
            _ => Msg::LoadReq {
                addr,
                bytes,
                requester: GpuId(0),
                tb,
                tile,
                cais: true,
            },
        };
        let op = MemOp {
            kind,
            addr,
            bytes,
            cais: true,
            tile,
        };
        (op, msg)
    }

    /// A CAIS host whose GPU 0 has sent `burst` requests to GPU 1 on
    /// plane 0, four ops per issue and one TB per issue, behind `limit`
    /// credits, none of them returned yet, and the requests in the order
    /// they were sent.
    fn credit_burst(limit: usize, burst: usize) -> (CaisHost, Vec<Msg>) {
        let mut host = CaisHost::new(2, 1, Some(limit));
        let mut ids = IdAlloc::new(2);
        let mut sent = Vec::new();
        for start in (0..burst).step_by(4) {
            let tb = ids.tb();
            let (ops, msgs): (Vec<MemOp>, Vec<Msg>) = (start..burst.min(start + 4))
                .map(|i| burst_op(&mut ids, i, GpuId(1), tb))
                .unzip();
            let ops: Arc<[MemOp]> = ops.into();
            for pos in 0..ops.len() {
                host.send(GpuId(0), tb, &ops, pos);
            }
            sent.extend(msgs);
        }
        (host, sent)
    }

    #[test]
    fn parked_requests_leave_the_credit_queue_unchanged() {
        let (limit, burst) = (4, 64);
        let (host, sent) = credit_burst(limit, burst);
        let (g0, p0) = (GpuId(0), PlaneId(0));
        assert!(host
            .parked_run_ops(g0, p0)
            .iter()
            .all(|op| op.addr.home_gpu() == GpuId(1)));
        let queued: Vec<String> = sent[limit..].iter().map(|m| format!("{m:?}")).collect();
        assert_eq!(host.parked(g0, p0), queued);
        // One run per issue: the first issue went out whole.
        assert_eq!(host.queue_sizes(g0, p0).runs, burst / 4 - 1);
    }

    #[test]
    fn parked_reductions_are_rebuilt_with_one_contribution() {
        let (host, _) = credit_burst(1, 16);
        let reductions: Vec<String> = host
            .parked(GpuId(0), PlaneId(0))
            .into_iter()
            .filter(|m| m.starts_with("Reduce"))
            .collect();
        assert_eq!(reductions.len(), 7);
        assert!(
            reductions.iter().all(|m| m.contains("contribs: 1,")),
            "{reductions:?}"
        );
    }

    #[test]
    fn drained_credit_queue_releases_its_buffer() {
        let (limit, burst) = (4, 256);
        let (mut host, _) = credit_burst(limit, burst);
        let (g0, p0) = (GpuId(0), PlaneId(0));
        let sizes = host.queue_sizes(g0, p0);
        assert_eq!(sizes.parked, burst - limit);
        assert!(sizes.parked_capacity >= burst - limit);
        // One credit back per response: each admits one queued request
        // until the queue drains, then the last `limit` return idle.
        for i in 0..burst {
            host.return_credits(g0, p0, 1, |_, _| {});
            assert_eq!(
                host.queue_sizes(g0, p0).parked,
                (burst - limit).saturating_sub(i + 1)
            );
        }
        let sizes = host.queue_sizes(g0, p0);
        assert_eq!(sizes.outstanding, 0);
        assert_eq!(sizes.runs, 0);
        assert!(
            sizes.parked_capacity <= limit,
            "drained queue kept {} slots",
            sizes.parked_capacity
        );
        assert_eq!(sizes.runs_capacity, 0);
    }

    #[test]
    fn over_returned_credits_break_the_quiescence_ledger() {
        // Two reductions, so no load is left in flight.
        let (mut host, _) = credit_burst(4, 2);
        // Two credits outstanding; three come back.
        host.return_credits(GpuId(0), PlaneId(0), 3, |_, m| {
            panic!("{m:?} was not parked")
        });
        assert_eq!(host.queue_sizes(GpuId(0), PlaneId(0)).outstanding, 0);
        let mut probe = AuditProbe::new(AuditPhase::Quiescence);
        host.audit_probe(&mut probe);
        assert!(probe
            .counters()
            .contains(&("engine.credits_over_returned", 1.0)));
        let broken: Vec<&str> = probe.violations().iter().map(|v| v.ledger).collect();
        assert_eq!(
            broken,
            ["quiescence: no credits returned beyond those outstanding"]
        );
    }

    /// Records every packet reaching a switch, with the fabric's packet
    /// id (assigned in injection order) and the plane, then forwards it.
    #[derive(Default)]
    struct Recorder(Vec<(u64, PlaneId, GpuId, Msg)>);

    impl SwitchLogic<Msg> for Recorder {
        fn on_packet(
            &mut self,
            _now: SimTime,
            pkt: noc_sim::Packet<Msg>,
            ctx: &mut noc_sim::SwitchCtx<Msg>,
        ) {
            self.0
                .push((pkt.id, ctx.plane(), pkt.dst, pkt.payload.clone()));
            ctx.forward(pkt);
        }
    }

    /// The reference credit queues: per plane, a FIFO of whole
    /// requests, parked one at a time, and the requests in the order they
    /// go on the wire.
    struct ReferenceCredits {
        limit: usize,
        outstanding: Vec<usize>,
        fifo: Vec<VecDeque<(GpuId, Msg)>>,
        sent: Vec<String>,
    }

    impl ReferenceCredits {
        fn send(&mut self, plane: PlaneId, dst: GpuId, msg: Msg) {
            let p = plane.index();
            if self.outstanding[p] < self.limit {
                self.outstanding[p] += 1;
                self.sent.push(format!("{plane:?} {dst:?} {msg:?}"));
            } else {
                self.fifo[p].push_back((dst, msg));
            }
        }

        fn return_credits(&mut self, plane: PlaneId, n: usize) {
            let p = plane.index();
            self.outstanding[p] -= n.min(self.outstanding[p]);
            while self.outstanding[p] < self.limit {
                let Some((dst, msg)) = self.fifo[p].pop_front() else {
                    break;
                };
                self.outstanding[p] += 1;
                self.sent.push(format!("{plane:?} {dst:?} {msg:?}"));
            }
        }
    }

    #[test]
    fn credit_burst_injects_in_the_order_of_a_one_request_fifo() {
        // GPU 0 issues 24 lists of tiled and tile-less `ld.cais` and
        // `red.cais` to GPUs 1 and 2 over four planes, behind two credits
        // per plane, while credits come back a few at a time. One list is
        // issued twice in a row by the same TB: its tiled loads are then
        // deduplicated fetches, and its other ops go out again.
        let (n_gpus, n_planes, limit) = (3, 4, 2);
        let mut cfg = quiet_cfg(n_gpus);
        cfg.n_planes = n_planes;
        cfg.fabric = noc_sim::FabricConfig::default_for(n_gpus, n_planes);
        cfg.cais_credits_per_plane = Some(limit);
        let mut sim = SystemSim::new(cfg, Program::new(), Recorder::default());
        let mut reference = ReferenceCredits {
            limit,
            outstanding: vec![0; n_planes],
            fifo: vec![VecDeque::new(); n_planes],
            sent: Vec::new(),
        };
        let mut ids = IdAlloc::new(n_gpus);
        let mut issues: Vec<(TbId, Arc<[MemOp]>, Vec<Msg>)> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut i = 0;
        for round in 0..24 {
            let repeat = round == 9;
            let (tb, ops, msgs) = if repeat {
                issues[8].clone()
            } else {
                let tb = ids.tb();
                let home = GpuId(1 + (round % 2) as u16);
                let (ops, msgs): (Vec<MemOp>, Vec<Msg>) = (0..3 + round % 5)
                    .map(|_| {
                        i += 1;
                        burst_op(&mut ids, i, home, tb)
                    })
                    .unzip();
                (tb, Arc::from(ops), msgs)
            };
            issues.push((tb, Arc::clone(&ops), msgs.clone()));
            for (op, msg) in ops.iter().zip(msgs) {
                let deduped = repeat && op.kind == MemOpKind::RemoteLoad && op.tile.is_some();
                if !deduped {
                    reference.send(op.addr.plane(n_planes), op.addr.home_gpu(), msg);
                }
            }
            sim.handle_mem_issued(now, GpuId(0), tb, ops, false);
            // Every third round, credits come back on one plane.
            if round % 3 == 2 {
                now += SimDuration::from_ns(10);
                let plane = PlaneId((round / 3 % n_planes) as u16);
                let n = 1 + round / 3 % 3;
                sim.return_credits(now, GpuId(0), plane, n as u32);
                reference.return_credits(plane, n);
            }
        }
        let queued: usize = reference.fifo.iter().map(VecDeque::len).sum();
        assert!(
            queued > 8 && reference.sent.len() > 16,
            "the burst parks requests"
        );
        let mut probe = AuditProbe::new(AuditPhase::Cadence);
        sim.cais.audit_probe(&mut probe);
        assert!(probe
            .counters()
            .contains(&("engine.throttle_queued", queued as f64)));

        sim.fabric.run_to_completion();
        let mut got = std::mem::take(&mut sim.fabric.logic_mut().0);
        got.sort_by_key(|&(id, ..)| id);
        let got: Vec<String> = got
            .into_iter()
            .map(|(_, plane, dst, msg)| format!("{plane:?} {dst:?} {msg:?}"))
            .collect();
        assert_eq!(got, reference.sent);
    }

    /// A one-kernel program on GPU 0 whose TBs each issue one blocking
    /// load from GPU 1, built by `op` from the TB's index.
    fn loaders(n: u64, op: impl Fn(&mut IdAlloc, u64) -> MemOp) -> Program {
        let mut ids = IdAlloc::new(2);
        let tbs = (0..n)
            .map(|i| TbDesc {
                id: ids.tb(),
                order_key: i,
                group: None,
                pre_launch_sync: false,
                phases: vec![Phase::IssueMem {
                    ops: Arc::new([op(&mut ids, i)]),
                    wait: true,
                }],
            })
            .collect();
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "loaders", tbs),
            after: vec![],
        });
        p
    }

    #[test]
    fn every_inflight_cais_load_returns_its_credit() {
        // Two tile-less `ld.cais` loads of one address from one GPU are
        // in flight together; each response must return its credit.
        let mut cfg = quiet_cfg(2);
        cfg.cais_credits_per_plane = Some(4);
        let addr = Addr::new(GpuId(1), 4096);
        let p = loaders(2, |_, _| MemOp {
            kind: MemOpKind::RemoteLoad,
            addr,
            bytes: 4096,
            cais: true,
            tile: None,
        });
        let report = run(cfg, p);
        assert_eq!(report.stat("engine.throttle_outstanding"), Some(0.0));
    }

    #[test]
    fn landed_tiles_leave_the_waiter_table_small() {
        // Every slot of GPU 0 holds a TB blocked on its own remote tile,
        // so more (GPU, tile) pairs are awaited at once than the table's
        // floor capacity keeps.
        let mut cfg = quiet_cfg(2);
        cfg.gpu.tb_slots_per_sm = 32;
        let slots = cfg.gpu.total_slots() as u64;
        assert!(slots > 2 * MIN_TABLE_CAPACITY as u64);
        let p = loaders(slots, |ids, _| MemOp {
            kind: MemOpKind::RemoteLoad,
            addr: ids.addr(GpuId(1), 4096),
            bytes: 4096,
            cais: false,
            tile: Some(ids.tile()),
        });
        let mut sim = SystemSim::new(cfg, p, PureRouter);
        sim.step_to_end().expect("every load is answered");
        let waiters = sim.tiles.waiters();
        assert!(waiters.is_empty());
        assert!(
            waiters.capacity() <= 2 * MIN_TABLE_CAPACITY,
            "the landed burst left {} slots",
            waiters.capacity()
        );
        assert!(sim.tiles.all_landed(GpuId(0)));
        sim.finish().expect("the run is quiescent");
    }

    /// Forwards every packet except pre-access sync requests, which it
    /// swallows: the groups they belong to are never released.
    struct SyncSink;

    impl SwitchLogic<Msg> for SyncSink {
        fn on_packet(
            &mut self,
            _now: SimTime,
            pkt: noc_sim::Packet<Msg>,
            ctx: &mut noc_sim::SwitchCtx<Msg>,
        ) {
            if !matches!(pkt.payload, Msg::SyncReq { kind: 1, .. }) {
                ctx.forward(pkt);
            }
        }
    }

    #[test]
    fn unreleased_preaccess_groups_are_named_in_gpu_then_group_order() {
        // Waiters on (g0, group5), (g1, group0) x2 and (g1, group2): the
        // diagnostics list the pairs in (GPU, group) order, each once.
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let syncer = |ids: &mut IdAlloc, group: u32| TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: Some(GroupId(group)),
            pre_launch_sync: false,
            phases: vec![
                Phase::SyncGroup(SyncKind::PreAccess),
                Phase::Compute(SimDuration::from_us(1)),
            ],
        };
        let mut p = Program::new();
        for (gpu, groups) in [(0u16, vec![5u32]), (1, vec![2, 0, 0])] {
            let tbs = groups.iter().map(|&g| syncer(&mut ids, g)).collect();
            p.push(PlannedKernel {
                gpu: GpuId(gpu),
                desc: KernelDesc::new(ids.kernel(), "syncers", tbs),
                after: vec![],
            });
        }
        let err = SystemSim::new(cfg, p, SyncSink)
            .run()
            .expect_err("unreleased pre-access groups must deadlock");
        let SimError::Deadlock(diag) = err else {
            panic!("expected a deadlock, got {err}");
        };
        assert_eq!(
            diag.preaccess_waiters,
            ["gpu0/grp5:1", "gpu1/grp0:2", "gpu1/grp2:1"]
        );
        assert_eq!(
            diag.waits_for,
            [
                "g0 -> group5 (1 TBs awaiting pre-access release)",
                "g1 -> group0 (2 TBs awaiting pre-access release)",
                "g1 -> group2 (1 TBs awaiting pre-access release)",
            ]
        );
    }

    /// A program of dependency-gated kernels on GPU 0, one per entry of
    /// `kernels`, each holding the listed TBs (`TbId(i)`, compute-only).
    /// Kernel `i > 0` runs after kernel 0, so only kernel 0 is a root.
    fn gated_program(kernels: &[&[u64]], deps: &[(u64, Vec<TileId>)]) -> Program {
        let mut p = Program::new();
        for (k, tbs) in kernels.iter().enumerate() {
            let tbs = tbs
                .iter()
                .map(|&i| TbDesc::compute_only(TbId(i), i, SimDuration::from_us(1)))
                .collect();
            let mut desc = KernelDesc::new(KernelId(k as u32), format!("gated{k}"), tbs);
            Arc::make_mut(&mut desc.body).tbs_auto_ready = false;
            p.push(PlannedKernel {
                gpu: GpuId(0),
                desc,
                after: if k == 0 { vec![] } else { vec![KernelId(0)] },
            });
        }
        for (tb, tiles) in deps {
            p.tb_ready_deps.insert(TbId(*tb), tiles[..].into());
        }
        p
    }

    /// The tile directory of `gated_program(kernels, deps)` on two GPUs,
    /// and GPU 0 with kernel 0 launched through it.
    fn gated_tiles(kernels: &[&[u64]], deps: &[(u64, Vec<TileId>)]) -> (TileDirectory, GpuSim) {
        let p = gated_program(kernels, deps);
        let mut tiles = TileDirectory::new(2, &p);
        let mut gpu = GpuSim::new(quiet_cfg(2).gpu, 0);
        tiles.launch(SimTime::ZERO, &mut gpu, p.kernels[0].desc.clone());
        (tiles, gpu)
    }

    #[test]
    fn gates_completing_on_one_tile_wake_in_ascending_tb_order() {
        let (a, b) = (TileId(0), TileId(1));
        // Gate [A] holds tb0 and tb3, gate [B, A] holds tb1 and tb2; tb1
        // and tb3 belong to a kernel that has not launched.
        let deps = [(0, vec![a]), (1, vec![b, a]), (2, vec![b, a]), (3, vec![a])];
        let (mut tiles, mut gpu) = gated_tiles(&[&[0, 2], &[1, 3]], &deps);
        assert_eq!(tiles.gate_remaining().len(), 2);
        let t = SimTime::from_us(1);
        tiles.land(t, GpuId(0), &mut gpu, b);
        assert!(
            tiles.ready_pending().is_empty(),
            "gate [B, A] still waits on A"
        );
        // Landing A opens both gates at once.
        assert_eq!(
            tiles.open_gates_of(GpuId(0), a),
            vec![TbId(0), TbId(1), TbId(2), TbId(3)]
        );

        // Through `land`: unlaunched TBs wait in `ready_pending`
        // for their kernel, launched ones go to the GPU.
        let (mut tiles, mut gpu) = gated_tiles(&[&[0, 2], &[1, 3]], &deps);
        tiles.land(t, GpuId(0), &mut gpu, b);
        tiles.land(t, GpuId(0), &mut gpu, a);
        let pending: Vec<u64> = (0..4)
            .filter(|&i| tiles.ready_pending().contains(TbId(i)))
            .collect();
        assert_eq!(pending, vec![1, 3]);
    }

    #[test]
    fn tile_listed_twice_in_one_dependency_list_counts_twice() {
        let (a, b) = (TileId(0), TileId(1));
        let (mut tiles, mut gpu) = gated_tiles(&[&[], &[0]], &[(0, vec![a, a, b])]);
        tiles.land(SimTime::ZERO, GpuId(0), &mut gpu, a);
        assert_eq!(tiles.gate_remaining(), [1]);
        assert!(!tiles.ready_pending().contains(TbId(0)));
        tiles.land(SimTime::ZERO, GpuId(0), &mut gpu, b);
        assert!(tiles.ready_pending().contains(TbId(0)));
    }

    #[test]
    fn empty_dependency_list_is_ready_at_launch() {
        let p = gated_program(&[&[0]], &[(0, vec![])]);
        let tiles = TileDirectory::new(2, &p);
        assert!(tiles.gate_remaining().is_empty());
        assert!(tiles.ready_pending().contains(TbId(0)));
        // The TB dispatches with its kernel; nothing else releases it.
        let report = SystemSim::new(quiet_cfg(2), p, PureRouter)
            .run()
            .expect("a TB with no prerequisites runs");
        assert_eq!(report.kernel_spans.len(), 1);
    }

    /// A one-kernel program whose sole TB is gated on a tile nobody
    /// produces, listed twice.
    fn deadlocking_program(ids: &mut IdAlloc) -> Program {
        let tile = ids.tile();
        let tb = ids.tb();
        let mut desc = KernelDesc::new(
            ids.kernel(),
            "stuck",
            vec![TbDesc::compute_only(tb, 0, SimDuration::from_us(1))],
        );
        Arc::make_mut(&mut desc.body).tbs_auto_ready = false;
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc,
            after: vec![],
        });
        p.tb_ready_deps.insert(tb, Arc::new([tile, tile]));
        p
    }

    #[test]
    fn missing_tile_returns_deadlock_with_diagnostics() {
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let mut p = deadlocking_program(&mut ids);
        // A kernel on the stuck kernel's GPU that completes first: the
        // report must not name it.
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(
                ids.kernel(),
                "done",
                vec![TbDesc::compute_only(ids.tb(), 0, SimDuration::from_us(1))],
            ),
            after: vec![],
        });
        let err = SystemSim::new(cfg, p, PureRouter)
            .run()
            .expect_err("unsatisfiable tile gate must deadlock");
        match &err {
            SimError::Deadlock(d) => {
                assert_eq!(d.counter("engine.kernels_remaining"), Some(1.0));
                // Held at its dispatch gate, not blocked in a slot.
                assert_eq!(d.counter("engine.blocked_tbs"), Some(0.0));
                assert!(d.blocked_tbs.is_empty());
                assert_eq!(d.kernels, vec!["incomplete k0 stuck on gpu0".to_string()]);
                assert_eq!(
                    d.waits_for,
                    vec!["tb0 -> tile0@g0 (dispatch gate)".to_string()],
                    "waits-for edges must name the gated TB, once"
                );
            }
            other => panic!("expected Deadlock, got {other:?}"),
        }
        assert!(err.to_string().contains("deadlock"));
    }

    #[test]
    fn tiny_deadline_returns_deadline_exceeded() {
        let mut cfg = quiet_cfg(2);
        cfg.deadline = SimTime::from_ns(1);
        let mut ids = IdAlloc::new(2);
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(
                ids.kernel(),
                "slow",
                vec![TbDesc::compute_only(ids.tb(), 0, SimDuration::from_us(50))],
            ),
            after: vec![],
        });
        let err = SystemSim::new(cfg, p, PureRouter)
            .run()
            .expect_err("1 ns deadline must be exceeded");
        match &err {
            SimError::DeadlineExceeded {
                deadline,
                now,
                kernels_remaining,
            } => {
                assert_eq!(*deadline, SimTime::from_ns(1));
                assert!(now > deadline, "reported {now}, deadline {deadline}");
                assert_eq!(*kernels_remaining, 1);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn certain_drops_return_fault_budget_exhausted() {
        let mut cfg = quiet_cfg(2);
        cfg.faults = cfg.faults.with_drop_rate(1.0);
        let mut ids = IdAlloc::new(2);
        let addr = ids.addr(GpuId(1), 4096);
        let tb = TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![Phase::IssueMem {
                ops: Arc::new([MemOp {
                    kind: MemOpKind::RemoteLoad,
                    addr,
                    bytes: 4096,
                    cais: false,
                    tile: None,
                }]),
                wait: true,
            }],
        };
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
            after: vec![],
        });
        let err = SystemSim::new(cfg, p, PureRouter)
            .run()
            .expect_err("drop_rate 1.0 must exhaust the retransmit budget");
        match &err {
            SimError::FaultBudgetExhausted {
                exhausted, drops, ..
            } => {
                assert!(*exhausted > 0);
                assert!(*drops > 0);
            }
            other => panic!("expected FaultBudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn moderate_drop_rate_completes_with_retry_counters() {
        let mut cfg = quiet_cfg(2);
        cfg.faults = cfg.faults.with_drop_rate(0.2);
        let mut ids = IdAlloc::new(2);
        let addr = ids.addr(GpuId(1), 64 * 1024);
        let ops: Vec<MemOp> = (0..16)
            .map(|_| MemOp {
                kind: MemOpKind::RemoteLoad,
                addr,
                bytes: 64 * 1024,
                cais: false,
                tile: None,
            })
            .collect();
        let tb = TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![Phase::IssueMem {
                ops: ops.into(),
                wait: true,
            }],
        };
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
            after: vec![],
        });
        let report = run(cfg, p);
        let c = report.fabric.resilience();
        assert!(c.drops > 0, "20% loss over 32+ hops must drop something");
        assert_eq!(c.retries, c.drops + c.corruptions);
        assert_eq!(c.budget_exhausted, 0);
    }

    #[test]
    fn zero_fault_plan_matches_no_plan_byte_for_byte() {
        let mut ids = IdAlloc::new(2);
        let p = |ids: &mut IdAlloc| {
            let addr = ids.addr(GpuId(1), 4096);
            let tb = TbDesc {
                id: ids.tb(),
                order_key: 0,
                group: None,
                pre_launch_sync: false,
                phases: vec![
                    Phase::IssueMem {
                        ops: Arc::new([MemOp {
                            kind: MemOpKind::RemoteLoad,
                            addr,
                            bytes: 4096,
                            cais: false,
                            tile: None,
                        }]),
                        wait: true,
                    },
                    Phase::Compute(SimDuration::from_us(1)),
                ],
            };
            let mut p = Program::new();
            p.push(PlannedKernel {
                gpu: GpuId(0),
                desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
                after: vec![],
            });
            p
        };
        let base = run(quiet_cfg(2), p(&mut ids));
        let mut cfg = quiet_cfg(2);
        // Zero rates with a different fault seed: provably zero-cost.
        cfg.faults = cfg.faults.with_seed(0x1234_5678);
        let mut ids2 = IdAlloc::new(2);
        let faulted = run(cfg, p(&mut ids2));
        assert_eq!(base.total, faulted.total);
        assert_eq!(base.events_processed, faulted.events_processed);
        assert!(faulted.fabric.resilience().is_clean());
    }

    #[test]
    fn straggler_slows_the_run() {
        let build = |ids: &mut IdAlloc| {
            let mut p = Program::new();
            for g in 0..2u16 {
                p.push(PlannedKernel {
                    gpu: GpuId(g),
                    desc: KernelDesc::new(
                        ids.kernel(),
                        format!("work{g}"),
                        vec![TbDesc::compute_only(ids.tb(), 0, SimDuration::from_us(40))],
                    ),
                    after: vec![],
                });
            }
            p
        };
        let mut ids = IdAlloc::new(2);
        let base = run(quiet_cfg(2), build(&mut ids));
        let mut cfg = quiet_cfg(2);
        cfg.faults = cfg.faults.with_straggler(sim_core::StragglerSpec {
            gpu: 1,
            compute_factor: 2.0,
        });
        let mut ids2 = IdAlloc::new(2);
        let slow = run(cfg, build(&mut ids2));
        // GPU 1's 40 us compute doubles; end-to-end must grow by ~40 us.
        assert!(
            slow.total > base.total + SimDuration::from_us(30),
            "straggler {} vs base {}",
            slow.total,
            base.total
        );
    }

    #[test]
    fn remote_write_marks_tile_at_destination() {
        let cfg = quiet_cfg(2);
        let mut ids = IdAlloc::new(2);
        let addr = ids.addr(GpuId(1), 1 << 20);
        let tile = ids.tile();
        let writer = TbDesc {
            id: ids.tb(),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![Phase::IssueMem {
                ops: Arc::new([MemOp {
                    kind: MemOpKind::RemoteWrite,
                    addr,
                    bytes: 1 << 20,
                    cais: false,
                    tile: Some(tile),
                }]),
                wait: false,
            }],
        };
        let consumer_tb = ids.tb();
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(ids.kernel(), "writer", vec![writer]),
            after: vec![],
        });
        let mut desc = KernelDesc::new(
            ids.kernel(),
            "reader",
            vec![TbDesc::compute_only(
                consumer_tb,
                0,
                SimDuration::from_us(1),
            )],
        );
        Arc::make_mut(&mut desc.body).tbs_auto_ready = false;
        p.push(PlannedKernel {
            gpu: GpuId(1),
            desc,
            after: vec![],
        });
        p.tb_ready_deps.insert(consumer_tb, Arc::new([tile]));
        let report = run(cfg, p);
        let span = report
            .kernel_spans
            .values()
            .find(|s| &*s.name == "reader")
            .unwrap();
        // 1 MB at 450 GB/s per link ~ 2.3us per hop + latency.
        assert!(span.end > SimTime::from_us(7), "end {}", span.end);
    }
}
