//! The multi-GPU system co-simulator.

use crate::config::SystemConfig;
use crate::error::{DeadlockDiag, SimError};
use crate::msg::Msg;
use crate::program::Program;
use crate::report::{ExecReport, KernelSpan};
use gpu_sim::{GpuConfig, GpuEffect, GpuSim, MemOp, MemOpKind, Phase, SyncKind};
use noc_sim::{Delivery, Fabric, SwitchLogic};
use sim_core::profile::{prof_scope, Subsystem};
use sim_core::{
    shrink_sparse, Addr, AuditPhase, AuditProbe, DenseMap, DenseSet, FastHash, GpuId, GroupId,
    KernelId, PlaneId, SimTime, TbId, TileId, Waiters,
};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// One GPU's view of one tile. Every GPU holds a slot per tile id it
/// touches, so the entry stays small: what is only needed while a tile is
/// awaited lives in [`SystemSim::waiters`] or [`SystemSim::gate_index`].
#[derive(Debug, Default)]
struct TileEntry {
    contribs: u32,
    present: bool,
    fetching: bool,
    /// Whether [`SystemSim::waiters`] holds TBs blocked on this tile, so
    /// a landing tile that nobody awaits skips the lookup.
    waited: bool,
    /// The ready gates this tile counts toward, as a range of
    /// [`SystemSim::gate_index`]; a gate appears once per listing.
    gates: Range<u32>,
}

const _: () = assert!(std::mem::size_of::<Option<TileEntry>>() <= 16);
// Every lowered TB holds a few phases; a shared `ops` list keeps each at
// a fat pointer plus the `wait` flag.
const _: () = assert!(std::mem::size_of::<Phase>() <= 24);
const _: () = assert!(std::mem::size_of::<ParkedRun>() <= 32);

/// Capacity the waiter and in-flight load tables never shrink below:
/// entries come and go with every awaited tile and CAIS load, and bursts
/// below this size do not rehash the tables.
const MIN_TABLE_CAPACITY: usize = 1024;

/// CAIS requests of one memory issue parked behind one plane's credits:
/// the issuing TB and its shared op list. The positions of its parked
/// ops are the next `len` entries of [`ThrottleState::parked`].
/// `return_credits` rebuilds each request from its op with [`request`],
/// as `handle_mem_issued` built it; the issue-time decisions (local,
/// already present, deduplicated fetch) are recorded only by which
/// positions were parked.
#[derive(Debug)]
struct ParkedRun {
    tb: TbId,
    ops: Arc<[MemOp]>,
    len: u32,
}

/// The request `gpu`'s TB `tb` sends for the remote load or reduction
/// `op`.
fn request(gpu: GpuId, tb: TbId, op: MemOp) -> Msg {
    match op.kind {
        MemOpKind::RemoteLoad => Msg::LoadReq {
            addr: op.addr,
            bytes: op.bytes,
            requester: gpu,
            tb,
            tile: op.tile,
            cais: op.cais,
        },
        MemOpKind::RemoteReduce => Msg::Reduce {
            addr: op.addr,
            bytes: op.bytes,
            src: gpu,
            contribs: 1,
            tile: op.tile,
            cais: op.cais,
        },
        other => panic!("{other:?} is not a load or reduction request"),
    }
}

/// TBs of one GPU that wait on the same tile list before their kernel may
/// dispatch them share one counter: the list's length, decremented once
/// per listed tile as it lands.
#[derive(Debug)]
struct ReadyGate {
    remaining: u32,
    /// Ascending; emptied when the gate opens.
    tbs: Vec<TbId>,
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

    pending_kernels: Vec<Option<crate::program::PlannedKernel>>,
    dep_remaining: Vec<usize>,
    children: DenseMap<KernelId, Vec<usize>>,
    kernels_remaining: usize,
    kernel_spans: BTreeMap<KernelId, KernelSpan>,

    tb_gpu: DenseMap<TbId, GpuId>,
    tb_blocked: DenseMap<TbId, u32>,
    gates: Vec<ReadyGate>,
    /// Gate ids grouped by (GPU, tile); [`TileEntry::gates`] indexes it.
    gate_index: Vec<u32>,
    ready_pending: DenseSet<TbId>,
    launched_tbs: DenseSet<TbId>,
    tiles: Vec<DenseMap<TileId, TileEntry>>,
    /// TBs blocked until a tile lands, only for the (GPU, tile) pairs
    /// that have any; an entry goes when its tile lands, and the table
    /// shrinks after a burst instead of keeping its busiest capacity.
    waiters: HashMap<(GpuId, TileId), Waiters, FastHash>,
    tile_expected: DenseMap<TileId, u32>,

    /// Pre-access-blocked TBs of the (GPU, group) pairs that have any,
    /// in (GPU, group) order; a pair's entry goes at its release.
    preaccess_blocked: BTreeMap<(GpuId, GroupId), Vec<TbId>>,
    /// Running total of `preaccess_blocked`, so cadence audits need not
    /// sum every waiter list.
    preaccess_waiting: usize,

    /// Per-plane CAIS credit state, flat-indexed `gpu * n_planes + plane`.
    throttle: Vec<ThrottleState>,
    /// Credits returned beyond those outstanding on their plane.
    credits_over_returned: u64,
    /// CAIS loads in flight per (requester, address); each response
    /// returns one credit while its pair's count is nonzero. Holds only
    /// pairs with loads in flight, and shrinks after a burst.
    inflight_cais_loads: HashMap<(GpuId, Addr), u32, FastHash>,

    deduped_fetches: u64,
    semantic_contribs: u64,

    /// Fabric event count at the last cadence audit check.
    last_audit_events: u64,

    /// GPUs whose next event is at the current step's time, ascending;
    /// refilled by every engine-loop iteration.
    due: Vec<usize>,

    /// Recycled drain buffers: effects/deliveries are swapped out of the
    /// producers into these instead of `mem::take`-ing a fresh `Vec`
    /// every cycle of the effect fixpoint.
    scratch_effects: Vec<(SimTime, GpuEffect)>,
    scratch_deliveries: Vec<Delivery<Msg>>,
}

impl<L: SwitchLogic<Msg>> std::fmt::Debug for SystemSim<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemSim")
            .field("now", &self.now)
            .field("kernels_remaining", &self.kernels_remaining)
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
                    Some(s) if s.gpu == i => {
                        let mut c = cfg.gpu.clone();
                        c.compute_scale = s.compute_factor;
                        Arc::new(c)
                    }
                    _ => Arc::clone(&shared_cfg),
                };
                GpuSim::new(gpu_cfg, cfg.seed ^ (0x9E37 + i as u64 * 0x1234_5678))
            })
            .collect();
        let mut fabric = Fabric::new(cfg.fabric_config(), logic);
        if cfg.audit.enabled {
            fabric.enable_audit_ring();
        }

        // Size the dense tables from one program scan; IDs are allocated
        // densely from zero by `IdAlloc`, so `max + 1` is the table extent
        // (the tables still auto-grow if a later ID appears).
        let n_tbs = program
            .kernels
            .iter()
            .flat_map(|k| k.desc.tb_ids.iter())
            .map(|tb| tb.index() + 1)
            .max()
            .unwrap_or(0);
        let n_kernels = program
            .kernels
            .iter()
            .map(|k| k.desc.id.index() + 1)
            .max()
            .unwrap_or(0);

        let mut tb_gpu: DenseMap<TbId, GpuId> = DenseMap::with_capacity(n_tbs);
        for k in &program.kernels {
            for &tb in &k.desc.tb_ids {
                tb_gpu.insert(tb, k.gpu);
            }
        }

        let mut index: DenseMap<KernelId, usize> = DenseMap::with_capacity(n_kernels);
        for (i, k) in program.kernels.iter().enumerate() {
            index.insert(k.desc.id, i);
        }
        let mut children: DenseMap<KernelId, Vec<usize>> = DenseMap::with_capacity(n_kernels);
        let dep_remaining: Vec<usize> = program.kernels.iter().map(|k| k.after.len()).collect();
        for (i, k) in program.kernels.iter().enumerate() {
            for dep in &k.after {
                debug_assert!(index.contains_key(*dep));
                children.get_or_default(*dep).push(i);
            }
        }

        let mut tiles: Vec<DenseMap<TileId, TileEntry>> =
            (0..cfg.n_gpus).map(|_| DenseMap::new()).collect();
        let mut ready_pending: DenseSet<TbId> = DenseSet::with_capacity(n_tbs);
        // Ascending TB order, so every gate's TB list is sorted.
        let mut ready_deps: Vec<(&TbId, &Arc<[TileId]>)> = program.tb_ready_deps.iter().collect();
        ready_deps.sort_by_key(|(tb, _)| **tb);
        let mut gates: Vec<ReadyGate> = Vec::new();
        let mut gate_of: HashMap<(GpuId, &[TileId]), u32, FastHash> = HashMap::default();
        // (GPU, tile, gate) once per listing of a tile in a gate's list.
        let mut members: Vec<(GpuId, TileId, u32)> = Vec::new();
        for (tb, dep_tiles) in ready_deps {
            let gpu = *tb_gpu
                .get(*tb)
                .unwrap_or_else(|| panic!("ready dep for unknown TB {tb}"));
            if dep_tiles.is_empty() {
                // Dependency-gated kernel but this TB has no prerequisites:
                // it is ready the moment its kernel launches.
                ready_pending.insert(*tb);
                continue;
            }
            // Keyed by content, not by `Arc` identity: equal lists from
            // separately built `Arc`s still share one gate.
            let gate = *gate_of.entry((gpu, &dep_tiles[..])).or_insert_with(|| {
                let id = gates.len() as u32;
                gates.push(ReadyGate {
                    remaining: dep_tiles.len() as u32,
                    tbs: Vec::new(),
                });
                members.extend(dep_tiles.iter().map(|&tile| (gpu, tile, id)));
                id
            });
            gates[gate as usize].tbs.push(*tb);
        }
        members.sort_unstable();
        let gate_index: Vec<u32> = members.iter().map(|&(_, _, gate)| gate).collect();
        let mut start = 0;
        for run in members.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (gpu, tile, _) = run[0];
            let end = start + run.len() as u32;
            tiles[gpu.index()].get_or_default(tile).gates = start..end;
            start = end;
        }
        drop(members);

        let mut tile_expected: DenseMap<TileId, u32> = DenseMap::new();
        for (tile, expected) in &program.tile_expected {
            tile_expected.insert(*tile, *expected);
        }

        let kernels_remaining = program.kernels.len();
        let throttle = (0..cfg.n_gpus * cfg.n_planes)
            .map(|_| ThrottleState::default())
            .collect();

        SystemSim {
            gpus,
            fabric,
            now: SimTime::ZERO,
            pending_kernels: program.kernels.into_iter().map(Some).collect(),
            dep_remaining,
            children,
            kernels_remaining,
            kernel_spans: BTreeMap::new(),
            tb_gpu,
            tb_blocked: DenseMap::with_capacity(n_tbs),
            gates,
            gate_index,
            ready_pending,
            launched_tbs: DenseSet::with_capacity(n_tbs),
            tiles,
            waiters: HashMap::default(),
            tile_expected,
            preaccess_blocked: BTreeMap::new(),
            preaccess_waiting: 0,
            throttle,
            credits_over_returned: 0,
            inflight_cais_loads: HashMap::default(),
            deduped_fetches: 0,
            semantic_contribs: 0,
            last_audit_events: 0,
            due: Vec::new(),
            scratch_effects: Vec::new(),
            scratch_deliveries: Vec::new(),
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
        let roots: Vec<usize> = self
            .dep_remaining
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        for i in roots {
            self.launch_kernel(SimTime::ZERO, i);
        }
        loop {
            {
                let _p = prof_scope(Subsystem::DrainEffects);
                self.drain_effects();
            }
            // One scan finds both the earliest pending time and which
            // components own it, so the advance pass below touches only
            // the components that actually have work at `t`. The global
            // minimum guarantees any due component's next event is at
            // exactly `t`, and GPU handlers cannot enqueue into other
            // components mid-advance (cross-component traffic flows
            // through drained effects), so skipping the rest is exact.
            let mut t: Option<SimTime> = None;
            self.due.clear();
            for (i, gpu) in self.gpus.iter().enumerate() {
                let Some(gt) = gpu.next_time() else { continue };
                match t {
                    Some(cur) if gt > cur => continue,
                    Some(cur) if gt == cur => {}
                    _ => {
                        t = Some(gt);
                        self.due.clear();
                    }
                }
                self.due.push(i);
            }
            let mut fabric_due = false;
            if let Some(ft) = self.fabric.next_time() {
                match t {
                    Some(cur) if ft > cur => {}
                    Some(cur) if ft == cur => fabric_due = true,
                    _ => {
                        t = Some(ft);
                        self.due.clear();
                        fabric_due = true;
                    }
                }
            }
            let Some(t) = t else { break };
            if t > self.cfg.deadline {
                return Err(SimError::DeadlineExceeded {
                    deadline: self.cfg.deadline,
                    now: t,
                    kernels_remaining: self.kernels_remaining,
                });
            }
            {
                let _p = prof_scope(Subsystem::GpuAdvance);
                for &i in &self.due {
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
                if done - self.last_audit_events >= self.cfg.audit.cadence_events {
                    self.last_audit_events = done;
                    self.audit_check(AuditPhase::Cadence)?;
                }
            }
        }
        Ok(())
    }

    /// Lists every subsystem into one probe: the fabric, the engine, then
    /// the switch logic, whose counters close the list. Returns the probe
    /// and the index of the logic's first counter.
    fn probe(&self, phase: AuditPhase) -> (AuditProbe, usize) {
        let mut probe = AuditProbe::new(phase);
        self.fabric.audit_probe(&mut probe);
        self.engine_audit_probe(&mut probe);
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

    /// Engine-owned counters and quiescence requirements: blocked TBs,
    /// in-flight CAIS loads, throttle credit state, pre-access waiters,
    /// kernels left, and the tile contribution and fetch tallies.
    fn engine_audit_probe(&self, probe: &mut AuditProbe) {
        let outstanding: usize = self.throttle.iter().map(|t| t.outstanding).sum();
        let queued: usize = self.throttle.iter().map(|t| t.parked.len()).sum();
        let inflight: u32 = self.inflight_cais_loads.values().sum();
        probe.counter("engine.blocked_tbs", self.tb_blocked.len() as f64);
        probe.counter("engine.inflight_cais_loads", inflight as f64);
        probe.counter("engine.throttle_outstanding", outstanding as f64);
        probe.counter("engine.throttle_queued", queued as f64);
        probe.counter(
            "engine.credits_over_returned",
            self.credits_over_returned as f64,
        );
        probe.counter("engine.preaccess_blocked", self.preaccess_waiting as f64);
        probe.counter("engine.kernels_remaining", self.kernels_remaining as f64);
        probe.counter("engine.semantic_contribs", self.semantic_contribs as f64);
        probe.counter("engine.deduped_fetches", self.deduped_fetches as f64);
        if probe.is_quiescence() {
            probe.require_zero(
                "engine",
                "quiescence: no TBs still blocked on tiles or loads",
                self.tb_blocked.len() as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no CAIS loads still in flight",
                inflight as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no requests queued behind throttle credits",
                queued as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no outstanding throttle credits",
                outstanding as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no credits returned beyond those outstanding",
                self.credits_over_returned,
            );
            // The one full recount of every (GPU, group) waiter list.
            let preaccess: usize = self.preaccess_blocked.values().map(Vec::len).sum();
            probe.ledger(
                "engine",
                "pre-access tally matches the waiter lists",
                preaccess as u64,
                self.preaccess_waiting as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no TBs blocked on pre-access sync",
                preaccess as u64,
            );
        }
    }

    /// Builds the waits-for edge list attached to deadlock diagnostics:
    /// which TB waits on which tile, either blocked in a slot (and whether
    /// a fetch is outstanding) or held at a closed dispatch gate, which
    /// GPU/plane pairs have requests stuck behind throttle credits, and
    /// which GPU/group pairs are blocked on pre-access sync.
    fn waits_for_edges(&self) -> Vec<String> {
        const MAX_EDGES: usize = 16;
        let mut edges = Vec::new();
        'tiles: for (gi, tiles) in self.tiles.iter().enumerate() {
            for (tile, entry) in tiles.iter() {
                if entry.present {
                    continue;
                }
                let state = if entry.fetching {
                    "fetch in flight"
                } else {
                    "no fetch outstanding"
                };
                let resumes = self
                    .waiters
                    .get(&(GpuId(gi as u16), tile))
                    .map_or(&[][..], Waiters::as_slice)
                    .iter()
                    .map(|tb| format!("{tb} -> {tile}@g{gi} ({state})"));
                // A gate appears once per listing of the tile (adjacent,
                // as the range is sorted); name its TBs once.
                let gated = self.gate_index[entry.gates.start as usize..entry.gates.end as usize]
                    .chunk_by(|a, b| a == b)
                    .flat_map(|run| &self.gates[run[0] as usize].tbs)
                    .map(|tb| format!("{tb} -> {tile}@g{gi} (dispatch gate)"));
                for edge in resumes.chain(gated) {
                    edges.push(edge);
                    if edges.len() >= MAX_EDGES {
                        break 'tiles;
                    }
                }
            }
        }
        for (i, st) in self.throttle.iter().enumerate() {
            if st.parked.is_empty() || edges.len() >= MAX_EDGES {
                continue;
            }
            let g = i / self.cfg.n_planes;
            let p = i % self.cfg.n_planes;
            edges.push(format!(
                "g{g} -> plane{p} ({} queued behind {} outstanding credits)",
                st.parked.len(),
                st.outstanding
            ));
        }
        for ((g, grp), tbs) in &self.preaccess_blocked {
            if edges.len() >= MAX_EDGES {
                break;
            }
            edges.push(format!(
                "g{} -> group{} ({} TBs awaiting pre-access release)",
                g.index(),
                grp.index(),
                tbs.len()
            ));
        }
        edges
    }

    fn drain_effects(&mut self) {
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut deliveries = std::mem::take(&mut self.scratch_deliveries);
        loop {
            let mut any = false;
            for gi in 0..self.gpus.len() {
                if !self.gpus[gi].has_effects() {
                    continue;
                }
                self.gpus[gi].drain_effects_into(&mut effects);
                any = true;
                for (t, e) in effects.drain(..) {
                    self.handle_gpu_effect(t, GpuId(gi as u16), e);
                }
            }
            if self.fabric.has_deliveries() {
                self.fabric.drain_deliveries_into(&mut deliveries);
                any = true;
                for d in deliveries.drain(..) {
                    self.handle_delivery(d);
                }
            }
            if !any {
                break;
            }
        }
        self.scratch_effects = effects;
        self.scratch_deliveries = deliveries;
    }

    fn launch_kernel(&mut self, now: SimTime, idx: usize) {
        let planned = self.pending_kernels[idx]
            .take()
            .expect("kernel launched twice");
        let kid = planned.desc.id;
        self.kernel_spans.insert(
            kid,
            KernelSpan {
                name: Arc::clone(&planned.desc.body.name),
                gpu: planned.gpu,
                start: now,
                end: now,
            },
        );
        for &tb in &planned.desc.tb_ids {
            self.launched_tbs.insert(tb);
        }
        let gpu = planned.gpu;
        let ready_now: Vec<TbId> = planned
            .desc
            .tb_ids
            .iter()
            .copied()
            .filter(|&id| self.ready_pending.remove(id))
            .collect();
        self.gpus[gpu.index()].launch_kernel(now, planned.desc);
        for tb in ready_now {
            self.gpus[gpu.index()].make_tb_ready(now, tb);
        }
    }

    // ---- tile state ----------------------------------------------------

    fn tile_entry(&mut self, gpu: GpuId, tile: TileId) -> &mut TileEntry {
        self.tiles[gpu.index()].get_or_default(tile)
    }

    fn mark_tile_present(&mut self, now: SimTime, gpu: GpuId, tile: TileId) {
        let entry = self.tile_entry(gpu, tile);
        if entry.present {
            return;
        }
        entry.present = true;
        let waited = std::mem::take(&mut entry.waited);
        let gates = entry.gates.clone();
        if waited {
            let waiters = self.waiters.remove(&(gpu, tile)).unwrap_or_default();
            shrink_sparse(&mut self.waiters, MIN_TABLE_CAPACITY);
            for &tb in waiters.as_slice() {
                self.dec_blocked(now, tb);
            }
        }
        for tb in self.open_gates(gates) {
            if self.launched_tbs.contains(tb) {
                let g = *self.tb_gpu.get(tb).expect("gated TB without a GPU");
                self.gpus[g.index()].make_tb_ready(now, tb);
            } else {
                self.ready_pending.insert(tb);
            }
        }
    }

    /// Counts one landing against each gate in `gates` (a range of
    /// [`SystemSim::gate_index`]) and returns the TBs of every gate that
    /// reaches zero, in ascending `TbId` order.
    fn open_gates(&mut self, gates: Range<u32>) -> Vec<TbId> {
        let mut woken = Vec::new();
        for &g in &self.gate_index[gates.start as usize..gates.end as usize] {
            let gate = &mut self.gates[g as usize];
            gate.remaining -= 1;
            if gate.remaining == 0 {
                woken.append(&mut gate.tbs);
            }
        }
        woken.sort_unstable();
        woken
    }

    fn add_contrib(&mut self, now: SimTime, gpu: GpuId, tile: TileId, n: u32) {
        let expected = self.tile_expected.get(tile).copied().unwrap_or(1);
        self.semantic_contribs += n as u64;
        let entry = self.tile_entry(gpu, tile);
        entry.contribs += n;
        debug_assert!(
            entry.contribs <= expected,
            "tile {tile} on {gpu} got {} contributions, expected {expected}",
            entry.contribs
        );
        if entry.contribs >= expected {
            self.mark_tile_present(now, gpu, tile);
        }
    }

    fn dec_blocked(&mut self, now: SimTime, tb: TbId) {
        let count = self
            .tb_blocked
            .get_mut(tb)
            .unwrap_or_else(|| panic!("TB {tb} not blocked"));
        *count -= 1;
        if *count == 0 {
            self.tb_blocked.remove(tb);
            let g = *self.tb_gpu.get(tb).expect("blocked TB without a GPU");
            self.gpus[g.index()].resume_tb(now, tb);
        }
    }

    // ---- fabric injection ----------------------------------------------

    fn plane_for(&self, msg: &Msg) -> PlaneId {
        match msg {
            Msg::SyncReq { group, .. } | Msg::SyncRel { group, .. } => {
                PlaneId((group.0 % self.cfg.n_planes as u32) as u16)
            }
            m => m
                .addr()
                .map(|a| a.plane(self.cfg.n_planes))
                .unwrap_or(PlaneId(0)),
        }
    }

    fn inject(&mut self, now: SimTime, src: GpuId, dst: GpuId, msg: Msg) {
        let plane = self.plane_for(&msg);
        self.fabric.inject(now, src, dst, plane, msg);
    }

    /// Sends the CAIS request for `ops[pos]` of `tb`'s issue on `gpu`,
    /// honoring per-plane throttle credits: with none free, the op is
    /// parked.
    fn inject_cais(&mut self, now: SimTime, gpu: GpuId, tb: TbId, ops: &Arc<[MemOp]>, pos: usize) {
        let op = ops[pos];
        let home = op.addr.home_gpu();
        let Some(limit) = self.cfg.cais_credits_per_plane else {
            self.inject(now, gpu, home, request(gpu, tb, op));
            return;
        };
        let plane = op.addr.plane(self.cfg.n_planes);
        let st = &mut self.throttle[gpu.index() * self.cfg.n_planes + plane.index()];
        if st.outstanding < limit {
            st.outstanding += 1;
            self.fabric
                .inject(now, gpu, home, plane, request(gpu, tb, op));
        } else {
            st.park(tb, ops, pos);
        }
    }

    fn return_credits(&mut self, now: SimTime, gpu: GpuId, plane: PlaneId, mut n: u32) {
        let Some(limit) = self.cfg.cais_credits_per_plane else {
            return;
        };
        loop {
            let st = &mut self.throttle[gpu.index() * self.cfg.n_planes + plane.index()];
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
            let home = op.addr.home_gpu();
            self.fabric
                .inject(now, gpu, home, plane, request(gpu, tb, op));
        }
    }

    // ---- GPU effects ----------------------------------------------------

    fn handle_gpu_effect(&mut self, t: SimTime, gpu: GpuId, effect: GpuEffect) {
        match effect {
            GpuEffect::MemIssued { tb, ops, blocking } => {
                self.handle_mem_issued(t, gpu, tb, ops, blocking)
            }
            GpuEffect::TileReady { tile } => self.mark_tile_present(t, gpu, tile),
            GpuEffect::GroupSyncRequest { tb, group, kind } => {
                let kind_raw = match kind {
                    SyncKind::PreLaunch => 0,
                    SyncKind::PreAccess => 1,
                };
                if kind == SyncKind::PreAccess {
                    self.preaccess_blocked
                        .entry((gpu, group))
                        .or_default()
                        .push(tb);
                    self.preaccess_waiting += 1;
                }
                self.inject(
                    t,
                    gpu,
                    gpu,
                    Msg::SyncReq {
                        group,
                        gpu,
                        kind: kind_raw,
                    },
                );
            }
            GpuEffect::TbCompleted { .. } => {}
            GpuEffect::KernelCompleted { kernel } => {
                if let Some(span) = self.kernel_spans.get_mut(&kernel) {
                    span.end = t;
                }
                self.kernels_remaining -= 1;
                if let Some(children) = self.children.remove(kernel) {
                    for idx in children {
                        self.dep_remaining[idx] -= 1;
                        if self.dep_remaining[idx] == 0 {
                            self.launch_kernel(t, idx);
                        }
                    }
                }
            }
        }
    }

    fn handle_mem_issued(
        &mut self,
        t: SimTime,
        gpu: GpuId,
        tb: TbId,
        ops: Arc<[MemOp]>,
        blocking: bool,
    ) {
        let mut outstanding = 0u32;
        for (pos, &op) in ops.iter().enumerate() {
            let home = op.addr.home_gpu();
            match op.kind {
                MemOpKind::RemoteLoad => {
                    if home == gpu {
                        // Local read: covered by the roofline compute time;
                        // just materialize the tile.
                        if let Some(tile) = op.tile {
                            self.mark_tile_present(t, gpu, tile);
                        }
                        continue;
                    }
                    if let Some(tile) = op.tile {
                        let entry = self.tiles[gpu.index()].get_or_default(tile);
                        if entry.present {
                            continue;
                        }
                        if blocking {
                            outstanding += 1;
                            entry.waited = true;
                            self.waiters.entry((gpu, tile)).or_default().push(tb);
                        }
                        if entry.fetching {
                            // L2 capture: another TB already fetching.
                            self.deduped_fetches += 1;
                            continue;
                        }
                        entry.fetching = true;
                    } else if blocking {
                        outstanding += 1;
                    }
                    if op.cais {
                        *self.inflight_cais_loads.entry((gpu, op.addr)).or_default() += 1;
                        self.inject_cais(t, gpu, tb, &ops, pos);
                    } else {
                        self.inject(t, gpu, home, request(gpu, tb, op));
                    }
                }
                MemOpKind::RemoteReduce => {
                    // CAIS `red.cais` to a locally-homed address is a plain
                    // HBM accumulate; NVLS `multimem.red` (cais = false)
                    // always traverses the switch, which owns the
                    // reduce-and-multicast semantics.
                    if home == gpu && op.cais {
                        if let Some(tile) = op.tile {
                            self.add_contrib(t, gpu, tile, 1);
                        }
                        continue;
                    }
                    if op.cais {
                        self.inject_cais(t, gpu, tb, &ops, pos);
                    } else {
                        self.inject(t, gpu, home, request(gpu, tb, op));
                    }
                }
                MemOpKind::RemoteWrite => {
                    if home == gpu {
                        if let Some(tile) = op.tile {
                            self.mark_tile_present(t, gpu, tile);
                        }
                        continue;
                    }
                    self.inject(
                        t,
                        gpu,
                        home,
                        Msg::Write {
                            addr: op.addr,
                            bytes: op.bytes,
                            src: gpu,
                            tile: op.tile,
                            contrib: false,
                        },
                    );
                }
                MemOpKind::MulticastStore => {
                    // Push once; the switch logic replicates to the other
                    // GPUs (each marks `tile` present on delivery).
                    self.inject(
                        t,
                        gpu,
                        home,
                        Msg::MulticastStore {
                            addr: op.addr,
                            bytes: op.bytes,
                            src: gpu,
                            tile: op.tile,
                        },
                    );
                }
                MemOpKind::LoadReduce => {
                    if blocking {
                        outstanding += 1;
                        // Completion is signaled through the tile; for
                        // tile-less ops the LoadResp credits the TB
                        // directly in `handle_delivery`.
                        if let Some(tile) = op.tile {
                            self.tile_entry(gpu, tile).waited = true;
                            self.waiters.entry((gpu, tile)).or_default().push(tb);
                        }
                    }
                    self.inject(
                        t,
                        gpu,
                        home,
                        Msg::LoadReduceReq {
                            addr: op.addr,
                            bytes: op.bytes,
                            requester: gpu,
                            tb,
                            tile: op.tile,
                        },
                    );
                }
            }
        }
        if blocking && outstanding == 0 {
            self.gpus[gpu.index()].resume_tb(t, tb);
        } else if blocking {
            *self.tb_blocked.get_or_default(tb) += outstanding;
        }
    }

    // ---- fabric deliveries ----------------------------------------------

    fn handle_delivery(&mut self, d: Delivery<Msg>) {
        let Delivery {
            time: t,
            dst: gpu,
            plane,
            payload,
            ..
        } = d;
        match payload {
            Msg::LoadReq {
                addr,
                bytes,
                requester,
                tb,
                tile,
                ..
            } => {
                // We are the home GPU: the memory system answers after its
                // read latency; no SM involvement.
                debug_assert_eq!(addr.home_gpu(), gpu, "load routed to wrong GPU");
                let resp = Msg::LoadResp {
                    addr,
                    bytes,
                    requester,
                    tb,
                    tile,
                };
                let at = t + self.cfg.mem_read_latency;
                let plane = self.plane_for(&resp);
                self.fabric.inject(at, gpu, requester, plane, resp);
            }
            Msg::LoadResp { addr, tb, tile, .. } => {
                if let Entry::Occupied(mut loads) = self.inflight_cais_loads.entry((gpu, addr)) {
                    *loads.get_mut() -= 1;
                    if *loads.get() == 0 {
                        loads.remove();
                        shrink_sparse(&mut self.inflight_cais_loads, MIN_TABLE_CAPACITY);
                    }
                    self.return_credits(t, gpu, plane, 1);
                }
                match tile {
                    Some(tile) => self.mark_tile_present(t, gpu, tile),
                    None => self.dec_blocked(t, tb),
                }
            }
            Msg::Reduce { tile, contribs, .. } => {
                // A (possibly switch-merged) reduction contribution reached
                // the home GPU.
                if let Some(tile) = tile {
                    self.add_contrib(t, gpu, tile, contribs);
                }
            }
            Msg::Write { tile, contrib, .. } => {
                if let Some(tile) = tile {
                    if contrib {
                        self.add_contrib(t, gpu, tile, 1);
                    } else {
                        self.mark_tile_present(t, gpu, tile);
                    }
                }
            }
            Msg::MulticastStore { tile, .. } => {
                if let Some(tile) = tile {
                    self.mark_tile_present(t, gpu, tile);
                }
            }
            Msg::FetchReq {
                addr,
                bytes,
                session,
                ..
            } => {
                // Supply our partial to the switch's reduction session.
                let resp = Msg::FetchResp {
                    addr,
                    bytes,
                    src: gpu,
                    session,
                };
                let at = t + self.cfg.mem_read_latency;
                self.fabric.inject(at, gpu, gpu, plane, resp);
            }
            Msg::FetchResp { .. } => {
                panic!("FetchResp must be consumed by switch logic, not a GPU");
            }
            Msg::LoadReduceReq { .. } => {
                panic!("LoadReduceReq reached a GPU; switch logic must implement it");
            }
            Msg::SyncReq { .. } => {
                panic!("SyncReq reached a GPU; switch logic must implement the sync table");
            }
            Msg::SyncRel { group, kind } => match kind {
                0 => self.gpus[gpu.index()].release_group(t, group),
                _ => {
                    let waiters = self
                        .preaccess_blocked
                        .remove(&(gpu, group))
                        .unwrap_or_default();
                    self.preaccess_waiting -= waiters.len();
                    for tb in waiters {
                        self.gpus[gpu.index()].resume_tb(t, tb);
                    }
                }
            },
            Msg::CreditGrant { credits } => {
                self.return_credits(t, gpu, plane, credits);
            }
        }
    }

    // ---- teardown --------------------------------------------------------

    /// What a stalled run left behind: every subsystem's counters, the
    /// unlaunched and incomplete kernels, pre-access waiters, blocked
    /// TBs and the waits-for edges.
    fn deadlock_diag(&self) -> DeadlockDiag {
        let kernels = self
            .pending_kernels
            .iter()
            .flatten()
            .map(|k| format!("unlaunched {} on {}", k.desc.body.name, k.gpu))
            // Launched kernels that never completed are the stuck ones.
            .chain(
                self.kernel_spans
                    .iter()
                    .filter(|&(id, s)| self.gpus[s.gpu.index()].kernel_pending(*id))
                    .map(|(id, s)| format!("incomplete {id} {} on {}", s.name, s.gpu)),
            )
            .take(12)
            .collect();
        let preaccess_waiters = self
            .preaccess_blocked
            .iter()
            .map(|((g, grp), tbs)| format!("{g}/{grp}:{}", tbs.len()))
            .take(8)
            .collect();
        DeadlockDiag {
            counters: self.probe(AuditPhase::Cadence).0.counters().to_vec(),
            preaccess_waiters,
            kernels,
            blocked_tbs: self
                .tb_blocked
                .keys()
                .take(16)
                .map(|tb| tb.to_string())
                .collect(),
            waits_for: self.waits_for_edges(),
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
        if self.kernels_remaining > 0 || !self.tb_blocked.is_empty() {
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
        let queue_peak = self
            .gpus
            .iter()
            .map(|g| g.queue_peak())
            .chain(std::iter::once(self.fabric.queue_peak()))
            .max()
            .unwrap_or(0);
        Ok(ExecReport {
            total,
            gpu_occupancy: self.gpus.iter().map(|g| g.occupancy(total)).collect(),
            fabric: self.fabric.report(total),
            kernel_spans: self.kernel_spans,
            counters,
            logic_stats,
            deduped_fetches: self.deduped_fetches,
            semantic_contribs: self.semantic_contribs,
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
    use gpu_sim::{KernelDesc, Phase, TbDesc};
    use noc_sim::PureRouter;
    use sim_core::SimDuration;

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

    /// A system whose GPU 0 has issued `burst` CAIS requests to GPU 1 on
    /// plane 0, four ops per issue and one TB per issue, behind `limit`
    /// credits, none of them returned yet, and the requests in the order
    /// they were sent.
    fn credit_burst(limit: usize, burst: usize) -> (SystemSim<PureRouter>, Vec<Msg>) {
        let mut cfg = quiet_cfg(2);
        cfg.cais_credits_per_plane = Some(limit);
        let mut sim = SystemSim::new(cfg, Program::new(), PureRouter);
        let mut ids = IdAlloc::new(2);
        let mut sent = Vec::new();
        for start in (0..burst).step_by(4) {
            let tb = ids.tb();
            let (ops, msgs): (Vec<MemOp>, Vec<Msg>) = (start..burst.min(start + 4))
                .map(|i| burst_op(&mut ids, i, GpuId(1), tb))
                .unzip();
            sim.handle_mem_issued(SimTime::ZERO, GpuId(0), tb, ops.into(), false);
            sent.extend(msgs);
        }
        (sim, sent)
    }

    /// The requests parked on one (GPU, plane) queue, oldest first, as
    /// `return_credits` would rebuild them.
    fn parked(st: &ThrottleState, gpu: GpuId) -> Vec<String> {
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

    #[test]
    fn parked_requests_leave_the_credit_queue_unchanged() {
        let (limit, burst) = (4, 64);
        let (sim, sent) = credit_burst(limit, burst);
        assert!(sim.throttle[0]
            .runs
            .iter()
            .all(|run| run.ops.iter().all(|op| op.addr.home_gpu() == GpuId(1))));
        let queued: Vec<String> = sent[limit..].iter().map(|m| format!("{m:?}")).collect();
        assert_eq!(parked(&sim.throttle[0], GpuId(0)), queued);
        // One run per issue: the first issue went out whole.
        assert_eq!(sim.throttle[0].runs.len(), burst / 4 - 1);
    }

    #[test]
    fn parked_reductions_are_rebuilt_with_one_contribution() {
        let (sim, _) = credit_burst(1, 16);
        let reductions: Vec<String> = parked(&sim.throttle[0], GpuId(0))
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
        let (mut sim, _) = credit_burst(limit, burst);
        assert_eq!(sim.throttle[0].parked.len(), burst - limit);
        assert!(sim.throttle[0].parked.capacity() >= burst - limit);
        // One credit back per response: each admits one queued request
        // until the queue drains, then the last `limit` return idle.
        for i in 0..burst {
            sim.return_credits(SimTime::from_us(1), GpuId(0), PlaneId(0), 1);
            assert_eq!(
                sim.throttle[0].parked.len(),
                (burst - limit).saturating_sub(i + 1)
            );
        }
        assert_eq!(sim.throttle[0].outstanding, 0);
        assert!(sim.throttle[0].runs.is_empty());
        assert!(
            sim.throttle[0].parked.capacity() <= limit,
            "drained queue kept {} slots",
            sim.throttle[0].parked.capacity()
        );
        assert_eq!(sim.throttle[0].runs.capacity(), 0);
    }

    #[test]
    fn over_returned_credits_break_the_quiescence_ledger() {
        // Two reductions, so no load is left in flight.
        let (mut sim, _) = credit_burst(4, 2);
        // Two credits outstanding; three come back.
        sim.return_credits(SimTime::from_us(1), GpuId(0), PlaneId(0), 3);
        assert_eq!(sim.throttle[0].outstanding, 0);
        assert_eq!(sim.credits_over_returned, 1);
        let mut probe = AuditProbe::new(AuditPhase::Quiescence);
        sim.engine_audit_probe(&mut probe);
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
        sim.engine_audit_probe(&mut probe);
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
        assert!(sim.waiters.is_empty());
        assert!(
            sim.waiters.capacity() <= 2 * MIN_TABLE_CAPACITY,
            "the landed burst left {} slots",
            sim.waiters.capacity()
        );
        assert!(sim.tiles[0].iter().all(|(_, e)| e.present && !e.waited));
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

    fn gated_sim(kernels: &[&[u64]], deps: &[(u64, Vec<TileId>)]) -> SystemSim<PureRouter> {
        SystemSim::new(quiet_cfg(2), gated_program(kernels, deps), PureRouter)
    }

    #[test]
    fn gates_completing_on_one_tile_wake_in_ascending_tb_order() {
        let (a, b) = (TileId(0), TileId(1));
        // Gate [A] holds tb0 and tb3, gate [B, A] holds tb1 and tb2; tb1
        // and tb3 belong to a kernel that has not launched.
        let deps = [(0, vec![a]), (1, vec![b, a]), (2, vec![b, a]), (3, vec![a])];
        let mut sim = gated_sim(&[&[0, 2], &[1, 3]], &deps);
        assert_eq!(sim.gates.len(), 2);
        sim.launch_kernel(SimTime::ZERO, 0);
        let t = SimTime::from_us(1);
        sim.mark_tile_present(t, GpuId(0), b);
        assert!(sim.ready_pending.is_empty(), "gate [B, A] still waits on A");
        // Landing A opens both gates at once.
        let gates = sim.tiles[0]
            .get(a)
            .expect("gated tile has an entry")
            .gates
            .clone();
        assert_eq!(
            sim.open_gates(gates),
            vec![TbId(0), TbId(1), TbId(2), TbId(3)]
        );

        // Through `mark_tile_present`: unlaunched TBs wait in
        // `ready_pending` for their kernel, launched ones go to the GPU.
        let mut sim = gated_sim(&[&[0, 2], &[1, 3]], &deps);
        sim.launch_kernel(SimTime::ZERO, 0);
        sim.mark_tile_present(t, GpuId(0), b);
        sim.mark_tile_present(t, GpuId(0), a);
        let pending: Vec<u64> = (0..4)
            .filter(|&i| sim.ready_pending.contains(TbId(i)))
            .collect();
        assert_eq!(pending, vec![1, 3]);
    }

    #[test]
    fn tile_listed_twice_in_one_dependency_list_counts_twice() {
        let (a, b) = (TileId(0), TileId(1));
        let mut sim = gated_sim(&[&[], &[0]], &[(0, vec![a, a, b])]);
        sim.mark_tile_present(SimTime::ZERO, GpuId(0), a);
        assert_eq!(sim.gates[0].remaining, 1);
        assert!(!sim.ready_pending.contains(TbId(0)));
        sim.mark_tile_present(SimTime::ZERO, GpuId(0), b);
        assert!(sim.ready_pending.contains(TbId(0)));
    }

    #[test]
    fn empty_dependency_list_is_ready_at_launch() {
        let sim = gated_sim(&[&[0]], &[(0, vec![])]);
        assert!(sim.gates.is_empty());
        assert!(sim.ready_pending.contains(TbId(0)));
        // The TB dispatches with its kernel; nothing else releases it.
        let report = sim.run().expect("a TB with no prerequisites runs");
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
