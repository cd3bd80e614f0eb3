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
    Addr, AuditPhase, AuditProbe, DenseMap, DenseSet, FastHash, GpuId, GroupId, KernelId, PlaneId,
    SimDuration, SimTime, TbId, TileId,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// One GPU's view of one tile. Every GPU holds a slot per tile id it
/// touches, so the entry stays small: what is only needed while a tile is
/// awaited lives on the heap or in [`SystemSim::gate_index`].
#[derive(Debug, Default)]
struct TileEntry {
    contribs: u32,
    present: bool,
    fetching: bool,
    /// The ready gates this tile counts toward, as a range of
    /// [`SystemSim::gate_index`]; a gate appears once per listing.
    gates: Range<u32>,
    /// TBs blocked until this tile lands.
    resume_waiters: Waiters,
}

const _: () = assert!(std::mem::size_of::<Option<TileEntry>>() <= 40);
// Every lowered TB holds a few phases; a shared `ops` list keeps each at
// a fat pointer plus the `wait` flag.
const _: () = assert!(std::mem::size_of::<Phase>() <= 24);

/// TBs blocked on one tile, in arrival order. Most tiles have a single
/// waiter, which is stored inline; only a second one allocates. The
/// `Vec` niche keeps this at the size of a `Vec`.
#[derive(Debug, Default)]
enum Waiters {
    #[default]
    None,
    One(TbId),
    Many(Vec<TbId>),
}

impl Waiters {
    fn push(&mut self, tb: TbId) {
        *self = match std::mem::take(self) {
            Waiters::None => Waiters::One(tb),
            Waiters::One(first) => Waiters::Many(vec![first, tb]),
            Waiters::Many(mut tbs) => {
                tbs.push(tb);
                Waiters::Many(tbs)
            }
        };
    }

    fn as_slice(&self) -> &[TbId] {
        match self {
            Waiters::None => &[],
            Waiters::One(tb) => std::slice::from_ref(tb),
            Waiters::Many(tbs) => tbs,
        }
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

#[derive(Debug, Default)]
struct ThrottleState {
    outstanding: usize,
    queue: VecDeque<(GpuId, GpuId, Msg)>,
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
    tb_blocked: DenseMap<TbId, usize>,
    gates: Vec<ReadyGate>,
    /// Gate ids grouped by (GPU, tile); [`TileEntry::gates`] indexes it.
    gate_index: Vec<u32>,
    ready_pending: DenseSet<TbId>,
    launched_tbs: DenseSet<TbId>,
    tiles: Vec<DenseMap<TileId, TileEntry>>,
    tile_expected: DenseMap<TileId, u32>,

    /// Pre-access-blocked TBs, flat-indexed `gpu * n_groups + group`.
    preaccess_blocked: Vec<Vec<TbId>>,
    /// Running total of `preaccess_blocked`, so cadence audits need not
    /// sum every (GPU, group) slot.
    preaccess_waiting: usize,
    n_groups: usize,

    /// Per-plane CAIS credit state, flat-indexed `gpu * n_planes + plane`.
    throttle: Vec<ThrottleState>,
    inflight_cais_loads: HashSet<(GpuId, Addr), FastHash>,

    deduped_fetches: u64,
    semantic_contribs: u64,

    /// Fabric event count at the last cadence audit check.
    last_audit_events: u64,

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
            fabric.enable_audit_ring(cfg.audit.ring_capacity);
        }

        // Size the dense tables from one program scan; IDs are allocated
        // densely from zero by `IdAlloc`, so `max + 1` is the table extent
        // (the tables still auto-grow if a later ID appears).
        let n_tbs = program
            .kernels
            .iter()
            .flat_map(|k| k.desc.tbs.iter())
            .map(|tb| tb.id.index() + 1)
            .max()
            .unwrap_or(0);
        let n_kernels = program
            .kernels
            .iter()
            .map(|k| k.desc.id.index() + 1)
            .max()
            .unwrap_or(0);
        let n_groups = program
            .kernels
            .iter()
            .flat_map(|k| k.desc.tbs.iter())
            .filter_map(|tb| tb.group)
            .map(|g| g.index() + 1)
            .max()
            .unwrap_or(0);

        let mut tb_gpu: DenseMap<TbId, GpuId> = DenseMap::with_capacity(n_tbs);
        for k in &program.kernels {
            for tb in &k.desc.tbs {
                tb_gpu.insert(tb.id, k.gpu);
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
            tile_expected,
            preaccess_blocked: vec![Vec::new(); cfg.n_gpus * n_groups],
            preaccess_waiting: 0,
            n_groups,
            throttle,
            inflight_cais_loads: HashSet::default(),
            deduped_fetches: 0,
            semantic_contribs: 0,
            last_audit_events: 0,
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
            let mut gpu_due: u64 = 0;
            let masked = self.gpus.len() <= 64;
            for (i, gpu) in self.gpus.iter().enumerate() {
                let Some(gt) = gpu.next_time() else { continue };
                match t {
                    Some(cur) if gt > cur => {}
                    Some(cur) if gt == cur => gpu_due |= 1u64.checked_shl(i as u32).unwrap_or(0),
                    _ => {
                        t = Some(gt);
                        gpu_due = 1u64.checked_shl(i as u32).unwrap_or(0);
                    }
                }
            }
            let mut fabric_due = false;
            if let Some(ft) = self.fabric.next_time() {
                match t {
                    Some(cur) if ft > cur => {}
                    Some(cur) if ft == cur => fabric_due = true,
                    _ => {
                        t = Some(ft);
                        gpu_due = 0;
                        fabric_due = true;
                    }
                }
            }
            let Some(t) = t else { break };
            if t > self.cfg.deadline {
                return Err(SimError::DeadlineExceeded {
                    deadline: self.cfg.deadline,
                    now: self.now,
                    kernels_remaining: self.kernels_remaining,
                });
            }
            {
                let _p = prof_scope(Subsystem::GpuAdvance);
                if masked {
                    let mut mask = gpu_due;
                    while mask != 0 {
                        let i = mask.trailing_zeros() as usize;
                        mask &= mask - 1;
                        self.gpus[i].advance(t);
                    }
                } else {
                    // >64 GPUs overflows the due bitmask; fall back to
                    // advancing everyone (correct, just does idle peeks).
                    for gpu in &mut self.gpus {
                        gpu.advance(t);
                    }
                }
            }
            if fabric_due || !masked {
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
        self.finish()
    }

    /// Runs one audit pass over every subsystem; a violated ledger becomes
    /// [`SimError::AuditViolation`] with the full forensic report.
    fn audit_check(&self, phase: AuditPhase) -> Result<(), SimError> {
        let mut probe = AuditProbe::new(phase);
        self.fabric.audit_probe(&mut probe);
        self.engine_audit_probe(&mut probe);
        if probe.has_violations() {
            return Err(SimError::AuditViolation(Box::new(
                probe.into_report(self.now, self.fabric.audit_recent_events()),
            )));
        }
        Ok(())
    }

    /// Engine-owned counters and quiescence requirements: blocked TBs,
    /// in-flight CAIS loads, throttle credit state, pre-access waiters.
    fn engine_audit_probe(&self, probe: &mut AuditProbe) {
        let outstanding: usize = self.throttle.iter().map(|t| t.outstanding).sum();
        let queued: usize = self.throttle.iter().map(|t| t.queue.len()).sum();
        probe.counter("engine.blocked_tbs", self.tb_blocked.len() as u64);
        probe.counter(
            "engine.inflight_cais_loads",
            self.inflight_cais_loads.len() as u64,
        );
        probe.counter("engine.throttle_outstanding", outstanding as u64);
        probe.counter("engine.throttle_queued", queued as u64);
        probe.counter("engine.preaccess_blocked", self.preaccess_waiting as u64);
        probe.counter("engine.kernels_remaining", self.kernels_remaining as u64);
        probe.counter("engine.semantic_contribs", self.semantic_contribs);
        if probe.is_quiescence() {
            probe.require_zero(
                "engine",
                "quiescence: no TBs still blocked on tiles or loads",
                self.tb_blocked.len() as u64,
            );
            probe.require_zero(
                "engine",
                "quiescence: no CAIS loads still in flight",
                self.inflight_cais_loads.len() as u64,
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
            // The one full recount of every (GPU, group) waiter list.
            let preaccess: usize = self.preaccess_blocked.iter().map(|v| v.len()).sum();
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
                let resumes = entry
                    .resume_waiters
                    .as_slice()
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
            if st.queue.is_empty() || edges.len() >= MAX_EDGES {
                continue;
            }
            let g = i / self.cfg.n_planes;
            let p = i % self.cfg.n_planes;
            edges.push(format!(
                "g{g} -> plane{p} ({} queued behind {} outstanding credits)",
                st.queue.len(),
                st.outstanding
            ));
        }
        let n_groups = self.n_groups.max(1);
        for (i, tbs) in self.preaccess_blocked.iter().enumerate() {
            if tbs.is_empty() || edges.len() >= MAX_EDGES {
                continue;
            }
            let g = i / n_groups;
            let grp = i % n_groups;
            edges.push(format!(
                "g{g} -> group{grp} ({} TBs awaiting pre-access release)",
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
                name: Arc::clone(&planned.desc.name),
                gpu: planned.gpu,
                start: now,
                end: now,
            },
        );
        for tb in &planned.desc.tbs {
            self.launched_tbs.insert(tb.id);
        }
        let gpu = planned.gpu;
        let ready_now: Vec<TbId> = planned
            .desc
            .tbs
            .iter()
            .map(|tb| tb.id)
            .filter(|id| self.ready_pending.remove(*id))
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
        let waiters = std::mem::take(&mut entry.resume_waiters);
        let gates = entry.gates.clone();
        for &tb in waiters.as_slice() {
            self.dec_blocked(now, tb);
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

    /// Injects a CAIS-tagged request, honoring per-plane throttle credits.
    fn inject_cais(&mut self, now: SimTime, src: GpuId, dst: GpuId, msg: Msg) {
        let Some(limit) = self.cfg.cais_credits_per_plane else {
            self.inject(now, src, dst, msg);
            return;
        };
        let plane = self.plane_for(&msg);
        let st = &mut self.throttle[src.index() * self.cfg.n_planes + plane.index()];
        if st.outstanding < limit {
            st.outstanding += 1;
            self.fabric.inject(now, src, dst, plane, msg);
        } else {
            st.queue.push_back((src, dst, msg));
        }
    }

    fn return_credits(&mut self, now: SimTime, gpu: GpuId, plane: PlaneId, mut n: u32) {
        if self.cfg.cais_credits_per_plane.is_none() {
            return;
        }
        let limit = self.cfg.cais_credits_per_plane.expect("checked");
        loop {
            let st = &mut self.throttle[gpu.index() * self.cfg.n_planes + plane.index()];
            st.outstanding = st.outstanding.saturating_sub(n as usize);
            n = 0;
            if st.outstanding >= limit {
                break;
            }
            let Some((src, dst, msg)) = st.queue.pop_front() else {
                break;
            };
            st.outstanding += 1;
            self.fabric.inject(now, src, dst, plane, msg);
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
                    self.preaccess_blocked[gpu.index() * self.n_groups + group.index()].push(tb);
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
        let mut outstanding = 0usize;
        for &op in ops.iter() {
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
                        let entry = self.tile_entry(gpu, tile);
                        if entry.present {
                            continue;
                        }
                        if blocking {
                            outstanding += 1;
                            entry.resume_waiters.push(tb);
                        }
                        if entry.fetching {
                            // L2 capture: another TB already fetching.
                            self.deduped_fetches += 1;
                            continue;
                        }
                        entry.fetching = true;
                        let msg = Msg::LoadReq {
                            addr: op.addr,
                            bytes: op.bytes,
                            requester: gpu,
                            tb,
                            tile: Some(tile),
                            cais: op.cais,
                        };
                        if op.cais {
                            self.inflight_cais_loads.insert((gpu, op.addr));
                            self.inject_cais(t, gpu, home, msg);
                        } else {
                            self.inject(t, gpu, home, msg);
                        }
                    } else {
                        if blocking {
                            outstanding += 1;
                        }
                        let msg = Msg::LoadReq {
                            addr: op.addr,
                            bytes: op.bytes,
                            requester: gpu,
                            tb,
                            tile: None,
                            cais: op.cais,
                        };
                        if op.cais {
                            self.inflight_cais_loads.insert((gpu, op.addr));
                            self.inject_cais(t, gpu, home, msg);
                        } else {
                            self.inject(t, gpu, home, msg);
                        }
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
                    let msg = Msg::Reduce {
                        addr: op.addr,
                        bytes: op.bytes,
                        src: gpu,
                        contribs: 1,
                        tile: op.tile,
                        cais: op.cais,
                    };
                    if op.cais {
                        self.inject_cais(t, gpu, home, msg);
                    } else {
                        self.inject(t, gpu, home, msg);
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
                            self.tile_entry(gpu, tile).resume_waiters.push(tb);
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
                if self.inflight_cais_loads.remove(&(gpu, addr)) {
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
                    let slot = gpu.index() * self.n_groups + group.index();
                    let waiters = self
                        .preaccess_blocked
                        .get_mut(slot)
                        .map(std::mem::take)
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
        if self.kernels_remaining > 0 {
            let incomplete: Vec<String> = self
                .pending_kernels
                .iter()
                .flatten()
                .map(|k| format!("unlaunched {} on {}", k.desc.name, k.gpu))
                // Launched kernels that never completed are the stuck ones.
                .chain(
                    self.kernel_spans
                        .iter()
                        .filter(|&(id, s)| self.gpus[s.gpu.index()].kernel_pending(*id))
                        .map(|(id, s)| format!("incomplete {id} {} on {}", s.name, s.gpu)),
                )
                .take(12)
                .collect();
            let n_groups = self.n_groups.max(1);
            let preaccess: Vec<String> = self
                .preaccess_blocked
                .iter()
                .enumerate()
                .filter(|(_, tbs)| !tbs.is_empty())
                .map(|(i, tbs)| {
                    let g = GpuId((i / n_groups) as u16);
                    let grp = GroupId((i % n_groups) as u32);
                    format!("{g}/{grp}:{}", tbs.len())
                })
                .take(8)
                .collect();
            return Err(SimError::Deadlock(Box::new(DeadlockDiag {
                kernels_remaining: self.kernels_remaining,
                engine_blocked_tbs: self.tb_blocked.len(),
                preaccess_waiters: preaccess,
                throttle_queued: self.throttle.iter().map(|t| t.queue.len()).sum(),
                kernels: incomplete,
                blocked_tbs: Vec::new(),
                waits_for: self.waits_for_edges(),
                recent_events: self.fabric.audit_recent_events(),
            })));
        }
        if !self.tb_blocked.is_empty() {
            return Err(SimError::Deadlock(Box::new(DeadlockDiag {
                kernels_remaining: 0,
                engine_blocked_tbs: self.tb_blocked.len(),
                preaccess_waiters: Vec::new(),
                throttle_queued: self.throttle.iter().map(|t| t.queue.len()).sum(),
                kernels: Vec::new(),
                blocked_tbs: self
                    .tb_blocked
                    .keys()
                    .take(16)
                    .map(|tb| tb.to_string())
                    .collect(),
                waits_for: self.waits_for_edges(),
                recent_events: self.fabric.audit_recent_events(),
            })));
        }
        // Mandatory end-of-run quiescence verification: every queue
        // drained and every table empty. Runs on the success path of
        // every run, audited or not, so that silent bookkeeping leaks
        // cannot survive a "passing" run.
        self.audit_check(AuditPhase::Quiescence)?;
        let total = self.now.since(SimTime::ZERO);
        let logic_stats = self.fabric.logic().stats();
        let mean_request_spread = logic_stats
            .iter()
            .find(|(k, _)| k == "cais.mean_spread_us")
            .map(|(_, v)| SimDuration::from_ps((*v * 1e6) as u64));
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
            logic_stats,
            deduped_fetches: self.deduped_fetches,
            semantic_contribs: self.semantic_contribs,
            mean_request_spread,
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
            desc: KernelDesc::new(ids.kernel(), "loaders", vec![]),
            after: vec![],
        });
        p.kernels[0].desc.tbs = tbs;
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
        desc.tbs_auto_ready = false;
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
            desc.tbs_auto_ready = false;
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
        desc.tbs_auto_ready = false;
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
                assert_eq!(d.kernels_remaining, 1);
                // Held at its dispatch gate, not blocked in a slot.
                assert_eq!(d.engine_blocked_tbs, 0);
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
                kernels_remaining,
                ..
            } => {
                assert_eq!(*deadline, SimTime::from_ns(1));
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
        desc.tbs_auto_ready = false;
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
