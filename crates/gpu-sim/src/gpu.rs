//! The per-GPU execution simulator.

use crate::config::{GpuConfig, ReadyPolicy};
use crate::kernel::{KernelBody, KernelDesc, MemOp, Phase, SyncKind, TbBody};
use sim_core::rng::JitterRng;
use sim_core::{
    shrink_sparse, DenseSet, EventQueue, FastHash, GroupId, KernelId, SimDuration, SimTime, TbId,
    TileId, Waiters,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// An observable action produced by the GPU, drained by the engine.
#[derive(Debug, Clone)]
pub enum GpuEffect {
    /// A TB issued remote memory operations. With `blocking`, the TB is
    /// now blocked and must be [`GpuSim::resume_tb`]-ed when the engine
    /// considers the operations complete.
    MemIssued {
        /// Issuing TB.
        tb: TbId,
        /// The operations: the phase's shared list, not a copy.
        ops: Arc<[MemOp]>,
        /// Whether the TB blocked on completion.
        blocking: bool,
    },
    /// A TB produced a tile locally.
    TileReady {
        /// The produced tile.
        tile: TileId,
    },
    /// A TB asked for group synchronization. For [`SyncKind::PreAccess`]
    /// the TB is blocked and must be resumed; for [`SyncKind::PreLaunch`]
    /// the TB is pending dispatch until [`GpuSim::release_group`].
    GroupSyncRequest {
        /// Requesting TB.
        tb: TbId,
        /// The TB's group.
        group: GroupId,
        /// Synchronization point.
        kind: SyncKind,
    },
    /// Every TB of a kernel finished.
    KernelCompleted {
        /// The kernel.
        kernel: KernelId,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TbState {
    /// Waiting for kernel arming and/or engine dependency release.
    Waiting,
    /// Ready but gated on a pre-launch group release.
    PendingGroup,
    /// In the ready queue; dispatch starts it at its current phase.
    Queued,
    /// Occupying an SM slot, executing its current phase.
    Running,
    /// Occupying a slot, blocked in its current phase on an external
    /// event.
    Blocked,
    /// Yielded its slot while waiting for a group synchronization (the
    /// warp scheduler runs other work meanwhile); re-dispatched with
    /// priority on resume.
    Yielded,
}

/// A live TB: where its body is and how far it has run. The body itself
/// (order key, group, phases) stays in its kernel's shared
/// [`KernelBody`].
#[derive(Debug)]
struct TbRuntime {
    kernel: KernelId,
    /// Position in the kernel's [`KernelBody::tbs`].
    pos: u32,
    /// The phase running, blocked or yielded in, or to start from when
    /// next dispatched.
    phase: u32,
    state: TbState,
    armed: bool,
    deps_ok: bool,
    enqueued_or_pending: bool,
}

// A record per live TB; at 32 GPUs up to ~200k TBs are live at once.
const _: () = assert!(std::mem::size_of::<TbRuntime>() <= 16);

/// A live kernel: launched and not yet completed.
#[derive(Debug)]
struct KernelRuntime {
    body: Arc<KernelBody>,
    /// The kernel's TB ids until it arms; empty afterwards.
    unarmed: Box<[TbId]>,
    remaining: usize,
}

#[derive(Debug)]
enum GpuEvent {
    KernelArmed(KernelId),
    /// A TB's readiness (including dispatch jitter) materialized.
    ReadyAt(TbId),
    /// The current phase of a TB completed; advance to the next.
    PhaseDone(TbId),
    /// Try to dispatch ready TBs onto free slots.
    Dispatch,
}

/// One simulated GPU.
///
/// Driven by an engine: [`GpuSim::launch_kernel`] starts work,
/// [`GpuSim::advance`] processes internal events up to a time, and
/// [`GpuSim::drain_effects`] returns what happened so the engine can route
/// memory traffic, resolve dependencies and synchronize groups.
#[derive(Debug)]
pub struct GpuSim {
    /// Shared, immutable configuration. An `Arc` so a multi-GPU system
    /// builds the config once instead of deep-cloning it per GPU.
    cfg: Arc<GpuConfig>,
    now: SimTime,
    queue: EventQueue<GpuEvent>,
    /// Live TBs only: a TB enters at its kernel's launch and is dropped
    /// the moment it completes. The table shrinks as TBs retire, so it
    /// does not keep the capacity of the largest kernel.
    tbs: HashMap<TbId, TbRuntime, FastHash>,
    /// Live kernels only, each holding its body until its last TB
    /// completes.
    kernels: HashMap<KernelId, KernelRuntime, FastHash>,
    /// Queued TBs by (key, arrival); shrinks after a burst drains.
    ready: BinaryHeap<Reverse<(u64, u64, TbId)>>,
    ready_seq: u64,
    /// Whether a [`GpuEvent::Dispatch`] is already queued. Every push
    /// site runs at the engine's current step time, so one pending
    /// dispatch event covers all of them; collapsing the duplicates
    /// (which would drain an already-empty ready queue) is free.
    dispatch_pending: bool,
    slots_free: usize,
    released_groups: DenseSet<GroupId>,
    /// TBs held for a pre-launch release, only for groups that have any;
    /// an entry goes at its group's release, and the table shrinks after
    /// a burst.
    pending_group: HashMap<GroupId, Waiters, FastHash>,
    effects: Vec<(SimTime, GpuEffect)>,
    rng: JitterRng,
    // Slot-occupancy integral for utilization reporting.
    occupancy_integral_ps: u128,
    occupancy_last_change: SimTime,
    slots_in_use: usize,
}

impl GpuSim {
    /// Capacity the live-TB table, the ready heap and the pending-group
    /// table never shrink below.
    const MIN_TB_CAPACITY: usize = 32;

    /// Creates an idle GPU with a deterministic jitter stream. Accepts an
    /// owned config or a shared `Arc<GpuConfig>` (preferred when many
    /// GPUs share one config).
    pub fn new(cfg: impl Into<Arc<GpuConfig>>, seed: u64) -> GpuSim {
        let cfg = cfg.into();
        let slots = cfg.total_slots();
        GpuSim {
            cfg,
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            tbs: HashMap::default(),
            kernels: HashMap::default(),
            ready: BinaryHeap::new(),
            ready_seq: 0,
            dispatch_pending: false,
            slots_free: slots,
            released_groups: DenseSet::new(),
            pending_group: HashMap::default(),
            effects: Vec::new(),
            rng: JitterRng::seed_from(seed),
            occupancy_integral_ps: 0,
            occupancy_last_change: SimTime::ZERO,
            slots_in_use: 0,
        }
    }

    /// The GPU's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current local time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Launches `kernel` at `time`. TBs become ready after the launch
    /// overhead (unless the kernel is marked
    /// [`KernelBody::fused_launch`]).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past or the kernel is already live here.
    pub fn launch_kernel(&mut self, time: SimTime, kernel: KernelDesc) {
        assert!(time >= self.now, "cannot launch a kernel in the past");
        let KernelDesc { id, body, tb_ids } = kernel;
        assert!(
            !self.kernels.contains_key(&id),
            "kernel {id} launched twice"
        );
        let overhead = if body.fused_launch {
            SimDuration::ZERO
        } else {
            self.cfg.kernel_launch_overhead + self.rng.jitter(self.cfg.launch_skew)
        };
        // One rehash for the whole grid, not one per doubling: the table
        // shrinks as the previous kernels' TBs retire.
        self.tbs.reserve(tb_ids.len());
        for (pos, &tb) in tb_ids.iter().enumerate() {
            let prev = self.tbs.insert(
                tb,
                TbRuntime {
                    kernel: id,
                    pos: pos as u32,
                    phase: 0,
                    state: TbState::Waiting,
                    armed: false,
                    deps_ok: body.tbs_auto_ready,
                    enqueued_or_pending: false,
                },
            );
            assert!(prev.is_none(), "thread block {tb} registered twice");
        }
        if tb_ids.is_empty() {
            // Degenerate but legal: completes right after arming, and
            // keeps no state.
            self.effects
                .push((time + overhead, GpuEffect::KernelCompleted { kernel: id }));
        } else {
            self.kernels.insert(
                id,
                KernelRuntime {
                    remaining: tb_ids.len(),
                    unarmed: tb_ids,
                    body,
                },
            );
        }
        self.queue.push(time + overhead, GpuEvent::KernelArmed(id));
    }

    /// Marks a dependency-gated TB as ready (engine resolved its inputs).
    /// Returns whether the TB is live here: launched and not completed. A
    /// TB that is not live is left alone.
    pub fn make_tb_ready(&mut self, time: SimTime, tb: TbId) -> bool {
        assert!(time >= self.now, "cannot mark ready in the past");
        let Some(rt) = self.tbs.get_mut(&tb) else {
            return false;
        };
        if !rt.deps_ok {
            rt.deps_ok = true;
            if rt.armed && !rt.enqueued_or_pending {
                self.schedule_ready(time, tb);
            }
        }
        true
    }

    /// Resumes a TB blocked on memory completion or pre-access sync.
    ///
    /// # Panics
    ///
    /// Panics if the TB is not blocked.
    pub fn resume_tb(&mut self, time: SimTime, tb: TbId) {
        assert!(time >= self.now, "cannot resume in the past");
        let rt = self.tbs.get_mut(&tb).expect("resume_tb: unknown TB");
        match rt.state {
            TbState::Blocked => {
                rt.state = TbState::Running;
                self.queue.push(time, GpuEvent::PhaseDone(tb));
            }
            TbState::Yielded => {
                // Re-enter the ready queue with top priority (the resident
                // warp state is already on the SM; it resumes after the
                // sync as soon as a slot frees).
                rt.phase += 1;
                rt.state = TbState::Queued;
                let seq = self.ready_seq;
                self.ready_seq += 1;
                self.ready.push(Reverse((0, seq, tb)));
                self.push_dispatch(time);
            }
            other => panic!("resume_tb: {tb} is {other:?}, not blocked"),
        }
    }

    /// Releases a pre-launch-gated group: its pending TBs enter the ready
    /// queue and future TBs of the group dispatch without gating.
    pub fn release_group(&mut self, time: SimTime, group: GroupId) {
        assert!(time >= self.now, "cannot release in the past");
        if !self.released_groups.insert(group) {
            return;
        }
        let pending = self.pending_group.remove(&group).unwrap_or_default();
        shrink_sparse(&mut self.pending_group, Self::MIN_TB_CAPACITY);
        for &tb in pending.as_slice() {
            self.enqueue_ready(time, tb);
        }
        self.push_dispatch(time);
    }

    /// Timestamp of the next internal event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Processes every internal event at or before `until`.
    pub fn advance(&mut self, until: SimTime) {
        while let Some((t, ev)) = self.queue.pop_due(until) {
            self.now = t;
            self.handle(t, ev);
        }
        self.now = self.now.max(until);
    }

    /// Takes all effects produced since the last drain, in time order.
    pub fn drain_effects(&mut self) -> Vec<(SimTime, GpuEffect)> {
        std::mem::take(&mut self.effects)
    }

    /// Like [`GpuSim::drain_effects`], but swaps the effects into `out`
    /// (cleared first), handing the GPU `out`'s allocation to refill.
    /// Lets a driver recycle one scratch buffer across drains instead of
    /// re-growing a fresh `Vec` per cycle.
    pub fn drain_effects_into(&mut self, out: &mut Vec<(SimTime, GpuEffect)>) {
        out.clear();
        std::mem::swap(&mut self.effects, out);
    }

    /// True when effects are pending; lets drivers skip the drain swap
    /// for idle GPUs in the hot drain loop.
    pub fn has_effects(&self) -> bool {
        !self.effects.is_empty()
    }

    /// True when no TB is queued, running, blocked or pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.tbs.is_empty()
    }

    /// Whether `kernel` was launched here and still has TBs that have not
    /// completed (diagnostics for deadlock reports).
    pub fn kernel_pending(&self, kernel: KernelId) -> bool {
        self.kernels.contains_key(&kernel)
    }

    /// Total internal events processed so far (perf accounting).
    pub fn events_processed(&self) -> u64 {
        self.queue.pops()
    }

    /// High-water mark of the internal event queue (perf accounting).
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// Mean SM-slot occupancy in `[0, horizon)` (0..=1).
    pub fn occupancy(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        // Close the integral up to `horizon` for currently running slots.
        let mut integral = self.occupancy_integral_ps;
        let end = SimTime::ZERO + horizon;
        if end > self.occupancy_last_change {
            integral +=
                self.slots_in_use as u128 * end.since(self.occupancy_last_change).as_ps() as u128;
        }
        integral as f64 / (self.cfg.total_slots() as u128 * horizon.as_ps() as u128) as f64
    }

    fn note_occupancy_change(&mut self, now: SimTime, delta: isize) {
        self.occupancy_integral_ps += self.slots_in_use as u128
            * now.saturating_since(self.occupancy_last_change).as_ps() as u128;
        self.occupancy_last_change = self.occupancy_last_change.max(now);
        self.slots_in_use = (self.slots_in_use as isize + delta) as usize;
    }

    fn push_dispatch(&mut self, time: SimTime) {
        if !self.dispatch_pending {
            self.dispatch_pending = true;
            self.queue.push(time, GpuEvent::Dispatch);
        }
    }

    /// The shared body of a live TB.
    fn body(&self, rt: &TbRuntime) -> &TbBody {
        &self.kernels[&rt.kernel].body.tbs[rt.pos as usize]
    }

    fn schedule_ready(&mut self, time: SimTime, tb: TbId) {
        let rt = self.tbs.get_mut(&tb).expect("schedule_ready: unknown TB");
        rt.enqueued_or_pending = true;
        let kernel = rt.kernel;
        let jitter = if self.kernels[&kernel].body.ordered {
            SimDuration::ZERO
        } else {
            self.rng.jitter(self.cfg.dispatch_jitter)
        };
        self.queue.push(time + jitter, GpuEvent::ReadyAt(tb));
    }

    fn enqueue_ready(&mut self, time: SimTime, tb: TbId) {
        let rt = &self.tbs[&tb];
        let kernel = &self.kernels[&rt.kernel].body;
        let key = if kernel.ordered {
            kernel.tbs[rt.pos as usize].order_key
        } else {
            match self.cfg.ready_policy {
                ReadyPolicy::Fifo => time.as_ps(),
                ReadyPolicy::GroupOrdered => kernel.tbs[rt.pos as usize].order_key,
            }
        };
        let seq = self.ready_seq;
        self.ready_seq += 1;
        self.ready.push(Reverse((key, seq, tb)));
        self.tbs.get_mut(&tb).expect("enqueue: unknown TB").state = TbState::Queued;
    }

    fn handle(&mut self, now: SimTime, ev: GpuEvent) {
        match ev {
            GpuEvent::KernelArmed(kernel) => {
                // An empty kernel was never live.
                let Some(krt) = self.kernels.get_mut(&kernel) else {
                    return;
                };
                let tbs = &mut self.tbs;
                let mut ready: Vec<(u64, TbId)> = std::mem::take(&mut krt.unarmed)
                    .iter()
                    .zip(krt.body.tbs.iter())
                    .filter_map(|(&id, body)| {
                        let rt = tbs.get_mut(&id).expect("an unarmed TB is live");
                        rt.armed = true;
                        (rt.deps_ok && !rt.enqueued_or_pending).then_some((body.order_key, id))
                    })
                    .collect();
                // Deterministic arming order: hardware drains the grid in
                // block order, and corresponding TBs on different GPUs
                // must tie-break identically.
                ready.sort_unstable();
                for (_, tb) in ready {
                    self.schedule_ready(now, tb);
                }
            }
            GpuEvent::ReadyAt(tb) => {
                let body = self.body(&self.tbs[&tb]);
                if body.pre_launch_sync {
                    let group = body.group.expect("pre_launch_sync TB must have a group");
                    if !self.released_groups.contains(group) {
                        self.tbs.get_mut(&tb).expect("known").state = TbState::PendingGroup;
                        self.pending_group.entry(group).or_default().push(tb);
                        self.effects.push((
                            now,
                            GpuEffect::GroupSyncRequest {
                                tb,
                                group,
                                kind: SyncKind::PreLaunch,
                            },
                        ));
                        return;
                    }
                }
                self.enqueue_ready(now, tb);
                self.push_dispatch(now);
            }
            GpuEvent::Dispatch => {
                self.dispatch_pending = false;
                self.dispatch(now);
            }
            GpuEvent::PhaseDone(tb) => {
                let rt = self.tbs.get_mut(&tb).expect("PhaseDone: unknown TB");
                assert_eq!(rt.state, TbState::Running, "PhaseDone for {tb}");
                rt.phase += 1;
                self.step_tb(now, tb);
            }
        }
    }

    fn dispatch(&mut self, now: SimTime) {
        while self.slots_free > 0 {
            let Some(Reverse((_, _, tb))) = self.ready.pop() else {
                break;
            };
            shrink_sparse(&mut self.ready, Self::MIN_TB_CAPACITY);
            self.slots_free -= 1;
            self.note_occupancy_change(now, 1);
            self.tbs.get_mut(&tb).expect("dispatch: unknown TB").state = TbState::Running;
            self.step_tb(now, tb);
        }
    }

    /// Interprets phases starting at the TB's current phase index until it
    /// blocks, schedules a timed event, or completes.
    fn step_tb(&mut self, now: SimTime, tb: TbId) {
        loop {
            let rt = &self.tbs[&tb];
            assert_eq!(rt.state, TbState::Running, "step_tb for {tb}");
            let body = self.body(rt);
            // End the borrow by cloning the phase out: `ops` is a shared
            // list, so the clone is a reference-count increment.
            let Some(phase) = body.phases.get(rt.phase as usize).cloned() else {
                self.complete_tb(now, tb);
                return;
            };
            match phase {
                Phase::Compute(d) => {
                    let d = if self.cfg.compute_scale == 1.0 {
                        d
                    } else {
                        SimDuration::from_ps((d.as_ps() as f64 * self.cfg.compute_scale) as u64)
                    };
                    let jitter = self.rng.jitter(self.cfg.compute_jitter);
                    self.queue.push(now + d + jitter, GpuEvent::PhaseDone(tb));
                    return;
                }
                Phase::IssueMem { ops, wait } => {
                    self.effects.push((
                        now,
                        GpuEffect::MemIssued {
                            tb,
                            ops,
                            blocking: wait,
                        },
                    ));
                    let rt = self.tbs.get_mut(&tb).expect("known");
                    if wait {
                        rt.state = TbState::Blocked;
                        return;
                    }
                    rt.phase += 1;
                }
                Phase::SyncGroup(kind) => {
                    let group = body.group.expect("SyncGroup phase requires a TB group");
                    // Yield the slot for the wait: the warp scheduler
                    // issues independent work meanwhile (paper Sec.
                    // III-B-2), so a cross-GPU sync never pins an SM.
                    self.tbs.get_mut(&tb).expect("known").state = TbState::Yielded;
                    self.slots_free += 1;
                    self.note_occupancy_change(now, -1);
                    self.effects
                        .push((now, GpuEffect::GroupSyncRequest { tb, group, kind }));
                    self.push_dispatch(now);
                    return;
                }
                Phase::SignalTile(tile) => {
                    self.tbs.get_mut(&tb).expect("known").phase += 1;
                    self.effects.push((now, GpuEffect::TileReady { tile }));
                }
            }
        }
    }

    fn complete_tb(&mut self, now: SimTime, tb: TbId) {
        let kernel = self
            .tbs
            .remove(&tb)
            .expect("complete_tb: unknown TB")
            .kernel;
        // Shrinking changes the table's iteration order, which nothing
        // observes.
        shrink_sparse(&mut self.tbs, Self::MIN_TB_CAPACITY);
        self.slots_free += 1;
        self.note_occupancy_change(now, -1);
        let krt = self.kernels.get_mut(&kernel).expect("kernel exists");
        krt.remaining -= 1;
        if krt.remaining == 0 {
            // The body goes with the kernel's last TB.
            self.kernels.remove(&kernel);
            self.effects
                .push((now, GpuEffect::KernelCompleted { kernel }));
        }
        self.push_dispatch(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TbDesc;
    use sim_core::KernelId;

    fn quiet_cfg() -> GpuConfig {
        GpuConfig {
            dispatch_jitter: SimDuration::ZERO,
            compute_jitter: SimDuration::ZERO,
            launch_skew: SimDuration::ZERO,
            kernel_launch_overhead: SimDuration::from_us(3),
            sm_count: 2,
            tb_slots_per_sm: 1,
            ..GpuConfig::h100_half()
        }
    }

    fn run_all(gpu: &mut GpuSim) -> Vec<(SimTime, GpuEffect)> {
        let mut all = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
            all.extend(gpu.drain_effects());
        }
        all
    }

    fn compute_tb(id: u64, us: u64) -> TbDesc {
        TbDesc::compute_only(TbId(id), id, SimDuration::from_us(us))
    }

    /// A compute TB that closes by signaling tile `id`, so the tile's
    /// `TileReady` effect marks when the TB finished.
    fn signaling_tb(id: u64, us: u64) -> TbDesc {
        let mut tb = compute_tb(id, us);
        tb.phases.push(Phase::SignalTile(TileId(id)));
        tb
    }

    /// The TBs of `signaling_tb`s in the order they finished.
    fn finish_order(effects: &[(SimTime, GpuEffect)]) -> Vec<TbId> {
        effects
            .iter()
            .filter_map(|(_, e)| match e {
                GpuEffect::TileReady { tile } => Some(TbId(tile.0)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn kernel_runs_after_launch_overhead() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k", vec![compute_tb(0, 10)]),
        );
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .expect("kernel completed");
        // 3 us launch overhead + 10 us compute.
        assert_eq!(done.0, SimTime::from_us(13));
        assert!(gpu.is_idle());
    }

    #[test]
    fn completed_tbs_leave_no_state() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        // TB 0 blocks on a memory phase the engine never completes here.
        let blocker = TbDesc {
            phases: vec![Phase::IssueMem {
                ops: Arc::from([]),
                wait: true,
            }],
            ..compute_tb(0, 1)
        };
        let tbs = vec![blocker, compute_tb(1, 10), compute_tb(2, 10)];
        let k = KernelDesc::new(KernelId(0), "k", tbs);
        let body = Arc::clone(&k.body);
        gpu.launch_kernel(SimTime::ZERO, k);
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        // The two compute TBs retired; only the blocked one is live.
        assert_eq!(gpu.tbs.keys().copied().collect::<Vec<_>>(), vec![TbId(0)]);
        assert!(!gpu.is_idle());
        gpu.resume_tb(SimTime::from_us(50), TbId(0));
        run_all(&mut gpu);
        assert!(gpu.is_idle());
        assert!(gpu.tbs.is_empty(), "no TB state may outlive its TB");
        assert!(
            gpu.kernels.is_empty(),
            "no kernel state may outlive its kernel"
        );
        assert_eq!(Arc::strong_count(&body), 1, "the GPU let go of the body");
        // A late readiness signal for a retired TB is harmless.
        assert!(!gpu.make_tb_ready(SimTime::from_us(60), TbId(1)));
        assert!(gpu.is_idle());
    }

    #[test]
    fn tb_table_gives_back_a_large_kernels_capacity() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let big = (0..4096).map(|i| compute_tb(i, 1)).collect();
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "big", big));
        assert!(gpu.tbs.capacity() >= 4096);
        run_all(&mut gpu);
        assert!(gpu.is_idle());
        assert!(
            gpu.tbs.capacity() <= 2 * GpuSim::MIN_TB_CAPACITY,
            "the retired kernel left {} slots",
            gpu.tbs.capacity()
        );
        // A small kernel afterwards runs in the floor capacity.
        let small = (4096..4100).map(|i| compute_tb(i, 1)).collect();
        gpu.launch_kernel(gpu.now(), KernelDesc::new(KernelId(1), "small", small));
        run_all(&mut gpu);
        assert!(gpu.is_idle());
        assert!(gpu.tbs.capacity() <= 2 * GpuSim::MIN_TB_CAPACITY);
    }

    #[test]
    fn ready_heap_and_group_table_give_back_a_burst() {
        // 4,096 TBs in 1,024 groups queue for two slots: all of them are
        // held for their group's pre-launch release, then all enter the
        // ready heap at once. Both tables must shrink once the burst has
        // gone through.
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let big = (0..4096)
            .map(|i| TbDesc {
                group: Some(GroupId(i as u32 % 1024)),
                pre_launch_sync: true,
                ..compute_tb(i, 1)
            })
            .collect();
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "big", big));
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        assert_eq!(gpu.pending_group.len(), 1024);
        let released = gpu.now();
        for g in 0..1024 {
            gpu.release_group(released, GroupId(g));
        }
        assert!(gpu.pending_group.is_empty());
        assert!(
            gpu.pending_group.capacity() <= 2 * GpuSim::MIN_TB_CAPACITY,
            "the released groups left {} slots",
            gpu.pending_group.capacity()
        );
        assert!(gpu.ready.len() >= 4000);
        run_all(&mut gpu);
        assert!(gpu.is_idle());
        assert!(
            gpu.ready.capacity() <= 2 * GpuSim::MIN_TB_CAPACITY,
            "the drained ready heap kept {} slots",
            gpu.ready.capacity()
        );
    }

    #[test]
    fn slots_bound_parallelism() {
        // 2 slots, 4 TBs of 10 us each => two waves => 3 + 20 us.
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let tbs = (0..4).map(|i| compute_tb(i, 10)).collect();
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "k", tbs));
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .unwrap();
        assert_eq!(done.0, SimTime::from_us(23));
    }

    #[test]
    fn fused_launch_skips_overhead() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let mut k = KernelDesc::new(KernelId(0), "fused", vec![compute_tb(0, 5)]);
        Arc::make_mut(&mut k.body).fused_launch = true;
        gpu.launch_kernel(SimTime::ZERO, k);
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .unwrap();
        assert_eq!(done.0, SimTime::from_us(5));
    }

    #[test]
    fn blocking_mem_phase_waits_for_resume() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let tb = TbDesc {
            id: TbId(0),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::IssueMem {
                    ops: Arc::from([]),
                    wait: true,
                },
                Phase::Compute(SimDuration::from_us(1)),
            ],
        };
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "k", vec![tb]));
        // Run until blocked.
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        let effects = gpu.drain_effects();
        assert!(effects
            .iter()
            .any(|(_, e)| matches!(e, GpuEffect::MemIssued { blocking: true, .. })));
        assert!(!gpu.is_idle());
        // Resume at 50 us; completion at 51 us.
        gpu.resume_tb(SimTime::from_us(50), TbId(0));
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .unwrap();
        assert_eq!(done.0, SimTime::from_us(51));
    }

    #[test]
    fn dependency_gated_tbs_wait_for_engine() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let mut k = KernelDesc::new(KernelId(0), "k", vec![compute_tb(0, 1)]);
        Arc::make_mut(&mut k.body).tbs_auto_ready = false;
        gpu.launch_kernel(SimTime::ZERO, k);
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        assert!(!gpu.is_idle(), "TB must not run before deps resolve");
        gpu.make_tb_ready(SimTime::from_us(100), TbId(0));
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .unwrap();
        assert_eq!(done.0, SimTime::from_us(101));
    }

    #[test]
    fn pre_launch_sync_gates_dispatch() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let tb = TbDesc {
            id: TbId(0),
            order_key: 0,
            group: Some(GroupId(7)),
            pre_launch_sync: true,
            phases: vec![Phase::Compute(SimDuration::from_us(2))],
        };
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "k", vec![tb]));
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        let effects = gpu.drain_effects();
        assert!(effects.iter().any(|(_, e)| matches!(
            e,
            GpuEffect::GroupSyncRequest {
                kind: SyncKind::PreLaunch,
                ..
            }
        )));
        assert!(!gpu.is_idle());
        gpu.release_group(SimTime::from_us(20), GroupId(7));
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .unwrap();
        assert_eq!(done.0, SimTime::from_us(22));
    }

    #[test]
    fn group_sync_yields_the_slot() {
        // One slot; TB A enters a group sync; TB B (no sync) must run to
        // completion while A waits — the sync must not pin the SM.
        let mut cfg = quiet_cfg();
        cfg.sm_count = 1;
        cfg.tb_slots_per_sm = 1;
        let mut gpu = GpuSim::new(cfg, 1);
        let syncer = TbDesc {
            id: TbId(0),
            order_key: 0,
            group: Some(GroupId(1)),
            pre_launch_sync: false,
            phases: vec![
                Phase::SyncGroup(SyncKind::PreAccess),
                Phase::Compute(SimDuration::from_us(1)),
            ],
        };
        let worker = signaling_tb(1, 2);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k", vec![syncer, worker]),
        );
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        let fx = gpu.drain_effects();
        // The worker completed even though the syncer is still waiting.
        assert_eq!(finish_order(&fx), vec![TbId(1)]);
        assert!(!gpu.is_idle());
        // Resume the syncer; it re-acquires the slot and finishes.
        gpu.resume_tb(SimTime::from_us(30), TbId(0));
        let fx = run_all(&mut gpu);
        assert!(fx
            .iter()
            .any(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. })));
        assert!(gpu.is_idle());
    }

    #[test]
    fn ordered_kernel_ignores_jitter_and_respects_order_key() {
        let mut cfg = quiet_cfg();
        cfg.dispatch_jitter = SimDuration::from_us(50);
        cfg.sm_count = 1;
        cfg.tb_slots_per_sm = 1;
        let mut gpu = GpuSim::new(cfg, 99);
        let a = TbDesc {
            order_key: 1,
            ..signaling_tb(0, 1)
        };
        let b = TbDesc {
            order_key: 0,
            ..signaling_tb(1, 1)
        };
        let mut k = KernelDesc::new(KernelId(0), "coll", vec![a, b]);
        Arc::make_mut(&mut k.body).ordered = true;
        gpu.launch_kernel(SimTime::ZERO, k);
        let fx = run_all(&mut gpu);
        assert_eq!(finish_order(&fx), vec![TbId(1), TbId(0)]);
        // No dispatch jitter: total = 3us launch + 2us compute exactly.
        let done = fx
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
            .map(|(t, _)| *t)
            .unwrap();
        assert_eq!(done, SimTime::from_us(5));
    }

    #[test]
    fn signal_and_wait_tiles_emit_effects() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        let producer = TbDesc {
            id: TbId(0),
            order_key: 0,
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::Compute(SimDuration::from_us(1)),
                Phase::SignalTile(TileId(5)),
            ],
        };
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "producer", vec![producer]),
        );
        // The consumer waits on the tile through its dispatch gate: a
        // dependency-gated kernel the engine releases when the tile lands.
        let mut consumer = KernelDesc::new(KernelId(1), "consumer", vec![compute_tb(1, 1)]);
        Arc::make_mut(&mut consumer.body).tbs_auto_ready = false;
        gpu.launch_kernel(SimTime::ZERO, consumer);
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        let effects = gpu.drain_effects();
        let tile_ready_at = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::TileReady { tile } if *tile == TileId(5)))
            .map(|(t, _)| *t)
            .expect("tile signaled");
        assert_eq!(tile_ready_at, SimTime::from_us(4));
        assert_eq!(
            gpu.tbs.keys().copied().collect::<Vec<_>>(),
            vec![TbId(1)],
            "consumer waits at its gate"
        );
        // Engine would open the consumer's gate now.
        assert!(gpu.make_tb_ready(tile_ready_at, TbId(1)));
        let effects = run_all(&mut gpu);
        let done = effects
            .iter()
            .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { kernel } if *kernel == KernelId(1)))
            .map(|(t, _)| *t)
            .expect("consumer kernel completes");
        assert_eq!(done, tile_ready_at + SimDuration::from_us(1));
        assert!(gpu.is_idle());
    }

    #[test]
    fn group_ordered_policy_ignores_arrival_order() {
        let mut cfg = quiet_cfg();
        cfg.ready_policy = ReadyPolicy::GroupOrdered;
        cfg.sm_count = 1; // one slot: strict serialization exposes order
        let mut gpu = GpuSim::new(cfg, 1);
        // order_key reversed relative to launch order within the grid.
        let tb_a = TbDesc {
            order_key: 1,
            ..signaling_tb(0, 1)
        };
        let tb_b = TbDesc {
            order_key: 0,
            ..signaling_tb(1, 1)
        };
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k", vec![tb_a, tb_b]),
        );
        let effects = run_all(&mut gpu);
        assert_eq!(
            finish_order(&effects),
            vec![TbId(1), TbId(0)],
            "order_key must win"
        );
    }

    #[test]
    fn dispatch_jitter_staggers_identical_gpus() {
        let mut cfg = quiet_cfg();
        cfg.dispatch_jitter = SimDuration::from_us(8);
        let mk = |seed| {
            let mut gpu = GpuSim::new(cfg.clone(), seed);
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelDesc::new(KernelId(0), "k", vec![compute_tb(0, 10)]),
            );
            let fx = run_all(&mut gpu);
            fx.iter()
                .find(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. }))
                .map(|(t, _)| *t)
                .unwrap()
        };
        let a = mk(1);
        let b = mk(2);
        assert_ne!(a, b, "different seeds must drift");
        let spread = a.max(b).since(a.min(b));
        assert!(spread < SimDuration::from_us(8));
    }

    #[test]
    fn occupancy_reflects_busy_fraction() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1); // 2 slots
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k", vec![compute_tb(0, 10)]),
        );
        run_all(&mut gpu);
        // One of two slots busy for 10 of 13 us.
        let occ = gpu.occupancy(SimDuration::from_us(13));
        assert!((occ - 10.0 / 26.0).abs() < 0.01, "occupancy {occ}");
    }

    #[test]
    #[should_panic(expected = "launched twice")]
    fn duplicate_kernel_id_panics() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k", vec![compute_tb(0, 1)]),
        );
        gpu.launch_kernel(
            SimTime::ZERO,
            KernelDesc::new(KernelId(0), "k2", vec![compute_tb(1, 1)]),
        );
    }

    #[test]
    fn empty_kernel_completes() {
        let mut gpu = GpuSim::new(quiet_cfg(), 1);
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "empty", vec![]));
        let effects = run_all(&mut gpu);
        assert!(effects
            .iter()
            .any(|(_, e)| matches!(e, GpuEffect::KernelCompleted { .. })));
    }
}
