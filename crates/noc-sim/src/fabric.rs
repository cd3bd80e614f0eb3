//! The fabric: switches, links, routing and the switch-logic hook.

use crate::link::{Direction, EnqueueEffect, Link};
use crate::packet::{Delivery, FlowClass, Hop, Packet, Payload};
use crate::report::{FabricReport, LinkUsage, ResilienceCounters};
use sim_core::audit::{AuditProbe, EventRing, AUDIT_RING_CAPACITY};
use sim_core::profile::{prof_scope, Subsystem};
use sim_core::rng::JitterRng;
use sim_core::{
    Bandwidth, EventQueue, FaultPlan, GpuId, PlaneId, SimDuration, SimTime, WindowSchedule,
};

/// Static fabric parameters (Sec. IV-A of the paper).
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of GPU endpoints.
    pub n_gpus: usize,
    /// Number of independent switch planes (4 on DGX-H100).
    pub n_planes: usize,
    /// Bandwidth of one (GPU, plane) link, per direction.
    pub link_bw: Bandwidth,
    /// One-way propagation latency GPU<->switch (250 ns in the paper).
    pub link_latency: SimDuration,
    /// Per-packet header bytes (one 16 B flit in the paper).
    pub header_bytes: u64,
    /// Arbitration granularity: a link re-arbitrates across virtual
    /// channels every `segment_bytes` of payload.
    pub segment_bytes: u64,
    /// Separate virtual channels for load vs. reduction traffic
    /// (the CAIS traffic-control mechanism; off for all baselines).
    pub traffic_control: bool,
    /// When set, every link records a utilization time series with this
    /// bucket width (used by the Fig. 16 experiment).
    pub series_bucket: Option<SimDuration>,
    /// Fault-injection plan; the default plan injects nothing and leaves
    /// every result byte-identical to a fault-free build.
    pub faults: FaultPlan,
}

impl FabricConfig {
    /// DGX-H100-like defaults: 450 GB/s per GPU per direction split evenly
    /// over the planes, 250 ns link latency, 16 B headers.
    pub fn default_for(n_gpus: usize, n_planes: usize) -> FabricConfig {
        FabricConfig {
            n_gpus,
            n_planes,
            link_bw: Bandwidth::gbps(450.0).split(n_planes),
            link_latency: SimDuration::from_ns(250),
            header_bytes: 16,
            segment_bytes: 2048,
            traffic_control: false,
            series_bucket: None,
            faults: FaultPlan::default(),
        }
    }
}

/// Actions a [`SwitchLogic`] can take when handling a packet or timer.
#[derive(Debug)]
enum Action<P> {
    Forward(Packet<P>),
    Emit { src: GpuId, dst: GpuId, payload: P },
    Timer { at: SimTime, key: u64 },
}

/// Mutation interface handed to [`SwitchLogic`] callbacks.
///
/// Actions are applied by the fabric after the callback returns, in the
/// order they were issued.
#[derive(Debug)]
pub struct SwitchCtx<P> {
    plane: PlaneId,
    actions: Vec<Action<P>>,
}

impl<P> SwitchCtx<P> {
    /// The switch plane this callback runs on.
    pub fn plane(&self) -> PlaneId {
        self.plane
    }

    /// Forwards a packet along the standard route to its destination GPU.
    pub fn forward(&mut self, pkt: Packet<P>) {
        self.actions.push(Action::Forward(pkt));
    }

    /// Emits a new packet from the switch toward `dst`.
    ///
    /// `src` records which GPU the switch is acting on behalf of (e.g. the
    /// home GPU of merged load data) for diagnostics.
    pub fn emit(&mut self, src: GpuId, dst: GpuId, payload: P) {
        self.actions.push(Action::Emit { src, dst, payload });
    }

    /// Requests an [`SwitchLogic::on_timer`] callback at `at` with `key`.
    pub fn set_timer(&mut self, at: SimTime, key: u64) {
        self.actions.push(Action::Timer { at, key });
    }
}

/// In-switch computing hook: observes every packet arriving at a switch.
///
/// The same logic instance serves all planes; callbacks receive the plane
/// through [`SwitchCtx::plane`]. Implementations model per-plane state by
/// indexing on it.
pub trait SwitchLogic<P: Payload> {
    /// Called when `pkt` has fully arrived at the switch on `ctx.plane()`.
    ///
    /// The default router behaviour is `ctx.forward(pkt)`.
    fn on_packet(&mut self, now: SimTime, pkt: Packet<P>, ctx: &mut SwitchCtx<P>);

    /// Called when a timer set via [`SwitchCtx::set_timer`] fires.
    fn on_timer(&mut self, _now: SimTime, _key: u64, _ctx: &mut SwitchCtx<P>) {}

    /// Lists this logic's counters (merge hits, evictions, peak table
    /// occupancy, ...) once each, and reports its conservation ledgers
    /// and quiescence requirements to the auditor (see
    /// [`sim_core::audit`]). The engine's run report hands these counters
    /// out as its switch-logic statistics. Stateless logics have nothing
    /// to report.
    fn audit_probe(&self, _probe: &mut AuditProbe) {}
}

/// The trivial switch logic: forward every packet to its destination GPU.
#[derive(Debug, Clone, Copy, Default)]
pub struct PureRouter;

impl<P: Payload> SwitchLogic<P> for PureRouter {
    fn on_packet(&mut self, _now: SimTime, pkt: Packet<P>, ctx: &mut SwitchCtx<P>) {
        ctx.forward(pkt);
    }
}

/// Per-link fault state: an independent RNG stream (so fault timelines do
/// not depend on traffic on other links) and the link's degradation/outage
/// window schedules, phase-shifted per link.
#[derive(Debug)]
struct LinkFault {
    rng: JitterRng,
    degrade: Option<WindowSchedule>,
    down: Option<WindowSchedule>,
}

/// Fabric-wide fault-injection state; only constructed when the plan
/// configures at least one link-level fault, so the default plan keeps the
/// fabric on the exact pre-fault code path.
#[derive(Debug)]
struct FabricFaults {
    drop_rate: f64,
    corrupt_rate: f64,
    degrade_factor: f64,
    retx: sim_core::RetxConfig,
    links: Vec<LinkFault>,
    counters: ResilienceCounters,
}

impl FabricFaults {
    fn new(plan: &FaultPlan, n_links: usize) -> FabricFaults {
        let mut root = JitterRng::seed_from(plan.seed ^ 0x5EED_FA17);
        let links = (0..n_links)
            .map(|li| {
                let mut rng = root.fork(li as u64);
                let degrade = plan.degrade.as_ref().map(|d| {
                    let phase = SimDuration::from_ps(rng.next_below(d.period.as_ps()));
                    WindowSchedule::new(d.period, d.duration, phase)
                });
                let down = plan.link_down.as_ref().map(|d| {
                    let phase = SimDuration::from_ps(rng.next_below(d.period.as_ps()));
                    WindowSchedule::new(d.period, d.duration, phase)
                });
                LinkFault { rng, degrade, down }
            })
            .collect();
        FabricFaults {
            drop_rate: plan.drop_rate,
            corrupt_rate: plan.corrupt_rate,
            degrade_factor: plan.degrade.as_ref().map_or(1.0, |d| d.factor),
            retx: plan.retx.clone(),
            links,
            counters: ResilienceCounters::default(),
        }
    }

    /// Decides the fate of a packet whose final segment just left link
    /// `li`: `None` delivers it, `Some(backoff)` drops it and asks the
    /// caller to retransmit after `backoff`. One RNG draw per departure.
    ///
    /// `retx` is the packet's drop count on its current hop; it resets
    /// when the packet gets through. A packet that exhausts its
    /// retransmit budget is force-delivered so the simulation always
    /// terminates; the exhaustion is counted and the engine turns it into
    /// a typed error at the end of the run.
    fn departure_fate(&mut self, li: usize, retx: &mut u32) -> Option<SimDuration> {
        if self.drop_rate == 0.0 && self.corrupt_rate == 0.0 {
            return None;
        }
        let r = self.links[li].rng.next_f64();
        if r >= self.drop_rate + self.corrupt_rate {
            *retx = 0;
            return None;
        }
        *retx += 1;
        let attempt = *retx;
        if attempt > self.retx.max_retries {
            *retx = 0;
            self.counters.budget_exhausted += 1;
            return None;
        }
        let exp = (attempt - 1).min(self.retx.backoff_cap_exp);
        if r < self.drop_rate {
            self.counters.drops += 1;
        } else {
            self.counters.corruptions += 1;
        }
        self.counters.retries += 1;
        let backoff = self.retx.backoff_base * (1u64 << exp);
        self.counters.backoff_time += backoff;
        Some(backoff)
    }
}

#[derive(Debug)]
enum NetEvent<P> {
    LinkFree { li: usize, token: u64 },
    ArriveSwitch(Packet<P>),
    ArriveGpu(Packet<P>),
    Timer { plane: PlaneId, key: u64 },
}

/// Always-compiled conservation tallies for the fabric's packet ledgers
/// (see [`sim_core::audit`]): plain integer increments on paths that
/// already manipulate the counted packet, so they cost nothing
/// measurable whether auditing is enabled or not.
#[derive(Debug, Default)]
struct AuditTally {
    /// Packets placed on a link queue (injections, switch forwards/emits,
    /// and retransmission requeues).
    pkt_enqueued: u64,
    /// Packets whose final segment left a link (departures).
    pkt_served: u64,
    /// Departures turned into arrival events.
    arrivals_scheduled: u64,
    /// Arrival events dispatched (switch arrivals + GPU deliveries).
    arrivals_done: u64,
    /// Dropped departures put back on their link for retransmission.
    retx_requeued: u64,
    /// Dispatches whose timestamp regressed behind the fabric clock.
    clock_regressions: u64,
}

/// The interconnect simulator.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Fabric<P, L> {
    cfg: FabricConfig,
    links: Vec<Link<P>>,
    queue: EventQueue<NetEvent<P>>,
    logic: L,
    deliveries: Vec<Delivery<P>>,
    pkt_seq: u64,
    now: SimTime,
    /// Recycled action buffer for [`SwitchCtx`], so per-arrival logic
    /// callbacks don't allocate.
    scratch_actions: Vec<Action<P>>,
    /// Fault-injection state; `None` unless the plan configures link
    /// faults, keeping the fault-free fast path untouched.
    faults: Option<FabricFaults>,
    /// Conservation tallies (always maintained; checked on demand).
    audit: AuditTally,
    /// Bounded forensic event ring; `None` unless auditing is enabled.
    ring: Option<EventRing>,
    /// Link wakes parked and never redeemed: each is a `LinkFree` that
    /// would have found every VC empty.
    parked_wakes: u64,
    /// Schedule every link wake, as before parking: the reference the
    /// parked fabric must match.
    #[cfg(test)]
    eager: bool,
}

impl<P: Payload, L: SwitchLogic<P>> Fabric<P, L> {
    /// Creates a fabric with the given switch logic installed on every
    /// plane.
    pub fn new(cfg: FabricConfig, logic: L) -> Fabric<P, L> {
        assert!(cfg.n_gpus >= 2, "fabric needs at least two GPUs");
        assert!(cfg.n_planes >= 1, "fabric needs at least one plane");
        let vc_count = FlowClass::vc_count(cfg.traffic_control);
        let n_links = cfg.n_planes * cfg.n_gpus * 2;
        let links = (0..n_links)
            .map(|_| {
                Link::new(
                    cfg.link_bw,
                    cfg.link_latency,
                    cfg.header_bytes,
                    cfg.segment_bytes,
                    vc_count,
                    cfg.series_bucket,
                )
            })
            .collect();
        let faults = cfg
            .faults
            .link_faults_active()
            .then(|| FabricFaults::new(&cfg.faults, n_links));
        Fabric {
            cfg,
            links,
            queue: EventQueue::new(),
            logic,
            deliveries: Vec::new(),
            pkt_seq: 0,
            now: SimTime::ZERO,
            scratch_actions: Vec::new(),
            faults,
            audit: AuditTally::default(),
            ring: None,
            parked_wakes: 0,
            #[cfg(test)]
            eager: false,
        }
    }

    /// Enables the bounded forensic event ring, holding the last
    /// [`AUDIT_RING_CAPACITY`] dispatched events (rendered into audit and
    /// deadlock reports). Observe-only:
    /// the ring never influences event processing.
    pub fn enable_audit_ring(&mut self) {
        self.ring = Some(EventRing::new(AUDIT_RING_CAPACITY));
    }

    /// Renders the retained tail of the forensic event ring, oldest
    /// first; empty when the ring was never enabled.
    pub fn audit_recent_events(&self) -> Vec<String> {
        self.ring
            .as_ref()
            .map(EventRing::render)
            .unwrap_or_default()
    }

    /// Fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Access to the installed switch logic (e.g. to read merge-unit
    /// statistics after a run).
    pub fn logic(&self) -> &L {
        &self.logic
    }

    /// Mutable access to the installed switch logic.
    pub fn logic_mut(&mut self) -> &mut L {
        &mut self.logic
    }

    fn link_idx(&self, plane: PlaneId, gpu: GpuId, dir: Direction) -> usize {
        debug_assert!(plane.index() < self.cfg.n_planes, "plane out of range");
        debug_assert!(gpu.index() < self.cfg.n_gpus, "gpu out of range");
        (plane.index() * self.cfg.n_gpus + gpu.index()) * 2 + dir.index()
    }

    /// Injects a payload from `src` toward `dst` via `plane` at `time`.
    ///
    /// A link whose last serve left it empty has its next wake parked at a
    /// reserved queue position (DESIGN §8, "Engine stepping"). An
    /// injection redeems that position unless the fabric's clock has
    /// reached it, so the caller must first [`advance`](Self::advance) the
    /// fabric to the time it injects from, even when no event is due
    /// then; a future-stamped `time` is fine. The engine asserts this
    /// clock at every drain.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the fabric's current time, or if ids are
    /// out of range.
    pub fn inject(&mut self, time: SimTime, src: GpuId, dst: GpuId, plane: PlaneId, payload: P) {
        assert!(time >= self.now, "cannot inject into the past");
        let pkt = Packet {
            id: self.next_pkt_id(),
            src,
            dst,
            plane,
            hop: Hop::ToSwitch,
            retx: 0,
            payload,
        };
        // Callers inject either at the fabric's settled time (every link
        // event at `time` already fired) or at a future time, like the
        // engine's memory responses stamped `now + mem_read_latency`. A
        // future-stamped packet that queues behind a busy link is served
        // as soon as the link frees, even before its stamp; that is a
        // known defect, counted as `fabric.early_departures`.
        self.enqueue_on_link(time, pkt, true);
    }

    fn next_pkt_id(&mut self) -> u64 {
        let id = self.pkt_seq;
        self.pkt_seq += 1;
        id
    }

    fn enqueue_on_link(&mut self, time: SimTime, pkt: Packet<P>, now_settled: bool) {
        let (gpu, dir) = match pkt.hop {
            Hop::ToSwitch => (pkt.src, Direction::Up),
            Hop::ToGpu => (pkt.dst, Direction::Down),
        };
        let li = self.link_idx(pkt.plane, gpu, dir);
        let vc = pkt.payload.class().vc(self.cfg.traffic_control);
        let bytes = pkt.payload.data_bytes();
        self.audit.pkt_enqueued += 1;
        match self.links[li].enqueue(vc, pkt, bytes, time, now_settled) {
            EnqueueEffect::Pending => {}
            EnqueueEffect::Wake => self.wake_link(li, time, now_settled),
            // A coalesced burst was cut; its old event is now stale and the
            // link re-arbitrates at the cut boundary.
            EnqueueEffect::Preempted(cut) => self.push_link_free(li, cut),
        }
    }

    /// Wakes an idle link. A parked wake whose position has not passed is
    /// scheduled there, where the eager `LinkFree` would still be pending;
    /// otherwise the link serves at `time` (>= now, so causality holds).
    ///
    /// The position has passed once the fabric processed through it:
    /// between advances (`now_settled`) when it is at or before the clock,
    /// since every event up to the clock fired; inside a dispatch when it
    /// precedes the event being dispatched.
    fn wake_link(&mut self, li: usize, time: SimTime, now_settled: bool) {
        if let Some((at, seq)) = self.links[li].take_parked() {
            let passed = if now_settled {
                at <= self.now
            } else {
                (at, seq) < (self.now, self.queue.last_seq())
            };
            if !passed {
                self.parked_wakes -= 1;
                let token = self.links[li].token();
                self.queue
                    .push_reserved(at, seq, NetEvent::LinkFree { li, token });
                return;
            }
        }
        self.push_link_free(li, time);
    }

    /// Schedules the `LinkFree` that ends a non-burst serve at `at`, or,
    /// when the serve left every VC empty and that event would find
    /// nothing to do, parks it at the queue position it would take.
    fn link_free_after_serve(&mut self, li: usize, at: SimTime) {
        if self.links[li].has_work() || self.eager() {
            self.push_link_free(li, at);
        } else {
            self.parked_wakes += 1;
            let seq = self.queue.reserve();
            self.links[li].park(at, seq);
        }
    }

    /// Whether every link wake is scheduled, as before parking: only the
    /// tests' reference mode.
    fn eager(&self) -> bool {
        #[cfg(test)]
        return self.eager;
        #[cfg(not(test))]
        false
    }

    fn push_link_free(&mut self, li: usize, at: SimTime) {
        let token = self.links[li].token();
        self.queue.push(at, NetEvent::LinkFree { li, token });
    }

    fn push_arrival(&mut self, pkt: Packet<P>, arrive_at: SimTime) {
        self.audit.arrivals_scheduled += 1;
        let ev = match pkt.hop {
            Hop::ToSwitch => NetEvent::ArriveSwitch(pkt),
            Hop::ToGpu => NetEvent::ArriveGpu(pkt),
        };
        self.queue.push(arrive_at, ev);
    }

    /// Puts a dropped packet back at the head of its VC for a full
    /// retransmission and schedules the link to retry at `retry_at`
    /// (stop-and-wait: the link idles through the backoff). Head placement
    /// keeps per-VC FIFO order, so retransmission never reorders a flow.
    fn requeue_for_retx(&mut self, li: usize, pkt: Packet<P>, retry_at: SimTime) {
        let vc = pkt.payload.class().vc(self.cfg.traffic_control);
        let bytes = pkt.payload.data_bytes();
        self.audit.pkt_enqueued += 1;
        self.audit.retx_requeued += 1;
        self.links[li].requeue_front(vc, pkt, bytes);
        self.links[li].set_serving(true);
        self.push_link_free(li, retry_at);
    }

    fn serve_link(&mut self, li: usize, now: SimTime, token: u64) {
        if token != self.links[li].token() {
            // Superseded by a burst preemption.
            return;
        }
        if let Some((mut pkt, arrive_at)) = self.links[li].finish_burst(now) {
            self.audit.pkt_served += 1;
            let fate = self
                .faults
                .as_mut()
                .and_then(|f| f.departure_fate(li, &mut pkt.retx));
            if let Some(backoff) = fate {
                // The wire time was spent (busy/bytes already accounted by
                // the link) but the packet was lost: retransmit after the
                // backoff instead of serving the next packet.
                self.requeue_for_retx(li, pkt, now + backoff);
                return;
            }
            self.push_arrival(pkt, arrive_at);
        }
        // Transient outage and degradation windows are evaluated at serve
        // time: an outage defers the whole serve to the window's end (it
        // never cuts an in-flight serialization), a degradation window
        // stretches the transfer times of everything served inside it.
        let mut slowdown = 1.0f64;
        if let Some(f) = &mut self.faults {
            let lf = &f.links[li];
            if let Some(end) = lf.down.as_ref().and_then(|w| w.active_until(now)) {
                if self.links[li].has_work() {
                    f.counters.down_stalls += 1;
                    self.links[li].set_serving(true);
                    let at = end;
                    self.push_link_free(li, at);
                } else {
                    self.links[li].set_serving(false);
                }
                return;
            }
            if let Some(w) = &lf.degrade {
                if w.is_active(now) {
                    slowdown = f.degrade_factor;
                }
            }
            self.links[li].set_slowdown(slowdown);
        }
        match self.links[li].serve(now) {
            None => self.links[li].set_serving(false),
            Some(out) => {
                self.links[li].set_serving(true);
                if slowdown != 1.0 {
                    if let Some(f) = &mut self.faults {
                        f.counters.degraded_serves += 1;
                    }
                }
                if let Some((mut pkt, arrive_at)) = out.departed {
                    self.audit.pkt_served += 1;
                    let fate = self
                        .faults
                        .as_mut()
                        .and_then(|f| f.departure_fate(li, &mut pkt.retx));
                    if let Some(backoff) = fate {
                        self.requeue_for_retx(li, pkt, out.free_at + backoff);
                    } else {
                        self.link_free_after_serve(li, out.free_at);
                        self.push_arrival(pkt, arrive_at);
                    }
                } else {
                    self.push_link_free(li, out.free_at);
                }
            }
        }
    }

    fn run_logic<F>(&mut self, now: SimTime, plane: PlaneId, f: F)
    where
        F: FnOnce(&mut L, &mut SwitchCtx<P>),
    {
        let mut ctx = SwitchCtx {
            plane,
            actions: std::mem::take(&mut self.scratch_actions),
        };
        {
            let _prof = prof_scope(Subsystem::SwitchLogic);
            f(&mut self.logic, &mut ctx);
        }
        let mut actions = ctx.actions;
        for action in actions.drain(..) {
            match action {
                Action::Forward(mut pkt) => {
                    pkt.hop = Hop::ToGpu;
                    self.enqueue_on_link(now, pkt, false);
                }
                Action::Emit { src, dst, payload } => {
                    let pkt = Packet {
                        id: self.next_pkt_id(),
                        src,
                        dst,
                        plane,
                        hop: Hop::ToGpu,
                        retx: 0,
                        payload,
                    };
                    self.enqueue_on_link(now, pkt, false);
                }
                Action::Timer { at, key } => {
                    assert!(at >= now, "switch logic set a timer in the past");
                    self.queue.push(at, NetEvent::Timer { plane, key });
                }
            }
        }
        self.scratch_actions = actions;
    }

    fn dispatch(&mut self, time: SimTime, ev: NetEvent<P>) {
        if time < self.now {
            self.audit.clock_regressions += 1;
        }
        self.now = time;
        if let Some(ring) = &mut self.ring {
            let (what, a, b) = match &ev {
                NetEvent::LinkFree { li, token } => ("link.free", *li as u64, *token),
                NetEvent::ArriveSwitch(pkt) => ("arrive.switch", pkt.id, pkt.dst.0 as u64),
                NetEvent::ArriveGpu(pkt) => ("arrive.gpu", pkt.id, pkt.dst.0 as u64),
                NetEvent::Timer { plane, key } => ("switch.timer", plane.0 as u64, *key),
            };
            ring.record(time, what, a, b);
        }
        match ev {
            NetEvent::LinkFree { li, token } => self.serve_link(li, time, token),
            NetEvent::ArriveSwitch(pkt) => {
                self.audit.arrivals_done += 1;
                let plane = pkt.plane;
                self.run_logic(time, plane, |logic, ctx| logic.on_packet(time, pkt, ctx));
            }
            NetEvent::ArriveGpu(pkt) => {
                self.audit.arrivals_done += 1;
                self.deliveries.push(Delivery {
                    time,
                    src: pkt.src,
                    dst: pkt.dst,
                    plane: pkt.plane,
                    payload: pkt.payload,
                });
            }
            NetEvent::Timer { plane, key } => {
                self.run_logic(time, plane, |logic, ctx| logic.on_timer(time, key, ctx));
            }
        }
    }

    /// Timestamp of the next internal event, if any.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Processes every event scheduled at or before `until`.
    pub fn advance(&mut self, until: SimTime) {
        while let Some((t, ev)) = self.queue.pop_due(until) {
            self.dispatch(t, ev);
        }
        self.now = self.now.max(until);
    }

    /// Runs until no events remain. Returns the final simulation time.
    pub fn run_to_completion(&mut self) -> SimTime {
        while let Some((t, ev)) = self.queue.pop() {
            self.dispatch(t, ev);
        }
        self.now
    }

    /// Current fabric time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total network events processed so far (perf accounting).
    pub fn events_processed(&self) -> u64 {
        self.queue.pops()
    }

    /// High-water mark of the network event queue (perf accounting).
    pub fn queue_peak(&self) -> usize {
        self.queue.peak_len()
    }

    /// Takes all payloads delivered to GPUs since the last drain.
    pub fn drain_deliveries(&mut self) -> Vec<Delivery<P>> {
        std::mem::take(&mut self.deliveries)
    }

    /// True when deliveries are pending; lets drivers skip the drain
    /// swap in the hot loop when nothing arrived.
    pub fn has_deliveries(&self) -> bool {
        !self.deliveries.is_empty()
    }

    /// Like [`Fabric::drain_deliveries`], but swaps the deliveries into
    /// `out` (cleared first), handing the fabric `out`'s allocation to
    /// refill. Lets a driver recycle one scratch buffer across drains
    /// instead of re-growing a fresh `Vec` per cycle.
    pub fn drain_deliveries_into(&mut self, out: &mut Vec<Delivery<P>>) {
        out.clear();
        std::mem::swap(&mut self.deliveries, out);
    }

    /// Builds a usage report over the horizon `[0, horizon)`.
    pub fn report(&self, horizon: SimDuration) -> FabricReport {
        let mut usages = Vec::with_capacity(self.links.len());
        for plane in 0..self.cfg.n_planes {
            for gpu in 0..self.cfg.n_gpus {
                for dir in [Direction::Up, Direction::Down] {
                    let li = self.link_idx(PlaneId(plane as u16), GpuId(gpu as u16), dir);
                    let link = &self.links[li];
                    usages.push(LinkUsage {
                        plane: PlaneId(plane as u16),
                        gpu: GpuId(gpu as u16),
                        dir,
                        busy: link.busy_time(),
                        bytes: link.bytes_carried(),
                        packets: link.packets_carried(),
                        utilization: link.busy_time().ratio(horizon),
                        series: link.series().map(|s| s.samples()),
                    });
                }
            }
        }
        FabricReport {
            horizon,
            usages,
            events_saved: self.events_saved(),
            early_departures: self.early_departures(),
            resilience: self.resilience_counters().cloned().unwrap_or_default(),
        }
    }

    /// Link events avoided by segment coalescing, summed over all links.
    fn events_saved(&self) -> u64 {
        self.links.iter().map(Link::events_saved).sum()
    }

    /// Packets whose link serialization started before the time they were
    /// injected for, summed over all links (see [`Fabric::inject`]).
    fn early_departures(&self) -> u64 {
        self.links.iter().map(Link::early_departures).sum()
    }

    /// Fault-injection counters so far; `None` when link fault injection is
    /// disabled. Lets the engine check for retransmit-budget exhaustion
    /// without building a full report.
    pub fn resilience_counters(&self) -> Option<&ResilienceCounters> {
        self.faults.as_ref().map(|f| &f.counters)
    }

    /// Lists the fabric's counters and reports its conservation ledgers
    /// to the auditor. The installed switch logic has a probe of its own
    /// ([`SwitchLogic::audit_probe`]).
    ///
    /// Ledgers (see `DESIGN.md` §11):
    ///
    /// * every enqueued packet is either still queued on a link or has
    ///   departed (`enqueued == served + queued`), valid at any event
    ///   boundary — switch logic may legally absorb or mint packets, so
    ///   conservation is per link hop, not end to end;
    /// * every departure became an arrival event or a retransmission
    ///   requeue (`served == arrivals scheduled + retx requeues`);
    /// * the fabric clock never ran backwards.
    ///
    /// At quiescence additionally: event queue empty, no packet left on
    /// any link, every scheduled arrival dispatched, and deliveries
    /// drained.
    pub fn audit_probe(&self, probe: &mut AuditProbe) {
        let t = &self.audit;
        let queued: u64 = self.links.iter().map(|l| l.queue_len() as u64).sum();
        probe.counter("fabric.pkt_enqueued", t.pkt_enqueued as f64);
        probe.counter("fabric.pkt_served", t.pkt_served as f64);
        probe.counter("fabric.arrivals_scheduled", t.arrivals_scheduled as f64);
        probe.counter("fabric.arrivals_done", t.arrivals_done as f64);
        probe.counter("fabric.retx_requeued", t.retx_requeued as f64);
        probe.counter("fabric.queued_now", queued as f64);
        probe.counter("fabric.events_processed", self.queue.pops() as f64);
        probe.counter("fabric.early_departures", self.early_departures() as f64);
        probe.counter("fabric.events_saved", self.events_saved() as f64);
        probe.counter("fabric.parked_wakes", self.parked_wakes as f64);
        let r = self.resilience_counters().cloned().unwrap_or_default();
        probe.counter("fabric.drops", r.drops as f64);
        probe.counter("fabric.corruptions", r.corruptions as f64);
        probe.counter("fabric.retries", r.retries as f64);
        probe.counter("fabric.backoff_us", r.backoff_time.as_us_f64());
        probe.counter("fabric.budget_exhausted", r.budget_exhausted as f64);
        probe.counter("fabric.down_stalls", r.down_stalls as f64);
        probe.counter("fabric.degraded_serves", r.degraded_serves as f64);
        probe.ledger_with(
            "fabric",
            "pkt conservation: enqueued == served + queued",
            t.pkt_enqueued,
            t.pkt_served + queued,
            || {
                let busy = self.links.iter().filter(|l| l.queue_len() > 0).count();
                format!("{busy} link(s) hold queued packets")
            },
        );
        probe.ledger(
            "fabric",
            "departure conservation: served == arrivals scheduled + retx requeues",
            t.pkt_served,
            t.arrivals_scheduled + t.retx_requeued,
        );
        probe.ledger(
            "fabric",
            "monotonic clock: zero dispatch-time regressions",
            0,
            t.clock_regressions,
        );
        if probe.is_quiescence() {
            probe.require_zero(
                "fabric",
                "quiescence: event queue drained",
                self.queue.peek_time().is_some() as u64,
            );
            probe.require_zero("fabric", "quiescence: no packets queued on links", queued);
            probe.require_zero(
                "fabric",
                "quiescence: deliveries drained",
                self.deliveries.len() as u64,
            );
            probe.ledger(
                "fabric",
                "quiescence: every scheduled arrival dispatched",
                t.arrivals_scheduled,
                t.arrivals_done,
            );
        }
    }

    /// Test-only corruption hook: bumps the enqueued-packet tally without
    /// enqueuing anything, so the next audit check must report a
    /// `fabric` pkt-conservation violation. Proves the auditor catches
    /// real bookkeeping bugs; never called outside tests.
    #[doc(hidden)]
    pub fn audit_poke_pkt_enqueued(&mut self) {
        self.audit.pkt_enqueued += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Blob {
        bytes: u64,
        class: FlowClass,
    }

    impl Payload for Blob {
        fn data_bytes(&self) -> u64 {
            self.bytes
        }
        fn class(&self) -> FlowClass {
            self.class
        }
    }

    fn blob(bytes: u64) -> Blob {
        Blob {
            bytes,
            class: FlowClass::Bulk,
        }
    }

    fn cfg2() -> FabricConfig {
        FabricConfig {
            link_bw: Bandwidth::gbps(1.0), // 1 B/ns for easy arithmetic
            ..FabricConfig::default_for(2, 1)
        }
    }

    #[test]
    fn end_to_end_latency_two_hops() {
        let mut f = Fabric::new(cfg2(), PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(84));
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 1);
        // Up: (84+16) ns serialize + 250 ns; down: same again => 700 ns.
        assert_eq!(d[0].time, SimTime::from_ns(700));
        assert_eq!(d[0].src, GpuId(0));
        assert_eq!(d[0].dst, GpuId(1));
    }

    #[test]
    fn byte_conservation_across_links() {
        let mut f = Fabric::new(cfg2(), PureRouter);
        for i in 0..10 {
            f.inject(
                SimTime::from_ns(i * 5),
                GpuId(0),
                GpuId(1),
                PlaneId(0),
                blob(1000),
            );
        }
        f.run_to_completion();
        assert_eq!(f.drain_deliveries().len(), 10);
        let report = f.report(SimDuration::from_us(100));
        // Up link of gpu0 and down link of gpu1 each carried all packets.
        let up = report
            .usages()
            .iter()
            .find(|u| u.gpu == GpuId(0) && u.dir == Direction::Up)
            .unwrap();
        let down = report
            .usages()
            .iter()
            .find(|u| u.gpu == GpuId(1) && u.dir == Direction::Down)
            .unwrap();
        assert_eq!(up.bytes, 10 * 1016);
        assert_eq!(up.bytes, down.bytes);
        assert_eq!(up.packets, 10);
    }

    #[test]
    fn saturated_link_matches_bandwidth() {
        let mut f = Fabric::new(cfg2(), PureRouter);
        // 1 MB injected at t=0: serialization at 1 B/ns dominates.
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(1 << 20));
        let end = f.run_to_completion();
        let payload = (1 << 20) as f64;
        // Header overhead: one per packet (single packet here).
        let expect_ns = (payload + 16.0) * 2.0 + 500.0;
        let got_ns = end.as_ns() as f64;
        assert!(
            (got_ns - expect_ns).abs() < 2.0,
            "expected ~{expect_ns} ns got {got_ns} ns"
        );
    }

    #[test]
    fn coalescing_saves_events_without_changing_times() {
        // 1 MB over two hops: the per-segment model would cost one event
        // per 2048 B segment per hop; coalescing collapses each hop to one.
        let mut f = Fabric::new(cfg2(), PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(1 << 20));
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 1);
        // Same arrival as the per-segment walk: 2 x (1 MB + 16 B) + 500 ns.
        assert_eq!(d[0].time, SimTime::from_ns(2 * ((1 << 20) + 16) + 500));
        let segs_per_hop = (1u64 << 20).div_ceil(2048);
        let report = f.report(SimDuration::from_us(1));
        assert_eq!(report.events_saved(), 2 * (segs_per_hop - 1));
    }

    #[test]
    fn planes_are_independent_resources() {
        let cfg = FabricConfig {
            link_bw: Bandwidth::gbps(1.0),
            ..FabricConfig::default_for(2, 2)
        };
        let mut f = Fabric::new(cfg, PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(10_000));
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(1), blob(10_000));
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 2);
        // Both arrive at the same time: no shared serialization resource.
        assert_eq!(d[0].time, d[1].time);
    }

    #[test]
    fn custom_logic_can_multicast() {
        #[derive(Debug, Default)]
        struct McastAll {
            n_gpus: usize,
        }
        impl SwitchLogic<Blob> for McastAll {
            fn on_packet(&mut self, _now: SimTime, pkt: Packet<Blob>, ctx: &mut SwitchCtx<Blob>) {
                for g in 0..self.n_gpus {
                    if g != pkt.src.index() {
                        ctx.emit(pkt.src, GpuId(g as u16), pkt.payload.clone());
                    }
                }
            }
        }
        let cfg = FabricConfig::default_for(4, 1);
        let mut f = Fabric::new(cfg, McastAll { n_gpus: 4 });
        f.inject(SimTime::ZERO, GpuId(0), GpuId(0), PlaneId(0), blob(256));
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 3);
        let mut dsts: Vec<u16> = d.iter().map(|x| x.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![1, 2, 3]);
    }

    #[test]
    fn timer_fires() {
        #[derive(Debug, Default)]
        struct TimerLogic {
            fired_at: Option<SimTime>,
        }
        impl SwitchLogic<Blob> for TimerLogic {
            fn on_packet(&mut self, now: SimTime, pkt: Packet<Blob>, ctx: &mut SwitchCtx<Blob>) {
                ctx.set_timer(now + SimDuration::from_us(5), 42);
                ctx.forward(pkt);
            }
            fn on_timer(&mut self, now: SimTime, key: u64, _ctx: &mut SwitchCtx<Blob>) {
                assert_eq!(key, 42);
                self.fired_at = Some(now);
            }
        }
        let mut f = Fabric::new(cfg2(), TimerLogic::default());
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(64));
        f.run_to_completion();
        assert!(f.logic().fired_at.is_some());
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn inject_in_past_panics() {
        let mut f = Fabric::new(cfg2(), PureRouter);
        f.inject(
            SimTime::from_ns(100),
            GpuId(0),
            GpuId(1),
            PlaneId(0),
            blob(1),
        );
        f.run_to_completion();
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(1));
    }

    #[test]
    fn zero_fault_plan_changes_nothing() {
        // A non-default seed with all rates zero must not perturb timing:
        // no fault state is constructed at all.
        let mut cfg = cfg2();
        cfg.faults = sim_core::FaultPlan::default().with_seed(0xDEAD_BEEF);
        let mut f = Fabric::new(cfg, PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(84));
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d[0].time, SimTime::from_ns(700));
        assert!(f.resilience_counters().is_none());
        assert!(f.report(SimDuration::from_us(1)).resilience().is_clean());
    }

    #[test]
    fn drops_retransmit_until_delivered() {
        let mut cfg = cfg2();
        cfg.faults = sim_core::FaultPlan::default()
            .with_seed(7)
            .with_drop_rate(0.2)
            .with_corrupt_rate(0.05);
        let mut f = Fabric::new(cfg, PureRouter);
        for i in 0..40 {
            f.inject(
                SimTime::from_ns(i * 50),
                GpuId(0),
                GpuId(1),
                PlaneId(0),
                blob(100 + i),
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 40, "every packet must eventually deliver");
        let c = f.resilience_counters().unwrap();
        assert!(c.drops > 0, "0.2 drop rate over 80 hops must drop");
        assert!(c.corruptions > 0);
        assert_eq!(c.retries, c.drops + c.corruptions);
        assert!(c.backoff_time > SimDuration::ZERO);
        assert_eq!(c.budget_exhausted, 0);
        let report = f.report(SimDuration::from_us(100));
        assert_eq!(report.resilience(), c);
    }

    #[test]
    fn retransmission_preserves_per_flow_order() {
        // Same (src, dst, class) => same VC; head-of-VC requeue plus
        // stop-and-wait backoff must keep delivery order = injection order
        // under heavy loss, for any seed.
        for seed in 0..8 {
            let mut cfg = cfg2();
            cfg.faults = sim_core::FaultPlan::default()
                .with_seed(seed)
                .with_drop_rate(0.4);
            let mut f = Fabric::new(cfg, PureRouter);
            for i in 0..30 {
                f.inject(
                    SimTime::from_ns(i * 20),
                    GpuId(0),
                    GpuId(1),
                    PlaneId(0),
                    blob(1000 + i),
                );
            }
            f.run_to_completion();
            let d = f.drain_deliveries();
            assert_eq!(d.len(), 30);
            let seqs: Vec<u64> = d.iter().map(|x| x.payload.bytes).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted, "reordered under seed {seed}");
        }
    }

    #[test]
    fn exhausted_retransmit_budget_force_delivers() {
        // With drop_rate 1.0 every transmission fails; the budget bounds
        // the retries and the packet is force-delivered so the simulation
        // terminates (the engine surfaces the exhaustion as an error).
        let mut cfg = cfg2();
        cfg.faults = sim_core::FaultPlan::default()
            .with_seed(3)
            .with_drop_rate(1.0);
        let mut f = Fabric::new(cfg, PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(64));
        f.run_to_completion();
        assert_eq!(f.drain_deliveries().len(), 1);
        let c = f.resilience_counters().unwrap();
        // One exhaustion per hop (up link and down link).
        assert_eq!(c.budget_exhausted, 2);
        assert_eq!(c.drops, 2 * 8, "max_retries drops per hop");
    }

    #[test]
    fn deterministic_fault_timeline_per_seed() {
        let run = |seed: u64| {
            let mut cfg = cfg2();
            cfg.faults = sim_core::FaultPlan::default()
                .with_seed(seed)
                .with_drop_rate(0.25);
            let mut f = Fabric::new(cfg, PureRouter);
            for i in 0..20 {
                f.inject(
                    SimTime::from_ns(i * 100),
                    GpuId(0),
                    GpuId(1),
                    PlaneId(0),
                    blob(500),
                );
            }
            f.run_to_completion();
            let times: Vec<SimTime> = f.drain_deliveries().iter().map(|d| d.time).collect();
            (times, f.resilience_counters().unwrap().clone())
        };
        assert_eq!(run(11), run(11), "same seed must replay byte-identically");
        assert_ne!(run(11).0, run(12).0, "different seeds must diverge");
    }

    #[test]
    fn down_windows_stall_service() {
        let mut cfg = cfg2();
        cfg.faults =
            sim_core::FaultPlan::default()
                .with_seed(5)
                .with_link_down(sim_core::DownSpec {
                    period: SimDuration::from_us(1),
                    duration: SimDuration::from_ns(900),
                });
        let mut f = Fabric::new(cfg, PureRouter);
        for i in 0..10 {
            f.inject(
                SimTime::from_ns(i * 300),
                GpuId(0),
                GpuId(1),
                PlaneId(0),
                blob(84),
            );
        }
        let end = f.run_to_completion();
        assert_eq!(f.drain_deliveries().len(), 10);
        let c = f.resilience_counters().unwrap();
        assert!(c.down_stalls > 0, "90% outage duty cycle must stall serves");
        // Fault-free the last packet (injected at 2.7 us) lands by 3.4 us.
        assert!(
            end > SimTime::from_ns(3400),
            "outages must delay completion"
        );
    }

    #[test]
    fn degradation_windows_stretch_transfers() {
        let mut cfg = cfg2();
        cfg.faults =
            sim_core::FaultPlan::default()
                .with_seed(5)
                .with_degrade(sim_core::DegradeSpec {
                    factor: 4.0,
                    period: SimDuration::from_us(1),
                    duration: SimDuration::from_ns(999),
                });
        let mut f = Fabric::new(cfg, PureRouter);
        // Inject past every link's window phase (phases are drawn in
        // [0, period)), so both hops serve inside a degradation window.
        f.inject(
            SimTime::from_us(2),
            GpuId(0),
            GpuId(1),
            PlaneId(0),
            blob(84),
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 1);
        let c = f.resilience_counters().unwrap();
        assert!(c.degraded_serves > 0);
        // Both hops at quarter bandwidth: 2*(400 ns wire) + 500 ns latency.
        assert!(d[0].time > SimTime::from_us(2) + SimDuration::from_ns(700));
    }

    #[test]
    fn future_stamped_packet_behind_busy_link_departs_early() {
        // A 984 B packet holds gpu0's up link for 1.0 us. An 84 B packet
        // stamped 5.0 us queues behind it and is served when the link
        // frees at 1.0 us, so it lands at 2.6 us instead of 5.7 us.
        let alone = {
            let mut f = Fabric::new(cfg2(), PureRouter);
            f.inject(
                SimTime::from_us(5),
                GpuId(0),
                GpuId(1),
                PlaneId(0),
                blob(84),
            );
            f.run_to_completion();
            assert_eq!(f.early_departures(), 0);
            f.drain_deliveries()[0].time
        };
        assert_eq!(alone, SimTime::from_ns(5700));
        let mut f = Fabric::new(cfg2(), PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(984));
        f.inject(
            SimTime::from_us(5),
            GpuId(0),
            GpuId(1),
            PlaneId(0),
            blob(84),
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d[1].payload.bytes, 84);
        assert_eq!(d[1].time, SimTime::from_ns(2600));
        assert_eq!(f.early_departures(), 1);
        assert_eq!(f.report(SimDuration::from_us(6)).early_departures(), 1);
        let mut probe = AuditProbe::new(sim_core::AuditPhase::Cadence);
        f.audit_probe(&mut probe);
        let report = probe.into_report(f.now(), Vec::new());
        assert!(report.counters.contains(&("fabric.early_departures", 1.0)));
    }

    /// A payload with an id, so deliveries can be matched between runs.
    #[derive(Debug, Clone)]
    struct Tagged {
        id: u64,
        bytes: u64,
        class: FlowClass,
    }

    impl Payload for Tagged {
        fn data_bytes(&self) -> u64 {
            self.bytes
        }
        fn class(&self) -> FlowClass {
            self.class
        }
    }

    /// Switch logic for the lockstep test: forwards every packet, copies
    /// one in three to the next GPU as well, and for one in five sets a
    /// timer that sends a header-only packet back to the source. Copies
    /// and timers put several packets on one down link at one instant.
    struct Fanout {
        n_gpus: u16,
    }

    impl SwitchLogic<Tagged> for Fanout {
        fn on_packet(&mut self, now: SimTime, pkt: Packet<Tagged>, ctx: &mut SwitchCtx<Tagged>) {
            let id = pkt.payload.id;
            if id.is_multiple_of(3) {
                let dst = GpuId((pkt.dst.0 + 1) % self.n_gpus);
                let copy = Tagged {
                    id: id | 1 << 40,
                    ..pkt.payload.clone()
                };
                ctx.emit(pkt.src, dst, copy);
            }
            if id.is_multiple_of(5) {
                let at = now + SimDuration::from_ns(100 * (id / 5 % 3));
                ctx.set_timer(at, (pkt.src.0 as u64) << 48 | id);
            }
            ctx.forward(pkt);
        }

        fn on_timer(&mut self, _now: SimTime, key: u64, ctx: &mut SwitchCtx<Tagged>) {
            let src = GpuId((key >> 48) as u16);
            let ack = Tagged {
                id: key & ((1 << 48) - 1) | 1 << 41,
                bytes: 0,
                class: FlowClass::Sync,
            };
            ctx.emit(src, src, ack);
        }
    }

    /// One seeded run on 4 GPUs with traffic control on (so three VCs),
    /// `eager` or with parked wakes: rounds on a 100 ns grid inject
    /// packets whose one-segment serves end on that grid too, so
    /// injections land exactly on parked positions, and equal packets
    /// from several links meet at one switch at one instant (odd seeds
    /// use one plane of the two to crowd it). Larger packets burst
    /// and are cut when another VC enqueues; some are stamped in the
    /// future. Returns every delivery, then per-link and fault counters,
    /// with the events processed and the wakes parked.
    fn lockstep_run(seed: u64, faults: &FaultPlan, eager: bool) -> (Vec<String>, u64, u64) {
        const N: u16 = 4;
        let cfg = FabricConfig {
            link_bw: Bandwidth::gbps(1.0),
            traffic_control: true,
            faults: faults.clone(),
            ..FabricConfig::default_for(N as usize, 2)
        };
        let mut f = Fabric::new(cfg, Fanout { n_gpus: N });
        f.eager = eager;
        let mut rng = JitterRng::seed_from(0xFAB ^ seed);
        let mut log = Vec::new();
        let drain = |f: &mut Fabric<Tagged, Fanout>, log: &mut Vec<String>| {
            for d in f.drain_deliveries() {
                let (src, dst, plane) = (d.src.0, d.dst.0, d.plane.0);
                log.push(format!("{} {src}>{dst}@{plane} #{}", d.time, d.payload.id));
            }
        };
        let classes = [
            FlowClass::LoadReq,
            FlowClass::LoadResp,
            FlowClass::Reduce,
            FlowClass::Bulk,
        ];
        let mut t = SimTime::ZERO;
        let mut id = 0;
        for _ in 0..300 {
            t += SimDuration::from_ns(100 * rng.next_below(5));
            f.advance(t);
            drain(&mut f, &mut log);
            for _ in 0..rng.next_below(8) {
                let src = GpuId(rng.next_below(N as u64) as u16);
                let dst = GpuId(rng.next_below(N as u64) as u16);
                let plane = PlaneId(rng.next_below(seed % 2 + 1) as u16);
                let bytes = match rng.next_below(6) {
                    0..=3 => 100 * (1 + rng.next_below(2)) - 16,
                    4 => 2048 * (1 + rng.next_below(3)) + 84,
                    _ => 2048 - 16,
                };
                let class = classes[rng.next_below(4) as usize];
                let stamp = if rng.next_below(6) == 0 {
                    t + SimDuration::from_ns(100 * (1 + rng.next_below(20)))
                } else {
                    t
                };
                f.inject(stamp, src, dst, plane, Tagged { id, bytes, class });
                id += 1;
            }
        }
        f.run_to_completion();
        drain(&mut f, &mut log);
        let report = f.report(SimDuration::from_us(1));
        for u in report.usages() {
            log.push(format!(
                "{:?} {} {} {}",
                u.busy,
                u.bytes,
                u.packets,
                u.dir.index()
            ));
        }
        log.push(format!(
            "early {} saved {} {:?}",
            report.early_departures(),
            report.events_saved(),
            report.resilience()
        ));
        (log, f.events_processed(), f.parked_wakes)
    }

    #[test]
    fn parked_wakes_match_eager_wakes_delivery_for_delivery() {
        let window = |us: u64, ns: u64| (SimDuration::from_us(us), SimDuration::from_ns(ns));
        let (dp, dd) = window(2, 700);
        let (gp, gd) = window(3, 1_500);
        let plans = [
            FaultPlan::default(),
            FaultPlan::default().with_seed(3).with_drop_rate(0.15),
            FaultPlan::default()
                .with_seed(4)
                .with_link_down(sim_core::DownSpec {
                    period: dp,
                    duration: dd,
                }),
            FaultPlan::default()
                .with_seed(5)
                .with_degrade(sim_core::DegradeSpec {
                    factor: 3.0,
                    period: gp,
                    duration: gd,
                }),
        ];
        let mut parked = 0;
        for seed in 0..12 {
            for plan in &plans {
                let (want, eager_events, none) = lockstep_run(seed, plan, true);
                let (got, events, p) = lockstep_run(seed, plan, false);
                assert_eq!(none, 0);
                assert_eq!(got.len(), want.len(), "seed {seed} {plan:?}");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g, w, "seed {seed} line {i} {plan:?}");
                }
                assert_eq!(eager_events, events + p, "seed {seed} {plan:?}");
                parked += p;
            }
        }
        assert!(parked > 1000, "only {parked} wakes parked");
    }

    #[test]
    fn advance_stops_at_horizon() {
        let mut f = Fabric::new(cfg2(), PureRouter);
        f.inject(SimTime::ZERO, GpuId(0), GpuId(1), PlaneId(0), blob(84));
        f.advance(SimTime::from_ns(300));
        assert!(f.drain_deliveries().is_empty());
        assert!(f.next_time().is_some());
        f.advance(SimTime::from_ns(700));
        assert_eq!(f.drain_deliveries().len(), 1);
    }
}
