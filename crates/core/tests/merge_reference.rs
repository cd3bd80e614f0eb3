//! A deliberately naive reference merge unit, and a schedule fuzzer that
//! drives it in lockstep with the real [`MergeUnit`].
//!
//! The reference keeps every session of every port in one `Vec` and
//! finds them by linear search: no address index, no arena, no inline
//! lists, no incrementally tracked occupancy. It has the real unit's
//! public entry points and must produce the same actions, in the same
//! order, and the same [`MergeStats`] after every call.
//!
//! The fuzzer feeds both units seeded [`JitterRng`] interleavings of
//! load requests, load responses (drawn in random order from the
//! multiset of fetches in flight, which stands in for the home GPUs),
//! reductions with one or more contributions, timeout sweeps and entry
//! faults, over `n_gpus ∈ {2, 4, 8, 32}` and tables small enough to force
//! eviction and bypass. After draining every case it checks that every
//! requester was answered exactly once, every contribution flushed
//! exactly once, one credit returned per contribution, and both units
//! quiescent.

use cais_core::merge::{MergeAction, MergeConfig, MergeStats, MergeUnit, Waiter};
use sim_core::rng::JitterRng;
use sim_core::{Addr, AuditPhase, AuditProbe, GpuId, PlaneId, SimDuration, SimTime, TbId, TileId};
use std::collections::HashMap;

type PortKey = (PlaneId, GpuId);

fn port_of(plane: PlaneId, addr: Addr) -> PortKey {
    (plane, addr.home_gpu())
}

#[derive(Debug)]
enum Kind {
    LoadWait(Vec<Waiter>),
    LoadReady,
    Reduction {
        contribs: u32,
        contributors: Vec<GpuId>,
        tile: Option<TileId>,
    },
}

#[derive(Debug)]
struct Session {
    plane: PlaneId,
    addr: Addr,
    kind: Kind,
    bytes: u64,
    occupancy: u64,
    count: u32,
    first_request: SimTime,
    last_request: SimTime,
    last_access: SimTime,
}

impl Session {
    fn port(&self) -> PortKey {
        port_of(self.plane, self.addr)
    }

    fn is_load_wait(&self) -> bool {
        matches!(self.kind, Kind::LoadWait(_))
    }
}

/// The reference merge unit.
struct RefMergeUnit {
    cfg: MergeConfig,
    sessions: Vec<Session>,
    /// Participants already served or flushed for `(plane, addr)` by
    /// sessions that were evicted before completing.
    history: Vec<(PlaneId, Addr, u32)>,
    /// One element per fetch in flight that no Load-Wait session owns.
    unowned: Vec<(PlaneId, Addr)>,
    /// Cumulative entry faults per port.
    faults: Vec<(PortKey, u32)>,
    /// Ports degraded to the unmerged path.
    degraded: Vec<PortKey>,
    stats: MergeStats,
}

impl RefMergeUnit {
    fn new(cfg: MergeConfig) -> RefMergeUnit {
        RefMergeUnit {
            cfg,
            sessions: Vec::new(),
            history: Vec::new(),
            unowned: Vec::new(),
            faults: Vec::new(),
            degraded: Vec::new(),
            stats: MergeStats::default(),
        }
    }

    fn full(&self) -> u32 {
        self.cfg.n_gpus as u32 - 1
    }

    fn find(&self, plane: PlaneId, addr: Addr) -> Option<usize> {
        self.sessions
            .iter()
            .position(|s| s.plane == plane && s.addr == addr)
    }

    fn prior(&self, plane: PlaneId, addr: Addr) -> u32 {
        self.history
            .iter()
            .find(|(p, a, _)| *p == plane && *a == addr)
            .map_or(0, |h| h.2)
    }

    fn note_peak(&mut self, port: PortKey) {
        let on_port = || self.sessions.iter().filter(|s| s.port() == port);
        let total: u64 = on_port().map(|s| s.occupancy).sum();
        if total > self.stats.peak_port_occupancy {
            let reduce: u64 = on_port()
                .filter(|s| matches!(s.kind, Kind::Reduction { .. }))
                .map(|s| s.occupancy)
                .sum();
            self.stats.peak_port_occupancy = total;
            self.stats.peak_reduce_bytes = reduce;
            self.stats.peak_load_bytes = total - reduce;
        }
    }

    fn forward(&mut self, waiter: Waiter, addr: Addr, bytes: u64, out: &mut Vec<MergeAction>) {
        self.stats.loads_forwarded += 1;
        out.push(MergeAction::ForwardLoad {
            waiter,
            addr,
            bytes,
        });
    }

    fn forward_unowned(
        &mut self,
        plane: PlaneId,
        waiter: Waiter,
        addr: Addr,
        bytes: u64,
        out: &mut Vec<MergeAction>,
    ) {
        self.unowned.push((plane, addr));
        self.forward(waiter, addr, bytes, out);
    }

    fn flush_through(
        &mut self,
        addr: Addr,
        bytes: u64,
        src: GpuId,
        contribs: u32,
        tile: Option<TileId>,
        out: &mut Vec<MergeAction>,
    ) {
        self.stats.reduce_flushes += 1;
        out.push(MergeAction::FlushReduce {
            addr,
            bytes,
            contribs,
            tile,
        });
        out.push(MergeAction::GrantCredit { gpu: src });
    }

    fn open(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        need: u64,
        kind: Kind,
    ) {
        self.sessions.push(Session {
            plane,
            addr,
            kind,
            bytes,
            occupancy: need,
            count: 1,
            first_request: now,
            last_request: now,
            last_access: now,
        });
        self.note_peak(port_of(plane, addr));
        self.stats.sessions_opened += 1;
    }

    fn on_load_req(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        waiter: Waiter,
        out: &mut Vec<MergeAction>,
    ) {
        self.stats.load_requests += 1;
        let (full, prior, port) = (self.full(), self.prior(plane, addr), port_of(plane, addr));
        if let Some(i) = self.find(plane, addr) {
            let s = &mut self.sessions[i];
            s.count += 1;
            s.last_request = now;
            s.last_access = now;
            match &mut s.kind {
                Kind::LoadWait(waiters) => {
                    waiters.push(waiter);
                    self.stats.loads_merged += 1;
                }
                Kind::LoadReady => {
                    self.stats.loads_merged += 1;
                    out.push(MergeAction::RespondLoad {
                        waiter,
                        addr,
                        bytes,
                    });
                    if s.count + prior >= full {
                        self.release(i);
                    }
                }
                Kind::Reduction { .. } => {
                    self.stats.bypasses += 1;
                    self.forward_unowned(plane, waiter, addr, bytes, out);
                }
            }
            return;
        }
        if self.degraded.contains(&port) {
            self.stats.degraded_bypasses += 1;
            self.forward_unowned(plane, waiter, addr, bytes, out);
            return;
        }
        let need = self.cfg.entry_overhead_bytes;
        if self.unowned.contains(&(plane, addr)) || !self.make_room(port, need, out) {
            self.stats.bypasses += 1;
            self.forward_unowned(plane, waiter, addr, bytes, out);
            return;
        }
        self.open(now, plane, addr, bytes, need, Kind::LoadWait(vec![waiter]));
        self.forward(waiter, addr, bytes, out);
    }

    fn on_load_resp(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        out: &mut Vec<MergeAction>,
    ) -> bool {
        let (full, prior, port) = (self.full(), self.prior(plane, addr), port_of(plane, addr));
        let load_wait = self
            .find(plane, addr)
            .filter(|&i| self.sessions[i].is_load_wait());
        let Some(i) = load_wait else {
            // Nobody owns this fetch: it passes through.
            if let Some(u) = self.unowned.iter().position(|&u| u == (plane, addr)) {
                self.unowned.swap_remove(u);
            }
            return false;
        };
        if let Kind::LoadWait(waiters) = &mut self.sessions[i].kind {
            for w in std::mem::take(waiters) {
                out.push(MergeAction::RespondLoad {
                    waiter: w,
                    addr,
                    bytes,
                });
            }
        }
        self.sessions[i].last_access = now;
        if self.sessions[i].count + prior >= full {
            self.release(i);
            return true;
        }
        // Make room for the data while the session is still Load-Wait,
        // so it cannot be its own victim.
        let fits = self.make_room(port, bytes, out);
        let i = self.find(plane, addr).expect("load-wait sessions stay");
        self.sessions[i].kind = Kind::LoadReady;
        if fits {
            self.sessions[i].occupancy += bytes;
            self.note_peak(port);
        } else {
            self.stats.evictions_lru += 1;
            self.evict(i, out);
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn on_reduce(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        src: GpuId,
        contribs: u32,
        tile: Option<TileId>,
        out: &mut Vec<MergeAction>,
    ) {
        self.stats.reduce_contribs += u64::from(contribs);
        let (full, prior, port) = (self.full(), self.prior(plane, addr), port_of(plane, addr));
        if let Some(i) = self.find(plane, addr) {
            let s = &mut self.sessions[i];
            let Kind::Reduction {
                contribs: acc,
                contributors,
                tile: session_tile,
            } = &mut s.kind
            else {
                self.stats.bypasses += 1;
                self.flush_through(addr, bytes, src, contribs, tile, out);
                return;
            };
            *acc += contribs;
            contributors.push(src);
            s.count += 1;
            s.last_request = now;
            s.last_access = now;
            if *acc + prior >= full {
                out.push(MergeAction::FlushReduce {
                    addr,
                    bytes: s.bytes,
                    contribs: *acc,
                    tile: *session_tile,
                });
                for &gpu in contributors.iter() {
                    out.push(MergeAction::GrantCredit { gpu });
                }
                self.stats.reduce_flushes += 1;
                self.release(i);
            }
            return;
        }
        if self.degraded.contains(&port) {
            self.stats.degraded_bypasses += 1;
            self.flush_through(addr, bytes, src, contribs, tile, out);
            return;
        }
        let need = self.cfg.entry_overhead_bytes + bytes;
        if !self.make_room(port, need, out) {
            self.stats.bypasses += 1;
            self.flush_through(addr, bytes, src, contribs, tile, out);
            return;
        }
        let kind = Kind::Reduction {
            contribs,
            contributors: vec![src],
            tile,
        };
        self.open(now, plane, addr, bytes, need, kind);
        if contribs + prior >= full {
            self.flush_through(addr, bytes, src, contribs, tile, out);
            let i = self.find(plane, addr).expect("just opened");
            self.release(i);
        }
    }

    /// Sessions on `plane`, in the real unit's walk order: by port, then
    /// by address.
    fn on_plane(&self, plane: PlaneId) -> Vec<Addr> {
        let mut addrs: Vec<Addr> = self
            .sessions
            .iter()
            .filter(|s| s.plane == plane)
            .map(|s| s.addr)
            .collect();
        addrs.sort_by_key(|a| (a.home_gpu(), *a));
        addrs
    }

    fn sweep(&mut self, now: SimTime, plane: PlaneId, out: &mut Vec<MergeAction>) -> bool {
        let timeout = self.cfg.timeout;
        let idle = |s: &Session| now.saturating_since(s.last_access) > timeout;
        for addr in self.on_plane(plane) {
            let i = self.find(plane, addr).expect("listed");
            if idle(&self.sessions[i]) && !self.sessions[i].is_load_wait() {
                self.stats.evictions_timeout += 1;
                self.evict(i, out);
            }
        }
        self.sessions
            .iter()
            .any(|s| s.plane == plane && (!s.is_load_wait() || !idle(s)))
    }

    fn inject_entry_faults(
        &mut self,
        plane: PlaneId,
        rng: &mut JitterRng,
        out: &mut Vec<MergeAction>,
    ) {
        let rate = self.cfg.entry_fault_rate;
        if rate <= 0.0 {
            return;
        }
        for addr in self.on_plane(plane) {
            if rng.next_f64() >= rate {
                continue;
            }
            let port = port_of(plane, addr);
            self.stats.entry_faults += 1;
            let faults = match self.faults.iter_mut().find(|(p, _)| *p == port) {
                Some((_, n)) => {
                    *n += 1;
                    *n
                }
                None => {
                    self.faults.push((port, 1));
                    1
                }
            };
            let i = self.find(plane, addr).expect("listed");
            let bytes = self.sessions[i].bytes;
            if let Kind::LoadWait(waiters) = &mut self.sessions[i].kind {
                // The opener's fetch is in flight; the others refetch.
                let waiters = std::mem::take(waiters);
                self.unowned.push((plane, addr));
                for &w in &waiters[1..] {
                    self.forward_unowned(plane, w, addr, bytes, out);
                }
            }
            self.evict(i, out);
            if faults >= self.cfg.degrade_threshold && !self.degraded.contains(&port) {
                self.degraded.push(port);
                self.stats.degraded_ports += 1;
            }
        }
    }

    fn make_room(&mut self, port: PortKey, need: u64, out: &mut Vec<MergeAction>) -> bool {
        let Some(cap) = self.cfg.table_bytes_per_port else {
            return true;
        };
        if need > cap {
            return false;
        }
        loop {
            let used: u64 = self
                .sessions
                .iter()
                .filter(|s| s.port() == port)
                .map(|s| s.occupancy)
                .sum();
            if used + need <= cap {
                return true;
            }
            let victim = (0..self.sessions.len())
                .filter(|&i| self.sessions[i].port() == port && !self.sessions[i].is_load_wait())
                .min_by_key(|&i| (self.sessions[i].last_access, self.sessions[i].addr));
            let Some(i) = victim else {
                return false;
            };
            self.stats.evictions_lru += 1;
            self.evict(i, out);
        }
    }

    fn evict(&mut self, i: usize, out: &mut Vec<MergeAction>) {
        self.stats.sessions_evicted += 1;
        let s = self.sessions.remove(i);
        let progress = match &s.kind {
            Kind::Reduction {
                contribs,
                contributors,
                tile,
            } => {
                out.push(MergeAction::FlushReduce {
                    addr: s.addr,
                    bytes: s.bytes,
                    contribs: *contribs,
                    tile: *tile,
                });
                self.stats.reduce_flushes += 1;
                for &gpu in contributors {
                    out.push(MergeAction::GrantCredit { gpu });
                }
                *contribs
            }
            Kind::LoadWait(_) | Kind::LoadReady => s.count,
        };
        match self
            .history
            .iter_mut()
            .find(|(p, a, _)| *p == s.plane && *a == s.addr)
        {
            Some(h) => h.2 += progress,
            None => self.history.push((s.plane, s.addr, progress)),
        }
        self.retire(s);
    }

    fn release(&mut self, i: usize) {
        self.stats.sessions_closed += 1;
        let s = self.sessions.remove(i);
        self.history
            .retain(|(p, a, _)| (*p, *a) != (s.plane, s.addr));
        self.retire(s);
    }

    fn retire(&mut self, s: Session) {
        if s.count >= 2 {
            self.stats.spread_sum_ps += s.last_request.since(s.first_request).as_ps() as u128;
            self.stats.spread_count += 1;
        }
    }
}

// ---------------------------------------------------------------------
// The lockstep fuzzer.
// ---------------------------------------------------------------------

/// A fetch the home GPU will answer: its response carries `waiter`.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    plane: PlaneId,
    addr: Addr,
    bytes: u64,
    waiter: Waiter,
}

/// Both units, the fetches in flight, and the tallies the invariants
/// are checked against.
struct Lockstep {
    real: MergeUnit,
    reference: RefMergeUnit,
    real_faults: JitterRng,
    ref_faults: JitterRng,
    now: SimTime,
    fetches: Vec<Fetch>,
    /// Per requester (indexed by `TbId`): answers received.
    answers: Vec<u32>,
    /// Per `(plane, addr)`: contributions sent in, and flushed out.
    contributed: HashMap<(PlaneId, Addr), u64>,
    flushed: HashMap<(PlaneId, Addr), u64>,
    /// Per GPU: reduction messages sent, and credits returned.
    reductions: HashMap<GpuId, u64>,
    credits: HashMap<GpuId, u64>,
    /// The last few events, for the failure report.
    log: Vec<String>,
}

impl Lockstep {
    fn new(cfg: MergeConfig, fault_seed: u64) -> Lockstep {
        Lockstep {
            real: MergeUnit::new(cfg.clone()),
            reference: RefMergeUnit::new(cfg),
            real_faults: JitterRng::seed_from(fault_seed),
            ref_faults: JitterRng::seed_from(fault_seed),
            now: SimTime::ZERO,
            fetches: Vec::new(),
            answers: Vec::new(),
            contributed: HashMap::new(),
            flushed: HashMap::new(),
            reductions: HashMap::new(),
            credits: HashMap::new(),
            log: Vec::new(),
        }
    }

    fn note(&mut self, event: String) {
        if self.log.len() == 12 {
            self.log.remove(0);
        }
        self.log.push(format!("@{} {event}", self.now));
    }

    /// Compares one call's results on the two units, then applies the
    /// (identical) actions to the world.
    fn settle(
        &mut self,
        plane: PlaneId,
        real: Vec<MergeAction>,
        reference: Vec<MergeAction>,
    ) -> Result<(), String> {
        if real != reference {
            return Err(format!(
                "actions differ\n  real:      {real:?}\n  reference: {reference:?}"
            ));
        }
        if self.real.stats() != &self.reference.stats {
            return Err(format!(
                "stats differ\n  real:      {:?}\n  reference: {:?}",
                self.real.stats(),
                self.reference.stats
            ));
        }
        for action in real {
            match action {
                MergeAction::ForwardLoad {
                    waiter,
                    addr,
                    bytes,
                } => self.fetches.push(Fetch {
                    plane,
                    addr,
                    bytes,
                    waiter,
                }),
                MergeAction::RespondLoad { waiter, .. } => self.answer(waiter),
                MergeAction::FlushReduce { addr, contribs, .. } => {
                    *self.flushed.entry((plane, addr)).or_default() += u64::from(contribs);
                }
                MergeAction::GrantCredit { gpu } => *self.credits.entry(gpu).or_default() += 1,
            }
        }
        Ok(())
    }

    fn answer(&mut self, waiter: Waiter) {
        self.answers[waiter.tb.0 as usize] += 1;
    }

    fn load(
        &mut self,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        requester: GpuId,
    ) -> Result<(), String> {
        let waiter = Waiter {
            requester,
            tb: TbId(self.answers.len() as u64),
            tile: Some(TileId(addr.offset())),
        };
        self.answers.push(0);
        self.note(format!("load {addr} by {requester} ({:?})", waiter.tb));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.real
            .on_load_req(self.now, plane, addr, bytes, waiter, &mut a);
        self.reference
            .on_load_req(self.now, plane, addr, bytes, waiter, &mut b);
        self.settle(plane, a, b)
    }

    /// Delivers the response of in-flight fetch `i`. A response no
    /// session consumes passes through to its own requester.
    fn respond(&mut self, i: usize) -> Result<(), String> {
        let f = self.fetches.swap_remove(i);
        self.note(format!("response {} for {:?}", f.addr, f.waiter.tb));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let consumed = self
            .real
            .on_load_resp(self.now, f.plane, f.addr, f.bytes, &mut a);
        let ref_consumed = self
            .reference
            .on_load_resp(self.now, f.plane, f.addr, f.bytes, &mut b);
        if consumed != ref_consumed {
            return Err(format!(
                "response consumed: real {consumed}, reference {ref_consumed}"
            ));
        }
        if !consumed {
            self.answer(f.waiter);
        }
        self.settle(f.plane, a, b)
    }

    fn reduce(
        &mut self,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        src: GpuId,
        contribs: u32,
    ) -> Result<(), String> {
        self.note(format!("reduce {addr} x{contribs} from {src}"));
        *self.contributed.entry((plane, addr)).or_default() += u64::from(contribs);
        *self.reductions.entry(src).or_default() += 1;
        let tile = Some(TileId(addr.offset()));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.real
            .on_reduce(self.now, plane, addr, bytes, src, contribs, tile, &mut a);
        self.reference
            .on_reduce(self.now, plane, addr, bytes, src, contribs, tile, &mut b);
        self.settle(plane, a, b)
    }

    fn sweep(&mut self, plane: PlaneId) -> Result<(), String> {
        self.note(format!("sweep {plane:?}"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let remain = self.real.sweep(self.now, plane, &mut a);
        let ref_remain = self.reference.sweep(self.now, plane, &mut b);
        if remain != ref_remain {
            return Err(format!(
                "sweep remain: real {remain}, reference {ref_remain}"
            ));
        }
        self.settle(plane, a, b)
    }

    fn fault(&mut self, plane: PlaneId) -> Result<(), String> {
        self.note(format!("entry faults {plane:?}"));
        let (mut a, mut b) = (Vec::new(), Vec::new());
        self.real
            .inject_entry_faults(plane, &mut self.real_faults, &mut a);
        self.reference
            .inject_entry_faults(plane, &mut self.ref_faults, &mut b);
        self.settle(plane, a, b)
    }

    /// Delivers every fetch in flight, then sweeps once past the
    /// timeout, and checks the four invariants.
    fn drain(
        &mut self,
        rng: &mut JitterRng,
        planes: u16,
        timeout: SimDuration,
    ) -> Result<(), String> {
        while !self.fetches.is_empty() {
            self.now += SimDuration::from_ns(rng.next_below(50));
            let i = rng.next_below(self.fetches.len() as u64) as usize;
            self.respond(i)?;
        }
        self.now += timeout + SimDuration::from_ns(1);
        for p in 0..planes {
            self.sweep(PlaneId(p))?;
        }

        if let Some(tb) = self.answers.iter().position(|&n| n == 0) {
            return Err(format!("lost requester: TbId({tb}) never answered"));
        }
        if let Some(tb) = self.answers.iter().position(|&n| n > 1) {
            return Err(format!(
                "requester TbId({tb}) answered {} times",
                self.answers[tb]
            ));
        }
        if self.flushed != self.contributed {
            return Err(format!(
                "contributions: {:?} sent, {:?} flushed",
                self.contributed, self.flushed
            ));
        }
        if self.reductions != self.credits {
            return Err(format!(
                "credits: {:?} reductions sent, {:?} credits returned",
                self.reductions, self.credits
            ));
        }
        if self.real.has_entries() || !self.reference.sessions.is_empty() {
            return Err("sessions survive the drain".into());
        }
        if !self.reference.unowned.is_empty() {
            return Err("reference: unowned fetches survive the drain".into());
        }
        let mut probe = AuditProbe::new(AuditPhase::Quiescence);
        self.real.audit_probe(&mut probe);
        if probe.has_violations() {
            return Err(format!("audit at quiescence: {:?}", probe.violations()));
        }
        Ok(())
    }
}

/// One random configuration: GPU count, table size (unbounded, a few
/// entries of metadata only, or a few data entries), timeout and fault
/// pressure.
fn config(rng: &mut JitterRng) -> MergeConfig {
    let n_gpus = [2, 4, 8, 32][rng.next_below(4) as usize];
    let table_bytes_per_port = match rng.next_below(3) {
        0 => None,
        1 => Some(32 + rng.next_below(160)),
        _ => Some(1024 + rng.next_below(8 * 1024)),
    };
    let entry_fault_rate = if rng.next_below(2) == 0 {
        0.0
    } else {
        0.02 + 0.4 * rng.next_f64()
    };
    MergeConfig {
        n_gpus,
        table_bytes_per_port,
        entry_overhead_bytes: 16,
        timeout: SimDuration::from_ns(300 + rng.next_below(4_000)),
        entry_fault_rate,
        degrade_threshold: 1 + rng.next_below(12) as u32,
    }
}

/// Runs one fuzz case; `Err` names the first divergence or broken
/// invariant, with the events leading up to it.
fn run_case(seed: u64) -> Result<(), String> {
    let mut rng = JitterRng::seed_from(seed);
    let cfg = config(&mut rng);
    let n = cfg.n_gpus as u64;
    let timeout = cfg.timeout;
    let planes = 1 + rng.next_below(2) as u16;
    let homes = n.min(3);
    let offsets = 2 + rng.next_below(5);
    let steps = 100 + rng.next_below(300);
    let mut w = Lockstep::new(cfg, rng.next_u64());

    let run = |w: &mut Lockstep, rng: &mut JitterRng| -> Result<(), String> {
        for _ in 0..steps {
            w.now += SimDuration::from_ns(rng.next_below(300));
            let plane = PlaneId(rng.next_below(u64::from(planes)) as u16);
            let home = rng.next_below(homes);
            let k = rng.next_below(offsets);
            let addr = Addr::new(GpuId(home as u16), k * 0x1000);
            // 256 B, 1 KiB or 4 KiB per address, fixed per address.
            let bytes = 256 << (2 * (k % 3));
            let other = GpuId(((home + 1 + rng.next_below(n - 1)) % n) as u16);
            match rng.next_below(100) {
                0..=34 => w.load(plane, addr, bytes, other)?,
                35..=59 if !w.fetches.is_empty() => {
                    let i = rng.next_below(w.fetches.len() as u64) as usize;
                    w.respond(i)?;
                }
                35..=84 => {
                    let contribs = if rng.next_below(4) == 0 {
                        2 + rng.next_below(3) as u32
                    } else {
                        1
                    };
                    w.reduce(plane, addr, bytes, other, contribs)?;
                }
                85..=92 => w.sweep(plane)?,
                _ => w.fault(plane)?,
            }
        }
        w.drain(rng, planes, timeout)
    };
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut w, &mut rng)))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("panic: {msg}"))
        });
    result.map_err(|e| {
        format!(
            "seed {seed:#x}: {e}\n  recent events:\n    {}",
            w.log.join("\n    ")
        )
    })
}

fn sweep_seeds(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        if let Err(e) = run_case(seed) {
            panic!("{e}");
        }
    }
}

/// Tier-1: 3,000 cases, about two seconds in the debug profile.
#[test]
fn real_unit_matches_reference_in_lockstep() {
    sweep_seeds(0..3_000);
}

/// The long sweep, run in release by the CI chaos job.
#[test]
#[ignore]
fn real_unit_matches_reference_long_sweep() {
    sweep_seeds(3_000..200_000);
}
