//! The in-switch merge unit (paper Figs. 5–6).
//!
//! One merge unit serves each switch port (the egress toward an
//! address's home GPU). It consists of a CAM lookup keyed on
//! `(address, request type)` and a Merging Table holding per-session
//! state: `Load-Wait` (fetch outstanding, requesters queued),
//! `Load-Ready` (data cached, later requesters served from the switch)
//! and `Reduction` (partial sum accumulating). LRU eviction and a
//! timeout-based forward-progress mechanism bound the table.

use sim_core::rng::JitterRng;
use sim_core::{Addr, FastHash, GpuId, PlaneId, SimDuration, SimTime, TbId, TileId};
use std::collections::{BTreeMap, HashMap};

/// A queued load requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Requesting GPU.
    pub requester: GpuId,
    /// TB blocked on the data.
    pub tb: TbId,
    /// Tile to materialize at the requester.
    pub tile: Option<TileId>,
}

/// Merge unit configuration.
#[derive(Debug, Clone)]
pub struct MergeConfig {
    /// GPUs in the system (a full load session serves `n_gpus - 1`
    /// requesters; a full reduction session absorbs `n_gpus - 1` remote
    /// contributions).
    pub n_gpus: usize,
    /// Merging Table capacity per port; `None` = unbounded (used by the
    /// Fig. 13a "minimal required size" experiment).
    pub table_bytes_per_port: Option<u64>,
    /// Metadata bytes charged per entry (CAM tag, state, counters).
    pub entry_overhead_bytes: u64,
    /// Idle time after which an entry is evicted for forward progress.
    pub timeout: SimDuration,
    /// Per-entry SRAM fault probability at each sweep tick (see
    /// [`MergeUnit::inject_entry_faults`]); `0.0` disables injection and
    /// leaves every result byte-identical to a fault-free run.
    pub entry_fault_rate: f64,
    /// After this many entry faults on one port, the port degrades to the
    /// unmerged NVLS-style forwarding path instead of merging.
    pub degrade_threshold: u32,
}

impl MergeConfig {
    /// The paper's setup: 40 KB per port, 16 B entry metadata, generous
    /// forward-progress timeout.
    pub fn paper_default(n_gpus: usize) -> MergeConfig {
        MergeConfig {
            n_gpus,
            table_bytes_per_port: Some(40 * 1024),
            entry_overhead_bytes: 16,
            timeout: SimDuration::from_us(30),
            entry_fault_rate: 0.0,
            degrade_threshold: 8,
        }
    }
}

/// Counters exposed after a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeStats {
    /// CAIS load requests observed.
    pub load_requests: u64,
    /// Loads satisfied by an existing session (deferred or cached).
    pub loads_merged: u64,
    /// Loads forwarded to the home GPU (session openers and bypasses).
    pub loads_forwarded: u64,
    /// CAIS reduction contributions observed.
    pub reduce_contribs: u64,
    /// Reduce messages emitted downstream (complete or partial flushes).
    pub reduce_flushes: u64,
    /// LRU evictions.
    pub evictions_lru: u64,
    /// Timeout evictions.
    pub evictions_timeout: u64,
    /// Requests that could not allocate a session and bypassed merging.
    pub bypasses: u64,
    /// Highest per-port occupancy seen (bytes).
    pub peak_port_occupancy: u64,
    /// Reduction-session bytes resident at the moment of peak occupancy.
    pub peak_reduce_bytes: u64,
    /// Load-session bytes resident at the moment of peak occupancy.
    pub peak_load_bytes: u64,
    /// Sum and count of per-session request spread (last - first request)
    /// for sessions with at least two participants.
    pub spread_sum_ps: u128,
    /// Number of sessions contributing to `spread_sum_ps`.
    pub spread_count: u64,
    /// Injected merge-table entry faults.
    pub entry_faults: u64,
    /// Ports degraded to the unmerged path by fault pressure.
    pub degraded_ports: u64,
    /// Requests forwarded unmerged because their port was degraded.
    pub degraded_bypasses: u64,
    /// Sessions opened (audit ledger; see [`MergeUnit::audit_probe`]).
    pub sessions_opened: u64,
    /// Sessions released after full participation (audit ledger).
    pub sessions_closed: u64,
    /// Sessions evicted (LRU, timeout, capacity, or fault; audit ledger).
    pub sessions_evicted: u64,
}

impl MergeStats {
    /// Mean request spread across merged sessions.
    pub fn mean_spread(&self) -> SimDuration {
        if self.spread_count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_ps((self.spread_sum_ps / self.spread_count as u128) as u64)
    }
}

/// Effects the caller (the CAIS switch logic) must apply.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeAction {
    /// Forward the (first or bypassed) load request to the home GPU.
    ForwardLoad {
        /// The waiter whose request is forwarded.
        waiter: Waiter,
        /// Address.
        addr: Addr,
        /// Bytes requested.
        bytes: u64,
    },
    /// Send load data to one requester.
    RespondLoad {
        /// The satisfied waiter.
        waiter: Waiter,
        /// Address.
        addr: Addr,
        /// Data bytes.
        bytes: u64,
    },
    /// Send a (possibly partial) merged reduction downstream to the home
    /// GPU.
    FlushReduce {
        /// Address.
        addr: Addr,
        /// Bytes.
        bytes: u64,
        /// Contributions folded in.
        contribs: u32,
        /// Completion tile at the home GPU.
        tile: Option<TileId>,
    },
    /// Return one throttle credit to a contributor.
    GrantCredit {
        /// The GPU regaining a credit.
        gpu: GpuId,
    },
}

#[derive(Debug)]
enum SessionKind {
    LoadWait {
        /// The opener first: its fetch is the one in flight.
        waiters: Vec<Waiter>,
    },
    LoadReady,
    Reduction {
        contribs: u32,
        contributors: Vec<GpuId>,
        tile: Option<TileId>,
    },
}

#[derive(Debug)]
struct Entry {
    kind: SessionKind,
    bytes: u64,
    occupancy: u64,
    count: u32,
    first_request: SimTime,
    last_request: SimTime,
    last_access: SimTime,
}

#[derive(Debug, Default)]
struct Port {
    /// Live sessions by address. Their iteration order never reaches a
    /// result: every walk that emits actions or draws random numbers
    /// sorts its addresses first, and LRU picks on `(last_access, addr)`.
    sessions: HashMap<Addr, Entry, FastHash>,
    occupancy: u64,
    reduce_occ: u64,
    load_occ: u64,
    /// Progress already flushed/served for addresses whose session was
    /// evicted mid-flight, so a successor session knows how many
    /// participants remain (prevents eviction-split sessions from
    /// stalling until the timeout). Metadata-only (a few bytes per
    /// address); removed once the address completes.
    history: HashMap<Addr, u32, FastHash>,
    /// Fetches in flight per address that no live Load-Wait session
    /// owns (bypasses, and the fetches of faulted sessions). A response
    /// matches a session by address only, so while such a fetch is in
    /// flight no session opens for its address: that session would
    /// consume the stray response and its requester would never be
    /// answered.
    unowned: HashMap<Addr, u32, FastHash>,
    /// Cumulative injected entry faults on this port.
    faults: u32,
    /// Fault pressure crossed the configured threshold: the port stops
    /// opening merge sessions and forwards requests unmerged (the
    /// NVLS-style path) so traffic keeps flowing instead of stalling on
    /// an unreliable table.
    degraded: bool,
}

/// The merge unit shared by all ports of all planes (state is
/// partitioned per port internally).
#[derive(Debug)]
pub struct MergeUnit {
    cfg: MergeConfig,
    /// Per-port state, keyed `(plane, home GPU)`. A `BTreeMap` so that
    /// every multi-port walk (notably the timeout [`MergeUnit::sweep`],
    /// whose `MergeAction`s are sequence-numbered by the caller) visits
    /// ports in a host-independent order.
    ports: BTreeMap<(PlaneId, GpuId), Port>,
    stats: MergeStats,
}

impl MergeUnit {
    /// Creates an empty merge unit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_gpus < 2`.
    pub fn new(cfg: MergeConfig) -> MergeUnit {
        assert!(cfg.n_gpus >= 2, "merging needs at least two GPUs");
        MergeUnit {
            cfg,
            ports: BTreeMap::new(),
            stats: MergeStats::default(),
        }
    }

    /// Run statistics.
    pub fn stats(&self) -> &MergeStats {
        &self.stats
    }

    /// Configured per-entry fault probability (used by callers to decide
    /// whether to seed a fault RNG at all).
    pub fn entry_fault_rate(&self) -> f64 {
        self.cfg.entry_fault_rate
    }

    /// True if any session is open (drives timer scheduling).
    pub fn has_entries(&self) -> bool {
        self.ports.values().any(|p| !p.sessions.is_empty())
    }

    fn full_load_count(&self) -> u32 {
        self.cfg.n_gpus as u32 - 1
    }

    fn note_peak(stats: &mut MergeStats, port: &Port) {
        if port.occupancy > stats.peak_port_occupancy {
            stats.peak_port_occupancy = port.occupancy;
            stats.peak_reduce_bytes = port.reduce_occ;
            stats.peak_load_bytes = port.load_occ;
        }
    }

    /// Forwards a load whose fetch no session will own.
    fn forward_unowned(
        stats: &mut MergeStats,
        port: &mut Port,
        waiter: Waiter,
        addr: Addr,
        bytes: u64,
        out: &mut Vec<MergeAction>,
    ) {
        stats.loads_forwarded += 1;
        *port.unowned.entry(addr).or_insert(0) += 1;
        out.push(MergeAction::ForwardLoad {
            waiter,
            addr,
            bytes,
        });
    }

    /// Handles an incoming `ld.cais` request.
    pub fn on_load_req(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        waiter: Waiter,
        out: &mut Vec<MergeAction>,
    ) {
        self.stats.load_requests += 1;
        let full = self.full_load_count();
        let port_key = (plane, addr.home_gpu());
        let port = self.ports.entry(port_key).or_default();
        let prior = port.history.get(&addr).copied().unwrap_or(0);

        if let Some(entry) = port.sessions.get_mut(&addr) {
            entry.count += 1;
            entry.last_request = now;
            entry.last_access = now;
            match &mut entry.kind {
                SessionKind::LoadWait { waiters } => {
                    waiters.push(waiter);
                    self.stats.loads_merged += 1;
                }
                SessionKind::LoadReady => {
                    self.stats.loads_merged += 1;
                    out.push(MergeAction::RespondLoad {
                        waiter,
                        addr,
                        bytes,
                    });
                    if entry.count + prior >= full {
                        Self::release(&mut self.stats, port, addr);
                    }
                }
                SessionKind::Reduction { .. } => {
                    // Type mismatch (CAM matches on address AND type):
                    // treat as unmergeable.
                    self.stats.bypasses += 1;
                    Self::forward_unowned(&mut self.stats, port, waiter, addr, bytes, out);
                }
            }
            return;
        }

        // Degraded port: graceful NVLS-style fallback — forward unmerged,
        // never open a session (existing sessions drain normally above).
        if port.degraded {
            self.stats.degraded_bypasses += 1;
            Self::forward_unowned(&mut self.stats, port, waiter, addr, bytes, out);
            return;
        }

        // New session: needs table space for metadata now (data later),
        // and no stray fetch for the address in flight.
        let need = self.cfg.entry_overhead_bytes;
        if port.unowned.contains_key(&addr)
            || !Self::make_room(&self.cfg, &mut self.stats, port, need, out)
        {
            self.stats.bypasses += 1;
            Self::forward_unowned(&mut self.stats, port, waiter, addr, bytes, out);
            return;
        }
        port.occupancy += need;
        port.load_occ += need;
        Self::note_peak(&mut self.stats, port);
        port.sessions.insert(
            addr,
            Entry {
                kind: SessionKind::LoadWait {
                    waiters: vec![waiter],
                },
                bytes,
                occupancy: need,
                count: 1,
                first_request: now,
                last_request: now,
                last_access: now,
            },
        );
        self.stats.sessions_opened += 1;
        self.stats.loads_forwarded += 1;
        out.push(MergeAction::ForwardLoad {
            waiter,
            addr,
            bytes,
        });
    }

    /// Handles load data returning from the home GPU. Returns `true` if
    /// the response was consumed by a session (the caller must then drop
    /// the original packet).
    pub fn on_load_resp(
        &mut self,
        now: SimTime,
        plane: PlaneId,
        addr: Addr,
        bytes: u64,
        out: &mut Vec<MergeAction>,
    ) -> bool {
        let full = self.full_load_count();
        let port_key = (plane, addr.home_gpu());
        let Some(port) = self.ports.get_mut(&port_key) else {
            return false;
        };
        let prior = port.history.get(&addr).copied().unwrap_or(0);
        let Some(Entry {
            kind: SessionKind::LoadWait { waiters },
            count,
            last_access,
            ..
        }) = port.sessions.get_mut(&addr)
        else {
            // No Load-Wait session owns this fetch (a bypass, or the
            // fetch of a faulted session): let it through to its own
            // requester.
            if let Some(n) = port.unowned.get_mut(&addr) {
                *n -= 1;
                if *n == 0 {
                    port.unowned.remove(&addr);
                }
            }
            return false;
        };
        for w in std::mem::take(waiters) {
            out.push(MergeAction::RespondLoad {
                waiter: w,
                addr,
                bytes,
            });
        }
        *last_access = now;
        if *count + prior >= full {
            Self::release(&mut self.stats, port, addr);
            return true;
        }
        // Cache the data for the stragglers — if it fits. Caching is
        // subject to the same table capacity; when it does not fit, the
        // session retires with its progress recorded and later
        // requesters trigger a fresh fetch. Room is made while the
        // session is still Load-Wait, so it cannot be its own victim.
        let fits = Self::make_room(&self.cfg, &mut self.stats, port, bytes, out);
        let entry = port
            .sessions
            .get_mut(&addr)
            .expect("Load-Wait sessions are never evicted for room");
        entry.kind = SessionKind::LoadReady;
        if fits {
            entry.occupancy += bytes;
            port.occupancy += bytes;
            port.load_occ += bytes;
            Self::note_peak(&mut self.stats, port);
        } else {
            self.stats.evictions_lru += 1;
            Self::evict_one(&mut self.stats, port, addr, out);
        }
        true
    }

    /// Handles an incoming `red.cais` contribution.
    // The argument list mirrors the wire message field-for-field;
    // bundling them into a struct would just rename the packet.
    #[allow(clippy::too_many_arguments)]
    pub fn on_reduce(
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
        let full = self.full_load_count();
        let port_key = (plane, addr.home_gpu());
        let port = self.ports.entry(port_key).or_default();
        let prior = port.history.get(&addr).copied().unwrap_or(0);

        if let Some(entry) = port.sessions.get_mut(&addr) {
            if let SessionKind::Reduction {
                contribs: acc,
                contributors,
                tile,
            } = &mut entry.kind
            {
                *acc += contribs;
                contributors.push(src);
                entry.count += 1;
                entry.last_request = now;
                entry.last_access = now;
                if *acc + prior >= full {
                    out.push(MergeAction::FlushReduce {
                        addr,
                        bytes: entry.bytes,
                        contribs: *acc,
                        tile: *tile,
                    });
                    self.stats.reduce_flushes += 1;
                    for gpu in contributors.iter() {
                        out.push(MergeAction::GrantCredit { gpu: *gpu });
                    }
                    Self::release(&mut self.stats, port, addr);
                }
                return;
            }
            // Address collides with a load session: bypass.
            self.stats.bypasses += 1;
            self.stats.reduce_flushes += 1;
            out.push(MergeAction::FlushReduce {
                addr,
                bytes,
                contribs,
                tile,
            });
            out.push(MergeAction::GrantCredit { gpu: src });
            return;
        }

        // Degraded port: flush the contribution straight through and
        // return the credit, exactly like an unmergeable bypass.
        if port.degraded {
            self.stats.degraded_bypasses += 1;
            self.stats.reduce_flushes += 1;
            out.push(MergeAction::FlushReduce {
                addr,
                bytes,
                contribs,
                tile,
            });
            out.push(MergeAction::GrantCredit { gpu: src });
            return;
        }

        let need = self.cfg.entry_overhead_bytes + bytes;
        if !Self::make_room(&self.cfg, &mut self.stats, port, need, out) {
            self.stats.bypasses += 1;
            self.stats.reduce_flushes += 1;
            out.push(MergeAction::FlushReduce {
                addr,
                bytes,
                contribs,
                tile,
            });
            out.push(MergeAction::GrantCredit { gpu: src });
            return;
        }
        port.occupancy += need;
        port.reduce_occ += need;
        Self::note_peak(&mut self.stats, port);
        port.sessions.insert(
            addr,
            Entry {
                kind: SessionKind::Reduction {
                    contribs,
                    contributors: vec![src],
                    tile,
                },
                bytes,
                occupancy: need,
                count: 1,
                first_request: now,
                last_request: now,
                last_access: now,
            },
        );
        self.stats.sessions_opened += 1;
        if contribs + prior >= full {
            // A successor session of an evicted one just completed.
            out.push(MergeAction::FlushReduce {
                addr,
                bytes,
                contribs,
                tile,
            });
            self.stats.reduce_flushes += 1;
            out.push(MergeAction::GrantCredit { gpu: src });
            Self::release(&mut self.stats, port, addr);
        }
    }

    /// True if any session is open on `plane`.
    pub fn has_entries_on(&self, plane: PlaneId) -> bool {
        self.ports
            .iter()
            .any(|((pl, _), p)| *pl == plane && !p.sessions.is_empty())
    }

    /// Timeout sweep over one plane's ports: evicts sessions idle longer
    /// than the configured timeout. Returns `true` if entries remain on
    /// that plane (reschedule the timer).
    pub fn sweep(&mut self, now: SimTime, plane: PlaneId, out: &mut Vec<MergeAction>) -> bool {
        let timeout = self.cfg.timeout;
        let mut evictions = 0u64;
        for port in self
            .ports
            .iter_mut()
            .filter(|((pl, _), _)| *pl == plane)
            .map(|(_, p)| p)
        {
            let mut expired: Vec<Addr> = port
                .sessions
                .iter()
                .filter(|(_, e)| {
                    now.saturating_since(e.last_access) > timeout
                        && !matches!(e.kind, SessionKind::LoadWait { .. })
                })
                .map(|(a, _)| *a)
                .collect();
            expired.sort_unstable();
            for addr in expired {
                Self::evict_one(&mut self.stats, port, addr, out);
                evictions += 1;
            }
        }
        self.stats.evictions_timeout += evictions;
        // Keep the timer alive only while it can still do work: evictable
        // sessions, or Load-Wait sessions young enough that their fetch
        // response is plausibly in flight. A stale Load-Wait (response
        // lost/deferred) is cleared by the response itself when it
        // arrives; re-arming forever for it would spin the clock.
        self.ports
            .iter()
            .filter(|((pl, _), _)| *pl == plane)
            .flat_map(|(_, p)| p.sessions.values())
            .any(|e| {
                !matches!(e.kind, SessionKind::LoadWait { .. })
                    || now.saturating_since(e.last_access) <= timeout
            })
    }

    /// Injects SRAM entry faults on `plane`'s ports: each resident entry
    /// faults independently with probability `cfg.entry_fault_rate` per
    /// call (the caller invokes this once per sweep tick). Addresses are
    /// visited in sorted order per port and ports in `BTreeMap` order, so
    /// a given RNG stream produces a host-independent fault timeline.
    ///
    /// A faulted entry takes the normal eviction path (partial reductions
    /// flush, credits return, progress is recorded). A faulted Load-Wait
    /// session loses its queued waiters: the opener's fetch is still in
    /// flight and now passes through to the opener, and every other
    /// waiter refetches. Until those fetches return, no session opens
    /// for the address.
    ///
    /// When a port's cumulative fault count reaches
    /// `cfg.degrade_threshold`, the port permanently degrades to the
    /// unmerged NVLS-style forwarding path for all future sessions.
    pub fn inject_entry_faults(
        &mut self,
        _now: SimTime,
        plane: PlaneId,
        rng: &mut JitterRng,
        out: &mut Vec<MergeAction>,
    ) {
        let rate = self.cfg.entry_fault_rate;
        if rate <= 0.0 {
            return;
        }
        let threshold = self.cfg.degrade_threshold;
        for port in self
            .ports
            .iter_mut()
            .filter(|((pl, _), _)| *pl == plane)
            .map(|(_, p)| p)
        {
            let mut addrs: Vec<Addr> = port.sessions.keys().copied().collect();
            addrs.sort_unstable();
            for addr in addrs {
                if rng.next_f64() >= rate {
                    continue;
                }
                self.stats.entry_faults += 1;
                port.faults += 1;
                let entry = port.sessions.get_mut(&addr).expect("resident entry");
                if let SessionKind::LoadWait { waiters } = &mut entry.kind {
                    let (waiters, bytes) = (std::mem::take(waiters), entry.bytes);
                    *port.unowned.entry(addr).or_insert(0) += 1;
                    for &w in &waiters[1..] {
                        Self::forward_unowned(&mut self.stats, port, w, addr, bytes, out);
                    }
                }
                Self::evict_one(&mut self.stats, port, addr, out);
                if port.faults >= threshold && !port.degraded {
                    port.degraded = true;
                    self.stats.degraded_ports += 1;
                }
            }
        }
    }

    /// Frees space on `port` until `need` bytes fit; returns `false` when
    /// impossible (only Load-Wait sessions resident or table too small).
    fn make_room(
        cfg: &MergeConfig,
        stats: &mut MergeStats,
        port: &mut Port,
        need: u64,
        out: &mut Vec<MergeAction>,
    ) -> bool {
        let Some(cap) = cfg.table_bytes_per_port else {
            return true;
        };
        if need > cap {
            return false;
        }
        while port.occupancy + need > cap {
            // LRU among evictable sessions (Load-Wait must stay until its
            // response arrives).
            let victim = port
                .sessions
                .iter()
                .filter(|(_, e)| !matches!(e.kind, SessionKind::LoadWait { .. }))
                .min_by_key(|(a, e)| (e.last_access, **a))
                .map(|(a, _)| *a);
            let Some(addr) = victim else {
                return false;
            };
            Self::evict_one(stats, port, addr, out);
            stats.evictions_lru += 1;
        }
        true
    }

    fn evict_one(stats: &mut MergeStats, port: &mut Port, addr: Addr, out: &mut Vec<MergeAction>) {
        stats.sessions_evicted += 1;
        let entry = port.sessions.remove(&addr).expect("victim exists");
        if let SessionKind::Reduction {
            contribs,
            contributors,
            tile,
        } = &entry.kind
        {
            out.push(MergeAction::FlushReduce {
                addr,
                bytes: entry.bytes,
                contribs: *contribs,
                tile: *tile,
            });
            stats.reduce_flushes += 1;
            for gpu in contributors {
                out.push(MergeAction::GrantCredit { gpu: *gpu });
            }
        }
        // Record partial progress so a successor session for this
        // address knows how many participants remain.
        let progress = match &entry.kind {
            SessionKind::Reduction { contribs, .. } => *contribs,
            SessionKind::LoadReady | SessionKind::LoadWait { .. } => entry.count,
        };
        *port.history.entry(addr).or_insert(0) += progress;
        Self::retire(stats, port, entry);
    }

    /// Releases a *completed* session (full participation reached).
    fn release(stats: &mut MergeStats, port: &mut Port, addr: Addr) {
        stats.sessions_closed += 1;
        port.history.remove(&addr);
        let entry = port.sessions.remove(&addr).expect("releasing live entry");
        Self::retire(stats, port, entry);
    }

    /// Reports the merge table's conservation ledgers to the auditor
    /// (see `DESIGN.md` §11):
    ///
    /// * session conservation — every session ever opened was either
    ///   released complete, evicted, or is still live;
    /// * per-port occupancy conservation — the incrementally tracked
    ///   occupancy equals the sum over live entries, and splits exactly
    ///   into the reduce/load sub-tallies;
    /// * participant accounting — a Load-Wait session has exactly one
    ///   queued waiter per counted request.
    ///
    /// At quiescence additionally: zero live sessions and no unowned
    /// fetch in flight (the `history` progress map is byte-counted
    /// metadata and may legitimately outlive its sessions).
    pub fn audit_probe(&self, probe: &mut sim_core::AuditProbe) {
        let s = &self.stats;
        let live: u64 = self.ports.values().map(|p| p.sessions.len() as u64).sum();
        probe.counter("merge.sessions_opened", s.sessions_opened);
        probe.counter("merge.sessions_closed", s.sessions_closed);
        probe.counter("merge.sessions_evicted", s.sessions_evicted);
        probe.counter("merge.sessions_live", live);
        probe.counter("merge.entry_faults", s.entry_faults);
        probe.counter("merge.reduce_contribs", s.reduce_contribs);
        probe.counter("merge.load_requests", s.load_requests);
        probe.ledger_with(
            "merge",
            "session conservation: opened == closed + evicted + live",
            s.sessions_opened,
            s.sessions_closed + s.sessions_evicted + live,
            || format!("{} port(s) instantiated", self.ports.len()),
        );
        for ((plane, gpu), port) in &self.ports {
            let entry_occ: u64 = port.sessions.values().map(|e| e.occupancy).sum();
            probe.ledger_with(
                "merge",
                "occupancy conservation: tracked == sum over live entries",
                port.occupancy,
                entry_occ,
                || format!("port ({plane:?}, {gpu:?})"),
            );
            probe.ledger_with(
                "merge",
                "occupancy split: reduce + load == total",
                port.occupancy,
                port.reduce_occ + port.load_occ,
                || format!("port ({plane:?}, {gpu:?})"),
            );
            for (addr, e) in &port.sessions {
                if let SessionKind::LoadWait { waiters } = &e.kind {
                    probe.ledger_with(
                        "merge",
                        "participants: load-wait waiters == counted requests",
                        e.count as u64,
                        waiters.len() as u64,
                        || format!("port ({plane:?}, {gpu:?}), {addr}"),
                    );
                }
            }
        }
        if probe.is_quiescence() {
            probe.require_zero("merge", "quiescence: zero live sessions", live);
            let unowned: u64 = self
                .ports
                .values()
                .flat_map(|p| p.unowned.values())
                .map(|&n| u64::from(n))
                .sum();
            probe.require_zero("merge", "quiescence: no unowned fetch in flight", unowned);
        }
    }

    /// Test-only corruption hook: bumps the opened-session tally without
    /// opening a session, so the next audit check must report a `merge`
    /// session-conservation violation. Never called outside tests.
    #[doc(hidden)]
    pub fn audit_poke_sessions_opened(&mut self) {
        self.stats.sessions_opened += 1;
    }

    /// Occupancy and spread accounting shared by eviction and release.
    fn retire(stats: &mut MergeStats, port: &mut Port, entry: Entry) {
        port.occupancy -= entry.occupancy;
        match entry.kind {
            SessionKind::Reduction { .. } => port.reduce_occ -= entry.occupancy,
            _ => port.load_occ -= entry.occupancy,
        }
        if entry.count >= 2 {
            stats.spread_sum_ps += entry.last_request.since(entry.first_request).as_ps() as u128;
            stats.spread_count += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn unit(n: usize, cap: Option<u64>) -> MergeUnit {
        MergeUnit::new(MergeConfig {
            n_gpus: n,
            table_bytes_per_port: cap,
            entry_overhead_bytes: 16,
            timeout: SimDuration::from_us(100),
            entry_fault_rate: 0.0,
            degrade_threshold: 4,
        })
    }

    fn faulty_unit(n: usize, rate: f64, threshold: u32) -> MergeUnit {
        MergeUnit::new(MergeConfig {
            n_gpus: n,
            table_bytes_per_port: None,
            entry_overhead_bytes: 16,
            timeout: SimDuration::from_us(100),
            entry_fault_rate: rate,
            degrade_threshold: threshold,
        })
    }

    fn waiter(g: u16) -> Waiter {
        Waiter {
            requester: GpuId(g),
            tb: TbId(g as u64),
            tile: Some(TileId(100 + g as u64)),
        }
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    const PLANE: PlaneId = PlaneId(0);

    #[test]
    fn loads_merge_one_fetch_many_replies() {
        // 4 GPUs: 3 remote requesters for an address homed on gpu3.
        let mut m = unit(4, None);
        let addr = Addr::new(GpuId(3), 0x1000);
        let mut out = Vec::new();
        m.on_load_req(t(1), PLANE, addr, 4096, waiter(0), &mut out);
        m.on_load_req(t(2), PLANE, addr, 4096, waiter(1), &mut out);
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, MergeAction::ForwardLoad { .. }))
                .count(),
            1,
            "only the first request is forwarded"
        );
        // Data returns: both queued waiters served; entry cached for #3.
        out.clear();
        assert!(m.on_load_resp(t(5), PLANE, addr, 4096, &mut out));
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, MergeAction::RespondLoad { .. }))
                .count(),
            2
        );
        // Third requester hits the cached data.
        out.clear();
        m.on_load_req(t(6), PLANE, addr, 4096, waiter(2), &mut out);
        assert!(matches!(out[0], MergeAction::RespondLoad { .. }));
        assert!(!m.has_entries(), "session released after full count");
        assert_eq!(m.stats().loads_merged, 2);
        assert_eq!(m.stats().loads_forwarded, 1);
        // Spread = 6us - 1us.
        assert_eq!(m.stats().mean_spread(), SimDuration::from_us(5));
    }

    #[test]
    fn reductions_accumulate_and_flush_once() {
        let mut m = unit(4, None);
        let addr = Addr::new(GpuId(0), 0x2000);
        let mut out = Vec::new();
        for g in 1..4u16 {
            m.on_reduce(
                t(g as u64),
                PLANE,
                addr,
                8192,
                GpuId(g),
                1,
                Some(TileId(9)),
                &mut out,
            );
        }
        let flushes: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                MergeAction::FlushReduce { contribs, tile, .. } => Some((*contribs, *tile)),
                _ => None,
            })
            .collect();
        assert_eq!(flushes, vec![(3, Some(TileId(9)))]);
        // Credits returned to all three contributors.
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, MergeAction::GrantCredit { .. }))
                .count(),
            3
        );
        assert!(!m.has_entries());
    }

    #[test]
    fn lru_eviction_flushes_partial_reduction() {
        // Capacity fits one reduction entry (16 + 8192); the second
        // allocation evicts the first as a partial flush.
        let mut m = unit(4, Some(10_000));
        let a1 = Addr::new(GpuId(0), 0x1000);
        let a2 = Addr::new(GpuId(0), 0x2000);
        let mut out = Vec::new();
        m.on_reduce(
            t(1),
            PLANE,
            a1,
            8192,
            GpuId(1),
            1,
            Some(TileId(1)),
            &mut out,
        );
        assert!(out.is_empty());
        m.on_reduce(
            t(2),
            PLANE,
            a2,
            8192,
            GpuId(2),
            1,
            Some(TileId(2)),
            &mut out,
        );
        let flushed: Vec<_> = out
            .iter()
            .filter_map(|a| match a {
                MergeAction::FlushReduce { addr, contribs, .. } => Some((*addr, *contribs)),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![(a1, 1)], "partial flush of the LRU entry");
        assert_eq!(m.stats().evictions_lru, 1);
        // Late contribution to a1 opens a fresh session.
        out.clear();
        m.on_reduce(
            t(3),
            PLANE,
            a1,
            8192,
            GpuId(3),
            1,
            Some(TileId(1)),
            &mut out,
        );
        assert_eq!(m.stats().bypasses, 0);
    }

    #[test]
    fn load_wait_entries_are_never_evicted() {
        let mut m = unit(4, Some(200));
        let a1 = Addr::new(GpuId(0), 0x1000);
        let mut out = Vec::new();
        // Open 12 Load-Wait sessions of 16B each = 192B; the 13th cannot
        // allocate and must bypass.
        for i in 0..12 {
            m.on_load_req(t(1), PLANE, a1.add(128 * i), 4096, waiter(1), &mut out);
        }
        assert_eq!(m.stats().bypasses, 0);
        out.clear();
        m.on_load_req(t(2), PLANE, a1.add(128 * 12), 4096, waiter(1), &mut out);
        assert_eq!(m.stats().bypasses, 1);
        assert!(
            matches!(out[0], MergeAction::ForwardLoad { .. }),
            "bypassed load still makes progress"
        );
    }

    #[test]
    fn bypassed_response_passes_through() {
        let mut m = unit(4, None);
        let addr = Addr::new(GpuId(2), 0x100);
        let mut out = Vec::new();
        // No session: a response just flows through.
        assert!(!m.on_load_resp(t(1), PLANE, addr, 1024, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn timeout_sweep_evicts_idle_sessions() {
        let mut m = unit(8, None);
        let addr = Addr::new(GpuId(0), 0x100);
        let mut out = Vec::new();
        m.on_reduce(t(1), PLANE, addr, 2048, GpuId(1), 1, None, &mut out);
        // Before timeout nothing happens.
        assert!(m.sweep(t(50), PLANE, &mut out));
        assert_eq!(m.stats().evictions_timeout, 0);
        // After 100us idle the partial is flushed.
        assert!(!m.sweep(t(200), PLANE, &mut out));
        assert_eq!(m.stats().evictions_timeout, 1);
        assert!(out
            .iter()
            .any(|a| matches!(a, MergeAction::FlushReduce { contribs: 1, .. })));
    }

    #[test]
    fn peak_occupancy_tracks_cached_data() {
        let mut m = unit(8, None);
        let addr = Addr::new(GpuId(0), 0x100);
        let mut out = Vec::new();
        m.on_load_req(t(1), PLANE, addr, 32 * 1024, waiter(1), &mut out);
        m.on_load_resp(t(2), PLANE, addr, 32 * 1024, &mut out);
        // Entry now caches 32 KiB for the remaining 6 requesters.
        assert!(m.stats().peak_port_occupancy >= 32 * 1024);
    }

    #[test]
    fn type_mismatch_bypasses() {
        let mut m = unit(4, None);
        let addr = Addr::new(GpuId(0), 0x100);
        let mut out = Vec::new();
        m.on_reduce(t(1), PLANE, addr, 1024, GpuId(1), 1, None, &mut out);
        m.on_load_req(t(2), PLANE, addr, 1024, waiter(2), &mut out);
        assert_eq!(m.stats().bypasses, 1);
    }

    #[test]
    fn eviction_split_reductions_complete_without_timeout() {
        // Capacity for one reduction entry; contributions for one address
        // arrive interleaved with another address that evicts it. The
        // progress history must let the successor session complete on the
        // last contribution instead of stalling until the timeout.
        let mut m = unit(4, Some(10_000)); // fits one 8 KB entry
        let a1 = Addr::new(GpuId(0), 0x1000);
        let a2 = Addr::new(GpuId(0), 0x3000);
        let mut out = Vec::new();
        m.on_reduce(
            t(1),
            PLANE,
            a1,
            8192,
            GpuId(1),
            1,
            Some(TileId(1)),
            &mut out,
        );
        m.on_reduce(
            t(2),
            PLANE,
            a1,
            8192,
            GpuId(2),
            1,
            Some(TileId(1)),
            &mut out,
        );
        // a2 evicts a1 (partial flush of 2 contributions).
        m.on_reduce(
            t(3),
            PLANE,
            a2,
            8192,
            GpuId(1),
            1,
            Some(TileId(2)),
            &mut out,
        );
        // a1's last contribution arrives: must flush immediately.
        out.clear();
        m.on_reduce(
            t(4),
            PLANE,
            a1,
            8192,
            GpuId(3),
            1,
            Some(TileId(1)),
            &mut out,
        );
        let flushed: Vec<u32> = out
            .iter()
            .filter_map(|x| match x {
                MergeAction::FlushReduce { addr, contribs, .. } if *addr == a1 => Some(*contribs),
                _ => None,
            })
            .collect();
        assert_eq!(flushed, vec![1], "successor flushes the remainder at once");
        assert_eq!(m.stats().evictions_timeout, 0);
        // Total flushed contributions for a1 across both sessions = 3.
    }

    #[test]
    fn load_history_survives_cache_eviction() {
        // 4 GPUs (full = 3). Two requesters served from a cached entry
        // that then gets evicted; the third requester opens a successor
        // session that completes after a single re-fetch.
        let mut m = unit(4, Some(200)); // too small to cache 4 KB data
        let addr = Addr::new(GpuId(0), 0x100);
        let mut out = Vec::new();
        m.on_load_req(t(1), PLANE, addr, 4096, waiter(1), &mut out);
        m.on_load_req(t(2), PLANE, addr, 4096, waiter(2), &mut out);
        out.clear();
        // Response arrives: serves both; caching fails (capacity), so the
        // session retires with progress = 2.
        assert!(m.on_load_resp(t(3), PLANE, addr, 4096, &mut out));
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, MergeAction::RespondLoad { .. }))
                .count(),
            2
        );
        // The late third requester triggers a re-fetch, then completes the
        // address (2 prior + 1 = full).
        out.clear();
        m.on_load_req(t(10), PLANE, addr, 4096, waiter(3), &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, MergeAction::ForwardLoad { .. })));
        out.clear();
        assert!(m.on_load_resp(t(12), PLANE, addr, 4096, &mut out));
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, MergeAction::RespondLoad { .. }))
                .count(),
            1
        );
        assert!(!m.has_entries(), "address fully retired");
    }

    #[test]
    fn entry_fault_refetches_load_waiters() {
        // Two queued waiters lose their session to an SRAM fault: the
        // opener's fetch is still in flight and passes through to it, the
        // other waiter refetches, the entry is gone, and the recorded
        // progress lets the third requester finish the address.
        let mut m = faulty_unit(4, 1.0, 100);
        let addr = Addr::new(GpuId(3), 0x1000);
        let mut out = Vec::new();
        m.on_load_req(t(1), PLANE, addr, 4096, waiter(0), &mut out);
        m.on_load_req(t(2), PLANE, addr, 4096, waiter(1), &mut out);
        out.clear();
        let mut rng = JitterRng::seed_from(7);
        m.inject_entry_faults(t(3), PLANE, &mut rng, &mut out);
        assert_eq!(m.stats().entry_faults, 1);
        let refetched: Vec<Waiter> = out
            .iter()
            .filter_map(|a| match a {
                MergeAction::ForwardLoad { waiter, .. } => Some(*waiter),
                _ => None,
            })
            .collect();
        assert_eq!(refetched, vec![waiter(1)], "the non-opener refetches");
        assert!(!m.has_entries(), "faulted entry evicted");
        // Both fetches in flight (the opener's and the refetch) pass
        // through untouched.
        out.clear();
        assert!(!m.on_load_resp(t(4), PLANE, addr, 4096, &mut out));
        assert!(!m.on_load_resp(t(5), PLANE, addr, 4096, &mut out));
        assert!(out.is_empty());
        // The last requester completes the address via the history record.
        m.on_load_req(t(6), PLANE, addr, 4096, waiter(2), &mut out);
        assert!(m.on_load_resp(t(7), PLANE, addr, 4096, &mut out));
        assert!(!m.has_entries(), "address fully retired");
    }

    #[test]
    fn successor_session_never_consumes_a_refetch() {
        // The lost-requester ordering: a fault re-forwards waiter 1, then
        // waiter 2 asks for the same address, then waiter 1's refetch
        // returns first. Matching on the address alone, a session opened
        // for waiter 2 would consume that response and drop waiter 1's
        // packet. Every requester must be answered exactly once.
        let mut m = faulty_unit(4, 1.0, 100);
        let addr = Addr::new(GpuId(3), 0x1000);
        let mut out = Vec::new();
        let mut fetches: Vec<Waiter> = Vec::new();
        let mut answers: HashMap<TbId, u32> = HashMap::new();
        let mut settle = |out: &mut Vec<MergeAction>, fetches: &mut Vec<Waiter>| {
            for a in out.drain(..) {
                match a {
                    MergeAction::ForwardLoad { waiter, .. } => fetches.push(waiter),
                    MergeAction::RespondLoad { waiter, .. } => {
                        *answers.entry(waiter.tb).or_default() += 1
                    }
                    _ => {}
                }
            }
        };
        m.on_load_req(t(1), PLANE, addr, 4096, waiter(0), &mut out);
        m.on_load_req(t(2), PLANE, addr, 4096, waiter(1), &mut out);
        m.inject_entry_faults(t(3), PLANE, &mut JitterRng::seed_from(7), &mut out);
        m.on_load_req(t(4), PLANE, addr, 4096, waiter(2), &mut out);
        settle(&mut out, &mut fetches);
        // Deliver waiter 1's refetch first, then the rest in order.
        let first = fetches.iter().rposition(|w| *w == waiter(1)).unwrap();
        let order = std::iter::once(first).chain((0..fetches.len()).filter(|&i| i != first));
        let mut passed = Vec::new();
        for (k, i) in order.enumerate() {
            if !m.on_load_resp(t(5 + k as u64), PLANE, addr, 4096, &mut out) {
                passed.push(fetches[i]);
            }
            settle(&mut out, &mut Vec::new());
        }
        for w in passed {
            *answers.entry(w.tb).or_default() += 1;
        }
        let once: HashMap<TbId, u32> = (0..3).map(|g| (TbId(g), 1)).collect();
        assert_eq!(answers, once, "answers per waiter");
        assert!(!m.has_entries());
    }

    #[test]
    fn entry_fault_flushes_partial_reduction() {
        let mut m = faulty_unit(4, 1.0, 100);
        let addr = Addr::new(GpuId(0), 0x2000);
        let mut out = Vec::new();
        m.on_reduce(
            t(1),
            PLANE,
            addr,
            2048,
            GpuId(1),
            1,
            Some(TileId(3)),
            &mut out,
        );
        out.clear();
        let mut rng = JitterRng::seed_from(7);
        m.inject_entry_faults(t(2), PLANE, &mut rng, &mut out);
        assert!(
            out.iter()
                .any(|a| matches!(a, MergeAction::FlushReduce { contribs: 1, .. })),
            "partial flushed on fault"
        );
        assert!(
            out.iter()
                .any(|a| matches!(a, MergeAction::GrantCredit { gpu: GpuId(1) })),
            "credit returned on fault"
        );
        assert!(!m.has_entries());
    }

    #[test]
    fn fault_pressure_degrades_port_to_unmerged_path() {
        // Threshold 2: after two entry faults the port stops merging.
        let mut m = faulty_unit(4, 1.0, 2);
        let a1 = Addr::new(GpuId(0), 0x1000);
        let a2 = Addr::new(GpuId(0), 0x2000);
        let mut out = Vec::new();
        m.on_reduce(t(1), PLANE, a1, 1024, GpuId(1), 1, None, &mut out);
        m.on_reduce(t(1), PLANE, a2, 1024, GpuId(2), 1, None, &mut out);
        let mut rng = JitterRng::seed_from(7);
        m.inject_entry_faults(t(2), PLANE, &mut rng, &mut out);
        assert_eq!(m.stats().entry_faults, 2);
        assert_eq!(m.stats().degraded_ports, 1);
        // New reduce contributions flush straight through with a credit.
        out.clear();
        m.on_reduce(t(3), PLANE, a1, 1024, GpuId(3), 1, None, &mut out);
        assert!(matches!(
            out[0],
            MergeAction::FlushReduce { contribs: 1, .. }
        ));
        assert!(matches!(out[1], MergeAction::GrantCredit { gpu: GpuId(3) }));
        // New loads forward unmerged without opening a session.
        out.clear();
        m.on_load_req(t(4), PLANE, a2, 4096, waiter(1), &mut out);
        assert!(matches!(out[0], MergeAction::ForwardLoad { .. }));
        assert!(!m.has_entries(), "degraded port opens no sessions");
        assert_eq!(m.stats().degraded_bypasses, 2);
        // Other ports are unaffected: a different home GPU still merges.
        out.clear();
        let other = Addr::new(GpuId(1), 0x100);
        m.on_load_req(t(5), PLANE, other, 4096, waiter(2), &mut out);
        assert!(m.has_entries(), "healthy port still opens sessions");
    }

    #[test]
    fn zero_fault_rate_injection_is_a_no_op() {
        let mut m = unit(4, None);
        let addr = Addr::new(GpuId(0), 0x100);
        let mut out = Vec::new();
        m.on_reduce(t(1), PLANE, addr, 1024, GpuId(1), 1, None, &mut out);
        let mut rng = JitterRng::seed_from(7);
        let before = rng.next_u64();
        let mut rng = JitterRng::seed_from(7);
        m.inject_entry_faults(t(2), PLANE, &mut rng, &mut out);
        assert_eq!(m.stats().entry_faults, 0);
        assert!(m.has_entries(), "entry untouched");
        assert_eq!(rng.next_u64(), before, "no RNG draws at rate 0");
    }

    #[test]
    fn merged_contribs_count_toward_completion() {
        // A downstream switch can receive pre-merged partials
        // (contribs > 1), e.g. after an eviction upstream.
        let mut m = unit(8, None);
        let addr = Addr::new(GpuId(0), 0x300);
        let mut out = Vec::new();
        m.on_reduce(t(1), PLANE, addr, 1024, GpuId(1), 4, None, &mut out);
        m.on_reduce(t(2), PLANE, addr, 1024, GpuId(2), 3, None, &mut out);
        assert!(out
            .iter()
            .any(|a| matches!(a, MergeAction::FlushReduce { contribs: 7, .. })));
    }
}
