//! A single link direction: serial bandwidth resource with virtual
//! channels and segment-granularity round-robin arbitration.
//!
//! # Segment coalescing
//!
//! The baseline model costs one event per `segment_bytes` of payload, which
//! dominates the event count for multi-KB packets. When exactly one VC holds
//! work, per-segment arbitration is vacuous: the head packet wins every
//! boundary, so the link serializes its entire remaining payload as one
//! *coalesced burst* — a single `LinkFree` event at the same departure time
//! the per-segment walk would have produced (the burst end is the sum of the
//! individually-ceiled per-segment transfer times, not one rounding of the
//! total). The moment a second VC enqueues mid-burst, the burst is cut at
//! the first segment boundary the baseline would have re-arbitrated at, and
//! the link falls back to per-segment round-robin. Busy time, series and
//! byte counters are accounted when a burst completes or is cut, covering
//! exactly the segments it serialized, so end-of-run reports are identical.

use crate::packet::Packet;
use sim_core::stats::{BusyTracker, UtilizationSeries};
use sim_core::{Bandwidth, SimDuration, SimTime};
use std::collections::VecDeque;

/// Direction of a (GPU, plane) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// GPU to switch ("upstream"; the G2S direction of the paper's Fig. 10).
    Up,
    /// Switch to GPU ("downstream"; S2G).
    Down,
}

impl Direction {
    /// Index (0 for up, 1 for down) for flat storage.
    pub fn index(self) -> usize {
        match self {
            Direction::Up => 0,
            Direction::Down => 1,
        }
    }
}

/// A packet queued on a link, tracking how many payload bytes remain to be
/// serialized (wormhole-style: segments of different VCs interleave on the
/// physical link).
#[derive(Debug)]
struct QueuedPacket<P> {
    pkt: Packet<P>,
    remaining: u64,
    header_pending: bool,
    /// The time the packet was enqueued for; a serve that starts earlier
    /// is an early departure (see [`Link::early_departures`]).
    stamp: SimTime,
}

/// An in-flight coalesced burst: the sole non-empty VC's head packet being
/// serialized to completion in one event.
#[derive(Debug, Clone, Copy)]
struct Burst {
    vc: usize,
    start: SimTime,
    free_at: SimTime,
    /// Payload bytes remaining at burst start.
    r0: u64,
    /// Whether the header was still pending at burst start.
    hdr: bool,
    /// Total wire bytes (payload + header) the full burst serializes.
    wire_total: u64,
    /// Segment count of the full burst.
    segments: u64,
}

/// One link direction.
#[derive(Debug)]
pub struct Link<P> {
    bw: Bandwidth,
    latency: SimDuration,
    header_bytes: u64,
    segment_bytes: u64,
    vcs: Vec<VecDeque<QueuedPacket<P>>>,
    rr: usize,
    /// Transfer-time multiplier from an active degradation window; exactly
    /// `1.0` outside windows (and always, when fault injection is off).
    slowdown: f64,
    /// True while a `LinkFree` event is pending for this link.
    serving: bool,
    burst: Option<Burst>,
    /// Bumped whenever a pending `LinkFree` event is superseded by a burst
    /// preemption; events carrying an older token are ignored.
    token: u64,
    events_saved: u64,
    busy: BusyTracker,
    series: Option<UtilizationSeries>,
    bytes_carried: u64,
    packets_carried: u64,
    early_departures: u64,
}

/// Outcome of serving the link at some instant.
#[derive(Debug)]
pub struct ServeOutcome<P> {
    /// When the link becomes free again.
    pub free_at: SimTime,
    /// A packet whose final segment was just serialized; it arrives at the
    /// far end at `free_at + latency`. `None` for intermediate segments and
    /// for coalesced bursts (a burst's departure is produced by
    /// [`Link::finish_burst`] when its event fires).
    pub departed: Option<(Packet<P>, SimTime)>,
}

/// What the caller must schedule after [`Link::enqueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueEffect {
    /// The link was idle: schedule a serve at the enqueue time.
    Wake,
    /// A serve or burst event is already pending: nothing to schedule.
    Pending,
    /// An active burst on another VC was cut short: schedule a serve at the
    /// contained time, carrying the link's new token.
    Preempted(SimTime),
}

impl<P> Link<P> {
    /// Creates an idle link.
    pub fn new(
        bw: Bandwidth,
        latency: SimDuration,
        header_bytes: u64,
        segment_bytes: u64,
        vc_count: usize,
        series_bucket: Option<SimDuration>,
    ) -> Link<P> {
        assert!(segment_bytes > 0, "segment size must be positive");
        assert!(vc_count > 0, "need at least one virtual channel");
        Link {
            bw,
            latency,
            header_bytes,
            segment_bytes,
            // Seeded with room for a typical in-flight window so the hot
            // enqueue path never reallocates mid-run.
            vcs: (0..vc_count).map(|_| VecDeque::with_capacity(32)).collect(),
            rr: 0,
            slowdown: 1.0,
            serving: false,
            burst: None,
            token: 0,
            events_saved: 0,
            busy: BusyTracker::new(),
            series: series_bucket.map(UtilizationSeries::new),
            bytes_carried: 0,
            packets_carried: 0,
            early_departures: 0,
        }
    }

    /// Sets the degradation slowdown factor applied to subsequent transfer
    /// times. `1.0` restores nominal bandwidth bit-exactly.
    pub fn set_slowdown(&mut self, factor: f64) {
        self.slowdown = factor;
    }

    /// Serialization time for `wire` bytes under the current slowdown.
    /// Bit-exact with the nominal bandwidth when the factor is `1.0`, so a
    /// disabled fault layer cannot perturb timing.
    fn transfer(&self, wire: u64) -> SimDuration {
        let t = self.bw.transfer_time(wire);
        if self.slowdown == 1.0 {
            t
        } else {
            SimDuration::from_ps((t.as_ps() as f64 * self.slowdown) as u64)
        }
    }

    /// Walks the segment boundaries of a burst of `r0` payload bytes
    /// starting at `start` (`hdr`: header still pending).
    ///
    /// With `cut = Some((te, settled))` the walk stops at the first boundary
    /// the baseline would re-arbitrate at after an enqueue at `te`:
    /// strictly after `te` when `settled` (every event at `te` was already
    /// dispatched, so the boundary at `te` itself already went to this
    /// packet), at-or-after `te` otherwise.
    ///
    /// Returns `(boundary, wire_bytes, segments, payload_served)` for the
    /// walked prefix; with `cut = None` that is the whole burst.
    fn walk_burst(
        &self,
        start: SimTime,
        r0: u64,
        hdr: bool,
        cut: Option<(SimTime, bool)>,
    ) -> (SimTime, u64, u64, u64) {
        debug_assert!(r0 > 0, "burst over an empty packet");
        let mut t = start;
        let mut wire_total = 0u64;
        let mut segments = 0u64;
        let mut remaining = r0;
        let mut first = hdr;
        loop {
            let seg = remaining.min(self.segment_bytes);
            let mut wire = seg;
            if first {
                wire += self.header_bytes;
                first = false;
            }
            t += self.transfer(wire);
            wire_total += wire;
            segments += 1;
            remaining -= seg;
            if remaining == 0 {
                break;
            }
            if let Some((te, settled)) = cut {
                if if settled { t > te } else { t >= te } {
                    break;
                }
            }
        }
        (t, wire_total, segments, r0 - remaining)
    }

    /// Queues a packet on virtual channel `vc` at time `now`.
    ///
    /// `now_settled` states that every link event scheduled at `now` has
    /// already been dispatched (true for engine-side injections, false for
    /// enqueues made while the fabric is mid-dispatch at `now`); it decides
    /// which segment boundary a preempted burst is cut at.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn enqueue(
        &mut self,
        vc: usize,
        pkt: Packet<P>,
        data_bytes: u64,
        now: SimTime,
        now_settled: bool,
    ) -> EnqueueEffect {
        self.vcs[vc].push_back(QueuedPacket {
            pkt,
            remaining: data_bytes,
            header_pending: true,
            stamp: now,
        });
        if let Some(b) = self.burst {
            if b.vc != vc {
                let (cut, wire, segments, served) =
                    self.walk_burst(b.start, b.r0, b.hdr, Some((now, now_settled)));
                if served < b.r0 {
                    self.busy.record(b.start, cut);
                    if let Some(s) = &mut self.series {
                        s.record(b.start, cut);
                    }
                    self.bytes_carried += wire;
                    self.events_saved += segments - 1;
                    let head = self.vcs[b.vc].front_mut().expect("burst head exists");
                    head.remaining = b.r0 - served;
                    head.header_pending = false;
                    self.burst = None;
                    self.token += 1;
                    return EnqueueEffect::Preempted(cut);
                }
                // The burst drains before the first boundary the newcomer
                // could claim: let its pending event stand.
            }
            return EnqueueEffect::Pending;
        }
        if !self.serving {
            self.serving = true;
            EnqueueEffect::Wake
        } else {
            EnqueueEffect::Pending
        }
    }

    /// Requeues a packet at the *head* of virtual channel `vc` for
    /// retransmission after a drop. The packet is re-serialized in full
    /// (header included), and head placement preserves per-VC FIFO order so
    /// retransmission never reorders a flow.
    pub fn requeue_front(&mut self, vc: usize, pkt: Packet<P>, data_bytes: u64) {
        self.vcs[vc].push_front(QueuedPacket {
            pkt,
            remaining: data_bytes,
            header_pending: true,
            // Due whenever the link next serves, after its backoff.
            stamp: SimTime::ZERO,
        });
    }

    /// True if a serve event is already pending.
    pub fn is_serving(&self) -> bool {
        self.serving
    }

    /// Marks that a serve event has been scheduled (or completed).
    pub fn set_serving(&mut self, serving: bool) {
        self.serving = serving;
    }

    /// Current token; `LinkFree` events carrying an older value are stale.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// True if any VC holds a packet.
    pub fn has_work(&self) -> bool {
        self.vcs.iter().any(|q| !q.is_empty())
    }

    /// Completes an active burst whose event fires at `now`: accounts its
    /// busy span and counters and pops the head packet, which arrives at
    /// the far end at `now + latency`. Returns `None` when no burst is
    /// active. Call before [`Link::serve`] when a link event fires.
    pub fn finish_burst(&mut self, now: SimTime) -> Option<(Packet<P>, SimTime)> {
        let b = self.burst?;
        debug_assert_eq!(b.free_at, now, "burst event fired at the wrong time");
        self.busy.record(b.start, b.free_at);
        if let Some(s) = &mut self.series {
            s.record(b.start, b.free_at);
        }
        self.bytes_carried += b.wire_total;
        self.events_saved += b.segments - 1;
        let q = self.vcs[b.vc].pop_front().expect("burst head exists");
        self.packets_carried += 1;
        self.burst = None;
        Some((q.pkt, b.free_at + self.latency))
    }

    /// Serves the link starting at `now`: picks the next non-empty VC
    /// round-robin. When it is the only non-empty VC and its head packet
    /// spans several segments, starts a coalesced burst (one event for the
    /// whole packet); otherwise serializes one `segment_bytes` segment
    /// (plus the header on the packet's first segment).
    ///
    /// Returns `None` when all VCs are empty.
    pub fn serve(&mut self, now: SimTime) -> Option<ServeOutcome<P>> {
        debug_assert!(self.burst.is_none(), "serve during an active burst");
        let n = self.vcs.len();
        let vc = (0..n)
            .map(|i| (self.rr + i) % n)
            .find(|&i| !self.vcs[i].is_empty())?;
        self.rr = (vc + 1) % n;

        let sole = self
            .vcs
            .iter()
            .enumerate()
            .all(|(i, q)| i == vc || q.is_empty());
        let head = self.vcs[vc].front_mut().expect("vc checked non-empty");
        if head.header_pending && now < head.stamp {
            self.early_departures += 1;
        }
        if sole && head.remaining > self.segment_bytes {
            let (r0, hdr) = (head.remaining, head.header_pending);
            let (free_at, wire_total, segments, served) = self.walk_burst(now, r0, hdr, None);
            debug_assert_eq!(served, r0);
            self.burst = Some(Burst {
                vc,
                start: now,
                free_at,
                r0,
                hdr,
                wire_total,
                segments,
            });
            return Some(ServeOutcome {
                free_at,
                departed: None,
            });
        }

        let seg = head.remaining.min(self.segment_bytes);
        let mut wire = seg;
        if head.header_pending {
            wire += self.header_bytes;
            head.header_pending = false;
        }
        head.remaining -= seg;
        let drained = head.remaining == 0;

        let t = self.transfer(wire);
        let free_at = now + t;
        self.busy.record(now, free_at);
        if let Some(s) = &mut self.series {
            s.record(now, free_at);
        }
        self.bytes_carried += wire;

        let departed = if drained {
            let q = self.vcs[vc].pop_front().expect("head exists");
            self.packets_carried += 1;
            Some((q.pkt, free_at + self.latency))
        } else {
            None
        };
        Some(ServeOutcome { free_at, departed })
    }

    /// Total wire bytes (payload + headers) carried so far.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Packets fully carried so far.
    pub fn packets_carried(&self) -> u64 {
        self.packets_carried
    }

    /// Packets whose serialization started before the time they were
    /// enqueued for. A packet stamped in the future that queues behind a
    /// busy link is served as soon as the link frees, even before its
    /// stamp; this counts how often that happened.
    pub fn early_departures(&self) -> u64 {
        self.early_departures
    }

    /// Link events avoided by coalescing (per-segment events the baseline
    /// model would have processed, minus the one burst event).
    pub fn events_saved(&self) -> u64 {
        self.events_saved
    }

    /// Cumulative busy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy.busy_time()
    }

    /// Utilization time series, if enabled at construction.
    pub fn series(&self) -> Option<&UtilizationSeries> {
        self.series.as_ref()
    }

    /// Current total queued packets across VCs (diagnostics).
    pub fn queue_len(&self) -> usize {
        self.vcs.iter().map(|q| q.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Hop;
    use sim_core::{GpuId, PlaneId};

    fn pkt(id: u64) -> Packet<u64> {
        Packet {
            id,
            src: GpuId(0),
            dst: GpuId(1),
            plane: PlaneId(0),
            hop: Hop::ToSwitch,
            retx: 0,
            payload: id,
        }
    }

    fn test_link(segment: u64, vcs: usize) -> Link<u64> {
        // 1 GB/s => 1 byte per ns: transfer times equal byte counts in ns.
        Link::new(
            Bandwidth::gbps(1.0),
            SimDuration::from_ns(250),
            16,
            segment,
            vcs,
            None,
        )
    }

    /// Drives a link the way the fabric does: settle any finished burst,
    /// then serve, until the link idles. Returns (packet id, arrival time)
    /// per departure.
    fn drain(l: &mut Link<u64>, mut now: SimTime) -> Vec<(u64, SimTime)> {
        let mut departures = Vec::new();
        loop {
            if let Some((p, at)) = l.finish_burst(now) {
                departures.push((p.id, at));
            }
            match l.serve(now) {
                Some(out) => {
                    if let Some((p, at)) = out.departed {
                        departures.push((p.id, at));
                    }
                    now = out.free_at;
                }
                None => break,
            }
        }
        departures
    }

    #[test]
    fn single_packet_timing() {
        let mut l = test_link(4096, 1);
        assert_eq!(
            l.enqueue(0, pkt(1), 100, SimTime::ZERO, true),
            EnqueueEffect::Wake
        );
        let out = l.serve(SimTime::ZERO).unwrap();
        // 100 B payload + 16 B header at 1 B/ns = 116 ns on the wire.
        assert_eq!(out.free_at, SimTime::from_ns(116));
        let (p, arrive) = out.departed.unwrap();
        assert_eq!(p.id, 1);
        assert_eq!(arrive, SimTime::from_ns(116 + 250));
        assert!(l.serve(out.free_at).is_none());
    }

    #[test]
    fn large_packet_coalesces_into_one_burst() {
        let mut l = test_link(64, 1);
        l.enqueue(0, pkt(1), 200, SimTime::ZERO, true);
        // Segments 64+hdr, 64, 64, 8 sum to 216 ns — but one event, not 4.
        let o = l.serve(SimTime::ZERO).unwrap();
        assert_eq!(o.free_at, SimTime::from_ns(216));
        assert!(o.departed.is_none());
        let (p, arrive) = l.finish_burst(o.free_at).unwrap();
        assert_eq!(p.id, 1);
        assert_eq!(arrive, SimTime::from_ns(216 + 250));
        assert_eq!(l.bytes_carried(), 216);
        assert_eq!(l.busy_time(), SimDuration::from_ns(216));
        assert_eq!(l.events_saved(), 3);
        assert!(l.serve(o.free_at).is_none());
    }

    #[test]
    fn round_robin_interleaves_vcs() {
        let mut l = test_link(64, 2);
        l.enqueue(0, pkt(1), 128, SimTime::ZERO, true); // 2 segments on vc0
        l.enqueue(1, pkt(2), 128, SimTime::ZERO, true); // 2 segments on vc1
        let departures = drain(&mut l, SimTime::ZERO);
        // Interleaved: vc0 seg, vc1 seg, vc0 seg (departs), vc1 seg (departs).
        assert_eq!(departures.len(), 2);
        assert_eq!(departures[0].0, 1);
        assert_eq!(departures[1].0, 2);
        // Packet 2 departs only one segment after packet 1 — fair sharing,
        // not head-of-line blocking.
        let gap = departures[1].1.since(departures[0].1);
        assert_eq!(gap, SimDuration::from_ns(64));
    }

    #[test]
    fn single_vc_causes_head_of_line_blocking() {
        let mut l = test_link(64, 1);
        l.enqueue(0, pkt(1), 1024, SimTime::ZERO, true);
        l.enqueue(0, pkt(2), 64, SimTime::ZERO, true);
        let departures = drain(&mut l, SimTime::ZERO);
        // Packet 2 had to wait behind the whole 1024 B of packet 1.
        let at = departures.iter().find(|(id, _)| *id == 2).unwrap().1;
        assert!(at >= SimTime::from_ns(1024 + 16 + 64));
    }

    #[test]
    fn preemption_cuts_at_next_segment_boundary() {
        let mut l = test_link(64, 2);
        l.enqueue(1, pkt(1), 300, SimTime::ZERO, true);
        // Burst boundaries: 80 (64+hdr), 144, 208, 272, 316.
        let o = l.serve(SimTime::ZERO).unwrap();
        assert_eq!(o.free_at, SimTime::from_ns(316));
        // A second VC enqueues mid-segment at 100 ns: the in-flight segment
        // finishes at 144 ns, then arbitration resumes.
        let eff = l.enqueue(0, pkt(2), 32, SimTime::from_ns(100), false);
        assert_eq!(eff, EnqueueEffect::Preempted(SimTime::from_ns(144)));
        // The burst accounted exactly its two completed segments.
        assert_eq!(l.bytes_carried(), 144);
        assert_eq!(l.busy_time(), SimDuration::from_ns(144));
        assert_eq!(l.token(), 1);
        let departures = drain(&mut l, SimTime::from_ns(144));
        // Baseline per-segment walk: vc0 serves 32+16 over [144,192), pkt2
        // arrives 192+250; vc1's remaining 172 B over [192,364), pkt1
        // arrives 364+250.
        assert_eq!(
            departures,
            vec![
                (2, SimTime::from_ns(192 + 250)),
                (1, SimTime::from_ns(364 + 250)),
            ]
        );
        assert_eq!(l.bytes_carried(), 364);
        assert_eq!(l.busy_time(), SimDuration::from_ns(364));
    }

    #[test]
    fn preemption_on_exact_boundary_respects_settledness() {
        // Enqueue lands exactly on the 144 ns boundary. Mid-dispatch
        // (unsettled) the newcomer wins that boundary; from a settled
        // caller the boundary already went to the burst.
        let mut a = test_link(64, 2);
        a.enqueue(1, pkt(1), 300, SimTime::ZERO, true);
        a.serve(SimTime::ZERO).unwrap();
        let eff = a.enqueue(0, pkt(2), 32, SimTime::from_ns(144), false);
        assert_eq!(eff, EnqueueEffect::Preempted(SimTime::from_ns(144)));

        let mut b = test_link(64, 2);
        b.enqueue(1, pkt(1), 300, SimTime::ZERO, true);
        b.serve(SimTime::ZERO).unwrap();
        let eff = b.enqueue(0, pkt(2), 32, SimTime::from_ns(144), true);
        assert_eq!(eff, EnqueueEffect::Preempted(SimTime::from_ns(208)));
    }

    #[test]
    fn enqueue_near_burst_end_does_not_preempt() {
        let mut l = test_link(64, 2);
        l.enqueue(1, pkt(1), 300, SimTime::ZERO, true);
        let o = l.serve(SimTime::ZERO).unwrap();
        // Enqueue inside the final segment (boundaries 272 and 316): the
        // burst drains before any boundary the newcomer could claim.
        let eff = l.enqueue(0, pkt(2), 32, SimTime::from_ns(280), false);
        assert_eq!(eff, EnqueueEffect::Pending);
        assert_eq!(l.token(), 0);
        let departures = drain(&mut l, o.free_at);
        assert_eq!(
            departures,
            vec![
                (1, SimTime::from_ns(316 + 250)),
                (2, SimTime::from_ns(364 + 250)),
            ]
        );
    }

    #[test]
    fn same_vc_enqueue_does_not_preempt() {
        let mut l = test_link(64, 1);
        l.enqueue(0, pkt(1), 300, SimTime::ZERO, true);
        l.serve(SimTime::ZERO).unwrap();
        let eff = l.enqueue(0, pkt(2), 64, SimTime::from_ns(100), false);
        assert_eq!(eff, EnqueueEffect::Pending);
        assert_eq!(l.token(), 0);
    }

    #[test]
    fn busy_time_accumulates() {
        let mut l = test_link(4096, 1);
        l.enqueue(0, pkt(1), 84, SimTime::ZERO, true); // 84+16 = 100 ns
        let o = l.serve(SimTime::ZERO).unwrap();
        assert_eq!(l.busy_time(), SimDuration::from_ns(100));
        assert_eq!(l.packets_carried(), 1);
        assert_eq!(l.queue_len(), 0);
        let _ = o;
    }
}
