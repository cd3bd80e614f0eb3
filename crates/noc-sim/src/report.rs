//! Fabric usage reporting (bandwidth utilization per link/direction).

use crate::link::Direction;
use sim_core::{GpuId, PlaneId, SimDuration};

/// Usage of one link direction over an observation horizon.
#[derive(Debug, Clone)]
pub struct LinkUsage {
    /// Switch plane of the link.
    pub plane: PlaneId,
    /// GPU endpoint of the link.
    pub gpu: GpuId,
    /// Direction (up = GPU-to-switch, down = switch-to-GPU).
    pub dir: Direction,
    /// Cumulative busy time.
    pub busy: SimDuration,
    /// Wire bytes carried (payload + headers).
    pub bytes: u64,
    /// Packets fully carried.
    pub packets: u64,
    /// `busy / horizon`.
    pub utilization: f64,
    /// Utilization time series samples, when enabled in the fabric config.
    pub series: Option<Vec<f64>>,
}

/// Counters for the link fault-injection and retransmission protocol.
///
/// All zero when fault injection is disabled (the default).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Packets dropped on the wire (each triggers a retransmission).
    pub drops: u64,
    /// Packets delivered corrupted and NACKed by the receiver (each
    /// triggers a retransmission; disjoint from `drops`).
    pub corruptions: u64,
    /// Retransmissions performed (`drops + corruptions` minus budget
    /// exhaustions).
    pub retries: u64,
    /// Total exponential-backoff wait accumulated before retransmissions.
    pub backoff_time: SimDuration,
    /// Packets whose retransmit budget ran out; they are force-delivered so
    /// the simulation terminates, and the engine reports the run as failed.
    pub budget_exhausted: u64,
    /// Serve attempts deferred because the link was inside a transient
    /// outage window.
    pub down_stalls: u64,
    /// Packet serves that started inside a bandwidth-degradation window.
    pub degraded_serves: u64,
}

impl ResilienceCounters {
    /// True when no fault event was recorded.
    pub fn is_clean(&self) -> bool {
        *self == ResilienceCounters::default()
    }
}

/// Aggregated usage over all links of a fabric run.
///
/// The paper's Fig. 15 reports "average bandwidth utilization across all
/// links and two directions for each link" — that is [`FabricReport::mean_utilization`].
#[derive(Debug, Clone)]
pub struct FabricReport {
    pub(crate) horizon: SimDuration,
    pub(crate) usages: Vec<LinkUsage>,
    pub(crate) events_saved: u64,
    pub(crate) early_departures: u64,
    pub(crate) resilience: ResilienceCounters,
}

impl FabricReport {
    /// Builds a report from per-link usages, with every scalar counter
    /// zero. The fabric fills those in itself (see `Fabric::report`).
    pub fn new(horizon: SimDuration, usages: Vec<LinkUsage>) -> FabricReport {
        FabricReport {
            horizon,
            usages,
            events_saved: 0,
            early_departures: 0,
            resilience: ResilienceCounters::default(),
        }
    }

    /// Fault-injection and retransmission counters; all zero when fault
    /// injection is disabled.
    pub fn resilience(&self) -> &ResilienceCounters {
        &self.resilience
    }

    /// Link events avoided by segment coalescing across all links: the
    /// per-segment events the uncoalesced model would have processed,
    /// minus the single burst event that replaced each run of them.
    pub fn events_saved(&self) -> u64 {
        self.events_saved
    }

    /// Packets whose link serialization started before the time they were
    /// injected for, across all links (see `Link::early_departures`).
    pub fn early_departures(&self) -> u64 {
        self.early_departures
    }

    /// The observation horizon used for utilization.
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Per-link usages.
    pub fn usages(&self) -> &[LinkUsage] {
        &self.usages
    }

    /// Mean utilization across every link and both directions.
    pub fn mean_utilization(&self) -> f64 {
        if self.usages.is_empty() {
            return 0.0;
        }
        self.usages.iter().map(|u| u.utilization).sum::<f64>() / self.usages.len() as f64
    }

    /// Total wire bytes in one direction.
    pub fn bytes_dir(&self, dir: Direction) -> u64 {
        self.usages
            .iter()
            .filter(|u| u.dir == dir)
            .map(|u| u.bytes)
            .sum()
    }

    /// Mean utilization time series across all links that recorded one.
    ///
    /// Series of different lengths are right-padded with zero (a link idle
    /// for the rest of the run). Returns an empty vec when no link recorded
    /// a series.
    pub fn mean_series(&self) -> Vec<f64> {
        let series: Vec<&Vec<f64>> = self
            .usages
            .iter()
            .filter_map(|u| u.series.as_ref())
            .collect();
        if series.is_empty() {
            return Vec::new();
        }
        let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
        let mut out = vec![0.0; len];
        for s in &series {
            for (i, v) in s.iter().enumerate() {
                out[i] += v;
            }
        }
        for v in &mut out {
            *v /= series.len() as f64;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(dir: Direction, utilization: f64, bytes: u64, series: Option<Vec<f64>>) -> LinkUsage {
        LinkUsage {
            plane: PlaneId(0),
            gpu: GpuId(0),
            dir,
            busy: SimDuration::ZERO,
            bytes,
            packets: 0,
            utilization,
            series,
        }
    }

    #[test]
    fn mean_utilization_over_all_links() {
        let r = FabricReport::new(
            SimDuration::from_us(1),
            vec![
                usage(Direction::Up, 0.2, 10, None),
                usage(Direction::Down, 0.8, 30, None),
            ],
        );
        assert!((r.mean_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(r.bytes_dir(Direction::Down), 30);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = FabricReport::new(SimDuration::from_us(1), vec![]);
        assert_eq!(r.mean_utilization(), 0.0);
        assert!(r.mean_series().is_empty());
    }

    #[test]
    fn mean_series_pads_short_series() {
        let r = FabricReport::new(
            SimDuration::from_us(1),
            vec![
                usage(Direction::Up, 0.5, 0, Some(vec![1.0, 1.0])),
                usage(Direction::Down, 0.5, 0, Some(vec![1.0])),
            ],
        );
        let m = r.mean_series();
        assert_eq!(m, vec![1.0, 0.5]);
    }
}
