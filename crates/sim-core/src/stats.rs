//! Statistics collectors used by every simulator layer.

use crate::time::{SimDuration, SimTime};

/// Tracks the busy time of a serial resource (a link direction, an SM slot)
/// so utilization can be reported over any observation window.
///
/// Intervals are accumulated as they complete; overlapping intervals are the
/// caller's bug and are rejected in debug builds via the monotonicity check.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    busy: SimDuration,
    last_end: SimTime,
}

impl BusyTracker {
    /// Creates an idle tracker.
    pub fn new() -> BusyTracker {
        BusyTracker::default()
    }

    /// Records that the resource was busy on `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the interval overlaps a previously recorded
    /// one, i.e. `start < last_end`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        debug_assert!(
            start >= self.last_end,
            "BusyTracker intervals must not overlap: start {start} < last_end {}",
            self.last_end
        );
        self.busy += end.since(start);
        self.last_end = end;
    }

    /// Total busy time recorded so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// End of the last recorded interval.
    pub fn last_end(&self) -> SimTime {
        self.last_end
    }

    /// Utilization over `[0, horizon)`; 0 when the horizon is empty.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        self.busy.ratio(horizon)
    }
}

/// Fixed-bucket utilization-over-time series (paper Fig. 16).
///
/// Busy intervals are smeared across the buckets they intersect; each bucket
/// then reports `busy_in_bucket / bucket_width`.
#[derive(Debug, Clone)]
pub struct UtilizationSeries {
    bucket: SimDuration,
    busy_ps: Vec<u64>,
}

impl UtilizationSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimDuration) -> UtilizationSeries {
        assert!(!bucket.is_zero(), "bucket width must be positive");
        UtilizationSeries {
            bucket,
            busy_ps: Vec::new(),
        }
    }

    /// Records a busy interval `[start, end)`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        if end <= start {
            return;
        }
        let bw = self.bucket.as_ps();
        let (s, e) = (start.as_ps(), end.as_ps());
        let first = (s / bw) as usize;
        let last = ((e - 1) / bw) as usize;
        if self.busy_ps.len() <= last {
            self.busy_ps.resize(last + 1, 0);
        }
        for b in first..=last {
            let b_start = b as u64 * bw;
            let b_end = b_start + bw;
            self.busy_ps[b] += e.min(b_end) - s.max(b_start);
        }
    }

    /// Utilization per bucket, each in `[0, 1]`.
    pub fn samples(&self) -> Vec<f64> {
        let bw = self.bucket.as_ps() as f64;
        self.busy_ps.iter().map(|&b| b as f64 / bw).collect()
    }

    /// Mean utilization over buckets `[0, n)` where `n` covers `horizon`.
    pub fn mean_until(&self, horizon: SimTime) -> f64 {
        let n = (horizon.as_ps().div_ceil(self.bucket.as_ps())) as usize;
        if n == 0 {
            return 0.0;
        }
        let total: u64 = self.busy_ps.iter().take(n).sum();
        total as f64 / (n as u64 * self.bucket.as_ps()) as f64
    }
}

/// Geometric mean of positive values; 0 when empty.
///
/// The paper reports all cross-model speedups as geometric means.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|v| {
            assert!(*v > 0.0, "geomean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_tracker_utilization() {
        let mut b = BusyTracker::new();
        b.record(SimTime::from_ns(0), SimTime::from_ns(30));
        b.record(SimTime::from_ns(50), SimTime::from_ns(70));
        assert_eq!(b.busy_time(), SimDuration::from_ns(50));
        assert!((b.utilization(SimDuration::from_ns(100)) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not overlap")]
    fn busy_tracker_rejects_overlap() {
        let mut b = BusyTracker::new();
        b.record(SimTime::from_ns(0), SimTime::from_ns(10));
        b.record(SimTime::from_ns(5), SimTime::from_ns(15));
    }

    #[test]
    fn utilization_series_smears_across_buckets() {
        let mut s = UtilizationSeries::new(SimDuration::from_ns(10));
        // Busy [5, 25): half of bucket 0, all of bucket 1, half of bucket 2.
        s.record(SimTime::from_ns(5), SimTime::from_ns(25));
        let samples = s.samples();
        assert_eq!(samples.len(), 3);
        assert!((samples[0] - 0.5).abs() < 1e-12);
        assert!((samples[1] - 1.0).abs() < 1e-12);
        assert!((samples[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_series_mean() {
        let mut s = UtilizationSeries::new(SimDuration::from_ns(10));
        s.record(SimTime::from_ns(0), SimTime::from_ns(10));
        // Over two buckets (20 ns horizon) the mean is 0.5.
        assert!((s.mean_until(SimTime::from_ns(20)) - 0.5).abs() < 1e-12);
        assert_eq!(s.mean_until(SimTime::ZERO), 0.0);
    }

    #[test]
    fn utilization_series_ignores_empty_interval() {
        let mut s = UtilizationSeries::new(SimDuration::from_ns(10));
        s.record(SimTime::from_ns(5), SimTime::from_ns(5));
        assert!(s.samples().is_empty());
    }

    #[test]
    fn geomean_matches_hand_computation() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "requires positive")]
    fn geomean_rejects_nonpositive() {
        let _ = geomean(&[1.0, 0.0]);
    }
}
