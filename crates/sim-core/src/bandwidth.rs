//! Bandwidth arithmetic.

use crate::time::SimDuration;
use std::fmt;

/// A link or memory bandwidth, stored as bytes per second.
///
/// Transfer-time arithmetic is done in `u128` picosecond space so that
/// multi-gigabyte transfers at terabyte-class rates neither overflow nor
/// lose precision.
///
/// ```
/// use sim_core::Bandwidth;
/// let bw = Bandwidth::gbps(100.0); // 100 GB/s
/// assert_eq!(bw.transfer_time(100).as_ns(), 1); // 100 B / 100 GB/s = 1 ns
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not finite and positive.
    pub fn bytes_per_sec(bytes_per_sec: f64) -> Bandwidth {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "bandwidth must be finite and positive, got {bytes_per_sec}"
        );
        Bandwidth { bytes_per_sec }
    }

    /// Creates a bandwidth from gigabytes per second (10^9 bytes).
    pub fn gbps(gb_per_sec: f64) -> Bandwidth {
        Bandwidth::bytes_per_sec(gb_per_sec * 1e9)
    }

    /// Bandwidth in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Bandwidth in GB/s (10^9 bytes).
    pub fn as_gbps(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to serialize `bytes` at this rate, rounded up to 1 ps minimum
    /// for nonzero transfers so events always make progress.
    pub fn transfer_time(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ps = (bytes as f64) * 1e12 / self.bytes_per_sec;
        SimDuration::from_ps((ps.ceil() as u64).max(1))
    }

    /// This bandwidth divided evenly `n` ways (e.g. striping across planes).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split(self, n: usize) -> Bandwidth {
        assert!(n > 0, "cannot split bandwidth zero ways");
        Bandwidth::bytes_per_sec(self.bytes_per_sec / n as f64)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}GB/s", self.as_gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_basics() {
        let bw = Bandwidth::gbps(1.0);
        assert_eq!(bw.transfer_time(0), SimDuration::ZERO);
        assert_eq!(bw.transfer_time(1_000).as_ns(), 1_000);
        // Sub-ps transfers round up to 1 ps so progress is guaranteed.
        assert!(Bandwidth::gbps(10_000.0).transfer_time(1).as_ps() >= 1);
    }

    #[test]
    fn split_divides_rate() {
        let bw = Bandwidth::gbps(450.0).split(4);
        assert!((bw.as_gbps() - 112.5).abs() < 1e-9);
    }

    #[test]
    fn large_transfer_does_not_overflow() {
        let bw = Bandwidth::gbps(900.0);
        let t = bw.transfer_time(16 * (1 << 30)); // 16 GiB
        assert!((t.as_secs_f64() * 1e3 - 19.088).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_bandwidth_rejected() {
        let _ = Bandwidth::bytes_per_sec(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Bandwidth::gbps(112.5)), "112.5GB/s");
    }
}
