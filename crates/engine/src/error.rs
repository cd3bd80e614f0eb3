//! Typed simulation failures.
//!
//! The engine used to `panic!` on deadlock, deadline overrun and fault
//! pressure; sweeps could only show an opaque FAILED row. [`SimError`]
//! carries the same diagnostics as structured data so callers (and sweep
//! rows) can distinguish a deadlock from a livelock from a run whose
//! retransmit budget was exhausted by fault injection.

use sim_core::{AuditReport, SimTime};
use std::fmt;

/// Diagnostics packaged with a deadlock: what was stuck and where.
#[derive(Debug, Clone, Default)]
pub struct DeadlockDiag {
    /// Every subsystem's counters when the run stalled, the same list an
    /// [`AuditReport`] prints: `engine.kernels_remaining`,
    /// `engine.blocked_tbs`, `engine.throttle_queued`, ...
    pub counters: Vec<(&'static str, f64)>,
    /// Per-(GPU, group) pre-access sync waiters, as `gpu/group:count`.
    pub preaccess_waiters: Vec<String>,
    /// Unlaunched / incomplete kernels (truncated).
    pub kernels: Vec<String>,
    /// TBs still blocked in the engine's tile/load wait tables
    /// (truncated).
    pub blocked_tbs: Vec<String>,
    /// Waits-for edges (`waiter -> resource it is stuck on`) across GPUs,
    /// switch ports and sync groups, truncated. Built on every deadlock.
    pub waits_for: Vec<String>,
    /// Rendered tail of the fabric event ring, oldest first. Empty unless
    /// auditing was enabled for the run.
    pub recent_events: Vec<String>,
}

impl DeadlockDiag {
    /// The value of a listed counter, if listed.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
    }
}

/// Why a simulation run failed.
#[derive(Debug, Clone)]
pub enum SimError {
    /// No pending events while work remains: the program can never finish.
    Deadlock(Box<DeadlockDiag>),
    /// Simulated time passed the configured deadline: runaway or livelock.
    DeadlineExceeded {
        /// The configured hard wall.
        deadline: SimTime,
        /// Time of the first pending event past the deadline.
        now: SimTime,
        /// Kernels that had not completed yet.
        kernels_remaining: usize,
    },
    /// Fault injection dropped some packet more times than the retransmit
    /// budget allows; the run completed via force-delivery but its results
    /// model data loss and must not be trusted.
    FaultBudgetExhausted {
        /// Packets that ran out of retransmit budget.
        exhausted: u64,
        /// Total packet drops over the run.
        drops: u64,
        /// Total retransmissions over the run.
        retries: u64,
    },
    /// A conservation ledger failed a cadence or quiescence check: the
    /// simulator's own bookkeeping is inconsistent and the run's results
    /// cannot be trusted. Carries the full forensic report.
    AuditViolation(Box<AuditReport>),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(d) => {
                let kernels = d.counter("engine.kernels_remaining").unwrap_or(0.0);
                if kernels > 0.0 {
                    write!(
                        f,
                        "deadlock: {kernels} kernels never completed; pre-access waiters \
                         {:?}; kernels: {:?}",
                        d.preaccess_waiters, d.kernels,
                    )?;
                } else {
                    write!(
                        f,
                        "deadlock: TBs still blocked at quiescence: {:?}",
                        d.blocked_tbs
                    )?;
                }
                write!(f, "; nonzero counters:")?;
                for (k, v) in d.counters.iter().filter(|(_, v)| *v != 0.0) {
                    write!(f, " {k}={v}")?;
                }
                if !d.waits_for.is_empty() {
                    write!(f, "; waits-for: {:?}", d.waits_for)?;
                }
                if !d.recent_events.is_empty() {
                    write!(f, "; last events: {:?}", d.recent_events)?;
                }
                Ok(())
            }
            SimError::DeadlineExceeded {
                deadline,
                now,
                kernels_remaining,
            } => write!(
                f,
                "deadline exceeded: simulation passed {deadline} (now {now}) with \
                 {kernels_remaining} kernels remaining; runaway or livelock"
            ),
            SimError::FaultBudgetExhausted {
                exhausted,
                drops,
                retries,
            } => write!(
                f,
                "fault budget exhausted: {exhausted} packets exceeded their retransmit \
                 budget ({drops} drops, {retries} retries); results model data loss"
            ),
            SimError::AuditViolation(report) => {
                write!(f, "audit violation: {report}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_distinguishes_variants() {
        let dl = SimError::Deadlock(Box::new(DeadlockDiag {
            counters: vec![
                ("engine.blocked_tbs", 5.0),
                ("engine.throttle_queued", 0.0),
                ("engine.kernels_remaining", 2.0),
            ],
            preaccess_waiters: vec!["g0/grp1:3".into()],
            kernels: vec!["incomplete k0".into()],
            blocked_tbs: vec![],
            waits_for: vec!["tb4@g0 -> tile t7@g1".into()],
            recent_events: vec!["1.2us arrive.gpu a=9 b=0".into()],
        }));
        let s = dl.to_string();
        assert!(s.contains("deadlock"));
        assert!(s.contains("2 kernels"));
        assert!(s.contains("g0/grp1:3"));
        assert!(s.contains("engine.blocked_tbs=5"), "{s}");
        assert!(
            !s.contains("throttle_queued"),
            "zero counters are omitted: {s}"
        );
        assert!(s.contains("waits-for"));
        assert!(s.contains("tb4@g0 -> tile t7@g1"));
        assert!(s.contains("arrive.gpu"));

        let quiesce = SimError::Deadlock(Box::new(DeadlockDiag {
            blocked_tbs: vec!["tb3".into()],
            ..DeadlockDiag::default()
        }));
        assert!(quiesce.to_string().contains("quiescence"));

        let dead = SimError::DeadlineExceeded {
            deadline: SimTime::from_ms(10),
            now: SimTime::from_ms(11),
            kernels_remaining: 1,
        };
        assert!(dead.to_string().contains("deadline exceeded"));

        let fault = SimError::FaultBudgetExhausted {
            exhausted: 3,
            drops: 30,
            retries: 27,
        };
        assert!(fault.to_string().contains("fault budget exhausted"));

        let mut probe = sim_core::AuditProbe::new(sim_core::AuditPhase::Quiescence);
        probe.ledger("fabric", "enqueued == served + queued", 10, 9);
        let audit = SimError::AuditViolation(Box::new(
            probe.into_report(SimTime::from_ns(5), vec!["ev".into()]),
        ));
        let s = audit.to_string();
        assert!(s.contains("audit violation"), "{s}");
        assert!(s.contains("[fabric]"), "{s}");
        assert!(s.contains("enqueued == served + queued"), "{s}");
    }
}
