//! Runtime conservation auditor: ledger checks, quiescence verification,
//! and bounded event forensics.
//!
//! Every subsystem that creates, transforms, or retires simulated objects
//! (packets on links, merge-table sessions, retransmission state) keeps
//! cheap always-compiled tallies — plain `u64` increments on paths that
//! already touch the counted object. This module supplies the machinery
//! that *checks* those tallies:
//!
//! * [`AuditProbe`] — a visitor each subsystem fills in: conservation
//!   ledgers (`expected` vs `actual`), every counter the subsystem owns
//!   (listed once, under its owner's prefix; run reports and deadlock
//!   diagnostics read the same list), and quiescence requirements (values
//!   that must be zero once a run has drained).
//! * [`AuditReport`] — the forensic report built from a failed probe:
//!   every violated ledger with expected/actual, the full counter set,
//!   and the last N events from a bounded [`EventRing`].
//! * [`EventRing`] — a fixed-capacity ring of compact event records
//!   (`&'static str` tag plus three integers; nothing is formatted until
//!   a violation is being reported).
//!
//! # Gating
//!
//! Tallies are always compiled — they are a handful of integer adds on
//! paths dominated by queue and hash work. The end-of-run quiescence
//! check runs on every simulation, so a bookkeeping leak can never
//! survive a passing run. [`AuditConfig::enabled`] is the one switch for
//! the rest: cadence checks during the run and the event ring attached to
//! forensic reports. Auditing observes and never feeds a value back into
//! simulation state, so results are identical with it off and on; a
//! harness test pins this on the golden-table jobs.

use crate::time::SimTime;
use std::fmt;

/// Auditor configuration, carried by the engine's `SystemConfig`.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Run cadence ledger checks and record the forensic event ring. Off
    /// by default. End-of-run quiescence verification runs either way.
    pub enabled: bool,
    /// Run a cadence check after at least this many fabric events since
    /// the previous check (when `enabled`).
    pub cadence_events: u64,
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            enabled: false,
            cadence_events: 8192,
        }
    }
}

/// One violated conservation ledger: the subsystem that owns it, the
/// ledger's name (its equation), and the mismatched sides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerViolation {
    /// Owning subsystem (`"fabric"`, `"merge"`, `"nvls"`, `"engine"`).
    pub subsystem: &'static str,
    /// Ledger name, stating the checked equation.
    pub ledger: &'static str,
    /// What the ledger equation requires.
    pub expected: u64,
    /// What the tallies actually sum to.
    pub actual: u64,
    /// Free-form context (which port, which link, ...). Formatted only
    /// when the violation fires.
    pub detail: String,
}

impl fmt::Display for LedgerViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] ledger `{}`: expected {}, actual {}",
            self.subsystem, self.ledger, self.expected, self.actual
        )?;
        if !self.detail.is_empty() {
            write!(f, " ({})", self.detail)?;
        }
        Ok(())
    }
}

/// Check phase a probe (and its report) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPhase {
    /// Mid-run check at the configured event cadence: only invariants
    /// that hold at *any* event boundary are asserted.
    Cadence,
    /// End-of-run verification: every queue drained and every table
    /// empty. Runs on the success path too.
    Quiescence,
}

impl AuditPhase {
    fn label(self) -> &'static str {
        match self {
            AuditPhase::Cadence => "cadence",
            AuditPhase::Quiescence => "quiescence",
        }
    }
}

/// Visitor the auditor hands to each subsystem. Subsystems report their
/// ledgers and counters; the probe accumulates violations.
#[derive(Debug)]
pub struct AuditProbe {
    phase: AuditPhase,
    violations: Vec<LedgerViolation>,
    counters: Vec<(&'static str, f64)>,
}

impl AuditProbe {
    /// A probe for the given check phase.
    pub fn new(phase: AuditPhase) -> AuditProbe {
        AuditProbe {
            phase,
            violations: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// True for the end-of-run quiescence pass; subsystems gate their
    /// "everything drained" requirements on this.
    pub fn is_quiescence(&self) -> bool {
        self.phase == AuditPhase::Quiescence
    }

    /// Lists one counter (always recorded, violation or not). Each
    /// subsystem lists every counter it owns exactly once, named
    /// `owner.what`; an integral value prints like an integer.
    pub fn counter(&mut self, name: &'static str, value: f64) {
        self.counters.push((name, value));
    }

    /// The counters listed so far, in listing order.
    pub fn counters(&self) -> &[(&'static str, f64)] {
        &self.counters
    }

    /// Checks a conservation ledger; a mismatch becomes a violation.
    pub fn ledger(
        &mut self,
        subsystem: &'static str,
        ledger: &'static str,
        expected: u64,
        actual: u64,
    ) {
        self.ledger_with(subsystem, ledger, expected, actual, String::new);
    }

    /// Like [`AuditProbe::ledger`], with lazily formatted context that is
    /// only evaluated when the ledger is actually violated.
    pub fn ledger_with(
        &mut self,
        subsystem: &'static str,
        ledger: &'static str,
        expected: u64,
        actual: u64,
        detail: impl FnOnce() -> String,
    ) {
        if expected != actual {
            self.violations.push(LedgerViolation {
                subsystem,
                ledger,
                expected,
                actual,
                detail: detail(),
            });
        }
    }

    /// Quiescence requirement: `actual` must be zero.
    pub fn require_zero(&mut self, subsystem: &'static str, ledger: &'static str, actual: u64) {
        self.ledger(subsystem, ledger, 0, actual);
    }

    /// True when any ledger check failed so far.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// The violations accumulated so far.
    pub fn violations(&self) -> &[LedgerViolation] {
        &self.violations
    }

    /// Consumes the probe into a forensic report, attaching the current
    /// sim time and the rendered tail of the event ring.
    pub fn into_report(self, now: SimTime, recent_events: Vec<String>) -> AuditReport {
        AuditReport {
            phase: self.phase,
            now,
            violations: self.violations,
            counters: self.counters,
            recent_events,
        }
    }
}

/// The forensic report carried by an `AuditViolation` error (and, minus
/// the violations, attachable to deadlock diagnostics): every violated
/// ledger, the complete per-subsystem counter set, and the last N events.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Which check phase fired.
    pub phase: AuditPhase,
    /// Sim time at which the check ran.
    pub now: SimTime,
    /// Every violated ledger, in subsystem visit order.
    pub violations: Vec<LedgerViolation>,
    /// All counters reported during the probe, violated or not.
    pub counters: Vec<(&'static str, f64)>,
    /// Rendered tail of the event ring, oldest first.
    pub recent_events: Vec<String>,
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit {} check failed at {} with {} violation(s):",
            self.phase.label(),
            self.now,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if !self.counters.is_empty() {
            writeln!(f, "  counters:")?;
            for (name, value) in &self.counters {
                writeln!(f, "    {name} = {value}")?;
            }
        }
        if !self.recent_events.is_empty() {
            writeln!(
                f,
                "  last {} event(s), oldest first:",
                self.recent_events.len()
            )?;
            for e in &self.recent_events {
                writeln!(f, "    {e}")?;
            }
        }
        Ok(())
    }
}

/// A compact event record: a static tag plus up to three integers, so
/// recording is two stores and nothing is formatted until a violation is
/// being rendered.
#[derive(Debug, Clone, Copy)]
pub struct RingEntry {
    /// When the event fired.
    pub time: SimTime,
    /// Static event tag (`"link.free"`, `"arrive.gpu"`, ...).
    pub what: &'static str,
    /// First operand (packet id, link index, ... — tag-dependent).
    pub a: u64,
    /// Second operand.
    pub b: u64,
}

/// Events the forensic [`EventRing`] keeps: the tail attached to audit and
/// deadlock reports.
pub const AUDIT_RING_CAPACITY: usize = 64;

/// Fixed-capacity ring buffer of [`RingEntry`]s. The auditor keeps one
/// per fabric; deadlock and audit reports render its tail.
#[derive(Debug)]
pub struct EventRing {
    buf: Vec<RingEntry>,
    /// Next write position once the buffer has wrapped.
    next: usize,
    cap: usize,
}

impl EventRing {
    /// A ring holding the last `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> EventRing {
        let cap = cap.max(1);
        EventRing {
            buf: Vec::with_capacity(cap),
            next: 0,
            cap,
        }
    }

    /// Records one event, evicting the oldest once full.
    #[inline]
    pub fn record(&mut self, time: SimTime, what: &'static str, a: u64, b: u64) {
        let entry = RingEntry { time, what, a, b };
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.next] = entry;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Renders the retained events oldest-first.
    pub fn render(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.buf.len());
        let start = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        for i in 0..self.buf.len() {
            let e = &self.buf[(start + i) % self.buf.len()];
            out.push(format!("{} {} a={} b={}", e.time, e.what, e.a, e.b));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_accumulates_only_mismatches() {
        let mut p = AuditProbe::new(AuditPhase::Cadence);
        p.counter("x.total", 7.0);
        p.ledger("fabric", "balanced", 3, 3);
        assert!(!p.has_violations());
        p.ledger_with("merge", "sessions", 5, 4, || "port (0,1)".into());
        assert!(p.has_violations());
        let v = &p.violations()[0];
        assert_eq!(v.subsystem, "merge");
        assert_eq!(v.ledger, "sessions");
        assert_eq!((v.expected, v.actual), (5, 4));
        assert_eq!(v.detail, "port (0,1)");
    }

    #[test]
    fn quiescence_probe_requires_zero() {
        let mut p = AuditProbe::new(AuditPhase::Quiescence);
        assert!(p.is_quiescence());
        p.require_zero("nvls", "open_sessions", 0);
        assert!(!p.has_violations());
        p.require_zero("nvls", "open_sessions", 2);
        assert!(p.has_violations());
    }

    #[test]
    fn report_names_subsystem_and_ledger() {
        let mut p = AuditProbe::new(AuditPhase::Quiescence);
        p.counter("fabric.pkt_enqueued", 10.0);
        p.ledger("fabric", "enqueued == served + queued", 10, 9);
        let report = p.into_report(SimTime::from_ns(42), vec!["e1".into()]);
        let text = report.to_string();
        assert!(text.contains("[fabric]"), "{text}");
        assert!(text.contains("enqueued == served + queued"), "{text}");
        assert!(text.contains("expected 10, actual 9"), "{text}");
        assert!(text.contains("fabric.pkt_enqueued = 10"), "{text}");
        assert!(text.contains("e1"), "{text}");
    }

    #[test]
    fn ring_keeps_last_n_oldest_first() {
        let mut r = EventRing::new(3);
        for i in 0..5u64 {
            r.record(SimTime::from_ns(i), "ev", i, 100 + i);
        }
        let rendered = r.render();
        assert_eq!(rendered.len(), 3);
        assert!(rendered[0].contains("a=2"), "{rendered:?}");
        assert!(rendered[2].contains("a=4"), "{rendered:?}");
    }

    #[test]
    fn ring_under_capacity_renders_in_order() {
        let mut r = EventRing::new(8);
        r.record(SimTime::ZERO, "first", 1, 0);
        r.record(SimTime::from_ns(1), "second", 2, 0);
        let rendered = r.render();
        assert_eq!(rendered.len(), 2);
        assert!(rendered[0].contains("first"));
        assert!(rendered[1].contains("second"));
    }
}
