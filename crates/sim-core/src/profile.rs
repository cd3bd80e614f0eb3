//! Feature-gated self-profiler: per-subsystem wall time and allocation
//! counters, scoped by lightweight RAII guards on the simulator hot paths.
//!
//! # Zero cost when off
//!
//! The whole module is driven by the `profiler` cargo feature. When the
//! feature is **off** (the default), [`prof_scope`] returns a zero-sized
//! guard with no `Drop` impl, [`report`] returns an empty vector and the
//! [`CountingAllocator`] is a transparent pass-through — the optimizer
//! erases every call site. When the feature is **on**, each guard stamps
//! a monotonic clock and the thread's allocation counters at scope entry
//! and exit.
//!
//! # Scope semantics
//!
//! Scopes attribute **self time**: entering a nested scope flushes the
//! elapsed interval to the enclosing subsystem first, so the per-subsystem
//! wall times are disjoint and sum to the instrumented total. `calls`
//! counts scope entries. Allocation deltas are attributed the same way,
//! from the thread-local counters maintained by [`CountingAllocator`]
//! (install it with `#[global_allocator]` in the profiling binary;
//! without it the allocation columns read zero).
//!
//! # Determinism
//!
//! This is the one deliberate exception to the crate's "no global
//! state, no wall clock" rule. The profiler only *observes* the
//! simulation — it never feeds a value back into simulation state — so
//! enabling it cannot change any result. A golden-table test in
//! `cais-harness` pins that property.
//!
//! Counters are **per thread**. A parallel sweep reports whichever worker
//! thread calls [`report`]; the intended use is the single-threaded
//! `cais-bench` / `cais-experiments --profile` paths.

use std::fmt;

/// Hot-path subsystems instrumented with [`prof_scope`] guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subsystem {
    /// Top-level engine event loop (`SystemSim::run`), excluding the
    /// nested scopes below.
    EngineLoop,
    /// The engine's effect/delivery fixpoint drain.
    DrainEffects,
    /// `GpuSim::advance`: thread-block scheduling and phase stepping.
    GpuAdvance,
    /// `Fabric::advance`: link serving and network event dispatch.
    FabricAdvance,
    /// In-switch logic callbacks (`on_packet` / `on_timer`).
    SwitchLogic,
    /// Merge-table operations inside the CAIS switch logic.
    MergeTable,
}

impl Subsystem {
    /// Every subsystem, in report order.
    pub const ALL: [Subsystem; 6] = [
        Subsystem::EngineLoop,
        Subsystem::DrainEffects,
        Subsystem::GpuAdvance,
        Subsystem::FabricAdvance,
        Subsystem::SwitchLogic,
        Subsystem::MergeTable,
    ];

    /// Stable snake_case label used in tables and `BENCH_sim.json`.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::EngineLoop => "engine_loop",
            Subsystem::DrainEffects => "drain_effects",
            Subsystem::GpuAdvance => "gpu_advance",
            Subsystem::FabricAdvance => "fabric_advance",
            Subsystem::SwitchLogic => "switch_logic",
            Subsystem::MergeTable => "merge_table",
        }
    }

    #[cfg_attr(not(feature = "profiler"), allow(dead_code))]
    fn index(self) -> usize {
        match self {
            Subsystem::EngineLoop => 0,
            Subsystem::DrainEffects => 1,
            Subsystem::GpuAdvance => 2,
            Subsystem::FabricAdvance => 3,
            Subsystem::SwitchLogic => 4,
            Subsystem::MergeTable => 5,
        }
    }
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One row of the profiler report: self-time and allocation counters for
/// a single [`Subsystem`] on the calling thread.
#[derive(Clone, Copy, Debug)]
pub struct SubsystemReport {
    /// Which subsystem this row describes.
    pub subsystem: Subsystem,
    /// Number of scope entries.
    pub calls: u64,
    /// Self wall time in nanoseconds (time inside this scope but outside
    /// any nested scope).
    pub wall_ns: u64,
    /// Heap allocations attributed to this scope's self time. Zero unless
    /// the [`CountingAllocator`] is installed.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// Reports whether the profiler was compiled in (`profiler` feature).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "profiler")
}

/// Global allocator wrapper that maintains per-thread allocation counters
/// for the profiler. A transparent pass-through to [`std::alloc::System`]
/// when the `profiler` feature is off.
///
/// Install in the profiling binary:
///
/// ```ignore
/// #[cfg(feature = "profiler")]
/// #[global_allocator]
/// static ALLOC: sim_core::profile::CountingAllocator =
///     sim_core::profile::CountingAllocator;
/// ```
pub struct CountingAllocator;

#[cfg(not(feature = "profiler"))]
mod imp {
    use super::{CountingAllocator, SubsystemReport};
    use std::alloc::{GlobalAlloc, Layout, System};

    /// RAII profiling scope. Zero-sized no-op in this configuration.
    #[must_use = "the scope is measured until the guard drops"]
    pub struct ProfScope {
        _priv: (),
    }

    #[inline(always)]
    pub(super) fn scope(_sys: super::Subsystem) -> ProfScope {
        ProfScope { _priv: () }
    }

    pub(super) fn report_rows() -> Vec<SubsystemReport> {
        Vec::new()
    }

    pub(super) fn reset_rows() {}

    // SAFETY: pure pass-through to the system allocator.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(feature = "profiler")]
mod imp {
    use super::{CountingAllocator, Subsystem, SubsystemReport};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::{Cell, RefCell};
    use std::time::Instant;

    const N: usize = Subsystem::ALL.len();

    #[derive(Clone, Copy, Default)]
    struct Row {
        calls: u64,
        wall_ns: u64,
        allocs: u64,
        alloc_bytes: u64,
    }

    struct State {
        rows: [Row; N],
        /// Indices of the currently open scopes, outermost first.
        stack: Vec<usize>,
        /// Monotonic stamp of the most recent scope boundary.
        epoch: Option<Instant>,
        /// Thread allocation counters at the most recent boundary.
        alloc_mark: (u64, u64),
    }

    impl State {
        const fn new() -> State {
            State {
                rows: [Row {
                    calls: 0,
                    wall_ns: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                }; N],
                stack: Vec::new(),
                epoch: None,
                alloc_mark: (0, 0),
            }
        }

        /// Attributes the interval since the last boundary to the scope on
        /// top of the stack and starts a new interval.
        fn flush(&mut self, now: Instant) {
            let marks = (ALLOCS.get(), ALLOC_BYTES.get());
            if let (Some(epoch), Some(&top)) = (self.epoch, self.stack.last()) {
                let row = &mut self.rows[top];
                row.wall_ns += now.duration_since(epoch).as_nanos() as u64;
                row.allocs += marks.0 - self.alloc_mark.0;
                row.alloc_bytes += marks.1 - self.alloc_mark.1;
            }
            self.epoch = Some(now);
            self.alloc_mark = marks;
        }
    }

    thread_local! {
        static STATE: RefCell<State> = const { RefCell::new(State::new()) };
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
        static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    /// RAII profiling scope: measures self time (and allocation deltas)
    /// for one subsystem until dropped.
    #[must_use = "the scope is measured until the guard drops"]
    pub struct ProfScope {
        _priv: (),
    }

    pub(super) fn scope(sys: Subsystem) -> ProfScope {
        STATE.with_borrow_mut(|st| {
            st.flush(Instant::now());
            st.rows[sys.index()].calls += 1;
            st.stack.push(sys.index());
        });
        ProfScope { _priv: () }
    }

    impl Drop for ProfScope {
        fn drop(&mut self) {
            STATE.with_borrow_mut(|st| {
                st.flush(Instant::now());
                st.stack.pop();
            });
        }
    }

    pub(super) fn report_rows() -> Vec<SubsystemReport> {
        STATE.with_borrow(|st| {
            Subsystem::ALL
                .iter()
                .map(|&sys| {
                    let row = st.rows[sys.index()];
                    SubsystemReport {
                        subsystem: sys,
                        calls: row.calls,
                        wall_ns: row.wall_ns,
                        allocs: row.allocs,
                        alloc_bytes: row.alloc_bytes,
                    }
                })
                .collect()
        })
    }

    pub(super) fn reset_rows() {
        STATE.with_borrow_mut(|st| {
            st.rows = [Row::default(); N];
            let now = Instant::now();
            st.epoch = st.epoch.map(|_| now);
            st.alloc_mark = (ALLOCS.get(), ALLOC_BYTES.get());
        });
    }

    #[inline]
    fn count(bytes: usize) {
        // `try_with` so late allocations during TLS teardown stay safe.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }

    // SAFETY: defers all allocation to the system allocator; the counter
    // updates touch only const-initialized thread-local `Cell`s, which
    // never allocate.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

pub use imp::ProfScope;

/// Opens a profiling scope for `sys`; the scope ends when the returned
/// guard drops. A zero-sized no-op unless the `profiler` feature is on.
#[inline(always)]
pub fn prof_scope(sys: Subsystem) -> ProfScope {
    imp::scope(sys)
}

/// Snapshot of the calling thread's per-subsystem counters, in
/// [`Subsystem::ALL`] order. Empty when the profiler is compiled out.
pub fn report() -> Vec<SubsystemReport> {
    imp::report_rows()
}

/// Clears the calling thread's counters (for between-iteration resets in
/// benchmarks). A no-op when the profiler is compiled out.
pub fn reset() {
    imp::reset_rows()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_reports_nothing() {
        if !enabled() {
            let _guard = prof_scope(Subsystem::EngineLoop);
            assert!(report().is_empty());
            reset();
        }
    }

    #[cfg(feature = "profiler")]
    #[test]
    fn nested_scopes_attribute_self_time() {
        reset();
        {
            let _outer = prof_scope(Subsystem::EngineLoop);
            std::hint::black_box(vec![0u8; 64]);
            {
                let _inner = prof_scope(Subsystem::GpuAdvance);
                std::hint::black_box(vec![0u8; 64]);
            }
        }
        let rows = report();
        let get = |sys: Subsystem| rows.iter().find(|r| r.subsystem == sys).unwrap().to_owned();
        assert_eq!(get(Subsystem::EngineLoop).calls, 1);
        assert_eq!(get(Subsystem::GpuAdvance).calls, 1);
        assert_eq!(get(Subsystem::MergeTable).calls, 0);
        reset();
        assert!(report().iter().all(|r| r.calls == 0 && r.wall_ns == 0));
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Subsystem::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            [
                "engine_loop",
                "drain_effects",
                "gpu_advance",
                "fabric_advance",
                "switch_logic",
                "merge_table",
            ]
        );
    }
}
