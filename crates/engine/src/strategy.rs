//! The execution-strategy interface.

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::program::Program;
use crate::report::ExecReport;
use llm_workload::Dfg;

/// An execution strategy: how a logical dataflow graph becomes kernels,
/// thread blocks and switch behaviour.
///
/// Implementations: the nine baselines in `cais-baselines` and the CAIS
/// variants in `cais-core`.
///
/// `Send` is a supertrait so strategies (and `Box<dyn Strategy>`) can be
/// moved into sweep worker threads; each job constructs and consumes its
/// strategy on one thread, so no `Sync` is required. `Debug` is a
/// supertrait so a strategy's every field is part of the harness's job
/// key (`cais_harness::JobSpec::key`): two jobs merge only when their
/// strategies print the same.
pub trait Strategy: Send + std::fmt::Debug {
    /// Display name used in experiment tables ("TP-NVLS", "CAIS", ...).
    fn name(&self) -> &str;

    /// Adjusts system knobs this strategy requires (ready-queue policy,
    /// traffic control, throttle credits). Called before lowering.
    fn tune(&self, _cfg: &mut SystemConfig) {}

    /// Lowers the workload graph into an executable program.
    fn lower(&self, dfg: &Dfg, cfg: &SystemConfig) -> Program;

    /// Runs an already-lowered `program` on `cfg`.
    ///
    /// Each strategy builds its concrete in-switch logic (plain router,
    /// NVLS multicast/reduction, CAIS merge unit) and a [`SystemSim`]
    /// monomorphized over it, so the whole run costs one virtual call,
    /// this method, at the strategy boundary. Everything the run needs
    /// from lowering travels in `program`.
    ///
    /// [`SystemSim`]: crate::SystemSim
    ///
    /// # Errors
    ///
    /// Propagates the typed [`SimError`] from `SystemSim::run`.
    fn run(&self, cfg: SystemConfig, program: Program) -> Result<ExecReport, SimError>;
}

/// Lowers and executes `dfg` under `strategy`, returning the report.
///
/// This is the single entry point the experiment harness uses.
///
/// # Errors
///
/// Returns the typed [`SimError`] from [`Strategy::run`] — deadlock,
/// deadline overrun, fault-budget exhaustion or an audit violation —
/// instead of panicking.
pub fn execute(
    strategy: &dyn Strategy,
    dfg: &Dfg,
    base_cfg: &SystemConfig,
) -> Result<ExecReport, SimError> {
    let mut cfg = base_cfg.clone();
    strategy.tune(&mut cfg);
    let program = strategy.lower(dfg, &cfg);
    strategy.run(cfg, program)
}
