//! LADM: locality-aware thread-block scheduling (paper baseline 9).
//!
//! LADM is a locality-centric data/TB placement technique for large
//! multi-die GPUs; it has no collective-communication engine and cannot
//! use in-switch computing. Applied to tensor parallelism this means:
//!
//! * **reductions** degrade to direct partial writes converging on the
//!   shard owner's single ingress link (a `p - 1`-way hotspot);
//! * **gathers** degrade to on-demand remote loads issued by consumer
//!   thread blocks. Because no AllGather ever materializes the gathered
//!   tensor in local HBM and the working set exceeds the L2, operand
//!   rows are re-fetched across output-column waves. LADM's
//!   locality-aware placement recovers part of that reuse — modeled by a
//!   fixed hit rate on re-reads — but the remaining redundant
//!   remote traffic dominates, which is why the paper reports it ~7.6x
//!   behind CAIS;
//! * operators stay strictly barriered.

use cais_engine::{
    lower::GemmLowering, ExecReport, IdAlloc, KernelBuilder, KernelSpec, Program, SimError,
    Strategy, SystemConfig, SystemSim,
};
use gpu_sim::{KernelCost, MemOp, MemOpKind, Phase};
use llm_workload::{CollKind, Dfg, NodeId, NodeKind};
use noc_sim::PureRouter;
use sim_core::{GpuId, KernelId, SimDuration};
use std::sync::Arc;

/// Fraction of redundant re-reads LADM's placement turns into local
/// hits. LADM's locality-centric placement targets *intra*-GPU reuse; for
/// inter-GPU gathered operands that exceed the L2, most column-wave
/// re-reads still go remote (this is why the paper places LADM ~7.6x
/// behind CAIS).
const LOCALITY_HIT_RATE: f64 = 0.25;

/// The LADM baseline strategy.
#[derive(Debug)]
pub struct LadmStrategy;

impl LadmStrategy {
    /// The LADM baseline.
    pub fn new() -> LadmStrategy {
        LadmStrategy
    }
}

impl Default for LadmStrategy {
    fn default() -> Self {
        LadmStrategy::new()
    }
}

struct Ctx<'a> {
    cfg: &'a SystemConfig,
    low: GemmLowering,
    ids: IdAlloc,
    prog: Program,
    prev: Vec<KernelId>,
}

impl Strategy for LadmStrategy {
    fn name(&self) -> &str {
        "LADM"
    }

    fn lower(&self, dfg: &Dfg, cfg: &SystemConfig) -> Program {
        let mut ctx = Ctx {
            cfg,
            low: GemmLowering::new(KernelCost::new(&cfg.gpu), cfg.tile, dfg.elem_bytes),
            ids: IdAlloc::new(cfg.n_gpus),
            prog: Program::new(),
            prev: Vec::new(),
        };
        for id in dfg.ids() {
            match &dfg.node(id).kind {
                NodeKind::Collective { kind, rows, cols } => {
                    self.lower_collective(&mut ctx, dfg, id, *kind, *rows, *cols)
                }
                _ => {
                    ctx.prev = ctx.low.plain_stage(
                        &mut ctx.prog,
                        &mut ctx.ids,
                        ctx.cfg,
                        dfg.node(id),
                        |_| ctx.prev.clone(),
                    );
                }
            }
        }
        let prog = ctx.prog;
        debug_assert!(prog.validate().is_ok());
        prog
    }

    fn run(&self, cfg: SystemConfig, program: Program) -> Result<ExecReport, SimError> {
        SystemSim::new(cfg, program, PureRouter).run()
    }
}

/// Effective redundancy multiplier for gathers feeding a GEMM with
/// `n_col_tiles` output column bands: each band wave re-reads the
/// gathered rows, and only `hit_rate` of re-reads hit locally.
fn redundancy(n_col_tiles: u64, hit_rate: f64) -> f64 {
    1.0 + (n_col_tiles.saturating_sub(1) as f64) * (1.0 - hit_rate)
}

impl LadmStrategy {
    fn lower_collective(
        &self,
        ctx: &mut Ctx,
        dfg: &Dfg,
        id: NodeId,
        kind: CollKind,
        rows: u64,
        cols: u64,
    ) {
        let p = ctx.cfg.n_gpus as u64;
        let elem = dfg.elem_bytes;
        let name = dfg.node(id).name.replace('.', "_");
        let chunk = ctx.cfg.coll_chunk_bytes;
        let shard_bytes = rows * cols * elem / p;

        // Gather redundancy depends on the consuming GEMM's width.
        let consumer_cols = dfg
            .consumers(id)
            .into_iter()
            .find_map(|c| match dfg.node(c).kind {
                NodeKind::Gemm { n, .. } => Some(n.div_ceil(ctx.cfg.tile)),
                _ => None,
            })
            .unwrap_or(1);

        let mut kb = KernelBuilder::new(ctx.cfg.n_gpus);
        // Order key of the next step: corresponding steps share a key on
        // every GPU.
        let mut order = 0u64;
        if matches!(kind, CollKind::ReduceScatter | CollKind::AllReduce) {
            // Direct partial writes: every GPU pushes each shard's chunk
            // to its owner; the owner's ingress link is the hotspot.
            for s in 0..ctx.cfg.n_gpus {
                let owner = GpuId(s as u16);
                for (_off, len) in cais_engine::lower::chunk_ranges(shard_bytes, chunk) {
                    let addr = ctx.ids.addr(owner, len);
                    let tile = ctx.ids.tile();
                    ctx.prog.tile_expected.insert(tile, p as u32);
                    for g in 0..ctx.cfg.n_gpus {
                        let local = g == s;
                        let op = MemOp {
                            // The owner accumulates locally (`cais`
                            // gives local-accumulate semantics).
                            kind: if local {
                                MemOpKind::RemoteReduce
                            } else {
                                MemOpKind::RemoteWrite
                            },
                            addr,
                            bytes: len,
                            cais: local,
                            tile: Some(tile),
                        };
                        let phases = vec![
                            Phase::Compute(SimDuration::from_ns(200)),
                            Phase::IssueMem {
                                ops: Arc::new([op]),
                                wait: false,
                            },
                        ];
                        kb.push(g, order, phases);
                    }
                    // Owner-side waiter.
                    let wait = vec![Phase::Compute(SimDuration::from_ns(100))];
                    kb.push_gated(s, order + 1, wait, Arc::new([tile]));
                    order += 2;
                }
            }
        }
        if matches!(kind, CollKind::AllGather | CollKind::AllReduce) {
            // On-demand redundant remote reads of every foreign shard; no
            // reuse capture, so the loads materialize no tile.
            let total = (shard_bytes as f64 * redundancy(consumer_cols, LOCALITY_HIT_RATE)) as u64;
            for s in 0..ctx.cfg.n_gpus {
                let owner = GpuId(s as u16);
                for (_off, len) in cais_engine::lower::chunk_ranges(total, chunk) {
                    let addr = ctx.ids.addr(owner, len);
                    for g in (0..ctx.cfg.n_gpus).filter(|&g| g != s) {
                        let load = MemOp {
                            kind: MemOpKind::RemoteLoad,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: None,
                        };
                        let phases = vec![Phase::IssueMem {
                            ops: Arc::new([load]),
                            wait: true,
                        }];
                        kb.push(g, order, phases);
                    }
                    order += 1;
                }
            }
        }
        let kname: Arc<str> = format!("ladm.{name}").into();
        ctx.prev = kb.finish(&mut ctx.prog, &mut ctx.ids, |_| {
            KernelSpec::new(Arc::clone(&kname), ctx.prev.clone())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::strategy::execute;
    use llm_workload::{sublayer, ModelConfig, SubLayer};

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::dgx_h100();
        cfg.n_gpus = 4;
        cfg.n_planes = 2;
        cfg.fabric = noc_sim::FabricConfig::default_for(4, 2);
        cfg.coll_chunk_bytes = 128 * 1024;
        cfg.gpu.dispatch_jitter = sim_core::SimDuration::from_us(1);
        cfg.gpu.launch_skew = sim_core::SimDuration::from_us(2);
        cfg.gpu.compute_jitter = sim_core::SimDuration::from_ns(200);
        cfg
    }

    fn small_model() -> ModelConfig {
        ModelConfig {
            hidden: 2048,
            ffn_hidden: 4096,
            heads: 16,
            seq_len: 1024,
            batch: 2,
            ..ModelConfig::llama_7b()
        }
    }

    #[test]
    fn ladm_runs_and_is_much_slower_than_nvls() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let ladm = execute(&LadmStrategy::new(), &dfg, &cfg).expect("run completes");
        let nvls = execute(&crate::BaselineStrategy::sp_nvls(), &dfg, &cfg).expect("run completes");
        let ratio = ladm.total.as_secs_f64() / nvls.total.as_secs_f64();
        assert!(
            ratio > 1.5,
            "LADM should trail NVLS baselines clearly, got {ratio:.2}x"
        );
    }

    #[test]
    fn redundancy_model() {
        assert!((redundancy(1, 0.5) - 1.0).abs() < 1e-12);
        assert!((redundancy(11, 0.5) - 6.0).abs() < 1e-12);
    }
}
