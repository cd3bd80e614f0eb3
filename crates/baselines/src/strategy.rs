//! The configurable baseline strategy covering TP-NVLS, SP-NVLS,
//! CoCoNet, FuseLib, T3 and their NVLS-enhanced variants.

use crate::producers::{
    bands_for_chunk, chunk_input_tiles, lower_gated_gemm, lower_tiled_gemm, waiter_kernels,
    TiledGemm, TiledGemmOpts,
};
use cais_engine::lower::{shard_owner, GemmLowering};
use cais_engine::{
    ExecReport, IdAlloc, KernelBuilder, KernelSpec, Program, SimError, Strategy, SystemConfig,
    SystemSim,
};
use gpu_sim::{KernelCost, MemOp, MemOpKind, Phase};
use llm_workload::{CollKind, Dfg, NodeId, NodeKind};
use noc_sim::PureRouter;
use nvls::{
    nvls_all_gather, nvls_all_reduce, nvls_reduce_scatter, ring_all_gather, ring_all_reduce,
    ring_reduce_scatter, CollOutput, Collective, InputTiles, NvlsLogic,
};
use sim_core::{KernelId, SimDuration, TileId};
use std::sync::Arc;

/// How collectives travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// GPU-driven ring schedules through a plain routing switch.
    Ring,
    /// NVLink-SHARP in-switch collectives.
    Nvls,
}

/// How much compute/communication overlap the scheduler extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overlap {
    /// None: strict kernel phases with global barriers (TP-NVLS, SP-NVLS).
    None,
    /// CoCoNet/FuseLib: the collective consumes the *producer* GEMM's
    /// output chunk-by-chunk; the consumer still waits for the whole
    /// collective. `fused` additionally removes kernel-launch overhead.
    Chunked {
        /// FuseLib-style single fused kernel (no launch overhead).
        fused: bool,
    },
    /// T3: per-tile track-&-trigger. GEMM→RS becomes direct in-flight
    /// stores as tiles complete; AG output gates the consumer GEMM's row
    /// bands (our AG-GEMM extension of T3, per the paper's methodology).
    Tile,
}

/// A baseline execution strategy.
///
/// ```no_run
/// use cais_baselines::BaselineStrategy;
/// use cais_engine::{strategy::execute, SystemConfig};
/// use llm_workload::{transformer_layer, ModelConfig, Pass, TpMode};
///
/// let cfg = SystemConfig::dgx_h100();
/// let dfg = transformer_layer(
///     &ModelConfig::llama_7b(), cfg.tp(), TpMode::BasicTp, Pass::Forward);
/// let report = execute(&BaselineStrategy::tp_nvls(), &dfg, &cfg).expect("run completes");
/// println!("TP-NVLS layer time: {}", report.total);
/// ```
#[derive(Debug)]
pub struct BaselineStrategy {
    name: String,
    transport: Transport,
    overlap: Overlap,
}

impl BaselineStrategy {
    /// Basic TP with NVLS collectives (run on a Basic-TP graph).
    pub fn tp_nvls() -> BaselineStrategy {
        BaselineStrategy {
            name: "TP-NVLS".into(),
            transport: Transport::Nvls,
            overlap: Overlap::None,
        }
    }

    /// TP with sequence parallelism and NVLS collectives (run on an SP
    /// graph).
    pub fn sp_nvls() -> BaselineStrategy {
        BaselineStrategy {
            name: "SP-NVLS".into(),
            transport: Transport::Nvls,
            overlap: Overlap::None,
        }
    }

    /// CoCoNet: ring collectives, chunked producer overlap.
    pub fn coconet() -> BaselineStrategy {
        BaselineStrategy {
            name: "CoCoNet".into(),
            transport: Transport::Ring,
            overlap: Overlap::Chunked { fused: false },
        }
    }

    /// FuseLib: ring collectives fused into the producer kernel.
    pub fn fuselib() -> BaselineStrategy {
        BaselineStrategy {
            name: "FuseLib".into(),
            transport: Transport::Ring,
            overlap: Overlap::Chunked { fused: true },
        }
    }

    /// T3: hardware track-&-trigger fine-grained overlap, no NVLS.
    pub fn t3() -> BaselineStrategy {
        BaselineStrategy {
            name: "T3".into(),
            transport: Transport::Ring,
            overlap: Overlap::Tile,
        }
    }

    /// CoCoNet with NVLS collectives.
    pub fn coconet_nvls() -> BaselineStrategy {
        BaselineStrategy {
            name: "CoCoNet-NVLS".into(),
            transport: Transport::Nvls,
            overlap: Overlap::Chunked { fused: false },
        }
    }

    /// FuseLib with NVLS collectives.
    pub fn fuselib_nvls() -> BaselineStrategy {
        BaselineStrategy {
            name: "FuseLib-NVLS".into(),
            transport: Transport::Nvls,
            overlap: Overlap::Chunked { fused: true },
        }
    }

    /// T3 with DMA-based NVLS reductions.
    pub fn t3_nvls() -> BaselineStrategy {
        BaselineStrategy {
            name: "T3-NVLS".into(),
            transport: Transport::Nvls,
            overlap: Overlap::Tile,
        }
    }
}

struct Ctx<'a> {
    cfg: &'a SystemConfig,
    low: GemmLowering,
    ids: IdAlloc,
    prog: Program,
    /// Previous stage's kernels (global barrier set).
    prev: Vec<KernelId>,
    /// Tile signals of the previous node when it was a tiled GEMM
    /// (chunk/tile overlap input), plus its logical dims and the launch
    /// dependencies the producer itself used (so an overlapping
    /// collective can launch alongside it).
    prev_gemm: Option<(TiledGemm, u64, u64)>,
    prev_gemm_after: Vec<KernelId>,
    /// Output tiles of the previous collective (gates the consumer for
    /// T3-style AG-GEMM overlap): `gates[gpu][band]`.
    prev_coll_gates: Option<Vec<Vec<Vec<TileId>>>>,
}

impl Strategy for BaselineStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    fn lower(&self, dfg: &Dfg, cfg: &SystemConfig) -> Program {
        let mut ctx = Ctx {
            cfg,
            low: GemmLowering::new(KernelCost::new(&cfg.gpu), cfg.tile, dfg.elem_bytes),
            ids: IdAlloc::new(cfg.n_gpus),
            prog: Program::new(),
            prev: Vec::new(),
            prev_gemm: None,
            prev_gemm_after: Vec::new(),
            prev_coll_gates: None,
        };
        for id in dfg.ids() {
            match &dfg.node(id).kind {
                NodeKind::Collective { kind, rows, cols } => {
                    self.lower_collective(&mut ctx, dfg, id, *kind, *rows, *cols)
                }
                _ => self.lower_compute(&mut ctx, dfg, id),
            }
        }
        let prog = ctx.prog;
        debug_assert!(prog.validate().is_ok());
        prog
    }

    fn run(&self, cfg: SystemConfig, program: Program) -> Result<ExecReport, SimError> {
        match self.transport {
            Transport::Ring => SystemSim::new(cfg, program, PureRouter).run(),
            Transport::Nvls => {
                let logic = NvlsLogic::new(cfg.n_gpus);
                SystemSim::new(cfg, program, logic).run()
            }
        }
    }
}

impl BaselineStrategy {
    fn lower_compute(&self, ctx: &mut Ctx, dfg: &Dfg, id: NodeId) {
        let node = dfg.node(id);
        let overlapping = !matches!(self.overlap, Overlap::None);
        match &node.kind {
            NodeKind::Gemm { m, n, k } => {
                // Does a collective consume this GEMM directly? Then emit
                // tile signals (chunk/tile overlap) or T3 epilogues.
                let feeds_collective = dfg
                    .consumers(id)
                    .into_iter()
                    .any(|c| matches!(dfg.node(c).kind, NodeKind::Collective { .. }));
                // Is this GEMM consuming a just-gathered tensor (T3
                // AG-GEMM overlap)?
                let gates = ctx.prev_coll_gates.take();
                if let Some(gates) = gates.filter(|_| self.overlap == Overlap::Tile) {
                    // Band gating carries the true data dependencies; an
                    // empty `after` lets early bands start while the tail
                    // of the gather is still in flight.
                    let after = Vec::new();
                    let kids = lower_gated_gemm(
                        &mut ctx.prog,
                        &mut ctx.ids,
                        &ctx.low,
                        ctx.cfg.n_gpus,
                        &format!("gemm.{}", node.name),
                        *m,
                        *n,
                        *k,
                        after,
                        &gates,
                    );
                    ctx.prev = kids;
                    ctx.prev_gemm = None;
                    return;
                }
                if overlapping && feeds_collective {
                    let after = ctx.prev.clone();
                    ctx.prev_gemm_after = after.clone();
                    let fused = matches!(self.overlap, Overlap::Chunked { fused: true });
                    let tg = lower_tiled_gemm(
                        &mut ctx.prog,
                        &mut ctx.ids,
                        &ctx.low,
                        ctx.cfg.n_gpus,
                        TiledGemmOpts {
                            name: &format!("gemm.{}", node.name),
                            m: *m,
                            n: *n,
                            k: *k,
                            after,
                            fused_launch: fused,
                        },
                    );
                    ctx.prev = tg.kernel_ids.clone();
                    ctx.prev_gemm = Some((tg, *m, *n));
                    return;
                }
                self.plain_node(ctx, dfg, id);
            }
            _ => self.plain_node(ctx, dfg, id),
        }
    }

    fn plain_node(&self, ctx: &mut Ctx, dfg: &Dfg, id: NodeId) {
        ctx.prev = ctx
            .low
            .plain_stage(&mut ctx.prog, &mut ctx.ids, ctx.cfg, dfg.node(id), |_| {
                ctx.prev.clone()
            });
        ctx.prev_gemm = None;
        ctx.prev_coll_gates = None;
    }

    fn lower_collective(
        &self,
        ctx: &mut Ctx,
        dfg: &Dfg,
        id: NodeId,
        kind: CollKind,
        rows: u64,
        cols: u64,
    ) {
        let elem = dfg.elem_bytes;
        let bytes_full = rows * cols * elem;
        let name = dfg.node(id).name.replace('.', "_");

        // T3-style fused GEMM→RS: direct stores from the producer's tile
        // epilogues replace the collective kernel entirely.
        if self.overlap == Overlap::Tile
            && matches!(kind, CollKind::ReduceScatter | CollKind::AllReduce)
            && ctx.prev_gemm.is_some()
        {
            self.lower_t3_reduce(ctx, kind, rows, cols, elem, &name);
            return;
        }

        // Chunk-level producer gating for CoCoNet/FuseLib.
        let input: Option<InputTiles> = match (&self.overlap, &ctx.prev_gemm) {
            (Overlap::Chunked { .. }, Some((tg, m, n))) => {
                let chunks =
                    nvls::ring::global_chunks(bytes_full, ctx.cfg.n_gpus, ctx.cfg.coll_chunk_bytes);
                Some(chunk_input_tiles(
                    &chunks,
                    &tg.tiles,
                    *m,
                    *n,
                    elem,
                    ctx.cfg.n_gpus,
                    ctx.cfg.tile,
                ))
            }
            _ => None,
        };

        // With chunk gating the collective launches alongside the
        // producer (tiles pace it); otherwise it waits for the barrier.
        let after: Vec<KernelId> = if input.is_some() {
            ctx.prev_gemm_after.clone()
        } else {
            ctx.prev.clone()
        };
        let lower: Collective = match (self.transport, kind) {
            (Transport::Ring, CollKind::AllGather) => ring_all_gather,
            (Transport::Ring, CollKind::ReduceScatter) => ring_reduce_scatter,
            (Transport::Ring, CollKind::AllReduce) => ring_all_reduce,
            (Transport::Nvls, CollKind::AllGather) => nvls_all_gather,
            (Transport::Nvls, CollKind::ReduceScatter) => nvls_reduce_scatter,
            (Transport::Nvls, CollKind::AllReduce) => nvls_all_reduce,
        };
        let out = lower(
            &mut ctx.prog,
            &mut ctx.ids,
            ctx.cfg,
            &name,
            bytes_full,
            &after,
            input.as_ref(),
        );

        // T3 consumes AllGather output per band; everyone else barriers.
        if self.overlap == Overlap::Tile && kind == CollKind::AllGather {
            ctx.prev_coll_gates = Some(self.band_gates_from_chunks(ctx, &out, rows, cols, elem));
        } else {
            ctx.prev_coll_gates = None;
        }
        // Downstream consumers barrier on the collective; when it ran
        // alongside the producer, keep the producer in the barrier set
        // too (its kernels may outlive the last gated chunk injection).
        let mut next_prev = out.kernel_ids;
        if input.is_some() {
            next_prev.extend(ctx.prev.iter().copied());
        }
        ctx.prev = next_prev;
        ctx.prev_gemm = None;
    }

    /// Converts a collective's per-chunk arrival tiles into per-GPU,
    /// per-row-band gates for a downstream GEMM: GPU `g`'s band `mi`
    /// waits for the arrival (on `g`) of every chunk overlapping the
    /// band. Chunks local to `g` from the start have no arrival tile and
    /// impose no wait.
    fn band_gates_from_chunks(
        &self,
        ctx: &Ctx,
        out: &CollOutput,
        rows: u64,
        cols: u64,
        elem: u64,
    ) -> Vec<Vec<Vec<TileId>>> {
        let (p, tile) = (ctx.cfg.n_gpus, ctx.cfg.tile);
        let n_mb = rows.div_ceil(tile) as usize;
        let mut gates: Vec<Vec<Vec<TileId>>> = vec![vec![Vec::new(); n_mb]; p];
        for (&(shard, off, len), arrivals) in out.chunks.iter().zip(&out.chunk_arrivals) {
            for mi in bands_for_chunk(rows, cols, elem, p as u64, tile, shard, off, len) {
                for (g, arrival) in arrivals.iter().enumerate() {
                    if let Some(t) = arrival {
                        gates[g][mi as usize].push(*t);
                    }
                }
            }
        }
        for per_gpu in &mut gates {
            for band in per_gpu {
                band.sort_unstable();
                band.dedup();
            }
        }
        gates
    }

    /// T3 track & trigger: each producer output tile is stored to its
    /// row-shard owner as soon as the producer signals it. Remote GPUs
    /// write a counted contribution, the owner accumulates locally.
    fn lower_t3_reduce(
        &self,
        ctx: &mut Ctx,
        kind: CollKind,
        rows: u64,
        cols: u64,
        elem: u64,
        name: &str,
    ) {
        let p = ctx.cfg.n_gpus;
        let tile = ctx.cfg.tile;
        let n_mb = rows.div_ceil(tile);
        let n_nb = cols.div_ceil(tile);
        let tile_bytes = tile * tile * elem;
        let (tg, _, _) = ctx.prev_gemm.take().expect("caller checked");
        // One reduction target (owner address + tile) per output tile.
        let targets: Vec<Vec<_>> = (0..n_mb)
            .map(|mi| {
                let owner = shard_owner(mi, n_mb, p);
                (0..n_nb)
                    .map(|_| {
                        let addr = ctx.ids.addr(owner, tile_bytes);
                        let t = ctx.ids.tile();
                        ctx.prog.tile_expected.insert(t, p as u32);
                        (addr, t)
                    })
                    .collect()
            })
            .collect();
        // Trigger kernel per GPU: one TB per output tile, gated on the
        // producer's tile signal, firing the direct store.
        let mut kb = KernelBuilder::new(p);
        for g in 0..p {
            for mi in 0..n_mb {
                let local = shard_owner(mi, n_mb, p).index() == g;
                for ni in 0..n_nb {
                    let (addr, rtile) = targets[mi as usize][ni as usize];
                    let store = MemOp {
                        // The owner accumulates locally (no fabric
                        // traffic; `cais` gives local-accumulate
                        // semantics in the engine).
                        kind: if local {
                            MemOpKind::RemoteReduce
                        } else {
                            MemOpKind::RemoteWrite
                        },
                        addr,
                        bytes: tile_bytes,
                        cais: local,
                        tile: Some(rtile),
                    };
                    let phases = vec![
                        Phase::Compute(SimDuration::from_ns(100)),
                        Phase::IssueMem {
                            ops: Arc::new([store]),
                            wait: false,
                        },
                    ];
                    let produced = Arc::new([tg.tiles[mi as usize][ni as usize]]);
                    kb.push_gated(&mut ctx.ids, g, mi * n_nb + ni, phases, produced);
                }
            }
        }
        let kname: Arc<str> = format!("t3.{name}").into();
        let trigger_kids = kb.finish(&mut ctx.prog, &mut ctx.ids, |_| {
            KernelSpec::new(Arc::clone(&kname), ctx.prev.clone())
                .gated()
                .fused()
        });
        // Waiters: the reduced shard is ready at its owner.
        let mut owner_gates: Vec<Vec<TileId>> = vec![Vec::new(); p];
        for (mi, row) in targets.iter().enumerate() {
            let owner = shard_owner(mi as u64, n_mb, p).index();
            owner_gates[owner].extend(row.iter().map(|&(_, t)| t));
        }
        let wait_kids = waiter_kernels(
            &mut ctx.prog,
            &mut ctx.ids,
            &format!("t3.{name}"),
            &owner_gates,
            trigger_kids,
        );
        // AllReduce under T3: the gather half still runs as a ring AG.
        if kind == CollKind::AllReduce {
            let out = ring_all_gather(
                &mut ctx.prog,
                &mut ctx.ids,
                ctx.cfg,
                &format!("{name}_ag"),
                rows * cols * elem,
                &wait_kids,
                None,
            );
            ctx.prev = out.kernel_ids;
        } else {
            ctx.prev = wait_kids;
        }
        ctx.prev_coll_gates = None;
        ctx.prev_gemm = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::strategy::execute;
    use llm_workload::{sublayer, transformer_layer, ModelConfig, Pass, SubLayer, TpMode};

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::dgx_h100();
        cfg.n_gpus = 4;
        cfg.n_planes = 2;
        cfg.fabric = noc_sim::FabricConfig::default_for(4, 2);
        cfg.coll_chunk_bytes = 128 * 1024;
        // Keep scheduling noise well below the comparison signal at this
        // reduced scale.
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
    fn all_baselines_run_a_sublayer() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        for s in [
            BaselineStrategy::sp_nvls(),
            BaselineStrategy::coconet(),
            BaselineStrategy::fuselib(),
            BaselineStrategy::t3(),
            BaselineStrategy::coconet_nvls(),
            BaselineStrategy::fuselib_nvls(),
            BaselineStrategy::t3_nvls(),
        ] {
            let report = execute(&s, &dfg, &cfg).expect("run completes");
            assert!(
                report.total > sim_core::SimDuration::from_us(10),
                "{} too fast: {}",
                s.name(),
                report.total
            );
        }
    }

    #[test]
    fn tp_nvls_runs_a_basic_layer() {
        let cfg = small_cfg();
        let dfg = transformer_layer(&small_model(), 4, TpMode::BasicTp, Pass::Forward);
        let report = execute(&BaselineStrategy::tp_nvls(), &dfg, &cfg).expect("run completes");
        assert!(report.stat("nvls.reductions").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn sp_nvls_runs_an_sp_layer() {
        let cfg = small_cfg();
        let dfg = transformer_layer(&small_model(), 4, TpMode::SeqPar, Pass::Forward);
        let report = execute(&BaselineStrategy::sp_nvls(), &dfg, &cfg).expect("run completes");
        assert!(report.stat("nvls.multicasts").unwrap_or(0.0) > 0.0);
        assert!(report.stat("nvls.pulls").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn nvls_variants_beat_ring_variants_on_allreduce() {
        // NVLS halves AllReduce volume (push-reduce + multicast vs. ring's
        // 2(p-1)/p in each direction), so the win shows on Basic TP. On
        // RS+AG sub-layers the bottleneck direction moves the same bytes
        // either way, and NVLS's advantage is latency, not volume.
        let cfg = small_cfg();
        let dfg = transformer_layer(&small_model(), 4, TpMode::BasicTp, Pass::Forward);
        let ring = execute(&BaselineStrategy::coconet(), &dfg, &cfg).expect("run completes");
        let nvls = execute(&BaselineStrategy::coconet_nvls(), &dfg, &cfg).expect("run completes");
        assert!(
            nvls.total < ring.total,
            "NVLS {} should beat ring {}",
            nvls.total,
            ring.total
        );
    }

    #[test]
    fn overlap_beats_no_overlap() {
        let cfg = small_cfg();
        let dfg = transformer_layer(&small_model(), 4, TpMode::BasicTp, Pass::Forward);
        let barriered = execute(&BaselineStrategy::tp_nvls(), &dfg, &cfg).expect("run completes");
        let overlapped =
            execute(&BaselineStrategy::coconet_nvls(), &dfg, &cfg).expect("run completes");
        assert!(
            overlapped.total < barriered.total,
            "overlap {} vs barrier {}",
            overlapped.total,
            barriered.total
        );
    }
}
