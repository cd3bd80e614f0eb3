//! CAIS execution strategies: lowering dataflow graphs into
//! compute-aware in-switch programs.
//!
//! Three published variants plus ablation knobs:
//!
//! * **CAIS** — full system: merge unit + TB coordination + graph-level
//!   dataflow optimizer + traffic control.
//! * **CAIS-Partial** — no traffic control (Figs. 15–16).
//! * **CAIS-Base** — compute-aware ISA and merge unit only: collectives
//!   are still folded into compute kernels as `red.cais`/`ld.cais`, but
//!   operators execute as isolated phases with coarse barriers, requests
//!   are uncoordinated, and there is no asymmetric overlap.
//!
//! # Lowering scheme
//!
//! A fused pipeline `GEMM → RS/AR → (LN…)* → [AG] → GEMM` becomes:
//!
//! * producer GEMM TBs compute an output tile and `red.cais` it (split
//!   into switch-packet-sized pieces) toward the row's shard owner;
//! * middle TBs on the owner run per row band as soon as that band's
//!   reduction tiles land, then notify the other GPUs with an empty
//!   write;
//! * consumer GEMM TBs launch per row band as soon as the band is
//!   notified; non-owners `ld.cais` the band's operand tiles (merged in
//!   the switch: one fetch, `p - 1` replies), owners read locally.
//!
//! Producer and consumer kernels are in flight simultaneously, so the
//! reduce-heavy upstream and load-heavy downstream traffic overlap —
//! the paper's asymmetric kernel overlapping.

use crate::coordination::{coordinate_row, CoordinationOpts};
use crate::dataflow::{self, Stage};
use crate::logic::CaisLogic;
use crate::merge::MergeConfig;
use cais_engine::lower::{shard_owner, GemmLowering};
use cais_engine::{
    ExecReport, IdAlloc, KernelBuilder, KernelSpec, Program, SimError, Strategy, SystemConfig,
    SystemSim,
};
use gpu_sim::{KernelCost, MemOp, MemOpKind, Phase, ReadyPolicy, TbBody};
use llm_workload::{CollKind, Dfg, NodeId, NodeKind};
use sim_core::{GpuId, KernelId, SimDuration, TileId};
use std::sync::Arc;

/// Published CAIS variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaisVariant {
    /// Full CAIS.
    Full,
    /// No traffic control.
    Partial,
    /// No coordination, no dataflow optimizer.
    Base,
}

/// The paper's Merging Table provisioning: 320 entries per port (40 KB at
/// its 128 B line granularity). The *entry count* is the architectural
/// parameter; the byte capacity follows the merge granularity, so at this
/// simulator's coarser packets the same 320 entries hold more bytes.
pub const MERGE_TABLE_ENTRIES: u64 = 320;

/// Default `red.cais` split granularity (simulation packet size standing
/// in for the hardware's 128 B lines; see DESIGN.md).
pub const DEFAULT_PACKET_BYTES: u64 = 8 * 1024;

/// The one conversion from a paper-axis merge-table size (`kb` KB of
/// 128 B entries) to per-port bytes: the same entry count, each entry a
/// `packet_bytes` session plus its 16 B tag.
pub fn paper_kb_to_bytes(kb: u64, packet_bytes: u64) -> u64 {
    let entries = kb * 1024 / 128;
    entries * (packet_bytes + 16)
}

/// The CAIS strategy with ablation knobs.
///
/// ```no_run
/// use cais_core::CaisStrategy;
/// use cais_engine::{strategy::execute, SystemConfig};
/// use llm_workload::{sublayer, ModelConfig, SubLayer};
///
/// let cfg = SystemConfig::dgx_h100();
/// let dfg = sublayer(&ModelConfig::llama_7b(), cfg.tp(), SubLayer::L1);
/// let report = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
/// println!("end-to-end: {}", report.total);
/// ```
#[derive(Debug)]
pub struct CaisStrategy {
    name: String,
    coordination: CoordinationOpts,
    /// Graph-level dataflow optimizer on/off (TB-level fusion and
    /// asymmetric overlap vs. coarse per-operator barriers).
    fused: bool,
    /// Separate virtual channels for load vs. reduction traffic.
    traffic_control: bool,
    /// Merging-table capacity per port; `None` = derive from
    /// [`MERGE_TABLE_ENTRIES`] at the current packet granularity,
    /// `Some(None)` = unbounded, `Some(Some(b))` = explicit bytes.
    merge_table_bytes: Option<Option<u64>>,
    /// Merge-entry forward-progress timeout.
    timeout: SimDuration,
    /// Split granularity for `red.cais` traffic (switch packet size).
    cais_packet_bytes: u64,
    /// Throttle-credit override for ablations (`Some(None)` disables
    /// throttling even when the coordination option is on).
    credits_override: Option<Option<usize>>,
}

impl CaisStrategy {
    /// Builds one of the published variants.
    pub fn new(variant: CaisVariant) -> CaisStrategy {
        let (name, coordination, fused, traffic_control) = match variant {
            CaisVariant::Full => ("CAIS", CoordinationOpts::full(), true, true),
            CaisVariant::Partial => ("CAIS-Partial", CoordinationOpts::full(), true, false),
            CaisVariant::Base => ("CAIS-Base", CoordinationOpts::none(), false, false),
        };
        CaisStrategy {
            name: name.to_string(),
            coordination,
            fused,
            traffic_control,
            merge_table_bytes: None,
            timeout: SimDuration::from_us(30),
            cais_packet_bytes: DEFAULT_PACKET_BYTES,
            credits_override: None,
        }
    }

    /// Full CAIS.
    pub fn full() -> CaisStrategy {
        CaisStrategy::new(CaisVariant::Full)
    }

    /// CAIS without traffic control.
    pub fn partial() -> CaisStrategy {
        CaisStrategy::new(CaisVariant::Partial)
    }

    /// CAIS-Base.
    pub fn base() -> CaisStrategy {
        CaisStrategy::new(CaisVariant::Base)
    }

    /// Overrides the coordination mechanisms (Fig. 13b ablation ladder).
    pub fn with_coordination(mut self, name: &str, opts: CoordinationOpts) -> CaisStrategy {
        self.coordination = opts;
        self.name = format!("CAIS[{name}]");
        self
    }

    /// Overrides the merging-table capacity in bytes (`None` = unbounded;
    /// used by the Fig. 13a/14 sweeps). Without this override the table
    /// holds [`MERGE_TABLE_ENTRIES`] packet-sized sessions per port, the
    /// paper's 320-entry provisioning at the simulator's granularity.
    pub fn with_merge_table(mut self, bytes: Option<u64>) -> CaisStrategy {
        self.merge_table_bytes = Some(bytes);
        self
    }

    /// The byte capacity the merge table will use (per port).
    pub fn merge_table_capacity(&self) -> Option<u64> {
        match self.merge_table_bytes {
            Some(explicit) => explicit,
            // The paper's 40 KB: `MERGE_TABLE_ENTRIES` entries.
            None => Some(paper_kb_to_bytes(40, self.cais_packet_bytes)),
        }
    }

    /// Overrides the forward-progress timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> CaisStrategy {
        self.timeout = timeout;
        self
    }

    /// Overrides the `red.cais` split granularity (design-space ablation).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_packet_bytes(mut self, bytes: u64) -> CaisStrategy {
        assert!(bytes > 0, "packet size must be positive");
        self.cais_packet_bytes = bytes;
        self
    }

    /// Overrides the per-plane throttle credits (`None` = unthrottled).
    pub fn with_credits(mut self, credits: Option<usize>) -> CaisStrategy {
        self.credits_override = Some(credits);
        self
    }
}

/// Mutable lowering state threaded through the per-stage routines.
struct LowerCtx<'a> {
    cfg: &'a SystemConfig,
    ids: IdAlloc,
    low: GemmLowering,
    prog: Program,
    /// Last stage's output kernel per GPU (local chaining).
    prev_local: Vec<Option<KernelId>>,
    /// Last stage's output kernels on all GPUs (global barriers).
    prev_all: Vec<KernelId>,
}

impl<'a> LowerCtx<'a> {
    fn p(&self) -> usize {
        self.cfg.n_gpus
    }

    /// Per-GPU launch dependencies of the next stage: each GPU's
    /// previous-stage kernel when `local`, else the previous stage on
    /// every GPU (a global barrier).
    fn stage_after(&self, local: bool) -> Vec<Vec<KernelId>> {
        (0..self.p())
            .map(|g| {
                if local {
                    self.prev_local[g].into_iter().collect()
                } else {
                    self.prev_all.clone()
                }
            })
            .collect()
    }

    fn set_stage_output(&mut self, per_gpu: Vec<KernelId>) {
        self.prev_all = per_gpu.clone();
        for (g, k) in per_gpu.into_iter().enumerate() {
            self.prev_local[g] = Some(k);
        }
    }
}

impl Strategy for CaisStrategy {
    fn name(&self) -> &str {
        &self.name
    }

    fn tune(&self, cfg: &mut SystemConfig) {
        if self.coordination.grouping {
            cfg.gpu.ready_policy = ReadyPolicy::GroupOrdered;
        }
        cfg.fabric.traffic_control = self.traffic_control;
        if self.coordination.throttling {
            cfg.cais_credits_per_plane = Some(64);
        }
        if let Some(credits) = self.credits_override {
            cfg.cais_credits_per_plane = credits;
        }
    }

    fn lower(&self, dfg: &Dfg, cfg: &SystemConfig) -> Program {
        let plan = dataflow::plan(dfg);
        let mut ctx = LowerCtx {
            cfg,
            ids: IdAlloc::new(cfg.n_gpus),
            low: GemmLowering::new(KernelCost::new(&cfg.gpu), cfg.tile, dfg.elem_bytes),
            prog: Program::new(),
            prev_local: vec![None; cfg.n_gpus],
            prev_all: Vec::new(),
        };
        for stage in &plan.stages {
            match stage {
                Stage::Node(id) => self.lower_node(&mut ctx, dfg, *id),
                Stage::GatherGemm { consumer, .. } => {
                    self.lower_gather_gemm(&mut ctx, dfg, *consumer)
                }
                Stage::Pipeline {
                    producer,
                    reduce,
                    middle,
                    gather,
                    consumer,
                } => self.lower_pipeline(
                    &mut ctx, dfg, *producer, *reduce, middle, *gather, *consumer,
                ),
            }
        }
        let prog = ctx.prog;
        debug_assert!(prog.validate().is_ok());
        prog
    }

    fn run(&self, cfg: SystemConfig, mut program: Program) -> Result<ExecReport, SimError> {
        // The sync-group sizes lowering recorded go to the switch, which
        // is their only reader.
        let group_expected = std::mem::take(&mut program.group_expected);
        let (entry_fault_rate, degrade_threshold) = match &cfg.faults.merge_faults {
            Some(mf) => (mf.rate, mf.degrade_threshold),
            None => (0.0, u32::MAX),
        };
        let merge_cfg = MergeConfig {
            n_gpus: cfg.n_gpus,
            table_bytes_per_port: self.merge_table_capacity(),
            entry_overhead_bytes: 16,
            timeout: self.timeout,
            entry_fault_rate,
            degrade_threshold,
        };
        let logic = CaisLogic::new(cfg.n_gpus, merge_cfg)
            .with_group_expected(group_expected)
            .with_fault_seed(cfg.faults.seed);
        SystemSim::new(cfg, program, logic).run()
    }
}

impl CaisStrategy {
    /// Applies the grouping pass to `row`, corresponding TBs, and
    /// records the group's `members` for the switch's sync table.
    fn group_row<'r>(
        &self,
        ctx: &mut LowerCtx,
        row: impl IntoIterator<Item = &'r mut TbBody>,
        members: usize,
    ) {
        if let Some(grp) = coordinate_row(&mut ctx.ids, &self.coordination, row) {
            ctx.prog.group_expected.insert(grp, members as u32);
        }
    }

    /// A plain (non-fused) node: one kernel per GPU.
    fn lower_node(&self, ctx: &mut LowerCtx, dfg: &Dfg, id: NodeId) {
        let node = dfg.node(id);
        if let NodeKind::Collective { kind, rows, cols } = &node.kind {
            self.lower_standalone_collective(ctx, dfg, &node.name, *kind, *rows, *cols);
            return;
        }
        let mut after = ctx.stage_after(self.fused);
        let out = ctx
            .low
            .plain_stage(&mut ctx.prog, &mut ctx.ids, ctx.cfg, node, |g| {
                std::mem::take(&mut after[g])
            });
        ctx.set_stage_output(out);
    }

    /// Fallback: a collective with no fusable neighbours, still executed
    /// with CAIS memory semantics but as its own kernel.
    fn lower_standalone_collective(
        &self,
        ctx: &mut LowerCtx,
        dfg: &Dfg,
        name: &str,
        kind: CollKind,
        rows: u64,
        cols: u64,
    ) {
        let np = ctx.p();
        let p = np as u64;
        let elem = dfg.elem_bytes;
        let bytes_full = rows * cols * elem;
        let shard = bytes_full / p;
        let pkt = self.cais_packet_bytes;
        let mut kb = KernelBuilder::new(np);
        for s in 0..np {
            let owner = GpuId(s as u16);
            for (ci, (_off, len)) in cais_engine::lower::chunk_ranges(shard, pkt)
                .into_iter()
                .enumerate()
            {
                let addr = ctx.ids.addr(owner, len);
                let key = s as u64 * 4096 + ci as u64;
                match kind {
                    CollKind::ReduceScatter | CollKind::AllReduce => {
                        // Every GPU pushes its partial of every shard via
                        // red.cais; for AllReduce each GPU then
                        // ld.cais-gathers the rest.
                        let tile = ctx.ids.tile();
                        ctx.prog.tile_expected.insert(tile, np as u32);
                        // One `red.cais` row for every GPU: each reduces
                        // into the same address.
                        let phases: Arc<[Phase]> = Arc::new([
                            Phase::Compute(SimDuration::from_ns(200)),
                            Phase::IssueMem {
                                ops: Arc::new([MemOp {
                                    kind: MemOpKind::RemoteReduce,
                                    addr,
                                    bytes: len,
                                    cais: true,
                                    tile: Some(tile),
                                }]),
                                wait: false,
                            },
                        ]);
                        for g in 0..np {
                            kb.push(g, key * 4, Arc::clone(&phases));
                        }
                        self.group_row(ctx, kb.last_row().map(|(_, tb)| tb), np);
                        // Owner-side waiter so the kernel completes when
                        // the reduction lands.
                        let mut wait = vec![Phase::Compute(SimDuration::from_ns(100))];
                        // AllReduce: the reduced chunk is present only at
                        // its owner, so the waiter also notifies the other
                        // GPUs (as the pipeline's middle stage does), and
                        // their gatherers `ld.cais` it once notified.
                        let notified = (kind == CollKind::AllReduce).then(|| {
                            let t = ctx.ids.tile();
                            let notify: Arc<[MemOp]> = (0..np)
                                .filter(|&g| g != s)
                                .map(|g| MemOp {
                                    kind: MemOpKind::RemoteWrite,
                                    addr: ctx.ids.addr(GpuId(g as u16), 8),
                                    bytes: 8,
                                    cais: false,
                                    tile: Some(t),
                                })
                                .collect();
                            wait.push(Phase::IssueMem {
                                ops: notify,
                                wait: false,
                            });
                            Arc::<[TileId]>::from([t])
                        });
                        kb.push_gated(s, key * 4 + 1, wait, Arc::new([tile]));
                        if let Some(notified) = &notified {
                            for g in (0..np).filter(|&g| g != s) {
                                let load = MemOp {
                                    kind: MemOpKind::RemoteLoad,
                                    addr,
                                    bytes: len,
                                    cais: true,
                                    tile: Some(ctx.ids.tile()),
                                };
                                let phases = vec![Phase::IssueMem {
                                    ops: Arc::new([load]),
                                    wait: true,
                                }];
                                let deps = Arc::clone(notified);
                                kb.push_gated(g, key * 4 + 2, phases, deps);
                            }
                        }
                    }
                    CollKind::AllGather => {
                        let tile = ctx.ids.tile();
                        // One `ld.cais` row for every non-owner.
                        let phases: Arc<[Phase]> = Arc::new([Phase::IssueMem {
                            ops: Arc::new([MemOp {
                                kind: MemOpKind::RemoteLoad,
                                addr,
                                bytes: len,
                                cais: true,
                                tile: Some(tile),
                            }]),
                            wait: true,
                        }]);
                        for g in (0..np).filter(|&g| g != s) {
                            kb.push(g, key, Arc::clone(&phases));
                        }
                    }
                }
            }
        }
        let after = ctx.prev_all.clone();
        let kname: Arc<str> = format!("coll.{name}").into();
        let out = kb.finish(&mut ctx.prog, &mut ctx.ids, |_| {
            KernelSpec::new(Arc::clone(&kname), after.clone())
        });
        ctx.set_stage_output(out);
    }

    /// AllGather feeding a GEMM: gathered operand rows are pulled with
    /// `ld.cais` by the consuming GEMM's thread blocks.
    fn lower_gather_gemm(&self, ctx: &mut LowerCtx, dfg: &Dfg, consumer: NodeId) {
        let NodeKind::Gemm { m, n, k } = dfg.node(consumer).kind else {
            panic!("GatherGemm consumer must be a GEMM");
        };
        let name = dfg.node(consumer).name.clone();
        // Remote reads require the producer data to exist on every GPU:
        // global barrier on the previous stage (the communication-centric
        // boundary CAIS cannot remove without tiles from the producer).
        let after_all = ctx.prev_all.clone();
        let out = self.emit_ag_gemm_kernels(ctx, &name, m, n, k, None, after_all);
        ctx.set_stage_output(out);
    }

    /// The fused pipeline.
    #[allow(clippy::too_many_arguments)]
    fn lower_pipeline(
        &self,
        ctx: &mut LowerCtx,
        dfg: &Dfg,
        producer: NodeId,
        reduce: NodeId,
        middle: &[NodeId],
        gather: Option<NodeId>,
        consumer: Option<NodeId>,
    ) {
        let np = ctx.p();
        let elem = dfg.elem_bytes;
        let tile = ctx.cfg.tile;
        let NodeKind::Gemm {
            m: pm,
            n: pn,
            k: pk,
        } = dfg.node(producer).kind
        else {
            panic!("pipeline producer must be a GEMM");
        };
        let NodeKind::Collective { rows, cols, .. } = dfg.node(reduce).kind else {
            panic!("pipeline reduce must be a collective");
        };
        debug_assert_eq!((pm, pn), (rows, cols), "producer output feeds the reduce");

        let n_mb = rows.div_ceil(tile);
        let n_nb = cols.div_ceil(tile);
        let tile_bytes = tile * tile * elem;
        let n_sub = tile_bytes.div_ceil(self.cais_packet_bytes).max(1);

        // ---- producer GEMM with red.cais epilogue --------------------
        // Reduction tile per (mi, ni) at the shard owner; addresses are
        // identical from every GPU (gpu-invariant), hence mergeable.
        let mut red_tiles: Vec<Vec<TileId>> = Vec::with_capacity(n_mb as usize);
        let mut red_addrs = Vec::with_capacity(n_mb as usize);
        for mi in 0..n_mb {
            let owner = shard_owner(mi, n_mb, np);
            let mut row_tiles = Vec::with_capacity(n_nb as usize);
            let mut row_addrs = Vec::with_capacity(n_nb as usize);
            for _ni in 0..n_nb {
                let t = ctx.ids.tile();
                ctx.prog.tile_expected.insert(t, (n_sub * np as u64) as u32);
                row_tiles.push(t);
                row_addrs.push(ctx.ids.addr(owner, tile_bytes));
            }
            red_tiles.push(row_tiles);
            red_addrs.push(row_addrs);
        }

        let mut producers = KernelBuilder::new(np);
        for mi in 0..n_mb {
            let m_len = tile.min(rows - mi * tile);
            for ni in 0..n_nb {
                let n_len = tile.min(cols - ni * tile);
                let t_compute = ctx.low.gemm_tb_time(m_len, n_len, pk);
                let addr = red_addrs[mi as usize][ni as usize];
                let rtile = red_tiles[mi as usize][ni as usize];
                // One `red.cais` row per (mi, ni), shared by all GPUs.
                let ops: Arc<[MemOp]> = (0..n_sub)
                    .map(|si| {
                        let off = si * self.cais_packet_bytes;
                        let len = self.cais_packet_bytes.min(tile_bytes - off);
                        MemOp {
                            kind: MemOpKind::RemoteReduce,
                            addr: addr.add(off),
                            bytes: len,
                            cais: true,
                            tile: Some(rtile),
                        }
                    })
                    .collect();
                let phases: Arc<[Phase]> = Arc::new([
                    Phase::Compute(t_compute),
                    Phase::IssueMem { ops, wait: false },
                ]);
                for g in 0..np {
                    producers.push(g, mi * n_nb + ni, Arc::clone(&phases));
                }
                self.group_row(ctx, producers.last_row().map(|(_, tb)| tb), np);
            }
        }
        let producer_name: Arc<str> = format!("gemm.{}", dfg.node(producer).name).into();
        let mut after = ctx.stage_after(self.fused);
        let producer_kids = producers.finish(&mut ctx.prog, &mut ctx.ids, |g| {
            KernelSpec::new(Arc::clone(&producer_name), std::mem::take(&mut after[g]))
        });

        // ---- middle (shard-local LN / elementwise) -------------------
        // One fused kernel per GPU over its row bands; per-band tiles
        // gate the consumer. Fine-grained mode: a band runs as soon as
        // its reductions land. Base mode: bands wait for everything.
        let mid_time_per_row: SimDuration = middle
            .iter()
            .map(|id| match &dfg.node(*id).kind {
                NodeKind::LayerNorm { cols, .. } => ctx.low.cost.elementwise(*cols, elem, 8.0),
                NodeKind::Elementwise {
                    cols,
                    flops_per_elem,
                    ..
                } => ctx.low.cost.elementwise(*cols, elem, *flops_per_elem),
                other => panic!("unsupported middle op {other:?}"),
            })
            .sum();

        let mut mid_tiles: Vec<TileId> = Vec::with_capacity(n_mb as usize);
        for _ in 0..n_mb {
            mid_tiles.push(ctx.ids.tile());
        }
        // Coarse (CAIS-Base) gating: a GPU's middle TBs wait for every
        // reduction tile of the bands *it owns* (reduction tiles only
        // materialize at their owner).
        let mut owned_red_tiles: Vec<Vec<TileId>> = vec![Vec::new(); np];
        for mi in 0..n_mb {
            let owner = shard_owner(mi, n_mb, np);
            owned_red_tiles[owner.index()].extend(red_tiles[mi as usize].iter().copied());
        }
        let owned_red_tiles: Vec<Arc<[TileId]>> =
            owned_red_tiles.into_iter().map(Arc::from).collect();

        let mut mids = KernelBuilder::new(np);
        let has_middle_work = !middle.is_empty() || gather.is_some() || consumer.is_some();
        if has_middle_work {
            for mi in 0..n_mb {
                let owner = shard_owner(mi, n_mb, np);
                let m_len = tile.min(rows - mi * tile);
                let notify_ops: Arc<[MemOp]> = (0..np)
                    .filter(|g| *g != owner.index())
                    .map(|g| MemOp {
                        kind: MemOpKind::RemoteWrite,
                        addr: ctx.ids.addr(GpuId(g as u16), 8),
                        bytes: 8,
                        cais: false,
                        tile: Some(mid_tiles[mi as usize]),
                    })
                    .collect();
                let phases = vec![
                    Phase::Compute(mid_time_per_row * m_len),
                    Phase::SignalTile(mid_tiles[mi as usize]),
                    Phase::IssueMem {
                        ops: notify_ops,
                        wait: false,
                    },
                ];
                let deps = if self.fused {
                    red_tiles[mi as usize][..].into()
                } else {
                    Arc::clone(&owned_red_tiles[owner.index()])
                };
                mids.push_gated(owner.index(), mi, phases, deps);
            }
        }
        let mid_name: Arc<str> = if middle.is_empty() {
            "fused.mid".into()
        } else {
            format!(
                "fused.mid.{}",
                middle
                    .iter()
                    .map(|id| dfg.node(*id).name.as_str())
                    .collect::<Vec<_>>()
                    .join("+")
            )
            .into()
        };
        let mid_kids = if has_middle_work {
            // Fused: launched alongside the producer; tiles gate TBs.
            // Otherwise a coarse phase boundary: all producers done
            // everywhere.
            let mut after = if self.fused {
                ctx.stage_after(true)
            } else {
                vec![producer_kids.clone(); np]
            };
            mids.finish(&mut ctx.prog, &mut ctx.ids, |g| {
                KernelSpec::new(Arc::clone(&mid_name), std::mem::take(&mut after[g]))
            })
        } else {
            Vec::new()
        };

        // ---- consumer GEMM (AG side) ---------------------------------
        if let Some(consumer) = consumer {
            let NodeKind::Gemm { m, n, k } = dfg.node(consumer).kind else {
                panic!("pipeline consumer must be a GEMM");
            };
            let name = dfg.node(consumer).name.clone();
            let after = if self.fused {
                ctx.prev_local.iter().flatten().copied().collect()
            } else {
                mid_kids.clone()
            };
            let out = self.emit_ag_gemm_kernels(ctx, &name, m, n, k, Some(&mid_tiles), after);
            ctx.set_stage_output(out);
        } else if !mid_kids.is_empty() {
            ctx.set_stage_output(mid_kids);
        } else {
            ctx.set_stage_output(producer_kids);
        }
    }

    /// Emits per-GPU AG-GEMM kernels: row bands are owned by their shard
    /// GPU; non-owners `ld.cais` the band's operand tiles (merged at the
    /// switch), owners read locally. `band_gate[mi]`, when given, is the
    /// per-band readiness tile (present locally on every GPU via the
    /// middle stage's notification writes).
    #[allow(clippy::too_many_arguments)]
    fn emit_ag_gemm_kernels(
        &self,
        ctx: &mut LowerCtx,
        name: &str,
        m: u64,
        n: u64,
        k: u64,
        band_gate: Option<&[TileId]>,
        after: Vec<KernelId>,
    ) -> Vec<KernelId> {
        let np = ctx.p();
        let tile = ctx.cfg.tile;
        let elem = ctx.low.elem;
        let n_mb = m.div_ceil(tile);
        let n_nb = n.div_ceil(tile);
        let n_kb = k.div_ceil(tile);
        let tile_bytes = tile * tile * elem;

        // Operand tiles of the gathered matrix: one address + TileId per
        // (mi, kt), shared by every GPU (the TileDirectory tracks
        // presence per GPU; the merge unit sees identical addresses).
        let mut op_tiles: Vec<Vec<(sim_core::Addr, TileId)>> = Vec::with_capacity(n_mb as usize);
        for mi in 0..n_mb {
            let owner = shard_owner(mi, n_mb, np);
            let mut row = Vec::with_capacity(n_kb as usize);
            for _kt in 0..n_kb {
                row.push((ctx.ids.addr(owner, tile_bytes), ctx.ids.tile()));
            }
            op_tiles.push(row);
        }

        // Without fine-grained gating every band waits on all gate tiles.
        let whole_gate: Arc<[TileId]> = band_gate.unwrap_or_default().into();
        let mut kb = KernelBuilder::new(np);
        for mi in 0..n_mb {
            let owner = shard_owner(mi, n_mb, np).index();
            let m_len = tile.min(m - mi * tile);
            let band = &op_tiles[mi as usize];
            // Built once per band and shared by every GPU's TBs: the
            // fetchers' `ld.cais` list (GPU-invariant addresses), the
            // band gate, and the band gate plus operand tiles.
            let fetch: Phase = Phase::IssueMem {
                ops: band
                    .iter()
                    .map(|&(addr, t)| MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr,
                        bytes: tile_bytes,
                        cais: true,
                        tile: Some(t),
                    })
                    .collect(),
                wait: true,
            };
            let gate_deps: Arc<[TileId]> = match band_gate {
                Some(gate) if self.fused => Arc::new([gate[mi as usize]]),
                _ => Arc::clone(&whole_gate),
            };
            let sibling_deps: Arc<[TileId]> = gate_deps
                .iter()
                .copied()
                .chain(band.iter().map(|&(_, t)| t))
                .collect();
            for ni in 0..n_nb {
                let n_len = tile.min(n - ni * tile);
                let t_compute = ctx.low.gemm_tb_time(m_len, n_len, k);
                let key = mi * n_nb + ni;
                // The owner and the siblings compute; the designated
                // fetchers load first. One list each for the whole row.
                let compute: Arc<[Phase]> = Arc::new([Phase::Compute(t_compute)]);
                let fetcher: Option<Arc<[Phase]>> = (ni == 0)
                    .then(|| Arc::new([fetch.clone(), Phase::Compute(t_compute)]) as Arc<[Phase]>);
                for g in 0..np {
                    let (phases, deps) = if g == owner {
                        (&compute, &gate_deps)
                    } else if let Some(fetcher) = &fetcher {
                        // Designated fetcher: issues the band's `ld.cais`
                        // operand loads.
                        (fetcher, &gate_deps)
                    } else {
                        // Siblings reuse the fetched band through the L2
                        // (tile directory). Gate *dispatch* on the operand
                        // tiles rather than blocking in-slot: a sibling
                        // holding an SM slot while its band's fetcher is
                        // still queued can starve the fetchers outright
                        // at scale.
                        (&compute, &sibling_deps)
                    };
                    kb.push_gated(g, key, Arc::clone(phases), Arc::clone(deps));
                }
                if ni == 0 && np > 1 {
                    // Coordination row: the designated fetchers of the
                    // p - 1 non-owner GPUs (the owner reads locally and
                    // never syncs).
                    let fetchers = kb.last_row().filter(|&(g, _)| g != owner);
                    self.group_row(ctx, fetchers.map(|(_, tb)| tb), np - 1);
                }
            }
        }
        let kname: Arc<str> = format!("gemm.{name}").into();
        kb.finish(&mut ctx.prog, &mut ctx.ids, |_| {
            KernelSpec::new(Arc::clone(&kname), after.clone())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::strategy::execute;
    use llm_workload::{sublayer, ModelConfig, SubLayer};
    use std::collections::{HashMap, HashSet};

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::dgx_h100();
        cfg.n_gpus = 4;
        cfg.n_planes = 2;
        cfg.fabric = noc_sim::FabricConfig::default_for(4, 2);
        cfg.gpu.launch_skew = SimDuration::from_us(5);
        cfg
    }

    fn small_model() -> ModelConfig {
        ModelConfig {
            hidden: 1024,
            ffn_hidden: 2048,
            heads: 8,
            seq_len: 512,
            batch: 1,
            ..ModelConfig::llama_7b()
        }
    }

    #[test]
    fn full_cais_runs_a_sublayer() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let report = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
        assert!(report.total > SimDuration::from_us(10));
        // Merging happened.
        assert!(report.stat("cais.loads_merged").unwrap_or(0.0) > 0.0);
        assert!(report.stat("cais.reduce_contribs").unwrap_or(0.0) > 0.0);
        // Sync table fired.
        assert!(report.stat("cais.sync_releases").unwrap_or(0.0) > 0.0);
    }

    #[test]
    fn idle_gpus_past_64_leave_an_eight_gpu_run_unchanged() {
        // One CAIS sub-layer lowered for GPUs 0-7 and run on 8 and on 72
        // GPUs with the same fabric parameters: the 64 idle GPUs must not
        // move a single event.
        let strategy = CaisStrategy::full();
        let mut base = small_cfg();
        base.n_gpus = 8;
        base.fabric.n_gpus = 8;
        strategy.tune(&mut base);
        let dfg = sublayer(&small_model(), 8, SubLayer::L1);
        let run = |n_gpus: usize| {
            let mut program = strategy.lower(&dfg, &base);
            let logic = CaisLogic::new(8, MergeConfig::paper_default(8))
                .with_group_expected(std::mem::take(&mut program.group_expected));
            let mut cfg = base.clone();
            cfg.n_gpus = n_gpus;
            cfg.fabric.n_gpus = n_gpus;
            SystemSim::new(cfg, program, logic)
                .run()
                .expect("run completes")
        };
        let (eight, wide) = (run(8), run(72));
        assert_eq!(wide.gpu_occupancy.len(), 72);
        assert_eq!(eight.total, wide.total);
        assert_eq!(eight.events_processed, wide.events_processed);
        assert_eq!(eight.logic_stats, wide.logic_stats);
        assert!(eight.stat("cais.loads_merged").unwrap() > 0.0);
    }

    #[test]
    fn base_is_slower_than_full() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let full = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
        let base = execute(&CaisStrategy::base(), &dfg, &cfg).expect("run completes");
        assert!(
            base.total > full.total,
            "base {} vs full {}",
            base.total,
            full.total
        );
    }

    #[test]
    fn coordination_reduces_request_spread() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let coord = execute(&CaisStrategy::full().with_merge_table(None), &dfg, &cfg)
            .expect("run completes");
        let uncoord = execute(&CaisStrategy::base().with_merge_table(None), &dfg, &cfg)
            .expect("run completes");
        let s_coord = coord.stat("cais.mean_spread_us").expect("spread recorded");
        let s_uncoord = uncoord
            .stat("cais.mean_spread_us")
            .expect("spread recorded");
        assert!(
            s_coord < s_uncoord,
            "coordinated spread {s_coord} must beat uncoordinated {s_uncoord}"
        );
    }

    #[test]
    fn merged_loads_cut_traffic_vs_unmerged_count() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let report = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
        let reqs = report.stat("cais.load_requests").unwrap();
        let merged = report.stat("cais.loads_merged").unwrap();
        // With p=4, up to 2 of every 3 requests merge.
        assert!(merged / reqs > 0.4, "merge ratio too low: {merged}/{reqs}");
    }

    #[test]
    fn merge_faults_degrade_gracefully() {
        // Aggressive entry faults with an instant degrade threshold: the
        // run must still complete (no deadlock, no stall), with ports
        // falling back to the unmerged NVLS-style path.
        let mut cfg = small_cfg();
        cfg.faults.merge_faults = Some(sim_core::MergeFaultSpec {
            rate: 1.0,
            degrade_threshold: 1,
        });
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let report =
            execute(&CaisStrategy::full(), &dfg, &cfg).expect("degraded run still completes");
        assert!(
            report.stat("cais.entry_faults").unwrap_or(0.0) > 0.0,
            "sweep ticks injected faults"
        );
        assert!(
            report.stat("cais.degraded_ports").unwrap_or(0.0) > 0.0,
            "fault pressure degraded at least one port"
        );
    }

    #[test]
    fn coordinated_rows_share_one_payload_across_gpus() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let prog = CaisStrategy::full().lower(&dfg, &cfg);
        let cais_ops = |tb: &TbBody, kind: MemOpKind| {
            tb.phases.iter().find_map(|ph| match ph {
                Phase::IssueMem { ops, .. } if ops.iter().any(|o| o.cais && o.kind == kind) => {
                    Some(Arc::clone(ops))
                }
                _ => None,
            })
        };
        // Payloads of one row, keyed by (kernel name, row's order key).
        type Rows = HashMap<(String, u64), Vec<Arc<[MemOp]>>>;
        let (mut producers, mut fetchers): (Rows, Rows) = Default::default();
        for k in &prog.kernels {
            for tb in k.desc.body.tbs.iter() {
                let row = (k.desc.body.name.to_string(), tb.order_key);
                if let Some(ops) = cais_ops(tb, MemOpKind::RemoteReduce) {
                    producers.entry(row.clone()).or_default().push(ops);
                }
                if let Some(ops) = cais_ops(tb, MemOpKind::RemoteLoad) {
                    fetchers.entry(row).or_default().push(ops);
                }
            }
        }
        let all_shared = |lists: &[Arc<[MemOp]>]| lists.iter().all(|l| Arc::ptr_eq(l, &lists[0]));
        assert!(!producers.is_empty() && !fetchers.is_empty());
        for lists in producers.values() {
            assert_eq!(lists.len(), 4, "one producer per GPU");
            assert!(all_shared(lists), "a row's red.cais list is built once");
        }
        for lists in fetchers.values() {
            assert_eq!(lists.len(), 3, "one fetcher per non-owner GPU");
            assert!(all_shared(lists), "a band's ld.cais list is built once");
        }

        // Siblings: compute-only TBs gated on the tiles their band's
        // fetcher loads. A row's non-owner siblings share one list.
        let fetched: HashSet<TileId> = fetchers
            .values()
            .flat_map(|lists| lists[0].iter().filter_map(|o| o.tile))
            .collect();
        let mut siblings: HashMap<(String, u64), Vec<Arc<[TileId]>>> = HashMap::new();
        for k in &prog.kernels {
            for (tb, deps) in k.desc.body.tbs.iter().zip(k.desc.deps.iter()) {
                if deps.iter().any(|t| fetched.contains(t)) {
                    let row = (k.desc.body.name.to_string(), tb.order_key);
                    siblings.entry(row).or_default().push(Arc::clone(deps));
                }
            }
        }
        assert!(!siblings.is_empty());
        for lists in siblings.values() {
            assert_eq!(lists.len(), 3, "one sibling per non-owner GPU");
            assert!(lists.iter().all(|l| Arc::ptr_eq(l, &lists[0])));
        }
    }

    #[test]
    fn gpus_share_a_body_unless_their_tbs_differ() {
        let cfg = small_cfg();
        let dfg = sublayer(&small_model(), 4, SubLayer::L1);
        let prog = CaisStrategy::full().lower(&dfg, &cfg);
        let mut by_name: HashMap<&str, Vec<&Arc<gpu_sim::KernelBody>>> = HashMap::new();
        for k in &prog.kernels {
            by_name
                .entry(&*k.desc.body.name)
                .or_default()
                .push(&k.desc.body);
        }
        // The producer GEMM runs the same grouped rows on every GPU.
        let (producer, bodies) = by_name
            .iter()
            .find(|(n, b)| n.starts_with("gemm.") && b[0].tbs.iter().all(|tb| tb.group.is_some()))
            .expect("a producer GEMM with every row grouped");
        assert_eq!(bodies.len(), 4);
        assert!(
            bodies.iter().all(|b| Arc::ptr_eq(b, bodies[0])),
            "{producer}: one body"
        );
        // The middle kernel runs only the bands a GPU owns.
        let (mid, bodies) = by_name
            .iter()
            .find(|(n, _)| n.starts_with("fused.mid"))
            .expect("a middle kernel");
        assert_eq!(bodies.len(), 4);
        for (i, a) in bodies.iter().enumerate() {
            assert!(
                bodies[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)),
                "{mid}: one body per GPU"
            );
        }
    }

    /// `LayerNorm -> kind` with no fusable neighbours: lowered by the
    /// standalone-collective path, which transformer layers never reach.
    fn bare_collective(kind: CollKind) -> Dfg {
        let (rows, cols) = (2048, 1024);
        let mut g = Dfg::new(2);
        let ln = g.add("ln", NodeKind::LayerNorm { rows, cols }, vec![]);
        g.add("coll", NodeKind::Collective { kind, rows, cols }, vec![ln]);
        g
    }

    #[test]
    fn standalone_collectives_complete() {
        let cfg = small_cfg();
        for strategy in [CaisStrategy::base(), CaisStrategy::full()] {
            for kind in [
                CollKind::ReduceScatter,
                CollKind::AllReduce,
                CollKind::AllGather,
            ] {
                let run = format!("{} {kind:?}", strategy.name());
                let report = execute(&strategy, &bare_collective(kind), &cfg)
                    .unwrap_or_else(|e| panic!("{run}: {e}"));
                if kind != CollKind::ReduceScatter {
                    let merged = report.stat("cais.loads_merged").unwrap_or(0.0);
                    assert!(merged > 0.0, "{run}: gathers merge in the switch");
                }
                if kind != CollKind::AllGather {
                    assert!(report.semantic_contribs > 0, "{run}: reductions land");
                }
            }
        }
    }

    #[test]
    fn variant_names() {
        assert_eq!(CaisStrategy::full().name(), "CAIS");
        assert_eq!(CaisStrategy::partial().name(), "CAIS-Partial");
        assert_eq!(CaisStrategy::base().name(), "CAIS-Base");
        let abl = CaisStrategy::full().with_coordination("x", CoordinationOpts::none());
        assert_eq!(abl.name(), "CAIS[x]");
    }

    #[test]
    fn default_merge_table_is_the_papers_40_kb() {
        for packet in [DEFAULT_PACKET_BYTES, 128] {
            let s = CaisStrategy::full().with_packet_bytes(packet);
            assert_eq!(
                s.merge_table_capacity(),
                Some(MERGE_TABLE_ENTRIES * (packet + 16))
            );
        }
        // fig14's 10 KB row: 80 entries of 8,208 B.
        assert_eq!(paper_kb_to_bytes(10, DEFAULT_PACKET_BYTES), 80 * 8208);
    }
}
