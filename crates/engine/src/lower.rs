//! Shared lowering primitives: tiling math, the plain compute stage and
//! the per-GPU kernel builder.
//!
//! Execution strategies lower [`Dfg`](llm_workload::Dfg) nodes into
//! [`KernelDesc`]s. The per-strategy schedule (which TBs issue which
//! remote operations, how kernels chain) lives in the strategy crates;
//! the tile geometry, roofline arithmetic and kernel assembly
//! ([`KernelBuilder`]) shared by all of them live here.

use crate::config::SystemConfig;
use crate::ids::IdAlloc;
use crate::program::{PlannedKernel, Program};
use gpu_sim::{KernelCost, KernelDesc, Phase, TbDesc};
use llm_workload::{Node, NodeKind};
use sim_core::{GpuId, KernelId, SimDuration, TbId, TileId};
use std::sync::Arc;

/// Square output-tile geometry used to decompose GEMMs into TBs.
#[derive(Debug, Clone, Copy)]
pub struct Tiling {
    /// Tile edge in elements.
    pub tile: u64,
}

impl Tiling {
    /// Creates a tiling.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn new(tile: u64) -> Tiling {
        assert!(tile > 0, "tile size must be positive");
        Tiling { tile }
    }

    /// Number of tiles covering `dim`.
    pub fn count(&self, dim: u64) -> u64 {
        dim.div_ceil(self.tile)
    }

    /// `(offset, len)` ranges covering `dim`.
    pub fn ranges(&self, dim: u64) -> Vec<(u64, u64)> {
        (0..self.count(dim))
            .map(|i| {
                let off = i * self.tile;
                (off, self.tile.min(dim - off))
            })
            .collect()
    }
}

/// Splits `bytes` into `(offset, len)` chunks of at most `chunk` bytes.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn chunk_ranges(bytes: u64, chunk: u64) -> Vec<(u64, u64)> {
    assert!(chunk > 0, "chunk size must be positive");
    (0..bytes.div_ceil(chunk))
        .map(|i| {
            let off = i * chunk;
            (off, chunk.min(bytes - off))
        })
        .collect()
}

/// Per-node lowering cost/geometry helper shared by all strategies.
#[derive(Debug)]
pub struct GemmLowering {
    /// Roofline cost model for the configured GPU.
    pub cost: KernelCost,
    /// Output tile geometry.
    pub tiling: Tiling,
    /// Bytes per element.
    pub elem: u64,
}

impl GemmLowering {
    /// Builds the helper from a cost model.
    pub fn new(cost: KernelCost, tile: u64, elem: u64) -> GemmLowering {
        GemmLowering {
            cost,
            tiling: Tiling::new(tile),
            elem,
        }
    }

    /// Duration of one `(m_len x n_len) @ k` output tile.
    pub fn gemm_tb_time(&self, m_len: u64, n_len: u64, k: u64) -> SimDuration {
        self.cost.gemm_tile(m_len, n_len, k, self.elem)
    }

    /// Lowers a communication-free compute node into one kernel per GPU
    /// and appends them to `prog`. GPU `g`'s kernel launches after
    /// `after(g)`. Returns the kernel ids in GPU order.
    pub fn plain_stage(
        &self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        cfg: &SystemConfig,
        node: &Node,
        mut after: impl FnMut(usize) -> Vec<KernelId>,
    ) -> Vec<KernelId> {
        let times = self.plain_tb_times(&node.kind, cfg.gpu.sm_count);
        let mut kb = KernelBuilder::new(cfg.n_gpus);
        for g in 0..cfg.n_gpus {
            for (key, &t) in times.iter().enumerate() {
                kb.push(ids, g, key as u64, vec![Phase::Compute(t)]);
            }
        }
        let name: Arc<str> = node.name.as_str().into();
        kb.finish(prog, ids, |g| KernelSpec::new(Arc::clone(&name), after(g)))
    }

    /// Per-TB durations of a communication-free compute node: one
    /// pure-compute TB per output tile, row band or SM, by node kind.
    ///
    /// # Panics
    ///
    /// Panics on a collective node: strategies lower those themselves.
    fn plain_tb_times(&self, kind: &NodeKind, sm_count: usize) -> Vec<SimDuration> {
        match kind {
            NodeKind::Gemm { m, n, k } => {
                let cols = self.tiling.ranges(*n);
                self.tiling
                    .ranges(*m)
                    .into_iter()
                    .flat_map(|(_, ml)| cols.iter().map(move |&(_, nl)| (ml, nl)))
                    .map(|(ml, nl)| self.gemm_tb_time(ml, nl, *k))
                    .collect()
            }
            NodeKind::AttentionCore { flops, bytes } => {
                // Spread across the device: one TB per SM.
                let n = sm_count as u64;
                let t = self
                    .cost
                    .tb_time(*flops / n as f64, *bytes as f64 / n as f64);
                vec![t; sm_count]
            }
            NodeKind::LayerNorm { rows, cols } => self.row_band_times(*rows, *cols, 8.0),
            NodeKind::Elementwise {
                rows,
                cols,
                flops_per_elem,
            } => self.row_band_times(*rows, *cols, *flops_per_elem),
            NodeKind::Collective { .. } => {
                panic!("collective nodes are lowered by strategy-specific code")
            }
        }
    }

    fn row_band_times(&self, rows: u64, cols: u64, flops_per_elem: f64) -> Vec<SimDuration> {
        self.tiling
            .ranges(rows)
            .into_iter()
            .map(|(_, rl)| self.cost.elementwise(rl * cols, self.elem, flops_per_elem))
            .collect()
    }
}

/// The GPU owning row band `band` of `n_bands` when a tensor's rows are
/// sharded evenly over `p` GPUs.
pub fn shard_owner(band: u64, n_bands: u64, p: usize) -> GpuId {
    GpuId(((band * p as u64) / n_bands) as u16)
}

/// Name, launch dependencies and launch flags of one kernel a
/// [`KernelBuilder`] emits (see the same-named [`KernelDesc`] fields).
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name.
    pub name: Arc<str>,
    /// Kernels that must complete before launch.
    pub after: Vec<KernelId>,
    /// Every TB is ready at launch; when false each TB waits for its
    /// [`Program::tb_ready_deps`] entry.
    pub tbs_auto_ready: bool,
    /// No host launch overhead.
    pub fused_launch: bool,
    /// Persistent-kernel dispatch in `order_key` order.
    pub ordered: bool,
}

impl KernelSpec {
    /// An auto-ready, separately launched, unordered kernel.
    pub fn new(name: impl Into<Arc<str>>, after: Vec<KernelId>) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            after,
            tbs_auto_ready: true,
            fused_launch: false,
            ordered: false,
        }
    }

    /// TBs wait for their ready entries instead of launching ready.
    pub fn gated(self) -> KernelSpec {
        KernelSpec {
            tbs_auto_ready: false,
            ..self
        }
    }

    /// Skips the host launch overhead.
    pub fn fused(self) -> KernelSpec {
        KernelSpec {
            fused_launch: true,
            ..self
        }
    }

    /// Persistent-kernel (NCCL-style) dispatch.
    pub fn ordered(self) -> KernelSpec {
        KernelSpec {
            ordered: true,
            ..self
        }
    }
}

/// Assembles one kernel per GPU from per-GPU TB lists: the one path by
/// which every lowering turns TBs into kernels.
///
/// A TB's id is allocated when it is pushed; kernel ids are allocated
/// GPU by GPU in [`finish`](Self::finish), which appends the kernels to
/// the program in GPU order. Each kernel keeps its TBs in push order.
#[derive(Debug)]
pub struct KernelBuilder {
    tbs: Vec<Vec<TbDesc>>,
    /// Dependency lists handed to [`push_gated`](Self::push_gated).
    ready: Vec<(TbId, Arc<[TileId]>)>,
    /// Per GPU: how many of its TBs have a `ready` entry.
    n_gated: Vec<usize>,
}

impl KernelBuilder {
    /// An empty builder for `n_gpus` GPUs.
    pub fn new(n_gpus: usize) -> KernelBuilder {
        KernelBuilder {
            tbs: vec![Vec::new(); n_gpus],
            ready: Vec::new(),
            n_gated: vec![0; n_gpus],
        }
    }

    /// Appends a TB running `phases` to `gpu`'s kernel.
    pub fn push(&mut self, ids: &mut IdAlloc, gpu: usize, order_key: u64, phases: Vec<Phase>) {
        self.tbs[gpu].push(TbDesc::new(ids.tb(), order_key, phases));
    }

    /// Appends a TB that becomes dispatchable once every tile in `deps`
    /// is present on `gpu`. Hand the same `Arc` to TBs sharing a list.
    pub fn push_gated(
        &mut self,
        ids: &mut IdAlloc,
        gpu: usize,
        order_key: u64,
        phases: Vec<Phase>,
        deps: Arc<[TileId]>,
    ) {
        let id = ids.tb();
        self.tbs[gpu].push(TbDesc::new(id, order_key, phases));
        self.ready.push((id, deps));
        self.n_gated[gpu] += 1;
    }

    /// The number of TBs pushed to `gpu` so far: the order key of the
    /// next one when keys count a GPU's TBs.
    pub fn next_key(&self, gpu: usize) -> u64 {
        self.tbs[gpu].len() as u64
    }

    /// The last TB pushed to each GPU that has one, in GPU order: the
    /// row of corresponding TBs just pushed, for TB grouping.
    pub fn last_row(&mut self) -> impl Iterator<Item = (usize, &mut TbDesc)> {
        self.tbs
            .iter_mut()
            .enumerate()
            .filter_map(|(g, tbs)| tbs.last_mut().map(|tb| (g, tb)))
    }

    /// Emits one kernel per GPU, described by `spec(gpu)`, and records
    /// the ready entries: every dependency list handed in, plus an empty
    /// one for each other TB of a kernel that is not auto-ready (a TB
    /// without an entry would never become dispatchable). Returns the
    /// kernel ids in GPU order.
    pub fn finish(
        self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        mut spec: impl FnMut(usize) -> KernelSpec,
    ) -> Vec<KernelId> {
        prog.tb_ready_deps.extend(self.ready);
        let n_gated = self.n_gated;
        self.tbs
            .into_iter()
            .enumerate()
            .map(|(g, tbs)| {
                let s = spec(g);
                if !s.tbs_auto_ready && n_gated[g] < tbs.len() {
                    for tb in &tbs {
                        prog.tb_ready_deps.entry(tb.id).or_default();
                    }
                }
                prog.push(PlannedKernel {
                    gpu: GpuId(g as u16),
                    desc: KernelDesc {
                        id: ids.kernel(),
                        name: s.name,
                        tbs,
                        tbs_auto_ready: s.tbs_auto_ready,
                        fused_launch: s.fused_launch,
                        ordered: s.ordered,
                    },
                    after: s.after,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn lowering() -> GemmLowering {
        GemmLowering::new(KernelCost::new(&GpuConfig::h100_half()), 128, 2)
    }

    #[test]
    fn tiling_covers_dimension_exactly() {
        let t = Tiling::new(128);
        assert_eq!(t.count(256), 2);
        assert_eq!(t.count(300), 3);
        let ranges = t.ranges(300);
        assert_eq!(ranges, vec![(0, 128), (128, 128), (256, 44)]);
        let covered: u64 = ranges.iter().map(|(_, l)| l).sum();
        assert_eq!(covered, 300);
    }

    #[test]
    fn chunks_cover_bytes() {
        let chunks = chunk_ranges(1000, 256);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3], (768, 232));
        assert_eq!(chunk_ranges(0, 256).len(), 0);
    }

    #[test]
    fn gemm_kernel_has_full_grid() {
        let times = lowering().plain_tb_times(
            &NodeKind::Gemm {
                m: 512,
                n: 256,
                k: 1024,
            },
            66,
        );
        assert_eq!(times.len(), 4 * 2);
        assert!(times.iter().all(|&t| t > SimDuration::ZERO));
    }

    #[test]
    fn layernorm_kernel_rows() {
        let times = lowering().plain_tb_times(
            &NodeKind::LayerNorm {
                rows: 1152,
                cols: 4096,
            },
            66,
        );
        assert_eq!(times.len(), 9);
    }

    #[test]
    #[should_panic(expected = "collective nodes")]
    fn collective_nodes_rejected() {
        let _ = lowering().plain_tb_times(
            &NodeKind::Collective {
                kind: llm_workload::CollKind::AllReduce,
                rows: 1,
                cols: 1,
            },
            66,
        );
    }

    fn compute(ns: u64) -> Vec<Phase> {
        vec![Phase::Compute(SimDuration::from_ns(ns))]
    }

    #[test]
    fn builder_allocates_tb_ids_at_push_and_kernel_ids_per_gpu_at_finish() {
        let mut ids = IdAlloc::new(2);
        let mut prog = Program::new();
        let _ = ids.kernel();
        let mut kb = KernelBuilder::new(2);
        // Interleaved pushes: TB ids follow push order, not GPU order.
        kb.push(&mut ids, 1, 0, compute(1));
        kb.push(&mut ids, 0, 5, compute(1));
        kb.push(&mut ids, 1, 1, compute(1));
        assert_eq!(kb.next_key(1), 2);
        let kids = kb.finish(&mut prog, &mut ids, |g| {
            KernelSpec::new(format!("k{g}"), vec![KernelId(0)]).fused()
        });
        assert_eq!(kids, vec![KernelId(1), KernelId(2)]);
        let tbs = |i: usize| -> Vec<(TbId, u64)> {
            let d = &prog.kernels[i].desc;
            d.tbs.iter().map(|tb| (tb.id, tb.order_key)).collect()
        };
        assert_eq!(prog.kernels[0].gpu, GpuId(0));
        assert_eq!(tbs(0), vec![(TbId(1), 5)]);
        assert_eq!(prog.kernels[1].gpu, GpuId(1));
        assert_eq!(tbs(1), vec![(TbId(0), 0), (TbId(2), 1)]);
        let d = &prog.kernels[1].desc;
        assert_eq!(&*d.name, "k1");
        assert!(d.tbs_auto_ready && d.fused_launch && !d.ordered);
        assert_eq!(prog.kernels[1].after, vec![KernelId(0)]);
        assert!(
            prog.tb_ready_deps.is_empty(),
            "auto-ready TBs need no entry"
        );
    }

    #[test]
    fn gated_kernel_gives_every_tb_a_ready_entry() {
        let mut ids = IdAlloc::new(2);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(2);
        let deps: Arc<[TileId]> = Arc::new([TileId(7)]);
        kb.push_gated(&mut ids, 0, 0, compute(1), Arc::clone(&deps));
        kb.push(&mut ids, 0, 1, compute(1));
        kb.push(&mut ids, 1, 0, compute(1));
        kb.finish(&mut prog, &mut ids, |_| {
            KernelSpec::new("coll", Vec::new()).gated().ordered()
        });
        assert_eq!(prog.tb_ready_deps.len(), 3);
        assert_eq!(&prog.tb_ready_deps[&TbId(0)][..], &[TileId(7)]);
        assert!(prog.tb_ready_deps[&TbId(1)].is_empty());
        assert!(prog.tb_ready_deps[&TbId(2)].is_empty());
        assert!(prog.kernels.iter().all(|k| !k.desc.tbs_auto_ready));
        assert!(prog.kernels.iter().all(|k| k.desc.ordered));
    }

    #[test]
    fn builder_keeps_shared_dependency_lists() {
        let mut ids = IdAlloc::new(4);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(4);
        let band: Arc<[TileId]> = Arc::new([TileId(1), TileId(2)]);
        for g in 0..4 {
            kb.push_gated(&mut ids, g, 0, compute(1), Arc::clone(&band));
        }
        kb.finish(&mut prog, &mut ids, |_| {
            KernelSpec::new("gemm", Vec::new()).gated()
        });
        assert_eq!(prog.tb_ready_deps.len(), 4);
        for deps in prog.tb_ready_deps.values() {
            assert!(Arc::ptr_eq(deps, &band), "no list is re-allocated");
        }
    }

    #[test]
    fn last_row_yields_each_gpus_latest_tb() {
        let mut ids = IdAlloc::new(3);
        let mut kb = KernelBuilder::new(3);
        for g in [0, 2, 0] {
            kb.push(&mut ids, g, 0, compute(1));
        }
        let row: Vec<(usize, TbId)> = kb.last_row().map(|(g, tb)| (g, tb.id)).collect();
        assert_eq!(row, vec![(0, TbId(2)), (2, TbId(1))]);
    }

    #[test]
    fn shard_owner_splits_bands_evenly() {
        let owners: Vec<u16> = (0..8).map(|mi| shard_owner(mi, 8, 4).0).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }
}
