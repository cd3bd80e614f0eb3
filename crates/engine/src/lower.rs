//! Shared lowering primitives: tiling math, the plain compute stage and
//! the kernel builder.
//!
//! Execution strategies lower [`Dfg`](llm_workload::Dfg) nodes into
//! [`KernelDesc`]s. The per-strategy schedule (which TBs issue which
//! remote operations, how kernels chain) lives in the strategy crates;
//! the tile geometry, roofline arithmetic and kernel assembly
//! ([`KernelBuilder`]) shared by all of them live here.

use crate::config::SystemConfig;
use crate::ids::IdAlloc;
use crate::program::{PlannedKernel, Program};
use gpu_sim::{KernelBody, KernelCost, KernelDesc, Phase, TbBody};
use llm_workload::{Node, NodeKind};
use sim_core::{GpuId, KernelId, SimDuration, TileId};
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
        // One phase list per TB position, shared by every GPU.
        let rows: Vec<Arc<[Phase]>> = self
            .plain_tb_times(&node.kind, cfg.gpu.sm_count)
            .into_iter()
            .map(|t| Arc::from([Phase::Compute(t)]))
            .collect();
        let mut kb = KernelBuilder::new(cfg.n_gpus);
        for g in 0..cfg.n_gpus {
            for (key, phases) in rows.iter().enumerate() {
                kb.push(g, key as u64, Arc::clone(phases));
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
/// [`KernelBuilder`] emits (see the same-named [`KernelBody`] and
/// [`PlannedKernel`] fields).
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Kernel name.
    pub name: Arc<str>,
    /// Kernels that must complete before launch.
    pub after: Vec<KernelId>,
    /// No host launch overhead.
    pub fused_launch: bool,
    /// Persistent-kernel dispatch in `order_key` order.
    pub ordered: bool,
}

impl KernelSpec {
    /// A separately launched, unordered kernel.
    pub fn new(name: impl Into<Arc<str>>, after: Vec<KernelId>) -> KernelSpec {
        KernelSpec {
            name: name.into(),
            after,
            fused_launch: false,
            ordered: false,
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
/// [`finish`](Self::finish) allocates ids GPU by GPU and appends the
/// kernels to the program in GPU order: each kernel gets a kernel id and
/// one contiguous range of TB ids, its TBs in push order.
///
/// Tensor parallelism is SPMD, so the builder shares by construction:
/// hand it one `Arc<[Phase]>` per row of corresponding TBs and every GPU
/// keeps that one list, and `finish` gives GPUs whose kernels differ
/// only in ids and dependency lists one [`KernelBody`].
#[derive(Debug)]
pub struct KernelBuilder {
    /// Per GPU: the TB bodies, in push order.
    tbs: Vec<Vec<TbBody>>,
    /// Per GPU: the dependency lists, parallel to `tbs` up to the last
    /// TB pushed by [`push_gated`](Self::push_gated); empty while the
    /// GPU has none. An ungated TB's list is empty (`Arc::default`,
    /// which allocates nothing).
    deps: Vec<Vec<Arc<[TileId]>>>,
}

impl KernelBuilder {
    /// An empty builder for `n_gpus` GPUs.
    pub fn new(n_gpus: usize) -> KernelBuilder {
        KernelBuilder {
            tbs: vec![Vec::new(); n_gpus],
            deps: vec![Vec::new(); n_gpus],
        }
    }

    /// Appends a TB running `phases` to `gpu`'s kernel. Pass a clone of
    /// one `Arc` for corresponding TBs on several GPUs.
    pub fn push(&mut self, gpu: usize, order_key: u64, phases: impl Into<Arc<[Phase]>>) {
        self.tbs[gpu].push(TbBody::new(order_key, phases));
    }

    /// Appends a TB that becomes dispatchable once every tile in `deps`
    /// is present on `gpu`. Hand the same `Arc` to TBs sharing a list.
    pub fn push_gated(
        &mut self,
        gpu: usize,
        order_key: u64,
        phases: impl Into<Arc<[Phase]>>,
        deps: Arc<[TileId]>,
    ) {
        let n = self.tbs[gpu].len();
        self.deps[gpu].resize_with(n, Arc::default);
        self.deps[gpu].push(deps);
        self.push(gpu, order_key, phases);
    }

    /// The number of TBs pushed to `gpu` so far: the order key of the
    /// next one when keys count a GPU's TBs.
    pub fn next_key(&self, gpu: usize) -> u64 {
        self.tbs[gpu].len() as u64
    }

    /// The last TB pushed to each GPU that has one, in GPU order: the
    /// row of corresponding TBs just pushed, for TB grouping.
    pub fn last_row(&mut self) -> impl Iterator<Item = (usize, &mut TbBody)> {
        self.tbs
            .iter_mut()
            .enumerate()
            .filter_map(|(g, tbs)| tbs.last_mut().map(|tb| (g, tb)))
    }

    /// Emits one kernel per GPU, described by `spec(gpu)`, each with its
    /// TBs' dependency lists: a kernel with a gated TB lists every TB,
    /// the others none. Returns the kernel ids in GPU order.
    ///
    /// A GPU whose spec and TBs match an earlier GPU's, TB ids and
    /// dependency lists aside, gets that GPU's body. TBs match by
    /// [`TbBody::same_as`]: phase lists compare by pointer, so finding a
    /// match costs no hashing and no allocation per TB.
    pub fn finish(
        self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        mut spec: impl FnMut(usize) -> KernelSpec,
    ) -> Vec<KernelId> {
        let mut bodies: Vec<Arc<KernelBody>> = Vec::new();
        self.tbs
            .into_iter()
            .zip(self.deps)
            .enumerate()
            .map(|(g, (tbs, mut deps))| {
                let s = spec(g);
                if !deps.is_empty() {
                    deps.resize_with(tbs.len(), Arc::default);
                }
                let first_tb = ids.tbs(tbs.len());
                let body = match bodies.iter().find(|b| s.describes(b, &tbs)) {
                    Some(body) => Arc::clone(body),
                    None => {
                        let body = Arc::new(KernelBody {
                            name: s.name,
                            fused_launch: s.fused_launch,
                            ordered: s.ordered,
                            tbs: tbs.into(),
                        });
                        bodies.push(Arc::clone(&body));
                        body
                    }
                };
                prog.push(PlannedKernel {
                    gpu: GpuId(g as u16),
                    desc: KernelDesc {
                        id: ids.kernel(),
                        body,
                        first_tb,
                        deps: deps.into(),
                    },
                    after: s.after,
                })
            })
            .collect()
    }
}

impl KernelSpec {
    /// Whether `body` is the kernel this spec and `tbs` describe.
    fn describes(&self, body: &KernelBody, tbs: &[TbBody]) -> bool {
        body.tbs.len() == tbs.len()
            && body.name == self.name
            && body.fused_launch == self.fused_launch
            && body.ordered == self.ordered
            && body.tbs.iter().zip(tbs).all(|(a, b)| a.same_as(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;
    use sim_core::TbId;

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
    fn builder_allocates_one_tb_range_per_kernel_and_kernel_ids_per_gpu_at_finish() {
        let mut ids = IdAlloc::new(2);
        let mut prog = Program::new();
        let _ = ids.kernel();
        let _ = ids.tbs(4);
        let mut kb = KernelBuilder::new(2);
        // Interleaved pushes: each kernel keeps its TBs in push order, and
        // ids follow GPU order, one range per kernel.
        kb.push(1, 0, compute(1));
        kb.push(0, 5, compute(1));
        kb.push(1, 1, compute(1));
        assert_eq!(kb.next_key(1), 2);
        let kids = kb.finish(&mut prog, &mut ids, |g| {
            KernelSpec::new(format!("k{g}"), vec![KernelId(0)]).fused()
        });
        assert_eq!(kids, vec![KernelId(1), KernelId(2)]);
        let tbs = |i: usize| -> Vec<(TbId, u64)> {
            let d = &prog.kernels[i].desc;
            d.tb_ids()
                .zip(d.body.tbs.iter())
                .map(|(id, tb)| (id, tb.order_key))
                .collect()
        };
        assert_eq!(prog.kernels[0].gpu, GpuId(0));
        assert_eq!(tbs(0), vec![(TbId(4), 5)]);
        assert_eq!(prog.kernels[1].gpu, GpuId(1));
        assert_eq!(prog.kernels[1].desc.first_tb, TbId(5));
        assert_eq!(tbs(1), vec![(TbId(5), 0), (TbId(6), 1)]);
        assert_eq!(ids.tbs(1), TbId(7), "the next kernel's range follows");
        let d = &prog.kernels[1].desc.body;
        assert_eq!(&*d.name, "k1");
        assert!(d.fused_launch && !d.ordered);
        assert_eq!(prog.kernels[1].after, vec![KernelId(0)]);
        assert!(
            prog.kernels.iter().all(|k| k.desc.deps.is_empty()),
            "ungated kernels list no dependencies"
        );
    }

    #[test]
    fn gated_kernel_gives_every_tb_a_ready_entry() {
        let mut ids = IdAlloc::new(2);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(2);
        kb.push(0, 0, compute(1));
        kb.push_gated(0, 1, compute(1), Arc::new([TileId(7)]));
        kb.push(0, 2, compute(1));
        kb.push(1, 0, compute(1));
        kb.finish(&mut prog, &mut ids, |_| {
            KernelSpec::new("coll", Vec::new()).ordered()
        });
        // Every TB of GPU 0's kernel has a list, beside its id; the TBs
        // pushed ungated, before and after the gated one, have an empty
        // one. GPU 1's kernel has no gated TB and lists nothing.
        let deps: Vec<Vec<TileId>> = prog.kernels[0]
            .desc
            .deps
            .iter()
            .map(|d| d.to_vec())
            .collect();
        assert_eq!(deps, [vec![], vec![TileId(7)], vec![]]);
        assert_eq!(
            prog.kernels[0].desc.tb_ids().collect::<Vec<_>>(),
            [TbId(0), TbId(1), TbId(2)]
        );
        assert!(prog.kernels[1].desc.deps.is_empty());
        assert!(prog.kernels.iter().all(|k| k.desc.body.ordered));
    }

    #[test]
    fn builder_keeps_shared_dependency_lists() {
        let mut ids = IdAlloc::new(4);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(4);
        let band: Arc<[TileId]> = Arc::new([TileId(1), TileId(2)]);
        for g in 0..4 {
            kb.push_gated(g, 0, compute(1), Arc::clone(&band));
        }
        kb.finish(&mut prog, &mut ids, |_| KernelSpec::new("gemm", Vec::new()));
        for k in &prog.kernels {
            assert_eq!(k.desc.deps.len(), 1);
            assert!(
                Arc::ptr_eq(&k.desc.deps[0], &band),
                "no list is re-allocated"
            );
        }
    }

    #[test]
    fn last_row_yields_each_gpus_latest_tb() {
        let mut kb = KernelBuilder::new(3);
        for (key, g) in [0, 2, 0].into_iter().enumerate() {
            kb.push(g, key as u64, compute(1));
        }
        let row: Vec<(usize, u64)> = kb.last_row().map(|(g, tb)| (g, tb.order_key)).collect();
        assert_eq!(row, vec![(0, 2), (2, 1)]);
    }

    #[test]
    fn a_shared_row_keeps_one_phase_list_and_one_body() {
        let n = 32;
        let mut ids = IdAlloc::new(n);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(n);
        let rows: Vec<Arc<[Phase]>> = (0..3).map(|i| compute(i + 1).into()).collect();
        for g in 0..n {
            for (key, phases) in rows.iter().enumerate() {
                kb.push(g, key as u64, Arc::clone(phases));
            }
        }
        let name: Arc<str> = "gemm".into();
        kb.finish(&mut prog, &mut ids, |_| {
            KernelSpec::new(Arc::clone(&name), Vec::new())
        });
        assert_eq!(prog.kernels.len(), n);
        assert_eq!(prog.total_tbs(), 3 * n);
        let body = &prog.kernels[0].desc.body;
        for k in &prog.kernels {
            assert!(Arc::ptr_eq(&k.desc.body, body), "one body for every GPU");
        }
        for (tb, row) in body.tbs.iter().zip(&rows) {
            assert!(Arc::ptr_eq(&tb.phases, row), "one phase list per row");
        }
        // Each GPU's kernel has a range of its own.
        assert_eq!(prog.kernels[1].desc.first_tb, TbId(3));
        prog.validate().expect("ids stay unique");
    }

    #[test]
    fn a_gpu_whose_tbs_differ_gets_its_own_body() {
        let mut ids = IdAlloc::new(4);
        let mut prog = Program::new();
        let mut kb = KernelBuilder::new(4);
        let shared: Arc<[Phase]> = compute(1).into();
        for g in 0..4 {
            kb.push(g, 0, Arc::clone(&shared));
            // GPU 2 runs different phases, GPU 3 a different key.
            match g {
                2 => kb.push(g, 1, compute(2)),
                3 => kb.push(g, 7, Arc::clone(&shared)),
                _ => kb.push(g, 1, Arc::clone(&shared)),
            }
        }
        // Equal content in separate allocations is not shared.
        kb.push(1, 2, compute(1));
        kb.push(0, 2, compute(1));
        kb.finish(&mut prog, &mut ids, |_| KernelSpec::new("k", Vec::new()));
        let body = |prog: &Program, g: usize| Arc::clone(&prog.kernels[g].desc.body);
        for (a, b) in [(0, 1), (0, 2), (0, 3), (2, 3), (1, 2)] {
            assert!(
                !Arc::ptr_eq(&body(&prog, a), &body(&prog, b)),
                "GPUs {a} and {b}"
            );
        }
        // Matching TBs but a different spec: a body of its own.
        let mut kb = KernelBuilder::new(2);
        for g in 0..2 {
            kb.push(g, 0, Arc::clone(&shared));
        }
        kb.finish(&mut prog, &mut ids, |g| {
            KernelSpec::new(format!("coll.g{g}"), Vec::new())
        });
        let (a, b) = (body(&prog, 4), body(&prog, 5));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a.tbs[0].phases, &b.tbs[0].phases));
    }

    #[test]
    fn shard_owner_splits_bands_evenly() {
        let owners: Vec<u16> = (0..8).map(|mi| shard_owner(mi, 8, 4).0).collect();
        assert_eq!(owners, vec![0, 0, 1, 1, 2, 2, 3, 3]);
    }
}
