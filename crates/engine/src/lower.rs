//! Shared lowering helpers: tiling math and simple kernel builders.
//!
//! Execution strategies lower [`Dfg`](llm_workload::Dfg) nodes into
//! [`KernelDesc`]s. The per-strategy structure (which TBs issue which
//! remote operations, how kernels chain) lives in the strategy crates;
//! the tile geometry and roofline arithmetic shared by all of them live
//! here.

use crate::config::SystemConfig;
use crate::ids::IdAlloc;
use crate::program::{PlannedKernel, Program};
use gpu_sim::{KernelCost, KernelDesc, TbDesc};
use llm_workload::{Node, NodeKind};
use sim_core::{GpuId, KernelId, SimDuration};

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
    /// `after(g)`. Ids are allocated GPU by GPU: the kernel id, then its
    /// TB ids. Returns the kernel ids in GPU order.
    pub fn plain_stage(
        &self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        cfg: &SystemConfig,
        node: &Node,
        mut after: impl FnMut(usize) -> Vec<KernelId>,
    ) -> Vec<KernelId> {
        (0..cfg.n_gpus)
            .map(|g| {
                let kid = ids.kernel();
                let desc =
                    self.plain_compute_kernel(ids, kid, &node.name, &node.kind, cfg.gpu.sm_count);
                prog.push(PlannedKernel {
                    gpu: GpuId(g as u16),
                    desc,
                    after: after(g),
                })
            })
            .collect()
    }

    /// Lowers a communication-free compute node into one kernel: a grid
    /// of pure-compute TBs sized by the node kind.
    pub fn plain_compute_kernel(
        &self,
        ids: &mut IdAlloc,
        kid: KernelId,
        name: &str,
        kind: &NodeKind,
        sm_count: usize,
    ) -> KernelDesc {
        let mut tbs = Vec::new();
        let mut order = 0u64;
        match kind {
            NodeKind::Gemm { m, n, k } => {
                for (_, ml) in self.tiling.ranges(*m) {
                    for (_, nl) in self.tiling.ranges(*n) {
                        tbs.push(TbDesc::compute_only(
                            ids.tb(),
                            order,
                            self.gemm_tb_time(ml, nl, *k),
                        ));
                        order += 1;
                    }
                }
            }
            NodeKind::AttentionCore { flops, bytes } => {
                // Spread across the device: one TB per SM.
                let n = sm_count as u64;
                let t = self
                    .cost
                    .tb_time(*flops / n as f64, *bytes as f64 / n as f64);
                for _ in 0..n {
                    tbs.push(TbDesc::compute_only(ids.tb(), order, t));
                    order += 1;
                }
            }
            NodeKind::LayerNorm { rows, cols } => {
                for (_, rl) in self.tiling.ranges(*rows) {
                    tbs.push(TbDesc::compute_only(
                        ids.tb(),
                        order,
                        self.cost.elementwise(rl * cols, self.elem, 8.0),
                    ));
                    order += 1;
                }
            }
            NodeKind::Elementwise {
                rows,
                cols,
                flops_per_elem,
            } => {
                for (_, rl) in self.tiling.ranges(*rows) {
                    tbs.push(TbDesc::compute_only(
                        ids.tb(),
                        order,
                        self.cost.elementwise(rl * cols, self.elem, *flops_per_elem),
                    ));
                    order += 1;
                }
            }
            NodeKind::Collective { .. } => {
                panic!("collective nodes are lowered by strategy-specific code")
            }
        }
        KernelDesc::new(kid, name, tbs)
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
        let mut ids = IdAlloc::new(1);
        let l = lowering();
        let kid = ids.kernel();
        let k = l.plain_compute_kernel(
            &mut ids,
            kid,
            "gemm",
            &NodeKind::Gemm {
                m: 512,
                n: 256,
                k: 1024,
            },
            66,
        );
        assert_eq!(k.tbs.len(), 4 * 2);
        assert!(k.total_compute() > SimDuration::ZERO);
    }

    #[test]
    fn layernorm_kernel_rows() {
        let mut ids = IdAlloc::new(1);
        let l = lowering();
        let kid = ids.kernel();
        let k = l.plain_compute_kernel(
            &mut ids,
            kid,
            "ln",
            &NodeKind::LayerNorm {
                rows: 1152,
                cols: 4096,
            },
            66,
        );
        assert_eq!(k.tbs.len(), 9);
    }

    #[test]
    #[should_panic(expected = "collective nodes")]
    fn collective_nodes_rejected() {
        let mut ids = IdAlloc::new(1);
        let l = lowering();
        let kid = ids.kernel();
        let _ = l.plain_compute_kernel(
            &mut ids,
            kid,
            "oops",
            &NodeKind::Collective {
                kind: llm_workload::CollKind::AllReduce,
                rows: 1,
                cols: 1,
            },
            66,
        );
    }
}
