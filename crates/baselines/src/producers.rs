//! Shared producer/consumer lowering helpers for the baselines.

use cais_engine::{lower::GemmLowering, IdAlloc, KernelBuilder, KernelSpec, Program};
use gpu_sim::Phase;
use sim_core::{KernelId, SimDuration, TileId};
use std::sync::Arc;

/// A GEMM kernel lowered with per-output-tile completion signals, so
/// chunk-overlapping collectives (CoCoNet/FuseLib) or per-tile triggers
/// (T3) can consume its output incrementally.
///
/// The returned `tiles[mi][ni]` ids are shared across GPUs: each GPU's
/// own TB marks the tile present on that GPU.
pub struct TiledGemm {
    /// Kernel ids, one per GPU.
    pub kernel_ids: Vec<KernelId>,
    /// Output tile signals `[m_band][n_band]`.
    pub tiles: Vec<Vec<TileId>>,
}

/// Options for [`lower_tiled_gemm`].
pub struct TiledGemmOpts<'a> {
    /// Kernel display name.
    pub name: &'a str,
    /// Per-GPU GEMM dims.
    pub m: u64,
    /// Output columns.
    pub n: u64,
    /// Contraction dim.
    pub k: u64,
    /// Launch dependencies (same for every GPU).
    pub after: Vec<KernelId>,
    /// Skip launch overhead (FuseLib-style megakernel member).
    pub fused_launch: bool,
}

/// Lowers a GEMM into one kernel per GPU with tile signals.
pub fn lower_tiled_gemm(
    prog: &mut Program,
    ids: &mut IdAlloc,
    low: &GemmLowering,
    n_gpus: usize,
    opts: TiledGemmOpts<'_>,
) -> TiledGemm {
    let tile = low.tiling.tile;
    let n_mb = opts.m.div_ceil(tile);
    let n_nb = opts.n.div_ceil(tile);
    let tiles: Vec<Vec<TileId>> = (0..n_mb)
        .map(|_| (0..n_nb).map(|_| ids.tile()).collect())
        .collect();
    let mut kb = KernelBuilder::new(n_gpus);
    for g in 0..n_gpus {
        for mi in 0..n_mb {
            let m_len = tile.min(opts.m - mi * tile);
            for ni in 0..n_nb {
                let n_len = tile.min(opts.n - ni * tile);
                let phases = vec![
                    Phase::Compute(low.gemm_tb_time(m_len, n_len, opts.k)),
                    Phase::SignalTile(tiles[mi as usize][ni as usize]),
                ];
                kb.push(ids, g, mi * n_nb + ni, phases);
            }
        }
    }
    let name: Arc<str> = opts.name.into();
    let kernel_ids = kb.finish(prog, ids, |_| KernelSpec {
        fused_launch: opts.fused_launch,
        ..KernelSpec::new(Arc::clone(&name), opts.after.clone())
    });
    TiledGemm { kernel_ids, tiles }
}

/// Maps a collective chunk (`shard`, byte offset, byte len over a
/// row-major `[rows, cols]` tensor sharded by rows) to the producer
/// bands whose tiles must be present before the chunk may be injected.
// The parameters are the tensor/chunk geometry, spelled out — a struct
// would only rename them.
#[allow(clippy::too_many_arguments)]
pub fn bands_for_chunk(
    rows: u64,
    cols: u64,
    elem: u64,
    p: u64,
    tile: u64,
    shard: usize,
    off: u64,
    len: u64,
) -> std::ops::Range<u64> {
    let row_bytes = cols * elem;
    let shard_row0 = shard as u64 * rows / p;
    let start_row = shard_row0 + off / row_bytes;
    let end_row = shard_row0 + (off + len).div_ceil(row_bytes);
    let n_mb = rows.div_ceil(tile);
    (start_row / tile)..(end_row.div_ceil(tile)).min(n_mb)
}

/// Builds `input[gpu][global_chunk]` gating from producer tile signals.
pub fn chunk_input_tiles(
    chunks: &[(usize, u64, u64)],
    tiles: &[Vec<TileId>],
    rows: u64,
    cols: u64,
    elem: u64,
    p: usize,
    tile: u64,
) -> Vec<Vec<Vec<TileId>>> {
    let per_chunk: Vec<Vec<TileId>> = chunks
        .iter()
        .map(|&(shard, off, len)| {
            let bands = bands_for_chunk(rows, cols, elem, p as u64, tile, shard, off, len);
            bands
                .flat_map(|mi| tiles[mi as usize].iter().copied())
                .collect()
        })
        .collect();
    (0..p).map(|_| per_chunk.clone()).collect()
}

/// A "consumer GEMM" whose row bands are gated on gather-output tiles
/// (`gates[gpu][mi]` — tile presence is tracked per GPU, so each GPU
/// gates on the tiles that materialize locally), used by T3's AG-GEMM
/// overlap; pass empty `gates` for an ungated grid.
#[allow(clippy::too_many_arguments)]
pub fn lower_gated_gemm(
    prog: &mut Program,
    ids: &mut IdAlloc,
    low: &GemmLowering,
    n_gpus: usize,
    name: &str,
    m: u64,
    n: u64,
    k: u64,
    after: Vec<KernelId>,
    gates: &[Vec<Vec<TileId>>],
) -> Vec<KernelId> {
    let tile = low.tiling.tile;
    let n_mb = m.div_ceil(tile);
    let n_nb = n.div_ceil(tile);
    let mut kb = KernelBuilder::new(n_gpus);
    for g in 0..n_gpus {
        for mi in 0..n_mb {
            let m_len = tile.min(m - mi * tile);
            // Every TB of the band waits on the same tiles.
            let band_gate: Option<Arc<[TileId]>> =
                (!gates.is_empty()).then(|| gates[g][mi as usize][..].into());
            for ni in 0..n_nb {
                let n_len = tile.min(n - ni * tile);
                let phases = vec![Phase::Compute(low.gemm_tb_time(m_len, n_len, k))];
                let key = mi * n_nb + ni;
                match &band_gate {
                    Some(gate) => kb.push_gated(ids, g, key, phases, Arc::clone(gate)),
                    None => kb.push(ids, g, key, phases),
                }
            }
        }
    }
    let name: Arc<str> = name.into();
    kb.finish(prog, ids, |_| KernelSpec {
        tbs_auto_ready: gates.is_empty(),
        ..KernelSpec::new(Arc::clone(&name), after.clone())
    })
}

/// Small waiter kernel per GPU gated on `gates[g]` — gives barriered
/// baselines a kernel whose completion means "this GPU's share of the
/// data arrived".
pub fn waiter_kernels(
    prog: &mut Program,
    ids: &mut IdAlloc,
    name: &str,
    gates: &[Vec<TileId>],
    after: Vec<KernelId>,
) -> Vec<KernelId> {
    let mut kb = KernelBuilder::new(gates.len());
    for (g, gate) in gates.iter().enumerate() {
        let wait = vec![Phase::Compute(SimDuration::from_ns(100))];
        kb.push_gated(ids, g, 0, wait, gate[..].into());
    }
    let name: Arc<str> = format!("{name}.wait").into();
    kb.finish(prog, ids, |_| {
        KernelSpec::new(Arc::clone(&name), after.clone())
            .gated()
            .fused()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::SystemConfig;
    use gpu_sim::KernelCost;

    fn low() -> GemmLowering {
        let cfg = SystemConfig::dgx_h100();
        GemmLowering::new(KernelCost::new(&cfg.gpu), 128, 2)
    }

    #[test]
    fn tiled_gemm_signals_every_tile() {
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(2);
        let g = lower_tiled_gemm(
            &mut prog,
            &mut ids,
            &low(),
            2,
            TiledGemmOpts {
                name: "gemm",
                m: 256,
                n: 384,
                k: 512,
                after: vec![],
                fused_launch: false,
            },
        );
        assert_eq!(g.tiles.len(), 2);
        assert_eq!(g.tiles[0].len(), 3);
        assert_eq!(prog.kernels.len(), 2);
        assert_eq!(prog.kernels[0].desc.tbs.len(), 6);
        assert!(prog.validate().is_ok());
    }

    #[test]
    fn bands_for_chunk_maps_rows() {
        // 1024 rows x 512 cols x 2B, p=4 => shard = 256 rows = 256KiB.
        // Chunk at shard 1, offset 0, 64KiB => rows 256..320 => bands 2..3
        // (tile=128).
        let r = bands_for_chunk(1024, 512, 2, 4, 128, 1, 0, 64 * 1024);
        assert_eq!(r, 2..3);
        // Chunk crossing a band boundary.
        let r = bands_for_chunk(1024, 512, 2, 4, 128, 0, 96 * 1024, 64 * 1024);
        // rows 96..160 => bands 0..2
        assert_eq!(r, 0..2);
    }

    #[test]
    fn chunk_input_tiles_cover_chunks() {
        let chunks = vec![(0usize, 0u64, 64 * 1024u64), (1, 0, 64 * 1024)];
        let tiles: Vec<Vec<TileId>> = (0..8).map(|i| vec![TileId(i)]).collect();
        let input = chunk_input_tiles(&chunks, &tiles, 1024, 512, 2, 4, 128);
        assert_eq!(input.len(), 4);
        assert_eq!(input[0].len(), 2);
        assert!(!input[0][0].is_empty());
    }

    #[test]
    fn gated_gemm_registers_ready_deps() {
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(2);
        let gates: Vec<Vec<Vec<TileId>>> = (0..2)
            .map(|g| (0..2).map(|i| vec![TileId(g * 2 + i)]).collect())
            .collect();
        let kids = lower_gated_gemm(
            &mut prog,
            &mut ids,
            &low(),
            2,
            "gemm",
            256,
            128,
            128,
            vec![],
            &gates,
        );
        assert_eq!(kids.len(), 2);
        assert!(!prog.kernels[0].desc.tbs_auto_ready);
        assert_eq!(prog.tb_ready_deps.len(), 2 * 2);
    }
}
