//! GPU-driven ring collectives (the non-NVLS transport).
//!
//! These reproduce NCCL-style ring schedules as communication kernels:
//! chunks travel GPU-to-GPU through the switch (which only routes), with
//! per-chunk dependencies so chunks pipeline across ring steps. Used by
//! the CoCoNet / FuseLib / T3 / LADM baselines.

use cais_engine::{IdAlloc, KernelBuilder, KernelSpec, Program, SystemConfig};
use gpu_sim::{MemOp, MemOpKind, Phase};
use sim_core::{GpuId, KernelId, SimDuration, TileId};
use std::sync::Arc;

/// Chunk-level input gating: `input[gpu][global_chunk]` lists the tiles
/// that must be present on `gpu` before it contributes that chunk.
pub type InputTiles = Vec<Vec<Vec<TileId>>>;

/// The signature every ring and NVLS collective lowering shares:
/// `(prog, ids, cfg, name, bytes_full, after, input)`. `after` adds
/// kernel-level launch dependencies; `input` gates each GPU's
/// contribution of each chunk (chunk-level producer overlap).
pub type Collective = fn(
    &mut Program,
    &mut IdAlloc,
    &SystemConfig,
    &str,
    u64,
    &[KernelId],
    Option<&InputTiles>,
) -> CollOutput;

/// Result of lowering one collective.
#[derive(Debug, Clone)]
pub struct CollOutput {
    /// One kernel per GPU (sender + waiter TBs).
    pub kernel_ids: Vec<KernelId>,
    /// Chunk geometry used: `(shard, offset_in_shard, len)` per global
    /// chunk, shared with producers that want chunk-level overlap.
    pub chunks: Vec<(usize, u64, u64)>,
    /// Per chunk and GPU: the tile marking that chunk's output present on
    /// that GPU (`None` where the data is local from the start or the GPU
    /// never receives it, e.g. non-owners in a ReduceScatter).
    pub chunk_arrivals: Vec<Vec<Option<TileId>>>,
}

/// Splits `bytes_full` into per-GPU shards, then into chunks of at most
/// `chunk` bytes. Returns `(shard, offset, len)` per global chunk index.
pub fn global_chunks(bytes_full: u64, p: usize, chunk: u64) -> Vec<(usize, u64, u64)> {
    assert!(p >= 1 && chunk > 0);
    let base = bytes_full / p as u64;
    let rem = bytes_full % p as u64;
    let mut out = Vec::new();
    for shard in 0..p {
        let len = base + if (shard as u64) < rem { 1 } else { 0 };
        for (off, l) in cais_engine::lower::chunk_ranges(len, chunk) {
            out.push((shard, off, l));
        }
    }
    out
}

/// Per-hop copy cost for a comm TB. The wire serialization already
/// accounts for moving the bytes; this only models kernel-side staging,
/// so it is a small fixed cost (NCCL-style persistent-kernel step).
const COPY_TIME: SimDuration = SimDuration::from_ns(200);

/// Per-hop accumulate cost (elementwise add at HBM speed is trivially
/// fast relative to the link; keep a small fixed charge).
const ADD_TIME: SimDuration = SimDuration::from_ns(400);

/// The tiles gating `gpu`'s contribution of chunk `gidx`.
pub(crate) fn input_deps(input: Option<&InputTiles>, gpu: usize, gidx: usize) -> &[TileId] {
    input
        .and_then(|i| i[gpu].get(gidx))
        .map_or(&[], Vec::as_slice)
}

/// Appends a step to `gpu`'s persistent communication kernel: steps run
/// in push order.
pub(crate) fn push_step(
    kb: &mut KernelBuilder,
    gpu: usize,
    phases: Vec<Phase>,
    deps: Arc<[TileId]>,
) {
    let key = kb.next_key(gpu);
    kb.push_gated(gpu, key, phases, deps);
}

/// Emits the per-GPU communication kernels `coll.{name}.g{gpu}`.
pub(crate) fn finish_coll(
    kb: KernelBuilder,
    prog: &mut Program,
    ids: &mut IdAlloc,
    name: &str,
    after: &[KernelId],
) -> Vec<KernelId> {
    kb.finish(prog, ids, |g| {
        KernelSpec::new(format!("coll.{name}.g{g}"), after.to_vec()).ordered()
    })
}

/// Lowers a ring AllGather of a `bytes_full` tensor.
///
/// Each GPU `o` owns shard `o`; after `p - 1` ring steps every GPU holds
/// every shard. `input[o][gidx]` gates the injection of shard `o`'s
/// chunks (chunk-level producer overlap); `after` adds kernel-level
/// launch dependencies.
pub fn ring_all_gather(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut kb = KernelBuilder::new(p);
    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());

    for (gidx, &(o, _off, len)) in chunks.iter().enumerate() {
        // Arrival tile at each holder other than the origin.
        let arrival: Vec<Option<TileId>> = (0..p).map(|g| (g != o).then(|| ids.tile())).collect();
        for s in 0..p - 1 {
            let sender = (o + s) % p;
            let receiver = (o + s + 1) % p;
            let deps: Arc<[TileId]> = if s == 0 {
                input_deps(input, o, gidx).into()
            } else {
                Arc::new([arrival[sender].expect("non-origin holder has arrival tile")])
            };
            let addr = ids.addr(GpuId(receiver as u16), len);
            push_step(
                &mut kb,
                sender,
                vec![
                    Phase::Compute(COPY_TIME),
                    Phase::IssueMem {
                        ops: Arc::new([MemOp {
                            kind: MemOpKind::RemoteWrite,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: arrival[receiver],
                        }]),
                        wait: false,
                    },
                ],
                deps,
            );
        }
        // Waiter TBs: kernel completion on each GPU means its gathered
        // data actually arrived, not merely that its sends were issued.
        for (g, t) in arrival.iter().enumerate() {
            if let Some(t) = t {
                push_step(
                    &mut kb,
                    g,
                    vec![Phase::Compute(SimDuration::from_ns(100))],
                    Arc::new([*t]),
                );
            }
        }
        chunk_arrivals.push(arrival);
    }
    CollOutput {
        kernel_ids: finish_coll(kb, prog, ids, name, after),
        chunks,
        chunk_arrivals,
    }
}

/// Lowers a ring ReduceScatter of a `bytes_full` tensor of partials.
///
/// Each GPU ends with the fully reduced shard of its own index.
/// `input[g][gidx]` gates GPU `g`'s local partial for the chunk.
pub fn ring_reduce_scatter(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut kb = KernelBuilder::new(p);
    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());

    for (gidx, &(t, _off, len)) in chunks.iter().enumerate() {
        // The running partial for shard `t` travels (t+1) -> (t+2) -> ...
        // -> t, accumulating one local partial per hop; GPU `t` folds in
        // its own partial last.
        let mut arrival: Vec<Option<TileId>> = vec![None; p];
        for h in 0..p - 1 {
            let sender = (t + 1 + h) % p;
            let receiver = (sender + 1) % p;
            let arr = ids.tile();
            arrival[receiver] = Some(arr);
            let carried = (h > 0).then(|| arrival[sender].expect("mid-ring sender has arrival"));
            let deps: Arc<[TileId]> = input_deps(input, sender, gidx)
                .iter()
                .copied()
                .chain(carried)
                .collect();
            let addr = ids.addr(GpuId(receiver as u16), len);
            push_step(
                &mut kb,
                sender,
                vec![
                    Phase::Compute(ADD_TIME),
                    Phase::IssueMem {
                        ops: Arc::new([MemOp {
                            kind: MemOpKind::RemoteWrite,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: Some(arr),
                        }]),
                        wait: false,
                    },
                ],
                deps,
            );
        }
        // Final accumulation at the shard owner.
        let out = ids.tile();
        let deps: Arc<[TileId]> = input_deps(input, t, gidx)
            .iter()
            .copied()
            .chain([arrival[t].expect("owner receives the running partial")])
            .collect();
        push_step(
            &mut kb,
            t,
            vec![Phase::Compute(ADD_TIME), Phase::SignalTile(out)],
            deps,
        );
        let mut arr: Vec<Option<TileId>> = vec![None; p];
        arr[t] = Some(out);
        chunk_arrivals.push(arr);
    }
    CollOutput {
        kernel_ids: finish_coll(kb, prog, ids, name, after),
        chunks,
        chunk_arrivals,
    }
}

/// Lowers a ring AllReduce as ReduceScatter followed by AllGather, with
/// the AllGather consuming RS output at chunk granularity.
pub fn ring_all_reduce(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let rs = ring_reduce_scatter(
        prog,
        ids,
        cfg,
        &format!("{name}.rs"),
        bytes_full,
        after,
        input,
    );
    // Gate AG injection of shard o's chunks on the RS output at GPU o.
    let mut ag_input: InputTiles = (0..p).map(|_| vec![Vec::new(); rs.chunks.len()]).collect();
    for (gidx, &(shard, _, _)) in rs.chunks.iter().enumerate() {
        let out = rs.chunk_arrivals[gidx][shard].expect("RS output lands at the shard owner");
        ag_input[shard][gidx] = vec![out];
    }
    let ag = ring_all_gather(
        prog,
        ids,
        cfg,
        &format!("{name}.ag"),
        bytes_full,
        after,
        Some(&ag_input),
    );
    let mut kernel_ids = rs.kernel_ids;
    kernel_ids.extend(ag.kernel_ids);
    // After AllReduce every GPU holds every chunk: the shard owner via
    // its RS output, the rest via AG arrival.
    let chunk_arrivals = rs
        .chunk_arrivals
        .iter()
        .zip(&ag.chunk_arrivals)
        .map(|(rsa, aga)| {
            rsa.iter()
                .zip(aga)
                .map(|(r, a)| r.or(*a))
                .collect::<Vec<_>>()
        })
        .collect();
    CollOutput {
        kernel_ids,
        chunks: rs.chunks,
        chunk_arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::SystemSim;
    use noc_sim::{Direction, PureRouter};

    fn cfg(n: usize) -> SystemConfig {
        let mut c = SystemConfig::dgx_h100();
        c.n_gpus = n;
        c.n_planes = 1;
        c.fabric = noc_sim::FabricConfig::default_for(n, 1);
        c.gpu.dispatch_jitter = SimDuration::ZERO;
        c.gpu.launch_skew = SimDuration::ZERO;
        c.gpu.compute_jitter = SimDuration::ZERO;
        c.coll_chunk_bytes = 64 * 1024;
        c
    }

    /// Runs one collective; also returns how many (chunk, GPU) outputs
    /// it materializes.
    fn run_coll(coll: Collective, bytes: u64, n: usize) -> (cais_engine::ExecReport, usize) {
        let c = cfg(n);
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(n);
        let out = coll(&mut prog, &mut ids, &c, "coll", bytes, &[], None);
        let n_tiles = out.chunk_arrivals.iter().flatten().flatten().count();
        (
            SystemSim::new(c, prog, PureRouter)
                .run()
                .expect("run completes"),
            n_tiles,
        )
    }

    #[test]
    fn global_chunks_cover_tensor() {
        let chunks = global_chunks(1_000_000, 8, 64 * 1024);
        let total: u64 = chunks.iter().map(|(_, _, l)| l).sum();
        assert_eq!(total, 1_000_000);
        // All 8 shards present.
        let shards: std::collections::HashSet<usize> = chunks.iter().map(|&(s, _, _)| s).collect();
        assert_eq!(shards.len(), 8);
    }

    #[test]
    fn all_gather_completes_and_moves_expected_bytes() {
        let n = 4;
        let bytes = 4 * 256 * 1024u64;
        let (report, tiles) = run_coll(ring_all_gather, bytes, n);
        // Each GPU receives p-1 shards, 4 chunks each (256KiB/64KiB).
        assert_eq!(tiles, n * (n - 1) * 4);
        // Ring AG payload: every chunk crosses p-1 up-links.
        let expect = bytes / n as u64 * (n as u64 - 1) * n as u64;
        let got = report.fabric.bytes_dir(Direction::Up);
        let ratio = got as f64 / expect as f64;
        assert!(
            (0.95..=1.10).contains(&ratio),
            "up bytes {got} vs expected {expect}"
        );
    }

    #[test]
    fn reduce_scatter_completes_with_own_shard_output() {
        let n = 4;
        let bytes = 4 * 300 * 1024u64;
        let (report, tiles) = run_coll(ring_reduce_scatter, bytes, n);
        // Each GPU ends with its own shard's chunks: 300KiB / 64KiB = 5.
        assert_eq!(tiles, n * 5);
        let expect = bytes / n as u64 * (n as u64 - 1) * n as u64;
        let got = report.fabric.bytes_dir(Direction::Up);
        let ratio = got as f64 / expect as f64;
        assert!(
            (0.95..=1.10).contains(&ratio),
            "up bytes {got} vs expected {expect}"
        );
    }

    #[test]
    fn all_reduce_moves_double_the_volume() {
        let n = 4;
        let bytes = 4 * 256 * 1024u64;
        let (report, _) = run_coll(ring_all_reduce, bytes, n);
        let expect = 2 * bytes / n as u64 * (n as u64 - 1) * n as u64;
        let got = report.fabric.bytes_dir(Direction::Up);
        let ratio = got as f64 / expect as f64;
        assert!(
            (0.95..=1.10).contains(&ratio),
            "up bytes {got} vs expected {expect}"
        );
    }

    #[test]
    fn chunked_pipelining_beats_tiny_chunks_in_step_count() {
        // Sanity: chunk geometry respects the configured chunk size.
        let chunks = global_chunks(8 * 1024 * 1024, 8, 512 * 1024);
        assert_eq!(chunks.len(), 8 * 2);
        for &(_, _, l) in &chunks {
            assert!(l <= 512 * 1024);
        }
    }
}
