//! GPU-driven ring collectives (the non-NVLS transport).
//!
//! These reproduce NCCL-style ring schedules as communication kernels:
//! chunks travel GPU-to-GPU through the switch (which only routes), with
//! per-chunk dependencies so chunks pipeline across ring steps. Used by
//! the CoCoNet / FuseLib / T3 / LADM baselines.

use cais_engine::{IdAlloc, PlannedKernel, Program, SystemConfig};
use gpu_sim::{KernelCost, KernelDesc, MemOp, MemOpKind, Phase, TbDesc};
use sim_core::{GpuId, KernelId, SimDuration, TileId};

/// Chunk-level input gating: `input[gpu][global_chunk]` lists the tiles
/// that must be present on `gpu` before it contributes that chunk.
pub type InputTiles = Vec<Vec<Vec<TileId>>>;

/// Result of lowering one collective.
#[derive(Debug, Clone)]
pub struct CollOutput {
    /// One kernel per GPU (sender + waiter TBs).
    pub kernel_ids: Vec<KernelId>,
    /// Per GPU: tiles that mark that GPU's share of the output complete.
    pub out_tiles: Vec<Vec<TileId>>,
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
fn copy_time(_cost: &KernelCost, _len: u64) -> SimDuration {
    SimDuration::from_ns(200)
}

/// Per-hop accumulate cost (elementwise add at HBM speed is trivially
/// fast relative to the link; keep a small fixed charge).
fn add_time(_cost: &KernelCost, _len: u64) -> SimDuration {
    SimDuration::from_ns(400)
}

fn deps_for(input: Option<&InputTiles>, gpu: usize, gidx: usize) -> Vec<TileId> {
    input
        .map(|i| i[gpu].get(gidx).cloned().unwrap_or_default())
        .unwrap_or_default()
}

struct KernelBuilder {
    tbs: Vec<Vec<TbDesc>>,
    order: Vec<u64>,
}

impl KernelBuilder {
    fn new(p: usize) -> KernelBuilder {
        KernelBuilder {
            tbs: (0..p).map(|_| Vec::new()).collect(),
            order: vec![0; p],
        }
    }

    fn push(
        &mut self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        gpu: usize,
        phases: Vec<Phase>,
        deps: Vec<TileId>,
    ) {
        let id = ids.tb();
        let order_key = self.order[gpu];
        self.order[gpu] += 1;
        self.tbs[gpu].push(TbDesc {
            id,
            order_key,
            group: None,
            pre_launch_sync: false,
            phases,
        });
        prog.tb_ready_deps.insert(id, deps);
    }

    fn finish(
        self,
        prog: &mut Program,
        ids: &mut IdAlloc,
        name: &str,
        after: &[KernelId],
    ) -> Vec<KernelId> {
        let mut kernel_ids = Vec::new();
        for (gpu, tbs) in self.tbs.into_iter().enumerate() {
            let kid = ids.kernel();
            kernel_ids.push(kid);
            let mut desc = KernelDesc::new(kid, format!("coll.{name}.g{gpu}"), tbs);
            desc.tbs_auto_ready = false;
            desc.ordered = true;
            prog.push(PlannedKernel {
                gpu: GpuId(gpu as u16),
                desc,
                after: after.to_vec(),
            });
        }
        kernel_ids
    }
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
    cost: &KernelCost,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut kb = KernelBuilder::new(p);
    let mut out_tiles: Vec<Vec<TileId>> = (0..p).map(|_| Vec::new()).collect();
    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());

    for (gidx, &(o, _off, len)) in chunks.iter().enumerate() {
        // Arrival tile at each holder other than the origin.
        let mut arrival: Vec<Option<TileId>> = vec![None; p];
        for (g, slot) in arrival.iter_mut().enumerate() {
            if g != o {
                let t = ids.tile();
                *slot = Some(t);
                out_tiles[g].push(t);
            }
        }
        for s in 0..p - 1 {
            let sender = (o + s) % p;
            let receiver = (o + s + 1) % p;
            let deps = if s == 0 {
                deps_for(input, o, gidx)
            } else {
                vec![arrival[sender].expect("non-origin holder has arrival tile")]
            };
            let addr = ids.addr(GpuId(receiver as u16), len);
            kb.push(
                prog,
                ids,
                sender,
                vec![
                    Phase::Compute(copy_time(cost, len)),
                    Phase::IssueMem {
                        ops: vec![MemOp {
                            kind: MemOpKind::RemoteWrite,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: arrival[receiver],
                        }],
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
                kb.push(
                    prog,
                    ids,
                    g,
                    vec![Phase::Compute(SimDuration::from_ns(100))],
                    vec![*t],
                );
            }
        }
        chunk_arrivals.push(arrival);
    }
    let kernel_ids = kb.finish(prog, ids, name, after);
    CollOutput {
        kernel_ids,
        out_tiles,
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
    cost: &KernelCost,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut kb = KernelBuilder::new(p);
    let mut out_tiles: Vec<Vec<TileId>> = (0..p).map(|_| Vec::new()).collect();
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
            let mut deps = deps_for(input, sender, gidx);
            if h > 0 {
                deps.push(arrival[sender].expect("mid-ring sender has arrival"));
            }
            let addr = ids.addr(GpuId(receiver as u16), len);
            kb.push(
                prog,
                ids,
                sender,
                vec![
                    Phase::Compute(add_time(cost, len)),
                    Phase::IssueMem {
                        ops: vec![MemOp {
                            kind: MemOpKind::RemoteWrite,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: Some(arr),
                        }],
                        wait: false,
                    },
                ],
                deps,
            );
        }
        // Final accumulation at the shard owner.
        let out = ids.tile();
        out_tiles[t].push(out);
        let mut deps = deps_for(input, t, gidx);
        deps.push(arrival[t].expect("owner receives the running partial"));
        kb.push(
            prog,
            ids,
            t,
            vec![Phase::Compute(add_time(cost, len)), Phase::SignalTile(out)],
            deps,
        );
        let mut arr: Vec<Option<TileId>> = vec![None; p];
        arr[t] = Some(out);
        chunk_arrivals.push(arr);
    }
    let kernel_ids = kb.finish(prog, ids, name, after);
    CollOutput {
        kernel_ids,
        out_tiles,
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
    cost: &KernelCost,
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
        cost,
        &format!("{name}.rs"),
        bytes_full,
        after,
        input,
    );
    // Gate AG injection of shard o's chunks on the RS output at GPU o.
    let mut ag_input: InputTiles = (0..p).map(|_| vec![Vec::new(); rs.chunks.len()]).collect();
    let mut per_shard_seen = vec![0usize; p];
    for (gidx, &(shard, _, _)) in rs.chunks.iter().enumerate() {
        let tile = rs.out_tiles[shard][per_shard_seen[shard]];
        per_shard_seen[shard] += 1;
        ag_input[shard][gidx] = vec![tile];
    }
    let ag = ring_all_gather(
        prog,
        ids,
        cfg,
        cost,
        &format!("{name}.ag"),
        bytes_full,
        after,
        Some(&ag_input),
    );
    let mut out_tiles = rs.out_tiles;
    for (g, tiles) in ag.out_tiles.into_iter().enumerate() {
        out_tiles[g].extend(tiles);
    }
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
        out_tiles,
        chunks: rs.chunks,
        chunk_arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cais_engine::SystemSim;
    use gpu_sim::GpuConfig;
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

    fn run_coll(
        build: impl Fn(&mut Program, &mut IdAlloc, &SystemConfig, &KernelCost) -> CollOutput,
        n: usize,
    ) -> (cais_engine::ExecReport, usize) {
        let c = cfg(n);
        let cost = KernelCost::new(&GpuConfig::h100_half());
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(n);
        let out = build(&mut prog, &mut ids, &c, &cost);
        let n_tiles: usize = out.out_tiles.iter().map(|v| v.len()).sum();
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
        let (report, tiles) = run_coll(
            |p, ids, c, cost| ring_all_gather(p, ids, c, cost, "ag", bytes, &[], None),
            n,
        );
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
        let (report, tiles) = run_coll(
            |p, ids, c, cost| ring_reduce_scatter(p, ids, c, cost, "rs", bytes, &[], None),
            n,
        );
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
        let (report, _) = run_coll(
            |p, ids, c, cost| ring_all_reduce(p, ids, c, cost, "ar", bytes, &[], None),
            n,
        );
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
