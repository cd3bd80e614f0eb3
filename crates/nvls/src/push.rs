//! NVLS collective kernels built on `multimem` operations.
//!
//! These are the paper's communication-centric baselines: each collective
//! is its own kernel; producers and consumers synchronize with it through
//! kernel-level (global) barriers, which is exactly the isolation CAIS
//! removes.

use crate::ring::{global_chunks, CollOutput, InputTiles};
use cais_engine::{IdAlloc, PlannedKernel, Program, SystemConfig};
use gpu_sim::{KernelCost, KernelDesc, MemOp, MemOpKind, Phase, TbDesc};
use sim_core::{GpuId, KernelId, SimDuration, TileId};

fn deps_for(input: Option<&InputTiles>, gpu: usize, gidx: usize) -> Vec<TileId> {
    input
        .map(|i| i[gpu].get(gidx).cloned().unwrap_or_default())
        .unwrap_or_default()
}

fn finish_kernels(
    prog: &mut Program,
    ids: &mut IdAlloc,
    name: &str,
    after: &[KernelId],
    tbs: Vec<Vec<TbDesc>>,
) -> Vec<KernelId> {
    let mut kernel_ids = Vec::new();
    for (gpu, tbs) in tbs.into_iter().enumerate() {
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

/// NVLS AllGather via `multimem.st` push multicast.
///
/// Each GPU pushes its shard once; the switch replicates to the other
/// `p - 1` GPUs. Upstream traffic per GPU is `shard`, downstream is
/// `(p-1)/p` of the tensor — the paper's Fig. 10(b) asymmetry.
pub fn nvls_all_gather(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    _cost: &KernelCost,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut tbs: Vec<Vec<TbDesc>> = (0..p).map(|_| Vec::new()).collect();
    let mut order = vec![0u64; p];
    let mut out_tiles: Vec<Vec<TileId>> = (0..p).map(|_| Vec::new()).collect();
    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());

    for (gidx, &(o, _off, len)) in chunks.iter().enumerate() {
        let tile = ids.tile();
        for t in out_tiles.iter_mut() {
            t.push(tile);
        }
        chunk_arrivals.push(vec![Some(tile); p]);
        let addr = ids.addr(GpuId(o as u16), len);
        // Pusher TB on the origin: read the chunk, push it once, publish
        // the local copy.
        let id = ids.tb();
        tbs[o].push(TbDesc {
            id,
            order_key: order[o],
            group: None,
            pre_launch_sync: false,
            phases: vec![
                Phase::Compute(SimDuration::from_ns(200)),
                Phase::IssueMem {
                    ops: vec![MemOp {
                        kind: MemOpKind::MulticastStore,
                        addr,
                        bytes: len,
                        cais: false,
                        tile: Some(tile),
                    }],
                    wait: false,
                },
                Phase::SignalTile(tile),
            ],
        });
        order[o] += 1;
        prog.tb_ready_deps.insert(id, deps_for(input, o, gidx));
        // Waiter TBs on every other GPU so kernel completion means the
        // gathered data arrived there.
        for (g, ord) in order.iter_mut().enumerate() {
            if g != o {
                let wid = ids.tb();
                tbs[g].push(TbDesc {
                    id: wid,
                    order_key: *ord,
                    group: None,
                    pre_launch_sync: false,
                    phases: vec![Phase::Compute(SimDuration::from_ns(100))],
                });
                *ord += 1;
                prog.tb_ready_deps.insert(wid, vec![tile]);
            }
        }
    }
    let kernel_ids = finish_kernels(prog, ids, name, after, tbs);
    CollOutput {
        kernel_ids,
        out_tiles,
        chunks,
        chunk_arrivals,
    }
}

/// NVLS ReduceScatter via `multimem.ld_reduce` pull.
///
/// Each GPU pulls its own shard: the switch fetches the chunk from every
/// peer, reduces in flight and responds. Upstream per GPU is
/// `(p-1)/p` of the tensor, downstream is `shard` — Fig. 10(a).
pub fn nvls_reduce_scatter(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    _cost: &KernelCost,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    let chunks = global_chunks(bytes_full, p, cfg.coll_chunk_bytes);
    let mut tbs: Vec<Vec<TbDesc>> = (0..p).map(|_| Vec::new()).collect();
    let mut order = vec![0u64; p];
    let mut out_tiles: Vec<Vec<TileId>> = (0..p).map(|_| Vec::new()).collect();

    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());
    for (gidx, &(g, _off, len)) in chunks.iter().enumerate() {
        let tile = ids.tile();
        out_tiles[g].push(tile);
        let mut arr: Vec<Option<TileId>> = vec![None; p];
        arr[g] = Some(tile);
        chunk_arrivals.push(arr);
        let addr = ids.addr(GpuId(g as u16), len);
        let id = ids.tb();
        tbs[g].push(TbDesc {
            id,
            order_key: order[g],
            group: None,
            pre_launch_sync: false,
            phases: vec![
                // Pull the reduced remote partials, then fold in the local
                // partial.
                Phase::IssueMem {
                    ops: vec![MemOp {
                        kind: MemOpKind::LoadReduce,
                        addr,
                        bytes: len,
                        cais: false,
                        tile: Some(tile),
                    }],
                    wait: true,
                },
                Phase::Compute(SimDuration::from_ns(400)),
            ],
        });
        order[g] += 1;
        prog.tb_ready_deps.insert(id, deps_for(input, g, gidx));
    }
    let kernel_ids = finish_kernels(prog, ids, name, after, tbs);
    CollOutput {
        kernel_ids,
        out_tiles,
        chunks,
        chunk_arrivals,
    }
}

/// NVLS AllReduce via `multimem.red` push reduction.
///
/// Every GPU pushes its full partial once; the switch reduces and
/// multicasts the sum back to all GPUs. Per-GPU traffic is `size` in each
/// direction — about half of a ring AllReduce.
pub fn nvls_all_reduce(
    prog: &mut Program,
    ids: &mut IdAlloc,
    cfg: &SystemConfig,
    _cost: &KernelCost,
    name: &str,
    bytes_full: u64,
    after: &[KernelId],
    input: Option<&InputTiles>,
) -> CollOutput {
    let p = cfg.n_gpus;
    // For AllReduce the whole tensor is pushed by everyone; chunk the full
    // tensor rather than shards (shard layout is irrelevant here).
    let chunks: Vec<(usize, u64, u64)> =
        cais_engine::lower::chunk_ranges(bytes_full, cfg.coll_chunk_bytes)
            .into_iter()
            .map(|(off, len)| (0usize, off, len))
            .collect();
    let mut tbs: Vec<Vec<TbDesc>> = (0..p).map(|_| Vec::new()).collect();
    let mut order = vec![0u64; p];
    let mut out_tiles: Vec<Vec<TileId>> = (0..p).map(|_| Vec::new()).collect();

    let mut chunk_arrivals: Vec<Vec<Option<TileId>>> = Vec::with_capacity(chunks.len());
    for (gidx, &(_, _off, len)) in chunks.iter().enumerate() {
        let tile = ids.tile();
        for t in out_tiles.iter_mut() {
            t.push(tile);
        }
        chunk_arrivals.push(vec![Some(tile); p]);
        // A multimem address: contributions from all GPUs converge on it.
        let addr = ids.addr(GpuId((gidx % p) as u16), len);
        for g in 0..p {
            // Push TB: contribute the local partial (fire-and-forget).
            let id = ids.tb();
            tbs[g].push(TbDesc {
                id,
                order_key: order[g],
                group: None,
                pre_launch_sync: false,
                phases: vec![
                    Phase::Compute(SimDuration::from_ns(200)),
                    Phase::IssueMem {
                        ops: vec![MemOp {
                            kind: MemOpKind::RemoteReduce,
                            addr,
                            bytes: len,
                            cais: false,
                            tile: Some(tile),
                        }],
                        wait: false,
                    },
                ],
            });
            order[g] += 1;
            prog.tb_ready_deps.insert(id, deps_for(input, g, gidx));
            // Waiter TB: the reduced result has landed on this GPU.
            let wid = ids.tb();
            tbs[g].push(TbDesc {
                id: wid,
                order_key: order[g],
                group: None,
                pre_launch_sync: false,
                phases: vec![Phase::Compute(SimDuration::from_ns(100))],
            });
            order[g] += 1;
            prog.tb_ready_deps.insert(wid, vec![tile]);
        }
    }
    let kernel_ids = finish_kernels(prog, ids, name, after, tbs);
    CollOutput {
        kernel_ids,
        out_tiles,
        chunks,
        chunk_arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::NvlsLogic;
    use cais_engine::{ExecReport, SystemSim};
    use gpu_sim::GpuConfig;
    use noc_sim::Direction;

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
    ) -> ExecReport {
        let c = cfg(n);
        let cost = KernelCost::new(&GpuConfig::h100_half());
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(n);
        build(&mut prog, &mut ids, &c, &cost);
        SystemSim::new(c, prog, NvlsLogic::new(n))
            .run()
            .expect("run completes")
    }

    #[test]
    fn nvls_ag_pushes_each_shard_once() {
        let n = 4;
        let bytes = 4 * 256 * 1024u64;
        let report = run_coll(
            |p, ids, c, cost| nvls_all_gather(p, ids, c, cost, "ag", bytes, &[], None),
            n,
        );
        // Upstream: each shard crosses its origin's up-link exactly once.
        let up = report.fabric.bytes_dir(Direction::Up);
        let down = report.fabric.bytes_dir(Direction::Down);
        let ratio_up = up as f64 / bytes as f64;
        assert!((0.95..=1.10).contains(&ratio_up), "up {up} vs {bytes}");
        // Downstream: every GPU receives the other p-1 shards.
        let expect_down = bytes / n as u64 * (n as u64 - 1) * n as u64;
        let ratio_down = down as f64 / expect_down as f64;
        assert!(
            (0.95..=1.10).contains(&ratio_down),
            "down {down} vs {expect_down}"
        );
    }

    #[test]
    fn nvls_rs_is_upstream_heavy() {
        let n = 4;
        let bytes = 4 * 256 * 1024u64;
        let report = run_coll(
            |p, ids, c, cost| nvls_reduce_scatter(p, ids, c, cost, "rs", bytes, &[], None),
            n,
        );
        let up = report.fabric.bytes_dir(Direction::Up);
        let down = report.fabric.bytes_dir(Direction::Down);
        // Up: (p-1) fetched contributions per shard; down: the reduced
        // shard (plus small fetch-request headers).
        assert!(
            up as f64 > 2.5 * down as f64,
            "expected asymmetric traffic, up {up} down {down}"
        );
    }

    #[test]
    fn nvls_ar_halves_ring_traffic() {
        let n = 4;
        let bytes = 4 * 256 * 1024u64;
        let report = run_coll(
            |p, ids, c, cost| nvls_all_reduce(p, ids, c, cost, "ar", bytes, &[], None),
            n,
        );
        let up = report.fabric.bytes_dir(Direction::Up);
        // Each GPU pushes the full tensor once: total up = p * bytes.
        let expect = bytes * n as u64;
        let ratio = up as f64 / expect as f64;
        assert!((0.95..=1.10).contains(&ratio), "up {up} vs {expect}");
        // Ring AR would cost 2 * (p-1)/p * bytes per GPU in each
        // direction; NVLS is ~1.5x cheaper at p=4 and approaches 2x for
        // large p.
    }

    #[test]
    fn nvls_ar_is_faster_than_ring_ar() {
        let n = 4;
        let bytes = 16 * 1024 * 1024u64;
        let nvls = run_coll(
            |p, ids, c, cost| nvls_all_reduce(p, ids, c, cost, "ar", bytes, &[], None),
            n,
        );
        let c = cfg(n);
        let cost = KernelCost::new(&GpuConfig::h100_half());
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(n);
        crate::ring::ring_all_reduce(&mut prog, &mut ids, &c, &cost, "ar", bytes, &[], None);
        let ring = SystemSim::new(c, prog, noc_sim::PureRouter)
            .run()
            .expect("run completes");
        let speedup = ring.total.as_secs_f64() / nvls.total.as_secs_f64();
        assert!(
            speedup > 1.2,
            "NVLS AR should clearly beat ring AR, got {speedup:.2}x"
        );
    }
}
