//! The tile directory: which tiles each GPU holds, which TBs wait on
//! them, and the dispatch gates they open.

use crate::program::Program;
use gpu_sim::{GpuSim, KernelDesc, MemOp, MemOpKind};
use sim_core::{
    shrink_sparse, AuditProbe, DenseMap, DenseSet, FastHash, GpuId, SimTime, TbId, TileId, Waiters,
};
use std::collections::HashMap;
use std::ops::Range;

/// One GPU's view of one tile. Every GPU holds a slot per tile id it
/// touches, so the entry stays small: what is only needed while a tile is
/// awaited lives in [`TileDirectory::waiters`] or
/// [`TileDirectory::gate_index`].
#[derive(Debug, Default)]
struct TileEntry {
    contribs: u32,
    present: bool,
    fetching: bool,
    /// Whether [`TileDirectory::waiters`] holds TBs blocked on this tile,
    /// so a landing tile that nobody awaits skips the lookup.
    waited: bool,
    /// The ready gates this tile counts toward, as a range of
    /// [`TileDirectory::gate_index`]; a gate appears once per listing.
    gates: Range<u32>,
}

const _: () = assert!(std::mem::size_of::<Option<TileEntry>>() <= 16);

/// TBs of one GPU that wait on the same tile list before their kernel may
/// dispatch them share one counter: the list's length, decremented once
/// per listed tile as it lands.
#[derive(Debug)]
struct ReadyGate {
    remaining: u32,
    /// Ascending; emptied when the gate opens.
    tbs: Vec<TbId>,
}

/// Capacity the waiter table never shrinks below: entries come and go
/// with every awaited tile, and bursts below this size do not rehash it.
pub(crate) const MIN_TABLE_CAPACITY: usize = 1024;

/// Per-GPU tile state, the TBs blocked on tiles and loads, and the ready
/// gates of dependency-gated TBs. A call that can wake TBs acts on the
/// one GPU they are on.
#[derive(Debug)]
pub(crate) struct TileDirectory {
    tiles: Vec<DenseMap<TileId, TileEntry>>,
    gates: Vec<ReadyGate>,
    /// Gate ids grouped by (GPU, tile); [`TileEntry::gates`] indexes it.
    gate_index: Vec<u32>,
    /// TBs blocked until a tile lands, only for the (GPU, tile) pairs
    /// that have any; an entry goes when its tile lands, and the table
    /// shrinks after a burst instead of keeping its busiest capacity.
    waiters: HashMap<(GpuId, TileId), Waiters, FastHash>,
    /// Contributions a tile needs to land, where more than one.
    expected: DenseMap<TileId, u32>,
    /// Gated TBs whose gate opened (or that have no prerequisites) before
    /// their kernel launched.
    ready_pending: DenseSet<TbId>,
    /// Per blocked TB, the tiles and loads it still waits on.
    blocked: DenseMap<TbId, u32>,
    semantic_contribs: u64,
    deduped_fetches: u64,
}

impl TileDirectory {
    /// The directory of `program` on `n_gpus` GPUs: every tile absent,
    /// and one gate per (GPU, dependency list) of its gated TBs.
    ///
    /// # Panics
    ///
    /// Panics if a ready dependency names a TB of no kernel.
    pub(crate) fn new(n_gpus: usize, program: &Program) -> TileDirectory {
        let mut tiles: Vec<DenseMap<TileId, TileEntry>> =
            (0..n_gpus).map(|_| DenseMap::new()).collect();
        let n_tbs = program
            .kernels
            .iter()
            .flat_map(|k| k.desc.tb_ids.iter())
            .map(|tb| tb.index() + 1)
            .max()
            .unwrap_or(0);
        let mut ready_pending: DenseSet<TbId> = DenseSet::with_capacity(n_tbs);
        // Ascending TB order, so every gate's TB list is sorted.
        let mut ready_deps: Vec<(TbId, GpuId, &[TileId])> = program
            .kernels
            .iter()
            .flat_map(|k| {
                k.desc.tb_ids.iter().filter_map(|tb| {
                    let deps = program.tb_ready_deps.get(tb)?;
                    Some((*tb, k.gpu, &deps[..]))
                })
            })
            .collect();
        assert_eq!(
            ready_deps.len(),
            program.tb_ready_deps.len(),
            "ready dep for unknown TB"
        );
        ready_deps.sort_unstable_by_key(|&(tb, ..)| tb);
        let mut gates: Vec<ReadyGate> = Vec::new();
        let mut gate_of: HashMap<(GpuId, &[TileId]), u32, FastHash> = HashMap::default();
        // (GPU, tile, gate) once per listing of a tile in a gate's list.
        let mut members: Vec<(GpuId, TileId, u32)> = Vec::new();
        for (tb, gpu, dep_tiles) in ready_deps {
            if dep_tiles.is_empty() {
                // Dependency-gated kernel but this TB has no prerequisites:
                // it is ready the moment its kernel launches.
                ready_pending.insert(tb);
                continue;
            }
            // Keyed by content, not by `Arc` identity: equal lists from
            // separately built `Arc`s still share one gate.
            let gate = *gate_of.entry((gpu, dep_tiles)).or_insert_with(|| {
                let id = gates.len() as u32;
                gates.push(ReadyGate {
                    remaining: dep_tiles.len() as u32,
                    tbs: Vec::new(),
                });
                members.extend(dep_tiles.iter().map(|&tile| (gpu, tile, id)));
                id
            });
            gates[gate as usize].tbs.push(tb);
        }
        members.sort_unstable();
        let gate_index: Vec<u32> = members.iter().map(|&(_, _, gate)| gate).collect();
        let mut start = 0;
        for run in members.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (gpu, tile, _) = run[0];
            let end = start + run.len() as u32;
            tiles[gpu.index()].get_or_default(tile).gates = start..end;
            start = end;
        }
        let mut expected: DenseMap<TileId, u32> = DenseMap::new();
        for (&tile, &n) in &program.tile_expected {
            expected.insert(tile, n);
        }
        TileDirectory {
            tiles,
            gates,
            gate_index,
            waiters: HashMap::default(),
            expected,
            ready_pending,
            blocked: DenseMap::with_capacity(n_tbs),
            semantic_contribs: 0,
            deduped_fetches: 0,
        }
    }

    /// Launches `kernel` on `sim` at `now` and makes ready those of its
    /// TBs whose gates already opened.
    pub(crate) fn launch(&mut self, now: SimTime, sim: &mut GpuSim, kernel: KernelDesc) {
        let ready_now: Vec<TbId> = kernel
            .tb_ids
            .iter()
            .copied()
            .filter(|&tb| self.ready_pending.remove(tb))
            .collect();
        sim.launch_kernel(now, kernel);
        for tb in ready_now {
            sim.make_tb_ready(now, tb);
        }
    }

    /// Marks `tile` present on `gpu` (simulated by `sim`): resumes the
    /// TBs it was the last wait of and opens the gates it completes.
    pub(crate) fn land(&mut self, now: SimTime, gpu: GpuId, sim: &mut GpuSim, tile: TileId) {
        let entry = self.tiles[gpu.index()].get_or_default(tile);
        if entry.present {
            return;
        }
        entry.present = true;
        let waited = std::mem::take(&mut entry.waited);
        let gates = entry.gates.clone();
        if waited {
            let waiters = self.waiters.remove(&(gpu, tile)).unwrap_or_default();
            shrink_sparse(&mut self.waiters, MIN_TABLE_CAPACITY);
            for &tb in waiters.as_slice() {
                self.unblock(now, sim, tb);
            }
        }
        // A gate holds TBs of the GPU its tiles land on, and a gated TB
        // cannot retire before its gate opens: one that is not live has
        // not launched yet.
        for tb in self.open_gates(gates) {
            if !sim.make_tb_ready(now, tb) {
                self.ready_pending.insert(tb);
            }
        }
    }

    /// Counts one landing against each gate in `gates` (a range of
    /// [`TileDirectory::gate_index`]) and returns the TBs of every gate
    /// that reaches zero, in ascending `TbId` order.
    fn open_gates(&mut self, gates: Range<u32>) -> Vec<TbId> {
        let mut woken = Vec::new();
        for &g in &self.gate_index[gates.start as usize..gates.end as usize] {
            let gate = &mut self.gates[g as usize];
            gate.remaining -= 1;
            if gate.remaining == 0 {
                woken.append(&mut gate.tbs);
            }
        }
        woken.sort_unstable();
        woken
    }

    /// Counts `n` reduction contributions to `tile` on `gpu`; the tile
    /// lands with its last expected one.
    pub(crate) fn add_contrib(
        &mut self,
        now: SimTime,
        gpu: GpuId,
        sim: &mut GpuSim,
        tile: TileId,
        n: u32,
    ) {
        let expected = self.expected.get(tile).copied().unwrap_or(1);
        self.semantic_contribs += n as u64;
        let entry = self.tiles[gpu.index()].get_or_default(tile);
        entry.contribs += n;
        debug_assert!(
            entry.contribs <= expected,
            "tile {tile} on {gpu} got {} contributions, expected {expected}",
            entry.contribs
        );
        if entry.contribs >= expected {
            self.land(now, gpu, sim, tile);
        }
    }

    /// Applies to the tiles what `gpu`'s TB `tb` issuing `op` does: a
    /// local read or write lands its tile and a local `red.cais` counts
    /// its contribution; a remote tile load waits on the tile when
    /// `blocking`, and fetches it unless another TB of the GPU already
    /// does (the L2 captures the duplicate read). Returns `(send,
    /// waits)`: whether `op` still goes on the wire, and whether a
    /// blocking TB waits for it.
    pub(crate) fn issue(
        &mut self,
        now: SimTime,
        gpu: GpuId,
        sim: &mut GpuSim,
        tb: TbId,
        op: MemOp,
        blocking: bool,
    ) -> (bool, bool) {
        let local = op.addr.home_gpu() == gpu;
        match (op.kind, op.tile) {
            // A local read is covered by the roofline compute time.
            (MemOpKind::RemoteLoad | MemOpKind::RemoteWrite, tile) if local => {
                if let Some(tile) = tile {
                    self.land(now, gpu, sim, tile);
                }
                (false, false)
            }
            // A local `red.cais` is a plain HBM accumulate; NVLS
            // `multimem.red` (cais = false) always traverses the switch,
            // which owns the reduce-and-multicast semantics.
            (MemOpKind::RemoteReduce, tile) if local && op.cais => {
                if let Some(tile) = tile {
                    self.add_contrib(now, gpu, sim, tile, 1);
                }
                (false, false)
            }
            (MemOpKind::RemoteLoad, Some(tile)) => {
                let entry = self.tiles[gpu.index()].get_or_default(tile);
                if entry.present {
                    return (false, false);
                }
                if blocking {
                    entry.waited = true;
                    self.waiters.entry((gpu, tile)).or_default().push(tb);
                }
                let send = !std::mem::replace(&mut entry.fetching, true);
                self.deduped_fetches += u64::from(!send);
                (send, true)
            }
            // A pull-mode reduction signals its completion through the
            // tile; a tile-less one, through the response to its TB.
            (MemOpKind::LoadReduce, Some(tile)) if blocking => {
                self.tiles[gpu.index()].get_or_default(tile).waited = true;
                self.waiters.entry((gpu, tile)).or_default().push(tb);
                (true, true)
            }
            (MemOpKind::RemoteLoad | MemOpKind::LoadReduce, _) => (true, true),
            _ => (true, false),
        }
    }

    /// Blocks `tb` on `n` more tiles or loads; with none, it resumes on
    /// `sim` at once.
    pub(crate) fn block(&mut self, now: SimTime, sim: &mut GpuSim, tb: TbId, n: u32) {
        if n == 0 {
            sim.resume_tb(now, tb);
        } else {
            *self.blocked.get_or_default(tb) += n;
        }
    }

    /// Counts one of `tb`'s waits done; its last resumes it on `sim`.
    ///
    /// # Panics
    ///
    /// Panics if `tb` is not blocked.
    pub(crate) fn unblock(&mut self, now: SimTime, sim: &mut GpuSim, tb: TbId) {
        let count = self
            .blocked
            .get_mut(tb)
            .unwrap_or_else(|| panic!("TB {tb} not blocked"));
        *count -= 1;
        if *count == 0 {
            self.blocked.remove(tb);
            sim.resume_tb(now, tb);
        }
    }

    /// TBs blocked on tiles or loads.
    pub(crate) fn blocked_tbs(&self) -> impl Iterator<Item = TbId> + '_ {
        self.blocked.keys()
    }

    /// Reduction contributions counted (merged ones by their count), and
    /// remote tile loads served by a fetch already in flight.
    pub(crate) fn tallies(&self) -> (u64, u64) {
        (self.semantic_contribs, self.deduped_fetches)
    }

    /// Lists the directory's counters and, at quiescence, requires that
    /// no TB is still blocked.
    pub(crate) fn audit_probe(&self, probe: &mut AuditProbe) {
        probe.counter("engine.blocked_tbs", self.blocked.len() as f64);
        probe.counter("engine.semantic_contribs", self.semantic_contribs as f64);
        probe.counter("engine.deduped_fetches", self.deduped_fetches as f64);
        if probe.is_quiescence() {
            probe.require_zero(
                "engine.tiles",
                "quiescence: no TBs still blocked on tiles or loads",
                self.blocked.len() as u64,
            );
        }
    }

    /// Appends waits-for edges until `edges` holds `max`: which TB waits
    /// on which absent tile, blocked in a slot (and whether a fetch is
    /// outstanding) or held at a closed dispatch gate.
    pub(crate) fn waits_for(&self, edges: &mut Vec<String>, max: usize) {
        for (gi, tiles) in self.tiles.iter().enumerate() {
            for (tile, entry) in tiles.iter() {
                if entry.present {
                    continue;
                }
                let state = if entry.fetching {
                    "fetch in flight"
                } else {
                    "no fetch outstanding"
                };
                let resumes = self
                    .waiters
                    .get(&(GpuId(gi as u16), tile))
                    .map_or(&[][..], Waiters::as_slice)
                    .iter()
                    .map(|tb| format!("{tb} -> {tile}@g{gi} ({state})"));
                // A gate appears once per listing of the tile (adjacent,
                // as the range is sorted); name its TBs once.
                let gated = self.gate_index[entry.gates.start as usize..entry.gates.end as usize]
                    .chunk_by(|a, b| a == b)
                    .flat_map(|run| &self.gates[run[0] as usize].tbs)
                    .map(|tb| format!("{tb} -> {tile}@g{gi} (dispatch gate)"));
                for edge in resumes.chain(gated) {
                    if edges.len() >= max {
                        return;
                    }
                    edges.push(edge);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::program::PlannedKernel;
    use gpu_sim::{GpuConfig, Phase, TbDesc};
    use sim_core::{Addr, KernelId, SimDuration};
    use std::sync::Arc;

    /// Views of the directory's private state for tests that build it
    /// alone.
    impl TileDirectory {
        /// The ready gates' remaining counts, by gate id.
        pub(crate) fn gate_remaining(&self) -> Vec<u32> {
            self.gates.iter().map(|g| g.remaining).collect()
        }

        /// Gated TBs ready before their kernel launched.
        pub(crate) fn ready_pending(&self) -> &DenseSet<TbId> {
            &self.ready_pending
        }

        /// Counts a landing of `tile` on `gpu` against its gates only and
        /// returns the TBs of the gates it opens.
        pub(crate) fn open_gates_of(&mut self, gpu: GpuId, tile: TileId) -> Vec<TbId> {
            let gates = self.tiles[gpu.index()]
                .get(tile)
                .expect("gated tile has an entry")
                .gates
                .clone();
            self.open_gates(gates)
        }

        /// The waiter table.
        pub(crate) fn waiters(&self) -> &HashMap<(GpuId, TileId), Waiters, FastHash> {
            &self.waiters
        }

        /// Whether every tile `gpu` touched landed and is awaited by
        /// nobody.
        pub(crate) fn all_landed(&self, gpu: GpuId) -> bool {
            self.tiles[gpu.index()]
                .iter()
                .all(|(_, e)| e.present && !e.waited)
        }
    }

    fn quiet_gpu() -> GpuSim {
        GpuSim::new(
            GpuConfig {
                dispatch_jitter: SimDuration::ZERO,
                compute_jitter: SimDuration::ZERO,
                launch_skew: SimDuration::ZERO,
                ..GpuConfig::h100_half()
            },
            0,
        )
    }

    /// A program of one kernel on GPU 0 whose TBs `0..n` each block on a
    /// memory issue the test answers through the directory.
    fn blocking_kernel(n: u64) -> Program {
        let tbs = (0..n)
            .map(|i| TbDesc {
                id: TbId(i),
                order_key: i,
                group: None,
                pre_launch_sync: false,
                phases: vec![Phase::IssueMem {
                    ops: Arc::new([MemOp {
                        kind: MemOpKind::RemoteLoad,
                        addr: Addr::new(GpuId(1), 0),
                        bytes: 64,
                        cais: false,
                        tile: None,
                    }]),
                    wait: true,
                }],
            })
            .collect();
        let mut p = Program::new();
        p.push(PlannedKernel {
            gpu: GpuId(0),
            desc: gpu_sim::KernelDesc::new(KernelId(0), "loaders", tbs),
            after: vec![],
        });
        p
    }

    /// Runs `gpu` until it has no event left.
    fn settle(gpu: &mut GpuSim) {
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        gpu.drain_effects();
    }

    #[test]
    fn loads_of_one_tile_fetch_once_and_land_together() {
        let p = blocking_kernel(4);
        let mut tiles = TileDirectory::new(2, &p);
        let mut gpu = quiet_gpu();
        tiles.launch(SimTime::ZERO, &mut gpu, p.kernels[0].desc.clone());
        settle(&mut gpu);
        let (g0, t0, t1) = (GpuId(0), SimTime::ZERO, SimTime::from_us(9));
        let load = MemOp {
            kind: MemOpKind::RemoteLoad,
            addr: Addr::new(GpuId(1), 0),
            bytes: 64,
            cais: false,
            tile: Some(TileId(7)),
        };
        let mut issue = |tiles: &mut TileDirectory, tb, op, blocking| {
            tiles.issue(t0, g0, &mut gpu, TbId(tb), op, blocking)
        };
        assert_eq!(issue(&mut tiles, 0, load, true), (true, true));
        assert_eq!(issue(&mut tiles, 1, load, true), (false, true));
        // A non-blocking load does not wait, and does not fetch again.
        assert_eq!(issue(&mut tiles, 2, load, false), (false, true));
        // A local read lands its tile at once.
        let local = MemOp {
            addr: Addr::new(g0, 0),
            tile: Some(TileId(8)),
            ..load
        };
        assert_eq!(issue(&mut tiles, 2, local, true), (false, false));
        for tb in [0, 1] {
            tiles.block(t0, &mut gpu, TbId(tb), 1);
        }
        assert_eq!(tiles.blocked_tbs().collect::<Vec<_>>(), [TbId(0), TbId(1)]);
        let mut edges = Vec::new();
        tiles.waits_for(&mut edges, 16);
        assert_eq!(
            edges,
            [
                "tb0 -> tile7@g0 (fetch in flight)",
                "tb1 -> tile7@g0 (fetch in flight)"
            ]
        );
        tiles.land(t1, g0, &mut gpu, TileId(7));
        assert!(tiles.blocked_tbs().next().is_none());
        assert!(tiles.waiters().is_empty());
        assert!(tiles.all_landed(g0));
        let present = tiles.issue(t1, g0, &mut gpu, TbId(2), load, true);
        assert_eq!(present, (false, false));
        assert_eq!(tiles.tallies(), (0, 2));
        // The two resumed TBs finish; the others still wait on their
        // issues. Blocked on nothing, a TB resumes at once.
        settle(&mut gpu);
        assert!(gpu.kernel_pending(KernelId(0)));
        tiles.block(t1, &mut gpu, TbId(2), 0);
        tiles.block(t1, &mut gpu, TbId(3), 1);
        tiles.unblock(t1, &mut gpu, TbId(3));
        settle(&mut gpu);
        assert!(gpu.is_idle());
    }

    #[test]
    fn a_reduction_tile_lands_with_its_last_expected_contribution() {
        let mut p = Program::new();
        p.tile_expected.insert(TileId(3), 4);
        let mut tiles = TileDirectory::new(1, &p);
        let mut gpu = quiet_gpu();
        let (g0, tile) = (GpuId(0), TileId(3));
        tiles.add_contrib(SimTime::ZERO, g0, &mut gpu, tile, 1);
        // A switch-merged partial carries several contributions.
        tiles.add_contrib(SimTime::ZERO, g0, &mut gpu, tile, 2);
        assert!(!tiles.all_landed(g0));
        tiles.add_contrib(SimTime::ZERO, g0, &mut gpu, tile, 1);
        assert!(tiles.all_landed(g0));
        // A tile without an expected count lands with one.
        tiles.add_contrib(SimTime::ZERO, g0, &mut gpu, TileId(4), 1);
        assert!(tiles.all_landed(g0));
        assert_eq!(tiles.tallies(), (5, 0));
    }

    #[test]
    fn a_blocked_tb_breaks_the_quiescence_ledger() {
        let mut tiles = TileDirectory::new(1, &Program::new());
        tiles.block(SimTime::ZERO, &mut quiet_gpu(), TbId(5), 2);
        let mut probe = AuditProbe::new(sim_core::AuditPhase::Quiescence);
        tiles.audit_probe(&mut probe);
        assert_eq!(
            probe.counters(),
            [
                ("engine.blocked_tbs", 1.0),
                ("engine.semantic_contribs", 0.0),
                ("engine.deduped_fetches", 0.0)
            ]
        );
        let broken: Vec<_> = probe
            .violations()
            .iter()
            .map(|v| (v.subsystem, v.ledger))
            .collect();
        assert_eq!(
            broken,
            [(
                "engine.tiles",
                "quiescence: no TBs still blocked on tiles or loads"
            )]
        );
    }

    #[test]
    #[should_panic(expected = "ready dep for unknown TB")]
    fn a_ready_dependency_of_no_kernel_is_rejected() {
        let mut p = Program::new();
        p.tb_ready_deps.insert(TbId(9), Arc::new([TileId(0)]));
        TileDirectory::new(1, &p);
    }
}
