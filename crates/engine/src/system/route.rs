//! Routing: each GPU effect and fabric delivery goes to the component
//! that owns the state it changes, and each request it causes goes on
//! the wire.

use super::SystemSim;
use crate::msg::{request, Msg};
use gpu_sim::{GpuEffect, MemOp, MemOpKind, SyncKind};
use noc_sim::{Delivery, SwitchLogic};
use sim_core::{GpuId, PlaneId, SimTime, TbId};
use std::sync::Arc;

impl<L: SwitchLogic<Msg>> SystemSim<L> {
    pub(super) fn inject(&mut self, now: SimTime, src: GpuId, dst: GpuId, msg: Msg) {
        let plane = msg.plane(self.cfg.n_planes);
        self.fabric.inject(now, src, dst, plane, msg);
    }

    /// Returns `n` of `gpu`'s credits on `plane` and sends the parked
    /// requests they admit.
    pub(super) fn return_credits(&mut self, now: SimTime, gpu: GpuId, plane: PlaneId, n: u32) {
        let fabric = &mut self.fabric;
        let send = |home, msg| fabric.inject(now, gpu, home, plane, msg);
        self.cais.return_credits(gpu, plane, n, send);
    }

    pub(super) fn handle_gpu_effect(&mut self, t: SimTime, gpu: GpuId, effect: GpuEffect) {
        let sim = &mut self.gpus[gpu.index()];
        match effect {
            GpuEffect::MemIssued { tb, ops, blocking } => {
                self.handle_mem_issued(t, gpu, tb, ops, blocking)
            }
            GpuEffect::TileReady { tile } => self.tiles.land(t, gpu, sim, tile),
            GpuEffect::GroupSyncRequest { tb, group, kind } => {
                if kind == SyncKind::PreAccess {
                    self.cais.preaccess_wait(gpu, group, tb);
                }
                let kind = (kind == SyncKind::PreAccess) as u8;
                self.inject(t, gpu, gpu, Msg::SyncReq { group, gpu, kind });
            }
            GpuEffect::KernelCompleted { kernel } => {
                for idx in self.dag.complete(t, kernel) {
                    self.launch_kernel(t, idx);
                }
            }
        }
    }

    pub(super) fn handle_mem_issued(
        &mut self,
        t: SimTime,
        gpu: GpuId,
        tb: TbId,
        ops: Arc<[MemOp]>,
        blocking: bool,
    ) {
        let mut outstanding = 0u32;
        for (pos, &op) in ops.iter().enumerate() {
            let sim = &mut self.gpus[gpu.index()];
            let (send, waits) = self.tiles.issue(t, gpu, sim, tb, op, blocking);
            outstanding += u32::from(waits);
            if !send {
                continue;
            }
            let home = op.addr.home_gpu();
            if op.cais && matches!(op.kind, MemOpKind::RemoteLoad | MemOpKind::RemoteReduce) {
                if let Some(plane) = self.cais.send(gpu, tb, &ops, pos) {
                    self.fabric
                        .inject(t, gpu, home, plane, request(gpu, tb, op));
                }
            } else {
                self.inject(t, gpu, home, request(gpu, tb, op));
            }
        }
        if blocking {
            let sim = &mut self.gpus[gpu.index()];
            self.tiles.block(t, sim, tb, outstanding);
        }
    }

    pub(super) fn handle_delivery(&mut self, d: Delivery<Msg>) {
        let (t, gpu, plane) = (d.time, d.dst, d.plane);
        let sim = &mut self.gpus[gpu.index()];
        let read_done = t + self.cfg.mem_read_latency;
        match d.payload {
            // We are the home GPU: the memory system answers after its
            // read latency; no SM involvement.
            Msg::LoadReq {
                addr,
                bytes,
                requester,
                tb,
                tile,
                ..
            } => {
                debug_assert_eq!(addr.home_gpu(), gpu, "load routed to wrong GPU");
                let resp = Msg::LoadResp {
                    addr,
                    bytes,
                    requester,
                    tb,
                    tile,
                };
                let plane = resp.plane(self.cfg.n_planes);
                self.fabric.inject(read_done, gpu, requester, plane, resp);
            }
            Msg::LoadResp { addr, tb, tile, .. } => {
                if self.cais.load_answered(gpu, addr) {
                    self.return_credits(t, gpu, plane, 1);
                }
                // A tile-less response credits its TB, on the GPU it
                // reached.
                let sim = &mut self.gpus[gpu.index()];
                match tile {
                    Some(tile) => self.tiles.land(t, gpu, sim, tile),
                    None => self.tiles.unblock(t, sim, tb),
                }
            }
            // A (possibly switch-merged) reduction contribution reached
            // the home GPU.
            Msg::Reduce {
                tile: Some(tile),
                contribs,
                ..
            } => self.tiles.add_contrib(t, gpu, sim, tile, contribs),
            Msg::Write {
                tile: Some(tile),
                contrib: true,
                ..
            } => self.tiles.add_contrib(t, gpu, sim, tile, 1),
            Msg::Write {
                tile: Some(tile), ..
            }
            | Msg::MulticastStore {
                tile: Some(tile), ..
            } => self.tiles.land(t, gpu, sim, tile),
            Msg::Reduce { .. } | Msg::Write { .. } | Msg::MulticastStore { .. } => {}
            // Supply our partial to the switch's reduction session.
            Msg::FetchReq {
                addr,
                bytes,
                session,
                ..
            } => {
                let src = gpu;
                let resp = Msg::FetchResp {
                    addr,
                    bytes,
                    src,
                    session,
                };
                self.fabric.inject(read_done, gpu, gpu, plane, resp);
            }
            m @ (Msg::FetchResp { .. } | Msg::LoadReduceReq { .. } | Msg::SyncReq { .. }) => {
                panic!("{m:?} reached a GPU; the switch logic must consume it")
            }
            Msg::SyncRel { group, kind: 0 } => sim.release_group(t, group),
            Msg::SyncRel { group, .. } => {
                for tb in self.cais.preaccess_release(gpu, group) {
                    sim.resume_tb(t, tb);
                }
            }
            Msg::CreditGrant { credits } => self.return_credits(t, gpu, plane, credits),
        }
    }
}
