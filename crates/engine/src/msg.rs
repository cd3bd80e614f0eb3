//! The system-wide fabric message vocabulary.

use gpu_sim::{MemOp, MemOpKind};
use noc_sim::{FlowClass, Payload};
use sim_core::{Addr, GpuId, GroupId, PlaneId, TbId, TileId};

/// Header-only message size on the wire (a sync/control packet carries no
/// payload beyond the fabric header, matching the paper's "empty packets").
pub const EMPTY: u64 = 0;

/// Every message that can traverse the fabric.
///
/// `*.cais`-tagged requests are eligible for in-switch merging; the same
/// message types with `cais: false` are plain point-to-point traffic that
/// any router forwards.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Remote read request (requester pulls `bytes` at `addr`).
    LoadReq {
        /// Target address (home GPU owns the data).
        addr: Addr,
        /// Requested bytes.
        bytes: u64,
        /// GPU that wants the data.
        requester: GpuId,
        /// TB blocked on this load (engine bookkeeping).
        tb: TbId,
        /// Tile materialized at the requester when data arrives.
        tile: Option<TileId>,
        /// `ld.cais`: eligible for in-switch load merging.
        cais: bool,
    },
    /// Remote read response carrying data back to `requester`.
    LoadResp {
        /// Address served.
        addr: Addr,
        /// Data bytes.
        bytes: u64,
        /// Destination GPU.
        requester: GpuId,
        /// TB to credit.
        tb: TbId,
        /// Tile to mark present at the requester.
        tile: Option<TileId>,
    },
    /// A reduction contribution pushed toward `addr`'s home GPU
    /// (`red.cais` when `cais`, NVLS `multimem.red` otherwise).
    Reduce {
        /// Accumulation address.
        addr: Addr,
        /// Contribution bytes.
        bytes: u64,
        /// Contributing GPU.
        src: GpuId,
        /// Number of partial contributions already folded into this
        /// message (1 from a GPU; >1 when a switch flushes a merged
        /// partial).
        contribs: u32,
        /// Tile the reduction completes at the home GPU.
        tile: Option<TileId>,
        /// `red.cais`: eligible for in-switch reduction merging.
        cais: bool,
    },
    /// Direct peer write (ring collective step, T3 track-&-trigger store).
    Write {
        /// Destination address.
        addr: Addr,
        /// Data bytes.
        bytes: u64,
        /// Writing GPU.
        src: GpuId,
        /// Tile marked present at the destination on arrival.
        tile: Option<TileId>,
        /// Counted as a reduction contribution rather than a plain
        /// overwrite (T3 accumulates partials at the home GPU).
        contrib: bool,
    },
    /// NVLS push-mode multicast store (`multimem.st`): the switch
    /// replicates the payload to every GPU except `src`.
    MulticastStore {
        /// Address in the multicast window (identifies the chunk).
        addr: Addr,
        /// Data bytes.
        bytes: u64,
        /// Pushing GPU.
        src: GpuId,
        /// Tile marked present at each receiving GPU.
        tile: Option<TileId>,
    },
    /// NVLS pull-mode reduction (`multimem.ld_reduce`): the switch fetches
    /// the chunk from every other GPU, reduces in-flight and responds to
    /// the requester.
    LoadReduceReq {
        /// Chunk address (offset meaningful on every GPU).
        addr: Addr,
        /// Bytes per contribution.
        bytes: u64,
        /// Requesting GPU.
        requester: GpuId,
        /// TB blocked on the reduced data.
        tb: TbId,
        /// Tile marked present at the requester on completion.
        tile: Option<TileId>,
    },
    /// Switch-issued fetch of one contribution for an in-flight
    /// `LoadReduceReq` session.
    FetchReq {
        /// Chunk address.
        addr: Addr,
        /// Bytes.
        bytes: u64,
        /// GPU asked to supply its partial.
        target: GpuId,
        /// Session key on the switch.
        session: u64,
    },
    /// A GPU's reply to a [`Msg::FetchReq`].
    FetchResp {
        /// Chunk address.
        addr: Addr,
        /// Bytes.
        bytes: u64,
        /// Supplying GPU.
        src: GpuId,
        /// Session key on the switch.
        session: u64,
    },
    /// TB-group synchronization request (empty packet, GPU -> switch).
    SyncReq {
        /// The group.
        group: GroupId,
        /// Requesting GPU.
        gpu: GpuId,
        /// Pre-launch (0) or pre-access (1); kept as a raw discriminant so
        /// the message stays `gpu-sim`-independent.
        kind: u8,
    },
    /// TB-group release broadcast (empty packet, switch -> GPU).
    SyncRel {
        /// The group.
        group: GroupId,
        /// Pre-launch (0) or pre-access (1).
        kind: u8,
    },
    /// Throttling credit return from the switch to a GPU (empty packet):
    /// grants the GPU permission to issue more CAIS requests on a plane.
    CreditGrant {
        /// Credits returned.
        credits: u32,
    },
}

impl Payload for Msg {
    fn data_bytes(&self) -> u64 {
        match self {
            Msg::LoadReq { .. } => EMPTY,
            Msg::LoadResp { bytes, .. } => *bytes,
            Msg::Reduce { bytes, .. } => *bytes,
            Msg::Write { bytes, .. } => *bytes,
            Msg::MulticastStore { bytes, .. } => *bytes,
            Msg::LoadReduceReq { .. } => EMPTY,
            Msg::FetchReq { .. } => EMPTY,
            Msg::FetchResp { bytes, .. } => *bytes,
            Msg::SyncReq { .. } => EMPTY,
            Msg::SyncRel { .. } => EMPTY,
            Msg::CreditGrant { .. } => EMPTY,
        }
    }

    fn class(&self) -> FlowClass {
        match self {
            Msg::LoadReq { .. } | Msg::LoadReduceReq { .. } | Msg::FetchReq { .. } => {
                FlowClass::LoadReq
            }
            Msg::LoadResp { .. } | Msg::FetchResp { .. } => FlowClass::LoadResp,
            Msg::Reduce { .. } => FlowClass::Reduce,
            Msg::Write { .. } | Msg::MulticastStore { .. } => FlowClass::Bulk,
            Msg::SyncReq { .. } | Msg::SyncRel { .. } | Msg::CreditGrant { .. } => FlowClass::Sync,
        }
    }
}

/// The request `gpu`'s TB `tb` sends to the home GPU of `op`'s address:
/// a reduction carries one contribution, and a write is a plain store.
pub(crate) fn request(gpu: GpuId, tb: TbId, op: MemOp) -> Msg {
    let (addr, bytes, tile) = (op.addr, op.bytes, op.tile);
    match op.kind {
        MemOpKind::RemoteLoad => Msg::LoadReq {
            addr,
            bytes,
            requester: gpu,
            tb,
            tile,
            cais: op.cais,
        },
        MemOpKind::RemoteReduce => Msg::Reduce {
            addr,
            bytes,
            src: gpu,
            contribs: 1,
            tile,
            cais: op.cais,
        },
        MemOpKind::RemoteWrite => Msg::Write {
            addr,
            bytes,
            src: gpu,
            tile,
            contrib: false,
        },
        MemOpKind::MulticastStore => Msg::MulticastStore {
            addr,
            bytes,
            src: gpu,
            tile,
        },
        MemOpKind::LoadReduce => Msg::LoadReduceReq {
            addr,
            bytes,
            requester: gpu,
            tb,
            tile,
        },
    }
}

impl Msg {
    /// The address this message concerns, when it has one.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Msg::LoadReq { addr, .. }
            | Msg::LoadResp { addr, .. }
            | Msg::Reduce { addr, .. }
            | Msg::Write { addr, .. }
            | Msg::MulticastStore { addr, .. }
            | Msg::LoadReduceReq { addr, .. }
            | Msg::FetchReq { addr, .. }
            | Msg::FetchResp { addr, .. } => Some(*addr),
            _ => None,
        }
    }

    /// The plane this message travels on: a sync message's group picks
    /// it, any other message's address (plane 0 without one).
    pub(crate) fn plane(&self, n_planes: usize) -> PlaneId {
        match self {
            Msg::SyncReq { group, .. } | Msg::SyncRel { group, .. } => {
                PlaneId((group.0 % n_planes as u32) as u16)
            }
            m => m.addr().map_or(PlaneId(0), |a| a.plane(n_planes)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_are_empty() {
        let m = Msg::SyncReq {
            group: GroupId(1),
            gpu: GpuId(0),
            kind: 0,
        };
        assert_eq!(m.data_bytes(), 0);
        assert_eq!(m.class(), FlowClass::Sync);
        assert!(m.addr().is_none());
    }

    #[test]
    fn load_request_is_small_but_response_is_heavy() {
        let addr = Addr::new(GpuId(3), 64);
        let req = Msg::LoadReq {
            addr,
            bytes: 32 * 1024,
            requester: GpuId(0),
            tb: TbId(1),
            tile: None,
            cais: true,
        };
        let resp = Msg::LoadResp {
            addr,
            bytes: 32 * 1024,
            requester: GpuId(0),
            tb: TbId(1),
            tile: None,
        };
        assert_eq!(req.data_bytes(), 0);
        assert_eq!(resp.data_bytes(), 32 * 1024);
        assert_eq!(req.addr(), Some(addr));
        assert_eq!(req.class(), FlowClass::LoadReq);
        assert_eq!(resp.class(), FlowClass::LoadResp);
    }

    #[test]
    fn reduce_and_load_use_distinct_classes() {
        let addr = Addr::new(GpuId(1), 0);
        let red = Msg::Reduce {
            addr,
            bytes: 1024,
            src: GpuId(0),
            contribs: 1,
            tile: None,
            cais: true,
        };
        let resp = Msg::LoadResp {
            addr,
            bytes: 1024,
            requester: GpuId(0),
            tb: TbId(0),
            tile: None,
        };
        // Separate classes let CAIS traffic control put them on distinct
        // virtual channels.
        assert_ne!(red.class(), resp.class());
    }
}
