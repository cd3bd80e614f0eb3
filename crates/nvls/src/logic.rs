//! The NVLS switch datapath: multicast and in-switch reduction.

use cais_engine::Msg;
use noc_sim::{Packet, SwitchCtx, SwitchLogic};
use sim_core::{Addr, FastHash, GpuId, SimTime, TbId, TileId};
use std::collections::HashMap;

#[derive(Debug)]
struct ReduceSession {
    contribs: u32,
    bytes: u64,
    tile: Option<TileId>,
}

#[derive(Debug)]
struct PullSession {
    requester: GpuId,
    tb: TbId,
    tile: Option<TileId>,
    bytes: u64,
    remaining: u32,
}

/// NVLink SHARP switch behaviour (paper Sec. II-B/II-C).
///
/// * `multimem.st` ([`Msg::MulticastStore`]): replicate to every GPU
///   except the source (push-mode AllGather).
/// * `multimem.red` ([`Msg::Reduce`] with `cais = false`): accumulate all
///   GPUs' contributions for an address, then multicast the sum to every
///   GPU (push-mode AllReduce).
/// * `multimem.ld_reduce` ([`Msg::LoadReduceReq`]): fetch the chunk from
///   every other GPU, reduce in flight, respond to the requester
///   (pull-mode ReduceScatter).
///
/// Everything else is forwarded unchanged, so this logic composes with
/// point-to-point traffic.
#[derive(Debug)]
pub struct NvlsLogic {
    n_gpus: u32,
    reduce_sessions: HashMap<Addr, ReduceSession, FastHash>,
    pull_sessions: HashMap<u64, PullSession, FastHash>,
    multicasts: u64,
    reductions: u64,
    pulls: u64,
}

impl NvlsLogic {
    /// Creates the logic for an `n_gpus` system.
    ///
    /// # Panics
    ///
    /// Panics if `n_gpus < 2`.
    pub fn new(n_gpus: usize) -> NvlsLogic {
        assert!(n_gpus >= 2, "NVLS needs at least two GPUs");
        NvlsLogic {
            n_gpus: n_gpus as u32,
            reduce_sessions: HashMap::default(),
            pull_sessions: HashMap::default(),
            multicasts: 0,
            reductions: 0,
            pulls: 0,
        }
    }
}

impl SwitchLogic<Msg> for NvlsLogic {
    fn on_packet(&mut self, _now: SimTime, pkt: Packet<Msg>, ctx: &mut SwitchCtx<Msg>) {
        match pkt.payload {
            Msg::MulticastStore {
                addr,
                bytes,
                src,
                tile,
            } => {
                self.multicasts += 1;
                for g in 0..self.n_gpus {
                    let dst = GpuId(g as u16);
                    if dst != src {
                        ctx.emit(
                            src,
                            dst,
                            Msg::Write {
                                addr,
                                bytes,
                                src,
                                tile,
                                contrib: false,
                            },
                        );
                    }
                }
            }
            Msg::Reduce {
                addr,
                bytes,
                contribs,
                tile,
                cais: false,
                ..
            } => {
                let session = self.reduce_sessions.entry(addr).or_insert(ReduceSession {
                    contribs: 0,
                    bytes,
                    tile,
                });
                session.contribs += contribs;
                if session.contribs >= self.n_gpus {
                    let session = self.reduce_sessions.remove(&addr).expect("session exists");
                    self.reductions += 1;
                    let home = addr.home_gpu();
                    for g in 0..self.n_gpus {
                        ctx.emit(
                            home,
                            GpuId(g as u16),
                            Msg::Write {
                                addr,
                                bytes: session.bytes,
                                src: home,
                                tile: session.tile,
                                contrib: false,
                            },
                        );
                    }
                }
            }
            Msg::LoadReduceReq {
                addr,
                bytes,
                requester,
                tb,
                tile,
            } => {
                self.pulls += 1;
                let session = addr.0;
                let prev = self.pull_sessions.insert(
                    session,
                    PullSession {
                        requester,
                        tb,
                        tile,
                        bytes,
                        remaining: self.n_gpus - 1,
                    },
                );
                assert!(prev.is_none(), "duplicate ld_reduce session for {addr}");
                for g in 0..self.n_gpus {
                    let target = GpuId(g as u16);
                    if target != requester {
                        ctx.emit(
                            requester,
                            target,
                            Msg::FetchReq {
                                addr,
                                bytes,
                                target,
                                session,
                            },
                        );
                    }
                }
            }
            Msg::FetchResp { addr, session, .. } => {
                let done = {
                    let s = self
                        .pull_sessions
                        .get_mut(&session)
                        .expect("fetch response without session");
                    s.remaining -= 1;
                    s.remaining == 0
                };
                if done {
                    let s = self.pull_sessions.remove(&session).expect("exists");
                    ctx.emit(
                        addr.home_gpu(),
                        s.requester,
                        Msg::LoadResp {
                            addr,
                            bytes: s.bytes,
                            requester: s.requester,
                            tb: s.tb,
                            tile: s.tile,
                        },
                    );
                }
            }
            _ => ctx.forward(pkt),
        }
    }

    fn audit_probe(&self, probe: &mut sim_core::AuditProbe) {
        probe.counter("nvls.multicasts", self.multicasts as f64);
        probe.counter("nvls.reductions", self.reductions as f64);
        probe.counter("nvls.pulls", self.pulls as f64);
        probe.counter(
            "nvls.open_sessions",
            (self.reduce_sessions.len() + self.pull_sessions.len()) as f64,
        );
        if probe.is_quiescence() {
            probe.require_zero(
                "nvls",
                "quiescence: no reduce session still collecting contributions",
                self.reduce_sessions.len() as u64,
            );
            probe.require_zero(
                "nvls",
                "quiescence: no pull session still awaiting fetch responses",
                self.pull_sessions.len() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_sim::{Fabric, FabricConfig};
    use sim_core::PlaneId;

    fn fabric(n: usize) -> Fabric<Msg, NvlsLogic> {
        Fabric::new(FabricConfig::default_for(n, 1), NvlsLogic::new(n))
    }

    #[test]
    fn multicast_reaches_all_but_source() {
        let mut f = fabric(4);
        let addr = Addr::new(GpuId(0), 0);
        f.inject(
            SimTime::ZERO,
            GpuId(0),
            GpuId(0),
            PlaneId(0),
            Msg::MulticastStore {
                addr,
                bytes: 4096,
                src: GpuId(0),
                tile: Some(TileId(7)),
            },
        );
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 3);
        let mut dsts: Vec<u16> = d.iter().map(|x| x.dst.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![1, 2, 3]);
        assert!(d.iter().all(|x| matches!(
            x.payload,
            Msg::Write {
                tile: Some(TileId(7)),
                ..
            }
        )));
    }

    #[test]
    fn push_reduction_waits_for_all_then_multicasts() {
        let n = 4;
        let mut f = fabric(n);
        let addr = Addr::new(GpuId(0), 128);
        for g in 0..n as u16 {
            f.inject(
                SimTime::from_ns(g as u64 * 100),
                GpuId(g),
                GpuId(0),
                PlaneId(0),
                Msg::Reduce {
                    addr,
                    bytes: 2048,
                    src: GpuId(g),
                    contribs: 1,
                    tile: Some(TileId(1)),
                    cais: false,
                },
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        // The reduced result is multicast to all four GPUs.
        assert_eq!(d.len(), 4);
        let mut probe = sim_core::AuditProbe::new(sim_core::AuditPhase::Quiescence);
        f.logic().audit_probe(&mut probe);
        assert!(probe.counters().contains(&("nvls.reductions", 1.0)));
        assert!(probe.counters().contains(&("nvls.open_sessions", 0.0)));
        assert!(!probe.has_violations());
    }

    #[test]
    fn pull_reduction_fetches_from_peers() {
        let n = 4;
        let mut f = fabric(n);
        let addr = Addr::new(GpuId(2), 0);
        f.inject(
            SimTime::ZERO,
            GpuId(2),
            GpuId(2),
            PlaneId(0),
            Msg::LoadReduceReq {
                addr,
                bytes: 8192,
                requester: GpuId(2),
                tb: TbId(9),
                tile: Some(TileId(3)),
            },
        );
        // Drive: deliver FetchReqs to GPUs, answer them manually (the
        // engine normally does this).
        f.run_to_completion();
        let fetches = f.drain_deliveries();
        assert_eq!(fetches.len(), 3);
        for fetch in &fetches {
            let Msg::FetchReq {
                addr,
                bytes,
                session,
                ..
            } = fetch.payload
            else {
                panic!("expected FetchReq, got {:?}", fetch.payload);
            };
            f.inject(
                f.now(),
                fetch.dst,
                fetch.dst,
                PlaneId(0),
                Msg::FetchResp {
                    addr,
                    bytes,
                    src: fetch.dst,
                    session,
                },
            );
        }
        f.run_to_completion();
        let d = f.drain_deliveries();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].dst, GpuId(2));
        assert!(matches!(
            d[0].payload,
            Msg::LoadResp {
                tb: TbId(9),
                tile: Some(TileId(3)),
                ..
            }
        ));
    }

    #[test]
    fn unrelated_traffic_is_forwarded() {
        let mut f = fabric(2);
        let addr = Addr::new(GpuId(1), 0);
        f.inject(
            SimTime::ZERO,
            GpuId(0),
            GpuId(1),
            PlaneId(0),
            Msg::Write {
                addr,
                bytes: 64,
                src: GpuId(0),
                tile: None,
                contrib: false,
            },
        );
        f.run_to_completion();
        assert_eq!(f.drain_deliveries().len(), 1);
    }
}
