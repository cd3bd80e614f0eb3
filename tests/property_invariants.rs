//! Property-based invariants across the simulator layers.
//!
//! These were originally `proptest` properties; they are now driven by
//! the repo's own deterministic [`JitterRng`] so the workspace builds
//! with zero external dependencies and every CI run replays the exact
//! same case set. Each test sweeps a fixed number of seeded cases and
//! asserts the invariant on every one.

use cais::baselines::BaselineStrategy;
use cais::core::{merge::Waiter, CaisStrategy, MergeConfig, MergeUnit};
use cais::engine::strategy::execute;
use cais::engine::{IdAlloc, Program, SystemConfig, SystemSim};
use cais::gpu_sim::KernelCost;
use cais::harness::runner::Scale;
use cais::llm_workload::{sublayer, ModelConfig, SubLayer};
use cais::noc_sim::{Direction, Fabric, FabricConfig, FlowClass, Payload, PureRouter};
use cais::nvls::{ring_all_gather, ring_all_reduce, ring_reduce_scatter};
use cais::sim_core::rng::JitterRng;
use cais::sim_core::{Addr, EventQueue, GpuId, PlaneId, SimDuration, SimTime, TbId};
use cais::sim_core::{DegradeSpec, FaultPlan, MergeFaultSpec, StragglerSpec};

#[derive(Debug, Clone)]
struct Blob(u64);
impl Payload for Blob {
    fn data_bytes(&self) -> u64 {
        self.0
    }
    fn class(&self) -> FlowClass {
        FlowClass::Bulk
    }
}

/// The event queue is a total order: pops are non-decreasing in time
/// and FIFO within a timestamp.
#[test]
fn event_queue_total_order() {
    let mut rng = JitterRng::seed_from(0xE7E4);
    for _case in 0..64 {
        let n = 1 + rng.next_below(199) as usize;
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_ns(rng.next_below(1000)), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt);
                if t == lt {
                    assert!(i > li, "FIFO violated within a timestamp");
                }
            }
            last = Some((t, i));
        }
    }
}

/// Byte conservation: every payload byte injected into the fabric is
/// delivered; up-link and down-link wire bytes match exactly for
/// point-to-point routing.
#[test]
fn fabric_conserves_bytes() {
    let mut rng = JitterRng::seed_from(0xFAB);
    for _case in 0..64 {
        let n_gpus = 2 + rng.next_below(7) as usize;
        let n_msgs = 1 + rng.next_below(49) as usize;
        let mut f = Fabric::new(FabricConfig::default_for(n_gpus, 2), PureRouter);
        let mut injected = 0u64;
        for i in 0..n_msgs {
            let s = 1 + rng.next_below(99_999);
            let src = GpuId((i % n_gpus) as u16);
            let dst = GpuId(((i + 1) % n_gpus) as u16);
            f.inject(
                SimTime::from_ns(i as u64),
                src,
                dst,
                PlaneId((i % 2) as u16),
                Blob(s),
            );
            injected += s;
        }
        f.run_to_completion();
        let delivered: u64 = f.drain_deliveries().iter().map(|d| d.payload.0).sum();
        assert_eq!(delivered, injected);
        let report = f.report(SimDuration::from_ms(10));
        assert_eq!(
            report.bytes_dir(Direction::Up),
            report.bytes_dir(Direction::Down)
        );
    }
}

/// Merge unit: with an unbounded table, N-1 staggered requesters for
/// one address produce exactly one forwarded fetch and N-1 responses,
/// in any arrival order.
#[test]
fn merge_unit_serves_every_requester_once() {
    let mut rng = JitterRng::seed_from(0x4E46);
    for _case in 0..64 {
        let n_gpus = 3 + rng.next_below(6) as usize;
        let arrival_order: Vec<u64> = (0..n_gpus - 1).map(|_| rng.next_below(10_000)).collect();
        let resp_at = rng.next_below(12_000);
        let mut m = MergeUnit::new(MergeConfig {
            n_gpus,
            table_bytes_per_port: None,
            entry_overhead_bytes: 16,
            timeout: SimDuration::from_ms(10),
            entry_fault_rate: 0.0,
            degrade_threshold: 8,
        });
        let addr = Addr::new(GpuId(0), 0x1000);
        let mut out = Vec::new();
        let mut sorted: Vec<(u64, u16)> = arrival_order
            .iter()
            .enumerate()
            .map(|(g, t)| (*t, g as u16 + 1))
            .collect();
        sorted.push((resp_at, u16::MAX)); // sentinel: the response event
        sorted.sort_unstable();
        let mut responded = false;
        for (t, who) in sorted {
            if who == u16::MAX {
                // A response only arrives if the fetch was forwarded
                // (first request seen).
                if out
                    .iter()
                    .any(|a| matches!(a, cais::core::merge::MergeAction::ForwardLoad { .. }))
                {
                    m.on_load_resp(SimTime::from_ns(t), PlaneId(0), addr, 1024, &mut out);
                    responded = true;
                }
            } else {
                m.on_load_req(
                    SimTime::from_ns(t),
                    PlaneId(0),
                    addr,
                    1024,
                    Waiter {
                        requester: GpuId(who),
                        tb: TbId(who as u64),
                        tile: None,
                    },
                    &mut out,
                );
            }
        }
        if !responded {
            m.on_load_resp(SimTime::from_ns(20_000), PlaneId(0), addr, 1024, &mut out);
        }
        let forwards = out
            .iter()
            .filter(|a| matches!(a, cais::core::merge::MergeAction::ForwardLoad { .. }))
            .count();
        let responses = out
            .iter()
            .filter(|a| matches!(a, cais::core::merge::MergeAction::RespondLoad { .. }))
            .count();
        assert_eq!(forwards, 1, "exactly one fetch per address");
        assert_eq!(responses, n_gpus - 1, "every requester answered once");
        assert!(!m.has_entries(), "session released after completion");
    }
}

/// Ring collectives move exactly the algorithmic payload volume
/// (modulo per-packet headers) for arbitrary sizes and GPU counts.
#[test]
fn ring_collectives_move_algorithmic_volume() {
    let mut rng = JitterRng::seed_from(0x41D6);
    for case in 0..12 {
        let kb = 64 + rng.next_below(448);
        let n_gpus = 2 + rng.next_below(5) as usize;
        let which = case % 3;
        let bytes = kb * 1024 * n_gpus as u64;
        let mut cfg = SystemConfig::dgx_h100();
        cfg.n_gpus = n_gpus;
        cfg.n_planes = 1;
        cfg.fabric = FabricConfig::default_for(n_gpus, 1);
        cfg.gpu.dispatch_jitter = SimDuration::ZERO;
        cfg.gpu.compute_jitter = SimDuration::ZERO;
        cfg.gpu.launch_skew = SimDuration::ZERO;
        cfg.coll_chunk_bytes = 64 * 1024;
        let cost = KernelCost::new(&cfg.gpu);
        let mut prog = Program::new();
        let mut ids = IdAlloc::new(n_gpus);
        let mult = match which {
            0 => {
                ring_all_gather(&mut prog, &mut ids, &cfg, &cost, "x", bytes, &[], None);
                1
            }
            1 => {
                ring_reduce_scatter(&mut prog, &mut ids, &cfg, &cost, "x", bytes, &[], None);
                1
            }
            _ => {
                ring_all_reduce(&mut prog, &mut ids, &cfg, &cost, "x", bytes, &[], None);
                2
            }
        };
        let report = SystemSim::new(cfg, prog, PureRouter)
            .run()
            .expect("run completes");
        let expect = mult * bytes / n_gpus as u64 * (n_gpus as u64 - 1) * n_gpus as u64;
        let got = report.fabric.bytes_dir(Direction::Up);
        let ratio = got as f64 / expect as f64;
        assert!(
            (0.95..1.15).contains(&ratio),
            "volume off: got {got} expect {expect}"
        );
    }
}

/// Every resilience-experiment fault configuration — packet drops,
/// bandwidth-degradation windows, a straggler GPU, and merge-table entry
/// faults — passes the conservation audit: cadence ledger checks during
/// the run and the mandatory quiescence verification at the end, for both
/// the CAIS and TP-NVLS strategies, across a seeded sweep of fault
/// timelines.
#[test]
fn resilience_configs_pass_quiescence_audit() {
    let mut rng = JitterRng::seed_from(0xAD17);
    let model = Scale::Smoke.model(&ModelConfig::llama_7b());
    for case in 0..8 {
        let seed = 0xFA17 ^ rng.next_below(1 << 20);
        let plan = match case % 4 {
            0 => FaultPlan::default().with_seed(seed).with_drop_rate(1e-2),
            1 => FaultPlan::default()
                .with_seed(seed)
                .with_degrade(DegradeSpec {
                    factor: 2.0,
                    period: SimDuration::from_us(10),
                    duration: SimDuration::from_us(3),
                }),
            2 => FaultPlan::default()
                .with_seed(seed)
                .with_straggler(StragglerSpec {
                    gpu: 1,
                    compute_factor: 1.5,
                }),
            _ => FaultPlan::default()
                .with_seed(seed)
                .with_merge_faults(MergeFaultSpec {
                    rate: 0.05,
                    degrade_threshold: 4,
                }),
        };
        let mut cfg = Scale::Smoke.system();
        cfg.faults = plan;
        cfg.audit.enabled = true;
        // Well below a smoke run's event count, so cadence checks fire
        // many times mid-run, not just at quiescence.
        cfg.audit.cadence_events = 2048;
        let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
        for cais in [true, false] {
            let result = if cais {
                execute(&CaisStrategy::full(), &dfg, &cfg)
            } else {
                execute(&BaselineStrategy::tp_nvls(), &dfg, &cfg)
            };
            result.unwrap_or_else(|e| panic!("case {case} (cais={cais}) failed audit or run: {e}"));
        }
    }
}
