//! Standalone per-layer drivers: each layer's public API exercised from
//! outside the engine at the `tp32-cais` shape, timed per unit of work.
//!
//! Every driver repeats its loop and reports the median, and checks the
//! layer's output so a driver that skips work cannot look fast.

use cais_core::{merge::Waiter, MergeConfig, MergeUnit};
use gpu_sim::{GpuConfig, GpuSim, KernelDesc, TbDesc};
use noc_sim::{Fabric, FabricConfig, FlowClass, Payload, PureRouter};
use sim_core::{Addr, EventQueue, GpuId, KernelId, PlaneId, SimDuration, SimTime, TbId};
use std::hint::black_box;
use std::time::Instant;

/// GPUs in the `tp32-cais` system.
const GPUS: usize = 32;
/// Switch planes of the DGX-H100 configuration.
const PLANES: usize = 4;
/// Repetitions of each driver loop; the median is reported.
const REPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Times `body` (which returns its unit count) `REPS` times and returns
/// the median nanoseconds per unit.
fn ns_per_unit(mut body: impl FnMut() -> u64) -> f64 {
    let samples = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let units = body();
            t0.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(samples)
}

/// splitmix64: a deterministic stream for driver inputs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `EventQueue` hold model: a queue kept at `depth` pending events (about
/// the `tp32-cais` queue peak), where each pop schedules one event a
/// random distance ahead. Nanoseconds per push or pop.
pub fn queue_ns_per_op(depth: u64) -> f64 {
    const HOLDS: u64 = 1_000_000;
    const HORIZON_PS: u64 = 20_000_000;
    ns_per_unit(|| {
        let mut rng = 7;
        let mut q = EventQueue::new();
        for i in 0..depth {
            q.push(SimTime::from_ps(mix(&mut rng) % HORIZON_PS), i);
        }
        for i in 0..HOLDS {
            let (t, v) = q.pop().expect("queue holds `depth` events");
            black_box(v);
            q.push(SimTime::from_ps(t.as_ps() + mix(&mut rng) % HORIZON_PS), i);
        }
        let mut drained = 0;
        while q.pop().is_some() {
            drained += 1;
        }
        assert_eq!(drained, depth, "queue lost events");
        2 * HOLDS + depth * 2
    })
}

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

/// `Fabric::inject` + `run_to_completion` on the 32-GPU fabric: every
/// GPU sends one 8 KiB packet per round to a rotating peer, plane by
/// plane. Nanoseconds per packet.
pub fn inject_ns_per_packet() -> f64 {
    const ROUNDS: u64 = 2_000;
    ns_per_unit(|| {
        let mut fabric = Fabric::new(FabricConfig::default_for(GPUS, PLANES), PureRouter);
        let n = GPUS as u64;
        for r in 0..ROUNDS {
            for src in 0..n {
                let dst = (src + 1 + r % (n - 1)) % n;
                fabric.inject(
                    SimTime::from_ns(r * 20),
                    GpuId(src as u16),
                    GpuId(dst as u16),
                    PlaneId((r % PLANES as u64) as u16),
                    Blob(8192),
                );
            }
        }
        fabric.run_to_completion();
        let delivered = fabric.drain_deliveries().len() as u64;
        assert_eq!(delivered, ROUNDS * n, "fabric lost packets");
        delivered
    })
}

/// `GpuSim` thread-block dispatch: one kernel with as many compute-only
/// TBs as one `tp32-cais` GPU runs (about 647k TBs over 32 GPUs), run to
/// idle. Nanoseconds per TB.
pub fn dispatch_ns_per_tb() -> f64 {
    const TBS: u64 = 20_000;
    ns_per_unit(|| {
        let mut gpu = GpuSim::new(GpuConfig::h100_half(), 7);
        let tbs: Vec<TbDesc> = (0..TBS)
            .map(|i| TbDesc::compute_only(TbId(i), i, SimDuration::from_ns(500 + i % 1000)))
            .collect();
        gpu.launch_kernel(SimTime::ZERO, KernelDesc::new(KernelId(0), "k", tbs));
        while let Some(t) = gpu.next_time() {
            gpu.advance(t);
        }
        black_box(gpu.drain_effects().len());
        assert!(gpu.is_idle(), "GPU did not finish its TBs");
        TBS
    })
}

/// `MergeUnit::on_load_req` / `on_load_resp` with 32-way merging: the 31
/// peers of a home GPU load each of its tiles, then the data returns.
/// Nanoseconds per load request.
pub fn merge_ns_per_req() -> f64 {
    const ADDRS: u64 = 4_000;
    ns_per_unit(|| {
        let mut merge = MergeUnit::new(MergeConfig::paper_default(GPUS));
        let mut out = Vec::new();
        for i in 0..ADDRS {
            let home = GpuId((i % GPUS as u64) as u16);
            let plane = PlaneId((i % PLANES as u64) as u16);
            let addr = Addr::new(home, i * 8192);
            for g in (0..GPUS as u16).filter(|&g| g != home.0) {
                merge.on_load_req(
                    SimTime::from_ns(i * 100 + g as u64),
                    plane,
                    addr,
                    8192,
                    Waiter {
                        requester: GpuId(g),
                        tb: TbId(i * GPUS as u64 + g as u64),
                        tile: None,
                    },
                    &mut out,
                );
            }
            merge.on_load_resp(SimTime::from_ns(i * 100 + 90), plane, addr, 8192, &mut out);
            out.clear();
        }
        let stats = merge.stats();
        let requests = ADDRS * (GPUS as u64 - 1);
        assert_eq!(stats.load_requests, requests, "merge unit lost requests");
        assert!(stats.loads_merged > 0, "no request merged");
        requests
    })
}
