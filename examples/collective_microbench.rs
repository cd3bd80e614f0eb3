//! Collective-transport microbenchmark: ring vs. NVLS AllReduce /
//! AllGather / ReduceScatter across message sizes on the simulated
//! DGX-H100 fabric.
//!
//! ```text
//! cargo run --release --example collective_microbench
//! ```

use cais::engine::{IdAlloc, Program, SystemConfig, SystemSim};
use cais::noc_sim::PureRouter;
use cais::nvls::{
    nvls_all_gather, nvls_all_reduce, nvls_reduce_scatter, ring_all_gather, ring_all_reduce,
    ring_reduce_scatter, Collective, NvlsLogic,
};
use cais::sim_core::SimDuration;

fn run_collective(lower: Collective, bytes: u64, nvls: bool) -> SimDuration {
    let mut cfg = SystemConfig::dgx_h100();
    cfg.gpu.dispatch_jitter = SimDuration::from_us(1);
    cfg.gpu.launch_skew = SimDuration::from_us(2);
    let mut prog = Program::new();
    let mut ids = IdAlloc::new(cfg.n_gpus);
    lower(&mut prog, &mut ids, &cfg, "coll", bytes, &[], None);
    let n = cfg.n_gpus;
    let report = if nvls {
        SystemSim::new(cfg, prog, NvlsLogic::new(n)).run()
    } else {
        SystemSim::new(cfg, prog, PureRouter).run()
    };
    report.expect("run completes").total
}

fn main() {
    println!("collective transport on 8 GPUs, 450 GB/s/dir per GPU (4 planes)\n");
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>9}",
        "size", "collective", "ring", "NVLS", "speedup"
    );
    let cases: Vec<(&str, Collective, Collective)> = vec![
        ("AllReduce", ring_all_reduce, nvls_all_reduce),
        ("AllGather", ring_all_gather, nvls_all_gather),
        ("ReduceScatter", ring_reduce_scatter, nvls_reduce_scatter),
    ];
    for mb in [8u64, 32, 128] {
        let bytes = mb << 20;
        for (name, ring, nvls) in &cases {
            let t_ring = run_collective(*ring, bytes, false);
            let t_nvls = run_collective(*nvls, bytes, true);
            println!(
                "{:>6}MB {:>14} {:>12} {:>12} {:>8.2}x",
                mb,
                name,
                t_ring.to_string(),
                t_nvls.to_string(),
                t_ring.as_secs_f64() / t_nvls.as_secs_f64()
            );
        }
    }
    println!("\n(the paper cites 2-8x NVLS gains for collective primitives; gains grow\n with message size as latency amortizes and the volume advantage dominates)");
}
