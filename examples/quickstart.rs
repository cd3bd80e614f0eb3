//! Quickstart: run one communication-heavy sub-layer under CAIS and
//! under the NVLS baseline, and print what the switch did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cais::baselines::BaselineStrategy;
use cais::core::CaisStrategy;
use cais::engine::{strategy::execute, SystemConfig};
use cais::llm_workload::{sublayer, ModelConfig, SubLayer};

fn main() {
    // The paper's main setup: 8 half-scale H100s on a 4-plane NVSwitch
    // fabric, LLaMA-7B dimensions (Table I).
    let cfg = SystemConfig::dgx_h100();
    let model = ModelConfig::llama_7b();

    // L1: output projection -> ReduceScatter -> LayerNorm -> AllGather ->
    // first FFN GEMM. This is the pattern CAIS fuses end-to-end.
    let dfg = sublayer(&model, cfg.tp(), SubLayer::L1);
    println!(
        "workload: {} sub-layer L1  ({} nodes, {:.1} GFLOP/GPU, {} MB of collectives)",
        model.name,
        dfg.len(),
        dfg.total_flops() / 1e9,
        dfg.total_collective_bytes() >> 20,
    );

    let nvls = execute(&BaselineStrategy::sp_nvls(), &dfg, &cfg).expect("run completes");
    println!("\nSP-NVLS (communication-centric in-switch computing):");
    println!("  end-to-end      {}", nvls.total);
    println!("  SM occupancy    {:.1}%", nvls.mean_occupancy() * 100.0);
    println!(
        "  link util       {:.1}%",
        nvls.fabric.mean_utilization() * 100.0
    );

    let cais = execute(&CaisStrategy::full(), &dfg, &cfg).expect("run completes");
    println!("\nCAIS (compute-aware in-switch computing):");
    println!("  end-to-end      {}", cais.total);
    println!("  SM occupancy    {:.1}%", cais.mean_occupancy() * 100.0);
    println!(
        "  link util       {:.1}%",
        cais.fabric.mean_utilization() * 100.0
    );
    println!(
        "  merged loads    {} of {} requests",
        cais.stat("cais.loads_merged").unwrap_or(0.0),
        cais.stat("cais.load_requests").unwrap_or(0.0),
    );
    println!(
        "  reduce contribs {} merged into {} downstream writes",
        cais.stat("cais.reduce_contribs").unwrap_or(0.0),
        cais.stat("cais.reduce_flushes").unwrap_or(0.0),
    );
    if let Some(spread) = cais.stat("cais.mean_spread_us") {
        println!("  request spread  {spread:.3}us (TB coordination at work)");
    }

    println!(
        "\n=> CAIS speedup over SP-NVLS: {:.2}x",
        cais.speedup_over(&nvls)
    );
}
