//! Explore the switch Merging Table design space: capacity and TB
//! coordination, on one communication-heavy sub-layer. Table sizes are
//! on the paper's axis (KB of 128 B entries), mapped to the same entry
//! count at the simulator's packet granularity, as in Fig. 14.
//!
//! ```text
//! cargo run --release --example merge_table_explorer
//! ```

use cais::core::strategies::{paper_kb_to_bytes, DEFAULT_PACKET_BYTES};
use cais::core::{CaisStrategy, CoordinationOpts};
use cais::engine::{strategy::execute, SystemConfig};
use cais::llm_workload::{sublayer, ModelConfig, SubLayer};

fn main() {
    let cfg = SystemConfig::dgx_h100();
    let model = ModelConfig {
        hidden: 2048,
        ffn_hidden: 5632,
        heads: 16,
        seq_len: 1536,
        batch: 2,
        ..ModelConfig::llama_7b()
    };
    let dfg = sublayer(&model, cfg.tp(), SubLayer::L2);
    println!(
        "sub-layer L2 on a scaled LLaMA config (hidden {})\n",
        model.hidden
    );

    println!(
        "{:>9} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "table", "coordination", "time", "merged%", "evictions", "peak KB"
    );
    for kb in [2u64, 5, 10, 40, 160] {
        for (coord_name, opts) in [
            ("full", CoordinationOpts::full()),
            ("none", CoordinationOpts::none()),
        ] {
            let strategy = CaisStrategy::full()
                .with_coordination(coord_name, opts)
                .with_merge_table(Some(paper_kb_to_bytes(kb, DEFAULT_PACKET_BYTES)));
            let r = execute(&strategy, &dfg, &cfg).expect("run completes");
            let reqs = r.stat("cais.load_requests").unwrap_or(0.0)
                + r.stat("cais.reduce_contribs").unwrap_or(0.0);
            let merged = r.stat("cais.loads_merged").unwrap_or(0.0)
                + (r.stat("cais.reduce_contribs").unwrap_or(0.0)
                    - r.stat("cais.reduce_flushes").unwrap_or(0.0));
            let evictions = r.stat("cais.evictions_lru").unwrap_or(0.0)
                + r.stat("cais.evictions_timeout").unwrap_or(0.0);
            println!(
                "{:>7}KB {:>14} {:>12} {:>9.1}% {:>10} {:>10.1}",
                kb,
                coord_name,
                r.total.to_string(),
                100.0 * merged / reqs.max(1.0),
                evictions,
                r.stat("cais.peak_port_occupancy").unwrap_or(0.0) / 1024.0,
            );
        }
    }
    println!("\n(the paper's Fig. 14: coordination keeps small tables effective; without\n it, evictions force re-fetches and partial flushes, degrading performance)");
}
