//! Golden digest of lowered programs: every roster strategy on the
//! smoke-scale LLaMA-7B layer at 8 GPUs, in both TP layouts and both
//! passes, plus CAIS-full on three bare `LayerNorm -> collective` graphs
//! (transformer layers never reach CAIS's standalone-collective path).
//!
//! The result goldens pin simulated outcomes; this one pins the lowering
//! itself, so a refactor that permutes TB ids, reorders kernels or drops
//! a ready entry shows here even when timing happens not to move. Each
//! line carries the kernel and TB counts, the number of non-empty ready
//! dependency lists, the sizes of the expected-contribution and
//! group-size maps, and an FNV-1a 64 hash of a canonical text rendering:
//! kernels in push order (GPU, id, name, flags, `after`), every TB (id,
//! order key, group, pre-launch flag, phases with their memory ops, and
//! its dependency list when non-empty) and the two maps sorted by key.
//! The `shape=` hash is the same rendering with each TB's id replaced by
//! its position in its kernel, so a change that only renumbers TBs moves
//! `fnv=` and leaves `shape=` alone.
//!
//! If an intentional lowering change moves the digest, regenerate it with
//! `LOWERING_GOLDEN_PRINT=1 cargo test -p cais-harness --test golden_lowering -- --nocapture`
//! and justify the diff in the change description.

use cais_core::CaisStrategy;
use cais_engine::{Program, Strategy, SystemConfig};
use cais_harness::runner::{roster, Scale};
use gpu_sim::Phase;
use llm_workload::{transformer_layer, CollKind, Dfg, ModelConfig, NodeKind, Pass, TpMode};
use sim_core::TbId;
use std::fmt::Write as _;

/// FNV-1a 64 over everything written to it; stable across platforms and
/// toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Renders `prog` into `h`, naming each TB by its id or, with `shape`, by
/// its position in its kernel.
fn render(h: &mut Fnv, prog: &Program, shape: bool) -> std::fmt::Result {
    for k in &prog.kernels {
        let b = &k.desc.body;
        writeln!(
            h,
            "k {} {} {} fused={} ordered={} after={:?}",
            k.gpu, k.desc.id, b.name, b.fused_launch, b.ordered, k.after
        )?;
        for (i, (id, tb)) in k.desc.tb_ids().zip(b.tbs.iter()).enumerate() {
            let id = if shape { TbId(i as u64) } else { id };
            write!(
                h,
                " tb {} {} {:?} {}",
                id, tb.order_key, tb.group, tb.pre_launch_sync
            )?;
            for ph in tb.phases.iter() {
                match ph {
                    Phase::Compute(d) => write!(h, " C{}", d.as_ps())?,
                    Phase::IssueMem { ops, wait } => {
                        write!(h, " M{wait}[")?;
                        for o in ops.iter() {
                            write!(
                                h,
                                "{:?} {} {} {} {:?};",
                                o.kind, o.addr, o.bytes, o.cais, o.tile
                            )?;
                        }
                        write!(h, "]")?;
                    }
                    Phase::SyncGroup(kind) => write!(h, " S{kind:?}")?,
                    Phase::SignalTile(t) => write!(h, " T{t}")?,
                }
            }
            if let Some(deps) = k.desc.deps.get(i).filter(|d| !d.is_empty()) {
                write!(h, " r{deps:?}")?;
            }
            writeln!(h)?;
        }
    }
    let mut expected: Vec<_> = prog.tile_expected.iter().collect();
    expected.sort_unstable();
    for (t, n) in expected {
        writeln!(h, "e {t} {n}")?;
    }
    let mut groups: Vec<_> = prog.group_expected.iter().collect();
    groups.sort_unstable();
    for (g, n) in groups {
        writeln!(h, "g {g} {n}")?;
    }
    Ok(())
}

fn digest_line(label: &str, strategy: &dyn Strategy, dfg: &Dfg, base: &SystemConfig) -> String {
    let mut cfg = base.clone();
    strategy.tune(&mut cfg);
    let prog = strategy.lower(dfg, &cfg);
    let hash = |shape| {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        render(&mut h, &prog, shape).expect("hashing never fails");
        h.0
    };
    format!(
        "{label} kernels={} tbs={} ready={} tile_expected={} group_expected={} shape={:016x} fnv={:016x}\n",
        prog.kernels.len(),
        prog.total_tbs(),
        prog.kernels
            .iter()
            .flat_map(|k| k.desc.deps.iter())
            .filter(|d| !d.is_empty())
            .count(),
        prog.tile_expected.len(),
        prog.group_expected.len(),
        hash(true),
        hash(false)
    )
}

/// `LayerNorm -> kind` with no fusable neighbours.
fn bare_collective(kind: CollKind) -> Dfg {
    let (rows, cols) = (2048, 1024);
    let mut g = Dfg::new(2);
    let ln = g.add("ln", NodeKind::LayerNorm { rows, cols }, vec![]);
    g.add("coll", NodeKind::Collective { kind, rows, cols }, vec![ln]);
    g
}

#[test]
fn lowered_programs_match_golden_digest() {
    let model = Scale::Smoke.model(&ModelConfig::llama_7b());
    let cfg = Scale::Smoke.system();
    let mut got = String::new();
    for entry in roster() {
        let s = entry.strategy.as_ref();
        for mode in [TpMode::BasicTp, TpMode::SeqPar] {
            for pass in [Pass::Forward, Pass::Training] {
                let dfg = transformer_layer(&model, cfg.tp(), mode, pass);
                let label = format!("{}/{mode:?}/{pass:?}", s.name());
                got.push_str(&digest_line(&label, s, &dfg, &cfg));
            }
        }
    }
    for kind in [
        CollKind::ReduceScatter,
        CollKind::AllReduce,
        CollKind::AllGather,
    ] {
        let label = format!("CAIS/bare-{kind:?}");
        got.push_str(&digest_line(
            &label,
            &CaisStrategy::full(),
            &bare_collective(kind),
            &cfg,
        ));
    }
    if std::env::var_os("LOWERING_GOLDEN_PRINT").is_some() {
        print!("{got}");
    }
    assert_eq!(
        got,
        include_str!("golden/lowering_digest.txt"),
        "lowered programs drifted from the golden digest"
    );
}
