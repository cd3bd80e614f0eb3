//! Graph-level dataflow optimizer (paper Sec. III-C).
//!
//! Scans the logical dataflow graph for the producer/collective/consumer
//! chains CAIS can fuse — `GEMM → ReduceScatter → (LN | elementwise)* →
//! AllGather → GEMM` and `GEMM → AllReduce → ... → GEMM` — and emits a
//! [`FusionPlan`]. The CAIS lowering executes each [`Stage::Pipeline`]
//! with TB-level dependencies (consumer TBs launch as soon as their input
//! tiles exist) and overlaps the reduce-heavy producer with the
//! load-heavy consumer to balance the two link directions (asymmetric
//! kernel overlapping).

use llm_workload::{CollKind, Dfg, NodeId, NodeKind};
use std::collections::HashSet;

/// One scheduling unit of the fused program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stage {
    /// A fused `GEMM-RS [+ middle] [+ AG-GEMM]` pipeline.
    Pipeline {
        /// The GEMM producing distributed partials.
        producer: NodeId,
        /// The ReduceScatter or AllReduce it feeds.
        reduce: NodeId,
        /// Shard-local ops between reduce and gather.
        middle: Vec<NodeId>,
        /// The AllGather re-distributing the result, when present.
        gather: Option<NodeId>,
        /// The GEMM consuming the gathered/reduced data, when present.
        consumer: Option<NodeId>,
    },
    /// An AllGather directly feeding a GEMM (no preceding reduce in this
    /// graph fragment, e.g. at a layer entry).
    GatherGemm {
        /// The AllGather.
        gather: NodeId,
        /// The consuming GEMM.
        consumer: NodeId,
    },
    /// A node executed as its own kernel.
    Node(NodeId),
}

/// The optimizer's output: stages in topological order.
#[derive(Debug, Clone, Default)]
pub struct FusionPlan {
    /// Stages in execution order.
    pub stages: Vec<Stage>,
}

fn single_consumer(dfg: &Dfg, id: NodeId) -> Option<NodeId> {
    let consumers = dfg.consumers(id);
    if consumers.len() == 1 {
        Some(consumers[0])
    } else {
        None
    }
}

/// Builds the fusion plan for `dfg`.
///
/// Every node appears in exactly one stage; nodes that do not match a
/// fusable pattern become [`Stage::Node`]s.
pub fn plan(dfg: &Dfg) -> FusionPlan {
    let mut consumed: HashSet<NodeId> = HashSet::new();
    let mut stages = Vec::new();

    for id in dfg.ids() {
        if consumed.contains(&id) {
            continue;
        }
        match &dfg.node(id).kind {
            NodeKind::Gemm { .. } => {
                if let Some(stage) = try_pipeline(dfg, id, &mut consumed) {
                    stages.push(stage);
                    continue;
                }
                consumed.insert(id);
                stages.push(Stage::Node(id));
            }
            NodeKind::Collective {
                kind: CollKind::AllGather,
                ..
            } => {
                let c = dfg.consumers(id).into_iter().find(|c| {
                    matches!(dfg.node(*c).kind, NodeKind::Gemm { .. }) && !consumed.contains(c)
                });
                if let Some(c) = c {
                    consumed.insert(id);
                    consumed.insert(c);
                    stages.push(Stage::GatherGemm {
                        gather: id,
                        consumer: c,
                    });
                    continue;
                }
                consumed.insert(id);
                stages.push(Stage::Node(id));
            }
            _ => {
                consumed.insert(id);
                stages.push(Stage::Node(id));
            }
        }
    }
    FusionPlan { stages }
}

fn try_pipeline(dfg: &Dfg, gemm: NodeId, consumed: &mut HashSet<NodeId>) -> Option<Stage> {
    let reduce = single_consumer(dfg, gemm)?;
    let reduce_kind = match &dfg.node(reduce).kind {
        NodeKind::Collective { kind, .. }
            if matches!(kind, CollKind::ReduceScatter | CollKind::AllReduce) =>
        {
            *kind
        }
        _ => return None,
    };
    // Walk shard-local middle ops.
    let mut middle = Vec::new();
    let mut cur = reduce;
    while let Some(next) = single_consumer(dfg, cur) {
        match &dfg.node(next).kind {
            NodeKind::LayerNorm { .. } | NodeKind::Elementwise { .. } => {
                middle.push(next);
                cur = next;
            }
            _ => break,
        }
    }
    // Optional gather + consumer. A gather folds into the pipeline when
    // at least one GEMM consumes it; the *first* GEMM consumer becomes
    // the pipeline consumer (whose thread blocks issue the `ld.cais`
    // fetches), and any sibling consumers (e.g. weight-gradient GEMMs in
    // the backward pass) run as later stages reading the data the
    // fetchers already materialized. A gather with no GEMM consumer
    // stays a standalone stage so its traffic is never dropped.
    let (gather, consumer) = match single_consumer(dfg, cur) {
        Some(next) => match &dfg.node(next).kind {
            NodeKind::Collective {
                kind: CollKind::AllGather,
                ..
            } => {
                let c = dfg
                    .consumers(next)
                    .into_iter()
                    .find(|c| matches!(dfg.node(*c).kind, NodeKind::Gemm { .. }));
                if c.is_some() {
                    (Some(next), c)
                } else {
                    (None, None)
                }
            }
            NodeKind::Gemm { .. } if reduce_kind == CollKind::AllReduce => (None, Some(next)),
            _ => (None, None),
        },
        None => (None, None),
    };

    consumed.insert(gemm);
    consumed.insert(reduce);
    consumed.extend(middle.iter().copied());
    if let Some(g) = gather {
        consumed.insert(g);
    }
    if let Some(c) = consumer {
        consumed.insert(c);
    }
    Some(Stage::Pipeline {
        producer: gemm,
        reduce,
        middle,
        gather,
        consumer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm_workload::{sublayer, transformer_layer, ModelConfig, Pass, SubLayer, TpMode};

    /// Number of fused pipelines in `p`.
    fn pipeline_count(p: &FusionPlan) -> usize {
        p.stages
            .iter()
            .filter(|s| matches!(s, Stage::Pipeline { .. }))
            .count()
    }

    /// Every node id `p` covers, once per stage that names it.
    fn covered_nodes(p: &FusionPlan) -> Vec<NodeId> {
        let mut out = Vec::new();
        for s in &p.stages {
            match s {
                Stage::Pipeline {
                    producer,
                    reduce,
                    middle,
                    gather,
                    consumer,
                } => {
                    out.push(*producer);
                    out.push(*reduce);
                    out.extend(middle.iter().copied());
                    out.extend(gather.iter().copied());
                    out.extend(consumer.iter().copied());
                }
                Stage::GatherGemm { gather, consumer } => {
                    out.push(*gather);
                    out.push(*consumer);
                }
                Stage::Node(n) => out.push(*n),
            }
        }
        out
    }

    #[test]
    fn sublayer_fuses_into_one_pipeline() {
        let cfg = ModelConfig::llama_7b();
        for which in SubLayer::ALL {
            let g = sublayer(&cfg, 8, which);
            let p = plan(&g);
            assert_eq!(pipeline_count(&p), 1, "{}", which.label());
            let Stage::Pipeline {
                middle,
                gather,
                consumer,
                ..
            } = &p.stages[0]
            else {
                panic!("expected pipeline first");
            };
            assert_eq!(middle.len(), 1, "the LN sits in the middle");
            assert!(gather.is_some());
            assert!(consumer.is_some());
        }
    }

    #[test]
    fn plan_covers_every_node_exactly_once() {
        let cfg = ModelConfig::llama_7b();
        for mode in [TpMode::BasicTp, TpMode::SeqPar] {
            for pass in [Pass::Forward, Pass::Training] {
                let g = transformer_layer(&cfg, 8, mode, pass);
                let p = plan(&g);
                let mut covered = covered_nodes(&p);
                covered.sort();
                let expected: Vec<NodeId> = g.ids().collect();
                assert_eq!(covered, expected, "{mode:?}/{pass:?}");
            }
        }
    }

    #[test]
    fn sp_forward_finds_two_pipelines() {
        // attn.proj->rs->add1,ln2->ag->fc1 and fc2->rs->add2 (chain ends).
        let cfg = ModelConfig::llama_7b();
        let g = transformer_layer(&cfg, 8, TpMode::SeqPar, Pass::Forward);
        let p = plan(&g);
        assert_eq!(pipeline_count(&p), 2);
        // The layer-entry ln1 -> ag1 -> qkv shows up as GatherGemm.
        assert!(p
            .stages
            .iter()
            .any(|s| matches!(s, Stage::GatherGemm { .. })));
    }

    #[test]
    fn basic_tp_ar_gemm_fuses() {
        let cfg = ModelConfig::llama_7b();
        let g = transformer_layer(&cfg, 8, TpMode::BasicTp, Pass::Forward);
        let p = plan(&g);
        // attn.proj -> attn.ar -> add1, ln2 -> ffn.fc1 fuses as an
        // AR pipeline with a consumer.
        assert!(p.stages.iter().any(|s| matches!(
            s,
            Stage::Pipeline {
                gather: None,
                consumer: Some(_),
                ..
            }
        )));
    }
}
