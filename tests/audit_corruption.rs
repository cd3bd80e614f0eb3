//! The auditor must be shown to actually catch bugs: deliberately skew a
//! conservation tally through a test-only ledger poke, run an otherwise
//! healthy simulation, and require a typed [`SimError::AuditViolation`]
//! whose forensic report names the offending subsystem and ledger.

use cais::core::{CaisLogic, MergeConfig};
use cais::engine::{IdAlloc, Program, SimError, SystemConfig, SystemSim};
use cais::gpu_sim::{KernelDesc, MemOp, MemOpKind, Phase, TbDesc};
use cais::noc_sim::PureRouter;
use cais::sim_core::{AuditPhase, GpuId, SimDuration};
use std::sync::Arc;

fn quiet_cfg(n_gpus: usize) -> SystemConfig {
    let mut cfg = SystemConfig::dgx_h100();
    cfg.n_gpus = n_gpus;
    cfg.n_planes = 1;
    cfg.fabric = cais::noc_sim::FabricConfig::default_for(n_gpus, 1);
    cfg.gpu.dispatch_jitter = SimDuration::ZERO;
    cfg.gpu.launch_skew = SimDuration::ZERO;
    cfg.gpu.compute_jitter = SimDuration::ZERO;
    cfg.audit.enabled = true;
    cfg
}

/// One remote load from GPU 0 against an address homed on GPU 1.
fn loader_program(ids: &mut IdAlloc, cais: bool) -> Program {
    let addr = ids.addr(GpuId(1), 4096);
    let tb = TbDesc {
        id: ids.tbs(1),
        order_key: 0,
        group: None,
        pre_launch_sync: false,
        phases: vec![Phase::IssueMem {
            ops: Arc::new([MemOp {
                kind: MemOpKind::RemoteLoad,
                addr,
                bytes: 4096,
                cais,
                tile: None,
            }]),
            wait: true,
        }],
    };
    let mut p = Program::new();
    p.push(cais::engine::program::PlannedKernel {
        gpu: GpuId(0),
        desc: KernelDesc::new(ids.kernel(), "loader", vec![tb]),
        after: vec![],
    });
    p
}

#[test]
fn corrupted_fabric_tally_yields_audit_violation_naming_fabric() {
    let mut ids = IdAlloc::new(2);
    let mut sim = SystemSim::new(quiet_cfg(2), loader_program(&mut ids, false), PureRouter);
    // Skew the packet-enqueue tally by one: the run itself is healthy, so
    // only the auditor can notice.
    sim.fabric_mut().audit_poke_pkt_enqueued();
    let err = sim
        .run()
        .expect_err("poked tally must fail the conservation audit");
    match &err {
        SimError::AuditViolation(report) => {
            assert!(
                report.violations.iter().any(|v| v.subsystem == "fabric"),
                "expected a fabric violation, got {report}"
            );
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.ledger.contains("pkt conservation")),
                "expected the packet-conservation ledger, got {report}"
            );
            let text = err.to_string();
            assert!(text.contains("[fabric]"), "{text}");
            assert!(text.contains("pkt conservation"), "{text}");
        }
        other => panic!("expected AuditViolation, got {other:?}"),
    }
}

/// The end-of-run quiescence check runs on every simulation, so a
/// skewed tally is caught even with cadence auditing switched off.
#[test]
fn quiescence_catches_a_poked_fabric_tally_with_auditing_off() {
    let mut cfg = quiet_cfg(2);
    cfg.audit.enabled = false;
    let mut ids = IdAlloc::new(2);
    let mut sim = SystemSim::new(cfg, loader_program(&mut ids, false), PureRouter);
    sim.fabric_mut().audit_poke_pkt_enqueued();
    match sim.run() {
        Err(SimError::AuditViolation(report)) => {
            assert_eq!(report.phase, AuditPhase::Quiescence, "{report}");
            assert!(
                report.violations.iter().any(|v| v.subsystem == "fabric"),
                "expected a fabric violation, got {report}"
            );
        }
        other => panic!("expected AuditViolation, got {other:?}"),
    }
}

#[test]
fn corrupted_merge_tally_yields_audit_violation_naming_merge() {
    let mut ids = IdAlloc::new(2);
    let logic = CaisLogic::new(
        2,
        MergeConfig {
            n_gpus: 2,
            table_bytes_per_port: None,
            entry_overhead_bytes: 16,
            timeout: SimDuration::from_ms(10),
            entry_fault_rate: 0.0,
            degrade_threshold: 8,
        },
    );
    let mut sim = SystemSim::new(quiet_cfg(2), loader_program(&mut ids, true), logic);
    sim.fabric_mut().logic_mut().audit_poke_sessions_opened();
    let err = sim
        .run()
        .expect_err("poked merge tally must fail the conservation audit");
    match &err {
        SimError::AuditViolation(report) => {
            assert!(
                report.violations.iter().any(|v| v.subsystem == "merge"),
                "expected a merge violation, got {report}"
            );
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.ledger.contains("session conservation")),
                "expected the session-conservation ledger, got {report}"
            );
        }
        other => panic!("expected AuditViolation, got {other:?}"),
    }
}

#[test]
fn healthy_run_passes_the_same_audit() {
    // Control: the identical program and audit configuration, without the
    // poke, completes cleanly — the violations above really do come from
    // the injected corruption.
    let mut ids = IdAlloc::new(2);
    SystemSim::new(quiet_cfg(2), loader_program(&mut ids, false), PureRouter)
        .run()
        .expect("healthy audited run completes");
}
