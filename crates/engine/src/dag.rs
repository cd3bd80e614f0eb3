//! The kernel DAG: which kernels wait on which, and when each ran.

use crate::program::PlannedKernel;
use crate::report::KernelSpan;
use sim_core::{AuditProbe, DenseMap, GpuId, KernelId, SimTime};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The program's kernels, held until their dependencies complete, and the
/// span of every launched kernel.
#[derive(Debug)]
pub(crate) struct KernelDag {
    /// Kernels in program order; taken at launch.
    pending: Vec<Option<PlannedKernel>>,
    /// Per kernel, its dependencies that have not completed yet.
    dep_remaining: Vec<usize>,
    /// The program positions of the kernels that wait on each kernel.
    children: DenseMap<KernelId, Vec<usize>>,
    /// Kernels not yet completed.
    remaining: usize,
    spans: BTreeMap<KernelId, KernelSpan>,
}

impl KernelDag {
    /// The DAG of `kernels`, whose `after` lists name only kernels in
    /// `kernels` (as a validated program's do).
    pub(crate) fn new(kernels: Vec<PlannedKernel>) -> KernelDag {
        let mut children: DenseMap<KernelId, Vec<usize>> = DenseMap::new();
        for (i, k) in kernels.iter().enumerate() {
            for dep in &k.after {
                children.get_or_default(*dep).push(i);
            }
        }
        KernelDag {
            dep_remaining: kernels.iter().map(|k| k.after.len()).collect(),
            remaining: kernels.len(),
            pending: kernels.into_iter().map(Some).collect(),
            children,
            spans: BTreeMap::new(),
        }
    }

    /// Positions of the kernels that depend on nothing, ascending.
    pub(crate) fn roots(&self) -> Vec<usize> {
        (0..self.dep_remaining.len())
            .filter(|&i| self.dep_remaining[i] == 0)
            .collect()
    }

    /// Takes kernel `idx` for launch at `now` and opens its span.
    ///
    /// # Panics
    ///
    /// Panics if the kernel was already launched.
    pub(crate) fn launch(&mut self, now: SimTime, idx: usize) -> PlannedKernel {
        let planned = self.pending[idx].take().expect("kernel launched twice");
        let span = KernelSpan {
            name: Arc::clone(&planned.desc.body.name),
            gpu: planned.gpu,
            start: now,
            end: now,
        };
        self.spans.insert(planned.desc.id, span);
        planned
    }

    /// Closes `kernel`'s span at `now` and returns the positions of the
    /// kernels that now have every dependency met, in the order they
    /// listed `kernel`.
    pub(crate) fn complete(&mut self, now: SimTime, kernel: KernelId) -> Vec<usize> {
        if let Some(span) = self.spans.get_mut(&kernel) {
            span.end = now;
        }
        self.remaining -= 1;
        let mut ready = self.children.remove(kernel).unwrap_or_default();
        ready.retain(|&idx| {
            self.dep_remaining[idx] -= 1;
            self.dep_remaining[idx] == 0
        });
        ready
    }

    /// Kernels not yet completed.
    pub(crate) fn remaining(&self) -> usize {
        self.remaining
    }

    /// Lists the DAG's one counter.
    pub(crate) fn audit_probe(&self, probe: &mut AuditProbe) {
        probe.counter("engine.kernels_remaining", self.remaining as f64);
    }

    /// Names up to 12 stuck kernels: the unlaunched ones, then the
    /// launched ones `pending(gpu, kernel)` says have not completed.
    pub(crate) fn stuck(&self, pending: impl Fn(GpuId, KernelId) -> bool) -> Vec<String> {
        self.pending
            .iter()
            .flatten()
            .map(|k| format!("unlaunched {} on {}", k.desc.body.name, k.gpu))
            .chain(
                self.spans
                    .iter()
                    .filter(|&(&id, s)| pending(s.gpu, id))
                    .map(|(id, s)| format!("incomplete {id} {} on {}", s.name, s.gpu)),
            )
            .take(12)
            .collect()
    }

    /// The spans of every launched kernel.
    pub(crate) fn into_spans(self) -> BTreeMap<KernelId, KernelSpan> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{KernelDesc, TbDesc};
    use sim_core::{SimDuration, TbId};

    fn kernel(id: u32, after: &[u32]) -> PlannedKernel {
        PlannedKernel {
            gpu: GpuId(id as u16 % 2),
            desc: KernelDesc::new(
                KernelId(id),
                format!("k{id}"),
                vec![TbDesc::compute_only(
                    TbId(id as u64),
                    0,
                    SimDuration::from_us(1),
                )],
            ),
            after: after.iter().map(|&k| KernelId(k)).collect(),
        }
    }

    #[test]
    fn a_kernel_launches_once_its_last_dependency_completes() {
        // k0 and k1 are roots; k2 waits on both, k3 on k2.
        let mut dag = KernelDag::new(vec![
            kernel(0, &[]),
            kernel(1, &[]),
            kernel(2, &[0, 1]),
            kernel(3, &[2]),
        ]);
        assert_eq!(dag.roots(), vec![0, 1]);
        for idx in dag.roots() {
            dag.launch(SimTime::ZERO, idx);
        }
        assert!(dag.complete(SimTime::from_us(1), KernelId(0)).is_empty());
        assert_eq!(dag.complete(SimTime::from_us(2), KernelId(1)), vec![2]);
        assert_eq!(dag.remaining(), 2);
        dag.launch(SimTime::from_us(2), 2);
        assert_eq!(dag.complete(SimTime::from_us(5), KernelId(2)), vec![3]);
        let spans = dag.into_spans();
        assert_eq!(spans.len(), 3, "k3 never launched");
        let k2 = &spans[&KernelId(2)];
        assert_eq!(
            (k2.start, k2.end),
            (SimTime::from_us(2), SimTime::from_us(5))
        );
    }

    #[test]
    fn stuck_kernels_are_named_unlaunched_first() {
        let mut dag = KernelDag::new(vec![kernel(0, &[]), kernel(1, &[0]), kernel(2, &[])]);
        dag.launch(SimTime::ZERO, 0);
        dag.launch(SimTime::ZERO, 2);
        dag.complete(SimTime::from_us(1), KernelId(2));
        // Only k0 is still running on its GPU.
        let stuck = dag.stuck(|gpu, k| gpu == GpuId(0) && k == KernelId(0));
        assert_eq!(stuck, ["unlaunched k1 on gpu1", "incomplete k0 k0 on gpu0"]);
        let mut probe = AuditProbe::new(sim_core::AuditPhase::Cadence);
        dag.audit_probe(&mut probe);
        assert_eq!(probe.counters(), [("engine.kernels_remaining", 2.0)]);
    }

    #[test]
    #[should_panic(expected = "launched twice")]
    fn launching_a_kernel_twice_panics() {
        let mut dag = KernelDag::new(vec![kernel(0, &[])]);
        dag.launch(SimTime::ZERO, 0);
        dag.launch(SimTime::ZERO, 0);
    }
}
