//! The lowered program representation executed by [`SystemSim`](crate::SystemSim).

use gpu_sim::KernelDesc;
use sim_core::{DenseMap, DenseSet, GpuId, GroupId, KernelId, TbId, TileId};
use std::collections::HashMap;

/// A kernel instance scheduled on one GPU with launch dependencies.
#[derive(Debug, Clone)]
pub struct PlannedKernel {
    /// GPU this kernel runs on.
    pub gpu: GpuId,
    /// The kernel (grid of TBs).
    pub desc: KernelDesc,
    /// Kernel ids (on any GPU) that must complete before launch. Listing
    /// all per-GPU instances of an operator models a global barrier;
    /// listing only the same-GPU instance models a local dependency.
    pub after: Vec<KernelId>,
}

/// A fully lowered multi-GPU program. Each kernel carries its TBs'
/// dispatch dependencies ([`KernelDesc::deps`]); the engine groups them
/// into gates by list content, so how a lowering shares lists cannot
/// change a result.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All kernel instances.
    pub kernels: Vec<PlannedKernel>,
    /// Reduction tiles needing more than one contribution before they
    /// count as present (e.g. `p` partial sums).
    pub tile_expected: HashMap<TileId, u32>,
    /// Expected sync participants per TB group (defaults to the GPU count
    /// when absent). Written by CAIS lowering; its `run` hands the map
    /// to the switch's sync table.
    pub group_expected: HashMap<GroupId, u32>,
}

/// Program validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// Two kernels share an id.
    DuplicateKernel(KernelId),
    /// Two TBs share an id.
    DuplicateTb(TbId),
    /// A dependency references an unknown kernel.
    UnknownDep(KernelId),
    /// The `after` relation has a cycle.
    DependencyCycle,
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::DuplicateKernel(k) => write!(f, "duplicate kernel id {k}"),
            ProgramError::DuplicateTb(tb) => write!(f, "duplicate thread block id {tb}"),
            ProgramError::UnknownDep(k) => write!(f, "dependency on unknown kernel {k}"),
            ProgramError::DependencyCycle => write!(f, "kernel dependency cycle"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a kernel instance; returns its id.
    pub fn push(&mut self, kernel: PlannedKernel) -> KernelId {
        let id = kernel.desc.id;
        self.kernels.push(kernel);
        id
    }

    /// Total TBs across all kernels.
    pub fn total_tbs(&self) -> usize {
        self.kernels.iter().map(|k| k.desc.tb_ids.len()).sum()
    }

    /// Checks id uniqueness and dependency sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        // IDs come densely from `IdAlloc`, so bitmaps and flat tables
        // replace hashing over every TB and kernel.
        let mut index: DenseMap<KernelId, usize> = DenseMap::with_capacity(self.kernels.len());
        let mut tbs: DenseSet<TbId> = DenseSet::with_capacity(self.total_tbs());
        for (i, k) in self.kernels.iter().enumerate() {
            if index.insert(k.desc.id, i).is_some() {
                return Err(ProgramError::DuplicateKernel(k.desc.id));
            }
            for &tb in &k.desc.tb_ids {
                if !tbs.insert(tb) {
                    return Err(ProgramError::DuplicateTb(tb));
                }
            }
        }
        // Kahn's algorithm over the `after` relation.
        let mut indeg: Vec<usize> = self.kernels.iter().map(|k| k.after.len()).collect();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.kernels.len()];
        for (i, k) in self.kernels.iter().enumerate() {
            for dep in &k.after {
                let Some(&parent) = index.get(*dep) else {
                    return Err(ProgramError::UnknownDep(*dep));
                };
                children[parent].push(i);
            }
        }
        let mut queue: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut seen = 0;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &c in &children[i] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if seen != self.kernels.len() {
            return Err(ProgramError::DependencyCycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::TbDesc;
    use sim_core::SimDuration;

    fn kernel(id: u32, tb0: u64, after: Vec<KernelId>) -> PlannedKernel {
        PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(
                KernelId(id),
                format!("k{id}"),
                vec![TbDesc::compute_only(TbId(tb0), 0, SimDuration::from_us(1))],
            ),
            after,
        }
    }

    #[test]
    fn valid_program() {
        let mut p = Program::new();
        let a = p.push(kernel(0, 0, vec![]));
        p.push(kernel(1, 1, vec![a]));
        assert!(p.validate().is_ok());
        assert_eq!(p.total_tbs(), 2);
    }

    #[test]
    fn duplicate_kernel_rejected() {
        let mut p = Program::new();
        p.push(kernel(0, 0, vec![]));
        p.push(kernel(0, 1, vec![]));
        assert_eq!(
            p.validate(),
            Err(ProgramError::DuplicateKernel(KernelId(0)))
        );
    }

    #[test]
    fn duplicate_tb_rejected() {
        let mut p = Program::new();
        p.push(kernel(0, 5, vec![]));
        p.push(kernel(1, 5, vec![]));
        assert_eq!(p.validate(), Err(ProgramError::DuplicateTb(TbId(5))));
    }

    #[test]
    fn unknown_dep_rejected() {
        let mut p = Program::new();
        p.push(kernel(0, 0, vec![KernelId(9)]));
        assert_eq!(p.validate(), Err(ProgramError::UnknownDep(KernelId(9))));
    }

    #[test]
    fn cycle_rejected() {
        let mut p = Program::new();
        p.push(kernel(0, 0, vec![KernelId(1)]));
        p.push(kernel(1, 1, vec![KernelId(0)]));
        assert_eq!(p.validate(), Err(ProgramError::DependencyCycle));
    }
}
