//! The lowered program representation executed by [`SystemSim`](crate::SystemSim).

use gpu_sim::KernelDesc;
use sim_core::{DenseMap, GpuId, GroupId, KernelId, TbId, TileId};
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
        self.kernels.iter().map(|k| k.desc.body.tbs.len()).sum()
    }

    /// Checks id uniqueness and dependency sanity.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate(&self) -> Result<(), ProgramError> {
        // Kernel ids come densely from `IdAlloc`, so a flat table replaces
        // hashing.
        let mut index: DenseMap<KernelId, usize> = DenseMap::with_capacity(self.kernels.len());
        for (i, k) in self.kernels.iter().enumerate() {
            if index.insert(k.desc.id, i).is_some() {
                return Err(ProgramError::DuplicateKernel(k.desc.id));
            }
        }
        // Each kernel's TB ids are one range, so they are unique when the
        // ranges are disjoint: sorted by start, each ends by the next's.
        let mut ranges: Vec<(u64, u64)> = self
            .kernels
            .iter()
            .map(|k| (k.desc.first_tb.0, k.desc.body.tbs.len() as u64))
            .filter(|&(_, n)| n > 0)
            .collect();
        ranges.sort_unstable();
        if let Some(w) = ranges.windows(2).find(|w| w[1].0 < w[0].0 + w[0].1) {
            return Err(ProgramError::DuplicateTb(TbId(w[1].0)));
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

    /// Kernel `id` with `n` TBs, ids `tb0..tb0 + n`.
    fn kernel_of(id: u32, tb0: u64, n: u64, after: Vec<KernelId>) -> PlannedKernel {
        let tbs = (tb0..tb0 + n)
            .map(|tb| TbDesc::compute_only(TbId(tb), 0, SimDuration::from_us(1)))
            .collect();
        PlannedKernel {
            gpu: GpuId(0),
            desc: KernelDesc::new(KernelId(id), format!("k{id}"), tbs),
            after,
        }
    }

    fn kernel(id: u32, tb0: u64, after: Vec<KernelId>) -> PlannedKernel {
        kernel_of(id, tb0, 1, after)
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
        // TBs 4..8, then 6..9: ids 6 and 7 are in both ranges.
        let mut p = Program::new();
        p.push(kernel_of(0, 4, 4, vec![]));
        p.push(kernel_of(1, 6, 3, vec![]));
        assert_eq!(p.validate(), Err(ProgramError::DuplicateTb(TbId(6))));
        // A range inside an earlier, longer one.
        let mut p = Program::new();
        p.push(kernel_of(0, 10, 2, vec![]));
        p.push(kernel_of(1, 0, 10, vec![]));
        p.push(kernel_of(2, 2, 1, vec![]));
        assert_eq!(p.validate(), Err(ProgramError::DuplicateTb(TbId(2))));
        // Adjacent ranges are fine, and an empty kernel overlaps nothing.
        let mut p = Program::new();
        p.push(kernel_of(0, 0, 4, vec![]));
        p.push(kernel_of(1, 4, 0, vec![]));
        p.push(kernel_of(2, 4, 2, vec![]));
        assert_eq!(p.validate(), Ok(()));
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
