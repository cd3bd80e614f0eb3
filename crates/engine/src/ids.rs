//! Central id and address allocation for program lowering.

use sim_core::{Addr, GpuId, GroupId, KernelId, TbId, TileId};

/// Allocates globally unique kernel/TB/tile/group ids and per-GPU
/// addresses during lowering.
///
/// One allocator per lowered [`Program`](crate::Program); strategies pass
/// it through their lowering helpers so ids never collide across kernels.
#[derive(Debug, Clone)]
pub struct IdAlloc {
    next_kernel: u32,
    next_tb: u64,
    next_tile: u64,
    next_group: u32,
    heap: Vec<u64>,
}

impl IdAlloc {
    /// Creates an allocator for a system with `n_gpus` GPUs.
    pub fn new(n_gpus: usize) -> IdAlloc {
        IdAlloc {
            next_kernel: 0,
            next_tb: 0,
            next_tile: 0,
            next_group: 0,
            heap: vec![0; n_gpus],
        }
    }

    /// Fresh kernel id.
    pub fn kernel(&mut self) -> KernelId {
        let id = KernelId(self.next_kernel);
        self.next_kernel += 1;
        id
    }

    /// Fresh run of `n` consecutive thread-block ids; returns the first.
    pub fn tbs(&mut self, n: usize) -> TbId {
        let first = TbId(self.next_tb);
        self.next_tb += n as u64;
        first
    }

    /// Fresh tile id.
    pub fn tile(&mut self) -> TileId {
        let id = TileId(self.next_tile);
        self.next_tile += 1;
        id
    }

    /// Fresh TB-group id.
    pub fn group(&mut self) -> GroupId {
        let id = GroupId(self.next_group);
        self.next_group += 1;
        id
    }

    /// Allocates `bytes` of address space on `gpu`, 128-byte aligned.
    ///
    /// # Panics
    ///
    /// Panics if `gpu` is out of range for this allocator.
    pub fn addr(&mut self, gpu: GpuId, bytes: u64) -> Addr {
        let heap = &mut self.heap[gpu.index()];
        let aligned = (*heap + 127) & !127;
        *heap = aligned + bytes;
        Addr::new(gpu, aligned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let mut a = IdAlloc::new(2);
        assert_eq!(a.kernel(), KernelId(0));
        assert_eq!(a.kernel(), KernelId(1));
        assert_eq!(a.tbs(3), TbId(0));
        assert_eq!(a.tbs(1), TbId(3));
        assert_eq!(a.tile(), TileId(0));
        assert_eq!(a.tile(), TileId(1));
        assert_eq!(a.group(), GroupId(0));
    }

    #[test]
    fn addresses_are_aligned_and_disjoint() {
        let mut a = IdAlloc::new(2);
        let x = a.addr(GpuId(0), 100);
        let y = a.addr(GpuId(0), 100);
        assert_eq!(x.offset() % 128, 0);
        assert_eq!(y.offset() % 128, 0);
        assert!(y.offset() >= x.offset() + 100);
        // Different GPUs have independent heaps.
        let z = a.addr(GpuId(1), 100);
        assert_eq!(z.offset(), 0);
        assert_eq!(z.home_gpu(), GpuId(1));
    }
}
