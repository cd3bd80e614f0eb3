//! The GPUs and the wake index: each GPU's next event time in one array,
//! refreshed only for the GPUs a step touched.

use gpu_sim::GpuSim;
use sim_core::{AuditProbe, GpuId, SimTime};

/// The system's GPUs. Every `&mut GpuSim` comes from [`GpuSet::get_mut`],
/// which marks the GPU touched: only a touched GPU can have gained effects
/// or moved its next event, so the engine drains and re-reads those alone.
pub(crate) struct GpuSet {
    sims: Vec<GpuSim>,
    /// Each GPU's next event time as of its last refresh; `SimTime::MAX`
    /// when it had none.
    wake: Vec<SimTime>,
    /// One bit per GPU handed out mutably since the last refresh.
    touched: Vec<u64>,
}

impl GpuSet {
    /// The set of `sims`, none of which has an event yet.
    pub(crate) fn new(sims: Vec<GpuSim>) -> GpuSet {
        let n = sims.len();
        GpuSet {
            sims,
            wake: vec![SimTime::MAX; n],
            touched: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn get(&self, gpu: GpuId) -> &GpuSim {
        &self.sims[gpu.index()]
    }

    /// The GPU, marked touched.
    pub(crate) fn get_mut(&mut self, gpu: GpuId) -> &mut GpuSim {
        let i = gpu.index();
        self.touched[i / 64] |= 1 << (i % 64);
        &mut self.sims[i]
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, GpuSim> {
        self.sims.iter()
    }

    /// Lists the GPUs' counters, summed over GPUs.
    pub(crate) fn audit_probe(&self, probe: &mut AuditProbe) {
        let dormant: u64 = self.sims.iter().map(GpuSim::dormant_dispatches).sum();
        probe.counter("engine.dormant_dispatches", dormant as f64);
    }

    /// The lowest-indexed touched GPU at or after `from`.
    pub(crate) fn next_touched(&self, from: usize) -> Option<GpuId> {
        let mut w = from / 64;
        let mut bits = *self.touched.get(w)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(GpuId((w * 64 + bits.trailing_zeros() as usize) as u16));
            }
            w += 1;
            bits = *self.touched.get(w)?;
        }
    }

    /// Re-reads the wake time of every touched GPU and clears the marks.
    /// Call once no GPU has effects left.
    pub(crate) fn refresh(&mut self) {
        let mut next = self.next_touched(0);
        while let Some(gpu) = next {
            let i = gpu.index();
            self.wake[i] = self.sims[i].next_time().unwrap_or(SimTime::MAX);
            next = self.next_touched(i + 1);
        }
        self.touched.fill(0);
        if cfg!(debug_assertions) {
            for (i, sim) in self.sims.iter().enumerate() {
                assert!(!sim.has_effects(), "gpu{i} holds undrained effects");
                assert_eq!(
                    self.wake[i],
                    sim.next_time().unwrap_or(SimTime::MAX),
                    "gpu{i}'s next event moved while it was not marked touched"
                );
            }
        }
    }

    /// The earliest wake time, with the GPUs due then in `due`,
    /// ascending; `None` when no GPU has an event.
    pub(crate) fn earliest(&self, due: &mut Vec<GpuId>) -> Option<SimTime> {
        due.clear();
        let mut t = SimTime::MAX;
        for (i, &w) in self.wake.iter().enumerate() {
            if w > t || w == SimTime::MAX {
                continue;
            }
            if w < t {
                t = w;
                due.clear();
            }
            due.push(GpuId(i as u16));
        }
        (t != SimTime::MAX).then_some(t)
    }
}
