//! The host-side offload mechanism (§6).
//!
//! Workloads originate on a host processor and are dispatched to near-data
//! processors by shipping each thread's register context through the
//! crossbar into a reserved region of memory next to the target core. The
//! near-memory processor then fetches contexts from that region when the
//! threads are first scheduled. Functionally this is a set of writes into
//! the region; the timing cost on the near-memory side (the fills) is
//! modelled by the context engines.

use virec_core::{Core, CoreConfig, OracleSchedule, RegRegion};
use virec_isa::FlatMem;
use virec_mem::PortId;
use virec_workloads::Workload;

/// Writes the initial data segment and all thread contexts for `workload`
/// into memory, and returns the core's register region.
pub fn offload(mem: &mut FlatMem, workload: &Workload, nthreads: usize) -> RegRegion {
    let region = RegRegion::new(workload.layout.region_base, nthreads);
    workload.init_mem(mem);
    for tid in 0..nthreads {
        for (reg, value) in workload.thread_ctx(tid, nthreads) {
            mem.write_u64(region.reg_addr(tid, reg), value);
        }
    }
    region
}

/// The fabric ports of the icache and dcache of the core in machine slot
/// `slot`.
pub(crate) fn core_ports(slot: usize) -> [PortId; 2] {
    [2 * slot, 2 * slot + 1]
}

/// Offloads `workload` into `mem` and builds the core that runs it in
/// machine slot `slot`, on the fabric ports of [`core_ports`]. Every
/// driver loads its cores here, so the slot rule is stated once; its
/// contexts sit in the region the workload's layout places for that slot.
pub(crate) fn load_core(
    mem: &mut FlatMem,
    slot: usize,
    cfg: CoreConfig,
    workload: &Workload,
    oracle: OracleSchedule,
) -> Core {
    let region = offload(mem, workload, cfg.nthreads);
    Core::with_oracle(
        cfg,
        workload.program().clone(),
        region,
        workload.layout.code_base,
        core_ports(slot).into(),
        oracle,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_workloads::{kernels, Layout};

    #[test]
    fn offload_writes_contexts() {
        let layout = Layout::for_core(0);
        let w = kernels::spatter::gather(64, layout);
        let mut mem = FlatMem::new(0, virec_workloads::layout::mem_size(1));
        let region = offload(&mut mem, &w, 4);
        // Every thread's loop bound must be in its context slot.
        for t in 0..4 {
            let bound_addr = region.reg_addr(t, virec_isa::reg::names::X4);
            assert_eq!(mem.read_u64(bound_addr), 64);
        }
    }
}
