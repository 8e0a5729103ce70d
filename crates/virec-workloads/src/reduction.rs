//! Workload-level compiler register reduction (§4.2).
//!
//! Wraps [`virec_isa::reduce::demote_registers_with_base`] for multi-thread
//! workloads: the outer-loop-only registers identified by static analysis
//! are demoted to per-thread spill areas at the tail of the data segment,
//! addressed through a dedicated base register (`x30`, unused by the
//! kernels), and the per-thread contexts are extended with that base.

use crate::workload::Workload;
use std::sync::Arc;
use virec_isa::analysis::RegisterUsage;
use virec_isa::reduce::demote_registers_with_base;
use virec_isa::{reg::names::X30, Reg};

/// Spill-area stride per thread (one cache line is plenty: ≤8 demoted
/// registers per kernel).
pub const SPILL_STRIDE: u64 = 64;

/// Applies compiler register reduction to `workload`, demoting its
/// outer-loop-only registers. Returns the transformed workload and the
/// demoted register set.
///
/// Returns the workload unchanged (and an empty set) when there is nothing
/// to demote — single-loop kernels whose registers are all part of the
/// active context.
pub fn reduce_workload(workload: Workload) -> (Workload, Vec<Reg>) {
    let usage = RegisterUsage::analyze(workload.program());
    // Never demote the spill base itself; skip kernels without outer-only
    // registers.
    let demoted: Vec<Reg> = usage
        .outer_only
        .iter()
        .copied()
        .filter(|&r| r != X30)
        .collect();
    if demoted.is_empty() || usage.max_depth < 2 {
        return (workload, Vec::new());
    }

    let reduced = demote_registers_with_base(workload.program(), &demoted, X30);
    // Spill areas live at the tail of the core's data segment, far from the
    // kernels' arrays (which grow from the bottom).
    let spill_top = workload.layout.data_base + workload.layout.data_size - 64 * SPILL_STRIDE;

    let name: &'static str = Box::leak(format!("{}_reduced", workload.name).into_boxed_str());
    let inner_ctx = ArcCtx(Arc::new(workload));
    let n = inner_ctx.0.n;
    let layout = inner_ctx.0.layout;
    let init_wl = inner_ctx.clone();

    let out = Workload::from_parts(
        name,
        n,
        layout,
        reduced.program,
        Box::new(move |mem| init_wl.0.init_mem(mem)),
        Box::new(move |tid, nthreads| {
            let mut ctx = inner_ctx.0.thread_ctx(tid, nthreads);
            ctx.push((X30, spill_top + tid as u64 * SPILL_STRIDE));
            ctx
        }),
    );
    (out, demoted)
}

#[derive(Clone)]
struct ArcCtx(Arc<Workload>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::layout::Layout;
    use virec_isa::{ExecOutcome, FlatMem, Interpreter, ThreadCtx};

    fn final_state(w: &Workload, nthreads: usize) -> (FlatMem, Vec<[u64; 31]>) {
        let mut mem = FlatMem::new(0, crate::layout::mem_size(1));
        w.init_mem(&mut mem);
        let mut regs = Vec::new();
        for t in 0..nthreads {
            let mut ctx = ThreadCtx::new();
            for (r, v) in w.thread_ctx(t, nthreads) {
                ctx.set(r, v);
            }
            let out = Interpreter::new(w.program(), &mut mem).run(&mut ctx, 50_000_000);
            assert!(matches!(out, ExecOutcome::Halted { .. }));
            regs.push(ctx.reg_image());
        }
        (mem, regs)
    }

    #[test]
    fn spmv_reduction_preserves_results() {
        let layout = Layout::for_core(0);
        let base = kernels::sparse::spmv(64, layout);
        let (reduced, demoted) = reduce_workload(kernels::sparse::spmv(64, layout));
        assert!(!demoted.is_empty(), "spmv has outer-only registers");

        let (mem_a, _) = final_state(&base, 3);
        let (mem_b, _) = final_state(&reduced, 3);
        // The y vector (kernel output) must be identical. Compare the data
        // arrays below the spill area.
        let lo = layout.data_base as usize;
        let hi = (layout.data_base + layout.data_size - 64 * SPILL_STRIDE) as usize;
        assert_eq!(mem_a.first_difference(&mem_b, lo, hi), None);
    }

    #[test]
    fn reduction_shrinks_offloaded_context_pressure() {
        let layout = Layout::for_core(0);
        let base = kernels::sparse::spmv(64, layout);
        let (reduced, demoted) = reduce_workload(kernels::sparse::spmv(64, layout));
        let ub = base.register_usage();
        let ur = reduced.register_usage();
        // Demoted registers must no longer appear outside loops... they do
        // appear (in reload/spill instructions), but each becomes part of
        // whichever loop the reference sits in; the *outer-only* set must
        // not grow beyond the spill base register.
        assert!(ur.max_depth == ub.max_depth);
        assert!(!demoted.is_empty());
        // Inner working set must not grow by more than the spill base.
        assert!(ur.innermost.len() <= ub.innermost.len() + 1);
    }

    #[test]
    fn single_loop_kernels_unchanged() {
        let layout = Layout::for_core(0);
        let (w, demoted) = reduce_workload(kernels::spatter::gather(64, layout));
        assert!(demoted.is_empty());
        assert_eq!(w.name, "gather");
    }

    #[test]
    fn meabo_reduction_preserves_results() {
        let layout = Layout::for_core(0);
        let base = kernels::meabo::meabo(128, layout);
        let (reduced, demoted) = reduce_workload(kernels::meabo::meabo(128, layout));
        if demoted.is_empty() {
            return; // nothing outer-only in this build of the kernel
        }
        let (mem_a, _) = final_state(&base, 2);
        let (mem_b, _) = final_state(&reduced, 2);
        let lo = layout.data_base as usize;
        let hi = (layout.data_base + layout.data_size - 64 * SPILL_STRIDE) as usize;
        assert_eq!(mem_a.first_difference(&mem_b, lo, hi), None);
    }
}
