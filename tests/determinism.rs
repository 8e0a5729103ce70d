//! Reproducibility: the simulator is fully deterministic — identical
//! configurations must give identical cycle counts and statistics, and
//! multi-core systems must verify against the golden model.

use virec::core::CoreConfig;
use virec::sim::runner::{try_run_single, try_run_slots, RunOptions};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout, Workload};

/// `ncores` slots of gather at `n`, slot `i` built for `Layout::for_core(i)`.
fn gather_slots(ncores: usize, core: CoreConfig, n: u64) -> Vec<(CoreConfig, Workload)> {
    (0..ncores)
        .map(|i| (core, kernels::spatter::gather(n, Layout::for_core(i))))
        .collect()
}

#[test]
fn identical_runs_are_bit_identical() -> Result<(), SimError> {
    let w = kernels::spatter::gather(1024, Layout::for_core(0));
    let cfg = CoreConfig::virec(8, 32);
    let a = try_run_single(cfg, &w, &RunOptions::default())?;
    let b = try_run_single(cfg, &w, &RunOptions::default())?;
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.instructions, b.stats.instructions);
    assert_eq!(a.stats.rf_hits, b.stats.rf_hits);
    assert_eq!(a.stats.rf_misses, b.stats.rf_misses);
    assert_eq!(a.stats.context_switches, b.stats.context_switches);
    assert_eq!(a.stats.dcache.misses, b.stats.dcache.misses);
    Ok(())
}

#[test]
fn system_runs_are_deterministic_and_verified() -> Result<(), SimError> {
    let build = || {
        let mut core = CoreConfig::virec(4, 32);
        core.max_cycles = 500_000_000; // system budget derives from the cores
        try_run_slots(&gather_slots(4, core, 512), &RunOptions::default())
    };
    let a = build()?;
    let b = build()?;
    assert_eq!(a.cycles, b.cycles);
    for (x, y) in a.per_core.iter().zip(&b.per_core) {
        assert_eq!(x.instructions, y.instructions);
        assert_eq!(x.context_switches, y.context_switches);
    }
    Ok(())
}

#[test]
fn eight_core_system_with_ten_threads_verifies() -> Result<(), SimError> {
    // The largest configuration of Figure 11 (shrunk problem size).
    let mut core = CoreConfig::virec(10, 64);
    core.max_cycles = 1_000_000_000;
    let r = try_run_slots(&gather_slots(8, core, 256), &RunOptions::default())?;
    assert_eq!(r.per_core.len(), 8);
    assert!(r.cycles > 0);
    Ok(())
}
