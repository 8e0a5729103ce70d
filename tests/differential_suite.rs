//! The flagship correctness test: every workload in the suite, on every
//! context engine, must produce bit-identical architectural state to the
//! golden interpreter. Register values really flow through the ViReC
//! spill/fill machinery, so this exercises the tag store, rollback queue,
//! BSI, pinning, and the CSL end to end.

use virec::core::{CoreConfig, PolicyKind};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{suite, Layout};

const N: u64 = 256;

fn opts() -> RunOptions {
    RunOptions::default() // verify = true
}

#[test]
fn all_workloads_banked() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        try_run_single(CoreConfig::banked(4), &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_virec_full_context() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        let regs = (4 * w.active_context_size()).max(12);
        try_run_single(CoreConfig::virec(4, regs), &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_virec_starved_rf() -> Result<(), SimError> {
    // The hardest case: 8 threads share a minimal RF — maximal spill/fill
    // traffic and constant eviction pressure.
    for w in suite(N, Layout::for_core(0)) {
        try_run_single(CoreConfig::virec(8, 12), &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_all_policies() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        for policy in PolicyKind::ALL {
            let mut cfg = CoreConfig::virec(4, 14);
            cfg.policy = policy;
            try_run_single(cfg, &w, &opts())?;
        }
    }
    Ok(())
}

#[test]
fn all_workloads_nsf() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        try_run_single(CoreConfig::nsf(4, 16), &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_software() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        try_run_single(CoreConfig::software(3), &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_prefetch_full() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        try_run_single(
            CoreConfig::prefetch_full(4, w.active_context_size()),
            &w,
            &opts(),
        )?;
    }
    Ok(())
}

#[test]
fn all_workloads_prefetch_exact() -> Result<(), SimError> {
    for w in suite(N, Layout::for_core(0)) {
        let cfg = CoreConfig::prefetch_exact(4, w.active_context_size());
        try_run_single(cfg, &w, &opts())?;
    }
    Ok(())
}

#[test]
fn all_workloads_future_work_extensions() -> Result<(), SimError> {
    // Group evictions and switch prefetching move extra register values
    // through the spill/fill machinery — they must stay bit-exact too.
    for w in suite(N, Layout::for_core(0)) {
        let mut cfg = CoreConfig::virec(6, 16);
        cfg.group_evict = 3;
        cfg.switch_prefetch = true;
        try_run_single(cfg, &w, &opts())?;
    }
    Ok(())
}

#[test]
fn thread_count_sweep_on_gather() -> Result<(), SimError> {
    let w = virec::workloads::kernels::spatter::gather(512, Layout::for_core(0));
    for threads in [1usize, 2, 3, 5, 7, 10] {
        let regs = (threads * 8).max(12);
        try_run_single(CoreConfig::virec(threads, regs), &w, &opts())?;
        try_run_single(CoreConfig::banked(threads), &w, &opts())?;
    }
    Ok(())
}
