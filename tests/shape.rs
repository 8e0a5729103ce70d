//! Qualitative "shape" tests: cheap versions of the paper's headline
//! results, asserted as orderings rather than absolute numbers. These run
//! on every `cargo test` so a regression in the simulator's physics is
//! caught immediately.

use virec::area::AreaModel;
use virec::core::{CoreConfig, PolicyKind};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout};

fn opts() -> RunOptions {
    RunOptions::default()
}

fn gather(n: u64) -> virec::workloads::Workload {
    kernels::spatter::gather(n, Layout::for_core(0))
}

#[test]
fn multithreading_hides_memory_latency() -> Result<(), SimError> {
    // §2: TLP is the latency-hiding lever for memory-intensive kernels.
    let w = gather(2048);
    let t1 = try_run_single(CoreConfig::banked(1), &w, &opts())?.cycles;
    let t4 = try_run_single(CoreConfig::banked(4), &w, &opts())?.cycles;
    let t8 = try_run_single(CoreConfig::banked(8), &w, &opts())?.cycles;
    assert!(t4 * 2 < t1, "4 threads should at least halve runtime");
    assert!(t8 < t4, "8 threads should beat 4");
    Ok(())
}

#[test]
fn virec_full_context_matches_banked_within_5_percent() -> Result<(), SimError> {
    // Abstract: "ViReC achieves 95% of the performance of a banked
    // processor" with full context storage.
    let w = gather(2048);
    for threads in [4usize, 8] {
        let banked = try_run_single(CoreConfig::banked(threads), &w, &opts())?.cycles as f64;
        let virec =
            try_run_single(CoreConfig::virec(threads, threads * 8), &w, &opts())?.cycles as f64;
        assert!(
            banked / virec > 0.94,
            "{threads}t: ViReC-100% at {:.1}% of banked",
            100.0 * banked / virec
        );
    }
    Ok(())
}

#[test]
fn virec_area_savings_hold_at_matched_performance() {
    let area = AreaModel::default();
    let savings = 1.0 - area.virec_core(64) / area.banked_core(8);
    assert!(savings > 0.35, "area savings {savings:.2} below 35%");
}

#[test]
fn performance_degrades_gracefully_with_context() -> Result<(), SimError> {
    // Figure 9: smaller stored context -> monotonically lower performance,
    // but still a large fraction of banked.
    let w = gather(2048);
    let c40 = try_run_single(CoreConfig::virec(8, 26), &w, &opts())?.cycles;
    let c60 = try_run_single(CoreConfig::virec(8, 39), &w, &opts())?.cycles;
    let c80 = try_run_single(CoreConfig::virec(8, 52), &w, &opts())?.cycles;
    let c100 = try_run_single(CoreConfig::virec(8, 64), &w, &opts())?.cycles;
    assert!(
        c100 <= c80 && c80 <= c60 && c60 <= c40,
        "{c40} {c60} {c80} {c100}"
    );
    assert!(
        (c40 as f64) < 2.0 * c100 as f64,
        "40% context should stay within 2x of full context"
    );
    Ok(())
}

#[test]
fn lrc_beats_plru_and_tracks_mrt_lru() -> Result<(), SimError> {
    // Figure 12 orderings at high contention.
    let w = gather(2048);
    let run_policy = |p: PolicyKind| {
        let mut cfg = CoreConfig::virec(8, 26); // 40% context
        cfg.policy = p;
        try_run_single(cfg, &w, &opts())
    };
    let lrc = run_policy(PolicyKind::Lrc)?;
    let mrt_plru = run_policy(PolicyKind::MrtPlru)?;
    let plru = run_policy(PolicyKind::Plru)?;
    let mrt_lru = run_policy(PolicyKind::MrtLru)?;
    assert!(
        lrc.cycles < plru.cycles,
        "LRC ({}) must beat PLRU ({})",
        lrc.cycles,
        plru.cycles
    );
    assert!(
        mrt_plru.cycles < plru.cycles,
        "thread awareness must beat plain PLRU"
    );
    // "LRC performs within 0.3% of MRT-LRU" — allow 3% here at small n.
    let ratio = lrc.cycles as f64 / mrt_lru.cycles as f64;
    assert!(
        ratio < 1.03,
        "LRC should track perfect MRT-LRU (ratio {ratio:.3})"
    );
    assert!(
        lrc.stats.rf_hit_rate() > plru.stats.rf_hit_rate(),
        "LRC hit rate must exceed PLRU"
    );
    Ok(())
}

#[test]
fn full_context_prefetch_is_worst() -> Result<(), SimError> {
    // Figure 9: "prefetching the full context is almost always worse than a
    // caching approach, regardless of the size of ViReC".
    let w = gather(2048);
    let pf = try_run_single(CoreConfig::prefetch_full(8, 8), &w, &opts())?.cycles;
    let virec40 = try_run_single(CoreConfig::virec(8, 26), &w, &opts())?.cycles;
    assert!(
        pf > virec40,
        "pf_full {pf} must lose to ViReC-40% {virec40}"
    );
    Ok(())
}

#[test]
fn exact_prefetch_beats_small_but_loses_to_large_virec() -> Result<(), SimError> {
    // Figure 9: exact prefetch wins under high contention (vs 40% context)
    // but loses once ViReC can retain 80% of the contexts.
    let w = gather(4096);
    let pe = try_run_single(CoreConfig::prefetch_exact(8, 8), &w, &opts())?.cycles;
    let virec40 = try_run_single(CoreConfig::virec(8, 26), &w, &opts())?.cycles;
    let virec80 = try_run_single(CoreConfig::virec(8, 52), &w, &opts())?.cycles;
    assert!(
        pe < virec40,
        "exact prefetch {pe} should beat ViReC-40% {virec40}"
    );
    assert!(
        virec80 < pe,
        "ViReC-80% {virec80} should beat exact prefetch {pe}"
    );
    Ok(())
}

#[test]
fn software_switching_is_far_worse_than_hardware() -> Result<(), SimError> {
    let w = gather(1024);
    let sw = try_run_single(CoreConfig::software(4), &w, &opts())?.cycles;
    let banked = try_run_single(CoreConfig::banked(4), &w, &opts())?.cycles;
    assert!(
        sw > 2 * banked,
        "software switching ({sw}) should be several times slower than banked ({banked})"
    );
    Ok(())
}

#[test]
fn virec_beats_nsf() -> Result<(), SimError> {
    // §6.1: ViReC improves over the NSF via LRC + BSI + pinning.
    let w = gather(2048);
    let virec = try_run_single(CoreConfig::virec(8, 52), &w, &opts())?.cycles;
    let nsf = try_run_single(CoreConfig::nsf(8, 52), &w, &opts())?.cycles;
    assert!(virec < nsf, "ViReC {virec} must beat NSF {nsf}");
    Ok(())
}

#[test]
fn more_threads_with_smaller_context_win_when_latency_unhidden() -> Result<(), SimError> {
    // §2: "a configuration with 32 registers that supports 4 threads at
    // 100% context can run 8 threads at 40% context with a speedup".
    let w = gather(4096);
    let four_full = try_run_single(CoreConfig::virec(4, 32), &w, &opts())?.cycles;
    let eight_small = try_run_single(CoreConfig::virec(8, 32), &w, &opts())?.cycles;
    assert!(
        eight_small < four_full,
        "8t x 40% ({eight_small}) should beat 4t x 100% ({four_full})"
    );
    Ok(())
}

#[test]
fn smaller_dcache_hurts_virec_more_than_banked() -> Result<(), SimError> {
    // Figure 13: pinned register lines contend for dcache capacity.
    let w = kernels::meabo::meabo(2048, Layout::for_core(0));
    let ratio = |size: usize| {
        let mut cv = CoreConfig::virec(8, 52);
        cv.dcache.size_bytes = size;
        let mut cb = CoreConfig::banked(8);
        cb.dcache.size_bytes = size;
        let v = try_run_single(cv, &w, &opts())?.cycles as f64;
        let b = try_run_single(cb, &w, &opts())?.cycles as f64;
        Ok::<_, SimError>(v / b)
    };
    let small = ratio(2 * 1024)?;
    let large = ratio(16 * 1024)?;
    assert!(
        small > large,
        "ViReC/banked slowdown must grow as the dcache shrinks ({small:.3} vs {large:.3})"
    );
    Ok(())
}

#[test]
fn spatter_patterns_order_by_locality() -> Result<(), SimError> {
    // Spatter's point: dcache behaviour is driven by the index pattern.
    use virec::workloads::kernels::spatter::{gather_with_pattern, SpatterPattern};
    let n = 4096;
    let miss_rate = |p: SpatterPattern| {
        let w = gather_with_pattern(n, Layout::for_core(0), p);
        let r = try_run_single(CoreConfig::banked(4), &w, &opts())?;
        Ok::<_, SimError>(r.stats.dcache.miss_rate())
    };
    let stride1 = miss_rate(SpatterPattern::UniformStride(1))?;
    let ms1 = miss_rate(SpatterPattern::Ms1 { run: 8, gap: 56 })?;
    let random = miss_rate(SpatterPattern::UniformRandom)?;
    assert!(
        stride1 < random,
        "sequential gather ({stride1:.3}) must miss less than random ({random:.3})"
    );
    assert!(
        ms1 <= random + 0.02,
        "mostly-stride-1 ({ms1:.3}) should not exceed random ({random:.3})"
    );
    Ok(())
}

#[test]
fn rrip_class_policies_unsuited_to_register_caching() -> Result<(), SimError> {
    // §7: "Other policies [33, 44] sample cache sets to determine whether
    // cache items are recency-friendly or averse... which does not work for
    // registers as the reuse distance depends on the instruction and
    // context switch behavior." SRRIP must lose to LRC decisively.
    let w = gather(2048);
    let run_policy = |p: PolicyKind| {
        let mut cfg = CoreConfig::virec(8, 26);
        cfg.policy = p;
        try_run_single(cfg, &w, &opts())
    };
    let lrc = run_policy(PolicyKind::Lrc)?;
    let srrip = run_policy(PolicyKind::Srrip)?;
    assert!(
        lrc.cycles < srrip.cycles,
        "LRC ({}) must beat SRRIP ({})",
        lrc.cycles,
        srrip.cycles
    );
    assert!(
        lrc.stats.rf_hit_rate() > srrip.stats.rf_hit_rate() + 0.05,
        "re-reference prediction should clearly trail thread-aware policies"
    );
    Ok(())
}
