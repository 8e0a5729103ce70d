//! Exact-context prefetching lock: the §6.1 prefetcher on three kernels,
//! pinned to literal values. Each run replays the oracle a recording
//! pre-run of the same binary on a banked core produced, so a change to how
//! that oracle is recorded or handed to the core must leave every value as
//! it is.

use virec::core::CoreConfig;
use virec::mem::FabricConfig;
use virec::sim::runner::{try_run_single, try_run_slots, RunOptions, RunResult};
use virec::workloads::{by_name, Layout, SUITE};

const N: u64 = 1024;

/// `(cycles, instructions, rf_hits, rf_misses, context_switches,
/// arch_digest)`.
type Pinned = (u64, u64, u64, u64, u64, u64);

/// `(workload, threads, [pinned at each of XBAR_LATENCIES])`.
const PINNED: &[(&str, usize, [Pinned; 2])] = &[
    (
        "gather",
        4,
        [
            (17817, 6152, 14026, 107, 519, 8470263210707002188),
            (139033, 6152, 13775, 84, 448, 8470263210707002188),
        ],
    ),
    (
        "gather",
        8,
        [
            (17353, 6160, 14513, 239, 604, 13432016463863175306),
            (124497, 6160, 15372, 244, 889, 13432016463863175306),
        ],
    ),
    (
        "reduction",
        4,
        [
            (10200, 5128, 10354, 2, 375, 6590983854411679511),
            (111045, 5128, 10357, 2, 376, 6590983854411679511),
        ],
    ),
    (
        "reduction",
        8,
        [
            (10213, 5136, 10586, 16, 446, 9887021580290835080),
            (111901, 5136, 11785, 2, 848, 9887021580290835080),
        ],
    ),
    (
        "scatter",
        4,
        [
            (32539, 6148, 15382, 110, 411, 11669251766797686995),
            (398521, 6148, 15406, 114, 415, 11669251766797686995),
        ],
    ),
    (
        "scatter",
        8,
        [
            (36503, 6152, 14845, 44, 320, 7939452161649638862),
            (452883, 6152, 14869, 60, 320, 7939452161649638862),
        ],
    ),
];

/// Crossbar latencies: the default fabric's 18 cycles and a far-memory
/// fabric's 400.
const XBAR_LATENCIES: [u32; 2] = [18, 400];

/// The fabric a pinned row runs on.
fn fabric(xbar_latency: u32) -> FabricConfig {
    FabricConfig {
        xbar_latency,
        ..FabricConfig::default()
    }
}

/// A prefetch-exact run of `workload` with `threads` threads, each given
/// the kernel's whole active context.
fn run(workload: &str, threads: usize, fabric: FabricConfig) -> RunResult {
    let w = by_name(workload, N, Layout::for_core(0)).expect("suite kernel");
    let opts = RunOptions {
        fabric,
        ..RunOptions::default()
    };
    try_run_single(
        CoreConfig::prefetch_exact(threads, w.active_context_size()),
        &w,
        &opts,
    )
    .unwrap_or_else(|e| panic!("{workload}/{threads}t: {e}"))
}

fn observe(r: &RunResult) -> Pinned {
    let s = &r.stats;
    (
        r.cycles,
        s.instructions,
        s.rf_hits,
        s.rf_misses,
        s.context_switches,
        r.arch_digest,
    )
}

#[test]
fn pinned_runs() {
    for &(workload, threads, pinned) in PINNED {
        for (xbar, want) in XBAR_LATENCIES.into_iter().zip(pinned) {
            assert_eq!(
                observe(&run(workload, threads, fabric(xbar))),
                want,
                "{workload}/{threads}t/xbar {xbar}"
            );
        }
    }
}

/// A one-core system of a prefetch-exact core is the single run: the same
/// cycles, core counters and fabric traffic, its oracle recorded the same
/// way.
#[test]
fn one_core_system_is_the_single_run() {
    for &(workload, threads, _) in PINNED {
        let (_, ctor) = SUITE
            .iter()
            .find(|(n, _)| *n == workload)
            .expect("suite kernel");
        let ctx = ctor(N, Layout::for_core(0)).active_context_size();
        for xbar in XBAR_LATENCIES {
            let label = format!("{workload}/{threads}t/xbar {xbar}");
            let core = CoreConfig::prefetch_exact(threads, ctx);
            let opts = RunOptions {
                fabric: fabric(xbar),
                ..RunOptions::default()
            };
            let sys = try_run_slots(&[(core, ctor(N, Layout::for_core(0)))], &opts)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let single = run(workload, threads, fabric(xbar));
            assert_eq!(sys.cycles, single.cycles, "{label}: cycles");
            assert_eq!(sys.per_core, [single.stats], "{label}: core stats");
            assert_eq!(sys.fabric, single.fabric, "{label}: fabric");
        }
    }
}
