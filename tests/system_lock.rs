//! System behaviour lock: multi-core runs pinned to literal values.
//! Figure 11's grid (1/2/4/8 ViReC cores x 8/10 threads over gather at
//! n=512), a heterogeneous banked/ViReC system on a 2x2 mesh and a system
//! budget error's rendering each produce exactly these cycle counts,
//! per-core counters, fabric traffic and text, and a one-core system runs
//! exactly as the single-core runner does. A change to how a system is
//! built or stepped must leave every value as it is.

use virec::core::{CoreConfig, CoreStats};
use virec::mem::{CacheStats, FabricConfig, FabricStats, FabricTopology};
use virec::sim::runner::{build_slots, try_run_single, try_run_slots, RunOptions, SystemResult};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout, Workload, WorkloadCtor};

/// Every counter of a cache, in declaration order.
fn cache_row(c: &CacheStats) -> [u64; 9] {
    let CacheStats {
        hits,
        misses,
        mshr_stalls,
        port_stalls,
        evictions,
        writebacks,
        pinned_bypasses,
        reg_hits,
        reg_misses,
    } = *c;
    [
        hits,
        misses,
        mshr_stalls,
        port_stalls,
        evictions,
        writebacks,
        pinned_bypasses,
        reg_hits,
        reg_misses,
    ]
}

/// Every counter of a core, in declaration order, the data cache's and
/// then the instruction cache's last. The destructuring is exhaustive, so
/// a new counter cannot go unpinned.
fn core_row(s: &CoreStats) -> Vec<u64> {
    let CoreStats {
        cycles,
        instructions,
        context_switches,
        switches_masked,
        rf_hits,
        rf_misses,
        rf_dummy_fills,
        rf_spills,
        stall_reg_fill,
        stall_mem,
        stall_idle,
        stall_fetch,
        stall_sq_full,
        stall_ctx_software,
        branch_mispredicts,
        dcache,
        icache,
    } = *s;
    let mut row = vec![
        cycles,
        instructions,
        context_switches,
        switches_masked,
        rf_hits,
        rf_misses,
        rf_dummy_fills,
        rf_spills,
        stall_reg_fill,
        stall_mem,
        stall_idle,
        stall_fetch,
        stall_sq_full,
        stall_ctx_software,
        branch_mispredicts,
    ];
    row.extend(cache_row(&dcache));
    row.extend(cache_row(&icache));
    row
}

/// Every fabric counter: the scalars in declaration order, then the
/// per-port `[reads, writes]` pairs.
fn fabric_row(f: &FabricStats) -> Vec<u64> {
    let FabricStats {
        reads,
        writes,
        row_hits,
        row_conflicts,
        row_empty,
        queue_cycles,
        scrub_reads,
        per_port,
        noc_hops,
        noc_crc_detected,
        noc_retransmissions,
        noc_links_retired,
        noc_links_fenced,
    } = *f;
    let mut row = vec![
        reads,
        writes,
        row_hits,
        row_conflicts,
        row_empty,
        queue_cycles,
        scrub_reads,
        noc_hops,
        noc_crc_detected,
        noc_retransmissions,
        noc_links_retired,
        noc_links_fenced,
    ];
    row.extend(per_port.iter().flatten());
    row
}

/// A system run's pinned outcome.
struct Pinned {
    cycles: u64,
    /// One [`core_row`] per core.
    cores: &'static [&'static [u64]],
    /// The [`fabric_row`].
    fabric: &'static [u64],
}

fn check(label: &str, r: &SystemResult, want: &Pinned) {
    assert_eq!(r.cycles, want.cycles, "{label}: cycles");
    assert_eq!(r.per_core.len(), want.cores.len(), "{label}: cores");
    for (i, (got, want)) in r.per_core.iter().zip(want.cores).enumerate() {
        assert_eq!(core_row(got), *want, "{label}: core {i}");
    }
    assert_eq!(fabric_row(&r.fabric), want.fabric, "{label}: fabric");
}

/// `(ncores, threads, pinned)` for Figure 11's grid.
const FIG11: &[(usize, usize, Pinned)] = &[
    (
        1,
        8,
        Pinned {
            cycles: 7456,
            cores: &[&[
                7456, 3088, 201, 2, 6689, 82, 17, 18, 1244, 123, 1, 151, 0, 0, 8, 1498, 252, 0, 65,
                25, 0, 0, 469, 48, 3698, 1, 0, 0, 0, 0, 0, 0, 0,
            ]],
            fabric: &[
                154, 0, 121, 1, 32, 2974, 0, 0, 0, 0, 0, 0, 1, 0, 153, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        1,
        10,
        Pinned {
            cycles: 8126,
            cores: &[&[
                8126, 3092, 162, 1, 6295, 365, 59, 301, 2286, 61, 1, 151, 0, 0, 10, 1980, 225, 0,
                236, 33, 0, 0, 949, 60, 3587, 1, 0, 0, 0, 0, 0, 0, 0,
            ]],
            fabric: &[
                162, 0, 129, 1, 32, 3120, 0, 0, 0, 0, 0, 0, 1, 0, 161, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        2,
        8,
        Pinned {
            cycles: 8910,
            cores: &[
                &[
                    8650, 3088, 374, 4, 7208, 82, 17, 18, 1552, 308, 1, 168, 0, 0, 8, 1842, 428, 0,
                    65, 25, 0, 0, 815, 49, 4217, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    8910, 3088, 433, 4, 7385, 82, 17, 18, 1547, 272, 1, 236, 0, 0, 8, 1960, 486, 0,
                    65, 25, 0, 0, 933, 48, 4394, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                308, 0, 21, 255, 32, 6518, 0, 0, 0, 0, 0, 0, 1, 0, 153, 0, 1, 0, 153, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        2,
        10,
        Pinned {
            cycles: 9030,
            cores: &[
                &[
                    8947, 3092, 212, 1, 6360, 450, 68, 386, 2947, 98, 1, 159, 0, 0, 10, 2250, 276,
                    0, 310, 33, 0, 0, 1219, 61, 3737, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9030, 3092, 212, 1, 6360, 450, 68, 386, 2973, 98, 1, 215, 0, 0, 10, 2250, 275,
                    0, 310, 33, 0, 0, 1219, 60, 3737, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                324, 0, 13, 279, 32, 6723, 0, 0, 0, 0, 0, 0, 1, 0, 161, 0, 1, 0, 161, 0, 0, 0, 0,
                0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        4,
        8,
        Pinned {
            cycles: 9715,
            cores: &[
                &[
                    9030, 3088, 422, 8, 7352, 82, 17, 18, 1527, 525, 1, 174, 0, 0, 8, 1935, 480, 0,
                    65, 25, 0, 0, 912, 49, 4361, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9386, 3088, 394, 11, 7268, 82, 17, 18, 1882, 556, 1, 261, 0, 0, 8, 1875, 455,
                    0, 65, 25, 0, 0, 855, 49, 4277, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9715, 3088, 423, 13, 7355, 82, 17, 18, 1652, 928, 1, 339, 0, 0, 8, 1931, 485,
                    0, 65, 25, 0, 0, 913, 48, 4364, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9660, 3088, 428, 9, 7370, 82, 17, 18, 1672, 738, 1, 424, 0, 0, 8, 1945, 487, 0,
                    65, 25, 0, 0, 923, 49, 4379, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                616, 0, 40, 544, 32, 16918, 0, 0, 0, 0, 0, 0, 1, 0, 153, 0, 1, 0, 153, 0, 1, 0,
                153, 0, 1, 0, 153, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        4,
        10,
        Pinned {
            cycles: 9557,
            cores: &[
                &[
                    9015, 3092, 220, 1, 6369, 465, 76, 401, 2951, 148, 1, 169, 0, 0, 10, 2297, 285,
                    0, 316, 33, 0, 0, 1266, 62, 3761, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9557, 3092, 245, 1, 6399, 510, 93, 446, 3327, 148, 1, 225, 0, 0, 10, 2436, 309,
                    0, 342, 32, 0, 0, 1405, 61, 3836, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9310, 3092, 220, 1, 6368, 466, 71, 402, 3087, 148, 1, 315, 0, 0, 10, 2298, 283,
                    0, 324, 33, 0, 0, 1267, 60, 3761, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9350, 3092, 219, 1, 6368, 463, 81, 399, 3075, 148, 1, 374, 0, 0, 10, 2290, 282,
                    0, 329, 33, 0, 0, 1259, 60, 3758, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                647, 0, 46, 569, 32, 16509, 0, 0, 0, 0, 0, 0, 1, 0, 161, 0, 1, 0, 160, 0, 1, 0,
                161, 0, 1, 0, 161, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
            ],
        },
    ),
    (
        8,
        8,
        Pinned {
            cycles: 10836,
            cores: &[
                &[
                    10613, 3088, 441, 16, 7409, 82, 17, 18, 1692, 1825, 1, 243, 0, 0, 8, 1964, 508,
                    0, 65, 25, 0, 0, 949, 50, 4418, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10520, 3088, 421, 18, 7349, 82, 17, 18, 1660, 1820, 1, 268, 0, 0, 8, 1922, 490,
                    0, 65, 25, 0, 0, 909, 50, 4358, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10682, 3088, 417, 10, 7337, 82, 17, 18, 2538, 1009, 1, 360, 0, 0, 8, 1922, 477,
                    0, 65, 25, 0, 0, 901, 49, 4346, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10836, 3088, 433, 14, 7385, 82, 17, 18, 2033, 884, 1, 1088, 0, 0, 8, 1950, 498,
                    0, 65, 25, 0, 0, 933, 50, 4394, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10417, 3088, 426, 20, 7364, 82, 17, 18, 2090, 1052, 1, 488, 0, 0, 8, 1930, 496,
                    0, 65, 25, 0, 0, 919, 49, 4373, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10247, 3088, 418, 14, 7340, 82, 17, 18, 1654, 1216, 1, 610, 0, 0, 8, 1920, 481,
                    0, 65, 25, 0, 0, 903, 48, 4349, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10129, 3088, 426, 16, 7364, 82, 17, 18, 1630, 1144, 1, 560, 0, 0, 8, 1935, 491,
                    0, 65, 25, 0, 0, 920, 48, 4373, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9858, 3088, 414, 13, 7328, 82, 17, 18, 1638, 964, 1, 497, 0, 0, 8, 1913, 477,
                    0, 65, 25, 0, 0, 895, 49, 4337, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                1232, 0, 62, 1138, 32, 48504, 0, 0, 0, 0, 0, 0, 1, 0, 153, 0, 1, 0, 153, 0, 1, 0,
                153, 0, 1, 0, 153, 0, 1, 0, 153, 0, 1, 0, 153, 0, 1, 0, 153, 0, 1, 0, 153, 0,
            ],
        },
    ),
    (
        8,
        10,
        Pinned {
            cycles: 10792,
            cores: &[
                &[
                    10606, 3092, 228, 6, 6394, 464, 81, 400, 3076, 1542, 1, 225, 0, 0, 10, 2306,
                    297, 0, 325, 33, 0, 0, 1280, 61, 3785, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10516, 3092, 257, 6, 6436, 509, 91, 445, 3274, 1148, 1, 267, 0, 0, 10, 2453,
                    327, 0, 366, 32, 0, 0, 1427, 62, 3872, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10792, 3092, 261, 5, 6428, 529, 87, 465, 4067, 464, 1, 415, 0, 0, 10, 2502,
                    331, 0, 366, 32, 0, 0, 1475, 63, 3884, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10698, 3092, 225, 1, 6387, 462, 82, 398, 3252, 172, 1, 1510, 0, 0, 10, 2300,
                    291, 0, 328, 32, 0, 0, 1269, 63, 3776, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10227, 3092, 234, 3, 6400, 476, 84, 412, 3491, 450, 1, 483, 0, 0, 10, 2344,
                    301, 0, 349, 32, 0, 0, 1315, 62, 3803, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    10367, 3092, 245, 7, 6391, 518, 85, 454, 3218, 730, 1, 619, 0, 0, 10, 2446,
                    315, 0, 364, 32, 0, 0, 1421, 61, 3836, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9850, 3092, 238, 3, 6391, 497, 89, 433, 3154, 354, 1, 561, 0, 0, 10, 2396, 304,
                    0, 331, 32, 0, 0, 1367, 61, 3815, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
                &[
                    9475, 3092, 225, 1, 6386, 463, 71, 399, 3031, 148, 1, 486, 0, 0, 10, 2302, 290,
                    0, 303, 33, 0, 0, 1271, 62, 3776, 1, 0, 0, 0, 0, 0, 0, 0,
                ],
            ],
            fabric: &[
                1290, 0, 74, 1184, 32, 54432, 0, 0, 0, 0, 0, 0, 1, 0, 161, 0, 1, 0, 160, 0, 1, 0,
                160, 0, 1, 0, 160, 0, 1, 0, 160, 0, 1, 0, 160, 0, 1, 0, 160, 0, 1, 0, 161, 0,
            ],
        },
    ),
];
/// [`heterogeneous_mesh`].
const MESH: Pinned = Pinned {
    cycles: 4670,
    cores: &[
        &[
            3674, 1160, 78, 25, 2550, 0, 0, 0, 0, 882, 498, 88, 0, 0, 4, 359, 124, 0, 16, 0, 0, 0,
            0, 0, 1397, 1, 0, 0, 0, 0, 0, 0, 0,
        ],
        &[
            4494, 1168, 69, 1, 2246, 289, 50, 249, 1941, 88, 1, 377, 0, 0, 8, 1033, 121, 0, 200, 0,
            0, 0, 643, 50, 1382, 1, 0, 0, 0, 0, 0, 0, 0,
        ],
        &[
            4670, 1348, 132, 23, 3669, 0, 0, 0, 0, 1275, 325, 83, 201, 0, 4, 529, 199, 0, 16, 0, 0,
            0, 0, 0, 1747, 1, 0, 0, 0, 0, 0, 0, 0,
        ],
        &[
            3493, 968, 63, 20, 1895, 34, 4, 10, 805, 794, 1, 322, 0, 0, 4, 328, 108, 0, 25, 0, 0,
            0, 153, 24, 1160, 1, 0, 0, 0, 0, 0, 0, 0,
        ],
    ],
    fabric: &[
        275, 0, 21, 222, 32, 5028, 0, 766, 0, 0, 0, 0, 1, 0, 69, 0, 1, 0, 73, 0, 1, 0, 92, 0, 1, 0,
        37, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    ],
};
/// [`budget_error_text`].
const BUDGET_ERROR: &str = "gather: exceeded 3000 cycles (engine ViReC, 4 threads) [workload=gather engine=ViReC policy=LRC nthreads=4 cycles=3000 instructions=0 ctx_switches=0 rf_misses=5 last_commit_pc=[-,-,-,-]]";

/// Figure 11's configuration: `ncores` ViReC cores with `threads` threads
/// over a 64-register file, each running gather at `n`.
fn fig11_slots(ncores: usize, threads: usize, n: u64) -> Vec<(CoreConfig, Workload)> {
    let mut core = CoreConfig::virec(threads, 64);
    core.max_cycles = 2_000_000_000;
    build_slots(&vec![
        (core, kernels::spatter::gather as WorkloadCtor, n);
        ncores
    ])
}

#[test]
fn fig11_grid() -> Result<(), SimError> {
    for (ncores, threads, want) in FIG11 {
        let r = try_run_slots(&fig11_slots(*ncores, *threads, 512), &RunOptions::default())?;
        check(&format!("{ncores}c/{threads}t"), &r, want);
    }
    Ok(())
}

/// Banked and ViReC cores of different widths, running different kernels,
/// contend on a 2x2 mesh.
#[test]
fn heterogeneous_mesh() -> Result<(), SimError> {
    let opts = RunOptions {
        fabric: FabricConfig {
            topology: FabricTopology::Mesh { cols: 2, rows: 2 },
            ..FabricConfig::default()
        },
        ..RunOptions::default()
    };
    let specs: [(CoreConfig, WorkloadCtor, u64); 4] = [
        (CoreConfig::banked(4), kernels::spatter::gather, 192),
        (CoreConfig::virec(8, 40), kernels::spatter::gather, 192),
        (CoreConfig::banked(4), kernels::stream::stream_triad, 192),
        (CoreConfig::virec(4, 24), kernels::stream::reduction, 192),
    ];
    let r = try_run_slots(&build_slots(&specs), &opts)?;
    check("mesh", &r, &MESH);
    Ok(())
}

/// Three cores over far memory run out of a 3000-cycle budget: the error
/// names the budget and the first unfinished core.
#[test]
fn budget_error_text() {
    let mut core = CoreConfig::virec(4, 32);
    core.max_cycles = 3_000;
    let opts = RunOptions {
        fabric: FabricConfig {
            xbar_latency: 400,
            ..FabricConfig::default()
        },
        ..RunOptions::default()
    };
    let slots = build_slots(&[(core, kernels::spatter::gather as WorkloadCtor, 192); 3]);
    let err = try_run_slots(&slots, &opts).expect_err("the budget is far too small");
    assert_eq!(err.kind(), "cycle_budget");
    assert_eq!(err.to_string(), BUDGET_ERROR);
}

/// A one-core system is a single-core run: the same cycles, core counters
/// and fabric traffic on three kernels, two engines and near and far
/// memory.
#[test]
fn one_core_system_is_a_single_run() -> Result<(), SimError> {
    let kernels: [(&str, WorkloadCtor); 3] = [
        ("gather", kernels::spatter::gather),
        ("reduction", kernels::stream::reduction),
        ("scatter", kernels::spatter::scatter),
    ];
    let far = FabricConfig {
        xbar_latency: 400,
        ..FabricConfig::default()
    };
    for (name, ctor) in kernels {
        for core in [CoreConfig::banked(4), CoreConfig::virec(8, 40)] {
            for fabric in [FabricConfig::default(), far] {
                let label = format!("{name} / {:?} / xbar {}", core.engine, fabric.xbar_latency);
                let opts = RunOptions {
                    fabric,
                    ..RunOptions::default()
                };
                let sys = try_run_slots(&build_slots(&[(core, ctor, 256)]), &opts)?;
                let single = try_run_single(core, &ctor(256, Layout::for_core(0)), &opts)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(sys.cycles, single.cycles, "{label}: cycles");
                assert_eq!(sys.per_core, [single.stats], "{label}: core stats");
                assert_eq!(sys.fabric, single.fabric, "{label}: fabric");
            }
        }
    }
    Ok(())
}
