//! Differential proof of the event-driven scheduler's headline invariant:
//! the wakeup-scheduled loop and the dense cycle-by-cycle loop produce
//! **byte-identical** statistics, architectural digests, and reports —
//! across every context engine, the whole workload suite, a seeded
//! fault-injection campaign with checkpointing, and a full serve run.
//!
//! The dense loop is selected per run via `RunOptions::dense_loop` (the
//! `VIREC_NO_SKIP=1` environment variable forces it globally); the
//! event-driven loop is the default everywhere else in the tree, so these
//! tests are the only place both loops run side by side on the same input.

use virec::core::CoreConfig;
use virec::sim::runner::{build_slots, try_run_single, try_run_slots, RunOptions, RunResult};
use virec::sim::serve::{default_mix, ServeConfig, ServeFaultPlan};
use virec::sim::{
    run_service, FaultClass, FaultPlan, FaultSite, ProtectionConfig, RasConfig, SimError,
    TaskService,
};
use virec::workloads::{kernels, suite, Layout, WorkloadCtor};

const N: u64 = 256;

/// Same options, dense loop forced.
fn densified(opts: &RunOptions) -> RunOptions {
    RunOptions {
        dense_loop: true,
        ..opts.clone()
    }
}

/// Field-by-field identity on everything deterministic in a [`RunResult`]
/// (`checkpoint_clone_ns` is wall-clock and deliberately excluded).
fn assert_identical(label: &str, dense: &RunResult, skip: &RunResult) {
    assert_eq!(dense.cycles, skip.cycles, "{label}: cycles diverged");
    assert_eq!(dense.stats, skip.stats, "{label}: stats diverged");
    assert_eq!(
        dense.arch_digest, skip.arch_digest,
        "{label}: arch digest diverged"
    );
    assert_eq!(
        dense.faults_applied, skip.faults_applied,
        "{label}: applied faults diverged"
    );
    assert_eq!(dense.ecc, skip.ecc, "{label}: ecc counters diverged");
    assert_eq!(dense.ras, skip.ras, "{label}: ras counters diverged");
}

#[test]
fn all_engines_all_workloads_byte_identical() {
    for w in suite(N, Layout::for_core(0)) {
        let configs = [
            CoreConfig::virec(4, 16),
            CoreConfig::virec(8, 12), // starved RF: maximal spill/fill traffic
            CoreConfig::banked(4),
            CoreConfig::software(3),
            CoreConfig::nsf(4, 16),
            CoreConfig::prefetch_full(4, w.active_context_size()),
        ];
        for cfg in configs {
            let opts = RunOptions::default();
            let skip = try_run_single(cfg, &w, &opts)
                .unwrap_or_else(|e| panic!("{}: event-driven run failed: {e}", w.name));
            let dense = try_run_single(cfg, &w, &densified(&opts))
                .unwrap_or_else(|e| panic!("{}: dense run failed: {e}", w.name));
            assert_identical(&format!("{} / {:?}", w.name, cfg.engine), &dense, &skip);
            assert!(skip.cycles > 0 && skip.stats.instructions > 0);
        }
    }
}

/// Store-heavy kernels behind a 400-cycle hop with small store queues: a
/// store refused by the full queue records no wake of its own and sleeps
/// until the queue's head retires, so the event loop jumps the whole far
/// miss. The retirement must wake it on exactly the dense loop's cycle.
#[test]
fn store_pressure_far_byte_identical() {
    use virec::mem::FabricConfig;
    let far = RunOptions {
        fabric: FabricConfig {
            xbar_latency: 400,
            ..FabricConfig::default()
        },
        ..RunOptions::default()
    };
    let kernels: [virec::workloads::WorkloadCtor; 5] = [
        kernels::spatter::scatter,
        kernels::spatter::gather_scatter,
        kernels::sparse::histogram,
        kernels::pointer::update,
        kernels::stream::stream_triad,
    ];
    for ctor in kernels {
        let w = ctor(N, Layout::for_core(0));
        for engine in [
            CoreConfig::virec(4, 16),
            CoreConfig::banked(4),
            CoreConfig::software(3),
        ] {
            for sq_entries in [1, 2, 5] {
                let cfg = CoreConfig {
                    sq_entries,
                    ..engine
                };
                let label = format!("{} / {:?} / sq={sq_entries}", w.name, cfg.engine);
                let skip = try_run_single(cfg, &w, &far)
                    .unwrap_or_else(|e| panic!("{label}: event-driven run failed: {e}"));
                let dense = try_run_single(cfg, &w, &densified(&far))
                    .unwrap_or_else(|e| panic!("{label}: dense run failed: {e}"));
                assert_identical(&label, &dense, &skip);
                if w.name == "scatter" && sq_entries == 1 {
                    assert!(
                        skip.stats.stall_sq_full > 0,
                        "{label}: a one-entry queue must refuse stores"
                    );
                }
            }
        }
    }
}

/// Flattens an outcome to a comparable string: full field identity for
/// successes, the (deterministic) display rendering for typed failures.
fn outcome_key(r: &Result<RunResult, SimError>) -> String {
    match r {
        Ok(res) => format!(
            "ok cycles={} digest={:#x} stats={:?} faults={:?} ecc={:?} ras={:?}",
            res.cycles, res.arch_digest, res.stats, res.faults_applied, res.ecc, res.ras
        ),
        Err(e) => format!("err {e}"),
    }
}

#[test]
fn seeded_fault_campaign_byte_identical() {
    // 64 seeded injections over live microarchitectural state, each run
    // under both loops with checkpointing enabled — detection cycle,
    // recovery/replay accounting, and final digests must all agree.
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let cfg = CoreConfig::virec(4, 32);
    let clean = try_run_single(cfg, &w, &RunOptions::default()).expect("clean run");
    let window = (clean.cycles / 10, clean.cycles * 9 / 10);
    let sites = [
        FaultSite::TagValue,
        FaultSite::RollbackSlot,
        FaultSite::DramLine,
    ];
    for i in 0..64u64 {
        let opts = RunOptions {
            livelock_cycles: clean.cycles * 4,
            faults: FaultPlan::seeded(0x5EED_7E57 ^ i, 1, window, &sites),
            protection: ProtectionConfig::secded(),
            checkpoint_interval: 4096,
            ..RunOptions::default()
        };
        let skip = try_run_single(cfg, &w, &opts);
        let dense = try_run_single(cfg, &w, &densified(&opts));
        assert_eq!(
            outcome_key(&dense),
            outcome_key(&skip),
            "injection {i} diverged between loops"
        );
    }
}

/// The PR-8 fault classes through both loops: intermittent duty-cycled
/// upsets and permanent stuck-at cells, with the full RAS machinery live —
/// patrol-scrubber wakeups capping the skip horizon, CE-bucket predictive
/// retirement, demand retirement + migration, and degraded-mode fencing.
/// Every scrub read and every retirement must land on the same cycle in
/// both loops or the digests (and the RasStats identity) catch it.
#[test]
fn persistent_fault_classes_with_scrubber_byte_identical() {
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let classes = [
        FaultClass::Intermittent {
            period: 500,
            repeats: 6,
        },
        FaultClass::StuckAt { period: 400 },
    ];
    let engines = [
        (CoreConfig::virec(4, 32), &FaultSite::PERMANENT[..]),
        (CoreConfig::banked(4), &FaultSite::PERMANENT_NON_VRMU[..]),
    ];
    for (cfg, sites) in engines {
        let clean = try_run_single(cfg, &w, &RunOptions::default()).expect("clean run");
        let window = (clean.cycles / 10, clean.cycles * 9 / 10);
        for class in classes {
            for i in 0..16u64 {
                let opts = RunOptions {
                    livelock_cycles: clean.cycles * 8,
                    faults: FaultPlan::seeded_class(0x8A5_0BAD ^ i, 1, window, sites, class),
                    protection: ProtectionConfig::secded(),
                    checkpoint_interval: 4096,
                    ras: Some(RasConfig::default()),
                    ..RunOptions::default()
                };
                let skip = try_run_single(cfg, &w, &opts);
                let dense = try_run_single(cfg, &w, &densified(&opts));
                assert_eq!(
                    outcome_key(&dense),
                    outcome_key(&skip),
                    "{:?} injection {i} ({class:?}) diverged between loops",
                    cfg.engine
                );
            }
        }
    }
}

/// A RAS-enabled run with no faults at all still schedules patrol-scrub
/// wakeups; the skip loop must honor them (consuming the same fabric
/// bandwidth at the same cycles) without perturbing the workload.
#[test]
fn idle_scrubber_wakeups_byte_identical() {
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    for cfg in [CoreConfig::virec(4, 16), CoreConfig::banked(4)] {
        let opts = RunOptions {
            ras: Some(RasConfig {
                scrub_interval: 300, // deliberately off-cadence vs the skip horizon
                ..RasConfig::default()
            }),
            ..RunOptions::default()
        };
        let skip = try_run_single(cfg, &w, &opts).expect("event-driven run");
        let dense = try_run_single(cfg, &w, &densified(&opts)).expect("dense run");
        assert_identical(&format!("scrub-only / {:?}", cfg.engine), &dense, &skip);
        assert!(skip.ras.scrub_reads > 0, "the patrol scrubber never ran");
    }
}

#[test]
fn system_run_byte_identical() {
    let slots = build_slots(
        &[(
            CoreConfig::virec(4, 32),
            kernels::spatter::gather as WorkloadCtor,
            192,
        ); 3],
    );
    let run = |dense_loop: bool| {
        let opts = RunOptions {
            dense_loop,
            ..RunOptions::default()
        };
        try_run_slots(&slots, &opts).expect("system run completes")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(dense.cycles, skip.cycles, "system cycles diverged");
    assert_eq!(dense.per_core, skip.per_core, "per-core stats diverged");
    assert_eq!(
        format!("{:?}", dense.fabric),
        format!("{:?}", skip.fabric),
        "fabric stats diverged"
    );
}

#[test]
fn serve_run_byte_identical() {
    // A faulty, deadline-bearing service run: arrivals, SLO shedding,
    // quarantine, failover and latency percentiles all ride on the
    // shared clock the skip loop fast-forwards. The word upsets go
    // through the fault router's SEC-DED, parity and pass-through branches.
    for protection in [
        ProtectionConfig::secded(),
        ProtectionConfig::parity(),
        ProtectionConfig::none(),
    ] {
        let run = |dense: bool| {
            let mut cfg = ServeConfig::streaming(3, CoreConfig::virec(2, 16), 48, 0xD1FF_5EED);
            cfg.mix = default_mix(32);
            cfg.mean_interarrival = 512;
            cfg.faults = ServeFaultPlan::campaign(8, 1);
            cfg.protection = protection;
            cfg.deadline_cycles = 400_000;
            cfg.dense_loop = dense;
            run_service(cfg).expect("serve run completes")
        };
        let skip = run(false);
        let dense = run(true);
        // ServeReport has no wall-clock fields: the debug rendering covers
        // every counter and latency sample.
        assert_eq!(
            format!("{dense:?}"),
            format!("{skip:?}"),
            "serve reports diverged under {protection:?}"
        );
        assert!(skip.completed > 0, "serve run must do real work");
    }
}

/// Serve with permanent (stuck-at) cores and the RAS layer live: repair
/// completions are exact-cycle events the skip loop must wake for, and the
/// millicore availability tape has to match the dense loop to the cycle.
#[test]
fn serve_repairs_and_fencing_byte_identical() {
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(4, CoreConfig::virec(2, 16), 64, 0xF00D_5EED);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg.faults = ServeFaultPlan::stuck(3);
        cfg.protection = ProtectionConfig::secded();
        cfg.ras = Some(RasConfig {
            spare_rows: 1, // pool runs dry: exercise fencing, not just repair
            ..RasConfig::default()
        });
        cfg.dense_loop = dense;
        run_service(cfg).expect("serve run completes")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "serve reports diverged"
    );
    assert!(skip.repairs >= 1, "the spare pool never repaired");
    assert!(skip.fenced_cores >= 1, "a dry pool must fence");
    assert_eq!(skip.lost, 0);
    assert_eq!(skip.duplicated, 0);
}

/// Mesh NoC topologies through both loops, defect-free: per-hop arrivals,
/// express cut-through reservations, and credit returns are all exact-cycle
/// events the skip loop must reproduce — including the fabric's NoC
/// counters, which `assert_identical` does not cover.
#[test]
fn mesh_topologies_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    for (cols, rows) in [(2usize, 2usize), (4, 2)] {
        for cfg in [CoreConfig::virec(4, 16), CoreConfig::banked(4)] {
            let opts = RunOptions {
                fabric: FabricConfig {
                    topology: FabricTopology::Mesh { cols, rows },
                    ..FabricConfig::default()
                },
                ..RunOptions::default()
            };
            let label = format!("mesh{cols}x{rows} / {:?}", cfg.engine);
            let skip = try_run_single(cfg, &w, &opts)
                .unwrap_or_else(|e| panic!("{label}: event-driven run failed: {e}"));
            let dense = try_run_single(cfg, &w, &densified(&opts))
                .unwrap_or_else(|e| panic!("{label}: dense run failed: {e}"));
            assert_identical(&label, &dense, &skip);
            assert_eq!(dense.fabric, skip.fabric, "{label}: fabric stats diverged");
            assert!(
                skip.fabric.noc_hops > 0,
                "{label}: traffic must cross the mesh"
            );
        }
    }
}

/// Seeded NoC link-fault campaigns (transient upsets and stuck-at links,
/// RAS live for the persistent class) through both loops on 2x2 and 4x2
/// meshes: every CRC catch, retransmission backoff, leaky-bucket
/// retirement, and route-around recompute must land on the same cycle.
#[test]
fn mesh_link_fault_campaigns_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let cfg = CoreConfig::virec(4, 32);
    for (cols, rows) in [(2usize, 2usize), (4, 2)] {
        let fabric = FabricConfig {
            topology: FabricTopology::Mesh { cols, rows },
            ..FabricConfig::default()
        };
        let clean = try_run_single(
            cfg,
            &w,
            &RunOptions {
                fabric,
                ..RunOptions::default()
            },
        )
        .expect("clean mesh run");
        let window = (clean.cycles / 10, clean.cycles * 9 / 10);
        let classes = [FaultClass::Transient, FaultClass::StuckAt { period: 400 }];
        for class in classes {
            for i in 0..8u64 {
                let opts = RunOptions {
                    livelock_cycles: clean.cycles * 8,
                    fabric,
                    faults: FaultPlan::seeded_class(
                        0x90C_11FE ^ i,
                        1,
                        window,
                        &[FaultSite::NocLink],
                        class,
                    ),
                    protection: ProtectionConfig::secded(),
                    checkpoint_interval: 4096,
                    ras: matches!(class, FaultClass::StuckAt { .. }).then(RasConfig::default),
                    ..RunOptions::default()
                };
                let skip = try_run_single(cfg, &w, &opts);
                let dense = try_run_single(cfg, &w, &densified(&opts));
                assert_eq!(
                    outcome_key(&dense),
                    outcome_key(&skip),
                    "mesh{cols}x{rows} injection {i} ({class:?}) diverged between loops"
                );
            }
        }
    }
}

/// A faulty serve run on the mesh: dispatch-clocked link upsets, CRC
/// retransmissions, link retirement, and the link-loss capacity scaling in
/// the availability tape must all match the dense loop byte for byte.
#[test]
fn mesh_serve_link_faults_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, 0xF00D_5EED);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg.fabric = FabricConfig {
            topology: FabricTopology::Mesh { cols: 2, rows: 2 },
            ..FabricConfig::default()
        };
        cfg.faults = ServeFaultPlan::links(9);
        cfg.ras = Some(RasConfig::default());
        cfg.dense_loop = dense;
        run_service(cfg).expect("mesh serve run completes")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "mesh serve reports diverged"
    );
    assert!(
        skip.fabric.noc_retransmissions >= 1,
        "upsets must retransmit"
    );
    assert!(
        skip.fabric.noc_links_retired >= 1,
        "the flaky link must retire"
    );
    assert_eq!(skip.lost, 0);
    assert_eq!(skip.silent_corruptions, 0);
}

/// Typed failures through both loops. The skip step caps its horizon one
/// cycle short of the cycle budget and of the watchdog's deadline, so a
/// budget exhaustion and a livelock must fire on the same cycle with the
/// same diagnostics (and the same pipeline dump) under both loops.
#[test]
fn runner_error_outcomes_byte_identical() {
    use virec::mem::FabricConfig;
    let w = kernels::spatter::gather(N, Layout::for_core(0));
    // Behind a 400-cycle hop the core sits stalled for hundreds of cycles
    // at a time, so both limits fall inside a span the skip step jumps.
    let far = RunOptions {
        fabric: FabricConfig {
            xbar_latency: 400,
            ..FabricConfig::default()
        },
        ..RunOptions::default()
    };
    let cfg = CoreConfig::virec(4, 32);
    let clean = try_run_single(cfg, &w, &far).expect("clean run");
    let mut short = cfg;
    short.max_cycles = clean.cycles / 2;
    let drought = RunOptions {
        livelock_cycles: 150,
        ..far.clone()
    };
    let cases = [
        ("budget", short, far, "cycle_budget"),
        ("livelock", cfg, drought, "livelock"),
    ];
    for (label, cfg, opts, kind) in cases {
        let skip = try_run_single(cfg, &w, &opts);
        let dense = try_run_single(cfg, &w, &densified(&opts));
        assert_eq!(
            skip.as_ref().err().map(SimError::kind),
            Some(kind),
            "{label}: {}",
            outcome_key(&skip)
        );
        assert_eq!(outcome_key(&dense), outcome_key(&skip), "{label}: diverged");
    }
}

/// A multi-core run whose budget (the largest per-core `max_cycles`) runs out
/// mid-run fails on the same cycle, with the same rendering, in both loops.
#[test]
fn system_budget_error_byte_identical() {
    let mut core = CoreConfig::virec(4, 32);
    core.max_cycles = 3_000;
    let slots = build_slots(&[(core, kernels::spatter::gather as WorkloadCtor, 192); 3]);
    let run = |dense_loop: bool| {
        let opts = RunOptions {
            // Far memory keeps every core stalled across the budget cycle.
            fabric: virec::mem::FabricConfig {
                xbar_latency: 400,
                ..Default::default()
            },
            dense_loop,
            ..RunOptions::default()
        };
        try_run_slots(&slots, &opts).expect_err("the budget is far too small")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(skip.kind(), "cycle_budget");
    assert_eq!(dense.to_string(), skip.to_string());
}

/// Heterogeneous banked and ViReC cores contending on a 2x2 mesh: every
/// per-core stat and the shared fabric's NoC counters match between loops.
#[test]
fn heterogeneous_mesh_system_byte_identical() {
    use virec::mem::{FabricConfig, FabricTopology};
    let slots = build_slots(&[
        (CoreConfig::banked(4), kernels::spatter::gather, 192),
        (CoreConfig::virec(8, 40), kernels::spatter::gather, 192),
        (CoreConfig::banked(4), kernels::stream::stream_triad, 192),
        (CoreConfig::virec(4, 24), kernels::stream::reduction, 192),
    ]);
    let run = |dense_loop: bool| {
        let opts = RunOptions {
            fabric: FabricConfig {
                topology: FabricTopology::Mesh { cols: 2, rows: 2 },
                ..FabricConfig::default()
            },
            dense_loop,
            ..RunOptions::default()
        };
        try_run_slots(&slots, &opts).expect("mesh system run completes")
    };
    let skip = run(false);
    let dense = run(true);
    assert_eq!(dense.cycles, skip.cycles, "system cycles diverged");
    assert_eq!(dense.per_core, skip.per_core, "per-core stats diverged");
    assert_eq!(dense.fabric, skip.fabric, "fabric stats diverged");
    assert!(skip.fabric.noc_hops > 0, "traffic must cross the mesh");
}

/// Serve attempts that exhaust their per-attempt cycle budget: the skip
/// step lands on each attempt's last budgeted cycle, so retries, budget
/// scaling and the final `cycle_budget` failures match the dense loop.
#[test]
fn serve_attempt_budget_byte_identical() {
    let run = |dense: bool| {
        let mut cfg = ServeConfig::streaming(2, CoreConfig::virec(2, 16), 16, 0x00B0_D6E7);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        // Far memory keeps attempts stalled across their last budgeted
        // cycle, so the skip step must stop exactly there.
        cfg.fabric.xbar_latency = 400;
        cfg.core.max_cycles = 2_000;
        cfg.dense_loop = dense;
        let mut service = TaskService::new(cfg).expect("valid config");
        let report = service.run().expect("serve run completes");
        (report, format!("{:?}", service.outcomes()))
    };
    let (skip, skip_outcomes) = run(false);
    let (dense, dense_outcomes) = run(true);
    assert_eq!(
        format!("{dense:?}"),
        format!("{skip:?}"),
        "serve reports diverged"
    );
    assert_eq!(dense_outcomes, skip_outcomes, "task outcomes diverged");
    assert!(skip.retries > 0, "budget failures must be retried");
    assert!(
        skip_outcomes.contains("cycle_budget"),
        "some tasks must fail on their budget: {skip_outcomes}"
    );
    assert!(
        skip.completed > 0,
        "scaled retries must complete some tasks"
    );
}
