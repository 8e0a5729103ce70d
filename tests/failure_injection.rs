//! Failure injection: the verification machinery must *fail* when state is
//! corrupted — otherwise the hundreds of green differential tests would
//! prove nothing.
//!
//! The first half corrupts drained state by hand and expects the golden
//! checker to name the divergence: a typed `GoldenDivergence` whose site is
//! the corrupted register or data range.
//! The second half drives the deterministic [`virec::sim::FaultPlan`]
//! machinery: seeded mid-run corruption of VRMU tag-store entries and
//! rollback-queue slots, a stuck-fill livelock, and the graceful-sweep
//! harness that turns failures into structured rows.

use virec::core::{CoreConfig, RegRegion};
use virec::isa::{reg::names::X4, FlatMem, Instr, Program};
use virec::mem::{Fabric, FabricConfig};
use virec::sim::experiment::{builder, CellOutcome, Executor, ExperimentSpec};
use virec::sim::offload::offload;
use virec::sim::runner::{try_run_single, try_verify_against_golden, RunOptions};
use virec::sim::{
    run_campaign_with, CampaignOptions, DivergenceSite, FaultClass, FaultEvent, FaultPlan,
    FaultSite, InjectionOutcome, SimError,
};
use virec::workloads::{kernels, Layout, Workload};

/// Runs gather to completion and returns (core, mem) without verification.
fn run_unverified(cfg: CoreConfig, n: u64) -> (virec::core::Core, FlatMem) {
    let w = kernels::spatter::gather(n, Layout::for_core(0));
    let mut mem = FlatMem::new(0, virec::workloads::layout::mem_size(1));
    let region: RegRegion = offload(&mut mem, &w, cfg.nthreads);
    let mut core =
        virec::core::Core::new(cfg, w.program().clone(), region, w.layout.code_base, (0, 1));
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0;
    while !core.done() {
        fabric.tick(now);
        core.tick(now, &mut fabric, &mut mem);
        now += 1;
        assert!(now < 50_000_000);
    }
    core.drain(&mut mem);
    (core, mem)
}

/// The golden checker's verdict on a drained core, at its own cycle count.
fn verify(
    w: &Workload,
    nthreads: usize,
    core: &virec::core::Core,
    mem: &FlatMem,
) -> Result<(), SimError> {
    try_verify_against_golden(w, nthreads, core, mem, core.stats().cycles)
}

#[test]
fn clean_run_verifies() -> Result<(), SimError> {
    let (core, mem) = run_unverified(CoreConfig::virec(4, 32), 256);
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    verify(&w, 4, &core, &mem)
}

#[test]
fn corrupted_register_is_detected() {
    let (core, mut mem) = run_unverified(CoreConfig::virec(4, 32), 256);
    // Flip a bit in thread 2's drained x4 (the loop bound — always live).
    let region = core.region();
    let addr = region.reg_addr(2, X4);
    let v = mem.read_u64(addr);
    mem.write_u64(addr, v ^ 1);
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    match verify(&w, 4, &core, &mem) {
        Err(SimError::GoldenDivergence {
            site:
                DivergenceSite::Register {
                    thread: 2,
                    reg: X4,
                    got,
                    want,
                },
            ..
        }) => assert_eq!((got, want), (v ^ 1, v)),
        other => panic!("expected thread 2's x4 to diverge, got {other:?}"),
    }
}

#[test]
fn corrupted_data_segment_is_detected() {
    let (core, mut mem) = run_unverified(CoreConfig::virec(4, 32), 256);
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    // Corrupt one byte of the gather output array.
    let out = w.layout.data_base + 2 * 256 * 8;
    let v = mem.read_u64(out);
    mem.write_u64(out, v.wrapping_add(1));
    match verify(&w, 4, &core, &mem) {
        Err(SimError::GoldenDivergence {
            site: DivergenceSite::DataRange { first_mismatch, .. },
            ..
        }) => assert_eq!(first_mismatch, out as usize),
        other => panic!("expected the data segment to diverge, got {other:?}"),
    }
}

#[test]
fn wrong_thread_count_is_detected() {
    // Verifying against a different partitioning must fail: the golden run
    // computes different per-thread sums.
    let (core, mem) = run_unverified(CoreConfig::virec(4, 32), 256);
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let err = verify(&w, 3, &core, &mem);
    assert!(
        matches!(err, Err(SimError::GoldenDivergence { .. })),
        "expected a golden divergence, got {err:?}"
    );
}

// ---------------------------------------------------------------------------
// Seeded FaultPlan campaigns: deterministic mid-run corruption of live
// microarchitectural state, classified against the golden checker and the
// clean run's architectural digest.
// ---------------------------------------------------------------------------

fn gather() -> Workload {
    kernels::spatter::gather(256, Layout::for_core(0))
}

#[test]
fn tag_store_campaign_has_no_silent_escapes() {
    let w = gather();
    let report = run_campaign_with(
        CoreConfig::virec(4, 32),
        &w,
        24,
        0xBEEF_0001,
        &[FaultSite::TagValue],
        &CampaignOptions::default(),
    );
    assert!(report.all_detected(), "silent escape: {}", report.summary());
    assert!(
        report.all_recovered(),
        "unrecovered detection: {}",
        report.summary()
    );
    let caught = report.count(InjectionOutcome::Detected)
        + report.count(InjectionOutcome::Recovered)
        + report.count(InjectionOutcome::Crashed);
    assert!(
        caught >= 1,
        "no tag-store fault ever landed: {}",
        report.summary()
    );
}

#[test]
fn rollback_queue_campaign_has_no_silent_escapes() {
    let w = gather();
    let report = run_campaign_with(
        CoreConfig::virec(4, 32),
        &w,
        24,
        0xBEEF_0002,
        &[FaultSite::RollbackSlot],
        &CampaignOptions::default(),
    );
    assert!(report.all_detected(), "silent escape: {}", report.summary());
    assert!(
        report.all_recovered(),
        "unrecovered detection: {}",
        report.summary()
    );
}

#[test]
fn banked_campaign_has_no_silent_escapes() {
    let w = gather();
    let report = run_campaign_with(
        CoreConfig::banked(4),
        &w,
        24,
        0xBEEF_0003,
        &FaultSite::NON_VRMU,
        &CampaignOptions::default(),
    );
    assert!(report.all_detected(), "silent escape: {}", report.summary());
    assert!(
        report.all_recovered(),
        "unrecovered detection: {}",
        report.summary()
    );
    let caught = report.count(InjectionOutcome::Detected)
        + report.count(InjectionOutcome::Recovered)
        + report.count(InjectionOutcome::Crashed);
    assert!(caught >= 1, "no fault ever landed: {}", report.summary());
}

#[test]
fn stuck_fill_surfaces_as_livelock() {
    // A lost BSI fill leaves a tag-store entry unreadable and unevictable:
    // the owning thread can never decode past it, commits stop, and the
    // watchdog must flag a livelock (not a budget overrun) with a dump.
    let w = gather();
    let opts = RunOptions {
        livelock_cycles: 20_000,
        faults: FaultPlan::single(FaultEvent {
            cycle: 2_000,
            site: FaultSite::StuckFill,
            index: 0,
            bit: 0,
            class: FaultClass::Transient,
        }),
        ..RunOptions::default()
    };
    match try_run_single(CoreConfig::virec(4, 32), &w, &opts) {
        Err(SimError::FaultDetected { faults, cause, .. }) => {
            assert!(!faults.is_empty());
            match *cause {
                SimError::Livelock {
                    stalled_cycles,
                    ref dump,
                    ..
                } => {
                    assert!(stalled_cycles >= 20_000);
                    assert!(!dump.is_empty(), "livelock must dump pipeline state");
                }
                ref other => panic!("expected livelock, got {other}"),
            }
        }
        Err(other) => panic!("expected a detected fault, got {other}"),
        Ok(_) => panic!("a stuck fill must not complete"),
    }
}

#[test]
fn golden_run_stuck_is_typed() {
    // A golden interpreter that never halts must surface as a typed
    // GoldenRunStuck at the derived step cap, not spin forever.
    let (core, mem) = run_unverified(CoreConfig::virec(4, 32), 256);
    let w = gather();
    let spin = Workload::from_parts(
        "spin",
        1,
        w.layout,
        Program::new("spin", vec![Instr::B { target: 0 }]),
        Box::new(|_| {}),
        Box::new(|_, _| Vec::new()),
    );
    match verify(&spin, 4, &core, &mem) {
        Err(SimError::GoldenRunStuck {
            thread, step_cap, ..
        }) => {
            assert_eq!(thread, 0);
            assert!(step_cap >= 100_000);
        }
        other => panic!("expected GoldenRunStuck, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Graceful sweeps: one failing configuration becomes a structured row and
// its siblings still complete.
// ---------------------------------------------------------------------------

#[test]
fn sweep_continues_past_a_failing_config() {
    let build = builder(kernels::spatter::gather, 256, Layout::for_core(0));
    let opts = RunOptions::default();

    // A config whose budget is hopeless even after the relaxed retry,
    // declared next to a healthy sibling and run on the parallel executor.
    let mut starved = CoreConfig::virec(4, 32);
    starved.max_cycles = 100;
    let mut spec = ExperimentSpec::new("failure_sweep");
    spec.single("starved", build.clone(), starved, &opts);
    spec.single("healthy", build, CoreConfig::virec(4, 32), &opts);
    let res = Executor::new(2).run(&spec);

    match &res.cell("starved").outcome {
        CellOutcome::Failed { kind, retried, .. } => {
            assert_eq!(*kind, "cycle_budget");
            assert!(retried, "budget failures are retried once before failing");
        }
        other => panic!("a 100-cycle budget cannot complete gather: {other:?}"),
    }

    // Its sibling still ran and verified.
    assert!(
        res.run("healthy").is_some(),
        "the sweep must continue past a failure"
    );
    assert_eq!(res.failed(), 1);
    assert!(!res.all_ok());
    assert_eq!(res.failures().len(), 1);
}

#[test]
fn budget_retry_rescues_a_slow_config() {
    // A budget that is too small by less than the default retry factor
    // must be rescued by the single relaxed retry and report success.
    let w = gather();
    let clean = try_run_single(CoreConfig::virec(4, 32), &w, &RunOptions::default())
        .expect("clean gather completes");
    let mut tight = CoreConfig::virec(4, 32);
    tight.max_cycles = clean.cycles - 1; // fails; 4x relaxation succeeds
    let mut spec = ExperimentSpec::new("retry_sweep");
    spec.single(
        "tight",
        builder(kernels::spatter::gather, 256, Layout::for_core(0)),
        tight,
        &RunOptions::default(),
    );
    let res = Executor::new(1).run(&spec);
    match res.run("tight") {
        Some(r) => assert_eq!(r.cycles, clean.cycles),
        None => panic!("retry should have rescued the run: {:?}", res.failures()),
    }
}
