//! The declarative experiment layer end to end: parallel execution must be
//! observably identical to serial execution (tables and JSON byte for
//! byte), failures must degrade to structured rows without taking sibling
//! cells down, and the budget-retry policy must be configurable.

use virec::bench::harness::{EngineSel, SuiteSweep};
use virec::core::{CoreConfig, EngineKind, PolicyKind};
use virec::sim::experiment::{
    builder, CellData, CellOutcome, Executor, ExperimentSpec, RetryPolicy,
};
use virec::sim::runner::{default_checkpoint_interval, try_run_slots, RunOptions};
use virec::sim::{CancelToken, ProtectionConfig, RasConfig, RunDiagnostics, RunGate, SimError};
use virec::workloads::{kernels, Layout, WorkloadCtor};

fn small_sweep() -> SuiteSweep {
    SuiteSweep {
        name: "determinism_sweep".into(),
        workloads: vec!["gather".into(), "reduction".into(), "stride".into()],
        engines: vec![
            EngineSel::Banked,
            EngineSel::Virec(80),
            EngineSel::Virec(40),
            EngineSel::PrefetchExact,
        ],
        n: 256,
        threads: 4,
        retry: RetryPolicy::default(),
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    let sweep = small_sweep();
    let spec = sweep.spec();
    let serial = Executor::new(1).run(&spec);
    let parallel = Executor::new(4).run(&spec);

    assert!(serial.all_ok(), "clean sweep: {:?}", serial.failures());
    assert_eq!(
        sweep.render(&serial),
        sweep.render(&parallel),
        "rendered tables must not depend on the worker count"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "result JSON must not depend on the worker count"
    );
    // Spot-check that results are keyed, not positional luck: every cell
    // agrees across executors.
    for cell in spec.cells() {
        assert_eq!(
            serial.cycles(&cell.key),
            parallel.cycles(&cell.key),
            "cell {} diverged between worker counts",
            cell.key
        );
    }
}

#[test]
fn failing_cell_degrades_without_aborting_siblings() {
    // One starved cell (a cycle budget no retry can rescue) in the middle
    // of healthy siblings, executed in parallel: it must surface as a
    // structured FAILED row while every sibling completes.
    let build = builder(kernels::spatter::gather, 256, Layout::for_core(0));
    let mut starved = CoreConfig::virec(4, 32);
    starved.max_cycles = 50;

    let mut spec = ExperimentSpec::new("degrade_sweep");
    let opts = Default::default();
    spec.single("before", build.clone(), CoreConfig::banked(4), &opts);
    spec.single("starved", build.clone(), starved, &opts);
    spec.single("after_a", build.clone(), CoreConfig::virec(4, 32), &opts);
    spec.single("after_b", build, CoreConfig::software(4), &opts);
    let res = Executor::new(4).run(&spec);

    assert_eq!(res.failed(), 1);
    match &res.cell("starved").outcome {
        CellOutcome::Failed { kind, .. } => assert_eq!(*kind, "cycle_budget"),
        other => panic!("a 50-cycle budget cannot complete gather: {other:?}"),
    }
    for key in ["before", "after_a", "after_b"] {
        assert!(res.run(key).is_some(), "sibling {key} must complete");
    }
    // The failure row is structured in the JSON, not just the table.
    let json = res.to_json();
    assert!(json.contains("\"status\": \"failed\""));
    assert!(json.contains("\"error_kind\": \"cycle_budget\""));
    assert_eq!(json.matches("\"status\": \"ok\"").count(), 3);
}

#[test]
fn retry_policy_is_configurable() {
    // Measure the clean run, then set a budget one cycle short of it.
    let w = kernels::spatter::gather(256, Layout::for_core(0));
    let clean =
        virec::sim::runner::try_run_single(CoreConfig::virec(4, 32), &w, &Default::default())
            .expect("clean gather completes");
    let mut tight = CoreConfig::virec(4, 32);
    tight.max_cycles = clean.cycles - 1;
    let build = builder(kernels::spatter::gather, 256, Layout::for_core(0));

    // Default policy (1 retry at 4x) rescues it...
    let mut spec = ExperimentSpec::new("retry_default");
    spec.single("tight", build.clone(), tight, &Default::default());
    let res = Executor::new(1).run(&spec);
    assert_eq!(res.run("tight").map(|r| r.cycles), Some(clean.cycles));

    // ...RetryPolicy::none() does not...
    let mut spec = ExperimentSpec::new("retry_none").with_retry(RetryPolicy::none());
    spec.single("tight", build.clone(), tight, &Default::default());
    let res = Executor::new(1).run(&spec);
    match &res.cell("tight").outcome {
        CellOutcome::Failed { kind, retried, .. } => {
            assert_eq!(*kind, "cycle_budget");
            assert!(!retried, "no-retry policy must not retry");
        }
        other => panic!("the tight budget should fail without a retry: {other:?}"),
    }

    // ...and a custom factor of 2 with one retry rescues it again.
    let mut spec = ExperimentSpec::new("retry_custom").with_retry(RetryPolicy {
        max_retries: 1,
        budget_factor: 2,
        ..RetryPolicy::default()
    });
    spec.single("tight", build, tight, &Default::default());
    let res = Executor::new(1).run(&spec);
    assert_eq!(res.run("tight").map(|r| r.cycles), Some(clean.cycles));
}

#[test]
fn panicking_custom_cell_becomes_a_failure_row() {
    let mut spec = ExperimentSpec::new("panic_sweep");
    spec.custom("boom", |_| panic!("cell exploded"));
    spec.custom("ok", |_| Ok(CellData::metrics([("cycles", 1.0)])));
    spec.custom("typed", |_| {
        Err(SimError::GoldenRunStuck {
            thread: 0,
            step_cap: 1,
            diag: Box::new(RunDiagnostics {
                workload: "unit".into(),
                engine: EngineKind::ViReC,
                policy: PolicyKind::Lrc,
                nthreads: 1,
                cycles: 1,
                instructions: 0,
                context_switches: 0,
                rf_misses: 0,
                last_commit_pc: vec![None],
            }),
        })
    });
    let res = Executor::new(3).run(&spec);

    assert_eq!(res.failed(), 2);
    match &res.cell("boom").outcome {
        CellOutcome::Failed { kind, error, .. } => {
            assert_eq!(*kind, "panic");
            assert!(error.contains("cell exploded"), "got: {error}");
        }
        other => panic!("the panicking cell must fail: {other:?}"),
    }
    match &res.cell("typed").outcome {
        CellOutcome::Failed { kind, .. } => assert_eq!(*kind, "golden_stuck"),
        other => panic!("the typed error must fail the cell: {other:?}"),
    }
    assert_eq!(res.cycles("ok"), Some(1));
}

/// `ncores` slots of gather at n=256 on `core`, as an experiment cell.
fn gather_slots(ncores: usize, core: CoreConfig) -> Vec<(CoreConfig, WorkloadCtor, u64)> {
    vec![(core, kernels::spatter::gather as WorkloadCtor, 256); ncores]
}

#[test]
fn system_cell_budget_retry_scales_its_slots() {
    // A budget one cycle short of the clean system run: the default retry
    // (every slot's max_cycles scaled 4x) rescues it, no retry does not.
    let core = CoreConfig::virec(4, 32);
    let clean_slots: Vec<_> = (0..2)
        .map(|i| (core, kernels::spatter::gather(256, Layout::for_core(i))))
        .collect();
    let clean = try_run_slots(&clean_slots, &RunOptions::default()).expect("clean system runs");
    let tight = CoreConfig {
        max_cycles: clean.cycles - 1,
        ..core
    };
    for (retry, rescued) in [(RetryPolicy::default(), true), (RetryPolicy::none(), false)] {
        let mut spec = ExperimentSpec::new("system_retry").with_retry(retry);
        spec.system("tight", gather_slots(2, tight), &RunOptions::default());
        let res = Executor::new(1).run(&spec);
        match (&res.cell("tight").outcome, rescued) {
            (CellOutcome::Ok(CellData::System(s)), true) => assert_eq!(s.cycles, clean.cycles),
            (CellOutcome::Failed { kind, retried, .. }, false) => {
                assert_eq!(*kind, "cycle_budget");
                assert!(!retried);
            }
            (other, _) => panic!("retry {retry:?}: unexpected outcome {other:?}"),
        }
    }
}

#[test]
fn system_cell_gate_follows_the_executor() {
    // A system cell carries its gate in its RunOptions, as a single cell
    // does: an ungated executor keeps it (here, already cancelled), and a
    // gated executor replaces it with the cell's own gate.
    let token = CancelToken::new();
    token.cancel();
    let opts = RunOptions {
        gate: RunGate::new(token, 0),
        ..RunOptions::default()
    };
    let mut spec = ExperimentSpec::new("system_gate");
    spec.system("cell", gather_slots(2, CoreConfig::banked(4)), &opts);
    let ungated = Executor::new(1).run(&spec);
    match &ungated.cell("cell").outcome {
        CellOutcome::Failed { kind, .. } => assert_eq!(*kind, "deadline"),
        other => panic!("the cancelled spec gate must stop the run: {other:?}"),
    }
    let gated = Executor::new(1).with_deadline_ms(600_000).run(&spec);
    assert!(gated.all_ok(), "{:?}", gated.failures());
}

#[test]
fn slot_zero_options_on_a_system_cell_are_config_rows() {
    // Protection, checkpoints and RAS act on slot 0 only: on a two-slot
    // cell each is a typed config failure, on a one-slot cell a run.
    let slot0_only = [
        RunOptions {
            protection: ProtectionConfig::secded(),
            ..RunOptions::default()
        },
        RunOptions {
            checkpoint_interval: default_checkpoint_interval(),
            ..RunOptions::default()
        },
        RunOptions {
            ras: Some(RasConfig::default()),
            ..RunOptions::default()
        },
    ];
    let mut spec = ExperimentSpec::new("slot0_only");
    for (i, opts) in slot0_only.iter().enumerate() {
        spec.system(
            format!("two/{i}"),
            gather_slots(2, CoreConfig::banked(4)),
            opts,
        );
        spec.system(
            format!("one/{i}"),
            gather_slots(1, CoreConfig::banked(4)),
            opts,
        );
    }
    let res = Executor::new(2).run(&spec);
    for i in 0..slot0_only.len() {
        match &res.cell(&format!("two/{i}")).outcome {
            CellOutcome::Failed { kind, .. } => assert_eq!(*kind, "config"),
            other => panic!("options {i} on two slots must be a config row: {other:?}"),
        }
        assert!(
            res.system(&format!("one/{i}")).is_some(),
            "options {i} on one slot"
        );
    }
}
