//! Crash-safe resumable sweeps end to end: an interrupted journaled sweep
//! resumed with `resume: true` must produce final JSON byte-identical to
//! an uninterrupted run without re-executing journaled cells; a hung cell
//! must be cancelled at its wall-clock deadline as a structured row while
//! its siblings complete; and a damaged journal must degrade gracefully
//! (corrupt records skipped, fingerprint mismatches starting fresh).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use virec::core::CoreConfig;
use virec::sim::experiment::{CellData, CellOutcome, Executor, ExperimentSpec};
use virec::sim::journal::journal_path;
use virec::sim::runner::RunOptions;
use virec::sim::{builder, JournalConfig, RunDiagnostics, SimError};
use virec::workloads::{kernels, Layout};

/// A fresh per-test journal directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("virec_resume_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp journal dir");
    dir
}

/// The kill-and-resume grid: a deterministically panicking cell, a custom
/// metrics cell, a cell rejecting its configuration, and two real
/// simulations. `runs` counts executions of the
/// panicking cell so the resume can prove it replayed the journaled row
/// instead of re-running it.
fn mixed_spec(name: &str, runs: &Arc<AtomicUsize>) -> ExperimentSpec {
    let mut spec = ExperimentSpec::new(name);
    let runs = Arc::clone(runs);
    spec.custom("boom", move |_| {
        runs.fetch_add(1, Ordering::SeqCst);
        panic!("deterministic explosion");
    });
    spec.custom("metrics", |_| {
        Ok(CellData::metrics([("alpha", 1.5), ("beta", -2.0)]))
    });
    spec.custom("bad_config", |_| {
        Err(SimError::Config {
            detail: "zero cores".into(),
            diag: RunDiagnostics::placeholder("resume-config"),
        })
    });
    let build = builder(kernels::spatter::gather, 256, Layout::for_core(0));
    let opts = RunOptions::default();
    spec.single("virec", build.clone(), CoreConfig::virec(4, 32), &opts);
    spec.single("banked", build, CoreConfig::banked(4), &opts);
    spec
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = temp_dir("identity");
    let clean_runs = Arc::new(AtomicUsize::new(0));
    let baseline = Executor::new(1).run(&mixed_spec("resume_identity", &clean_runs));
    assert_eq!(clean_runs.load(Ordering::SeqCst), 1);

    // Interrupt after three completed cells (the same drain path a SIGINT
    // takes, made deterministic): "boom", "metrics" and "bad_config" land
    // in the journal, the two simulations never run.
    let runs = Arc::new(AtomicUsize::new(0));
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: false,
    };
    let interrupted = Executor::new(1)
        .with_interrupt_after(3)
        .run_journaled(&mixed_spec("resume_identity", &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(interrupted.interrupted);
    assert_eq!(interrupted.skipped(), 2);
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    let jpath = journal_path(&dir, "resume_identity");
    assert!(jpath.exists(), "an interrupted sweep must keep its journal");

    // Resume: the panicking cell's FAILED row replays from the journal
    // (the counter must not move), only the two simulations execute, and
    // the final JSON is byte-identical to the uninterrupted baseline.
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: true,
    };
    let resumed = Executor::new(1)
        .run_journaled(&mixed_spec("resume_identity", &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(!resumed.interrupted);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "journaled cells must replay, not re-run"
    );
    assert_eq!(
        baseline.to_json(),
        resumed.to_json(),
        "resumed JSON must be byte-identical to an uninterrupted run"
    );
    assert!(!jpath.exists(), "a completed sweep must remove its journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_cell_is_cancelled_at_the_deadline_while_siblings_complete() {
    let mut spec = ExperimentSpec::new("deadline_sweep");
    // An infinite loop that only exits through the cooperative
    // cancellation point — exactly the shape of a hung simulation.
    spec.custom("hang", |ctx| loop {
        ctx.check()?;
        std::thread::yield_now();
    });
    spec.custom("sibling", |_| Ok(CellData::metrics([("cycles", 7.0)])));

    let res = Executor::new(2).with_deadline_ms(50).run(&spec);
    match &res.cell("hang").outcome {
        CellOutcome::Failed { kind, error, .. } => {
            assert_eq!(*kind, "deadline");
            assert!(
                error.contains("deadline") && error.contains("expired"),
                "got: {error}"
            );
        }
        other => panic!("the hung cell must fail with a deadline: {other:?}"),
    }
    assert!(
        res.run("sibling").is_some() || res.cell("sibling").data().is_some(),
        "siblings must be unaffected by one hung cell"
    );
    assert_eq!(res.failed(), 1);
    assert_eq!(res.skipped(), 0, "a deadline is a row, not an interruption");
    assert!(!res.interrupted);
}

#[test]
fn deadline_errors_are_typed_from_custom_cells() {
    // The ctx.check() path must surface the typed error, not a panic.
    let mut spec = ExperimentSpec::new("deadline_typed");
    spec.custom("hang", |ctx| loop {
        ctx.check()?;
    });
    let res = Executor::new(1).with_deadline_ms(20).run(&spec);
    match &res.cell("hang").outcome {
        CellOutcome::Failed { kind, .. } => assert_eq!(*kind, "deadline"),
        other => panic!("expected a deadline failure: {other:?}"),
    }
    // And the standalone error type agrees.
    let err = SimError::Deadline {
        elapsed_ms: 25,
        limit_ms: 20,
        diag: virec::sim::RunDiagnostics::placeholder("hang"),
    };
    assert!(err.deadline_expired());
    assert_eq!(err.kind(), "deadline");
}

#[test]
fn corrupt_journal_records_are_skipped_on_resume() {
    let dir = temp_dir("corrupt");
    let runs = Arc::new(AtomicUsize::new(0));
    let baseline = Executor::new(1).run(&mixed_spec("resume_corrupt", &runs));

    let runs = Arc::new(AtomicUsize::new(0));
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: false,
    };
    let interrupted = Executor::new(1)
        .with_interrupt_after(2)
        .run_journaled(&mixed_spec("resume_corrupt", &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(interrupted.interrupted);

    // Simulate a crash mid-append: one truncated record and one line of
    // garbage at the tail of the journal.
    let jpath = journal_path(&dir, "resume_corrupt");
    let mut text = std::fs::read_to_string(&jpath).expect("journal exists");
    text.push_str("{\"key\": \"virec\", \"status\": \"ok\", \"da");
    text.push_str("\nnot json at all\n");
    std::fs::write(&jpath, text).expect("rewrite journal");

    // The resume must skip the damaged tail (re-running those cells) and
    // still converge to the uninterrupted result.
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: true,
    };
    let resumed = Executor::new(1)
        .run_journaled(&mixed_spec("resume_corrupt", &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(!resumed.interrupted);
    assert_eq!(baseline.to_json(), resumed.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_journal_is_refused_and_the_sweep_starts_fresh() {
    let dir = temp_dir("mismatch");

    // Journal an interrupted sweep of one grid...
    let runs = Arc::new(AtomicUsize::new(0));
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: false,
    };
    let interrupted = Executor::new(1)
        .with_interrupt_after(1)
        .run_journaled(&mixed_spec("resume_shape", &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(interrupted.interrupted);

    // ...then resume under the same name with a different grid: the
    // fingerprint must not match, and every cell must execute fresh.
    let mut other = ExperimentSpec::new("resume_shape");
    let executed = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&executed);
    other.custom("different", move |_| {
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(CellData::metrics([("x", 1.0)]))
    });
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: true,
    };
    let res = Executor::new(1)
        .run_journaled(&other, Some(&cfg))
        .expect("journal dir is writable");
    assert!(res.all_ok());
    assert_eq!(executed.load(Ordering::SeqCst), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_header_falls_back_to_a_fresh_start() {
    let dir = temp_dir("corrupt_header");
    let runs = Arc::new(AtomicUsize::new(0));
    let baseline = Executor::new(1).run(&mixed_spec("resume_header", &runs));

    // A crash during journal creation (or on-disk damage) can leave the
    // header line truncated. The body may even hold well-formed records —
    // but without a trusted header nothing can be attributed to this spec.
    let jpath = journal_path(&dir, "resume_header");
    std::fs::write(&jpath, "{\"journal\":\"vi").expect("write damaged journal");

    // Resume must warn, discard the damaged file, run every cell fresh,
    // and converge to the uninterrupted result — not error out.
    let runs = Arc::new(AtomicUsize::new(0));
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: true,
    };
    let res = Executor::new(1)
        .run_journaled(&mixed_spec("resume_header", &runs), Some(&cfg))
        .expect("a damaged header must not fail the sweep");
    assert!(!res.interrupted);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "every cell must execute fresh when the header is unreadable"
    );
    assert_eq!(baseline.to_json(), res.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_from_a_different_problem_size_is_refused() {
    let dir = temp_dir("meta_mismatch");

    // Identical cell keys, but the spec declares it ran at n=512...
    let spec_at = |n: u64, runs: &Arc<AtomicUsize>| {
        let mut spec = mixed_spec("resume_meta", runs);
        spec.set_meta("n", n);
        spec
    };
    let runs = Arc::new(AtomicUsize::new(0));
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: false,
    };
    let interrupted = Executor::new(1)
        .with_interrupt_after(2)
        .run_journaled(&spec_at(512, &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(interrupted.interrupted);
    assert_eq!(runs.load(Ordering::SeqCst), 1);

    // ...so a resume at n=4096 must not replay its rows: the journaled
    // numbers describe a different problem size under the same keys.
    let cfg = JournalConfig {
        dir: dir.clone(),
        resume: true,
    };
    let res = Executor::new(1)
        .run_journaled(&spec_at(4096, &runs), Some(&cfg))
        .expect("journal dir is writable");
    assert!(!res.interrupted);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "the journaled cell must re-execute, not replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
