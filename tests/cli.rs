//! `virec-cli` end to end: exit codes, the error lines CI greps, flag
//! validation, and the sweep path through the experiment harness. Every
//! case runs the real binary at small sizes.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the CLI with `args` and extra environment variables.
fn cli_env(args: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_virec-cli"));
    cmd.args(args.split_whitespace())
        .env("VIREC_RESULTS", "off");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn virec-cli")
}

fn cli(args: &str) -> Output {
    cli_env(args, &[])
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// Asserts `args` is a usage error (exit 2) whose message names `flag`.
fn rejects(args: &str, flag: &str) {
    let o = cli(args);
    assert_eq!(o.status.code(), Some(2), "`{args}` should exit 2");
    let err = stderr(&o);
    assert!(err.starts_with("error: "), "`{args}`: {err}");
    assert!(err.contains(flag), "`{args}` should name {flag}: {err}");
}

/// A fresh per-test results directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("virec_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_flag_values_name_the_flag() {
    rejects("run --workload gather --group-evict x", "--group-evict");
    rejects("serve --queue-depth x", "--queue-depth");
    rejects("area --threads x", "--threads");
    rejects("area --regs x", "--regs");
    rejects("campaign --seed x", "--seed");
    rejects("run --workload gather --n 0", "--n");
    rejects("run --workload gather --n", "--n");
}

#[test]
fn unknown_and_misplaced_flags_are_rejected() {
    rejects("run --workload gather --treads 4", "--treads");
    rejects("run --workload gather --resume", "--resume");
    rejects("area --seed 1", "--seed");
}

#[test]
fn seed_zero_passes_through() {
    // Each of these fails on a flag parsed after --seed: the seed itself
    // was accepted.
    rejects("campaign --seed 0 --engine nsf", "nsf");
    rejects("noc --seed 0 --topology bogus", "--topology");
    rejects("serve --seed 0 --protection bogus", "--protection");
    let o = cli("ras --seed 0 --n 64 --faults 1");
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("seed 0x0"), "{}", stdout(&o));
}

#[test]
fn engine_only_commands_reject_other_engines() {
    for cmd in ["campaign", "ras", "serve"] {
        rejects(&format!("{cmd} --engine software"), "software");
    }
    rejects("run --workload gather --engine bogus", "bogus");
}

#[test]
fn usage_lists_every_flag() {
    let o = cli("");
    assert_eq!(o.status.code(), Some(2));
    let usage = stderr(&o);
    for flag in [
        "--ce-leak-interval",
        "--budget-retries",
        "--link-faults",
        "--area-budget",
    ] {
        assert!(usage.contains(flag), "usage omits {flag}");
    }
}

#[test]
fn ci_gate_diagnostics_are_stable() {
    let o = cli("tune --budgets 0");
    assert_eq!(o.status.code(), Some(2));
    assert!(stderr(&o).contains("error[alloc]: register budget 0 outside 1..=17 (x8..x24)"));

    let o = cli("lint --broken-fixture");
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o)
        .contains("[malformed-control-flow] pc 0: branch at pc 0 targets 7, past the end"));

    let o = cli("tv --broken-fixture");
    assert_eq!(o.status.code(), Some(1));
    assert!(stdout(&o).contains("[tv:spill-slot-mismatch]"));
}

#[test]
fn run_accepts_every_engine_spelling() {
    for engine in [
        "virec",
        "banked",
        "software",
        "prefetch_full",
        "prefetch_exact",
        "nsf",
    ] {
        let o = cli(&format!("run --workload gather --n 256 --engine {engine}"));
        assert_eq!(o.status.code(), Some(0), "{engine}: {}", stderr(&o));
        assert!(stdout(&o).contains(&format!("engine            : {engine},")));
    }
}

#[test]
fn run_reports_a_blown_cycle_budget() {
    let o = cli("run --workload gather --n 256 --max-cycles 1000");
    assert_eq!(o.status.code(), Some(1));
    assert!(
        stderr(&o).starts_with("error[cycle_budget]: "),
        "{}",
        stderr(&o)
    );
}

#[test]
fn sweep_runs_interrupts_and_resumes() {
    let clean = temp_dir("clean");
    let o = cli(&format!(
        "sweep --jobs 1 --n 64 --workloads gather --engines banked --json {}",
        clean.display()
    ));
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(stdout(&o).contains("gather"));
    assert!(clean.join("sweep.json").is_file());

    let grid = "sweep --jobs 1 --n 64 --workloads gather --engines banked,virec80";
    let dir = temp_dir("interrupted");
    let args = format!("{grid} --json {}", dir.display());
    let o = cli_env(&args, &[("VIREC_INTERRUPT_AFTER", "1")]);
    assert_eq!(o.status.code(), Some(130), "{}", stderr(&o));
    assert!(stdout(&o).is_empty());
    let o = cli(&format!("{args} --resume"));
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(dir.join("sweep.json").is_file());
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}
