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

/// Every command in the usage text with its declared flags, each paired
/// with whether it takes a value: `[--n <elems>]` does, `[--resume]` does
/// not.
fn usage_commands() -> Vec<(String, Vec<(String, bool)>)> {
    let usage = stderr(&cli(""));
    let mut cmds: Vec<(String, Vec<(String, bool)>)> = Vec::new();
    for line in usage
        .lines()
        .skip_while(|l| !l.starts_with("USAGE:"))
        .skip(1)
    {
        let mut words = line.split_whitespace().peekable();
        match words.peek() {
            None => break,
            Some(&"virec-cli") => {
                words.next();
                let name = words.next().expect("command name");
                cmds.push((name.to_string(), Vec::new()));
            }
            Some(_) => {}
        }
        let flags = &mut cmds.last_mut().expect("a command line first").1;
        while let Some(word) = words.next() {
            let flag = word.trim_start_matches('[').trim_end_matches(']');
            let takes_value = !word.ends_with(']')
                && words
                    .peek()
                    .is_some_and(|next| !next.starts_with('[') && !next.starts_with("--"));
            flags.push((flag.to_string(), takes_value));
            if takes_value {
                words.next();
            }
        }
    }
    cmds
}

/// Every command rejects every flag that only other commands declare; and
/// after each flag it does declare (given the value `1` if it takes one),
/// it fails on a trailing undeclared `--zz`, not on the flag itself.
/// Parsing stops at the first bad flag, so no simulation starts.
#[test]
fn unknown_and_misplaced_flags_are_rejected() {
    let cmds = usage_commands();
    assert!(cmds.len() > 5, "usage lists the commands: {cmds:?}");
    let mut all: Vec<&str> = cmds
        .iter()
        .flat_map(|(_, flags)| flags.iter().map(|(f, _)| f.as_str()))
        .collect();
    all.sort_unstable();
    all.dedup();
    for (cmd, flags) in &cmds {
        let declared = |f: &str| flags.iter().any(|(d, _)| d == f);
        for flag in all.iter().filter(|f| !declared(f)) {
            let args = format!("{cmd} {flag}");
            let o = cli(&args);
            assert_eq!(o.status.code(), Some(2), "`{args}` should exit 2");
            let want = format!("error: unknown flag {flag} for {cmd}\n");
            assert_eq!(stderr(&o), want, "`{args}`");
        }
        for (flag, takes_value) in flags {
            let args = format!("{cmd} {flag}{} --zz", if *takes_value { " 1" } else { "" });
            let o = cli(&args);
            assert_eq!(o.status.code(), Some(2), "`{args}` should exit 2");
            let want = format!("error: unknown flag --zz for {cmd}\n");
            assert_eq!(stderr(&o), want, "`{args}`");
        }
    }
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

/// Every `--engine` spelling `run` accepts.
const ENGINES: [&str; 6] = [
    "virec",
    "banked",
    "software",
    "prefetch_full",
    "prefetch_exact",
    "nsf",
];

#[test]
fn run_accepts_every_engine_spelling() {
    for engine in ENGINES {
        let o = cli(&format!("run --workload gather --n 256 --engine {engine}"));
        assert_eq!(o.status.code(), Some(0), "{engine}: {}", stderr(&o));
        assert!(stdout(&o).contains(&format!("engine            : {engine},")));
    }
}

#[test]
fn run_reports_a_blown_cycle_budget() {
    for engine in ENGINES {
        let o = cli(&format!(
            "run --workload gather --n 256 --engine {engine} --max-cycles 1000"
        ));
        assert_eq!(o.status.code(), Some(1), "{engine}");
        assert!(
            stderr(&o).starts_with("error[cycle_budget]: "),
            "{engine}: {}",
            stderr(&o)
        );
    }
}

#[test]
fn banked_campaign_reports_a_summary() {
    let o = cli("campaign --engine banked --n 128 --faults 8");
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert!(
        stdout(&o).starts_with("banked: 8 injections — "),
        "{}",
        stdout(&o)
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

#[test]
fn serve_link_campaign_runs_under_ras() {
    // `--link-faults` turns on the RAS layer, which retires the worn links;
    // the report is the one the service printed before link wear moved
    // onto the shared fault router.
    let o = cli("serve --topology mesh2x2 --link-faults 9");
    assert_eq!(o.status.code(), Some(0), "{}", stderr(&o));
    assert_eq!(
        stdout(&o),
        "serve[virec]: submitted=128 completed=128 rejected_queue_full=0 \
         rejected_quarantined=0 failed=0 lost=0 duplicated=0\n\
         serve[virec]: faults injected=6 corrected=0 uncorrectable=0 silent_corruptions=0 \
         retries=0 failovers=0 quarantined_cores=0\n\
         serve[virec]: p50=1574 p99=2382 p999=2388 cycles, tasks_per_sec=484634, \
         availability=76.7%, goodput=100.0%\n\
         serve[virec]: ras repairs=0 fenced_cores=0 spares_consumed=0\n\
         serve[virec]: noc hops=11460 crc_detected=3 retransmissions=3 links_retired=2 \
         links_fenced=0\n"
    );
}
