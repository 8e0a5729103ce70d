//! The perf ledger: one seeded command that measures six workloads'
//! end-to-end metrics with tracing off, then attributes their host time to
//! the simulator's layers in a traced pass. See README.md beside this file.
//!
//! ```text
//! ledger [--seed N] [--workload NAME] [--out DIR] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every metric is printed as `workload name value unit n=<samples>`, and
//! the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `metrics.json` and `trace.json` are written under `--out`. The exit
//! code is nonzero when any correctness check fails.

mod bench;
mod replay;
mod report;
mod spec;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bench::{Bench, Tally, LAYER_METRICS};
use report::{json_str, median, Metric};
use spec::{Kind, Spec};
use trace::Trace;

/// End-to-end metrics with a regression bound in `BENCHMARK.json`, and
/// their units; the result line of a `--trace 0` run carries exactly
/// these. The README says why the other end-to-end metrics are left out.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_cycles", "cycles"),
    ("availability", "ratio"),
];

const USAGE: &str =
    "usage: ledger [--seed N] [--workload NAME] [--out DIR] [--seconds S] [--trace 0|1]";

struct Args {
    seed: u64,
    kinds: Vec<Kind>,
    out: PathBuf,
    /// Measure iterations for this long instead of each workload's fixed
    /// count.
    seconds: Option<f64>,
    /// `None` runs both phases, `Some(false)` only the timed phase,
    /// `Some(true)` only the traced phase.
    trace: Option<bool>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        kinds: Kind::ALL.to_vec(),
        out: PathBuf::from("target/ledger"),
        seconds: None,
        trace: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--workload" => parsed.kinds = vec![Kind::parse(&value).ok_or_else(bad)?],
            "--out" => parsed.out = PathBuf::from(value),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(parsed)
}

/// One workload's results.
struct Outcome {
    kind: Kind,
    tally: Tally,
    metrics: Vec<Metric>,
}

/// Builds the workload's inputs five times, reporting the median set-up
/// time. The count is fixed rather than timed so that the allocation
/// history the timed phase starts from does not depend on host speed.
fn set_up(spec: Spec, seed: u64) -> (Bench, Metric) {
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        let bench = Bench::new(spec, seed);
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() == 5 {
            return (bench, Metric::sampled("setup_s", &samples, "s"));
        }
    }
}

fn run_workload(spec: Spec, args: &Args, trace: &mut Trace) -> Outcome {
    let name = spec.kind.name();
    let (mut bench, setup) = set_up(spec, args.seed);
    let mut metrics = vec![setup];
    let mut tally = Tally::default();
    let mut timed_key = None;

    if args.trace != Some(true) {
        tally.merge(bench.warm_up());
        let start = Instant::now();
        let mut iters = Vec::new();
        // Peak resident memory of each iteration, which starts from the
        // memory set-up left live. The allocator keeps some memory earlier
        // work freed for an iteration or two, by a varying amount, so the
        // least peak is the one that repeats: what the work itself needs.
        let (mut peaks, mut rss_scoped) = (Vec::new(), true);
        loop {
            rss_scoped &= report::reset_peak_rss();
            iters.push(bench.iterate());
            peaks.extend(report::peak_rss_mb());
            let host: Vec<f64> = iters.iter().map(|i| i.host_s).collect();
            // With a time budget, start another iteration only if it is
            // expected to end no more than half an iteration past it.
            let done = match args.seconds {
                None => iters.len() >= spec.iterations,
                Some(s) => start.elapsed().as_secs_f64() + median(&host) / 2.0 > s,
            };
            if done {
                break;
            }
        }
        let host: Vec<f64> = iters.iter().map(|i| i.host_s).collect();
        metrics.push(Metric::sampled("host_s", &host, "s"));
        if let Some(least) = peaks.iter().copied().reduce(f64::min) {
            metrics.push(Metric {
                scope: (!rss_scoped).then_some("process"),
                ..Metric::exact("peak_rss_mb", least, "MiB", peaks.len())
            });
        }
        let first = iters.remove(0);
        let mut timed = first.tally;
        for it in iters {
            if it.sim_key != first.sim_key {
                timed
                    .incorrect
                    .push("simulated outputs differ between iterations".to_string());
            }
            timed.merge(it.tally);
        }
        metrics.push(Metric::exact(
            "fail_ratio",
            timed.failed as f64 / timed.attempted.max(1) as f64,
            "ratio",
            timed.attempted,
        ));
        metrics.extend(first.sim);
        tally.merge(timed);
        timed_key = Some(first.sim_key);
    }

    if args.trace != Some(false) {
        let traced = bench.traced(trace);
        if let (Some(a), Some(b)) = (&timed_key, &traced.sim_key) {
            if a != b {
                tally
                    .incorrect
                    .push("simulated outputs differ between the timed and traced phases".into());
            }
        }
        for &(metric, unit) in LAYER_METRICS {
            let value = traced.layers.get(metric).copied().unwrap_or(0.0);
            metrics.push(Metric::exact(metric, value, unit, 1));
        }
        metrics.extend(traced.extra);
        tally.merge(traced.tally);
    }
    for m in &metrics {
        println!("{}", m.line(name));
    }
    Outcome {
        kind: spec.kind,
        tally,
        metrics,
    }
}

/// The metrics a run's result line carries.
fn in_result_line(metric: &str, trace: Option<bool>) -> bool {
    match trace {
        Some(false) => END_TO_END.iter().any(|(m, _)| *m == metric),
        Some(true) => LAYER_METRICS.iter().any(|(m, _)| *m == metric),
        None => true,
    }
}

fn metrics_json(seed: u64, outcomes: &[Outcome]) -> String {
    let workloads: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let checks: Vec<String> = o.tally.incorrect.iter().map(|e| json_str(e)).collect();
            let metrics: Vec<String> = o
                .metrics
                .iter()
                .map(|m| format!("        {}: {}", json_str(&m.name), m.json(true)))
                .collect();
            format!(
                "    \"{}\": {{\n      \"attempted\": {}, \"failed\": {}, \
                 \"failed_checks\": [{}],\n      \"metrics\": {{\n{}\n      }}\n    }}",
                o.kind.name(),
                o.tally.attempted,
                o.tally.failed,
                checks.join(", "),
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        workloads.join(",\n")
    )
}

fn result_line(outcomes: &[Outcome], trace: Option<bool>) -> String {
    let prefix = outcomes.len() > 1;
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in o.metrics.iter().filter(|m| in_result_line(&m.name, trace)) {
            let key = if prefix {
                format!("{}/{}", o.kind.name(), m.name)
            } else {
                m.name.clone()
            };
            metrics.push(format!("{}: {}", json_str(&key), m.json(false)));
        }
    }
    let correct = outcomes.iter().all(|o| o.tally.incorrect.is_empty());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().map(|o| o.tally.attempted).sum::<usize>(),
        outcomes.iter().map(|o| o.tally.failed).sum::<usize>(),
        metrics.join(", ")
    )
}

/// The lines of a manifest's `[profile.release]` tables, its per-package
/// overrides included, without comments or blank lines.
fn release_profile(manifest: &str) -> Vec<&str> {
    let mut inside = false;
    let mut lines = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line.starts_with("[profile.release");
        }
        if inside && !line.is_empty() {
            lines.push(line);
        }
    }
    lines
}

/// True when the ledger's own manifest compiles the simulator the way the
/// workspace does. Built as a package of its own, the ledger would
/// otherwise time a differently compiled program than the one users run.
fn same_release_profile() -> bool {
    release_profile(include_str!("Cargo.toml"))
        == release_profile(include_str!("../../../../../Cargo.toml"))
}

fn main() -> ExitCode {
    // Dense-loop runs would time a different program than the one the
    // ledger's metrics describe.
    if std::env::var_os("VIREC_NO_SKIP").is_some() {
        eprintln!("error: the ledger refuses to run with VIREC_NO_SKIP set");
        return ExitCode::from(2);
    }
    if !same_release_profile() {
        eprintln!(
            "error: [profile.release] in the ledger's Cargo.toml differs from the \
             workspace's Cargo.toml; copy the workspace's"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut trace = Trace::default();
    let mut outcomes = Vec::new();
    for kind in &args.kinds {
        let start = Instant::now();
        let outcome = run_workload(kind.spec(), &args, &mut trace);
        eprintln!(
            "[ledger] {} done in {:.1} s",
            kind.name(),
            start.elapsed().as_secs_f64()
        );
        for e in &outcome.tally.incorrect {
            eprintln!("error[check]: {}: {e}", kind.name());
        }
        outcomes.push(outcome);
    }

    let files = [
        ("metrics.json", metrics_json(args.seed, &outcomes)),
        ("trace.json", trace.to_json(args.seed)),
    ];
    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        files
            .iter()
            .try_for_each(|(f, body)| std::fs::write(args.out.join(f), body))
    });
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", args.out.display());
    }

    println!("{}", result_line(&outcomes, args.trace));
    if outcomes.iter().all(|o| o.tally.incorrect.is_empty()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's job list at toy size, both phases: every metric
    /// of the glossary is emitted with its unit, and no op fails.
    #[test]
    fn smoke_every_workload_at_toy_size() {
        let args = Args {
            seed: 1,
            kinds: Vec::new(),
            out: PathBuf::new(),
            seconds: None,
            trace: None,
        };
        let mut trace = Trace::default();
        for kind in Kind::ALL {
            let spec = Spec {
                n: 256,
                warmup: 0,
                iterations: 1,
                count: 8,
                ..kind.spec()
            };
            let o = run_workload(spec, &args, &mut trace);
            assert!(
                o.tally.incorrect.is_empty(),
                "{kind:?}: {:?}",
                o.tally.incorrect
            );
            let unit = |name: &str| {
                o.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{kind:?} did not emit {name}"))
                    .unit
            };
            let mut e2e = END_TO_END.to_vec();
            e2e.push(("fail_ratio", "ratio"));
            match kind {
                Kind::ServeMesh => e2e.extend([("p50_cycles", "cycles"), ("p95_cycles", "cycles")]),
                Kind::FaultCampaign => e2e.push(("recovery_rate", "ratio")),
                _ => {}
            }
            for (name, want) in e2e.into_iter().chain(LAYER_METRICS.iter().copied()) {
                assert_eq!(unit(name), want, "{kind:?} {name}");
            }
            for (name, _) in END_TO_END {
                let m = o.metrics.iter().find(|m| m.name == name).unwrap();
                assert!(m.value.is_finite() && m.value > 0.0, "{kind:?} {name}");
            }
            let fail = o.metrics.iter().find(|m| m.name == "fail_ratio").unwrap();
            assert_eq!(fail.value, 0.0, "{kind:?}");
            if kind == Kind::ComputeNear {
                assert!(o
                    .metrics
                    .iter()
                    .any(|m| m.name.starts_with("loop.event_over_dense.")));
            }
        }
    }

    /// The result line carries exactly the metrics `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn benchmark_json_declares_every_result_line_metric() {
        let declared = include_str!("../../../../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(LAYER_METRICS) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn release_profile_matches_the_workspace() {
        assert!(!release_profile(include_str!("Cargo.toml")).is_empty());
        assert!(
            same_release_profile(),
            "copy the workspace's [profile.release] into the ledger's Cargo.toml"
        );
        let manifest = "[package]\nname = \"x\"\n[profile.release]\n# note\nlto = true\n\n\
                        [profile.release.package.a]\nopt-level = 2\n[profile.bench]\ndebug = 0\n";
        assert_eq!(
            release_profile(manifest),
            [
                "[profile.release]",
                "lto = true",
                "[profile.release.package.a]",
                "opt-level = 2"
            ]
        );
    }

    #[test]
    fn flags_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--seed 2 --workload serve_mesh --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.seed, a.kinds.len(), a.seconds, a.trace),
            (2, 1, Some(10.0), Some(true))
        );
        for bad in [
            "--seed x",
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--bogus 1",
            "--seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
