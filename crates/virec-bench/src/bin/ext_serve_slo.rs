//! Extension experiment: serving-layer SLO metrics for the fault-tolerant
//! streaming task service (`virec_sim::serve`).
//!
//! Three scenarios per engine, virec vs banked, on the same seeded arrival
//! process:
//!
//! * **nominal** — the streaming defaults: the service keeps up, goodput
//!   and availability are 100%, and the latency percentiles measure the
//!   raw dispatch + offload + kernel path.
//! * **faulty** — a fault campaign (`VIREC_SERVE_FAULTS` transient upsets,
//!   default 64, plus one sticky-bad core) under SEC-DED: transients
//!   correct in place, the sticky core quarantines and its in-flight task
//!   fails over, and the accounting invariants (`lost == duplicated ==
//!   silent_corruptions == 0`) must hold.
//! * **overload** — arrivals at roughly twice the service capacity: the
//!   bounded admission queue sheds with typed rejections instead of
//!   deadlocking, and goodput degrades gracefully.
//!
//! Knobs: `VIREC_SERVE_TASKS`, `VIREC_SERVE_FAULTS`. Results land in
//! `results/ext_serve_slo.json` with provenance metadata like every other
//! figure.

use virec_bench::harness::*;
use virec_core::CoreConfig;
use virec_sim::experiment::ExperimentSpec;
use virec_sim::report::{pct, Table};
use virec_sim::serve::{ServeConfig, ServeFaultPlan};
use virec_sim::{run_service, ProtectionConfig};

const CORES: usize = 4;
const SEED: u64 = 0xF00D_5EED;
const THREADS: usize = 4;
/// The paper's sweet spot: 8 registers per thread (80–100% context).
const REGS_PER_THREAD: usize = 8;
/// Mean inter-arrival gap for the overload scenario: roughly half the
/// per-task service time divided across the cores, i.e. ~2x capacity.
const OVERLOAD_INTERARRIVAL: u64 = 200;

const ENGINES: [&str; 2] = ["virec", "banked"];
const SCENARIOS: [&str; 3] = ["nominal", "faulty", "overload"];

fn main() {
    let tasks = env_u64("VIREC_SERVE_TASKS", 192) as usize;
    let faults = env_u64("VIREC_SERVE_FAULTS", 64) as usize;

    let mut spec = ExperimentSpec::new("ext_serve_slo");
    spec.set_meta("cores", CORES);
    spec.set_meta("tasks", tasks);
    spec.set_meta("faults", faults);
    spec.set_meta("seed", SEED);
    spec.set_meta("threads", THREADS);
    spec.set_meta("regs_per_thread", REGS_PER_THREAD);
    spec.set_meta("overload_interarrival", OVERLOAD_INTERARRIVAL);

    for engine in ENGINES {
        for scenario in SCENARIOS {
            spec.custom(format!("{engine}/{scenario}"), move |_| {
                let core = match engine {
                    "virec" => CoreConfig::virec(THREADS, THREADS * REGS_PER_THREAD),
                    _ => CoreConfig::banked(THREADS),
                };
                let mut cfg = ServeConfig::streaming(CORES, core, tasks, SEED);
                match scenario {
                    "faulty" => {
                        cfg.faults = ServeFaultPlan::campaign(faults, 1);
                        cfg.protection = ProtectionConfig::secded();
                    }
                    "overload" => cfg.mean_interarrival = OVERLOAD_INTERARRIVAL,
                    _ => {}
                }
                Ok(run_service(cfg)?.metrics())
            });
        }
    }
    let res = run_spec(&spec);

    let metric = |key: &str, name: &str| res.metric(key, name);
    let int = |key: &str, name: &str| {
        metric(key, name)
            .map(|v| format!("{v:.0}"))
            .unwrap_or_else(|| "-".into())
    };
    let as_pct = |key: &str, name: &str| {
        metric(key, name)
            .map(pct)
            .unwrap_or_else(|| "-".to_string())
    };

    let mut slo = Table::new(
        &format!("Serve SLO — {CORES} cores x {THREADS} threads, {tasks} tasks"),
        &[
            "engine/scenario",
            "tasks_per_sec",
            "p50",
            "p99",
            "p999",
            "availability",
            "goodput",
            "completed",
            "rejected",
        ],
    );
    for engine in ENGINES {
        for scenario in SCENARIOS {
            let key = format!("{engine}/{scenario}");
            let rejected = metric(&key, "rejected_queue_full")
                .zip(metric(&key, "rejected_quarantined"))
                .map(|(q, c)| q + c);
            slo.row(vec![
                key.clone(),
                int(&key, "tasks_per_sec"),
                int(&key, "p50_cycles"),
                int(&key, "p99_cycles"),
                int(&key, "p999_cycles"),
                as_pct(&key, "availability"),
                as_pct(&key, "goodput"),
                int(&key, "completed"),
                rejected
                    .map(|v| format!("{v:.0}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
        }
    }
    slo.print();

    let mut rob = Table::new(
        "Serve robustness — fault campaign and accounting invariants",
        &[
            "engine/scenario",
            "injected",
            "corrected",
            "uncorrect",
            "retries",
            "failovers",
            "quarantined",
            "lost",
            "dup",
            "silent",
        ],
    );
    for engine in ENGINES {
        for scenario in SCENARIOS {
            let key = format!("{engine}/{scenario}");
            rob.row(vec![
                key.clone(),
                int(&key, "faults_injected"),
                int(&key, "faults_corrected"),
                int(&key, "faults_uncorrectable"),
                int(&key, "retries"),
                int(&key, "failovers"),
                int(&key, "quarantined_cores"),
                int(&key, "lost"),
                int(&key, "duplicated"),
                int(&key, "silent_corruptions"),
            ]);
        }
    }
    rob.print();
    res.print_failures();
}
