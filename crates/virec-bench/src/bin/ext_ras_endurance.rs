//! Extension experiment: long-horizon wear campaign for the RAS layer —
//! availability vs permanent-fault rate, ViReC vs banked.
//!
//! The streaming task service runs with the RAS layer enabled (spare
//! pool + repair latency + fencing) while `k` of its cores develop
//! stuck-at defects mid-run, for `k` swept from 0 up to the fleet size.
//! Each point records what the paper's availability story needs:
//!
//! * **availability** — delivered capacity-cycles over the ideal
//!   (healthy cores earn full credit, fenced cores 75%, cores under
//!   repair or quarantined none);
//! * **goodput** — completed tasks over submitted, proving repairs do
//!   not drop or duplicate work (`lost == duplicated == silent == 0`
//!   is asserted on every cell);
//! * **repairs / fenced** — how the spare pool absorbs the first
//!   defects and how the fleet degrades once the pool runs dry.
//!
//! The expected curve: availability stays near 100% while spares last
//! (repairs cost only `repair_cycles` of downtime each), then steps down
//! by roughly one fenced core's worth (25% of that core) per defect past
//! the pool — graceful degradation, never a cliff to zero, and byte-level
//! accounting intact at every point.
//!
//! Knob: `VIREC_RAS_TASKS`. Results land in
//! `results/ext_ras_endurance.json` with provenance metadata like every
//! other figure.

use virec_bench::harness::*;
use virec_core::CoreConfig;
use virec_sim::experiment::ExperimentSpec;
use virec_sim::report::{pct, Table};
use virec_sim::serve::{ServeConfig, ServeFaultPlan};
use virec_sim::{run_service, ProtectionConfig, RasConfig};

const CORES: usize = 4;
/// Spare regions in the service-wide RAS pool.
const SPARES: u32 = 2;
const SEED: u64 = 0xF00D_5EED;
const THREADS: usize = 4;
/// The paper's sweet spot: 8 registers per thread (80–100% context).
const REGS_PER_THREAD: usize = 8;

const ENGINES: [&str; 2] = ["virec", "banked"];

fn main() {
    let tasks = env_u64("VIREC_RAS_TASKS", 96) as usize;

    let mut spec = ExperimentSpec::new("ext_ras_endurance");
    spec.set_meta("cores", CORES);
    spec.set_meta("tasks", tasks);
    spec.set_meta("spare_rows", SPARES);
    spec.set_meta("seed", SEED);
    spec.set_meta("threads", THREADS);
    spec.set_meta("regs_per_thread", REGS_PER_THREAD);

    for engine in ENGINES {
        for stuck in 0..=CORES {
            spec.custom(format!("{engine}/stuck{stuck}"), move |_| {
                let core = match engine {
                    "virec" => CoreConfig::virec(THREADS, THREADS * REGS_PER_THREAD),
                    _ => CoreConfig::banked(THREADS),
                };
                let mut cfg = ServeConfig::streaming(CORES, core, tasks, SEED);
                cfg.protection = ProtectionConfig::secded();
                cfg.faults = ServeFaultPlan::stuck(stuck);
                cfg.ras = Some(RasConfig {
                    spare_rows: SPARES,
                    ..RasConfig::default()
                });
                let r = run_service(cfg)?;
                assert_eq!(r.lost, 0, "repair path lost a task");
                assert_eq!(r.duplicated, 0, "repair path duplicated a task");
                assert_eq!(r.silent_corruptions, 0, "a corrupted result escaped");
                Ok(r.metrics())
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

    let mut tbl = Table::new(
        &format!(
            "RAS endurance — {CORES} cores x {THREADS} threads, {tasks} tasks, \
             {SPARES} spare regions"
        ),
        &[
            "engine/defects",
            "availability",
            "goodput",
            "repairs",
            "fenced",
            "failovers",
            "completed",
            "p99",
            "lost",
            "dup",
            "silent",
        ],
    );
    for engine in ENGINES {
        for stuck in 0..=CORES {
            let key = format!("{engine}/stuck{stuck}");
            tbl.row(vec![
                key.clone(),
                as_pct(&key, "availability"),
                as_pct(&key, "goodput"),
                int(&key, "repairs"),
                int(&key, "fenced_cores"),
                int(&key, "failovers"),
                int(&key, "completed"),
                int(&key, "p99_cycles"),
                int(&key, "lost"),
                int(&key, "duplicated"),
                int(&key, "silent_corruptions"),
            ]);
        }
    }
    tbl.print();
    res.print_failures();
}
