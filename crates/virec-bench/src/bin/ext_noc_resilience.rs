//! Extension experiment: service resilience vs injected NoC link defects —
//! throughput and tail latency as mesh links fail, ViReC vs banked.
//!
//! The streaming task service runs on a 2x2 mesh fabric while `k` link
//! upsets are injected mid-run (dispatch-clocked, CRC-caught, every one
//! retransmitted), for `k` swept from 0 up to a level that retires and
//! fences links. Each point records what the fault-tolerance story needs:
//!
//! * **goodput / availability** — completed tasks over submitted and
//!   delivered capacity-cycles over the ideal, with retired links earning
//!   zero link-capacity credit and fenced links half;
//! * **retransmissions** — every CRC-caught flit recovers by replay
//!   (`lost == duplicated == silent == 0` is asserted on every cell);
//! * **links retired / fenced** — how the leaky-bucket link trackers
//!   convert repeated upsets into route-arounds, and fencing when no
//!   route survives.
//!
//! The expected curve: goodput stays at 100% across the sweep (link-level
//! retransmission is invisible to the task accounting), availability
//! steps down as retired links shrink the delivered link capacity, and
//! p99 grows as traffic detours — graceful degradation, never a lost
//! task, never a livelock.
//!
//! Knobs: `VIREC_NOC_TASKS`, `VIREC_NOC_MAXFAULTS`. Results land in
//! `results/ext_noc_resilience.json` with provenance metadata like every
//! other figure.

use virec_bench::harness::*;
use virec_core::CoreConfig;
use virec_mem::{FabricConfig, FabricTopology};
use virec_sim::experiment::ExperimentSpec;
use virec_sim::report::{pct, Table};
use virec_sim::serve::{ServeConfig, ServeFaultPlan};
use virec_sim::{run_service, ProtectionConfig, RasConfig};

const CORES: usize = 4;
const SEED: u64 = 0xF00D_5EED;
const THREADS: usize = 4;
/// The paper's sweet spot: 8 registers per thread (80–100% context).
const REGS_PER_THREAD: usize = 8;

const ENGINES: [&str; 2] = ["virec", "banked"];

fn main() {
    let tasks = env_u64("VIREC_NOC_TASKS", 96) as usize;
    let max_faults = env_u64("VIREC_NOC_MAXFAULTS", 12) as usize;
    let sweep: Vec<usize> = (0..=max_faults).step_by(3).collect();

    let mut spec = ExperimentSpec::new("ext_noc_resilience");
    spec.set_meta("cores", CORES);
    spec.set_meta("tasks", tasks);
    spec.set_meta("seed", SEED);
    spec.set_meta("topology", "mesh2x2");
    spec.set_meta("threads", THREADS);
    spec.set_meta("regs_per_thread", REGS_PER_THREAD);

    for engine in ENGINES {
        for &faults in &sweep {
            spec.custom(format!("{engine}/links{faults}"), move |_| {
                let core = match engine {
                    "virec" => CoreConfig::virec(THREADS, THREADS * REGS_PER_THREAD),
                    _ => CoreConfig::banked(THREADS),
                };
                let mut cfg = ServeConfig::streaming(CORES, core, tasks, SEED);
                cfg.fabric = FabricConfig {
                    topology: FabricTopology::Mesh { cols: 2, rows: 2 },
                    ..FabricConfig::default()
                };
                cfg.protection = ProtectionConfig::secded();
                cfg.faults = ServeFaultPlan::links(faults);
                cfg.ras = Some(RasConfig::default());
                let r = run_service(cfg)?;
                assert_eq!(r.lost, 0, "link retransmission lost a task");
                assert_eq!(r.duplicated, 0, "link retransmission duplicated a task");
                assert_eq!(r.silent_corruptions, 0, "a corrupted flit escaped the CRC");
                if faults > 0 {
                    assert!(
                        r.fabric.noc_retransmissions >= 1,
                        "injected upsets must force retransmissions"
                    );
                }
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
            "NoC resilience — {CORES} cores x {THREADS} threads on a 2x2 mesh, \
             {tasks} tasks"
        ),
        &[
            "engine/defects",
            "availability",
            "goodput",
            "retrans",
            "retired",
            "fenced",
            "completed",
            "p99",
            "lost",
            "dup",
            "silent",
        ],
    );
    for engine in ENGINES {
        for &faults in &sweep {
            let key = format!("{engine}/links{faults}");
            tbl.row(vec![
                key.clone(),
                as_pct(&key, "availability"),
                as_pct(&key, "goodput"),
                int(&key, "noc_retransmissions"),
                int(&key, "noc_links_retired"),
                int(&key, "noc_links_fenced"),
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
