//! Figure 11: performance scaling with increased system load.
//!
//! 1/2/4/8 ViReC processors share the crossbar and DRAM, all running
//! gather with 8 or 10 threads per core on a fixed 64-register RF (100%
//! context at 8 threads, 80% at 10). Paper shape: with 1–2 active cores,
//! 8 threads suffice to hide memory latency; as contention raises the
//! observed latency, 10 threads win for the 4- and 8-core systems —
//! the thread-scaling flexibility a statically banked core lacks.
//!
//! Each (cores, threads) point is one multi-core cell (one slot per core)
//! of a declarative sweep; a failed point degrades to a `FAILED` row.

use virec_bench::harness::*;
use virec_core::CoreConfig;
use virec_sim::experiment::ExperimentSpec;
use virec_sim::report::{f3, Table};
use virec_sim::RunOptions;
use virec_workloads::kernels;

const CORES: [usize; 4] = [1, 2, 4, 8];
const THREADS: [usize; 2] = [8, 10];

fn main() {
    let n = problem_size();

    let mut spec = ExperimentSpec::new("fig11_system_load");
    spec.set_meta("n", n);
    for ncores in CORES {
        for threads in THREADS {
            let mut core = CoreConfig::virec(threads, 64);
            core.max_cycles = 2_000_000_000;
            let slots = vec![(core, kernels::spatter::gather as _, n); ncores];
            spec.system(
                format!("{ncores}c/{threads}t"),
                slots,
                &RunOptions::default(),
            );
        }
    }
    let res = run_spec(&spec);

    let mut t = Table::new(
        &format!("Figure 11 — system-load scaling, gather n={n}, ViReC 64 regs"),
        &[
            "cores",
            "threads",
            "cycles",
            "core0_ipc",
            "mean_ipc",
            "observed_queue_delay",
        ],
    );
    for ncores in CORES {
        for threads in THREADS {
            match res.system(&format!("{ncores}c/{threads}t")) {
                Some(r) => t.row(vec![
                    ncores.to_string(),
                    threads.to_string(),
                    r.cycles.to_string(),
                    f3(r.per_core[0].ipc()),
                    f3(r.mean_core_ipc()),
                    f3(r.fabric.mean_queue_delay()),
                ]),
                None => t.row(vec![
                    ncores.to_string(),
                    threads.to_string(),
                    "FAILED".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    t.print();
    res.print_failures();
}
