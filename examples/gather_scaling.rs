//! Thread-scaling study on the gather kernel — the scenario that motivates
//! ViReC (paper §2 and Figure 10): with a fixed physical register budget,
//! is it better to run few threads with complete contexts or many threads
//! with partial contexts?
//!
//! ```sh
//! cargo run --release --example gather_scaling
//! ```

use virec::core::CoreConfig;
use virec::sim::report::{f3, Table};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout};

fn main() -> Result<(), SimError> {
    let n = 8192;
    let workload = kernels::spatter::gather(n, Layout::for_core(0));
    let active = workload.active_context_size(); // ≈8 registers for gather
    let opts = RunOptions::default();

    // A fixed budget of 32 physical registers...
    let budget = 4 * active;
    let mut t = Table::new(
        &format!("gather (n={n}): {budget}-register RF, threads vs context"),
        &[
            "threads",
            "ctx_per_thread",
            "cycles",
            "ipc",
            "rf_hit_rate",
            "switches",
        ],
    );
    for threads in [1usize, 2, 4, 6, 8, 10] {
        let r = try_run_single(CoreConfig::virec(threads, budget), &workload, &opts)?;
        t.row(vec![
            threads.to_string(),
            format!("{:.0}%", 100.0 * budget as f64 / (threads * active) as f64),
            r.cycles.to_string(),
            f3(r.ipc()),
            f3(r.stats.rf_hit_rate()),
            r.stats.context_switches.to_string(),
        ]);
    }
    t.print();

    println!(
        "Reading the table: once memory latency stops being hidden by more\n\
         threads, shrinking per-thread context costs more than the extra\n\
         threads gain — the Pareto knee the paper's Figure 10 plots."
    );
    Ok(())
}
