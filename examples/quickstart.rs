//! Quickstart: simulate the gather kernel on a ViReC core and print the
//! headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use virec::core::{CoreConfig, PolicyKind};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{kernels, Layout};

fn main() -> Result<(), SimError> {
    // 1. Build a workload: the Spatter-style gather kernel over 4096
    //    elements, laid out in core 0's memory slice.
    let workload = kernels::spatter::gather(4096, Layout::for_core(0));
    println!(
        "kernel `{}`: {} instructions, active context = {} registers",
        workload.name,
        workload.program().len(),
        workload.active_context_size()
    );

    // 2. Configure a ViReC core: 8 hardware threads sharing a 52-entry
    //    physical register file (80% of the active context), managed by the
    //    Least Recently Committed policy.
    let mut cfg = CoreConfig::virec(8, 52);
    cfg.policy = PolicyKind::Lrc;

    // 3. Run. The runner offloads the thread contexts into the reserved
    //    region, simulates cycle by cycle, and verifies the final
    //    architectural state against the golden interpreter; a failed run
    //    is a typed `SimError`.
    let result = try_run_single(cfg, &workload, &RunOptions::default())?;

    println!("cycles            : {}", result.cycles);
    println!("instructions      : {}", result.stats.instructions);
    println!("IPC               : {:.3}", result.ipc());
    println!("context switches  : {}", result.stats.context_switches);
    println!(
        "RF hit rate       : {:.1}%",
        result.stats.rf_hit_rate() * 100.0
    );
    println!("registers spilled : {}", result.stats.rf_spills);
    println!(
        "dcache miss rate  : {:.1}%",
        result.stats.dcache.miss_rate() * 100.0
    );

    // 4. Compare against the statically banked design the paper evaluates
    //    against (8 full 32-register banks instead of 52 shared entries).
    let banked = try_run_single(CoreConfig::banked(8), &workload, &RunOptions::default())?;
    println!(
        "vs banked         : {:.1}% of banked performance with {} instead of {} registers",
        100.0 * banked.cycles as f64 / result.cycles as f64,
        52,
        8 * 32
    );
    Ok(())
}
