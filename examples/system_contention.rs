//! Multi-core contention study (the paper's Figure 11 scenario): several
//! near-memory processors share the crossbar and DRAM; as observed memory
//! latency rises with system activity, more threads per core are needed to
//! hide it — and ViReC can provide them without growing the register file.
//!
//! ```sh
//! cargo run --release --example system_contention
//! ```

use virec::core::CoreConfig;
use virec::sim::report::{f3, Table};
use virec::sim::{try_run_slots, RunOptions, SimError};
use virec::workloads::{kernels, Layout};

fn main() -> Result<(), SimError> {
    let n = 2048;
    let mut t = Table::new(
        "gather on shared fabric: per-core IPC vs system load (ViReC, 64 regs)",
        &["cores", "8 threads", "10 threads", "better"],
    );
    for ncores in [1usize, 2, 4, 8] {
        let mut ipc = Vec::new();
        for threads in [8usize, 10] {
            let mut core = CoreConfig::virec(threads, 64);
            core.max_cycles = 2_000_000_000;
            // One slot per core, each on its own slice of memory.
            let slots: Vec<_> = (0..ncores)
                .map(|i| (core, kernels::spatter::gather(n, Layout::for_core(i))))
                .collect();
            let r = try_run_slots(&slots, &RunOptions::default())?;
            ipc.push(r.mean_core_ipc());
        }
        let better = if ipc[1] > ipc[0] { "10t" } else { "8t" };
        t.row(vec![
            ncores.to_string(),
            f3(ipc[0]),
            f3(ipc[1]),
            better.into(),
        ]);
    }
    t.print();
    println!(
        "A statically banked core would need whole extra register banks to\n\
         run the 10-thread configuration; ViReC just squeezes per-thread\n\
         context in the same 64-entry RF."
    );
    Ok(())
}
