//! Writing your own kernel against the public API: assemble a program with
//! labels, wrap it as a `Workload` with a data image and per-thread
//! contexts, and run it on any context engine — with golden-model
//! verification for free.
//!
//! The kernel: a blocked dot product `sum += a[i] * b[i]` where each thread
//! covers an interleaved partition.
//!
//! ```sh
//! cargo run --release --example custom_workload
//! ```

use virec::core::CoreConfig;
use virec::isa::reg::names::*;
use virec::isa::{Asm, Cond, FlatMem};
use virec::sim::runner::{try_run_single, RunOptions};
use virec::sim::SimError;
use virec::workloads::{Layout, Workload};

fn dot_product(n: u64, layout: Layout) -> Workload {
    let a_base = layout.data_base;
    let b_base = a_base + n * 8;
    let out_base = b_base + n * 8;

    // x0 = acc, x1 = i, x2/x3 = array bases, x4 = n, x7 = nthreads,
    // x8 = out base, x9 = tid.
    let mut asm = Asm::new("dot_product");
    asm.label("loop");
    asm.ldr_idx(X5, X2, X1, 3); // x5 = a[i]
    asm.ldr_idx(X6, X3, X1, 3); // x6 = b[i]
    asm.madd(X0, X5, X6, X0); // acc += a[i] * b[i]
    asm.add(X1, X1, X7);
    asm.cmp(X1, X4);
    asm.bcc(Cond::Lt, "loop");
    asm.str_idx(X0, X8, X9, 3); // out[tid] = acc
    asm.halt();

    Workload::from_parts(
        "dot_product",
        n,
        layout,
        asm.assemble(),
        Box::new(move |mem: &mut FlatMem| {
            for i in 0..n {
                mem.write_u64(a_base + i * 8, i % 100);
                mem.write_u64(b_base + i * 8, (i * 3) % 50);
            }
        }),
        Box::new(move |tid, nthreads| {
            vec![
                (X0, 0),
                (X1, tid as u64),
                (X2, a_base),
                (X3, b_base),
                (X4, n),
                (X7, nthreads as u64),
                (X8, out_base),
                (X9, tid as u64),
            ]
        }),
    )
}

fn main() -> Result<(), SimError> {
    let n = 4096;
    let layout = Layout::for_core(0);
    let workload = dot_product(n, layout);

    println!(
        "custom kernel `{}`: active context = {} registers, loop depth = {}",
        workload.name,
        workload.active_context_size(),
        workload.register_usage().max_depth
    );

    // try_run_single verifies against the golden interpreter by default: if
    // the spill/fill machinery corrupted a register, this would return a
    // typed golden-divergence error.
    let opts = RunOptions::default();
    for (name, cfg) in [
        ("banked 4t", CoreConfig::banked(4)),
        ("virec 4t/24r", CoreConfig::virec(4, 24)),
        ("virec 8t/24r", CoreConfig::virec(8, 24)),
    ] {
        let r = try_run_single(cfg, &workload, &opts)?;
        println!(
            "{name:>14}: {:>8} cycles, IPC {:.3}, RF hit rate {:.1}%",
            r.cycles,
            r.ipc(),
            r.stats.rf_hit_rate() * 100.0
        );
    }

    // The scalar answer, for the curious.
    let expect: u64 = (0..n).map(|i| (i % 100) * ((i * 3) % 50)).sum();
    println!("total dot product across threads = {expect}");
    Ok(())
}
