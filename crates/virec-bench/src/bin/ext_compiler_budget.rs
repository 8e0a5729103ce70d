//! §4.2 via the mini-compiler: sweep the register-allocation budget for a
//! compiled gather kernel and measure the static/dynamic spill overhead
//! against the active-context shrinkage — the trade-off the paper's
//! compiler register reduction navigates.
//!
//! Each budget point is measured under *both* allocators — Chaitin-Briggs
//! graph coloring (the default) and the linear-scan baseline — so the
//! table doubles as the allocator comparison: at tight budgets graph
//! coloring's loop-depth-weighted spill costs keep hot temps in registers
//! and emit measurably fewer spill loads/stores, which shows up directly
//! in cycles.
//!
//! Each point compiles and drives its own core inside a custom cell; a
//! point that exhausts the 500M-cycle cap becomes a structured
//! `cycle_budget` failure row instead of aborting the sweep.

use virec_bench::harness::*;
use virec_cc::{compile_with, AllocStrategy};
use virec_core::{Core, CoreConfig, RegRegion};
use virec_isa::analysis::RegisterUsage;
use virec_isa::{FlatMem, Reg};
use virec_mem::{Fabric, FabricConfig};
use virec_sim::experiment::{CellData, ExperimentSpec};
use virec_sim::report::Table;
use virec_sim::{RunDiagnostics, SimError};
use virec_workloads::gather_cc_ir;

const REGION_BASE: u64 = 0x1000;
const DATA_BASE: u64 = 0x10_000;
const FRAME_BASE: u64 = 0x8000;
const CODE_BASE: u64 = 0x4000_0000;
const CYCLE_CAP: u64 = 500_000_000;

const BUDGETS: [usize; 7] = [2, 3, 4, 6, 8, 10, 14];
const STRATEGIES: [AllocStrategy; 2] = [AllocStrategy::GraphColor, AllocStrategy::LinearScan];

/// Compiles gather at `budget` registers with `strategy` and runs it to
/// completion on a ViReC core sized at 100% of the compiled active context.
fn run_budget(
    budget: usize,
    strategy: AllocStrategy,
    n: u64,
    nthreads: usize,
) -> Result<CellData, SimError> {
    let c = compile_with(&gather_cc_ir(), budget, strategy).expect("compiles");
    let active = RegisterUsage::analyze(&c.program).active_context_size();
    // Size the ViReC RF at 100% of the *compiled* active context.
    let phys = (active * nthreads).max(12);

    let mut mem = FlatMem::new(0, 0x200_000);
    for i in 0..n {
        mem.write_u64(DATA_BASE + i * 8, i * 17);
        mem.write_u64(DATA_BASE + n * 8 + i * 8, (i * 13) % n);
    }
    let region = RegRegion::new(REGION_BASE, nthreads);
    for th in 0..nthreads {
        let args = [DATA_BASE, DATA_BASE + n * 8, n, th as u64, nthreads as u64];
        for (i, &v) in args.iter().enumerate() {
            mem.write_u64(region.reg_addr(th, Reg::new(i as u8)), v);
        }
        mem.write_u64(
            region.reg_addr(th, c.frame_reg),
            FRAME_BASE + th as u64 * 0x100,
        );
    }
    let cfg = CoreConfig::virec(nthreads, phys);
    let mut core = Core::new(cfg, c.program.clone(), region, CODE_BASE, (0, 1));
    let mut fabric = Fabric::new(FabricConfig::default());
    let mut now = 0u64;
    while !core.done() {
        fabric.tick(now);
        core.tick(now, &mut fabric, &mut mem);
        now += 1;
        if now >= CYCLE_CAP {
            return Err(SimError::CycleBudgetExceeded {
                budget: CYCLE_CAP,
                diag: RunDiagnostics::capture("gather_cc", &core, now),
            });
        }
    }
    core.finalize_stats();
    Ok(CellData::metrics([
        ("spilled", c.spilled as f64),
        ("spill_loads", c.spill_loads as f64),
        ("spill_stores", c.spill_stores as f64),
        ("static_instrs", c.program.len() as f64),
        ("active_ctx", active as f64),
        ("virec_regs", phys as f64),
        ("cycles", now as f64),
        ("ipc", core.stats().ipc()),
    ]))
}

fn main() {
    let n = env_u64("VIREC_N", 4096);
    let nthreads = 8;

    let mut spec = ExperimentSpec::new("ext_compiler_budget");
    spec.set_meta("n", n);
    for budget in BUDGETS {
        for strategy in STRATEGIES {
            spec.custom(format!("budget{budget}_{}", strategy.name()), move |_| {
                run_budget(budget, strategy, n, nthreads)
            });
        }
    }
    let res = run_spec(&spec);

    let mut t = Table::new(
        &format!("Compiler register budget sweep — compiled gather, 8 threads, n={n}"),
        &[
            "budget",
            "alloc",
            "spilled",
            "loads",
            "stores",
            "static_instrs",
            "active_ctx",
            "virec_regs",
            "cycles",
            "ipc",
        ],
    );
    for budget in BUDGETS {
        for strategy in STRATEGIES {
            let key = format!("budget{budget}_{}", strategy.name());
            let int = |name: &str| {
                res.metric(&key, name)
                    .map(|v| (v as u64).to_string())
                    .unwrap_or_else(|| "-".into())
            };
            let mut row = vec![budget.to_string(), strategy.name().into()];
            if res.data(&key).is_some() {
                row.extend([
                    int("spilled"),
                    int("spill_loads"),
                    int("spill_stores"),
                    int("static_instrs"),
                    int("active_ctx"),
                    int("virec_regs"),
                    int("cycles"),
                    opt_f3(res.metric(&key, "ipc")),
                ]);
            } else {
                row.extend(std::iter::repeat_n::<String>("-".into(), 7));
                row.push("FAILED".into());
            }
            t.row(row);
        }
    }
    t.print();
    res.print_failures();
}
