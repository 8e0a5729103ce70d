//! Budget tuner: sweep the `virec-cc` register budget × VRMU capacity
//! grid and print the perf × area Pareto surface for the compiled gather
//! kernel, plus the recommended point for a reference area envelope.
//!
//! Every point is translation-validated before it runs (the TV preflight
//! panics on any miscompile), so the surface can only contain programs
//! proven equivalent to their pre-allocation IR.

use virec_bench::harness::env_u64;
use virec_bench::tune::{pareto_front, pick_for_area, tune_sweep, TuneConfig};
use virec_sim::report::Table;

/// Reference area envelope (mm²) for the headline pick: a mid-sized
/// fully-protected VRMU core (between the 16- and 24-register designs).
const ENVELOPE_MM2: f64 = 1.50;

fn main() {
    let mut cfg = TuneConfig::default();
    cfg.n = env_u64("VIREC_N", cfg.n);
    let points = tune_sweep(&cfg);

    let mut t = Table::new(
        &format!(
            "Budget tuner — compiled gather, {} threads, n={}, strategy={}",
            cfg.nthreads,
            cfg.n,
            cfg.strategy.name()
        ),
        &[
            "budget", "capacity", "spilled", "loads", "stores", "cycles", "ipc", "area_mm2",
        ],
    );
    for p in &points {
        t.row(vec![
            p.budget.to_string(),
            p.capacity.to_string(),
            p.spilled.to_string(),
            p.spill_loads.to_string(),
            p.spill_stores.to_string(),
            p.cycles.to_string(),
            format!("{:.3}", p.ipc),
            format!("{:.4}", p.area_mm2),
        ]);
    }
    t.print();

    let front = pareto_front(&points);
    println!();
    println!("Pareto front (area ascending — each point is the fastest at its area):");
    for p in &front {
        println!(
            "pareto: budget={} capacity={} cycles={} area_mm2={:.4} spill_loads={}",
            p.budget, p.capacity, p.cycles, p.area_mm2, p.spill_loads
        );
    }
    println!();
    match pick_for_area(&points, ENVELOPE_MM2) {
        Some(p) => println!(
            "pick: area envelope {ENVELOPE_MM2:.4} mm2 -> budget={} capacity={} ({} cycles, {:.4} mm2)",
            p.budget, p.capacity, p.cycles, p.area_mm2
        ),
        None => println!("pick: no point fits the {ENVELOPE_MM2:.4} mm2 envelope"),
    }
}
