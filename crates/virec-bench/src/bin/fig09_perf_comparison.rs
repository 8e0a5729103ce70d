//! Figure 9: performance of ViReC vs banked vs NSF vs RF prefetching.
//!
//! For every workload and 4/6/8 threads, performance is shown relative to
//! the similarly-threaded banked core (= 1.0). ViReC is swept over 40–80%
//! of the active context; prefetching is evaluated in full-context and
//! oracle-exact variants; the NSF baseline \[41\] is ViReC with PLRU and no
//! system optimizations at the 80% RF size.
//!
//! Paper shape targets: ViReC-80% within ~4–10% of banked (drop grows with
//! threads); ViReC-40% within ~11–22%; full-context prefetch almost always
//! worst; exact prefetch beats ViReC-40% but loses to ViReC-60/80%; ViReC
//! clearly beats the NSF.
//!
//! The whole grid is declared as one [`ExperimentSpec`] and executed on the
//! worker pool (`VIREC_JOBS`); failed configurations become structured
//! failure rows and the geomean rows only aggregate completed runs.

use virec_bench::harness::*;
use virec_core::{CoreConfig, PolicyKind};
use virec_sim::experiment::{builder, ExperimentSpec};
use virec_sim::report::Table;
use virec_sim::runner::RunOptions;
use virec_workloads::SUITE;

/// Non-baseline configurations, in column order.
const CONFIGS: &[&str] = &[
    "virec40", "virec60", "virec80", "nsf80", "pf_full", "pf_exact",
];

const THREADS: [usize; 3] = [4, 6, 8];

fn main() {
    let n = problem_size();
    let opts = RunOptions::default();

    let mut spec = ExperimentSpec::new("fig09_perf_comparison");
    spec.set_meta("n", n);
    for (name, ctor) in SUITE {
        let w = ctor(n, layout0());
        let build = builder(*ctor, n, layout0());
        for &threads in &THREADS {
            spec.single(
                format!("{name}/{threads}t/banked"),
                build.clone(),
                CoreConfig::banked(threads),
                &opts,
            );
            for (key, frac) in [("virec40", 0.4), ("virec60", 0.6), ("virec80", 0.8)] {
                spec.single(
                    format!("{name}/{threads}t/{key}"),
                    build.clone(),
                    virec_cfg(&w, threads, frac, PolicyKind::Lrc),
                    &opts,
                );
            }
            let cfg80 = virec_cfg(&w, threads, 0.8, PolicyKind::Lrc);
            spec.single(
                format!("{name}/{threads}t/nsf80"),
                build.clone(),
                CoreConfig::nsf(threads, cfg80.phys_regs),
                &opts,
            );
            spec.single(
                format!("{name}/{threads}t/pf_full"),
                build.clone(),
                CoreConfig::prefetch_full(threads, w.active_context_size()),
                &opts,
            );
            spec.single(
                format!("{name}/{threads}t/pf_exact"),
                build.clone(),
                CoreConfig::prefetch_exact(threads, w.active_context_size()),
                &opts,
            );
        }
    }
    let res = run_spec(&spec);

    let mut t = Table::new(
        &format!("Figure 9 — relative performance vs banked, n={n}"),
        &[
            "workload",
            "threads",
            "banked_cyc",
            "virec40",
            "virec60",
            "virec80",
            "nsf80",
            "pf_full",
            "pf_exact",
        ],
    );
    let mut rel = RelTracker::new();
    for (name, _) in SUITE {
        for &threads in &THREADS {
            let base = res.cycles(&format!("{name}/{threads}t/banked"));
            let mut cells = vec![name.to_string(), threads.to_string(), cycles_cell(base)];
            for key in CONFIGS {
                let cycles = res.cycles(&format!("{name}/{threads}t/{key}"));
                cells.push(rel.rel_cell(&format!("{key}/{threads}t"), base, cycles));
            }
            t.row(cells);
        }
    }
    t.print();

    let mut means = Table::new(
        "Figure 9 — geomean relative performance (banked = 1.0, completed runs only)",
        &["config", "4t", "6t", "8t"],
    );
    for key in CONFIGS {
        let mut row = vec![key.to_string()];
        for &threads in &THREADS {
            row.push(rel.geomean_cell(&format!("{key}/{threads}t")));
        }
        means.row(row);
    }
    means.print();
    res.print_failures();
}
