//! Figure 2: register utilization of the memory-intensive workloads.
//!
//! For each kernel we report the innermost-loop register working set from
//! static analysis (the fraction of the 31-register architectural context),
//! the *exact* live register set at the innermost loop head from dataflow
//! liveness (what an oracle prefetcher would actually fill: smaller than
//! the referenced set where registers are written before read, larger for
//! nested kernels where outer-loop state stays live across the inner
//! head), plus the dynamically-measured mean per-quantum register use from
//! a recorded banked run. Paper shape: most workloads use
//! well under 30% of the context in the loops where they spend their
//! runtime.
//!
//! The dynamic recording runs as one custom cell per workload; static
//! analysis happens at render time. A failed recording degrades to `-`.

use virec_bench::harness::*;
use virec_core::{CoreConfig, OracleSchedule};
use virec_sim::experiment::{builder, CellData, ExperimentSpec};
use virec_sim::report::{pct, Table};
use virec_sim::runner::{try_run_single_traced, RunOptions};
use virec_verify::StaticOracle;
use virec_workloads::{suite, SUITE};

fn main() {
    let n = problem_size().min(4096);

    let mut spec = ExperimentSpec::new("fig02_reg_util");
    spec.set_meta("n", n);
    for (name, ctor) in SUITE {
        let build = builder(*ctor, n, layout0());
        // Dynamic: mean registers touched per scheduling quantum on a
        // 4-thread banked core, from the oracle a traced run records.
        spec.custom(name.to_string(), move |_| {
            let w = build();
            let opts = RunOptions {
                verify: false,
                ..RunOptions::default()
            };
            let (_, trace) = try_run_single_traced(CoreConfig::banked(4), &w, &opts)?;
            let (sum, count) = OracleSchedule::from_trace(&trace, 4)
                .sets
                .iter()
                .flatten()
                .fold((0u64, 0u64), |(s, c), m| (s + m.count_ones() as u64, c + 1));
            let mean_q = if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            };
            Ok(CellData::metrics([("mean_quantum_regs", mean_q)]))
        });
    }
    let res = run_spec(&spec);

    let mut t = Table::new(
        &format!("Figure 2 — register utilization, n={n}"),
        &[
            "workload",
            "inner_regs",
            "live_at_head",
            "delta",
            "all_regs",
            "inner_util",
            "mean_quantum_regs",
            "loop_depth",
        ],
    );
    for w in suite(n, layout0()) {
        let u = w.register_usage();
        let mean_q = res
            .metric(w.name, "mean_quantum_regs")
            .map(|m| format!("{m:.1}"))
            .unwrap_or_else(|| "-".into());
        // Exact liveness at the head of the (first) innermost loop: the
        // registers an oracle prefetcher must fill for execution to
        // proceed when a quantum resumes there (halt_live = 0: final-state
        // values can be demand-filled, so only the dataflow of the
        // remaining execution counts). `delta` = referenced-but-not-live
        // in the innermost body — registers the span-based analysis counts
        // that a dataflow-exact context could drop (dummy-fillable).
        let (live, delta) = match StaticOracle::build(w.program(), 0) {
            Ok(o) => match u.loops.iter().find(|l| l.depth == u.max_depth) {
                Some(inner) => {
                    let live = o.prefetch_mask(inner.head).count_ones();
                    let delta = u.innermost.len() as i64 - live as i64;
                    (live.to_string(), format!("{delta:+}"))
                }
                None => ("-".into(), "-".into()),
            },
            Err(_) => ("-".into(), "-".into()),
        };
        t.row(vec![
            w.name.to_string(),
            u.innermost.len().to_string(),
            live,
            delta,
            u.all_used.len().to_string(),
            pct(u.innermost_utilization()),
            mean_q,
            u.max_depth.to_string(),
        ]);
    }
    t.print();
    res.print_failures();
}
