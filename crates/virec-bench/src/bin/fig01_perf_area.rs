//! Figure 1: performance-area trade-off for the gather kernel.
//!
//! Points: a single in-order core, the OoO host core, banked multithreaded
//! cores with 4/8 banks (256/512 registers counting the FP half), and ViReC
//! at 40–100% of the active context for 4 and 8 threads. Performance is
//! normalized to the single in-order core; area comes from the analytic
//! 45 nm model.
//!
//! Paper shape targets: OoO ≈ 5.3x InO performance at ≈19x area; banked
//! and ViReC dominate OoO in performance/area; ViReC-100% matches banked
//! performance at ~40% less area; ViReC degrades gracefully as the stored
//! context shrinks.
//!
//! All points — including the trace-model OoO host, declared as a custom
//! cell — run as one declarative grid; only the normalizing in-order run
//! is fatal to lose.

use virec_area::AreaModel;
use virec_bench::harness::*;
use virec_core::ooo::{run_ooo, OooConfig};
use virec_core::{CoreConfig, PolicyKind};
use virec_isa::FlatMem;
use virec_sim::experiment::{builder, CellData, ExperimentSpec};
use virec_sim::report::{f3, Table};
use virec_sim::runner::RunOptions;
use virec_workloads::kernels;

fn main() {
    // Figure 1 needs a footprint well past the OoO core's 1 MiB L2, or the
    // host-processor point is unrealistically fast.
    let n = env_u64("VIREC_N", 262_144);
    let w = kernels::spatter::gather(n, layout0());
    let build = builder(kernels::spatter::gather, n, layout0());
    let opts = RunOptions::default();
    let area = AreaModel::default();

    let mut spec = ExperimentSpec::new("fig01_perf_area");
    spec.set_meta("n", n);
    // Single in-order core: the normalization baseline.
    spec.single("inorder", build.clone(), CoreConfig::banked(1), &opts);
    // OoO host core (trace model, clock-normalized to the 1 GHz domain).
    let ooo_build = build.clone();
    spec.custom("ooo", move |_| {
        let w = ooo_build();
        let mut mem = FlatMem::new(0, virec_workloads::layout::mem_size(1));
        w.init_mem(&mut mem);
        let init = w.thread_ctx(0, 1);
        let r = run_ooo(
            &OooConfig::default(),
            w.program(),
            &mut mem,
            &init,
            200_000_000,
        );
        Ok(CellData::metrics([(
            "cycles",
            r.nmp_equivalent_cycles as f64,
        )]))
    });
    for threads in [4usize, 8] {
        spec.single(
            format!("banked_{threads}t"),
            build.clone(),
            CoreConfig::banked(threads),
            &opts,
        );
        for (label, frac) in CTX_FRACTIONS {
            spec.single(
                format!("virec_{threads}t_{label}"),
                build.clone(),
                virec_cfg(&w, threads, *frac, PolicyKind::Lrc),
                &opts,
            );
        }
    }
    let res = run_spec(&spec);

    // Everything is relative to the in-order point, so its failure is fatal.
    let Some(ino_cycles) = res.cycles("inorder").map(|c| c as f64) else {
        res.print_failures();
        eprintln!("figure 1: the normalizing in-order run failed; aborting");
        std::process::exit(1);
    };

    let mut t = Table::new(
        &format!("Figure 1 — performance-area tradeoff, gather n={n}"),
        &["config", "area_mm2", "cycles", "perf_norm", "perf_per_mm2"],
    );
    let mut push = |key: &str, mm2: f64| match res.cycles(key) {
        Some(cycles) => {
            let perf = ino_cycles / cycles as f64;
            t.row(vec![
                key.to_string(),
                f3(mm2),
                cycles.to_string(),
                f3(perf),
                f3(perf / mm2),
            ]);
        }
        None => t.row(vec![
            key.to_string(),
            f3(mm2),
            "FAILED".into(),
            "-".into(),
            "-".into(),
        ]),
    };
    push("inorder", area.inorder_core());
    push("ooo", area.ooo_core());
    for threads in [4usize, 8] {
        push(&format!("banked_{threads}t"), area.banked_core(threads));
        for (label, frac) in CTX_FRACTIONS {
            let cfg = virec_cfg(&w, threads, *frac, PolicyKind::Lrc);
            push(
                &format!("virec_{threads}t_{label}"),
                area.virec_core(cfg.phys_regs),
            );
        }
    }
    t.print();
    res.print_failures();
}
