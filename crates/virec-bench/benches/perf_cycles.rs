//! Simulator-throughput trajectory harness (ROADMAP item 1).
//!
//! Measures **simulated cycles per wall-clock second** for the dense
//! cycle-by-cycle loop versus the event-driven (wakeup-scheduled) loop on
//! three canonical workloads under the two headline engines, and writes
//! the snapshot to `BENCH_7.json` at the repo root. The committed
//! snapshot is regenerated in full mode (`VIREC_PERF_FULL=1`); the
//! default quick mode is sized for the CI perf smoke step, which greps
//! that the event-driven loop is at least as fast as the dense loop on
//! the memory-bound workload.
//!
//! Each cell also runs a third leg with the RAS layer enabled (patrol
//! scrubber issuing real fabric traffic, CE tracking, skip horizon capped
//! at the scrub cadence, no faults injected) and writes the RAS snapshot
//! to `BENCH_8.json`; CI greps that the always-on RAS tax stays under 5%
//! of event-loop throughput on the memory-bound workload.
//!
//! A fourth leg re-runs the event loop with the crossbar swapped for a
//! defect-free 2x1 mesh NoC (same far-memory budget split across hops)
//! and writes the snapshot to `BENCH_10.json`; CI greps that modeling
//! the mesh — per-hop flit stepping, CRC at every hop, credit-based flow
//! control — costs under 10% of crossbar event-loop throughput on the
//! memory-bound workload.
//!
//! The memory-bound cell runs `gather` against a far-memory fabric
//! (CXL-class ~400-cycle interconnect hop) — the host-side baseline of
//! PAPER.md Fig. 1, where nearly every cycle is a DRAM stall and cycle
//! skipping pays the most. The other two cells use the default
//! near-memory fabric, where the loop must at least break even.
//!
//! This is not a statistical micro-benchmark harness: the metric is a
//! ratio of simulated time to wall time, so the harness times whole runs
//! itself (best-of-k) and cross-checks that both loops report the exact
//! same simulated cycle count — the differential guarantee that makes the
//! speedup a pure win.

use std::fmt::Write as _;
use std::time::Instant;
use virec_core::CoreConfig;
use virec_mem::{FabricConfig, FabricTopology};
use virec_sim::runner::{run_single, RunOptions};
use virec_sim::RasConfig;
use virec_workloads::{kernels, Layout, Workload};

/// Far-memory interconnect: a host core reaching across a CXL-class hop.
const FAR_XBAR_LATENCY: u32 = 400;

struct Cell {
    workload: &'static str,
    memory_bound: bool,
    engine: &'static str,
    sim_cycles: u64,
    dense_cps: f64,
    event_cps: f64,
    /// Event-loop throughput with the RAS layer live (patrol scrubber
    /// consuming fabric bandwidth, CE tracking, skip horizon capped at
    /// the scrub cadence) — the steady-state tax of PR-8, with no faults
    /// injected.
    ras_cps: f64,
    ras_sim_cycles: u64,
    /// Event-loop throughput with the crossbar replaced by a defect-free
    /// 2x1 mesh NoC (flit stepping + per-hop CRC + credit flow control)
    /// — the modeling tax of PR-10, with no faults injected.
    mesh_cps: f64,
    mesh_sim_cycles: u64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.event_cps / self.dense_cps
    }

    /// Event-loop throughput retained with RAS enabled (1.0 = free).
    fn ras_retention(&self) -> f64 {
        self.ras_cps / self.event_cps
    }

    /// Event-loop throughput retained on the mesh NoC (1.0 = free).
    fn mesh_retention(&self) -> f64 {
        self.mesh_cps / self.event_cps
    }
}

/// Times `iters` full runs of the four legs (dense, event, event+RAS,
/// event on a mesh NoC) **grouped per leg**: each leg gets one untimed
/// warmup and then `iters` back-to-back timed runs, best-of-k. Grouping
/// keeps every leg's allocator and cache state self-consistent across its
/// timed runs — interleaving heterogeneous legs lets the earlier legs'
/// heap churn leak into whichever leg runs last, which skews the
/// between-leg retention ratios by more than the effects they gate on.
/// Best-of-k already rejects slow machine phases within a leg. Returns
/// (sim cycles, best cycles/sec) per leg.
fn measure(cfg: CoreConfig, w: &Workload, fabric: FabricConfig, iters: u32) -> [(u64, f64); 4] {
    let mesh = FabricConfig {
        topology: FabricTopology::Mesh { cols: 2, rows: 1 },
        ..fabric
    };
    let legs = [
        (true, false, fabric),
        (false, false, fabric),
        (false, true, fabric),
        (false, false, mesh),
    ];
    let opts = legs.map(|(dense, ras, fabric)| RunOptions {
        verify: false, // correctness is covered by tests; keep timing pure
        dense_loop: dense,
        fabric,
        ras: ras.then(RasConfig::default),
        ..RunOptions::default()
    });
    let mut out = [(0u64, 0.0f64); 4];
    for (leg, o) in opts.iter().enumerate() {
        let mut cycles = 0u64;
        let mut best = f64::INFINITY;
        for i in 0..=iters {
            let start = Instant::now();
            let res = std::hint::black_box(run_single(cfg, w, o));
            let secs = start.elapsed().as_secs_f64();
            cycles = res.stats.cycles;
            if i > 0 {
                best = best.min(secs);
            }
        }
        out[leg] = (cycles, cycles as f64 / best);
    }
    out
}

fn main() {
    // Quick mode is already smoke-test sized, so flags cargo forwards
    // (e.g. `cargo bench -- --test`) are accepted and ignored.
    let full = std::env::var("VIREC_PERF_FULL").is_ok_and(|v| v == "1");
    let (n, iters) = if full { (65536, 9) } else { (2048, 2) };
    let layout = Layout::for_core(0);
    let far = FabricConfig {
        xbar_latency: FAR_XBAR_LATENCY,
        ..FabricConfig::default()
    };
    let near = FabricConfig::default();
    let workloads = [
        ("gather_far", true, far, kernels::spatter::gather(n, layout)),
        (
            "stream_triad",
            false,
            near,
            kernels::stream::stream_triad(n, layout),
        ),
        (
            "reduction",
            false,
            near,
            kernels::stream::reduction(n, layout),
        ),
    ];
    let engines = [
        ("virec", CoreConfig::virec(4, 32)),
        ("banked", CoreConfig::banked(4)),
    ];

    let mut cells = Vec::new();
    for (wname, memory_bound, fabric, w) in &workloads {
        for (ename, cfg) in engines {
            let [(dense_cycles, dense_cps), (event_cycles, event_cps), (ras_cycles, ras_cps), (mesh_cycles, mesh_cps)] =
                measure(cfg, w, *fabric, iters);
            assert_eq!(
                dense_cycles, event_cycles,
                "{wname}/{ename}: loops disagree on simulated cycles"
            );
            let cell = Cell {
                workload: wname,
                memory_bound: *memory_bound,
                engine: ename,
                sim_cycles: event_cycles,
                dense_cps,
                event_cps,
                ras_cps,
                ras_sim_cycles: ras_cycles,
                mesh_cps,
                mesh_sim_cycles: mesh_cycles,
            };
            println!(
                "perf_cycles {wname:<13} {ename:<7} sim_cycles={:<9} \
                 dense={:.3e} event={:.3e} cycles/sec speedup={:.2}x \
                 ras={:.3e} retention={:.3} mesh={:.3e} mesh_retention={:.3}",
                cell.sim_cycles,
                cell.dense_cps,
                cell.event_cps,
                cell.speedup(),
                cell.ras_cps,
                cell.ras_retention(),
                cell.mesh_cps,
                cell.mesh_retention()
            );
            cells.push(cell);
        }
    }

    // The CI perf smoke step greps this line: on the memory-bound
    // workload the event-driven loop must never lose to the dense loop.
    let ok = cells
        .iter()
        .filter(|c| c.memory_bound)
        .all(|c| c.event_cps >= c.dense_cps);
    println!("memory_bound_speedup_ok={ok}");

    // PR-8 acceptance: the always-on RAS layer (scrubber wakeups + fabric
    // scrub traffic) costs < 5% event-loop throughput on the memory-bound
    // workload. Also grepped by CI. Quick-mode runs finish in tens of
    // milliseconds, where scheduler noise alone exceeds 5%, so the smoke
    // gate only catches gross regressions; the committed BENCH_8.json is
    // held to the real 5% bar in full mode.
    let floor = if full { 0.95 } else { 0.80 };
    let ras_ok = cells
        .iter()
        .filter(|c| c.memory_bound)
        .all(|c| c.ras_retention() >= floor);
    println!("ras_regression_ok={ras_ok}");

    // PR-10 acceptance: modeling the mesh NoC (per-hop flit stepping,
    // CRC at every hop, credit-based flow control) costs < 10% of
    // crossbar event-loop throughput on the memory-bound workload when
    // no defects are injected. Also grepped by CI, with the same relaxed
    // quick-mode floor as the RAS gate.
    let noc_floor = if full { 0.90 } else { 0.75 };
    let noc_ok = cells
        .iter()
        .filter(|c| c.memory_bound)
        .all(|c| c.mesh_retention() >= noc_floor);
    println!("noc_overhead_ok={noc_ok}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    std::fs::write(path, render_json(&cells, full, n, iters)).expect("write BENCH_7.json");
    let path8 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_8.json");
    std::fs::write(path8, render_ras_json(&cells, full, n, iters)).expect("write BENCH_8.json");
    let path10 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    std::fs::write(path10, render_noc_json(&cells, full, n, iters)).expect("write BENCH_10.json");
    println!(
        "wrote {path}, {path8} and {path10} ({} mode, n={n})",
        if full { "full" } else { "quick" }
    );
}

fn render_json(cells: &[Cell], full: bool, n: u64, iters: u32) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf_cycles\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if full { "full" } else { "quick" }
    );
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"far_xbar_latency\": {FAR_XBAR_LATENCY},");
    let _ = writeln!(
        out,
        "  \"unit\": \"simulated cycles per wall-clock second\","
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"memory_bound\": {}, \
             \"sim_cycles\": {}, \"dense_cps\": {:.1}, \"event_cps\": {:.1}, \
             \"speedup\": {:.3}}}",
            c.workload,
            c.engine,
            c.memory_bound,
            c.sim_cycles,
            c.dense_cps,
            c.event_cps,
            c.speedup()
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The PR-8 snapshot: event-loop throughput with the RAS layer live,
/// alongside the RAS-off baseline it is held against (< 5% regression on
/// the memory-bound cell).
fn render_ras_json(cells: &[Cell], full: bool, n: u64, iters: u32) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf_cycles_ras\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if full { "full" } else { "quick" }
    );
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"baseline\": \"BENCH_7.json (same run, ras off)\",");
    let _ = writeln!(
        out,
        "  \"unit\": \"simulated cycles per wall-clock second\","
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"memory_bound\": {}, \
             \"ras_sim_cycles\": {}, \"ras_cps\": {:.1}, \"baseline_cps\": {:.1}, \
             \"retention\": {:.3}}}",
            c.workload,
            c.engine,
            c.memory_bound,
            c.ras_sim_cycles,
            c.ras_cps,
            c.event_cps,
            c.ras_retention()
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The PR-10 snapshot: event-loop throughput with the crossbar swapped
/// for a defect-free 2x1 mesh NoC, alongside the crossbar baseline it is
/// held against (< 10% regression on the memory-bound cell). The mesh
/// leg reports its own simulated cycle count — the per-hop latency model
/// legitimately differs from the single-stage crossbar's.
fn render_noc_json(cells: &[Cell], full: bool, n: u64, iters: u32) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"perf_cycles_noc\",");
    let _ = writeln!(
        out,
        "  \"mode\": \"{}\",",
        if full { "full" } else { "quick" }
    );
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"iters\": {iters},");
    let _ = writeln!(out, "  \"topology\": \"mesh2x1\",");
    let _ = writeln!(
        out,
        "  \"baseline\": \"BENCH_7.json (same run, crossbar)\","
    );
    let _ = writeln!(
        out,
        "  \"unit\": \"simulated cycles per wall-clock second\","
    );
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"workload\": \"{}\", \"engine\": \"{}\", \"memory_bound\": {}, \
             \"mesh_sim_cycles\": {}, \"mesh_cps\": {:.1}, \"baseline_cps\": {:.1}, \
             \"retention\": {:.3}}}",
            c.workload,
            c.engine,
            c.memory_bound,
            c.mesh_sim_cycles,
            c.mesh_cps,
            c.event_cps,
            c.mesh_retention()
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
