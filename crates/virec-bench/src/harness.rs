//! Common experiment plumbing for the fig*/table* binaries.
//!
//! Every binary follows the same three-phase shape on top of the
//! declarative experiment layer ([`virec_sim::experiment`]):
//!
//! 1. **Declare** — build an [`ExperimentSpec`]: a named grid of keyed
//!    cells carrying workload constructors and configurations.
//! 2. **Execute** — [`run_spec`] runs the grid on a worker pool
//!    (`VIREC_JOBS`, default: all cores) and writes machine-readable JSON
//!    rows into `results/` (`VIREC_RESULTS` overrides, `off` disables).
//!    Collection is keyed and re-sorted, so tables and JSON are
//!    byte-identical for any worker count. Every sweep journals completed
//!    cells to `results/<name>.journal.jsonl`; `--resume` (or
//!    `VIREC_RESUME=1`) replays the journal instead of re-running,
//!    `--deadline <ms>` (or `VIREC_DEADLINE_MS`) bounds each cell's
//!    wall-clock time, and Ctrl-C drains gracefully — finish the in-flight
//!    cells, flush the journal, exit 130 with a resume hint.
//! 3. **Render** — build tables from the keyed results; failed cells
//!    surface as `FAILED` rows and [`RelTracker`] accumulates the
//!    relative-performance columns and geomean rows the paper's figures
//!    share.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use virec_core::{CoreConfig, PolicyKind};
use virec_sim::experiment::{builder, Executor, ExperimentResult, ExperimentSpec, RetryPolicy};
use virec_sim::report::{f3, geomean};
use virec_sim::runner::RunOptions;
use virec_sim::{interrupt_tokens, JournalConfig};
use virec_workloads::{by_name, Layout, Workload};

/// Default problem size for figure regeneration (large enough that caches
/// and context switching behave realistically, small enough to sweep).
pub const DEFAULT_N: u64 = 8192;

/// Smaller size for quick shape checks.
pub const QUICK_N: u64 = 1024;

/// Reads the problem size from VIREC_N (falls back to DEFAULT_N).
pub fn problem_size() -> u64 {
    std::env::var("VIREC_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_N)
}

/// Worker count for sweep execution: `VIREC_JOBS` if set, otherwise every
/// available core. The collected output is identical either way.
pub fn jobs() -> usize {
    std::env::var("VIREC_JOBS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&j| j > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Directory for machine-readable result rows: `VIREC_RESULTS` if set
/// (`off` disables emission), otherwise `results/`.
pub fn results_dir() -> Option<PathBuf> {
    match std::env::var("VIREC_RESULTS") {
        Ok(s) if s.is_empty() || s == "off" || s == "0" => None,
        Ok(s) => Some(PathBuf::from(s)),
        Err(_) => Some(PathBuf::from("results")),
    }
}

/// Sweep-level control knobs shared by every figure binary and
/// `virec-cli sweep`: the worker pool, where results go, crash-safe
/// resume, a per-cell wall-clock deadline, and the deterministic
/// interruption hook tests and CI use in place of a real Ctrl-C.
#[derive(Clone, Debug, Default)]
pub struct SweepControl {
    /// Worker count ([`jobs`]; `--jobs` on `virec-cli sweep`).
    pub jobs: usize,
    /// Directory for the cell journal and JSON rows ([`results_dir`];
    /// `--json <dir>` on `virec-cli sweep`); `None` writes neither.
    pub results: Option<PathBuf>,
    /// Replay journaled cells instead of re-running them (`--resume` on
    /// the command line, or `VIREC_RESUME=1`).
    pub resume: bool,
    /// Per-cell wall-clock deadline in milliseconds (`--deadline <ms>` or
    /// `VIREC_DEADLINE_MS`); 0 disables the deadline.
    pub deadline_ms: u64,
    /// Drain after this many completed cells (`VIREC_INTERRUPT_AFTER`) —
    /// the same code path a SIGINT takes, made deterministic for tests.
    pub interrupt_after: Option<usize>,
}

impl SweepControl {
    /// Reads the control knobs from the process arguments (`--resume`,
    /// `--deadline <ms>`) and environment (`VIREC_JOBS`, `VIREC_RESULTS`,
    /// `VIREC_RESUME`, `VIREC_DEADLINE_MS`, `VIREC_INTERRUPT_AFTER`).
    /// Flags win over the environment so a resumed invocation can be typed
    /// at the shell without unsetting anything.
    pub fn from_env_and_args() -> SweepControl {
        let env_flag =
            |name: &str| std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0" && v != "off");
        let mut ctl = SweepControl {
            jobs: jobs(),
            results: results_dir(),
            resume: env_flag("VIREC_RESUME"),
            deadline_ms: std::env::var("VIREC_DEADLINE_MS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0),
            interrupt_after: std::env::var("VIREC_INTERRUPT_AFTER")
                .ok()
                .and_then(|s| s.parse().ok()),
        };
        let args: Vec<String> = std::env::args().collect();
        for (i, arg) in args.iter().enumerate() {
            match arg.as_str() {
                "--resume" => ctl.resume = true,
                "--deadline" => {
                    if let Some(ms) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                        ctl.deadline_ms = ms;
                    }
                }
                _ => {}
            }
        }
        ctl
    }
}

/// Executes a spec on the configured worker pool, emits its JSON rows, and
/// reports wall-clock progress on stderr (never stdout: the printed tables
/// must be byte-identical for any `--jobs`).
///
/// Control knobs come from [`SweepControl::from_env_and_args`]; an
/// interrupted sweep (Ctrl-C or `VIREC_INTERRUPT_AFTER`) flushes the
/// journal, prints a resume hint, and exits with status 130 — the
/// conventional SIGINT exit — instead of writing a partial results file.
pub fn run_spec(spec: &ExperimentSpec) -> ExperimentResult {
    run_spec_controlled(spec, &SweepControl::from_env_and_args())
}

/// [`run_spec`] with explicit [`SweepControl`] (the CLI parses its own
/// flags and calls this directly).
pub fn run_spec_controlled(spec: &ExperimentSpec, ctl: &SweepControl) -> ExperimentResult {
    let start = Instant::now();
    let (drain, abort) = interrupt_tokens();
    let mut exec = Executor::new(ctl.jobs)
        .with_interrupts(drain, abort)
        .with_deadline_ms(ctl.deadline_ms);
    if let Some(n) = ctl.interrupt_after {
        exec = exec.with_interrupt_after(n);
    }
    let journal = ctl.results.as_ref().map(|d| JournalConfig {
        dir: d.clone(),
        resume: ctl.resume,
    });
    let res = match exec.run_journaled(spec, journal.as_ref()) {
        Ok(res) => res,
        Err(e) => {
            // Journal I/O failing (read-only results dir, full disk) must
            // not take the sweep down — fall back to an unjournaled run.
            eprintln!(
                "[{}] cell journal unavailable ({e}); running without crash-safety",
                spec.name
            );
            exec.run(spec)
        }
    };
    eprintln!(
        "[{}] {} cell(s) on {} worker(s) in {:.2?}",
        spec.name,
        spec.len(),
        ctl.jobs,
        start.elapsed()
    );
    if res.interrupted {
        eprintln!(
            "[{}] interrupted: {} cell(s) not run; journal retained — re-run with --resume \
             (or VIREC_RESUME=1) to pick up where this sweep left off",
            spec.name,
            res.skipped()
        );
        std::process::exit(130);
    }
    if let Some(dir) = &ctl.results {
        match res.write_json(dir) {
            Ok(path) => eprintln!("[{}] wrote {}", spec.name, path.display()),
            Err(e) => eprintln!("[{}] could not write results JSON: {e}", spec.name),
        }
    }
    res
}

/// The context fractions swept throughout the paper's Figures 1, 9, 10.
pub const CTX_FRACTIONS: &[(&str, f64)] =
    &[("40%", 0.4), ("60%", 0.6), ("80%", 0.8), ("100%", 1.0)];

/// A ViReC config storing `frac` of the workload's active context.
pub fn virec_cfg(w: &Workload, nthreads: usize, frac: f64, policy: PolicyKind) -> CoreConfig {
    let mut cfg = CoreConfig::virec_for_context(nthreads, w.active_context_size(), frac);
    cfg.policy = policy;
    cfg
}

/// Single-core layout shortcut.
pub fn layout0() -> Layout {
    Layout::for_core(0)
}

/// Renders an optional cycle count; `None` becomes the failure marker.
pub fn cycles_cell(cycles: Option<u64>) -> String {
    cycles.map_or_else(|| "FAILED".into(), |c| c.to_string())
}

/// Renders an optional float at 3 decimals; `None` becomes `-`.
pub fn opt_f3(x: Option<f64>) -> String {
    x.map(f3).unwrap_or_else(|| "-".into())
}

/// Accumulates derived columns — relative-performance ratios grouped by a
/// label — and renders the geomean rows the figures share (the
/// `push_rel`/geomean logic previously copy-pasted across fig09/10/12).
///
/// Groups are stored in a `BTreeMap`, so any iteration a caller performs
/// is deterministic; the figures themselves index by their own declared
/// label order.
#[derive(Default)]
pub struct RelTracker {
    groups: BTreeMap<String, Vec<f64>>,
}

impl RelTracker {
    /// New empty tracker.
    pub fn new() -> RelTracker {
        RelTracker::default()
    }

    /// Records a raw value under a group.
    pub fn push(&mut self, group: &str, value: f64) {
        self.groups
            .entry(group.to_string())
            .or_default()
            .push(value);
    }

    /// Records and renders the relative performance `base/cycles` (the
    /// paper's "higher is faster" ratio), or `-` when either side of the
    /// ratio is missing (a failed cell).
    pub fn rel_cell(&mut self, group: &str, base: Option<u64>, cycles: Option<u64>) -> String {
        match (base, cycles) {
            (Some(b), Some(c)) if c > 0 => {
                let rp = b as f64 / c as f64;
                self.push(group, rp);
                f3(rp)
            }
            _ => "-".into(),
        }
    }

    /// The recorded values of a group (empty if none).
    pub fn values(&self, group: &str) -> &[f64] {
        self.groups.get(group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Geomean of a group's values, if any were recorded.
    pub fn geomean(&self, group: &str) -> Option<f64> {
        let v = self.values(group);
        if v.is_empty() {
            None
        } else {
            Some(geomean(v))
        }
    }

    /// Renders the geomean, or `-` when the group is empty.
    pub fn geomean_cell(&self, group: &str) -> String {
        opt_f3(self.geomean(group))
    }

    /// Arithmetic mean of a group's values, if any were recorded.
    pub fn mean(&self, group: &str) -> Option<f64> {
        let v = self.values(group);
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }
}

/// An engine selector for the generic suite sweep (`virec-cli sweep`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineSel {
    /// Statically banked register file.
    Banked,
    /// Software save/restore context switching.
    Software,
    /// ViReC storing this percentage of the active context.
    Virec(u32),
    /// The NSF baseline (PLRU, no system optimizations) at this
    /// percentage's RF size.
    Nsf(u32),
    /// Full-context register prefetching.
    PrefetchFull,
    /// Oracle exact-context prefetching.
    PrefetchExact,
}

impl EngineSel {
    /// Parses `banked | software | virec<pct> | nsf<pct> | pf_full |
    /// pf_exact` (e.g. `virec80`).
    pub fn parse(s: &str) -> Option<EngineSel> {
        let pct = |rest: &str| -> Option<u32> {
            let p: u32 = rest.parse().ok()?;
            (1..=100).contains(&p).then_some(p)
        };
        Some(match s {
            "banked" => EngineSel::Banked,
            "software" => EngineSel::Software,
            "pf_full" => EngineSel::PrefetchFull,
            "pf_exact" => EngineSel::PrefetchExact,
            _ if s.starts_with("virec") => EngineSel::Virec(pct(&s[5..])?),
            _ if s.starts_with("nsf") => EngineSel::Nsf(pct(&s[3..])?),
            _ => return None,
        })
    }

    /// Stable display label (parseable back by [`EngineSel::parse`]).
    pub fn label(&self) -> String {
        match self {
            EngineSel::Banked => "banked".into(),
            EngineSel::Software => "software".into(),
            EngineSel::Virec(p) => format!("virec{p}"),
            EngineSel::Nsf(p) => format!("nsf{p}"),
            EngineSel::PrefetchFull => "pf_full".into(),
            EngineSel::PrefetchExact => "pf_exact".into(),
        }
    }

    /// The core configuration for this selector on `w` (not used by
    /// [`EngineSel::PrefetchExact`], which runs through the oracle path).
    pub fn cfg(&self, w: &Workload, threads: usize) -> CoreConfig {
        match self {
            EngineSel::Banked => CoreConfig::banked(threads),
            EngineSel::Software => CoreConfig::software(threads),
            EngineSel::Virec(p) => virec_cfg(w, threads, *p as f64 / 100.0, PolicyKind::Lrc),
            EngineSel::Nsf(p) => {
                let sized = virec_cfg(w, threads, *p as f64 / 100.0, PolicyKind::Lrc);
                CoreConfig::nsf(threads, sized.phys_regs)
            }
            EngineSel::PrefetchFull => CoreConfig::prefetch_full(threads, w.active_context_size()),
            EngineSel::PrefetchExact => {
                CoreConfig::prefetch_exact(threads, w.active_context_size())
            }
        }
    }
}

/// A declarative workloads × engines sweep: the grid behind
/// `virec-cli sweep` and the determinism tests. The first engine is the
/// normalization baseline for the relative-performance columns.
pub struct SuiteSweep {
    /// Experiment name (JSON file stem).
    pub name: String,
    /// Suite workload names to sweep.
    pub workloads: Vec<String>,
    /// Engines per workload; `engines[0]` is the ratio baseline.
    pub engines: Vec<EngineSel>,
    /// Problem size.
    pub n: u64,
    /// Hardware threads per core.
    pub threads: usize,
    /// Budget-retry policy.
    pub retry: RetryPolicy,
}

impl SuiteSweep {
    /// Cell key for one (workload, engine) pair.
    pub fn key(&self, workload: &str, engine: &EngineSel) -> String {
        format!("{workload}/{}t/{}", self.threads, engine.label())
    }

    /// Builds the experiment grid. Every swept kernel is preflighted
    /// through the static lint gate first: a malformed or dataflow-dirty
    /// kernel fails fast here instead of burning sweep cycles and
    /// surfacing as a confusing mid-sweep divergence.
    ///
    /// # Panics
    /// Panics on an unknown workload name (callers validate user input
    /// before constructing the sweep) or on a kernel with lint
    /// diagnostics.
    pub fn spec(&self) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(&self.name).with_retry(self.retry);
        spec.set_meta("n", self.n);
        spec.set_meta("threads", self.threads);
        for wname in &self.workloads {
            let w = by_name(wname, self.n, layout0())
                .unwrap_or_else(|| panic!("unknown workload {wname:?}"));
            let diags = virec_verify::lint_program(
                w.program().instrs(),
                &virec_verify::workload_lint_config(&w),
            );
            assert!(
                diags.is_empty(),
                "workload {wname:?} fails the lint gate:\n{}",
                diags
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
            for engine in &self.engines {
                let key = self.key(wname, engine);
                let build = builder(
                    virec_workloads::SUITE
                        .iter()
                        .find(|(n, _)| n == wname)
                        .expect("validated above")
                        .1,
                    self.n,
                    layout0(),
                );
                match engine {
                    EngineSel::PrefetchExact => spec.prefetch_exact(
                        key,
                        build,
                        self.threads,
                        w.active_context_size(),
                        Default::default(),
                    ),
                    _ => spec.single(
                        key,
                        build,
                        engine.cfg(&w, self.threads),
                        &RunOptions::default(),
                    ),
                }
            }
        }
        spec
    }

    /// Renders the sweep tables (per-cell cycles plus ratio-vs-baseline
    /// columns, then a geomean row per engine) as a deterministic string.
    pub fn render(&self, res: &ExperimentResult) -> String {
        use virec_sim::report::Table;
        let base = &self.engines[0];
        let mut header: Vec<String> = vec!["workload".into(), format!("{}_cyc", base.label())];
        for e in &self.engines[1..] {
            header.push(e.label());
        }
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!(
                "Sweep — relative performance vs {}, {} threads, n={}",
                base.label(),
                self.threads,
                self.n
            ),
            &header_refs,
        );
        let mut rel = RelTracker::new();
        for wname in &self.workloads {
            let base_cycles = res.cycles(&self.key(wname, base));
            let mut row = vec![wname.clone(), cycles_cell(base_cycles)];
            for e in &self.engines[1..] {
                let cycles = res.cycles(&self.key(wname, e));
                row.push(rel.rel_cell(&e.label(), base_cycles, cycles));
            }
            t.row(row);
        }
        let mut out = t.render();
        if self.engines.len() > 1 {
            let mut m = Table::new(
                &format!(
                    "Sweep — geomean relative performance ({} = 1.0, completed runs only)",
                    base.label()
                ),
                &["engine", "geomean"],
            );
            for e in &self.engines[1..] {
                m.row(vec![e.label(), rel.geomean_cell(&e.label())]);
            }
            out.push('\n');
            out.push_str(&m.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_selectors_roundtrip() {
        for s in [
            "banked", "software", "virec40", "virec100", "nsf80", "pf_full", "pf_exact",
        ] {
            let e = EngineSel::parse(s).expect(s);
            assert_eq!(e.label(), s);
        }
        assert_eq!(EngineSel::parse("virec0"), None);
        assert_eq!(EngineSel::parse("virec101"), None);
        assert_eq!(EngineSel::parse("oops"), None);
        assert_eq!(EngineSel::parse("nsfxx"), None);
    }

    #[test]
    fn rel_tracker_records_and_aggregates() {
        let mut r = RelTracker::new();
        assert_eq!(r.rel_cell("a", Some(100), Some(50)), "2.000");
        assert_eq!(r.rel_cell("a", Some(100), Some(200)), "0.500");
        assert_eq!(r.rel_cell("a", None, Some(50)), "-");
        assert_eq!(r.rel_cell("a", Some(100), None), "-");
        assert!((r.geomean("a").unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(r.geomean_cell("empty"), "-");
        assert_eq!(r.values("a").len(), 2);
        assert!((r.mean("a").unwrap() - 1.25).abs() < 1e-12);
        assert_eq!(r.mean("empty"), None);
    }

    #[test]
    fn suite_sweep_declares_the_full_grid() {
        let sweep = SuiteSweep {
            name: "unit_sweep".into(),
            workloads: vec!["gather".into(), "reduction".into()],
            engines: vec![EngineSel::Banked, EngineSel::Virec(80)],
            n: 64,
            threads: 4,
            retry: RetryPolicy::default(),
        };
        let spec = sweep.spec();
        assert_eq!(spec.len(), 4);
        assert_eq!(spec.cells()[0].key, "gather/4t/banked");
        assert_eq!(spec.cells()[3].key, "reduction/4t/virec80");
    }
}
