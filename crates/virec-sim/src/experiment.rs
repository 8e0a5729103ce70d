//! Declarative experiment layer: named grids of simulation cells executed
//! on a worker pool with deterministic collection.
//!
//! Every figure reproduction follows the same shape — build a grid of
//! `(workload, configuration)` cells, run each one, derive relative
//! performance and geomeans, print tables. This module factors that shape
//! into three pieces:
//!
//! * [`ExperimentSpec`] — a named list of keyed [`CellSpec`]s. Cells carry
//!   workload *constructors* (not pre-built [`Workload`]s), so every worker
//!   builds its own instance and the whole spec is `Send + Sync`.
//! * [`Executor`] — runs cells on a `std::thread` pool (`jobs` workers).
//!   Results are keyed and re-sorted into declaration order, so the output
//!   of a parallel run is byte-identical to a serial one.
//! * [`ExperimentResult`] — keyed access to per-cell outcomes, failure
//!   reporting, and machine-readable JSON emission for `results/`.
//!
//! A failing cell (budget exhaustion, livelock, divergence, even a panic)
//! degrades to a structured [`CellOutcome::Failed`] row without aborting
//! its siblings. Pure cycle-budget failures are retried with a relaxed
//! budget according to the spec's [`RetryPolicy`].
//!
//! Sweeps are additionally *crash-safe*: with a
//! [`JournalConfig`](crate::journal::JournalConfig) the executor appends
//! each finished cell to an fsync'd journal, replays it on `--resume`
//! (re-running only the remainder, byte-identical output), honours
//! per-cell wall-clock deadlines through each cell's
//! [`RunGate`](crate::cancel::RunGate), and drains cleanly when an
//! interrupt token fires.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::cancel::{CancelToken, RunGate};
use crate::error::SimError;
use crate::journal::{self, JournalConfig};
use crate::runner::{
    build_slots, try_run_single, try_run_slots, RunOptions, RunResult, SystemResult,
};
use virec_core::CoreConfig;
use virec_workloads::{Layout, Workload, WorkloadCtor};

/// A shareable workload constructor: each worker calls it to build its own
/// [`Workload`] instance, which keeps cells ownable per thread.
pub type WorkloadBuilder = Arc<dyn Fn() -> Workload + Send + Sync>;

/// Wraps a suite constructor into a [`WorkloadBuilder`] at a fixed problem
/// size and layout.
pub fn builder(ctor: WorkloadCtor, n: u64, layout: Layout) -> WorkloadBuilder {
    Arc::new(move || ctor(n, layout))
}

/// How budget failures are retried before a cell is declared failed: a
/// bounded geometric schedule. Attempt `k` runs with the budget scaled by
/// `budget_factor^k`, capped at `scale_cap`, for at most `max_retries`
/// re-runs; the schedule stops early once the cap is reached (another
/// attempt at the same budget cannot succeed).
///
/// The defaults reproduce the historical sweep behaviour: one retry with a
/// 4× relaxed `max_cycles`. Retries apply to [`Job::Single`] and
/// [`Job::System`] cells (the kinds whose budget the executor can scale);
/// custom cells fail on their first budget error.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum number of relaxed re-runs after cycle-budget failures.
    pub max_retries: u32,
    /// Budget multiplier applied on each retry (compounding).
    pub budget_factor: u64,
    /// Upper bound on the cumulative budget multiplier.
    pub scale_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 1,
            budget_factor: 4,
            scale_cap: 256,
        }
    }
}

impl RetryPolicy {
    /// No retries: every budget failure is immediately a failed row.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            budget_factor: 1,
            scale_cap: 1,
        }
    }

    /// The cumulative budget scale to try after an attempt at `scale`
    /// failed, or `None` when the schedule is exhausted (the cap is
    /// reached, or the factor is 1 and another attempt would re-run the
    /// identical budget).
    pub fn next_scale(&self, scale: u64) -> Option<u64> {
        let next = scale
            .saturating_mul(self.budget_factor.max(1))
            .min(self.scale_cap.max(1));
        (next > scale).then_some(next)
    }
}

/// What a cell runs. All variants are `Send + Sync`, so the executor can
/// hand any cell to any worker.
#[derive(Clone)]
pub enum Job {
    /// A fallible single-core run ([`try_run_single`]).
    Single {
        /// Builds the worker-local workload instance.
        build: WorkloadBuilder,
        /// Core configuration (its `max_cycles` is scaled on retries).
        cfg: CoreConfig,
        /// Run options (fabric, verification, faults, …).
        opts: RunOptions,
    },
    /// A multi-core run ([`try_run_slots`]) of the [`build_slots`] of
    /// `slots`.
    System {
        /// One `(core, workload constructor, problem size)` per slot; every
        /// core's `max_cycles` is scaled on retries.
        slots: Vec<(CoreConfig, WorkloadCtor, u64)>,
        /// Run options (fabric, loop, gate, …).
        opts: RunOptions,
    },
    /// Anything else — area-model evaluations, compiled-kernel drives,
    /// campaign wrappers. Must be deterministic; budget retries do not
    /// apply. The closure receives the cell's [`CellCtx`] and should call
    /// [`CellCtx::check`] periodically if it can run long.
    Custom(Arc<CustomFn>),
}

/// The closure type behind [`Job::Custom`].
pub type CustomFn = dyn Fn(&CellCtx) -> Result<CellData, SimError> + Send + Sync;

/// Execution context handed to custom cells: the cell's key and its
/// cancellation gate.
pub struct CellCtx<'a> {
    /// The cell's key (labels deadline diagnostics).
    pub key: &'a str,
    /// The cell's wall-clock-deadline / cancellation gate.
    pub gate: &'a RunGate,
}

impl CellCtx<'_> {
    /// Cooperative cancellation point: returns a typed
    /// [`SimError::Deadline`] once the cell's gate has tripped. Cheap
    /// enough to call inside loops.
    pub fn check(&self) -> Result<(), SimError> {
        match self.gate.trip() {
            Some(trip) => Err(SimError::Deadline {
                elapsed_ms: trip.elapsed_ms,
                limit_ms: trip.limit_ms,
                diag: crate::error::RunDiagnostics::placeholder(self.key),
            }),
            None => Ok(()),
        }
    }
}

/// One keyed cell of an experiment grid.
#[derive(Clone)]
pub struct CellSpec {
    /// Unique, stable key (also the JSON row label and sort identity).
    pub key: String,
    /// What the cell runs.
    pub job: Job,
}

/// A named, declarative experiment: keys plus jobs, executed by an
/// [`Executor`].
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Experiment name (used for the JSON file name in `results/`).
    pub name: String,
    /// Budget-retry policy applied to every cell.
    pub retry: RetryPolicy,
    meta: Vec<(String, String)>,
    cells: Vec<CellSpec>,
    keys: HashMap<String, usize>,
}

impl ExperimentSpec {
    /// An empty spec with the default retry policy.
    pub fn new(name: &str) -> ExperimentSpec {
        ExperimentSpec {
            name: name.to_string(),
            retry: RetryPolicy::default(),
            meta: Vec::new(),
            cells: Vec::new(),
            keys: HashMap::new(),
        }
    }

    /// Replaces the retry policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> ExperimentSpec {
        self.retry = retry;
        self
    }

    /// Records a provenance key/value pair — problem size, thread count,
    /// any knob that changes the numbers. Metadata is carried into the
    /// result JSON and into the journal fingerprint, so an archived file
    /// states the configuration it was produced under and a journal
    /// recorded at a different configuration is refused on resume.
    /// Setting an existing key replaces its value.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl ToString) {
        let key = key.into();
        let value = value.to_string();
        match self.meta.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => self.meta.push((key, value)),
        }
    }

    /// The recorded provenance metadata, in declaration order.
    pub fn meta(&self) -> &[(String, String)] {
        &self.meta
    }

    /// Adds a cell.
    ///
    /// # Panics
    /// Panics if `key` was already declared — keys are the identity that
    /// makes parallel collection deterministic, so duplicates are bugs.
    pub fn push(&mut self, key: impl Into<String>, job: Job) {
        let key = key.into();
        assert!(
            self.keys.insert(key.clone(), self.cells.len()).is_none(),
            "duplicate experiment cell key {key:?}"
        );
        self.cells.push(CellSpec { key, job });
    }

    /// Declares a single-core run cell.
    pub fn single(
        &mut self,
        key: impl Into<String>,
        build: WorkloadBuilder,
        cfg: CoreConfig,
        opts: &RunOptions,
    ) {
        self.push(
            key,
            Job::Single {
                build,
                cfg,
                opts: opts.clone(),
            },
        );
    }

    /// Declares a multi-core cell, one `(core, ctor, n)` per slot.
    pub fn system(
        &mut self,
        key: impl Into<String>,
        slots: Vec<(CoreConfig, WorkloadCtor, u64)>,
        opts: &RunOptions,
    ) {
        let opts = opts.clone();
        self.push(key, Job::System { slots, opts });
    }

    /// Declares a custom cell.
    pub fn custom(
        &mut self,
        key: impl Into<String>,
        f: impl Fn(&CellCtx) -> Result<CellData, SimError> + Send + Sync + 'static,
    ) {
        self.push(key, Job::Custom(Arc::new(f)));
    }

    /// Number of declared cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells have been declared.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The declared cells, in order.
    pub fn cells(&self) -> &[CellSpec] {
        &self.cells
    }
}

/// The payload of a completed cell.
#[derive(Clone, Debug)]
pub enum CellData {
    /// A verified single-core run.
    Run(Box<RunResult>),
    /// A multi-core system run.
    System(Box<SystemResult>),
    /// Named numeric metrics (area models, derived measurements).
    Metrics(Vec<(String, f64)>),
    /// Named descriptive fields (configuration listings).
    Fields(Vec<(String, String)>),
}

impl CellData {
    /// Builds a metrics payload from `(name, value)` pairs.
    pub fn metrics<const N: usize>(pairs: [(&str, f64); N]) -> CellData {
        CellData::Metrics(pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect())
    }

    /// Builds a fields payload from `(name, value)` pairs.
    pub fn fields<const N: usize>(pairs: [(&str, String); N]) -> CellData {
        CellData::Fields(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    /// Total cycles, when the payload carries them (a run, a system run,
    /// or a metric literally named `cycles`).
    pub fn cycles(&self) -> Option<u64> {
        match self {
            CellData::Run(r) => Some(r.cycles),
            CellData::System(s) => Some(s.cycles),
            CellData::Metrics(_) => self.metric("cycles").map(|v| v as u64),
            CellData::Fields(_) => None,
        }
    }

    /// A named metric (for [`CellData::Metrics`] payloads).
    pub fn metric(&self, name: &str) -> Option<f64> {
        match self {
            CellData::Metrics(m) => m.iter().find(|(k, _)| k == name).map(|(_, v)| *v),
            _ => None,
        }
    }

    /// A named descriptive field (for [`CellData::Fields`] payloads).
    pub fn field(&self, name: &str) -> Option<&str> {
        match self {
            CellData::Fields(f) => f.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str()),
            _ => None,
        }
    }
}

/// Outcome of one cell: a payload or a structured failure row.
#[derive(Clone, Debug)]
pub enum CellOutcome {
    /// The cell completed.
    Ok(CellData),
    /// The cell failed; siblings are unaffected.
    Failed {
        /// Machine-readable kind (`cycle_budget`, `livelock`, …, `panic`).
        kind: String,
        /// Full error line.
        error: String,
        /// True if the failure survived at least one relaxed budget retry.
        retried: bool,
    },
    /// The cell was never executed: the sweep drained (SIGINT, or a test
    /// interruption) before a worker claimed it. Skipped cells are not
    /// journaled, so a resumed run executes them.
    Skipped,
}

/// One collected result row.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell's key, copied from the spec.
    pub key: String,
    /// What happened.
    pub outcome: CellOutcome,
}

impl CellResult {
    /// The payload if the cell completed.
    pub fn data(&self) -> Option<&CellData> {
        match &self.outcome {
            CellOutcome::Ok(d) => Some(d),
            CellOutcome::Failed { .. } | CellOutcome::Skipped => None,
        }
    }
}

/// Results of an executed experiment, in declaration order.
pub struct ExperimentResult {
    /// Experiment name (copied from the spec).
    pub name: String,
    /// Provenance metadata (copied from the spec).
    pub meta: Vec<(String, String)>,
    /// Per-cell results, in the spec's declaration order.
    pub cells: Vec<CellResult>,
    /// Worker count the run used.
    pub jobs: usize,
    /// True when the sweep drained before every cell ran (some cells are
    /// [`CellOutcome::Skipped`]); the final JSON should not be written and
    /// the journal is left in place for `--resume`.
    pub interrupted: bool,
    index: HashMap<String, usize>,
}

impl ExperimentResult {
    /// The result row for `key`.
    ///
    /// # Panics
    /// Panics on an undeclared key — a figure asking for a cell it never
    /// declared is a bug, not a runtime condition.
    pub fn cell(&self, key: &str) -> &CellResult {
        let i = *self
            .index
            .get(key)
            .unwrap_or_else(|| panic!("experiment {:?} has no cell {key:?}", self.name));
        &self.cells[i]
    }

    /// The payload of `key`, if it completed.
    pub fn data(&self, key: &str) -> Option<&CellData> {
        self.cell(key).data()
    }

    /// The single-core run result of `key`, if it completed with one.
    pub fn run(&self, key: &str) -> Option<&RunResult> {
        match self.data(key) {
            Some(CellData::Run(r)) => Some(r),
            _ => None,
        }
    }

    /// The system run result of `key`, if it completed with one.
    pub fn system(&self, key: &str) -> Option<&SystemResult> {
        match self.data(key) {
            Some(CellData::System(s)) => Some(s),
            _ => None,
        }
    }

    /// Cycles of `key`, if available.
    pub fn cycles(&self, key: &str) -> Option<u64> {
        self.data(key).and_then(CellData::cycles)
    }

    /// A named metric of `key`, if available.
    pub fn metric(&self, key: &str, name: &str) -> Option<f64> {
        self.data(key).and_then(|d| d.metric(name))
    }

    /// A named descriptive field of `key`, if available.
    pub fn field(&self, key: &str, name: &str) -> Option<&str> {
        self.data(key).and_then(|d| d.field(name))
    }

    /// `(key, formatted error)` for every failed cell, in declaration
    /// order.
    pub fn failures(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .filter_map(|c| match &c.outcome {
                CellOutcome::Failed {
                    kind,
                    error,
                    retried,
                } => {
                    let suffix = if *retried {
                        " (after budget retry)"
                    } else {
                        ""
                    };
                    Some((c.key.clone(), format!("[{kind}{suffix}] {error}")))
                }
                CellOutcome::Ok(_) | CellOutcome::Skipped => None,
            })
            .collect()
    }

    /// True if every cell completed successfully (none failed, none
    /// skipped by an interruption).
    pub fn all_ok(&self) -> bool {
        self.failed() == 0 && self.skipped() == 0
    }

    /// Number of failed cells.
    pub fn failed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Failed { .. }))
            .count()
    }

    /// Number of cells skipped by an interrupted (drained) sweep.
    pub fn skipped(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Skipped))
            .count()
    }

    /// Prints the failure rows (no-op when the sweep was clean).
    pub fn print_failures(&self) {
        let failures = self.failures();
        if failures.is_empty() {
            return;
        }
        println!("\n{} failed configuration(s):", failures.len());
        for (key, error) in &failures {
            println!("  {key}: {error}");
        }
    }

    /// Machine-readable JSON rows, in declaration order. Deliberately
    /// excludes wall-clock timing so a parallel run's output is
    /// byte-identical to a serial one.
    ///
    /// The header carries the spec's provenance metadata (problem size
    /// and friends, see [`ExperimentSpec::set_meta`]) plus the journal
    /// fingerprint over name, cell keys, and metadata — so a results
    /// file states what configuration produced it instead of being
    /// indistinguishable from a run at a different size.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 * self.cells.len() + 64);
        out.push_str("{\n  \"experiment\": ");
        json_string(&mut out, &self.name);
        out.push_str(",\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { ", " });
            json_string(&mut out, k);
            out.push_str(": ");
            json_string(&mut out, v);
        }
        let fingerprint = journal::spec_fingerprint(
            &self.name,
            self.cells.iter().map(|c| c.key.as_str()),
            self.meta.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        );
        out.push_str(&format!(
            "}},\n  \"fingerprint\": \"{fingerprint:016x}\",\n  \"cells\": ["
        ));
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"key\": ");
            json_string(&mut out, &c.key);
            match &c.outcome {
                CellOutcome::Ok(d) => {
                    out.push_str(", \"status\": \"ok\"");
                    json_cell_data(&mut out, d);
                }
                CellOutcome::Failed {
                    kind,
                    error,
                    retried,
                } => {
                    out.push_str(", \"status\": \"failed\", \"error_kind\": ");
                    json_string(&mut out, kind);
                    out.push_str(&format!(", \"retried\": {retried}, \"error\": "));
                    // Keep only the structured first line; livelock dumps
                    // span pages and belong in stderr, not result rows.
                    json_string(&mut out, error.lines().next().unwrap_or(""));
                }
                CellOutcome::Skipped => out.push_str(", \"status\": \"skipped\""),
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes [`ExperimentResult::to_json`] to `<dir>/<name>.json`,
    /// creating the directory if needed. Returns the written path.
    ///
    /// The write is atomic (temp file, fsync, rename): a crash mid-write
    /// can never leave truncated JSON for a later resume to trip over.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let tmp = dir.join(format!(".tmp.{}.json", self.name));
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Formats an `f64` for JSON: finite shortest-roundtrip, non-finite as
/// null (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_cell_data(out: &mut String, d: &CellData) {
    match d {
        CellData::Run(r) => {
            out.push_str(&format!(
                ", \"cycles\": {}, \"instructions\": {}, \"ipc\": {}, \
                 \"context_switches\": {}, \"rf_hits\": {}, \"rf_misses\": {}, \
                 \"rf_hit_rate\": {}, \"arch_digest\": \"{:#018x}\"",
                r.cycles,
                r.stats.instructions,
                json_f64(r.ipc()),
                r.stats.context_switches,
                r.stats.rf_hits,
                r.stats.rf_misses,
                json_f64(r.stats.rf_hit_rate()),
                r.arch_digest,
            ));
        }
        CellData::System(s) => {
            out.push_str(&format!(
                ", \"cycles\": {}, \"ncores\": {}, \"total_ipc\": {}, \
                 \"mean_core_ipc\": {}, \"mean_queue_delay\": {}",
                s.cycles,
                s.per_core.len(),
                json_f64(s.total_ipc()),
                json_f64(s.mean_core_ipc()),
                json_f64(s.fabric.mean_queue_delay()),
            ));
        }
        CellData::Metrics(m) => {
            for (k, v) in m {
                out.push_str(", ");
                json_string(out, k);
                out.push_str(": ");
                out.push_str(&json_f64(*v));
            }
        }
        CellData::Fields(f) => {
            for (k, v) in f {
                out.push_str(", ");
                json_string(out, k);
                out.push_str(": ");
                json_string(out, v);
            }
        }
    }
}

/// Runs an [`ExperimentSpec`] on a pool of worker threads.
///
/// Cells are claimed from a shared queue and executed concurrently; each
/// result is stored at its cell's declaration index, so the collected
/// [`ExperimentResult`] — and everything rendered from it — is identical
/// for any worker count.
///
/// With [`Executor::run_journaled`] the pool is additionally crash-safe:
/// finished cells are appended to an fsync'd journal and replayed on
/// resume. [`Executor::with_interrupts`] wires in the SIGINT drain/abort
/// token pair and [`Executor::with_deadline_ms`] bounds each cell's
/// wall-clock time.
pub struct Executor {
    jobs: usize,
    drain: CancelToken,
    abort: CancelToken,
    deadline_ms: u64,
    gated: bool,
    interrupt_after: Option<usize>,
}

impl Executor {
    /// A pool with `jobs` workers (clamped to at least 1). `jobs == 1`
    /// executes inline on the calling thread, with no pool at all.
    pub fn new(jobs: usize) -> Executor {
        Executor {
            jobs: jobs.max(1),
            drain: CancelToken::new(),
            abort: CancelToken::new(),
            deadline_ms: 0,
            gated: false,
            interrupt_after: None,
        }
    }

    /// Installs a `(drain, abort)` cancellation pair — usually from
    /// [`crate::cancel::interrupt_tokens`]. Once `drain` cancels, workers
    /// finish their current cell and claim no more; `abort` additionally
    /// trips every in-flight cell's gate.
    pub fn with_interrupts(mut self, drain: CancelToken, abort: CancelToken) -> Executor {
        self.drain = drain;
        self.abort = abort;
        self.gated = true;
        self
    }

    /// Sets a per-cell wall-clock deadline in milliseconds (0 disables
    /// it). A cell past its deadline degrades to a structured `deadline`
    /// failure row; siblings are unaffected.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Executor {
        self.deadline_ms = deadline_ms;
        self.gated = self.gated || deadline_ms > 0;
        self
    }

    /// Deterministic interruption for tests and CI smoke runs: drain the
    /// sweep after `n` cells complete in this run, exactly as if SIGINT
    /// had arrived (fully deterministic with one worker).
    pub fn with_interrupt_after(mut self, n: usize) -> Executor {
        self.interrupt_after = Some(n);
        self
    }

    /// Executes every cell and collects results in declaration order.
    pub fn run(&self, spec: &ExperimentSpec) -> ExperimentResult {
        self.execute(spec, vec![None; spec.cells.len()], None)
    }

    /// Executes the spec with optional crash-safe journaling.
    ///
    /// With a [`JournalConfig`], every finished cell is appended to
    /// `<dir>/<name>.journal.jsonl` and fsync'd before it counts as
    /// complete. When `resume` is set and a matching journal exists, its
    /// outcomes are replayed verbatim — replayed cells are *not*
    /// re-executed — and only the remainder runs; the collected result
    /// (tables, JSON) is byte-identical to an uninterrupted run. The
    /// journal is deleted after a complete (non-interrupted) sweep.
    ///
    /// `Err` is returned only for journal I/O that cannot be recovered
    /// (e.g. the results directory is not writable).
    pub fn run_journaled(
        &self,
        spec: &ExperimentSpec,
        journal_cfg: Option<&JournalConfig>,
    ) -> std::io::Result<ExperimentResult> {
        let Some(jc) = journal_cfg else {
            return Ok(self.run(spec));
        };
        let n = spec.cells.len();
        let mut slots = vec![None; n];
        let fingerprint = journal::spec_fingerprint(
            &spec.name,
            spec.cells.iter().map(|c| c.key.as_str()),
            spec.meta.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        );
        let path = journal::journal_path(&jc.dir, &spec.name);
        let mut replayed = false;
        if jc.resume {
            match journal::load(&path, &spec.name, fingerprint) {
                journal::JournalLoad::Loaded {
                    records,
                    skipped_lines,
                } => {
                    if skipped_lines > 0 {
                        eprintln!(
                            "journal {}: skipped {skipped_lines} corrupt record(s)",
                            path.display()
                        );
                    }
                    let mut applied = 0usize;
                    for (key, outcome) in records {
                        match spec.keys.get(&key) {
                            Some(&i) => {
                                slots[i] = Some(outcome);
                                applied += 1;
                            }
                            None => eprintln!(
                                "journal {}: ignoring unknown cell {key:?}",
                                path.display()
                            ),
                        }
                    }
                    eprintln!(
                        "resume: replaying {applied}/{n} journaled cell(s) of {}",
                        spec.name
                    );
                    replayed = true;
                }
                journal::JournalLoad::Mismatch => {
                    eprintln!(
                        "journal {}: belongs to a different spec; starting fresh",
                        path.display()
                    );
                }
                journal::JournalLoad::CorruptHeader => {
                    eprintln!(
                        "journal {}: corrupt or truncated header; starting fresh",
                        path.display()
                    );
                }
                journal::JournalLoad::Missing => {}
            }
        }
        let w = if replayed {
            journal::JournalWriter::append_to(&path)?
        } else {
            journal::JournalWriter::create(&jc.dir, &spec.name, fingerprint)?
        };
        let writer = Mutex::new(w);
        let result = self.execute(spec, slots, Some(&writer));
        // A complete sweep no longer needs its journal; an interrupted one
        // keeps it so `--resume` can pick up where this run stopped.
        if !result.interrupted {
            let _ = std::fs::remove_file(&path);
        }
        Ok(result)
    }

    /// Runs every cell not already `replayed`, appending each finished
    /// cell to `writer` when there is one, and collects all cells in
    /// declaration order. Performs no fallible I/O: a failed append is
    /// reported and the sweep goes on.
    fn execute(
        &self,
        spec: &ExperimentSpec,
        replayed: Vec<Option<CellOutcome>>,
        writer: Option<&Mutex<journal::JournalWriter>>,
    ) -> ExperimentResult {
        let pending: Vec<usize> = (0..replayed.len())
            .filter(|&i| replayed[i].is_none())
            .collect();
        let slots: Vec<Mutex<Option<CellOutcome>>> = replayed.into_iter().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let completions = AtomicUsize::new(0);
        {
            let worker = || loop {
                if self.drain.is_cancelled() {
                    break;
                }
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = pending.get(k) else {
                    break;
                };
                let cell = &spec.cells[i];
                // One gate per cell: the deadline clock spans every retry
                // and (for an exact-context prefetching core) both the
                // oracle recording and the run that replays it.
                let gate = RunGate::new(self.abort.clone(), self.deadline_ms);
                let (outcome, journalable) = execute_cell(cell, spec.retry, &gate, self.gated);
                if journalable {
                    if let Some(w) = writer {
                        let line = journal::record_line(&cell.key, &outcome);
                        if let Err(e) = relock(w).append(&line) {
                            eprintln!("journal append failed for {}: {e}", cell.key);
                        }
                    }
                }
                *relock(&slots[i]) = Some(outcome);
                let done = completions.fetch_add(1, Ordering::Relaxed) + 1;
                if self.interrupt_after.is_some_and(|limit| done >= limit) {
                    self.drain.cancel();
                }
            };
            let workers = self.jobs.min(pending.len().max(1));
            if workers <= 1 {
                worker();
            } else {
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(worker);
                    }
                });
            }
        }

        let mut interrupted = false;
        let cells: Vec<CellResult> = spec
            .cells
            .iter()
            .zip(slots)
            .map(|(c, slot)| CellResult {
                key: c.key.clone(),
                outcome: slot
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        interrupted = true;
                        CellOutcome::Skipped
                    }),
            })
            .collect();

        ExperimentResult {
            name: spec.name.clone(),
            meta: spec.meta.clone(),
            cells,
            jobs: self.jobs,
            interrupted,
            index: spec.keys.clone(),
        }
    }
}

/// Locks a result slot or the journal writer. A worker that panics
/// mid-`lock` poisons the mutex; every cell body already runs under
/// `catch_unwind` (a panic becomes a `Failed` row), so the data behind a
/// poisoned lock is still consistent — recover it instead of letting one
/// bad cell convert the collector's unwrap into a second, sweep-killing
/// panic.
fn relock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs one cell with graceful degradation: typed errors and panics both
/// become failure rows, and budget failures of scalable jobs are retried
/// per the policy. The second return value says whether the outcome is
/// *journalable*: failures caused by an external cancellation (as opposed
/// to an expired per-cell deadline) describe the interrupted process, not
/// the cell, and must re-run on resume.
fn execute_cell(
    cell: &CellSpec,
    retry: RetryPolicy,
    gate: &RunGate,
    gated: bool,
) -> (CellOutcome, bool) {
    let job = &cell.job;
    let scaled = |cfg: &CoreConfig, scale: u64| CoreConfig {
        max_cycles: cfg.max_cycles.saturating_mul(scale),
        ..*cfg
    };
    // Executor-managed gating overrides any gate the spec put in the
    // cell's RunOptions.
    let gated_opts = |opts: &RunOptions| {
        let mut opts = opts.clone();
        if gated {
            opts.gate = gate.clone();
        }
        opts
    };
    let attempt = |scale: u64| -> Result<CellData, SimError> {
        match job {
            Job::Single { build, cfg, opts } => {
                try_run_single(scaled(cfg, scale), &build(), &gated_opts(opts))
                    .map(|r| CellData::Run(Box::new(r)))
            }
            Job::System { slots, opts } => {
                let slots: Vec<_> = build_slots(slots)
                    .into_iter()
                    .map(|(cfg, w)| (scaled(&cfg, scale), w))
                    .collect();
                try_run_slots(&slots, &gated_opts(opts)).map(|r| CellData::System(Box::new(r)))
            }
            Job::Custom(f) => f(&CellCtx {
                key: &cell.key,
                gate,
            }),
        }
    };
    let scalable = matches!(job, Job::Single { .. } | Job::System { .. });
    let mut scale = 1u64;
    let mut retried = false;
    let mut retries_left = if scalable { retry.max_retries } else { 0 };
    loop {
        let next = retry.next_scale(scale).filter(|_| retries_left > 0);
        match (catch_unwind(AssertUnwindSafe(|| attempt(scale))), next) {
            (Ok(Ok(data)), _) => return (CellOutcome::Ok(data), true),
            (Ok(Err(SimError::CycleBudgetExceeded { .. })), Some(next)) => {
                retries_left -= 1;
                retried = true;
                scale = next;
            }
            (Ok(Err(e)), _) => {
                let journalable =
                    !matches!(e.root_cause(), SimError::Deadline { .. }) || e.deadline_expired();
                return (
                    CellOutcome::Failed {
                        kind: e.kind().to_string(),
                        error: e.to_string(),
                        retried,
                    },
                    journalable,
                );
            }
            (Err(payload), _) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("cell panicked");
                return (
                    CellOutcome::Failed {
                        kind: "panic".to_string(),
                        error: msg.to_string(),
                        retried,
                    },
                    true,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_workloads::kernels;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn specs_are_shareable_across_workers() {
        assert_send_sync::<ExperimentSpec>();
        assert_send_sync::<Job>();
    }

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new("unit");
        let b = builder(kernels::spatter::gather, 128, Layout::for_core(0));
        spec.single(
            "gather/virec",
            b.clone(),
            CoreConfig::virec(4, 32),
            &RunOptions::default(),
        );
        spec.single(
            "gather/banked",
            b,
            CoreConfig::banked(4),
            &RunOptions::default(),
        );
        spec.custom("area", |_| {
            Ok(CellData::metrics([("mm2", 1.5), ("cycles", 10.0)]))
        });
        spec
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let spec = tiny_spec();
        let serial = Executor::new(1).run(&spec);
        let parallel = Executor::new(4).run(&spec);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(
            serial.cycles("gather/virec"),
            parallel.cycles("gather/virec")
        );
        assert!(serial.all_ok());
        // Declaration order is preserved.
        let keys: Vec<&str> = parallel.cells.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, ["gather/virec", "gather/banked", "area"]);
    }

    #[test]
    fn metrics_cells_expose_named_values() {
        let res = Executor::new(2).run(&tiny_spec());
        assert_eq!(res.metric("area", "mm2"), Some(1.5));
        assert_eq!(res.cycles("area"), Some(10));
        assert_eq!(res.metric("area", "absent"), None);
    }

    #[test]
    fn failing_cell_degrades_without_aborting_siblings() {
        let mut spec = ExperimentSpec::new("unit_fail").with_retry(RetryPolicy {
            max_retries: 1,
            budget_factor: 2,
            ..RetryPolicy::default()
        });
        let b = builder(kernels::spatter::gather, 256, Layout::for_core(0));
        let mut starved = CoreConfig::virec(4, 32);
        starved.max_cycles = 50; // hopeless even at 2x
        spec.single("starved", b.clone(), starved, &RunOptions::default());
        spec.single(
            "healthy",
            b,
            CoreConfig::virec(4, 32),
            &RunOptions::default(),
        );
        spec.custom("panics", |_| panic!("boom"));
        let res = Executor::new(3).run(&spec);
        match &res.cell("starved").outcome {
            CellOutcome::Failed { kind, retried, .. } => {
                assert_eq!(*kind, "cycle_budget");
                assert!(*retried, "budget failures are retried first");
            }
            other => panic!("a 50-cycle budget cannot complete gather: {other:?}"),
        }
        match &res.cell("panics").outcome {
            CellOutcome::Failed { kind, error, .. } => {
                assert_eq!(*kind, "panic");
                assert!(error.contains("boom"));
            }
            other => panic!("panicking cell must fail: {other:?}"),
        }
        assert!(res.run("healthy").is_some(), "siblings must complete");
        assert_eq!(res.failed(), 2);
        assert!(!res.all_ok());
        assert_eq!(res.failures().len(), 2);
    }

    #[test]
    fn retry_policy_none_fails_immediately() {
        let mut spec = ExperimentSpec::new("unit_noretry").with_retry(RetryPolicy::none());
        let b = builder(kernels::spatter::gather, 256, Layout::for_core(0));
        let mut starved = CoreConfig::virec(4, 32);
        starved.max_cycles = 50;
        spec.single("starved", b, starved, &RunOptions::default());
        match &Executor::new(1).run(&spec).cell("starved").outcome {
            CellOutcome::Failed { retried, .. } => {
                assert!(!retried, "RetryPolicy::none must not retry")
            }
            other => panic!("cannot complete in 50 cycles: {other:?}"),
        }
    }

    #[test]
    fn retry_schedule_is_bounded_geometric() {
        let p = RetryPolicy::default();
        assert_eq!(p.next_scale(1), Some(4), "default first retry is 4x");
        assert_eq!(p.next_scale(64), Some(256));
        assert_eq!(p.next_scale(256), None, "the cap exhausts the schedule");
        assert_eq!(RetryPolicy::none().next_scale(1), None);
        let deep = RetryPolicy {
            max_retries: 8,
            budget_factor: 2,
            scale_cap: 16,
        };
        assert_eq!(deep.next_scale(1), Some(2));
        assert_eq!(deep.next_scale(8), Some(16));
        assert_eq!(deep.next_scale(16), None);
    }

    #[test]
    fn interrupt_after_drains_and_marks_skipped() {
        let mut spec = ExperimentSpec::new("unit_drain");
        for k in ["a", "b", "c", "d"] {
            spec.custom(k, |_| Ok(CellData::metrics([("cycles", 1.0)])));
        }
        let res = Executor::new(1).with_interrupt_after(2).run(&spec);
        assert!(res.interrupted);
        assert_eq!(res.skipped(), 2);
        assert!(!res.all_ok());
        assert!(matches!(res.cell("a").outcome, CellOutcome::Ok(_)));
        assert!(matches!(res.cell("d").outcome, CellOutcome::Skipped));
        let js = res.to_json();
        assert_eq!(js.matches("\"status\": \"skipped\"").count(), 2, "{js}");
    }

    #[test]
    #[should_panic(expected = "duplicate experiment cell key")]
    fn duplicate_keys_are_rejected() {
        let mut spec = ExperimentSpec::new("dup");
        spec.custom("k", |_| Ok(CellData::Metrics(Vec::new())));
        spec.custom("k", |_| Ok(CellData::Metrics(Vec::new())));
    }

    #[test]
    fn meta_lands_in_json_header_and_fingerprint() {
        let mut spec = ExperimentSpec::new("meta_unit");
        spec.set_meta("n", 512u64);
        spec.custom("c", |_| Ok(CellData::metrics([("cycles", 1.0)])));
        let js512 = Executor::new(1).run(&spec).to_json();
        assert!(js512.contains("\"meta\": {\"n\": \"512\"}"), "{js512}");
        assert!(js512.contains("\"fingerprint\": \""), "{js512}");

        // set_meta on an existing key replaces the value, and the emitted
        // fingerprint moves with it: files from different problem sizes
        // are distinguishable from their headers alone.
        spec.set_meta("n", 4096u64);
        assert_eq!(spec.meta(), [("n".to_string(), "4096".to_string())]);
        let js4096 = Executor::new(1).run(&spec).to_json();
        assert!(js4096.contains("\"meta\": {\"n\": \"4096\"}"), "{js4096}");
        let fp = |js: &str| {
            js.lines()
                .find(|l| l.contains("\"fingerprint\""))
                .expect("header emits a fingerprint")
                .to_string()
        };
        assert_ne!(fp(&js512), fp(&js4096));
    }

    #[test]
    fn json_escapes_and_shapes() {
        let mut spec = ExperimentSpec::new("json \"quoted\"");
        spec.custom("fields", |_| {
            Ok(CellData::fields([("desc", "a\"b\\c\nd".to_string())]))
        });
        let res = Executor::new(1).run(&spec);
        let js = res.to_json();
        assert!(
            js.contains("\"experiment\": \"json \\\"quoted\\\"\""),
            "{js}"
        );
        assert!(js.contains("\"desc\": \"a\\\"b\\\\c\\nd\""), "{js}");
        assert!(js.contains("\"status\": \"ok\""));
    }
}
