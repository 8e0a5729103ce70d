//! Running one workload: its timed iterations and its traced pass.
//!
//! Every op (a run, a sweep cell, a served task, an injection) is
//! panic-safe: a failing op is counted and reported, and the ledger goes
//! on to the next one.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::replay::{replay, Replay};
use crate::report::{geomean, ratio, Metric};
use crate::spec::{self, Job, Kind, Setup, Spec};
use crate::trace::{ticks, Acc, Trace};
use virec_sim::experiment::Executor;
use virec_sim::runner::{default_checkpoint_interval, try_run_single, RunOptions, RunResult};
use virec_sim::{
    run_campaign_with, CampaignOptions, CampaignReport, FaultSite, InjectionOutcome,
    ProtectionConfig, ServeConfig, ServeReport, TaskOutcome, TaskService,
};

/// Per-layer metrics of one workload, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Every per-layer metric and its unit. A workload reports each of them;
/// a layer its ops do not reach, or reach only through a boundary span,
/// reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("loop.steps", "count"),
    ("loop.cycles_per_step", "cycles"),
    ("loop.fastpath_share", "ratio"),
    ("loop.next_event_s", "s"),
    ("loop.credit_s", "s"),
    ("loop.event_over_dense", "ratio"),
    ("core.tick_s", "s"),
    ("core.tick_ns_per_step", "ns"),
    ("core.tick_share", "ratio"),
    ("core.ipc", "instr/cycle"),
    ("core.stall_mem_share", "ratio"),
    ("core.stall_reg_fill_share", "ratio"),
    ("core.stall_idle_share", "ratio"),
    ("core.stall_fetch_share", "ratio"),
    ("engine.overhead_ns_per_step", "ns"),
    ("engine.virec_over_banked_speed", "ratio"),
    ("engine.rf_hit_rate", "ratio"),
    ("engine.rf_misses", "count"),
    ("engine.rf_spills", "count"),
    ("engine.context_switches", "count"),
    ("dcache.hit_rate", "ratio"),
    ("dcache.mshr_stalls", "count"),
    ("icache.hit_rate", "ratio"),
    ("fabric.tick_s", "s"),
    ("fabric.tick_ns_per_step", "ns"),
    ("noc.hops", "count"),
    ("noc.retransmissions", "count"),
    ("noc.links_retired", "count"),
    ("fabric.scrub_reads", "count"),
    ("golden.digest_s", "s"),
    ("golden.verify_s", "s"),
    ("golden.share", "ratio"),
    ("image.build_s", "s"),
    ("ckpt.clone_s", "s"),
    ("ckpt.clone_share", "ratio"),
    ("ckpt.taken", "count"),
    ("ckpt.overhead", "ratio"),
    ("campaign.s_per_injection", "s"),
    ("campaign.corrected", "count"),
    ("campaign.ckpt_recovered", "count"),
    ("campaign.recovered", "count"),
    ("campaign.crashed", "count"),
    ("campaign.mean_replay_cycles", "cycles"),
    ("serve.host_ms_per_task", "ms"),
    ("serve.standalone_ms_per_task", "ms"),
    ("serve.overhead_ms_per_task", "ms"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("sweep.ms_per_cell", "ms"),
    ("sweep.fixed_ms_per_cell", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// Ops attempted and failed, and the correctness checks that failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub incorrect: Vec<String>,
}

impl Tally {
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.incorrect.push(e);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect.extend(other.incorrect);
    }
}

/// One timed iteration of a workload's job list.
#[derive(Debug, Default)]
pub struct Iter {
    pub host_s: f64,
    pub tally: Tally,
    /// Exact rendering of every simulated output. Simulation is
    /// deterministic, so it must repeat across iterations and phases.
    pub sim_key: String,
    /// Simulated end-to-end metrics.
    pub sim: Vec<Metric>,
}

/// What the traced pass measured.
#[derive(Debug, Default)]
pub struct Traced {
    pub layers: Layers,
    /// Metrics finer than the fixed per-layer list (per-cell ratios).
    pub extra: Vec<Metric>,
    pub tally: Tally,
    /// Simulated-output renderings of the untraced reference runs, to
    /// compare against the timed phase.
    pub sim_key: Option<String>,
    /// `Instant`-measured time of the traced ops, against which the
    /// spans' layer self times are checked.
    wall_s: f64,
}

fn panic_text(p: &(dyn Any + Send)) -> &str {
    p.downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| p.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload")
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f))
        .unwrap_or_else(|p| Err(format!("panicked: {}", panic_text(&*p))))
}

/// Runs `f` with the panic hook silenced, as `virec-cli campaign` does:
/// crashed injections unwind through panics the campaign classifies.
fn quietly<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

fn run_job(job: &Job, opts: RunOptions) -> Result<RunResult, String> {
    let opts = RunOptions {
        fabric: job.fabric,
        ..opts
    };
    guarded(|| try_run_single(job.cfg, &job.workload, &opts).map_err(|e| e.to_string()))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A run's outcome checked against the golden digest it must end with.
fn checked(label: &str, golden: u64, r: Result<&RunResult, String>) -> Result<(), String> {
    match r {
        Ok(r) if r.arch_digest == golden => Ok(()),
        Ok(r) => Err(format!(
            "{label}: arch_digest {:#x} is not the golden {golden:#x}",
            r.arch_digest
        )),
        Err(e) => Err(format!("{label}: {e}")),
    }
}

fn check_job(job: &Job, r: &Result<RunResult, String>) -> Result<(), String> {
    checked(&job.label, job.golden, r.as_ref().map_err(Clone::clone))
}

/// Tallies single-core run results, each with its golden digest, into an
/// iteration.
fn runs_iter<'a>(
    host_s: f64,
    results: impl IntoIterator<Item = (&'a str, u64, Result<&'a RunResult, String>)>,
) -> Iter {
    let mut it = Iter {
        host_s,
        ..Iter::default()
    };
    let mut cycles = 0u64;
    for (label, golden, r) in results {
        match &r {
            Ok(r) => {
                cycles += r.cycles;
                let _ = write!(
                    it.sim_key,
                    "{label}:{:?};",
                    (r.cycles, r.stats, r.arch_digest)
                );
            }
            Err(_) => it.sim_key.push_str("failed;"),
        }
        it.tally.op(checked(label, golden, r));
    }
    // Single-core runs inject no faults, so no core leaves service.
    it.sim = sim_metrics(cycles, 1.0);
    it
}

/// The simulated end-to-end metrics every workload reports: its cycles
/// and the share of core capacity that stayed in service.
fn sim_metrics(cycles: u64, availability: f64) -> Vec<Metric> {
    vec![
        Metric::exact("sim_cycles", cycles as f64, "cycles", 1),
        Metric::exact("availability", availability, "ratio", 1),
    ]
}

/// Nearest-rank percentile of arrival-to-completion latency over every
/// submitted task, counting refused and failed tasks as infinitely late.
fn latency_percentile(outcomes: &[Option<TaskOutcome>], p: f64) -> f64 {
    let mut lat: Vec<f64> = outcomes
        .iter()
        .map(|o| match o {
            Some(TaskOutcome::Completed { latency, .. }) => *latency as f64,
            _ => f64::INFINITY,
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let rank = ((p * lat.len() as f64).ceil() as usize).clamp(1, lat.len().max(1));
    lat.get(rank - 1).copied().unwrap_or(f64::INFINITY)
}

fn serve_iter(
    host_s: f64,
    tasks: usize,
    served: Result<(ServeReport, Vec<Option<TaskOutcome>>), String>,
) -> Iter {
    let mut it = Iter {
        host_s,
        ..Iter::default()
    };
    let (rep, outcomes) = match served {
        Ok(s) => s,
        Err(e) => {
            it.tally.attempted = tasks;
            it.tally.failed = tasks;
            it.tally.incorrect.push(format!("serve: {e}"));
            return it;
        }
    };
    it.tally.attempted = rep.submitted;
    it.tally.failed = rep.rejected_queue_full + rep.rejected_quarantined + rep.failed + rep.lost;
    if rep.lost + rep.duplicated + rep.silent_corruptions > 0 {
        it.tally.incorrect.push(format!(
            "serve: lost={} duplicated={} silent_corruptions={}",
            rep.lost, rep.duplicated, rep.silent_corruptions
        ));
    }
    it.sim = sim_metrics(rep.cycles, rep.availability());
    for (name, p) in [("p50_cycles", 0.50), ("p95_cycles", 0.95)] {
        let value = latency_percentile(&outcomes, p);
        it.sim
            .push(Metric::exact(name, value, "cycles", outcomes.len()));
    }
    it.sim_key = format!(
        "{:?}",
        (
            rep.cycles,
            &rep.latencies,
            rep.completed,
            rep.failed,
            rep.retries,
            rep.failovers,
            rep.faults_corrected,
            rep.capacity_millicore_cycles,
            rep.fabric,
        )
    );
    it
}

fn campaign_iter(host_s: f64, injections: usize, report: Result<CampaignReport, String>) -> Iter {
    let mut it = Iter {
        host_s,
        ..Iter::default()
    };
    it.tally.attempted = injections;
    let rep = match report {
        Ok(r) => r,
        Err(e) => {
            it.tally.failed = injections;
            it.tally.incorrect.push(format!("campaign: {e}"));
            return it;
        }
    };
    let silent = rep.count(InjectionOutcome::Silent);
    it.tally.failed =
        silent + rep.count(InjectionOutcome::Crashed) + rep.count(InjectionOutcome::Detected);
    if silent > 0 {
        it.tally
            .incorrect
            .push(format!("campaign: {silent} silent corruptions"));
    }
    // The report carries the length of the clean reference run only, and
    // no capacity: the attacked runs' cores count as in service.
    it.sim = sim_metrics(rep.clean_cycles, 1.0);
    it.sim.push(Metric::exact(
        "recovery_rate",
        rep.recovery_rate(),
        "ratio",
        rep.records.len(),
    ));
    let outcomes: Vec<_> = rep
        .records
        .iter()
        .map(|r| (r.seed, r.outcome, r.replay_cycles))
        .collect();
    it.sim_key = format!("{:?}", (rep.clean_cycles, outcomes));
    it
}

fn serve_once(cfg: &ServeConfig, service: Option<Box<TaskService>>) -> (Iter, Option<ServeReport>) {
    let built = match service {
        Some(s) => Ok(s),
        None => TaskService::new(cfg.clone())
            .map(Box::new)
            .map_err(|e| e.to_string()),
    };
    let (served, host_s) = timed(|| {
        let mut svc = built?;
        let rep = guarded(|| svc.run().map_err(|e| e.to_string()))?;
        Ok((rep, svc.outcomes().to_vec()))
    });
    let kept = served.as_ref().ok().map(|(rep, _)| rep.clone());
    (serve_iter(host_s, cfg.tasks, served), kept)
}

fn campaign_once(job: &Job, injections: usize, base_seed: u64) -> (Iter, Option<CampaignReport>) {
    let (report, host_s) = timed(|| {
        quietly(|| {
            guarded(|| {
                Ok(run_campaign_with(
                    job.cfg,
                    &job.workload,
                    injections,
                    base_seed,
                    &FaultSite::ALL,
                    &CampaignOptions::protected(),
                ))
            })
        })
    });
    let kept = report.as_ref().ok().cloned();
    (campaign_iter(host_s, injections, report), kept)
}

/// The report of a workload timed only at its public boundary.
enum Boundary {
    Serve(Box<ServeReport>),
    Campaign(CampaignReport),
}

/// A workload, set up and ready to iterate.
pub struct Bench {
    pub spec: Spec,
    setup: Setup,
    /// The last serve or campaign iteration's host time and report. A
    /// boundary span brackets exactly that call, so the traced pass reuses
    /// it instead of serving or attacking once more.
    last: Option<(f64, Boundary)>,
}

impl Bench {
    pub fn new(spec: Spec, seed: u64) -> Bench {
        Bench {
            spec,
            setup: spec::setup(&spec, seed),
            last: None,
        }
    }

    /// Untimed work before the first timed iteration.
    pub fn warm_up(&mut self) -> Tally {
        let mut tally = Tally::default();
        for _ in 0..self.spec.warmup {
            tally.merge(self.iterate().tally);
        }
        if let Setup::Campaign(job, _) = &self.setup {
            tally.op(check_job(job, &run_job(job, RunOptions::default())));
        }
        tally
    }

    /// One timed iteration of the job list, tracing off.
    pub fn iterate(&mut self) -> Iter {
        match &mut self.setup {
            Setup::Runs(jobs) => {
                let (results, host_s) = timed(|| {
                    jobs.iter()
                        .map(|j| run_job(j, RunOptions::default()))
                        .collect::<Vec<_>>()
                });
                std::hint::black_box(&results);
                runs_iter(
                    host_s,
                    jobs.iter().zip(&results).map(|(j, r)| {
                        (j.label.as_str(), j.golden, r.as_ref().map_err(Clone::clone))
                    }),
                )
            }
            Setup::Sweep(_, spec, golden) => {
                let (res, host_s) = timed(|| Executor::new(1).run(spec));
                let failures: BTreeMap<String, String> = res.failures().into_iter().collect();
                runs_iter(
                    host_s,
                    spec.cells().iter().zip(golden.iter()).map(|(c, g)| {
                        let r = res.run(&c.key).ok_or_else(|| {
                            failures
                                .get(&c.key)
                                .cloned()
                                .unwrap_or_else(|| "no result".to_string())
                        });
                        (c.key.as_str(), *g, r)
                    }),
                )
            }
            Setup::Serve(cfg, first, _) => {
                let (it, rep) = serve_once(cfg, first.take());
                self.last = rep.map(|r| (it.host_s, Boundary::Serve(Box::new(r))));
                it
            }
            Setup::Campaign(job, base) => {
                let (it, rep) = campaign_once(job, self.spec.count, *base);
                self.last = rep.map(|r| (it.host_s, Boundary::Campaign(r)));
                it
            }
        }
    }

    /// The traced pass: one more iteration with every op bracketed per
    /// layer. Serve and campaign are bracketed only at their boundary, so
    /// their span is the last timed iteration when there was one.
    pub fn traced(&mut self, trace: &mut Trace) -> Traced {
        let wl = self.spec.kind.name();
        let mut t = Traced::default();
        match &mut self.setup {
            Setup::Runs(jobs) => {
                trace_jobs(wl, self.spec.kind, jobs, trace, &mut t);
            }
            Setup::Sweep(sweep, _, golden) => {
                let jobs = spec::sweep_jobs(sweep, golden);
                let untraced = trace_jobs(wl, self.spec.kind, &jobs, trace, &mut t);
                let cells = jobs.len() as f64;
                let fixed = ["image.build", "golden.digest", "golden.verify"]
                    .iter()
                    .map(|s| trace.total_ns(wl, s))
                    .sum::<f64>();
                t.layers.insert("sweep.ms_per_cell", untraced * 1e3 / cells);
                t.layers
                    .insert("sweep.fixed_ms_per_cell", fixed * 1e-6 / cells);
            }
            Setup::Serve(cfg, first, golden) => {
                let (host_s, rep) = match self.last.take() {
                    Some((s, Boundary::Serve(r))) => (s, Some(*r)),
                    _ => {
                        let (it, rep) = serve_once(cfg, first.take());
                        t.tally.merge(it.tally);
                        t.sim_key = Some(it.sim_key);
                        (it.host_s, rep)
                    }
                };
                trace_serve(wl, cfg, golden, host_s, rep, trace, &mut t);
            }
            Setup::Campaign(job, base) => {
                let (host_s, rep) = match self.last.take() {
                    Some((s, Boundary::Campaign(r))) => (s, Some(r)),
                    _ => {
                        let (it, rep) = campaign_once(job, self.spec.count, *base);
                        t.tally.merge(it.tally);
                        t.sim_key = Some(it.sim_key);
                        (it.host_s, rep)
                    }
                };
                let injections = self.spec.count;
                trace_campaign(wl, job, injections, host_s, rep, trace, &mut t);
            }
        }
        let attributed: f64 = trace.layer_self_ns(wl).values().sum();
        t.layers
            .insert("trace.attributed_share", ratio(attributed * 1e-9, t.wall_s));
        t
    }
}

/// Replays every job through the traced loop after an untraced reference
/// run of it, and derives the loop, core, engine, cache, fabric, golden
/// and image metrics from the spans. Returns the untraced runs' seconds.
fn trace_jobs(wl: &str, kind: Kind, jobs: &[Job], trace: &mut Trace, t: &mut Traced) -> f64 {
    let mut runs: Vec<(&Job, Replay, f64)> = Vec::new();
    let mut refs: Vec<(&Job, Result<RunResult, String>)> = Vec::new();
    for job in jobs {
        let (want, untraced_s) = timed(|| run_job(job, RunOptions::default()));
        let (got, replay_s) = timed(|| guarded(|| replay(job.cfg, &job.workload, job.fabric)));
        t.wall_s += replay_s;
        t.tally.op(got
            .as_ref()
            .map(|_| ())
            .map_err(|e| format!("{}: replay: {e}", job.label)));
        if let (Ok(want), Ok(got)) = (&want, got) {
            if (got.cycles, got.stats, got.arch_digest)
                != (want.cycles, want.stats, want.arch_digest)
            {
                t.tally.incorrect.push(format!(
                    "{}: the traced replay diverged from try_run_single \
                     (cycles {} vs {}, digest {:#x} vs {:#x})",
                    job.label, got.cycles, want.cycles, got.arch_digest, want.arch_digest
                ));
            }
            got.spans.record(trace, (wl, &job.label));
            runs.push((job, got, untraced_s));
        }
        refs.push((job, want));
    }
    let reference = runs_iter(
        0.0,
        refs.iter()
            .map(|(j, r)| (j.label.as_str(), j.golden, r.as_ref().map_err(Clone::clone))),
    );
    t.tally.merge(reference.tally);
    t.sim_key = Some(reference.sim_key);

    let m = &mut t.layers;
    let sum = |f: &dyn Fn(&Replay) -> u64| runs.iter().map(|(_, r, _)| f(r)).sum::<u64>() as f64;
    let secs = |name: &str| trace.total_ns(wl, name) * 1e-9;
    let steps = sum(&|r| r.steps());
    let cycles = sum(&|r| r.cycles);
    let run_s = secs("run");
    m.insert("loop.steps", steps);
    m.insert("loop.cycles_per_step", ratio(cycles, steps));
    m.insert("loop.fastpath_share", ratio(sum(&|r| r.fastpath), steps));
    m.insert("loop.next_event_s", secs("loop.next_event"));
    m.insert("loop.credit_s", secs("loop.credit"));
    m.insert("core.tick_s", secs("core.tick"));
    m.insert(
        "core.tick_ns_per_step",
        ratio(secs("core.tick") * 1e9, steps),
    );
    m.insert("core.tick_share", ratio(secs("core.tick"), run_s));
    let instr = sum(&|r| r.stats.instructions);
    m.insert("core.ipc", ratio(instr, cycles));
    for (name, stall) in [
        ("core.stall_mem_share", sum(&|r| r.stats.stall_mem)),
        (
            "core.stall_reg_fill_share",
            sum(&|r| r.stats.stall_reg_fill),
        ),
        ("core.stall_idle_share", sum(&|r| r.stats.stall_idle)),
        ("core.stall_fetch_share", sum(&|r| r.stats.stall_fetch)),
    ] {
        m.insert(name, ratio(stall, cycles));
    }
    let (hits, misses) = (sum(&|r| r.stats.rf_hits), sum(&|r| r.stats.rf_misses));
    m.insert(
        "engine.rf_hit_rate",
        if hits + misses == 0.0 {
            1.0
        } else {
            hits / (hits + misses)
        },
    );
    m.insert("engine.rf_misses", misses);
    m.insert("engine.rf_spills", sum(&|r| r.stats.rf_spills));
    m.insert(
        "engine.context_switches",
        sum(&|r| r.stats.context_switches),
    );
    let dhits = sum(&|r| r.stats.dcache.hits);
    m.insert(
        "dcache.hit_rate",
        ratio(dhits, dhits + sum(&|r| r.stats.dcache.misses)),
    );
    m.insert("dcache.mshr_stalls", sum(&|r| r.stats.dcache.mshr_stalls));
    let ihits = sum(&|r| r.stats.icache.hits);
    m.insert(
        "icache.hit_rate",
        ratio(ihits, ihits + sum(&|r| r.stats.icache.misses)),
    );
    m.insert("fabric.tick_s", secs("fabric.tick"));
    m.insert(
        "fabric.tick_ns_per_step",
        ratio(secs("fabric.tick") * 1e9, steps),
    );
    m.insert("noc.hops", sum(&|r| r.fabric.noc_hops));
    m.insert(
        "noc.retransmissions",
        sum(&|r| r.fabric.noc_retransmissions),
    );
    m.insert("noc.links_retired", sum(&|r| r.fabric.noc_links_retired));
    m.insert("fabric.scrub_reads", sum(&|r| r.fabric.scrub_reads));
    m.insert("golden.digest_s", secs("golden.digest"));
    m.insert("golden.verify_s", secs("golden.verify"));
    m.insert(
        "golden.share",
        ratio(secs("golden.digest") + secs("golden.verify"), run_s),
    );
    m.insert("image.build_s", secs("image.build"));

    // The context engine's host cost: virec against banked on each kernel
    // both ran.
    let (mut overhead, mut speed) = (Vec::new(), Vec::new());
    for (v, vr, vs) in runs
        .iter()
        .filter(|(j, _, _)| j.engine.starts_with("virec"))
    {
        let Some((_, br, bs)) = runs
            .iter()
            .find(|(j, _, _)| j.engine == "banked" && j.kernel == v.kernel)
        else {
            continue;
        };
        let ns_per_step = |r: &Replay| ratio(r.spans.core_tick.secs() * 1e9, r.steps() as f64);
        overhead.push(ns_per_step(vr) - ns_per_step(br));
        speed.push((vr.cycles as f64 / vs) / (br.cycles as f64 / bs));
    }
    if !overhead.is_empty() {
        m.insert(
            "engine.overhead_ns_per_step",
            overhead.iter().sum::<f64>() / overhead.len() as f64,
        );
        m.insert("engine.virec_over_banked_speed", geomean(&speed));
    }

    let untraced: f64 = runs.iter().map(|(_, _, s)| s).sum();
    m.insert("trace.overhead", ratio(run_s, untraced));

    if kind == Kind::ComputeNear {
        // Host speed of the event-driven loop over the dense loop, per
        // kernel and engine: the ratio of the dense run's time to the
        // event-driven run's, median of four pairs whose order alternates
        // (event first, then dense first), so that neither loop always
        // runs second.
        let mut worst = f64::INFINITY;
        for job in jobs {
            let mut ratios = Vec::new();
            for pair in 0..4 {
                let run = |dense_loop| {
                    let opts = RunOptions {
                        dense_loop,
                        ..RunOptions::default()
                    };
                    timed(|| run_job(job, opts))
                };
                let ((event, event_s), (dense, dense_s)) = if pair % 2 == 0 {
                    let event = run(false);
                    (event, run(true))
                } else {
                    let dense = run(true);
                    (run(false), dense)
                };
                t.tally.op(event.map(|_| ()));
                t.tally.op(dense.map(|_| ()));
                ratios.push(dense_s / event_s);
            }
            let name = format!("loop.event_over_dense.{}.{}", job.kernel, job.engine);
            let cell = Metric::sampled(&name, &ratios, "ratio");
            worst = worst.min(cell.value);
            t.extra.push(cell);
        }
        t.layers.insert("loop.event_over_dense", worst);
    }
    untraced
}

/// Records the service's boundary span (`host_s`, with its report), next
/// to a standalone run of each kernel of its mix under the same core and
/// fabric.
fn trace_serve(
    wl: &str,
    cfg: &ServeConfig,
    golden: &[u64],
    host_s: f64,
    rep: Option<ServeReport>,
    trace: &mut Trace,
    t: &mut Traced,
) {
    trace.add_ns((wl, "serve"), "serve.run", "serve", None, 1, host_s * 1e9);
    let host_ms_per_task = host_s * 1e3 / cfg.tasks as f64;
    let mut standalone = Vec::new();
    t.wall_s += host_s;
    for (&(ctor, n), &g) in cfg.mix.iter().zip(golden) {
        let w = ctor(n, virec_workloads::Layout::for_core(0));
        let job = Job::new(w, "virec", cfg.core, cfg.fabric, g);
        let t0 = ticks();
        let (r, s) = timed(|| run_job(&job, RunOptions::default()));
        let span = Acc {
            count: 1,
            ticks: ticks() - t0,
        };
        trace.add((wl, &job.label), "serve.standalone", "serve", None, span);
        t.tally.op(check_job(&job, &r));
        standalone.push(span.secs() * 1e3);
        t.wall_s += s;
    }
    let standalone_ms = standalone.iter().sum::<f64>() / standalone.len().max(1) as f64;

    let m = &mut t.layers;
    m.insert("serve.host_ms_per_task", host_ms_per_task);
    m.insert("serve.standalone_ms_per_task", standalone_ms);
    m.insert(
        "serve.overhead_ms_per_task",
        host_ms_per_task - standalone_ms,
    );
    if let Some(rep) = rep {
        m.insert("serve.retries", rep.retries as f64);
        m.insert(
            "serve.rejected",
            (rep.rejected_queue_full + rep.rejected_quarantined) as f64,
        );
        m.insert("noc.hops", rep.fabric.noc_hops as f64);
        m.insert("noc.retransmissions", rep.fabric.noc_retransmissions as f64);
        m.insert("noc.links_retired", rep.fabric.noc_links_retired as f64);
        m.insert("fabric.scrub_reads", rep.fabric.scrub_reads as f64);
    }
    // A boundary span puts no instrumentation inside the call.
    m.insert("trace.overhead", 1.0);
}

/// Records the campaign's boundary span (`host_s`, with its report), then
/// measures the checkpoint ring on a fault-free protected run against the
/// same run without checkpoints.
fn trace_campaign(
    wl: &str,
    job: &Job,
    injections: usize,
    host_s: f64,
    rep: Option<CampaignReport>,
    trace: &mut Trace,
    t: &mut Traced,
) {
    trace.add_ns(
        (wl, "campaign"),
        "campaign.run",
        "fault",
        None,
        1,
        host_s * 1e9,
    );
    t.wall_s += host_s;
    let m = &mut t.layers;
    m.insert("campaign.s_per_injection", host_s / injections as f64);
    if let Some(rep) = rep {
        let count = |o| rep.count(o) as f64;
        m.insert("campaign.corrected", count(InjectionOutcome::Corrected));
        m.insert(
            "campaign.ckpt_recovered",
            count(InjectionOutcome::CheckpointRecovered),
        );
        m.insert("campaign.recovered", count(InjectionOutcome::Recovered));
        m.insert("campaign.crashed", count(InjectionOutcome::Crashed));
        m.insert(
            "campaign.mean_replay_cycles",
            rep.mean_replay_cycles().unwrap_or(0.0),
        );
    }
    // A boundary span puts no instrumentation inside the call.
    m.insert("trace.overhead", 1.0);

    let protected = |checkpoint_interval| RunOptions {
        protection: ProtectionConfig::secded(),
        checkpoint_interval,
        ..RunOptions::default()
    };
    let wall = &mut t.wall_s;
    let mut ring = |name: &'static str, opts: RunOptions| {
        let t0 = ticks();
        let (r, s) = timed(|| run_job(job, opts));
        let span = Acc {
            count: 1,
            ticks: ticks() - t0,
        };
        trace.add((wl, "ckpt"), name, "ckpt", None, span);
        *wall += s;
        (r, span.secs())
    };
    let (with, with_s) = ring("ckpt.run", protected(default_checkpoint_interval()));
    let (without, without_s) = ring("ckpt.baseline", protected(0));
    t.tally.op(check_job(job, &without));
    t.tally.op(check_job(job, &with));
    if let Ok(r) = with {
        let clone_ns = r.checkpoint_clone_ns as f64;
        trace.add_ns(
            (wl, "ckpt"),
            "ckpt.clone",
            "ckpt",
            Some("ckpt.run"),
            1,
            clone_ns,
        );
        m.insert("ckpt.clone_s", clone_ns * 1e-9);
        m.insert("ckpt.clone_share", ratio(clone_ns * 1e-9, with_s));
        m.insert("ckpt.taken", r.ecc.checkpoints_taken as f64);
    }
    m.insert("ckpt.overhead", ratio(with_s, without_s));
}
