//! `virec-cli` — run ViReC simulations from the command line.
//!
//! ```text
//! virec-cli list
//! virec-cli run --workload gather --n 4096 --engine virec --threads 8 --regs 52
//! virec-cli run --workload spmv --engine banked --threads 4
//! virec-cli sweep --jobs 4 --workloads gather,spmv --engines banked,virec40,virec80
//! virec-cli area --threads 8 --regs 64
//! ```
//!
//! Every command declares the flags it accepts in [`COMMANDS`]; the usage
//! text is generated from those declarations, and a flag the command does
//! not declare is a usage error.

use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use virec::area::AreaModel;
use virec::bench::harness::{self, EngineSel, SuiteSweep, SweepControl};
use virec::bench::tune::{pareto_front, pick_for_area, tune_sweep, TuneConfig};
use virec::cc::{regalloc, AllocStrategy};
use virec::core::{CoreConfig, EngineKind, PolicyKind};
use virec::mem::{FabricConfig, FabricTopology};
use virec::sim::experiment::RetryPolicy;
use virec::sim::runner::default_checkpoint_interval;
use virec::sim::runner::{try_run_prefetch_exact, try_run_single, RunOptions};
use virec::sim::{
    parse_sites, run_campaign_with, run_service, CampaignOptions, FaultClass, FaultPlan, FaultSite,
    InjectionOutcome, ProtectionConfig, RasConfig, ServeConfig, ServeFaultPlan, ServeReport,
    SimError,
};
use virec::verify::{
    broken_fixture, broken_spill_report, lint_everything, lint_program, tv_compiled_budgets,
    LintConfig,
};
use virec::workloads::{by_name, suite_names, Layout, Workload, SUITE};

/// A subcommand: its name, the flags it accepts and its body. The flags
/// are declared as they read in the usage text: `--flag <value>` takes a
/// value, a bare `--flag` is boolean, and brackets mark a flag optional.
struct Command {
    name: &'static str,
    flags: &'static str,
    run: fn(&Flags) -> Result<ExitCode, CliError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "list",
        flags: "",
        run: cmd_list,
    },
    Command {
        name: "run",
        flags: "--workload <name> [--n <elems>] [--engine <e>] [--threads <t>] [--regs <r>] \
                [--policy <p>] [--no-verify] [--group-evict <g>] [--switch-prefetch] \
                [--max-cycles <c>] [--topology crossbar|mesh<C>x<R>]",
        run: cmd_run,
    },
    Command {
        name: "sweep",
        flags: "[--jobs <j>] [--workloads <w1,w2,..>] [--n <elems>] [--threads <t>] \
                [--engines <e1,e2,..>] [--json <dir>] [--max-retries <k>] \
                [--budget-retries <k>] [--budget-factor <f>] [--budget-cap <c>] [--resume] \
                [--deadline <ms>]",
        run: cmd_sweep,
    },
    Command {
        name: "campaign",
        flags: "[--workload <name>] [--n <elems>] [--engine virec|banked] [--threads <t>] \
                [--regs <r>] [--faults <k>] [--seed <s>] [--protection none|parity|secded] \
                [--multi-fault] [--sites <s1,s2,..>] [--topology crossbar|mesh<C>x<R>] \
                [--fault-class transient|intermittent|stuck-at]",
        run: cmd_campaign,
    },
    Command {
        name: "ras",
        flags: "[--workload <name>] [--n <elems>] [--engine virec|banked] [--threads <t>] \
                [--regs <r>] [--faults <k>] [--seed <s>] [--fault-class intermittent|stuck-at] \
                [--scrub-interval <c>] [--ce-leak-interval <c>] [--spare-rows <k>] \
                [--spare-ways <k>] [--ce-threshold <k>] [--protection parity|secded]",
        run: cmd_ras,
    },
    Command {
        name: "serve",
        flags: "[--cores <c>] [--tasks <k>] [--rate <tasks/Mcycle>] [--engine virec|banked] \
                [--threads <t>] [--regs <r>] [--n <elems>] [--queue-depth <d>] \
                [--deadline <cycles>] [--quarantine-after <k>] \
                [--protection none|parity|secded] [--faults <k>] [--sticky-cores <k>] \
                [--stuck-cores <k>] [--spare-rows <k>] [--seed <s>] [--no-verify] \
                [--topology crossbar|mesh<C>x<R>] [--link-faults <k>]",
        run: cmd_serve,
    },
    Command {
        name: "noc",
        flags: "[--workload <name>] [--n <elems>] [--threads <t>] [--faults <k>] [--seed <s>] \
                [--topology mesh<C>x<R>]",
        run: cmd_noc,
    },
    Command {
        name: "lint",
        flags: "[--n <elems>] [--broken-fixture]",
        run: cmd_lint,
    },
    Command {
        name: "tv",
        flags: "[--broken-fixture]",
        run: cmd_tv,
    },
    Command {
        name: "tune",
        flags: "[--n <elems>] [--threads <t>] [--strategy graph|linear] [--budgets <b1,b2,..>] \
                [--capacities <c1,c2,..>] [--area-budget <mm2>]",
        run: cmd_tune,
    },
    Command {
        name: "area",
        flags: "[--threads <t>] [--regs <r>]",
        run: cmd_area,
    },
];

impl Command {
    /// The declared flags, one usage fragment each (`[--n <elems>]`): a
    /// word that does not open a flag is the previous flag's placeholder.
    fn fragments(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for word in self.flags.split_whitespace() {
            match out.last_mut() {
                Some(last) if !word.starts_with('[') && !word.starts_with("--") => {
                    *last += " ";
                    *last += word;
                }
                _ => out.push(word.to_string()),
            }
        }
        out
    }

    /// Whether `--key` is declared, and if so whether it takes a value.
    fn flag(&self, key: &str) -> Option<bool> {
        self.fragments().iter().find_map(|frag| {
            let frag = frag.trim_start_matches('[').trim_end_matches(']');
            let (name, value) = frag
                .split_once(' ')
                .map_or((frag, false), |(n, _)| (n, true));
            (name.strip_prefix("--") == Some(key)).then_some(value)
        })
    }
}

const USAGE_NOTES: &str = "
ENGINES:  virec (default) | banked | software | prefetch_full | prefetch_exact | nsf
POLICIES: lrc (default) | mrt-plru | plru | lru | mrt-lru | fifo | random
SWEEP ENGINES: banked | software | virec<pct> | nsf<pct> | pf_full | pf_exact
    (e.g. virec80; the first engine is the normalization baseline)

Sweeps journal completed cells to <json-dir>/<name>.journal.jsonl. An
interrupted sweep (Ctrl-C, or a cell hitting --deadline is just a FAILED
row) exits 130; re-run the same command with --resume to replay journaled
cells and execute only the remainder.";

/// The usage text, one wrapped line group per command in [`COMMANDS`].
fn usage() -> String {
    let mut out = "virec-cli — ViReC near-memory multithreading simulator\n\nUSAGE:\n".to_string();
    for c in COMMANDS {
        let mut line = format!("    virec-cli {:<8}", c.name);
        for frag in c.fragments() {
            if line.len() + frag.len() >= 80 {
                out += &line;
                out.push('\n');
                line = " ".repeat(22);
            }
            line += " ";
            line += &frag;
        }
        out += line.trim_end();
        out.push('\n');
    }
    out + USAGE_NOTES
}

/// A failed command: its exit code and the one `error…: …` line `main`
/// prints for it.
struct CliError(u8, String);

impl CliError {
    /// A bad invocation: `error: …`, exit 2.
    fn usage(msg: impl Display) -> CliError {
        CliError(2, format!("error: {msg}"))
    }

    /// A run that went wrong: `error[kind]: …`, exit 1.
    fn fail(kind: &str, msg: impl Display) -> CliError {
        CliError(1, format!("error[{kind}]: {msg}"))
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> CliError {
        CliError::fail(e.kind(), e)
    }
}

/// The flags one invocation passed, each checked against its command's
/// declarations.
struct Flags {
    cmd: &'static str,
    vals: HashMap<String, String>,
}

impl Flags {
    fn parse(cmd: &Command, args: &[String]) -> Result<Flags, CliError> {
        let mut vals = HashMap::new();
        let mut args = args.iter();
        while let Some(a) = args.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(CliError::usage(format!("unexpected argument {a:?}")));
            };
            let Some(takes_value) = cmd.flag(key) else {
                return Err(CliError::usage(format!(
                    "unknown flag --{key} for {}",
                    cmd.name
                )));
            };
            let val = if takes_value {
                args.next()
                    .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?
                    .clone()
            } else {
                String::new()
            };
            vals.insert(key.to_string(), val);
        }
        Ok(Flags {
            cmd: cmd.name,
            vals,
        })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.vals.get(key).map(String::as_str)
    }

    fn has(&self, key: &str) -> bool {
        self.vals.contains_key(key)
    }

    /// `--key` parsed as `T`, if given.
    fn opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|s| {
                s.parse()
                    .map_err(|_| CliError::usage(format!("invalid --{key}")))
            })
            .transpose()
    }

    /// `--key` parsed as `T`, or `default` when absent.
    fn num<T: FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// [`Flags::num`] for a value that must be positive.
    fn pos<T: FromStr + PartialOrd + Default>(&self, key: &str, default: T) -> Result<T, CliError> {
        let v = self.num(key, default)?;
        if v > T::default() {
            Ok(v)
        } else {
            Err(CliError::usage(format!("invalid --{key}")))
        }
    }

    /// `--key` (or `default`) through `T`'s own parser, keeping its message.
    fn parsed<T: FromStr<Err = String>>(&self, key: &str, default: &str) -> Result<T, CliError> {
        self.get(key)
            .unwrap_or(default)
            .parse()
            .map_err(|e| CliError::usage(format!("--{key}: {e}")))
    }

    /// A comma-separated `--key` list, or `default` when absent.
    fn list(&self, key: &str, default: Vec<usize>) -> Result<Vec<usize>, CliError> {
        self.get(key).map_or(Ok(default), |s| {
            s.split(',')
                .map(|p| p.trim().parse())
                .collect::<Result<_, _>>()
                .map_err(|_| CliError::usage(format!("invalid --{key}")))
        })
    }
}

/// A suite workload by name, at `n` elements on core 0.
fn workload(name: &str, n: u64) -> Result<Workload, CliError> {
    by_name(name, n, Layout::for_core(0))
        .ok_or_else(|| CliError::usage(format!("unknown workload {name:?}; see `virec-cli list`")))
}

/// The shared `--topology` flag (crossbar when absent).
fn fabric(f: &Flags) -> Result<FabricConfig, CliError> {
    Ok(FabricConfig {
        topology: f.parsed("topology", "crossbar")?,
        ..FabricConfig::default()
    })
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    Some(match s.to_ascii_lowercase().as_str() {
        "lrc" => PolicyKind::Lrc,
        "mrt-plru" | "mrtplru" => PolicyKind::MrtPlru,
        "plru" => PolicyKind::Plru,
        "lru" => PolicyKind::Lru,
        "mrt-lru" | "mrtlru" => PolicyKind::MrtLru,
        "fifo" => PolicyKind::Fifo,
        "random" => PolicyKind::Random,
        _ => return None,
    })
}

/// Every `--engine` spelling `run` accepts.
const ENGINES: &[&str] = &[
    "virec",
    "banked",
    "software",
    "prefetch_full",
    "prefetch_exact",
    "nsf",
];

/// The engines the fault-injection commands model fault sites for.
const FAULT_ENGINES: &[&str] = &["virec", "banked"];

/// A resolved `--engine`: its spelling, RF size and core config.
struct Engine<'a> {
    name: &'a str,
    regs: usize,
    cfg: CoreConfig,
}

impl Engine<'_> {
    /// Resolves `--engine` (default virec) and `--regs` (default: every
    /// thread's active context of `w`, at least 12) for `threads` threads,
    /// refusing a spelling outside `accepted`.
    fn resolve<'a>(
        f: &'a Flags,
        accepted: &[&str],
        threads: usize,
        w: &Workload,
    ) -> Result<Engine<'a>, CliError> {
        let name = f.get("engine").unwrap_or("virec");
        let ctx = w.active_context_size();
        let regs = f.pos("regs", (threads * ctx).max(12))?;
        let cfg = match name {
            "virec" => CoreConfig::virec(threads, regs),
            "banked" => CoreConfig::banked(threads),
            "software" => CoreConfig::software(threads),
            "prefetch_full" => CoreConfig::prefetch_full(threads, ctx),
            "prefetch_exact" => CoreConfig::prefetch_exact(threads, ctx),
            "nsf" => CoreConfig::nsf(threads, regs),
            _ => return Err(CliError::usage(format!("unknown engine {name:?}"))),
        };
        if !accepted.contains(&name) {
            return Err(CliError::usage(format!(
                "{} supports {}, not {name:?}",
                f.cmd,
                accepted.join("|")
            )));
        }
        Ok(Engine { name, regs, cfg })
    }

    /// The fault sites this (virec or banked) core has, for transient or
    /// for persistent fault classes.
    fn sites(&self, persistent: bool) -> &'static [FaultSite] {
        match (self.name == "virec", persistent) {
            (true, false) => &FaultSite::ALL,
            (false, false) => &FaultSite::NON_VRMU,
            (true, true) => &FaultSite::PERMANENT,
            (false, true) => &FaultSite::PERMANENT_NON_VRMU,
        }
    }
}

const DEFAULT_SEED: u64 = 0xF00D_5EED;

/// The flags the fault-injection commands share, with per-command defaults
/// for `--n` and `--faults`.
struct FaultArgs<'a> {
    name: &'a str,
    w: Workload,
    n: u64,
    threads: usize,
    faults: usize,
    seed: u64,
}

impl FaultArgs<'_> {
    fn parse(f: &Flags, n: u64, faults: usize) -> Result<FaultArgs<'_>, CliError> {
        let name = f.get("workload").unwrap_or("gather");
        let n = f.pos("n", n)?;
        Ok(FaultArgs {
            name,
            w: workload(name, n)?,
            n,
            threads: f.pos("threads", 4)?,
            faults: f.pos("faults", faults)?,
            seed: f.num("seed", DEFAULT_SEED)?,
        })
    }
}

fn cmd_list(_: &Flags) -> Result<ExitCode, CliError> {
    println!("available workloads:");
    for (name, ctor) in SUITE {
        let w = ctor(64, Layout::for_core(0));
        println!(
            "  {name:<15} active context = {:>2} registers, {} static instrs",
            w.active_context_size(),
            w.program().len()
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(f: &Flags) -> Result<ExitCode, CliError> {
    let wname = f
        .get("workload")
        .ok_or_else(|| CliError::usage("--workload is required (see `virec-cli list`)"))?;
    let n = f.pos("n", 4096)?;
    let threads = f.pos("threads", 8)?;
    let w = workload(wname, n)?;
    let engine = Engine::resolve(f, ENGINES, threads, &w)?;
    let mut cfg = engine.cfg;
    if let Some(p) = f.get("policy") {
        cfg.policy =
            parse_policy(p).ok_or_else(|| CliError::usage(format!("unknown policy {p:?}")))?;
    }
    cfg.group_evict = f.num("group-evict", cfg.group_evict)?;
    cfg.switch_prefetch |= f.has("switch-prefetch");
    cfg.max_cycles = f.num("max-cycles", cfg.max_cycles)?;
    let opts = RunOptions {
        verify: !f.has("no-verify"),
        fabric: fabric(f)?,
        ..RunOptions::default()
    };

    let result = if cfg.engine == EngineKind::PrefetchExact {
        try_run_prefetch_exact(threads, w.active_context_size(), &w, opts.fabric)
    } else {
        try_run_single(cfg, &w, &opts)
    }?;
    println!("workload          : {} (n={n})", w.name);
    println!(
        "engine            : {}, {threads} threads, {} regs, policy {:?}",
        engine.name, engine.regs, cfg.policy
    );
    print!("{}", result.stats.report());
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli sweep` — a workloads × engines grid on the harness's sweep
/// path. Tables and JSON are byte-identical for any `--jobs`; a failed cell
/// degrades to a FAILED row without aborting its siblings, but does fail
/// the exit status (for CI smoke use).
fn cmd_sweep(f: &Flags) -> Result<ExitCode, CliError> {
    // Workers, results dir, resume and deadline come from the environment
    // too; explicit flags win.
    let mut ctl = SweepControl::from_env_and_args();
    ctl.jobs = f.pos("jobs", ctl.jobs)?;
    if let Some(dir) = f.get("json") {
        ctl.results = Some(dir.into());
    }
    ctl.resume |= f.has("resume");
    ctl.deadline_ms = f.num("deadline", ctl.deadline_ms)?;
    let workloads = match f.get("workloads") {
        None => suite_names().iter().map(|s| s.to_string()).collect(),
        Some(list) => list
            .split(',')
            .map(|name| workload(name, 64).map(|_| name.to_string()))
            .collect::<Result<_, _>>()?,
    };
    let engines = f
        .get("engines")
        .unwrap_or("banked,virec40,virec80")
        .split(',')
        .map(|s| {
            EngineSel::parse(s)
                .ok_or_else(|| CliError::usage(format!("unknown sweep engine {s:?} (see usage)")))
        })
        .collect::<Result<_, _>>()?;
    let d = RetryPolicy::default();
    // `--budget-retries` is the pre-generalization spelling of
    // `--max-retries`, kept so existing scripts stay valid.
    let retries = ["max-retries", "budget-retries"]
        .into_iter()
        .find(|k| f.has(k))
        .unwrap_or("max-retries");
    let sweep = SuiteSweep {
        name: "sweep".into(),
        workloads,
        engines,
        n: f.pos("n", 1024)?,
        threads: f.pos("threads", 8)?,
        retry: RetryPolicy {
            max_retries: f.num(retries, d.max_retries)?,
            budget_factor: f.pos("budget-factor", d.budget_factor)?,
            scale_cap: f.pos("budget-cap", d.scale_cap)?,
        },
    };
    let res = harness::run_spec_controlled(&sweep.spec(), &ctl);
    print!("{}", sweep.render(&res));
    res.print_failures();
    status(res.all_ok())
}

fn cmd_campaign(f: &Flags) -> Result<ExitCode, CliError> {
    let a = FaultArgs::parse(f, 1024, 64)?;
    let engine = Engine::resolve(f, FAULT_ENGINES, a.threads, &a.w)?;
    let fabric = fabric(f)?;
    let mesh = fabric.topology != FabricTopology::Crossbar;
    // --sites narrows the injection surface; sites the chosen engine does
    // not have (VRMU structures on banked) are rejected, not ignored. The
    // transport site exists on any engine — but only when the fabric has
    // links to corrupt.
    let engine_sites = engine.sites(false);
    let sites = match f.get("sites") {
        None => engine_sites.to_vec(),
        Some(list) => parse_sites(list).map_err(|e| CliError::usage(format!("--sites: {e}")))?,
    };
    let exists = |s: &&FaultSite| engine_sites.contains(s) || (**s == FaultSite::NocLink && mesh);
    if let Some(bad) = sites.iter().find(|s| !exists(s)) {
        return Err(CliError::usage(if *bad == FaultSite::NocLink {
            "site noc-link needs a mesh fabric (pass --topology mesh<C>x<R>)".to_string()
        } else {
            format!("site {bad} does not exist on the {} engine", engine.name)
        }));
    }
    let protection: ProtectionConfig = f.parsed("protection", "none")?;
    let class: FaultClass = f.parsed("fault-class", "transient")?;
    let campaign = CampaignOptions {
        protection,
        multi_fault: f.has("multi-fault"),
        // Mid-run recovery only makes sense with a detector in front of it.
        checkpoint_interval: if protection.is_none() {
            0
        } else {
            default_checkpoint_interval()
        },
        class,
        // Persistent defects are only survivable with the RAS layer; a
        // transient campaign keeps the historical no-RAS machine.
        ras: class.is_persistent().then(RasConfig::default),
        fabric,
    };

    // Crashed outcomes unwind through a panic; keep the report as the
    // only output.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_campaign_with(engine.cfg, &a.w, a.faults, a.seed, &sites, &campaign)
    }));
    std::panic::set_hook(prev);
    let report =
        report.map_err(|_| CliError::fail("campaign", "the clean reference run failed"))?;
    println!("{}", report.summary());
    if class.is_persistent() {
        println!("{}", report.ras_summary());
    }
    for rec in &report.records {
        let what = match rec.outcome {
            InjectionOutcome::Silent => "SILENT escape",
            InjectionOutcome::Detected => "unrecovered detection",
            _ => continue,
        };
        println!("  {what}: seed {} faults {:?}", rec.seed, rec.faults);
    }
    if !report.all_detected() {
        return Err(CliError::fail(
            "silent_fault",
            "an effectful fault escaped every checker",
        ));
    }
    if !report.all_recovered() {
        return Err(CliError::fail(
            "unrecovered",
            "a detected injection did not recover on re-execution",
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs `opts` against a clean reference run of the same core, so a
/// degraded run can be checked against the clean digest.
fn clean_reference(
    cfg: CoreConfig,
    w: &Workload,
    opts: &RunOptions,
) -> Result<virec::sim::RunResult, CliError> {
    try_run_single(cfg, w, opts)
        .map_err(|e| CliError::fail(e.kind(), format!("clean reference run failed: {e}")))
}

/// `virec-cli ras` — one protected run under a seeded persistent-fault
/// plan with the RAS layer on, reporting what the scrubber, CE tracker,
/// and spare pools did. A clean reference run sizes the injection window
/// and provides the digest the degraded machine must still reproduce.
fn cmd_ras(f: &Flags) -> Result<ExitCode, CliError> {
    let a = FaultArgs::parse(f, 1024, 8)?;
    let engine = Engine::resolve(f, FAULT_ENGINES, a.threads, &a.w)?;
    let class: FaultClass = f.parsed("fault-class", "stuck-at")?;
    if !class.is_persistent() {
        return Err(CliError::usage(
            "the ras demo wants a persistent class (intermittent or stuck-at)",
        ));
    }
    let d = RasConfig::default();
    let rc = RasConfig {
        scrub_interval: f.num("scrub-interval", d.scrub_interval)?,
        ce_leak_interval: f.num("ce-leak-interval", d.ce_leak_interval)?,
        spare_rows: f.num("spare-rows", d.spare_rows)?,
        spare_ways: f.num("spare-ways", d.spare_ways)?,
        ce_threshold: f.num("ce-threshold", d.ce_threshold)?,
        ..d
    };
    // RAS needs a detector in front of it: default to SEC-DED.
    let protection: ProtectionConfig = f.parsed("protection", "secded")?;

    let clean = clean_reference(engine.cfg, &a.w, &RunOptions::default())?;
    let opts = RunOptions {
        faults: FaultPlan::seeded_class(
            a.seed,
            a.faults,
            (0, clean.cycles),
            engine.sites(true),
            class,
        ),
        protection,
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(rc),
        ..RunOptions::default()
    };
    let r = try_run_single(engine.cfg, &a.w, &opts)?;

    println!(
        "ras demo          : {} on {} (n={}), {} {class} fault(s), seed {:#x}",
        engine.name, a.name, a.n, a.faults, a.seed
    );
    println!(
        "cycles            : clean {} vs ras {} ({:+.1}%)",
        clean.cycles,
        r.cycles,
        100.0 * (r.cycles as f64 / clean.cycles as f64 - 1.0)
    );
    println!("scrub reads       : {}", r.ras.scrub_reads);
    println!("ce observations   : {}", r.ras.ce_observations);
    println!(
        "retirements       : {} predictive, {} demand",
        r.ras.predictive_retirements, r.ras.demand_retirements
    );
    println!(
        "degraded regions  : {} (spares exhausted or unmaskable)",
        r.ras.degraded_regions
    );
    println!("migrated lines    : {}", r.ras.migrated_lines);
    println!("suppressed asserts: {}", r.ras.suppressed_assertions);
    for f in &r.faults_applied {
        println!("  {f}");
    }
    if r.arch_digest != clean.arch_digest {
        return Err(CliError::fail(
            "silent_fault",
            "degraded run diverged from the clean digest",
        ));
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );
    Ok(ExitCode::SUCCESS)
}

/// Prints a serve report; lost, duplicated or silently corrupt tasks are
/// an accounting failure.
fn serve_accounting(report: &ServeReport) -> Result<ExitCode, CliError> {
    println!("{}", report.summary());
    if let Some(f) = &report.last_failure {
        eprintln!("[serve] last attempt failure: {f}");
    }
    if report.lost > 0 || report.duplicated > 0 || report.silent_corruptions > 0 {
        return Err(CliError::fail(
            "accounting",
            format!(
                "lost={} duplicated={} silent_corruptions={}",
                report.lost, report.duplicated, report.silent_corruptions
            ),
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// `virec-cli serve` — the fault-tolerant streaming task service: a seeded
/// arrival process dispatched onto a multi-core system through the bounded
/// admission queue, with retry, quarantine/failover, and typed shedding.
/// Exits nonzero when any task is lost, any task resolves twice, or any
/// completed task's state digest disagrees with the golden reference.
fn cmd_serve(f: &Flags) -> Result<ExitCode, CliError> {
    let threads = f.pos("threads", 4)?;
    let n = f.pos("n", 64)?;
    let engine = Engine::resolve(f, FAULT_ENGINES, threads, &workload("gather", n)?)?;
    let mut cfg = ServeConfig::streaming(
        f.pos("cores", 4)?,
        engine.cfg,
        f.pos("tasks", 128)?,
        f.num("seed", DEFAULT_SEED)?,
    );
    cfg.mix = virec::sim::serve::default_mix(n);
    cfg.verify = !f.has("no-verify");
    cfg.fabric = fabric(f)?;
    // --rate is in tasks per million cycles; the service wants the mean
    // inter-arrival gap in cycles.
    if f.has("rate") {
        cfg.mean_interarrival = ((1.0e6 / f.pos("rate", 0.0)?) as u64).max(1);
    }
    cfg.queue_depth = f.num("queue-depth", cfg.queue_depth)?;
    cfg.deadline_cycles = f.num("deadline", cfg.deadline_cycles)?;
    cfg.quarantine_after = f.num("quarantine-after", cfg.quarantine_after)?;
    cfg.protection = f.parsed("protection", "none")?;
    let link_faults = f.num("link-faults", 0)?;
    if link_faults > 0 && cfg.fabric.topology == FabricTopology::Crossbar {
        return Err(CliError::usage(
            "--link-faults needs a mesh fabric (pass --topology mesh<C>x<R>)",
        ));
    }
    cfg.faults = ServeFaultPlan {
        stuck_cores: f.num("stuck-cores", 0)?,
        link_faults,
        ..ServeFaultPlan::campaign(f.num("faults", 0)?, f.num("sticky-cores", 0)?)
    };
    let d = RasConfig::default();
    let rc = RasConfig {
        spare_rows: f.num("spare-rows", d.spare_rows)?,
        ..d
    };
    if cfg.faults.stuck_cores > 0 {
        // Stuck-at defects are only survivable with the RAS layer on.
        cfg.ras = Some(rc);
    }
    serve_accounting(&run_service(cfg)?)
}

/// `virec-cli noc` — the mesh-NoC resilience demo, four legs on one mesh:
/// a transient `noc-link` campaign (every wire upset CRC-caught and
/// retransmitted), a stuck-at campaign (the RAS layer predictively retires
/// the flaky link and routes around it), one instrumented single run
/// reporting the fabric's transport counters, and a faulty serve run whose
/// link loss shows up in availability while no task is lost.
fn cmd_noc(f: &Flags) -> Result<ExitCode, CliError> {
    let a = FaultArgs::parse(f, 512, 32)?;
    let mut fabric = fabric(f)?;
    if fabric.topology == FabricTopology::Crossbar {
        fabric.topology = FabricTopology::Mesh { cols: 2, rows: 2 };
    }
    // noc takes neither --engine nor --regs: virec at the default RF size.
    let cfg = Engine::resolve(f, &["virec"], a.threads, &a.w)?.cfg;
    let sites = [FaultSite::NocLink];
    println!(
        "noc demo          : virec on {} (n={}), {} fabric, seed {:#x}",
        a.name, a.n, fabric.topology, a.seed
    );

    // Leg 1 — transient wire upsets: the per-hop CRC catches every one and
    // the retransmission delivers a clean flit; no checker ever fires.
    let transient = CampaignOptions {
        fabric,
        ..CampaignOptions::default()
    };
    let report = run_campaign_with(cfg, &a.w, a.faults, a.seed, &sites, &transient);
    println!("{}", report.summary());
    if !report.all_detected() || !report.all_recovered() {
        return Err(CliError::fail(
            "noc",
            "a transient link upset escaped the CRC layer",
        ));
    }

    // Leg 2 — stuck-at links under the full RAS stack: the CE leaky bucket
    // retires the marginal link before it can do worse.
    let stuck = CampaignOptions {
        class: FaultClass::StuckAt {
            period: FaultClass::DEFAULT_PERIOD,
        },
        ras: Some(RasConfig::default()),
        fabric,
        ..CampaignOptions::protected()
    };
    let report = run_campaign_with(cfg, &a.w, a.faults, a.seed, &sites, &stuck);
    println!("{}", report.summary());
    println!("{}", report.ras_summary());
    if !report.all_detected() || !report.all_recovered() {
        return Err(CliError::fail(
            "noc",
            "a stuck-at link fault was not contained",
        ));
    }

    // Leg 3 — one instrumented run: hammer the first mesh link with a
    // stuck-at defect and report exactly what the transport layer did.
    let clean_opts = RunOptions {
        fabric,
        ..RunOptions::default()
    };
    let clean = clean_reference(cfg, &a.w, &clean_opts)?;
    let opts = RunOptions {
        faults: FaultPlan::single(virec::sim::FaultEvent {
            cycle: (clean.cycles / 4).max(1),
            site: FaultSite::NocLink,
            index: 0,
            bit: 0,
            class: FaultClass::StuckAt { period: 200 },
        }),
        protection: ProtectionConfig::secded(),
        checkpoint_interval: default_checkpoint_interval(),
        ras: Some(RasConfig::default()),
        fabric,
        ..RunOptions::default()
    };
    let r = try_run_single(cfg, &a.w, &opts)?;
    println!(
        "noc: hops={} crc_detected={} retransmissions={} links_retired={} links_fenced={}",
        r.fabric.noc_hops,
        r.fabric.noc_crc_detected,
        r.fabric.noc_retransmissions,
        r.fabric.noc_links_retired,
        r.fabric.noc_links_fenced,
    );
    for f in &r.faults_applied {
        println!("  {f}");
    }
    if r.arch_digest != clean.arch_digest {
        return Err(CliError::fail(
            "silent_fault",
            "the degraded mesh diverged from the clean digest",
        ));
    }
    println!(
        "arch digest       : {:#018x} (matches clean run)",
        r.arch_digest
    );

    // Leg 4 — the streaming service on the same mesh under a link-wear
    // campaign: capacity shrinks with the lost links, accounting stays
    // exact.
    let mut scfg = ServeConfig::streaming(4, CoreConfig::banked(2), 32, a.seed);
    scfg.mix = virec::sim::serve::default_mix(a.n.min(64));
    scfg.fabric = fabric;
    scfg.faults = ServeFaultPlan::links(9);
    scfg.ras = Some(RasConfig::default());
    serve_accounting(&run_service(scfg)?)
}

/// `virec-cli lint` — the static-analysis gate: every built-in workload
/// kernel and every `virec-cc` output at every register budget must lint
/// clean. `--broken-fixture` lints a deliberately malformed program instead
/// (the CI negative control: it must exit nonzero with a stable
/// diagnostic).
fn cmd_lint(f: &Flags) -> Result<ExitCode, CliError> {
    if f.has("broken-fixture") {
        let diags = lint_program(&broken_fixture(), &LintConfig::default());
        for d in &diags {
            println!("broken-fixture: {d}");
        }
        // Nonzero either way: with diagnostics (the designed outcome) so
        // CI can assert the gate rejects malformed programs, and without
        // them because a gate that passes its negative control is broken.
        return negative_control(
            diags.is_empty(),
            "the broken fixture linted clean — the gate is not catching bugs",
        );
    }

    let lints = lint_everything(f.pos("n", 256)?);
    let mut dirty = 0usize;
    for l in &lints {
        if l.is_clean() {
            println!("lint: {:<22} clean", l.name);
        } else {
            dirty += 1;
            for d in &l.diagnostics {
                println!("lint: {:<22} {d}", l.name);
            }
        }
    }
    println!(
        "lint: {} program(s), {} with diagnostics",
        lints.len(),
        dirty
    );
    status(dirty == 0)
}

/// Exit 0 when `ok`, 1 otherwise.
fn status(ok: bool) -> Result<ExitCode, CliError> {
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The exit of a gate's negative control: always nonzero, with an error
/// when the broken input passed.
fn negative_control(passed: bool, msg: &str) -> Result<ExitCode, CliError> {
    if passed {
        return Err(CliError(1, format!("error: {msg}")));
    }
    Ok(ExitCode::FAILURE)
}

fn cmd_tv(f: &Flags) -> Result<ExitCode, CliError> {
    if f.has("broken-fixture") {
        let r = broken_spill_report();
        for v in &r.violations {
            println!("broken-fixture: {v}");
        }
        return negative_control(
            r.is_valid(),
            "the broken spill fixture validated clean — the gate is not catching miscompiles",
        );
    }

    let reports = tv_compiled_budgets();
    let mut bad = 0usize;
    for r in &reports {
        if r.is_valid() {
            println!(
                "tv: {:<28} validated ({} concrete case(s))",
                r.name, r.cases_run
            );
        } else {
            bad += 1;
            for v in &r.violations {
                println!("tv: {:<28} {v}", r.name);
            }
        }
    }
    println!("tv: {} program(s), {} with violations", reports.len(), bad);
    status(bad == 0)
}

fn cmd_tune(f: &Flags) -> Result<ExitCode, CliError> {
    let d = TuneConfig::default();
    let cfg = TuneConfig {
        n: f.pos("n", d.n)?,
        nthreads: f.pos("threads", d.nthreads)?,
        strategy: match f.get("strategy") {
            None | Some("graph") => AllocStrategy::GraphColor,
            Some("linear") => AllocStrategy::LinearScan,
            Some(s) => {
                return Err(CliError::usage(format!(
                    "unknown strategy {s:?} (graph|linear)"
                )))
            }
        },
        budgets: f.list("budgets", d.budgets)?,
        capacities: f.list("capacities", d.capacities)?,
    };
    let envelope: Option<f64> = f.opt("area-budget")?;
    // Surface out-of-range budgets as the allocator's typed diagnostic
    // instead of a panic deep inside the sweep.
    for &b in &cfg.budgets {
        regalloc::pool(b).map_err(|e| CliError(2, format!("error[alloc]: {e}")))?;
    }

    let points = tune_sweep(&cfg);
    if points.is_empty() {
        return Err(CliError(
            1,
            "error: no sweep point completed (capacities too small?)".into(),
        ));
    }
    println!(
        "tune: {} point(s) over budgets {:?} x capacities {:?} (strategy={}, n={}, threads={})",
        points.len(),
        cfg.budgets,
        cfg.capacities,
        cfg.strategy.name(),
        cfg.n,
        cfg.nthreads
    );
    for p in &points {
        println!(
            "tune: budget={:<2} capacity={:<3} cycles={:<9} area_mm2={:.4} spilled={} \
             spill_loads={} spill_stores={} ipc={:.3}",
            p.budget,
            p.capacity,
            p.cycles,
            p.area_mm2,
            p.spilled,
            p.spill_loads,
            p.spill_stores,
            p.ipc
        );
    }
    println!();
    for p in pareto_front(&points) {
        println!(
            "pareto: budget={} capacity={} cycles={} area_mm2={:.4} spill_loads={}",
            p.budget, p.capacity, p.cycles, p.area_mm2, p.spill_loads
        );
    }
    if let Some(envelope) = envelope {
        let p = pick_for_area(&points, envelope).ok_or_else(|| {
            CliError(
                1,
                format!("error: no point fits the {envelope:.4} mm2 envelope"),
            )
        })?;
        println!(
            "pick: area envelope {envelope:.4} mm2 -> budget={} capacity={} \
             ({} cycles, {:.4} mm2)",
            p.budget, p.capacity, p.cycles, p.area_mm2
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_area(f: &Flags) -> Result<ExitCode, CliError> {
    let threads: usize = f.num("threads", 8)?;
    let regs: usize = f.num("regs", 64)?;
    let m = AreaModel::default();
    println!("area model (45 nm):");
    println!("  base core          : {:.3} mm²", m.base_core_mm2);
    println!(
        "  banked, {threads} banks     : {:.3} mm²",
        m.banked_core(threads)
    );
    println!(
        "  virec, {regs} regs      : {:.3} mm²  (RF {:.3} + tag {:.3} + logic {:.3})",
        m.virec_core(regs),
        m.rf_area(regs),
        m.tag_store_area(regs),
        m.vrmu_logic_area(regs)
    );
    println!(
        "  savings vs banked  : {:.1}%",
        100.0 * (1.0 - m.virec_core(regs) / m.banked_core(threads))
    );
    println!(
        "  RF delay           : virec {:.3} ns, banked {:.3} ns",
        m.virec_rf_delay(regs),
        m.banked_rf_delay(threads)
    );
    let e = virec::area::EccAreaModel::default();
    let r = virec::area::RasAreaModel::default();
    println!(
        "protected + RAS (secded, {} spare rows, {} spare ways, scrubber):",
        r.spare_rows, r.spare_ways
    );
    println!(
        "  virec ras bill     : {:.4} mm²  (spare ways {:.4} + remap {:.4} + scrub {:.4} + CE {:.4})",
        r.virec_overhead(&m, regs).total_mm2(),
        r.virec_overhead(&m, regs).spare_way_mm2,
        r.virec_overhead(&m, regs).remap_mm2,
        r.virec_overhead(&m, regs).scrubber_mm2,
        r.virec_overhead(&m, regs).trackers_mm2,
    );
    println!(
        "  banked ras bill    : {:.4} mm²",
        r.banked_overhead(&m, threads).total_mm2()
    );
    println!(
        "  savings vs banked  : {:.1}%  (both designs with ECC + RAS)",
        100.0 * (1.0 - r.virec_core(&m, &e, regs) / r.banked_core(&m, &e, threads))
    );
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args
        .first()
        .and_then(|a| COMMANDS.iter().find(|c| c.name == a))
    else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    match Flags::parse(cmd, &args[1..]).and_then(|f| (cmd.run)(&f)) {
        Ok(code) => code,
        Err(CliError(code, line)) => {
            eprintln!("{line}");
            ExitCode::from(code)
        }
    }
}
