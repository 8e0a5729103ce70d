//! The experiment runner: the one driver for a fixed set of cores.
//!
//! The runner loads one core per slot, steps them through the shared step
//! loop with a forward-progress watchdog, hooks in the architectural
//! checkpoint, the patrol scrubber and any scheduled [`FaultPlan`], and
//! verifies every core's final architectural state against the golden
//! interpreter, returning a typed [`SimError`] instead of panicking.
//! [`try_run_single`] is a run over one slot and [`try_run_slots`] a run
//! over N, such as Figure 11's multi-core systems, whose cores share one
//! fabric. A fault event names no core, so fault routing, protection,
//! checkpoints and RAS act on slot 0, and only a one-slot run takes them.
//! A checkpoint is counted on every grid cycle but copies the machine
//! only while a restore can read it ([`Checkpoint`]).
//!
//! A run can also pause at the top of a chosen step and be cloned there:
//! a clone holds the machine, its limits, the router and the checkpoint,
//! which is the run's whole state. Fault campaigns use this
//! ([`try_run_forks`]): one fault-free prefix pass pauses where each
//! injection's plan can first act, and each injection is a fork that arms
//! its plan and runs on, equal to the same run from cycle 0. A fork whose
//! faults left the machine as the fault-free run has it (corrected, not
//! applicable, or rewound to a checkpoint from before they landed) stops
//! there and takes the campaign's clean reference result, adjusted to the
//! fork, instead of re-simulating the rest; no fault-free run is
//! simulated to its end a second time.

use crate::cancel::RunGate;
use crate::ecc::{EccStats, ProtectionConfig};
use crate::error::{DivergenceSite, RunDiagnostics, SimError};
use crate::fault::FaultPlan;
use crate::machine::{self, Driver, Machine, RunLimits, Step};
use crate::offload::load_core;
use crate::ras::{RasConfig, RasStats, Scrubber};
use crate::router::{Detected, FaultRouter, Rewindable, Scope};
use crate::watchdog::DEFAULT_LIVELOCK_CYCLES;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use virec_core::engines::ROLLBACK_DEPTH;
use virec_core::{Core, CoreConfig, CoreStats, EngineKind, OracleSchedule, QuantumTrace};
use virec_isa::{Chunk, ExecOutcome, FlatMem, Interpreter, Reg, ThreadCtx};
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_workloads::{layout, Layout, Workload, WorkloadCtor};

/// Default architectural-checkpoint spacing: the rollback depth (the
/// backend's in-flight window, §5.1) times a nominal 256-cycle scheduling
/// quantum — deep enough that checkpointing stays off the critical path,
/// shallow enough that replay after a detected-uncorrectable fault is a
/// small fraction of a run.
pub fn default_checkpoint_interval() -> u64 {
    ROLLBACK_DEPTH as u64 * 256
}

/// Options for a run of the runner, over one slot or N. A multi-slot run
/// takes every field but the four that act on slot 0 only: `faults`,
/// `protection`, `checkpoint_interval` and `ras` must keep their defaults.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Fabric (crossbar + DRAM) configuration.
    pub fabric: FabricConfig,
    /// Check final architectural state against the golden interpreter
    /// (cheap insurance; on by default).
    pub verify: bool,
    /// Oracle to feed an exact-context prefetching core. Empty (the
    /// default) records one: each such core replays the schedule of a
    /// traced pre-run of its workload on a banked core with the same
    /// thread count, fabric, gate and loop (§6.1's recording substrate).
    pub oracle: OracleSchedule,
    /// Watchdog threshold: cycles without a commit before the run is
    /// declared livelocked (0 disables the watchdog).
    pub livelock_cycles: u64,
    /// Scheduled fault injections (empty for ordinary runs).
    pub faults: FaultPlan,
    /// Per-site protection levels the fault events are routed through
    /// before they corrupt anything (default: everything unprotected, the
    /// pre-ECC behavior).
    pub protection: ProtectionConfig,
    /// Architectural-checkpoint spacing in cycles; 0 disables
    /// checkpointing (the default — ordinary runs pay nothing). See
    /// [`default_checkpoint_interval`] for the campaign default.
    pub checkpoint_interval: u64,
    /// Wall-clock deadline / cooperative-cancellation gate; the default
    /// never trips. The step loop polls it cheaply and degrades to a
    /// typed [`SimError::Deadline`] when it fires.
    pub gate: RunGate,
    /// Force the dense cycle-by-cycle loop instead of event-driven cycle
    /// skipping. Both loops produce byte-identical stats and digests; the
    /// dense loop exists as a differential reference and escape hatch
    /// (also reachable via the `VIREC_NO_SKIP=1` environment variable).
    pub dense_loop: bool,
    /// RAS layer (patrol scrubber, CE tracker, spare pools) for surviving
    /// persistent faults. `None` (the default) leaves the machine exactly
    /// as before this layer existed; persistent faults then end in a
    /// bounded typed [`SimError::Uncorrectable`] after two failed
    /// checkpoint replays instead of a retirement.
    pub ras: Option<RasConfig>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fabric: FabricConfig::default(),
            verify: true,
            oracle: OracleSchedule::default(),
            livelock_cycles: DEFAULT_LIVELOCK_CYCLES,
            faults: FaultPlan::empty(),
            protection: ProtectionConfig::none(),
            checkpoint_interval: 0,
            gate: RunGate::unbounded(),
            dense_loop: false,
            ras: None,
        }
    }
}

/// Outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Total cycles until every thread halted.
    pub cycles: u64,
    /// Core statistics (caches folded in).
    pub stats: CoreStats,
    /// Descriptions of the injected faults that actually landed.
    pub faults_applied: Vec<String>,
    /// FNV digest of the final architectural state (all thread registers
    /// plus the data segment) — used by fault campaigns to distinguish
    /// masked faults from silent corruptions.
    pub arch_digest: u64,
    /// Protection-model and checkpoint/replay counters (all zero unless
    /// the run carried a fault plan with protection or checkpointing on).
    pub ecc: EccStats,
    /// Wall-clock nanoseconds spent snapshotting the machine into checkpoints
    /// (zero when checkpointing is off). Non-deterministic by nature, so it
    /// is reported but never journaled or folded into digests.
    pub checkpoint_clone_ns: u64,
    /// RAS-layer counters (all zero unless [`RunOptions::ras`] was set and
    /// the layer did something).
    pub ras: RasStats,
    /// Fabric counters: per-port read/write attribution plus, under a mesh
    /// topology, NoC hop/CRC/retransmission/retirement counts.
    pub fabric: FabricStats,
}

impl RunResult {
    /// Instructions per cycle — the paper's primary performance metric.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Outcome of a multi-slot run ([`try_run_slots`]).
#[derive(Clone, Debug)]
pub struct SystemResult {
    /// Cycles until *every* core finished.
    pub cycles: u64,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Shared crossbar/DRAM statistics (for observed-latency analysis).
    pub fabric: FabricStats,
}

impl SystemResult {
    /// Aggregate instructions per cycle across the whole system.
    pub fn total_ipc(&self) -> f64 {
        let insts: u64 = self.per_core.iter().map(|s| s.instructions).sum();
        insts as f64 / self.cycles as f64
    }

    /// Mean per-core IPC (0.0 for an empty system, not a division by
    /// zero).
    pub fn mean_core_ipc(&self) -> f64 {
        let ipc = |s: &CoreStats| s.instructions as f64 / self.cycles as f64;
        let sum: f64 = self.per_core.iter().map(ipc).sum();
        sum / self.per_core.len().max(1) as f64
    }
}

/// The slots of a multi-core run, one per `(core, ctor, n)`: slot `i`
/// runs `ctor(n, Layout::for_core(i))` on its core.
pub fn build_slots(specs: &[(CoreConfig, WorkloadCtor, u64)]) -> Vec<(CoreConfig, Workload)> {
    let slot = |(i, &(core, ctor, n)): (usize, &(CoreConfig, WorkloadCtor, u64))| {
        (core, ctor(n, Layout::for_core(i)))
    };
    specs.iter().enumerate().map(slot).collect()
}

/// Runs slot `i`'s workload on slot `i`'s core, every core on one shared
/// fabric, until every core halts, and verifies each against the golden
/// interpreter. Slot `i` must be built for `Layout::for_core(i)`, as
/// [`build_slots`] builds it. The run
/// is held to one watchdog over the summed commits and to the largest
/// per-core `max_cycles` as its budget, since the slowest core bounds
/// completion under contention.
///
/// An empty slice is a typed [`SimError::Config`], and so is a multi-slot
/// run whose options carry a fault plan, protection, checkpoints or RAS.
pub fn try_run_slots(
    slots: &[(CoreConfig, Workload)],
    opts: &RunOptions,
) -> Result<SystemResult, SimError> {
    let slots: Vec<_> = slots.iter().map(|(cfg, w)| (*cfg, w)).collect();
    let m = Runner::run(&slots, opts, false)?.m;
    Ok(SystemResult {
        cycles: m.now,
        per_core: m.slots.iter().map(|c| *c.stats()).collect(),
        fabric: *m.fabric.stats(),
    })
}

/// Fallible single-core run: returns a typed error instead of panicking.
///
/// The cycle loop distinguishes *livelock* (no commit for
/// [`RunOptions::livelock_cycles`] — the machine is wedged, reported with a
/// full pipeline/engine/MSHR dump) from a *slow run* (commits still landing
/// when `CoreConfig::max_cycles` runs out — a budget problem). If the
/// options carry a [`FaultPlan`], events are applied at their scheduled
/// cycles and any subsequent failure is wrapped in
/// [`SimError::FaultDetected`] so campaign drivers can attribute it.
///
/// ```
/// use virec_core::CoreConfig;
/// use virec_sim::runner::{try_run_single, RunOptions};
/// use virec_workloads::{kernels, Layout};
///
/// let w = kernels::stream::reduction(256, Layout::for_core(0));
/// let r = try_run_single(CoreConfig::virec(4, 24), &w, &RunOptions::default())?;
/// assert!(r.ipc() > 0.0);
/// assert!(r.stats.instructions > 256);
/// # Ok::<(), virec_sim::SimError>(())
/// ```
pub fn try_run_single(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    Runner::run(&[(cfg, workload)], opts, false).map(Runner::into_result)
}

/// [`try_run_single`] plus a per-quantum trace: start/resume PCs, the
/// decode-acquired use and read-before-written demand masks, and the
/// engine's resident/committed live-bit samples at each switch-out. Used by
/// `virec-verify` to cross-check the timing model against static liveness.
/// `RunResult` itself is unchanged (it round-trips through the sweep
/// journal codec), so the trace rides alongside.
pub fn try_run_single_traced(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<(RunResult, QuantumTrace), SimError> {
    let mut run = Runner::run(&[(cfg, workload)], opts, true)?;
    let trace = run.m.slots[0].take_quantum_trace();
    Ok((run.into_result(), trace))
}

/// Runs `cfg` on `workload` once per plan of `plans`, each under `opts`
/// with its plan in place of `opts.faults`, and hands `each` the plan's
/// index and what [`try_run_single`] would have returned (`Err` when it
/// panicked). `clean` is the result of the same workload run on the same
/// fabric with no plan, protection, checkpoints or RAS, and with limits
/// it finished well inside. Returns how many runs rejoined the fault-free
/// run.
///
/// Instead of simulating every run from cycle 0, one fault-free prefix
/// pass under `opts` pauses at the first cycle each plan can act
/// ([`Runner::first_effect`]), in ascending order, and each run is a fork
/// of the pause that arms its plan and runs on. Only the fork runs under
/// `catch_unwind`, so a panicking run leaves the prefix intact; one fork
/// is alive at a time, and it shares the prefix's checkpoint image.
///
/// Without a RAS layer, a fork whose faults left the machine as the
/// prefix has it, with nothing left pending, stops there
/// ([`Runner::rejoined`]): the rest of its run is the fault-free run's.
/// The prefix is dropped at its last pause, and each rejoined fork is
/// handed `clean`, adjusted to the fork ([`rejoined_result`]), after every
/// other fork.
pub(crate) fn try_run_forks(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
    plans: &[FaultPlan],
    clean: &RunResult,
    mut each: impl FnMut(usize, std::thread::Result<Result<RunResult, SimError>>),
) -> usize {
    let fault_free = RunOptions {
        faults: FaultPlan::empty(),
        ..opts.clone()
    };
    let mut prefix = Runner::new(&[(cfg, workload)], &fault_free, false);
    let mut order: Vec<(u64, usize)> = (0..plans.len())
        .map(|i| (prefix.as_mut().map_or(0, |p| p.first_effect(&plans[i])), i))
        .collect();
    order.sort_unstable();
    // Each rejoined fork's index, rejoin cycle and router state.
    let mut rejoined: Vec<(usize, u64, Rewindable)> = Vec::new();
    for (at, i) in order {
        // A prefix that fails before `at` fails every run it stands for
        // the same way: no fault had landed, so nothing is attributed.
        if let Ok(p) = &mut prefix {
            if let Err(e) = p.pause_at(at) {
                prefix = Err(e);
            }
        }
        let run = match &prefix {
            Ok(p) => {
                let fork = p.fork(&plans[i]);
                catch_unwind(AssertUnwindSafe(|| fork.finish()))
            }
            Err(e) => Ok(Err(e.clone())),
        };
        match run {
            Ok(Ok(fork)) if fork.running() => {
                rejoined.push((i, fork.m.now, fork.router.rewindable));
            }
            run => each(i, run.map(|r| r.map(Runner::into_result))),
        }
    }
    let tail = prefix.as_ref().map(|_| clean);
    let count = rejoined.len();
    for (i, cycle, forked) in rejoined {
        let run = rejoined_result(tail, cycle, forked, opts.checkpoint_interval);
        each(i, Ok(run));
    }
    count
}

/// The result of a fork that rejoined the fault-free run at the top of
/// step `cycle` with router state `forked`, given `tail`: the clean run's
/// result ([`try_run_forks`]) while the prefix pass stands, or the error
/// it failed with. From `cycle` on the fork steps the prefix pass's
/// machine, whose tail the clean run reproduces:
///
/// - without faults, protection never routes, so it changes nothing;
/// - a checkpoint is a copy and does not change the machine;
/// - the budget and watchdog cannot fire, since the clean run finished
///   inside both ([`crate::fault`]'s `classify` states the bounds), and a
///   restore only restarts the watchdog, which then counts a shorter
///   drought;
/// - a fork rejoins only without a RAS layer, on the clean run's fabric.
///
/// So the result is the clean one, except that the narrative is the
/// fork's, its counters are the fork's plus one checkpoint per grid cycle
/// from `cycle` on (taken at the top of the step), and no copy was timed.
/// A failed prefix's error is the fork's, attributed to the fork's faults
/// as [`Runner::finish`] attributes it.
fn rejoined_result(
    tail: Result<&RunResult, &SimError>,
    cycle: u64,
    forked: Rewindable,
    checkpoint_interval: u64,
) -> Result<RunResult, SimError> {
    let clean = match tail {
        Ok(clean) => clean,
        Err(e) => return Err(attributed(e.clone(), forked.narrative)),
    };
    let mut ecc = forked.ecc;
    if checkpoint_interval > 0 {
        ecc.checkpoints_taken +=
            clean.cycles.div_ceil(checkpoint_interval) - cycle.div_ceil(checkpoint_interval);
    }
    Ok(RunResult {
        faults_applied: forked.narrative,
        ecc,
        checkpoint_clone_ns: 0,
        ..clean.clone()
    })
}

/// `e`, wrapped in [`SimError::FaultDetected`] when any fault of
/// `narrative` landed: any failure after that is attributed to the faults.
fn attributed(e: SimError, narrative: Vec<String>) -> SimError {
    if narrative.is_empty() {
        return e;
    }
    SimError::FaultDetected {
        diag: Box::new(e.diagnostics().clone()),
        faults: narrative,
        cause: Box::new(e),
    }
}

/// Bytes of functional memory for `workloads` in slots `0..`: every
/// slot's span, widened to the largest data segment's end.
fn mem_size(workloads: &[&Workload]) -> usize {
    let data_end = |w: &&Workload| (w.layout.data_base + w.layout.data_size) as usize;
    let spans = layout::mem_size(workloads.len());
    workloads.iter().map(data_end).fold(spans, usize::max)
}

/// The oracle schedule of a traced pre-run of `workload` on a banked core
/// with `nthreads` threads, under `opts`'s fabric, gate and loop, so one
/// deadline spans the recording and the run that replays it.
fn recorded_oracle(
    workload: &Workload,
    nthreads: usize,
    opts: &RunOptions,
) -> Result<OracleSchedule, SimError> {
    let rec = RunOptions {
        fabric: opts.fabric,
        verify: false,
        gate: opts.gate.clone(),
        dense_loop: opts.dense_loop,
        ..RunOptions::default()
    };
    let mut run = Runner::run(&[(CoreConfig::banked(nthreads), workload)], &rec, true)?;
    let trace = run.m.slots[0].take_quantum_trace();
    Ok(OracleSchedule::from_trace(&trace, nthreads))
}

/// The [`Scope`] the router (fault routing, patrol scrubs, recovery) acts
/// on: slot 0. Only a one-slot run can carry a fault plan, protection,
/// checkpoints or RAS ([`Runner::new`]), so that slot is the run's one core.
fn scope<'a>(m: &'a mut Machine<Core>, layout: &'a Layout) -> Scope<'a> {
    Scope {
        core: &mut m.slots[0],
        fabric: &mut m.fabric,
        mem: &mut m.mem,
        layout,
    }
}

/// An architectural checkpoint: a deep copy of the machine plus the
/// router's rewindable state, which is what replaying deterministically
/// from this cycle needs. A run keeps only its newest checkpoint, the one a
/// restore rewinds to.
///
/// A checkpoint is worth its copy only if a restore can read it. The one
/// reader, [`Runner::recover`], runs from `end_tick` only while a fault
/// event is pending. A run with nothing pending gets an event again only
/// through a restore (persistent classes re-arm only as they route), so a
/// grid cycle with nothing pending is copied only by a prefix pass
/// stepping toward a pause, whose forks copy its newest checkpoint there.
/// Every other grid cycle counts its checkpoint and holds none
/// ([`Runner::snapshot`]): a transient fork stops copying once its event
/// has routed, and a fault-free run copies nothing.
#[derive(Clone)]
struct Checkpoint {
    cycle: u64,
    /// Shared, never written, between a prefix pass and its forks.
    image: Rc<Image>,
    /// Per run: a fork arms its fault plan here too.
    faults: Rewindable,
}

/// Every core, the fabric and functional memory at a checkpoint. The
/// memory copy costs only the pages the run has written, and shares none
/// of them with the live image.
struct Image {
    cores: Vec<Core>,
    fabric: Fabric,
    mem: FlatMem,
}

/// The runner as a [`Driver`] of the shared step loop, over one slot per
/// workload: the checkpoint and the [`FaultRouter`] (fault, ECC and
/// RAS routing, patrol scrubs) hook in around the ticks, and their
/// schedules join the skip step's wakeups. A single-core run is one slot;
/// a [`try_run_slots`] run is N.
///
/// A clone is the whole run's state (machine, limits, router, checkpoint),
/// so a paused run forks exactly ([`try_run_forks`]).
#[derive(Clone)]
pub(crate) struct Runner<'a> {
    m: Machine<Core>,
    opts: &'a RunOptions,
    workloads: Vec<&'a Workload>,
    router: FaultRouter,
    checkpoint: Option<Checkpoint>,
    checkpoint_clone_ns: u64,
    /// The cycle at whose step a prefix pass pauses ([`Runner::pause_at`]).
    pause: Option<u64>,
    /// Set on a fork with no RAS layer: it stops at the top of the first
    /// step where it has [`Runner::rejoined`] the fault-free run.
    rejoin: bool,
}

impl<'a> Runner<'a> {
    /// Builds the machine — slot `i` runs `slots[i]`'s workload on its
    /// core — steps it until every core halts, then finalizes and drains
    /// every core and (with [`RunOptions::verify`]) checks each against the
    /// golden interpreter. `trace` turns on every core's quantum trace. An
    /// exact-context prefetching core replays [`RunOptions::oracle`], or
    /// when that is empty the schedule [`recorded_oracle`] records.
    fn run(
        slots: &[(CoreConfig, &'a Workload)],
        opts: &'a RunOptions,
        trace: bool,
    ) -> Result<Runner<'a>, SimError> {
        Runner::new(slots, opts, trace)?.finish()
    }

    /// The machine of [`Runner::run`] at cycle 0, before its first step.
    /// No slots, or a multi-slot run with any of the options that act on
    /// slot 0 only, is a typed [`SimError::Config`].
    fn new(
        slots: &[(CoreConfig, &'a Workload)],
        opts: &'a RunOptions,
        trace: bool,
    ) -> Result<Runner<'a>, SimError> {
        let slot0_only = !opts.faults.events.is_empty()
            || opts.protection != ProtectionConfig::none()
            || opts.checkpoint_interval > 0
            || opts.ras.is_some();
        let detail = if slots.is_empty() {
            "a run needs at least one slot"
        } else if slots.len() > 1 && slot0_only {
            "a fault plan, protection, checkpoints and RAS act on slot 0 only, \
             so a multi-slot run takes none of them"
        } else {
            ""
        };
        if !detail.is_empty() {
            let diag = RunDiagnostics::placeholder("run-config");
            return Err(SimError::Config {
                detail: detail.to_string(),
                diag,
            });
        }
        let workloads: Vec<&Workload> = slots.iter().map(|&(_, w)| w).collect();
        let mut mem = FlatMem::new(0, mem_size(&workloads));
        let mut cores = Vec::with_capacity(slots.len());
        for (slot, &(mut cfg, w)) in slots.iter().enumerate() {
            // The RAS layer provisions its spare CAM ways at core
            // construction: they are physically present (priced by
            // virec-area) but masked until a retirement activates one.
            if let Some(rc) = opts.ras.filter(|_| cfg.engine == EngineKind::ViReC) {
                cfg.spare_ways = rc.spare_ways as usize;
            }
            let oracle = if cfg.engine == EngineKind::PrefetchExact && opts.oracle.sets.is_empty() {
                recorded_oracle(w, cfg.nthreads, opts)?
            } else {
                opts.oracle.clone()
            };
            let mut core = load_core(&mut mem, slot, cfg, w, oracle);
            if trace {
                core.enable_quantum_trace();
            }
            cores.push(core);
        }
        let mut fabric = Fabric::new(opts.fabric);
        if let Some(rc) = &opts.ras {
            fabric.provision_spare_rows(rc.spare_rows);
        }
        let scrubber = opts.ras.filter(|rc| rc.scrub_interval > 0).map(|_| {
            let (region, layout) = (cores[0].region(), &workloads[0].layout);
            Scrubber::new(vec![
                (region.base, region.size()),
                (layout.data_base, layout.data_size),
            ])
        });
        let budget = slots.iter().map(|(c, _)| c.max_cycles).max().unwrap_or(0);
        let limits = RunLimits::new(0, opts.livelock_cycles, budget);
        let faults = opts.faults.events.clone();
        Ok(Runner {
            m: Machine::new(cores, fabric, mem, opts.gate.clone(), limits),
            opts,
            workloads,
            router: FaultRouter::new(faults, opts.protection, opts.ras, scrubber),
            checkpoint: None,
            checkpoint_clone_ns: 0,
            pause: None,
            rejoin: false,
        })
    }

    /// Steps the run from where it stands until every core halts, then
    /// settles it. A fork that rejoins the fault-free run stops there
    /// instead, still running and unsettled.
    fn finish(mut self) -> Result<Runner<'a>, SimError> {
        let dense = self.opts.dense_loop;
        let mut outcome = machine::run(&mut self, dense);
        if outcome.is_ok() && !self.running() {
            outcome = self.settle();
        }
        match outcome {
            Ok(()) => Ok(self),
            Err(e) => Err(attributed(e, self.router.rewindable.narrative)),
        }
    }

    /// Steps the run to the top of step `cycle`, before anything of that
    /// step happens (the driver's own work included), or to its end if
    /// every core halts first. The pause joins the skip step's wakeups, so
    /// both loops land on it exactly.
    fn pause_at(&mut self, cycle: u64) -> Result<(), SimError> {
        self.pause = Some(cycle);
        let outcome = machine::run(self, self.opts.dense_loop);
        self.pause = None;
        outcome
    }

    /// The first cycle at which `plan` can change this fault-free run from
    /// the top of its current step: its earliest event, or an earlier
    /// patrol read that finds one of its persistent cell defects pending.
    fn first_effect(&mut self, plan: &FaultPlan) -> u64 {
        let (now, events) = (self.m.now, &plan.events);
        let first = events.iter().map(|ev| ev.cycle).min().unwrap_or(u64::MAX);
        let scope = scope(&mut self.m, &self.workloads[0].layout);
        self.router
            .first_scrub_hit(now, first, events, &scope)
            .unwrap_or(first)
    }

    /// A copy of this paused fault-free run with `plan` armed in its router
    /// and in its checkpoint: from a pause at or before
    /// [`Runner::first_effect`], exactly the run that carried `plan` from
    /// cycle 0 ([`Rewindable::arm`]).
    fn fork(&self, plan: &FaultPlan) -> Runner<'a> {
        let mut fork = self.clone();
        fork.router.rewindable.arm(&plan.events);
        if let Some(ck) = &mut fork.checkpoint {
            ck.faults.arm(&plan.events);
        }
        fork.rejoin = self.opts.ras.is_none();
        fork
    }

    /// Whether this fork is back on the fault-free run: routing never
    /// changed its machine, or a restore took it back to a checkpoint from
    /// before anything did, and nothing is pending. Its machine is then the
    /// prefix pass's at the same step, and without a RAS layer (patrol
    /// reads, the CE tracker, retirements) nothing else of the run can act
    /// on it again, so every later step is the prefix pass's too.
    fn rejoined(&self) -> bool {
        let router = &self.router.rewindable;
        self.rejoin && !router.altered && router.pending.is_empty()
    }

    /// The result of a settled single-core run.
    fn into_result(self) -> RunResult {
        let (m, router) = (self.m, self.router);
        let core = &m.slots[0];
        let nthreads = core.config().nthreads;
        RunResult {
            cycles: m.now,
            stats: *core.stats(),
            arch_digest: arch_digest(core, &m.mem, self.workloads[0], nthreads),
            faults_applied: router.rewindable.narrative,
            ecc: router.rewindable.ecc,
            checkpoint_clone_ns: self.checkpoint_clone_ns,
            ras: router.ras_stats,
            fabric: *m.fabric.stats(),
        }
    }

    /// Finalizes and drains each core, then verifies it against the golden
    /// interpreter. Every core's data and contexts are its own, so the
    /// order is immaterial.
    fn settle(&mut self) -> Result<(), SimError> {
        let m = &mut self.m;
        for (core, w) in m.slots.iter_mut().zip(&self.workloads) {
            core.finalize_stats();
            core.drain(&mut m.mem);
            if self.opts.verify {
                try_verify_against_golden(w, core.config().nthreads, core, &m.mem, m.now)?;
            }
        }
        Ok(())
    }
}

impl Driver for Runner<'_> {
    type Slot = Core;

    fn machine(&mut self) -> &mut Machine<Core> {
        &mut self.m
    }

    fn running(&self) -> bool {
        !self.m.slots.iter().all(Core::done)
    }

    /// Diagnostics for the most-stuck core: the first core that has not
    /// finished (or core 0 if all finished), labelled with its workload.
    fn diag(&self) -> Box<RunDiagnostics> {
        let cores = &self.m.slots;
        let i = cores.iter().position(|c| !c.done()).unwrap_or_default();
        RunDiagnostics::capture(self.workloads[i].name, &cores[i], self.m.now)
    }

    /// The pipeline dump of a one-core run; with more cores, the dumps of
    /// every unfinished core, each under a header naming it.
    fn dump(&self) -> String {
        if let [core] = &self.m.slots[..] {
            return core.debug_dump();
        }
        let mut s = String::new();
        for (i, core) in self.m.slots.iter().enumerate() {
            if !core.done() {
                s.push_str(&format!(
                    "--- core {i} ({}) ---\n{}",
                    self.workloads[i].name,
                    core.debug_dump()
                ));
            }
        }
        if s.is_empty() {
            s.push_str("(all cores report done)");
        }
        s
    }

    fn begin(&mut self) -> Result<Step, SimError> {
        let now = self.m.now;
        if self.pause == Some(now) || self.rejoined() {
            return Ok(Step::Stop);
        }
        let interval = self.opts.checkpoint_interval;
        if interval > 0 && now.is_multiple_of(interval) {
            self.snapshot();
        }
        if self
            .router
            .scrub_interval()
            .is_some_and(|i| now.is_multiple_of(i))
        {
            let layout = &self.workloads[0].layout;
            self.router.scrub(now, &mut scope(&mut self.m, layout));
        }
        Ok(Step::Tick)
    }

    /// Routes the faults due this cycle; `Ok(true)` when a
    /// detected-uncorrectable group rewound the machine to a checkpoint.
    fn end_tick(&mut self) -> Result<bool, SimError> {
        if self.router.rewindable.pending.is_empty() {
            return Ok(false);
        }
        let (now, layout) = (self.m.now, &self.workloads[0].layout);
        match self.router.inject(now, &mut scope(&mut self.m, layout)) {
            Some(detected) => self.recover(detected).map(|()| true),
            None => Ok(false),
        }
    }

    /// Pending faults, the checkpoint grid, the scrub grid and a pause:
    /// the clock must land on each of them exactly as the dense loop does.
    fn wakeup(&self) -> u64 {
        let now = self.m.now;
        let mut wake = self.router.wakeup(now).min(self.pause.unwrap_or(u64::MAX));
        if self.opts.checkpoint_interval > 0 {
            wake = wake.min(now.next_multiple_of(self.opts.checkpoint_interval));
        }
        wake
    }
}

impl Runner<'_> {
    /// The checkpoint of a grid cycle: counted always, but the machine is
    /// copied only while a restore can read the copy ([`Checkpoint`]).
    /// The held image is dropped first either way, so a run never holds
    /// two. Cold, like [`FaultRouter::scrub`], so the per-step hook that
    /// calls it stays small.
    #[cold]
    fn snapshot(&mut self) {
        self.checkpoint = None;
        if !self.router.rewindable.pending.is_empty() || self.pause.is_some() {
            let snap_start = std::time::Instant::now();
            self.checkpoint = Some(Checkpoint {
                cycle: self.m.now,
                image: Rc::new(Image {
                    cores: self.m.slots.clone(),
                    fabric: self.m.fabric.clone(),
                    mem: self.m.mem.clone(),
                }),
                faults: self.router.rewindable.clone(),
            });
            self.checkpoint_clone_ns += snap_start.elapsed().as_nanos() as u64;
        }
        self.router.rewindable.ecc.checkpoints_taken += 1;
    }

    /// Recovery from a detected-uncorrectable group: rewinds to the newest
    /// checkpoint (snapshotted before this cycle's injection) and replays
    /// with the detected fault suppressed, or fails typed. Cold, like
    /// [`Runner::snapshot`].
    #[cold]
    fn recover(&mut self, detected: Detected) -> Result<(), SimError> {
        let detect_cycle = self.m.now;
        // Without the RAS layer a defect family that trips a second
        // detected-uncorrectable after a restore fails the run with a
        // typed error instead of replaying forever.
        if let Some((site, index)) = self.router.unrecoverable(&detected) {
            return Err(SimError::Uncorrectable {
                site: site.to_string(),
                detail: format!(
                    "persistent fault at {site} index {index} re-asserted after a \
                     checkpoint replay; no RAS layer to retire the region"
                ),
                diag: self.diag(),
            });
        }
        let Some(ck) = &self.checkpoint else {
            return Err(SimError::Uncorrectable {
                site: detected.events[0].site.to_string(),
                detail: detected.desc,
                diag: self.diag(),
            });
        };
        let (cycle, faults, image) = (ck.cycle, ck.faults.clone(), &ck.image);
        self.m.slots = image.cores.clone();
        self.m.fabric = image.fabric.clone();
        self.m.mem = image.mem.clone();
        self.m.now = cycle;
        let scope = &mut scope(&mut self.m, &self.workloads[0].layout);
        self.router
            .rewind(faults, &detected, cycle, detect_cycle, scope);
        self.m.rewind();
        Ok(())
    }
}

/// Incremental FNV-1a over the architectural-state byte stream: thread
/// registers in `(thread, allocatable reg)` order, then the data segment.
/// Shared by the timing-side and golden-side digests so the two are
/// directly comparable.
struct Fnv(u64);

const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, byte: u8) {
        self.0 ^= byte as u64;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn eat_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.eat(b);
        }
    }

    /// Eats the data segment. A page no write touched is `len` zero
    /// bytes, and eating a zero byte only multiplies by the prime, so the
    /// page costs one `PRIME^len` instead of `len` steps — the same value
    /// as eating it byte by byte.
    fn eat_data_segment(&mut self, mem: &FlatMem, workload: &Workload) {
        let (lo, hi) = data_span(mem, workload);
        for chunk in mem.chunks(lo, hi) {
            match chunk {
                Chunk::Zeros(len) => {
                    self.0 = self.0.wrapping_mul(FNV_PRIME.wrapping_pow(len as u32))
                }
                Chunk::Bytes(bytes) => bytes.iter().for_each(|&b| self.eat(b)),
            }
        }
    }
}

/// The workload's data segment as offsets into `mem`, clipped to the
/// mapping.
fn data_span(mem: &FlatMem, workload: &Workload) -> (usize, usize) {
    let lo = workload.layout.data_base as usize;
    let hi = (workload.layout.data_base + workload.layout.data_size).min(mem.size() as u64);
    (lo, hi as usize)
}

/// FNV-1a digest of a finished core's architectural state: every
/// allocatable register of every thread, then the data segment bytes.
/// Used by fault campaigns to distinguish masked faults from silent
/// corruptions, and by the serve layer's per-task cross-check.
pub fn arch_digest(core: &Core, mem: &FlatMem, workload: &Workload, nthreads: usize) -> u64 {
    let mut h = Fnv::new();
    for t in 0..nthreads {
        for r in Reg::allocatable() {
            h.eat_u64(core.arch_reg(t, r, mem));
        }
    }
    h.eat_data_segment(mem, workload);
    h.0
}

/// The [`arch_digest`] a fault-free run of `workload` must produce,
/// computed from a fresh golden-interpreter execution — the reference the
/// serve layer compares completed tasks against without re-running the
/// timing model. Fails with [`SimError::GoldenRunStuck`] if a thread does
/// not halt within `step_cap` interpreter steps.
pub fn golden_arch_digest(
    workload: &Workload,
    nthreads: usize,
    step_cap: u64,
) -> Result<u64, SimError> {
    let mem_size = mem_size(&[workload]);
    let diag = || RunDiagnostics::placeholder(workload.name);
    let mut h = Fnv::new();
    let gold_mem = run_golden(workload, nthreads, mem_size, step_cap, diag, |_, ctx| {
        for r in Reg::allocatable() {
            h.eat_u64(ctx.get(r));
        }
        Ok(())
    })?;
    h.eat_data_segment(&gold_mem, workload);
    Ok(h.0)
}

/// Runs `workload`'s threads to their halts on the golden interpreter, one
/// after another over one fresh `mem_size`-byte image, and hands each
/// halted thread's registers to `each` before the next thread starts.
/// Returns the final image. A thread still running after `step_cap` steps
/// fails with [`SimError::GoldenRunStuck`] carrying `diag()`.
fn run_golden(
    workload: &Workload,
    nthreads: usize,
    mem_size: usize,
    step_cap: u64,
    diag: impl Fn() -> Box<RunDiagnostics>,
    mut each: impl FnMut(usize, &ThreadCtx) -> Result<(), SimError>,
) -> Result<FlatMem, SimError> {
    let mut gold_mem = FlatMem::new(0, mem_size);
    workload.init_mem(&mut gold_mem);
    for t in 0..nthreads {
        let mut ctx = ThreadCtx::new();
        for (r, v) in workload.thread_ctx(t, nthreads) {
            ctx.set(r, v);
        }
        let out = Interpreter::new(workload.program(), &mut gold_mem).run(&mut ctx, step_cap);
        if !matches!(out, ExecOutcome::Halted { .. }) {
            return Err(SimError::GoldenRunStuck {
                thread: t,
                step_cap,
                diag: diag(),
            });
        }
        each(t, &ctx)?;
    }
    Ok(gold_mem)
}

/// Step cap for the golden interpreter, derived from the timing run's
/// actual committed-instruction count (with generous slack) instead of a
/// hard-coded constant — a workload that legitimately needs more steps
/// cannot be misreported, and a wedged golden run is detected at a cap
/// proportional to the work actually done.
pub(crate) fn golden_step_cap(committed_instructions: u64) -> u64 {
    committed_instructions
        .saturating_mul(4)
        .saturating_add(100_000)
}

/// Compares a finished core's architectural state (registers and data
/// segment) against a fresh golden-interpreter run of the same workload,
/// returning a typed [`SimError::GoldenDivergence`] naming the first
/// divergent register or the data range. Each thread's registers
/// are compared as soon as its golden run halts, so a divergent thread is
/// reported before a later thread that would not halt.
pub fn try_verify_against_golden(
    workload: &Workload,
    nthreads: usize,
    core: &Core,
    mem: &FlatMem,
    cycles: u64,
) -> Result<(), SimError> {
    let diag = || RunDiagnostics::capture(workload.name, core, cycles);
    let step_cap = golden_step_cap(core.stats().instructions);
    let gold_mem = run_golden(workload, nthreads, mem.size(), step_cap, diag, |t, ctx| {
        for r in Reg::allocatable() {
            let (got, want) = (core.arch_reg(t, r, mem), ctx.get(r));
            if got != want {
                return Err(SimError::GoldenDivergence {
                    site: DivergenceSite::Register {
                        thread: t,
                        reg: r,
                        got,
                        want,
                    },
                    diag: diag(),
                });
            }
        }
        Ok(())
    })?;
    let (lo, hi) = data_span(mem, workload);
    if let Some(first_mismatch) = mem.first_difference(&gold_mem, lo, hi) {
        return Err(SimError::GoldenDivergence {
            site: DivergenceSite::DataRange {
                lo,
                hi,
                first_mismatch,
            },
            diag: diag(),
        });
    }
    Ok(())
}

/// Sanity marker so downstream code can assert which engine a config is.
pub fn engine_label(cfg: &CoreConfig) -> &'static str {
    match cfg.engine {
        EngineKind::ViReC => "virec",
        EngineKind::Banked => "banked",
        EngineKind::Software => "software",
        EngineKind::PrefetchFull => "prefetch_full",
        EngineKind::PrefetchExact => "prefetch_exact",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultClass, FaultEvent, FaultSite};
    use virec_workloads::{kernels, Layout, WorkloadCtor};
    use WorkloadCtor as Ctor;

    fn gather(n: u64) -> Workload {
        kernels::spatter::gather(n, Layout::for_core(0))
    }

    /// A run of `cfg` on `w` under the default options.
    fn run(cfg: CoreConfig, w: &Workload) -> Result<RunResult, SimError> {
        try_run_single(cfg, w, &RunOptions::default())
    }

    /// The [`build_slots`] of `specs`, run under `opts`.
    fn run_slots(
        specs: &[(CoreConfig, Ctor, u64)],
        opts: &RunOptions,
    ) -> Result<SystemResult, SimError> {
        try_run_slots(&build_slots(specs), opts)
    }

    #[test]
    fn banked_gather_runs_and_verifies() -> Result<(), SimError> {
        let r = run(CoreConfig::banked(4), &gather(256))?;
        assert!(r.cycles > 0);
        assert!(r.stats.instructions > 256 * 5);
        Ok(())
    }

    #[test]
    fn virec_gather_runs_and_verifies() -> Result<(), SimError> {
        let r = run(CoreConfig::virec(4, 32), &gather(256))?;
        assert!(r.stats.rf_misses > 0);
        Ok(())
    }

    #[test]
    fn oracle_recording_produces_quanta() -> Result<(), SimError> {
        let o = recorded_oracle(&gather(256), 4, &RunOptions::default())?;
        assert_eq!(o.sets.len(), 4);
        assert!(
            o.sets.iter().any(|s| s.len() > 1),
            "multiple quanta expected"
        );
        Ok(())
    }

    #[test]
    fn prefetch_exact_runs_with_recorded_oracle() -> Result<(), SimError> {
        let r = run(CoreConfig::prefetch_exact(4, 8), &gather(256))?;
        assert!(r.cycles > 0);
        Ok(())
    }

    #[test]
    fn multithreading_beats_single_thread_on_gather() -> Result<(), SimError> {
        // The core premise: TLP hides memory latency.
        let w = gather(1024);
        let one = run(CoreConfig::banked(1), &w)?;
        let four = run(CoreConfig::banked(4), &w)?;
        assert!(
            four.cycles * 2 < one.cycles * 3,
            "4 threads ({}) should clearly beat 1 thread ({})",
            four.cycles,
            one.cycles
        );
        Ok(())
    }

    #[test]
    fn budget_exhaustion_is_typed_not_a_panic() {
        let mut cfg = CoreConfig::virec(4, 32);
        cfg.max_cycles = 2_000; // far too small for 512 elements
        let err = run(cfg, &gather(512)).err();
        assert!(
            matches!(
                &err,
                Some(SimError::CycleBudgetExceeded { budget: 2_000, diag })
                    if diag.nthreads == 4 && diag.last_commit_pc.len() == 4
            ),
            "expected CycleBudgetExceeded, got {err:?}"
        );
        assert_eq!(err.map(|e| e.kind()), Some("cycle_budget"));
    }

    #[test]
    fn cancelled_gate_surfaces_as_typed_deadline() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let opts = RunOptions {
            gate: RunGate::new(token, 0),
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &gather(256), &opts).err();
        assert!(
            matches!(&err, Some(SimError::Deadline { limit_ms: 0, .. })),
            "expected Deadline, got {err:?}"
        );
        assert_eq!(err.as_ref().map(SimError::kind), Some("deadline"));
        assert!(
            !err.is_some_and(|e| e.deadline_expired()),
            "a cancellation is not an expiry"
        );
    }

    #[test]
    fn expired_deadline_stops_a_long_run() {
        // A deadline that has already passed when the loop starts polling:
        // the run must stop at the first poll with an expired trip.
        let gate = RunGate::new(crate::cancel::CancelToken::new(), 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let opts = RunOptions {
            gate,
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &gather(4096), &opts).err();
        assert_eq!(err.as_ref().map(SimError::kind), Some("deadline"));
        assert!(err.is_some_and(|e| e.deadline_expired()));
    }

    #[test]
    fn identical_runs_have_identical_digests() -> Result<(), SimError> {
        let w = kernels::stream::stream_triad(128, Layout::for_core(0));
        let a = run(CoreConfig::virec(4, 24), &w)?;
        let b = run(CoreConfig::virec(4, 24), &w)?;
        assert_eq!(a.arch_digest, b.arch_digest, "runs are deterministic");
        // A different kernel must not collide.
        let w2 = kernels::stream::reduction(128, Layout::for_core(0));
        let c = run(CoreConfig::virec(4, 24), &w2)?;
        assert_ne!(a.arch_digest, c.arch_digest);
        Ok(())
    }

    #[test]
    fn golden_digest_matches_a_clean_run() -> Result<(), SimError> {
        // The golden-side digest hashes the same byte stream as the
        // timing-side one, so a verified run must reproduce it exactly.
        let w = gather(128);
        let r = run(CoreConfig::banked(4), &w)?;
        let g = golden_arch_digest(&w, 4, 1_000_000)?;
        assert_eq!(r.arch_digest, g);
        // And at a non-zero core slot (the serve layer's failover path).
        let w1 = kernels::stream::reduction(128, Layout::for_core(1));
        let g1 = golden_arch_digest(&w1, 4, 1_000_000)?;
        assert_ne!(g, g1, "different slots/kernels must not collide");
        Ok(())
    }

    #[test]
    fn engines_agree_on_arch_digest() -> Result<(), SimError> {
        // The digest is over architectural state, so every engine that
        // verifies against the same golden model must produce the same one.
        let w = gather(256);
        let banked = run(CoreConfig::banked(4), &w)?;
        let virec = run(CoreConfig::virec(4, 32), &w)?;
        assert_eq!(banked.arch_digest, virec.arch_digest);
        Ok(())
    }

    #[test]
    fn data_segment_digest_equals_bytewise_fnv() {
        // Written, written-then-zeroed, partly zeroed and never-written
        // pages, over a page-aligned and an unaligned data span: skipping
        // never-written pages must not change the digest.
        let mut mem = FlatMem::new(0, layout::mem_size(1));
        let mut w = gather(64);
        let base = w.layout.data_base;
        mem.write_bytes(base + 0x1ff8, &[0xa5; 0x2010]);
        mem.write_u64(base + 0x9000, 0x0123_4567_89ab_cdef);
        mem.write_u64(base + 0x9000, 0);
        mem.zero_range(base + 0x2000, 0x1000);
        mem.zero_range(base + 0x3004, 8);
        mem.write_u64(base + w.layout.data_size - 8, u64::MAX);
        for (lo, size) in [(base, w.layout.data_size), (base + 0x13, 0x5432)] {
            w.layout.data_base = lo;
            w.layout.data_size = size;
            let mut paged = Fnv::new();
            paged.eat_data_segment(&mem, &w);
            let mut bytewise = Fnv::new();
            for b in mem.bytes(lo as usize, (lo + size) as usize) {
                bytewise.eat(b);
            }
            assert_eq!(paged.0, bytewise.0);
        }
    }

    #[test]
    fn two_core_system_completes_and_verifies() -> Result<(), SimError> {
        let slot = (
            CoreConfig::virec(4, 32),
            kernels::spatter::gather as Ctor,
            256,
        );
        let r = run_slots(&[slot; 2], &RunOptions::default())?;
        assert_eq!(r.per_core.len(), 2);
        assert!(r.cycles > 0);
        Ok(())
    }

    #[test]
    fn mixed_workload_system_verifies() -> Result<(), SimError> {
        let core = CoreConfig::virec(4, 32);
        let specs: [(CoreConfig, Ctor, u64); 3] = [
            (core, kernels::spatter::gather, 256),
            (core, kernels::stream::stream_triad, 256),
            (core, kernels::sparse::spmv, 64),
        ];
        let r = run_slots(&specs, &RunOptions::default())?;
        assert_eq!(r.per_core.len(), 3);
        // All three kernels committed work.
        for s in &r.per_core {
            assert!(s.instructions > 100);
        }
        Ok(())
    }

    #[test]
    fn zero_cores_is_a_typed_error() {
        let err = try_run_slots(&[], &RunOptions::default()).expect_err("must fail");
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn multi_slot_fault_plan_is_a_typed_error() {
        let slot = (CoreConfig::banked(2), kernels::spatter::gather as Ctor, 64);
        let opts = RunOptions {
            faults: FaultPlan::single(FaultEvent {
                cycle: 100,
                site: FaultSite::DramLine,
                index: 0,
                bit: 0,
                class: FaultClass::Transient,
            }),
            ..RunOptions::default()
        };
        let err = run_slots(&[slot; 2], &opts).expect_err("slot 0 only");
        assert_eq!(err.kind(), "config");
    }

    /// A run of gather n=512 under `protection` with a checkpoint every
    /// 512 cycles and `faults` scheduled, stepped to its end on each loop
    /// and handed to `check`.
    fn checkpointed(protection: ProtectionConfig, faults: &[FaultEvent], check: impl Fn(&Runner)) {
        let w = gather(512);
        for dense_loop in [false, true] {
            let opts = RunOptions {
                faults: FaultPlan {
                    events: faults.to_vec(),
                },
                protection,
                checkpoint_interval: 512,
                dense_loop,
                ..RunOptions::default()
            };
            let run = Runner::run(&[(CoreConfig::virec(8, 40), &w)], &opts, false)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(run.m.now > 4 * 512, "the run spans several grid cycles");
            check(&run);
        }
    }

    /// A flip of the first data word's bit 0 at cycle 1100.
    fn dram_flip(class: FaultClass) -> FaultEvent {
        FaultEvent {
            cycle: 1100,
            site: FaultSite::DramLine,
            index: 0,
            bit: 0,
            class,
        }
    }

    #[test]
    fn a_fault_free_run_counts_its_checkpoints_and_copies_none() {
        checkpointed(ProtectionConfig::secded(), &[], |run| {
            assert!(run.checkpoint.is_none());
            assert_eq!(run.checkpoint_clone_ns, 0);
            let ecc = &run.router.rewindable.ecc;
            assert_eq!(ecc.checkpoints_taken, run.m.now.div_ceil(512));
        });
    }

    #[test]
    fn a_transient_run_holds_a_checkpoint_until_its_event_routes() {
        // Under parity the flip is detected, not corrected, and a restore
        // repairs it only if the checkpoint of cycle 1024 is held; once
        // the event has routed, the next grid cycle drops it.
        let flip = dram_flip(FaultClass::Transient);
        checkpointed(ProtectionConfig::parity(), &[flip], |run| {
            assert_eq!(run.router.rewindable.ecc.restores, 1);
            assert!(run.checkpoint.is_none());
        });
    }

    #[test]
    fn a_stuck_at_run_without_ras_holds_a_checkpoint_to_its_end() {
        // SEC-DED corrects every firing of the defect, which re-arms each
        // time, so every grid cycle is copied, the last one included.
        let stuck = dram_flip(FaultClass::StuckAt { period: 400 });
        checkpointed(ProtectionConfig::secded(), &[stuck], |run| {
            assert!(run.router.rewindable.ecc.corrected > 1);
            let held = run.checkpoint.as_ref().map(|ck| ck.cycle);
            assert_eq!(held, Some((run.m.now - 1) / 512 * 512));
        });
    }

    #[test]
    fn mean_core_ipc_of_an_empty_result_is_zero() {
        let r = SystemResult {
            cycles: 100,
            per_core: Vec::new(),
            fabric: FabricStats::default(),
        };
        assert_eq!(r.mean_core_ipc(), 0.0);
    }

    #[test]
    fn heterogeneous_engines_share_the_fabric() -> Result<(), SimError> {
        // A banked core and a ViReC core contend for the same DRAM; both
        // must verify, and both make progress.
        let specs: [(CoreConfig, Ctor, u64); 2] = [
            (CoreConfig::banked(4), kernels::spatter::gather, 256),
            (CoreConfig::virec(8, 52), kernels::spatter::gather, 256),
        ];
        let r = run_slots(&specs, &RunOptions::default())?;
        assert!(r.per_core[0].instructions > 1000);
        assert!(r.per_core[1].instructions > 1000);
        // The ViReC core ran 8 threads, the banked core 4.
        assert!(r.per_core[1].context_switches > r.per_core[0].context_switches / 4);
        Ok(())
    }

    #[test]
    fn budget_derives_from_core_configs_and_is_typed() {
        let mut core = CoreConfig::banked(4);
        core.max_cycles = 3_000; // far too small for 512 elements
        let slot = (core, kernels::spatter::gather as Ctor, 512);
        let err = run_slots(&[slot; 2], &RunOptions::default()).unwrap_err();
        match &err {
            SimError::CycleBudgetExceeded { budget, diag } => {
                assert_eq!(*budget, 3_000);
                assert!(!diag.workload.is_empty());
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_budget_takes_the_max() -> Result<(), SimError> {
        let (mut tiny, mut small) = (CoreConfig::banked(2), CoreConfig::banked(2));
        tiny.max_cycles = 100;
        small.max_cycles = 200;
        let big = CoreConfig::virec(4, 32); // preset budget 200M
        let g = kernels::spatter::gather as Ctor;
        let opts = RunOptions::default();
        // Two budgets too small to finish in: the run is held to the larger.
        let err = run_slots(&[(tiny, g, 64), (small, g, 64)], &opts)
            .expect_err("both budgets are too small");
        assert!(
            matches!(err, SimError::CycleBudgetExceeded { budget: 200, .. }),
            "{err}"
        );
        // The generous budget lets both cores finish despite `small`'s cap.
        let r = run_slots(&[(small, g, 64), (big, g, 64)], &opts)?;
        assert!(r.cycles > 0);
        Ok(())
    }

    #[test]
    fn contention_slows_cores_down() -> Result<(), SimError> {
        // Per-core IPC must drop as more cores share the fabric.
        let slot = (CoreConfig::banked(4), kernels::spatter::gather as Ctor, 512);
        let one = run_slots(&[slot], &RunOptions::default())?;
        let four = run_slots(&[slot; 4], &RunOptions::default())?;
        let ipc1 = one.per_core[0].ipc();
        let ipc4 = four.per_core[0].ipc();
        assert!(
            ipc4 < ipc1,
            "core 0 IPC should drop under contention: {ipc4} vs {ipc1}"
        );
        Ok(())
    }
}
