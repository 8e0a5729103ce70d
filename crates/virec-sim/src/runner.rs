//! Single-core experiment runner.
//!
//! [`try_run_single`] is the fallible core: it steps a one-core machine
//! through the shared step loop with a forward-progress watchdog, hooks in
//! the checkpoint ring, the patrol scrubber and any scheduled [`FaultPlan`],
//! and verifies the final architectural state against the golden
//! interpreter, returning a typed [`SimError`] instead of panicking.
//! [`run_single`] is the thin panicking wrapper the examples and figure
//! binaries use.

use crate::cancel::RunGate;
use crate::ecc::{protect_word, EccStats, ProtectionConfig, ProtectionLevel, WordVerdict};
use crate::error::{DivergenceSite, RunDiagnostics, SimError};
use crate::fault::{engine_fault_of, FaultEvent, FaultPlan, FaultSite};
use crate::machine::{self, Driver, Machine, Step};
use crate::offload::offload;
use crate::ras::{CeRegion, CeTracker, RasConfig, RasStats, RetiredRegion, Scrubber};
use crate::watchdog::{Watchdog, DEFAULT_LIVELOCK_CYCLES};
use std::collections::{HashMap, VecDeque};
use virec_core::engines::ROLLBACK_DEPTH;
use virec_core::{Core, CoreConfig, CoreStats, EngineKind, OracleSchedule, QuantumTrace};
use virec_isa::{Chunk, ExecOutcome, FlatMem, Interpreter, Reg, ThreadCtx};
use virec_mem::{Fabric, FabricConfig, FabricStats, LinkRetireOutcome, RetireOutcome};
use virec_workloads::{layout, Workload};

/// Default architectural-checkpoint spacing: the rollback depth (the
/// backend's in-flight window, §5.1) times a nominal 256-cycle scheduling
/// quantum — deep enough that checkpointing stays off the critical path,
/// shallow enough that replay after a detected-uncorrectable fault is a
/// small fraction of a run.
pub fn default_checkpoint_interval() -> u64 {
    ROLLBACK_DEPTH as u64 * 256
}

/// Options for a single-core run.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Fabric (crossbar + DRAM) configuration.
    pub fabric: FabricConfig,
    /// Check final architectural state against the golden interpreter
    /// (cheap insurance; on by default).
    pub verify: bool,
    /// Record per-quantum register sets for the prefetch oracle (read off
    /// the quantum trace by [`OracleSchedule::from_trace`]).
    pub record_oracle: bool,
    /// Oracle to feed an exact-context prefetching core.
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
    /// Depth of the in-memory checkpoint ring (ignored when
    /// checkpointing is disabled).
    pub checkpoint_depth: usize,
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
            record_oracle: false,
            oracle: OracleSchedule::default(),
            livelock_cycles: DEFAULT_LIVELOCK_CYCLES,
            faults: FaultPlan::empty(),
            protection: ProtectionConfig::none(),
            checkpoint_interval: 0,
            checkpoint_depth: 4,
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
    /// Recorded oracle (empty unless requested).
    pub oracle: OracleSchedule,
    /// Descriptions of the injected faults that actually landed.
    pub faults_applied: Vec<String>,
    /// FNV digest of the final architectural state (all thread registers
    /// plus the data segment) — used by fault campaigns to distinguish
    /// masked faults from silent corruptions.
    pub arch_digest: u64,
    /// Protection-model and checkpoint/replay counters (all zero unless
    /// the run carried a fault plan with protection or checkpointing on).
    pub ecc: EccStats,
    /// Wall-clock nanoseconds spent snapshotting into the checkpoint ring
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

/// Fallible single-core run: returns a typed error instead of panicking.
///
/// The cycle loop distinguishes *livelock* (no commit for
/// [`RunOptions::livelock_cycles`] — the machine is wedged, reported with a
/// full pipeline/engine/MSHR dump) from a *slow run* (commits still landing
/// when `CoreConfig::max_cycles` runs out — a budget problem). If the
/// options carry a [`FaultPlan`], events are applied at their scheduled
/// cycles and any subsequent failure is wrapped in
/// [`SimError::FaultDetected`] so campaign drivers can attribute it.
pub fn try_run_single(
    cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
) -> Result<RunResult, SimError> {
    try_run_single_impl(cfg, workload, opts, false).map(|(r, _)| r)
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
    try_run_single_impl(cfg, workload, opts, true)
}

fn try_run_single_impl(
    mut cfg: CoreConfig,
    workload: &Workload,
    opts: &RunOptions,
    want_trace: bool,
) -> Result<(RunResult, QuantumTrace), SimError> {
    // The RAS layer provisions its spare CAM ways at core construction:
    // they are physically present (priced by virec-area) but masked until
    // a retirement activates one.
    if let Some(rc) = &opts.ras {
        if cfg.engine == EngineKind::ViReC {
            cfg.spare_ways = rc.spare_ways as usize;
        }
    }
    let mut mem = FlatMem::new(
        0,
        layout::mem_size(1).max((workload.layout.data_base + workload.layout.data_size) as usize),
    );
    let region = offload(&mut mem, workload, cfg.nthreads);

    let mut core = Core::with_oracle(
        cfg,
        workload.program().clone(),
        region,
        workload.layout.code_base,
        (0, 1),
        opts.oracle.clone(),
    );
    if opts.record_oracle || want_trace {
        core.enable_quantum_trace();
    }

    let mut fabric = Fabric::new(opts.fabric);
    if let Some(rc) = &opts.ras {
        fabric.provision_spare_rows(rc.spare_rows);
    }
    let mut run = Single {
        m: Machine::new(
            vec![core],
            fabric,
            mem,
            opts.livelock_cycles,
            cfg.max_cycles,
        ),
        opts,
        workload,
        pending: opts.faults.events.clone(),
        faults_applied: Vec::new(),
        ecc: EccStats::default(),
        checkpoints: VecDeque::new(),
        checkpoint_clone_ns: 0,
        ras: RasStats::default(),
        tracker: CeTracker::new(
            opts.ras.map_or(1, |rc| rc.ce_threshold),
            opts.ras.map_or(0, |rc| rc.ce_leak_interval),
        ),
        scrubber: opts.ras.and_then(|rc| {
            (rc.scrub_interval > 0).then(|| {
                Scrubber::new(vec![
                    (region.base, region.size()),
                    (workload.layout.data_base, workload.layout.data_size),
                ])
            })
        }),
        retired_log: Vec::new(),
        retired_families: Vec::new(),
        due_restores: HashMap::new(),
    };
    let outcome = machine::run(&mut run, &opts.gate, opts.dense_loop).and_then(|()| {
        let m = &mut run.m;
        let core = &mut m.slots[0];
        core.finalize_stats();
        core.drain(&mut m.mem);
        if opts.verify {
            try_verify_against_golden(workload, cfg.nthreads, core, &m.mem, m.now)?;
        }
        Ok(())
    });
    if let Err(e) = outcome {
        // Any failure after a fault landed is attributed to the faults.
        return Err(if run.faults_applied.is_empty() {
            e
        } else {
            SimError::FaultDetected {
                diag: Box::new(e.diagnostics().clone()),
                faults: run.faults_applied,
                cause: Box::new(e),
            }
        });
    }
    let core = &mut run.m.slots[0];
    let trace = core.take_quantum_trace();
    let oracle = if opts.record_oracle {
        OracleSchedule::from_trace(&trace, cfg.nthreads)
    } else {
        OracleSchedule::default()
    };
    Ok((
        RunResult {
            cycles: run.m.now,
            stats: *core.stats(),
            arch_digest: arch_digest(core, &run.m.mem, workload, cfg.nthreads),
            oracle,
            faults_applied: run.faults_applied,
            ecc: run.ecc,
            checkpoint_clone_ns: run.checkpoint_clone_ns,
            ras: run.ras,
            fabric: *run.m.fabric.stats(),
        },
        trace,
    ))
}

/// One entry of the in-memory checkpoint ring: a deep copy of the machine
/// (core, fabric, functional memory) plus the injection bookkeeping needed
/// to replay deterministically from this cycle. The memory copy costs only
/// the pages the run has written, and shares none of them with the live
/// image.
struct Checkpoint {
    cycle: u64,
    core: Core,
    fabric: Fabric,
    mem: FlatMem,
    pending: Vec<FaultEvent>,
    faults_applied: Vec<String>,
    ecc: EccStats,
}

/// The single-core runner as a [`Driver`] of the shared step loop: the
/// checkpoint ring, the patrol scrubber and fault/ECC/RAS routing hook in
/// around the ticks, and their schedules join the skip step's wakeups.
struct Single<'a> {
    m: Machine<Core>,
    opts: &'a RunOptions,
    workload: &'a Workload,
    pending: Vec<FaultEvent>,
    faults_applied: Vec<String>,
    ecc: EccStats,
    checkpoints: VecDeque<Checkpoint>,
    checkpoint_clone_ns: u64,
    // RAS state lives *outside* the checkpoint ring: a physical repair
    // (a masked way, a remapped row) survives an architectural rollback.
    // Restores clone the machine from the ring, so the retirement log is
    // replayed onto every restored clone.
    ras: RasStats,
    tracker: CeTracker,
    scrubber: Option<Scrubber>,
    retired_log: Vec<RetiredRegion>,
    retired_families: Vec<(FaultSite, u64)>,
    due_restores: HashMap<(FaultSite, u64), u32>,
}

impl Driver for Single<'_> {
    type Slot = Core;

    fn machine(&mut self) -> &mut Machine<Core> {
        &mut self.m
    }

    fn running(&self) -> bool {
        !self.m.slots[0].done()
    }

    fn diag(&self) -> Box<RunDiagnostics> {
        RunDiagnostics::capture(self.workload.name, &self.m.slots[0], self.m.now)
    }

    fn dump(&self) -> String {
        self.m.slots[0].debug_dump()
    }

    fn begin(&mut self) -> Result<Step, SimError> {
        let now = self.m.now;
        let interval = self.opts.checkpoint_interval;
        if interval > 0 && now.is_multiple_of(interval) {
            self.checkpoint();
        }
        if let (Some(rc), Some(_)) = (&self.opts.ras, &self.scrubber) {
            if now.is_multiple_of(rc.scrub_interval) {
                self.scrub();
            }
        }
        Ok(Step::Tick)
    }

    fn end_tick(&mut self) -> Result<bool, SimError> {
        if self.pending.is_empty() {
            return Ok(false);
        }
        self.inject()
    }

    /// Pending faults, the checkpoint grid and the scrub grid: the clock
    /// must land on each of them exactly as the dense loop does.
    fn wakeup(&self) -> u64 {
        let now = self.m.now;
        let mut wake = self
            .pending
            .iter()
            .map(|ev| ev.cycle)
            .min()
            .unwrap_or(u64::MAX);
        if self.opts.checkpoint_interval > 0 {
            wake = wake.min(now.next_multiple_of(self.opts.checkpoint_interval));
        }
        if let (Some(rc), Some(_)) = (&self.opts.ras, &self.scrubber) {
            wake = wake.min(now.next_multiple_of(rc.scrub_interval));
        }
        wake
    }
}

impl Single<'_> {
    /// Snapshots the machine into the checkpoint ring. Cold, like
    /// [`Single::scrub`], so the per-step hook that calls it stays small.
    #[cold]
    fn checkpoint(&mut self) {
        let snap_start = std::time::Instant::now();
        // Evict before cloning, so the ring never holds depth + 1 images.
        if self.checkpoints.len() == self.opts.checkpoint_depth.max(1) {
            self.checkpoints.pop_front();
        }
        self.checkpoints.push_back(Checkpoint {
            cycle: self.m.now,
            core: self.m.slots[0].clone(),
            fabric: self.m.fabric.clone(),
            mem: self.m.mem.clone(),
            pending: self.pending.clone(),
            faults_applied: self.faults_applied.clone(),
            ecc: self.ecc,
        });
        self.checkpoint_clone_ns += snap_start.elapsed().as_nanos() as u64;
        self.ecc.checkpoints_taken += 1;
    }

    /// Patrol read: a real fabric request that occupies the target bank
    /// like demand traffic — scrubbing is not free bandwidth. A persistent
    /// defect whose cells sit in the line just scrubbed registers a
    /// correctable error with the CE tracker before demand traffic trips
    /// over it.
    #[cold]
    fn scrub(&mut self) {
        let Some(addr) = self.scrubber.as_mut().and_then(Scrubber::next_line) else {
            return;
        };
        self.m.fabric.submit_scrub(self.m.now, addr);
        self.ras.scrub_reads += 1;
        let line = addr & !(virec_mem::LINE_BYTES - 1);
        let mut hits: Vec<(FaultEvent, u64)> = Vec::new();
        for ev in &self.pending {
            if ev.class.is_persistent()
                && matches!(ev.site, FaultSite::BackingReg | FaultSite::DramLine)
            {
                if let Some((waddr, _)) = self.word_target(ev) {
                    if waddr & !(virec_mem::LINE_BYTES - 1) == line {
                        hits.push((*ev, waddr));
                    }
                }
            }
        }
        let mut seen: Vec<(FaultSite, u64)> = Vec::new();
        for (ev, waddr) in hits {
            let fam = ev.family();
            if seen.contains(&fam) || self.retired_families.contains(&fam) {
                continue;
            }
            seen.push(fam);
            if self.charge(CeRegion::Row(self.m.fabric.row_key(waddr))) {
                self.retire_family(&ev, Some(waddr));
                self.pending.retain(|e| e.family() != fam);
            }
        }
    }

    /// Feeds one correctable error to the CE tracker; `true` when the
    /// region crossed the threshold and is retired predictively.
    fn charge(&mut self, region: CeRegion) -> bool {
        self.ras.ce_observations += 1;
        let retire = self.tracker.charge(region, self.m.now);
        if retire {
            self.ras.predictive_retirements += 1;
        }
        retire
    }

    /// Applies the fault events due this cycle; `Ok(true)` when a
    /// detected-uncorrectable group rewound the machine to a checkpoint.
    fn inject(&mut self) -> Result<bool, SimError> {
        let now = self.m.now;
        // Collect every event due this cycle, then group the ones that
        // hit the same word of the same site — that is a multi-bit
        // upset, and the protection model must see it whole (a
        // double-bit flip is one DUE, not two correctable singles).
        let mut due: Vec<FaultEvent> = Vec::new();
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].cycle <= now {
                let ev = self.pending.swap_remove(i);
                if self.retired_families.contains(&ev.family()) {
                    // The region is out of service — its cells are no
                    // longer wired to anything. The assertion is
                    // dropped and the family is not re-armed.
                    self.ras.suppressed_assertions += 1;
                    continue;
                }
                // Persistent classes re-assert: schedule the next
                // firing up front so the skip step's wakeups cover it
                // like any scheduled event.
                if let Some((period, next)) = ev.class.rearm() {
                    self.pending.push(FaultEvent {
                        cycle: now + period,
                        class: next,
                        ..ev
                    });
                }
                due.push(ev);
            } else {
                i += 1;
            }
        }
        let mut groups: Vec<Vec<FaultEvent>> = Vec::new();
        for ev in due {
            match groups
                .iter_mut()
                .find(|g| g[0].site == ev.site && g[0].index == ev.index)
            {
                Some(g) => g.push(ev),
                None => groups.push(vec![ev]),
            }
        }
        let mut suppress: Vec<FaultEvent> = Vec::new();
        let mut detected_desc = String::new();
        for group in &groups {
            if group[0].site == FaultSite::NocLink {
                for ev in group {
                    self.link_upset(ev);
                }
                continue;
            }
            let corrected_before = self.ecc.corrected;
            if let Some(desc) = self.protect(group) {
                suppress.extend_from_slice(group);
                detected_desc = desc;
            }
            // Predictive sparing: every *corrected* assertion of a
            // persistent defect charges the region's leaky bucket; at
            // the threshold the region is retired before a second cell
            // failure can turn correctable into uncorrectable.
            let ev = group[0];
            let fam = ev.family();
            if self.opts.ras.is_some()
                && self.ecc.corrected > corrected_before
                && ev.class.is_persistent()
                && !self.retired_families.contains(&fam)
            {
                let waddr = self.word_target(&ev).map(|(a, _)| a);
                let region = match waddr {
                    Some(a) => CeRegion::Row(self.m.fabric.row_key(a)),
                    None => CeRegion::Site(ev.index),
                };
                if self.charge(region) {
                    self.retire_family(&ev, waddr);
                    self.pending.retain(|e| e.family() != fam);
                }
            }
        }
        if suppress.is_empty() {
            return Ok(false);
        }
        self.recover(&suppress, detected_desc)?;
        Ok(true)
    }

    /// Link upsets never reach the word-protection model: the per-hop CRC
    /// detects the corrupted flit in transit and the nack/retransmit
    /// protocol delivers a clean copy, so the upset is corrected at the
    /// link layer. Persistent defects charge the link's CE leaky bucket
    /// toward predictive retirement (route-around) or, when no route would
    /// survive, degraded fencing.
    fn link_upset(&mut self, ev: &FaultEvent) {
        let now = self.m.now;
        let Some(link) = self.m.fabric.inject_link_fault(ev.index) else {
            // Crossbar topology, or the link is already out of service:
            // nothing left to corrupt.
            return;
        };
        self.ecc.corrected += 1;
        self.faults_applied.push(format!(
            "cycle {now}: noc link {link} upset (crc caught, retransmitted)"
        ));
        let fam = ev.family();
        if self.opts.ras.is_none()
            || !ev.class.is_persistent()
            || self.retired_families.contains(&fam)
            || !self.charge(CeRegion::Link(link))
        {
            return;
        }
        match self
            .m
            .fabric
            .retire_link(link)
            .expect("mesh confirmed by inject_link_fault")
        {
            LinkRetireOutcome::Rerouted => {
                self.faults_applied.push(format!(
                    "cycle {now}: ras retired noc link {link} (rerouted)"
                ));
            }
            LinkRetireOutcome::Fenced => {
                self.ras.degraded_regions += 1;
                self.faults_applied.push(format!(
                    "cycle {now}: ras fenced noc link {link} \
                     (half bandwidth, no surviving route)"
                ));
            }
        }
        self.retired_log.push(RetiredRegion::Link { link });
        self.retired_families.push(fam);
        self.pending.retain(|e| e.family() != fam);
    }

    /// Recovery from a detected-uncorrectable group: rewinds to the newest
    /// checkpoint (snapshotted before this cycle's injection) and replays
    /// with the detected fault suppressed, or fails typed.
    fn recover(&mut self, suppress: &[FaultEvent], detected_desc: String) -> Result<(), SimError> {
        let detect_cycle = self.m.now;
        // Persistent faults cannot be outlived by replay alone — the cells
        // stay broken. Without the RAS layer the runner bounds the retry
        // loop: a defect family that trips a second detected-uncorrectable
        // after a restore fails the run with a typed error instead of
        // replaying forever.
        if self.opts.ras.is_none() {
            for fam in suppress
                .iter()
                .filter(|e| e.class.is_persistent())
                .map(FaultEvent::family)
            {
                let c = self.due_restores.entry(fam).or_insert(0);
                *c += 1;
                if *c >= 2 {
                    return Err(SimError::Uncorrectable {
                        site: fam.0.to_string(),
                        detail: format!(
                            "persistent fault at {} index {} re-asserted after a \
                             checkpoint replay; no RAS layer to retire the region",
                            fam.0, fam.1
                        ),
                        diag: self.diag(),
                    });
                }
            }
        }
        let Some(ck) = self.checkpoints.back() else {
            return Err(SimError::Uncorrectable {
                site: suppress[0].site.to_string(),
                detail: detected_desc,
                diag: self.diag(),
            });
        };
        let (ck_cycle, ck_ecc) = (ck.cycle, ck.ecc);
        self.m.slots[0] = ck.core.clone();
        self.m.fabric = ck.fabric.clone();
        self.m.mem = ck.mem.clone();
        self.pending = ck.pending.clone();
        self.faults_applied = ck.faults_applied.clone();
        self.m.now = ck_cycle;
        // Transient members of the detected group are suppressed for the
        // replay; persistent members stay armed — only a retirement (below)
        // or the bounded-restore tripwire above removes them.
        self.pending
            .retain(|e| !suppress.contains(e) || e.class.is_persistent());
        // Physical repairs survive the rollback: replay the retirement log
        // onto the restored clone. Stats are not recounted, and spare
        // numbering re-applies in log order, hence deterministically.
        let Machine {
            slots, fabric, mem, ..
        } = &mut self.m;
        for r in &self.retired_log {
            match *r {
                RetiredRegion::Way { idx, spared } => {
                    slots[0].remask_way(idx, spared, fabric, mem);
                }
                RetiredRegion::Row { addr, .. } => {
                    fabric.retire_row(addr);
                }
                RetiredRegion::Link { link } => {
                    // Re-decides rerouted-vs-fenced on the restored fabric;
                    // log order makes the outcome deterministic.
                    let _ = fabric.retire_link(link);
                }
            }
        }
        // Demand retirement: with RAS on, a detected uncorrectable in a
        // persistent region retires it on the restored machine, so the
        // replay cannot trip over the same defect again.
        if self.opts.ras.is_some() {
            let mut fams: Vec<FaultEvent> = Vec::new();
            for ev in suppress.iter().filter(|e| e.class.is_persistent()) {
                if !self.retired_families.contains(&ev.family())
                    && !fams.iter().any(|f| f.family() == ev.family())
                {
                    fams.push(*ev);
                }
            }
            for ev in fams {
                let waddr = self.word_target(&ev).map(|(a, _)| a);
                self.ras.demand_retirements += 1;
                self.retire_family(&ev, waddr);
            }
            let retired = &self.retired_families;
            self.pending.retain(|e| !retired.contains(&e.family()));
        }
        // Correction/escape counters rewind with the state (re-fired
        // events in the replay window re-count); the cumulative recovery
        // counters carry forward.
        let ecc = &mut self.ecc;
        let (taken, restores, replay) = (ecc.checkpoints_taken, ecc.restores, ecc.replay_cycles);
        *ecc = ck_ecc;
        ecc.checkpoints_taken = taken;
        ecc.detected_uncorrectable += 1;
        ecc.restores = restores + 1;
        ecc.replay_cycles = replay + (detect_cycle - ck_cycle);
        self.faults_applied.push(format!(
            "{detected_desc}; restored checkpoint @ cycle {ck_cycle} (replaying {} cycles)",
            detect_cycle - ck_cycle
        ));
        // The watchdog restarts, and the poll schedule rewinds with the
        // clock so the replay window stays responsive to cancellation.
        self.m.watchdog = Watchdog::new(self.opts.livelock_cycles);
        self.m.next_poll = ck_cycle;
        Ok(())
    }

    /// Takes the physical region behind one persistent fault family out of
    /// service: masks a VRMU way (activating a spare when provisioned) or
    /// retires a DRAM row through the remap table (consuming a spare row or
    /// fencing onto the shared remnant row). Regions without retirable
    /// cells — control state, transport, a banked engine's register cells —
    /// are fenced logically: the family is dropped and the loss is
    /// accounted as degraded capacity. Migration of a retired row's data is
    /// modeled as real scrub-read traffic through the fabric.
    fn retire_family(&mut self, ev: &FaultEvent, word_addr: Option<u64>) {
        let now = self.m.now;
        let Machine {
            slots, fabric, mem, ..
        } = &mut self.m;
        let (ras, applied) = (&mut self.ras, &mut self.faults_applied);
        match (ev.site, word_addr) {
            (FaultSite::TagValue, _) => {
                match slots[0].retire_value_way(ev.index, true, fabric, mem) {
                    Some(w) => {
                        if !w.spared {
                            ras.degraded_regions += 1;
                        }
                        applied.push(format!("cycle {now}: ras {}", w.desc));
                        self.retired_log.push(RetiredRegion::Way {
                            idx: w.idx,
                            spared: w.spared,
                        });
                    }
                    None => {
                        // No maskable way (banked engine) or the store is at
                        // its in-flight floor: fence the family logically and
                        // run on with the capacity loss.
                        ras.degraded_regions += 1;
                        applied.push(format!(
                            "cycle {now}: ras fenced unmaskable way family index {}",
                            ev.index
                        ));
                    }
                }
            }
            (
                FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse,
                Some(addr),
            ) => {
                let outcome = fabric.retire_row(addr);
                let spared = matches!(outcome, RetireOutcome::Spared { .. });
                if !spared {
                    ras.degraded_regions += 1;
                }
                // Data migration: the row's live lines are copied to the
                // replacement row through the fabric — repair bandwidth is
                // real bandwidth, so it contends with demand traffic.
                let lines = fabric.config().dram.lines_per_row.min(32);
                let base = addr & !(virec_mem::LINE_BYTES - 1);
                for i in 0..lines {
                    fabric.submit_scrub(now, base + i * virec_mem::LINE_BYTES);
                }
                ras.migrated_lines += lines;
                applied.push(format!(
                    "cycle {now}: ras retired row behind {addr:#x} ({})",
                    if spared { "spared" } else { "fenced" }
                ));
                self.retired_log.push(RetiredRegion::Row { addr, spared });
            }
            _ => {
                ras.degraded_regions += 1;
                applied.push(format!(
                    "cycle {now}: ras fenced non-retirable site {} index {}",
                    ev.site, ev.index
                ));
            }
        }
        self.retired_families.push(ev.family());
    }

    /// Routes one fault group (same cycle, same site, same word) through the
    /// coverage map and applies whatever the modeled hardware lets through.
    /// Returns the description of a detected-uncorrectable group: the
    /// machine was *not* corrupted (the detection is precise), and the
    /// runner must either restore a checkpoint or fail with
    /// [`SimError::Uncorrectable`]. `None` when the group was absorbed
    /// (corrected, not applicable) or applied (pass-through, parity escape).
    fn protect(&mut self, group: &[FaultEvent]) -> Option<String> {
        let now = self.m.now;
        let protection = &self.opts.protection;
        let site = group[0].site;
        let level = protection.level(site);
        if level == ProtectionLevel::None {
            for ev in group {
                if let Some(desc) = self.apply_fault(ev) {
                    if !protection.is_none() {
                        self.ecc.unprotected += 1;
                    }
                    self.faults_applied.push(format!("cycle {now}: {desc}"));
                }
            }
            return None;
        }
        let (ecc, applied) = (&mut self.ecc, &mut self.faults_applied);
        let core = &mut self.m.slots[0];
        match site {
            FaultSite::TagValue | FaultSite::RollbackSlot => {
                // Probe applicability on a deep copy so detected or corrected
                // flips never touch the real machine — the check bits caught
                // them before any consumer read the entry.
                let mut probe = core.clone();
                let landed: Vec<String> = group
                    .iter()
                    .filter_map(engine_fault_of)
                    .filter_map(|f| probe.inject_fault(f))
                    .collect();
                let n = landed.len();
                if n == 0 {
                    return None; // structure empty: nothing to protect
                }
                match level {
                    ProtectionLevel::Parity if n % 2 == 1 => {
                        ecc.detected_uncorrectable += 1;
                        let desc = format!(
                            "cycle {now}: parity detected {} ({})",
                            site,
                            landed.join("; ")
                        );
                        applied.push(desc.clone());
                        Some(desc)
                    }
                    ProtectionLevel::Parity => {
                        // Even-weight flip: the parity bit is blind to it. The
                        // corruption goes through for real and the differential
                        // checker is the only remaining net.
                        for f in group.iter().filter_map(engine_fault_of) {
                            core.inject_fault(f);
                        }
                        ecc.parity_escapes += 1;
                        applied.push(format!(
                            "cycle {now}: parity escape {} ({})",
                            site,
                            landed.join("; ")
                        ));
                        None
                    }
                    ProtectionLevel::SecDed if n == 1 => {
                        ecc.corrected += 1;
                        applied.push(format!(
                            "cycle {now}: secded corrected {} ({})",
                            site, landed[0]
                        ));
                        None
                    }
                    ProtectionLevel::SecDed if n == 2 => {
                        ecc.detected_uncorrectable += 1;
                        let desc = format!(
                            "cycle {now}: secded detected double-bit {} ({})",
                            site,
                            landed.join("; ")
                        );
                        applied.push(desc.clone());
                        Some(desc)
                    }
                    _ => {
                        // ≥ 3 simultaneous flips: beyond the SEC-DED guarantee;
                        // modeled as raw pass-through.
                        for f in group.iter().filter_map(engine_fault_of) {
                            core.inject_fault(f);
                        }
                        ecc.unprotected += n as u64;
                        applied.push(format!("cycle {now}: {} flips passed {}", n, site));
                        None
                    }
                }
            }
            FaultSite::StuckFill => unreachable!("stuck-fill is never protected"),
            FaultSite::NocLink => unreachable!("link upsets are handled at the link layer"),
            FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse => {
                // `None`: target out of range / no in-flight request.
                let (addr, base) = self.word_target(&group[0])?;
                let mask: u64 = group.iter().fold(0, |m, ev| m ^ (1u64 << (ev.bit % 64)));
                if mask == 0 {
                    return None; // flips cancelled each other
                }
                let word = self.m.mem.read_u64(addr);
                let verdict = protect_word(level, word, mask);
                if verdict == WordVerdict::Landed {
                    self.m.mem.write_u64(addr, word ^ mask);
                }
                let (ecc, applied) = (&mut self.ecc, &mut self.faults_applied);
                let parity = level == ProtectionLevel::Parity;
                match verdict {
                    WordVerdict::Corrected => {
                        ecc.corrected += 1;
                        applied.push(format!(
                            "cycle {now}: secded corrected {base} bit {}",
                            mask.trailing_zeros()
                        ));
                        None
                    }
                    WordVerdict::Detected => {
                        ecc.detected_uncorrectable += 1;
                        let double = if parity { "" } else { "double-bit " };
                        let desc =
                            format!("cycle {now}: {level} detected {double}{base} mask {mask:#x}");
                        applied.push(desc.clone());
                        Some(desc)
                    }
                    WordVerdict::Landed if parity => {
                        ecc.parity_escapes += 1;
                        applied.push(format!("cycle {now}: parity escape {base} mask {mask:#x}"));
                        None
                    }
                    WordVerdict::Landed => {
                        ecc.unprotected += group.len() as u64;
                        applied.push(format!(
                            "cycle {now}: {} flips passed {base} mask {mask:#x}",
                            mask.count_ones()
                        ));
                        None
                    }
                }
            }
        }
    }

    /// Resolves a word-site fault event to the memory word it targets.
    /// Returns `(address, description)` or `None` when the target is out of
    /// range (or, for `FabricResponse`, when no request is in flight).
    fn word_target(&self, event: &FaultEvent) -> Option<(u64, String)> {
        let mem_end = self.m.mem.size() as u64;
        let layout = &self.workload.layout;
        match event.site {
            FaultSite::BackingReg => {
                let core = &self.m.slots[0];
                let nthreads = core.config().nthreads as u64;
                let t = (event.index % nthreads) as usize;
                let r = Reg::new(((event.index / nthreads) % 31) as u8);
                let addr = core.region().reg_addr(t, r);
                (addr + 8 <= mem_end).then(|| (addr, format!("backing-store t{t} {r}")))
            }
            FaultSite::DramLine => {
                let words = (layout.data_size / 8).max(1);
                let addr = layout.data_base + (event.index % words) * 8;
                (addr + 8 <= mem_end).then(|| (addr, format!("dram word {addr:#x}")))
            }
            FaultSite::FabricResponse => {
                let addr = self.m.fabric.inflight_addr(event.index as usize)?;
                let line = addr & !63;
                let word = line + (event.bit as u64 % 8) * 8;
                (word + 8 <= mem_end).then(|| {
                    (
                        word,
                        format!("fabric response line {line:#x} word {}", event.bit % 8),
                    )
                })
            }
            _ => None,
        }
    }

    /// Applies one fault event to the live machine with no protection in
    /// the way. Returns a description when the fault landed, `None` when
    /// the targeted structure had nothing to corrupt (e.g. a VRMU site on a
    /// banked engine, or no in-flight request).
    fn apply_fault(&mut self, event: &FaultEvent) -> Option<String> {
        match event.site {
            FaultSite::TagValue | FaultSite::RollbackSlot | FaultSite::StuckFill => {
                self.m.slots[0].inject_fault(engine_fault_of(event)?)
            }
            FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse => {
                let (addr, base) = self.word_target(event)?;
                let v = self.m.mem.read_u64(addr);
                self.m.mem.write_u64(addr, v ^ (1u64 << (event.bit % 64)));
                Some(format!("{base} bit {}", event.bit % 64))
            }
            // Link upsets are consumed by the CRC/retransmission path in
            // the run loop, never applied raw (the flit payload is
            // timing-only).
            FaultSite::NocLink => None,
        }
    }
}

/// Runs `workload` on a single core with `nthreads` hardware threads.
///
/// ```
/// use virec_core::CoreConfig;
/// use virec_sim::runner::{run_single, RunOptions};
/// use virec_workloads::{kernels, Layout};
///
/// let w = kernels::stream::reduction(256, Layout::for_core(0));
/// let r = run_single(CoreConfig::virec(4, 24), &w, &RunOptions::default());
/// assert!(r.ipc() > 0.0);
/// assert!(r.stats.instructions > 256);
/// ```
///
/// # Panics
/// Panics with the [`SimError`] display if the run exceeds the configured
/// cycle limit, livelocks, or (with `verify`) diverges from the golden
/// interpreter. Use [`try_run_single`] to handle failures structurally.
pub fn run_single(cfg: CoreConfig, workload: &Workload, opts: &RunOptions) -> RunResult {
    try_run_single(cfg, workload, opts).unwrap_or_else(|e| panic!("{e}"))
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
    let mem_size =
        layout::mem_size(1).max((workload.layout.data_base + workload.layout.data_size) as usize);
    let mut gold_mem = FlatMem::new(0, mem_size);
    workload.init_mem(&mut gold_mem);
    let mut ctxs = Vec::with_capacity(nthreads);
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
                diag: RunDiagnostics::placeholder(workload.name),
            });
        }
        ctxs.push(ctx);
    }
    let mut h = Fnv::new();
    for ctx in &ctxs {
        for r in Reg::allocatable() {
            h.eat_u64(ctx.get(r));
        }
    }
    h.eat_data_segment(&gold_mem, workload);
    Ok(h.0)
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

/// Fallible form of [`verify_against_golden`]: compares a finished core's
/// architectural state (registers and data segment) against a fresh
/// golden-interpreter run of the same workload.
pub fn try_verify_against_golden(
    workload: &Workload,
    nthreads: usize,
    core: &Core,
    mem: &FlatMem,
    cycles: u64,
) -> Result<(), SimError> {
    let diag = || RunDiagnostics::capture(workload.name, core, cycles);
    let step_cap = golden_step_cap(core.stats().instructions);
    let mut gold_mem = FlatMem::new(0, mem.size());
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
        for r in Reg::allocatable() {
            let got = core.arch_reg(t, r, mem);
            let want = ctx.get(r);
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
    }
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

/// Compares a finished core's architectural state (registers and data
/// segment) against a fresh golden-interpreter run of the same workload.
///
/// # Panics
/// Panics on any divergence — a timing model must never change results.
/// Use [`try_verify_against_golden`] to handle divergence structurally.
pub fn verify_against_golden(workload: &Workload, nthreads: usize, core: &Core, mem: &FlatMem) {
    try_verify_against_golden(workload, nthreads, core, mem, core.stats().cycles)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Fallible oracle recording: runs the workload on a banked core with the
/// same thread count under `gate`, returning the recorded schedule.
pub fn try_record_oracle(
    workload: &Workload,
    nthreads: usize,
    fabric: FabricConfig,
    gate: &RunGate,
) -> Result<OracleSchedule, SimError> {
    let cfg = CoreConfig::banked(nthreads);
    let opts = RunOptions {
        fabric,
        verify: false,
        record_oracle: true,
        gate: gate.clone(),
        ..RunOptions::default()
    };
    try_run_single(cfg, workload, &opts).map(|r| r.oracle)
}

/// Records the per-quantum oracle by running the workload on a banked core
/// with the same thread count (the recording substrate for §6.1's exact
/// prefetching comparison).
pub fn record_oracle(workload: &Workload, nthreads: usize, fabric: FabricConfig) -> OracleSchedule {
    try_record_oracle(workload, nthreads, fabric, &RunGate::unbounded())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Convenience: run an exact-context prefetching core, recording the oracle
/// first.
pub fn run_prefetch_exact(
    nthreads: usize,
    regs_per_thread: usize,
    workload: &Workload,
    fabric: FabricConfig,
) -> RunResult {
    let oracle = record_oracle(workload, nthreads, fabric);
    let cfg = CoreConfig::prefetch_exact(nthreads, regs_per_thread);
    let opts = RunOptions {
        fabric,
        oracle,
        ..RunOptions::default()
    };
    run_single(cfg, workload, &opts)
}

/// Fallible form of [`run_prefetch_exact`].
pub fn try_run_prefetch_exact(
    nthreads: usize,
    regs_per_thread: usize,
    workload: &Workload,
    fabric: FabricConfig,
) -> Result<RunResult, SimError> {
    try_run_prefetch_exact_gated(
        nthreads,
        regs_per_thread,
        workload,
        fabric,
        &RunGate::unbounded(),
    )
}

/// [`try_run_prefetch_exact`] under a cancellation gate. The same gate —
/// and therefore the same wall-clock deadline — spans both the oracle
/// recording and the replay phase, so the cell's total time is bounded.
pub fn try_run_prefetch_exact_gated(
    nthreads: usize,
    regs_per_thread: usize,
    workload: &Workload,
    fabric: FabricConfig,
    gate: &RunGate,
) -> Result<RunResult, SimError> {
    let oracle = try_record_oracle(workload, nthreads, fabric, gate)?;
    let cfg = CoreConfig::prefetch_exact(nthreads, regs_per_thread);
    let opts = RunOptions {
        fabric,
        oracle,
        gate: gate.clone(),
        ..RunOptions::default()
    };
    try_run_single(cfg, workload, &opts)
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
    use virec_workloads::{kernels, Layout};

    #[test]
    fn banked_gather_runs_and_verifies() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = run_single(CoreConfig::banked(4), &w, &RunOptions::default());
        assert!(r.cycles > 0);
        assert!(r.stats.instructions > 256 * 5);
    }

    #[test]
    fn virec_gather_runs_and_verifies() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = run_single(CoreConfig::virec(4, 32), &w, &RunOptions::default());
        assert!(r.stats.rf_misses > 0);
    }

    #[test]
    fn oracle_recording_produces_quanta() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let o = record_oracle(&w, 4, FabricConfig::default());
        assert_eq!(o.sets.len(), 4);
        assert!(
            o.sets.iter().any(|s| s.len() > 1),
            "multiple quanta expected"
        );
    }

    #[test]
    fn prefetch_exact_runs_with_recorded_oracle() {
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let r = run_prefetch_exact(4, 8, &w, FabricConfig::default());
        assert!(r.cycles > 0);
    }

    #[test]
    fn multithreading_beats_single_thread_on_gather() {
        // The core premise: TLP hides memory latency.
        let w = kernels::spatter::gather(1024, Layout::for_core(0));
        let one = run_single(CoreConfig::banked(1), &w, &RunOptions::default());
        let four = run_single(CoreConfig::banked(4), &w, &RunOptions::default());
        assert!(
            four.cycles * 2 < one.cycles * 3,
            "4 threads ({}) should clearly beat 1 thread ({})",
            four.cycles,
            one.cycles
        );
    }

    #[test]
    fn budget_exhaustion_is_typed_not_a_panic() {
        let w = kernels::spatter::gather(512, Layout::for_core(0));
        let mut cfg = CoreConfig::virec(4, 32);
        cfg.max_cycles = 2_000; // far too small for 512 elements
        let err = try_run_single(cfg, &w, &RunOptions::default()).unwrap_err();
        match &err {
            SimError::CycleBudgetExceeded { budget, diag } => {
                assert_eq!(*budget, 2_000);
                assert_eq!(diag.nthreads, 4);
                assert_eq!(diag.last_commit_pc.len(), 4);
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        assert_eq!(err.kind(), "cycle_budget");
    }

    #[test]
    fn cancelled_gate_surfaces_as_typed_deadline() {
        use crate::cancel::CancelToken;
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let token = CancelToken::new();
        token.cancel();
        let opts = RunOptions {
            gate: RunGate::new(token, 0),
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &w, &opts).unwrap_err();
        match &err {
            SimError::Deadline { limit_ms, .. } => assert_eq!(*limit_ms, 0),
            other => panic!("expected Deadline, got {other:?}"),
        }
        assert_eq!(err.kind(), "deadline");
        assert!(!err.deadline_expired(), "a cancellation is not an expiry");
    }

    #[test]
    fn expired_deadline_stops_a_long_run() {
        // A deadline that has already passed when the loop starts polling:
        // the run must stop at the first poll with an expired trip.
        let w = kernels::spatter::gather(4096, Layout::for_core(0));
        let gate = RunGate::new(crate::cancel::CancelToken::new(), 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let opts = RunOptions {
            gate,
            ..RunOptions::default()
        };
        let err = try_run_single(CoreConfig::virec(4, 32), &w, &opts).unwrap_err();
        assert_eq!(err.kind(), "deadline");
        assert!(err.deadline_expired());
    }

    #[test]
    fn identical_runs_have_identical_digests() {
        let w = kernels::stream::stream_triad(128, Layout::for_core(0));
        let a = run_single(CoreConfig::virec(4, 24), &w, &RunOptions::default());
        let b = run_single(CoreConfig::virec(4, 24), &w, &RunOptions::default());
        assert_eq!(a.arch_digest, b.arch_digest, "runs are deterministic");
        // A different kernel must not collide.
        let w2 = kernels::stream::reduction(128, Layout::for_core(0));
        let c = run_single(CoreConfig::virec(4, 24), &w2, &RunOptions::default());
        assert_ne!(a.arch_digest, c.arch_digest);
    }

    #[test]
    fn golden_digest_matches_a_clean_run() {
        // The golden-side digest hashes the same byte stream as the
        // timing-side one, so a verified run must reproduce it exactly.
        let w = kernels::spatter::gather(128, Layout::for_core(0));
        let r = run_single(CoreConfig::banked(4), &w, &RunOptions::default());
        let g = golden_arch_digest(&w, 4, 1_000_000).expect("golden halts");
        assert_eq!(r.arch_digest, g);
        // And at a non-zero core slot (the serve layer's failover path).
        let w1 = kernels::stream::reduction(128, Layout::for_core(1));
        let g1 = golden_arch_digest(&w1, 4, 1_000_000).expect("golden halts");
        assert_ne!(g, g1, "different slots/kernels must not collide");
    }

    #[test]
    fn engines_agree_on_arch_digest() {
        // The digest is over architectural state, so every engine that
        // verifies against the same golden model must produce the same one.
        let w = kernels::spatter::gather(256, Layout::for_core(0));
        let banked = run_single(CoreConfig::banked(4), &w, &RunOptions::default());
        let virec = run_single(CoreConfig::virec(4, 32), &w, &RunOptions::default());
        assert_eq!(banked.arch_digest, virec.arch_digest);
    }

    #[test]
    fn data_segment_digest_equals_bytewise_fnv() {
        // Written, written-then-zeroed, partly zeroed and never-written
        // pages, over a page-aligned and an unaligned data span: skipping
        // never-written pages must not change the digest.
        let mut mem = FlatMem::new(0, layout::mem_size(1));
        let mut w = kernels::spatter::gather(64, Layout::for_core(0));
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
}
