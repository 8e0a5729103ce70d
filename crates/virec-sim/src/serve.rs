//! Fault-tolerant streaming task service over the multi-core offload path.
//!
//! The paper's offload mechanism (§6) ships thread contexts from a host
//! into near-memory cores; everything below PR 6 ran one fixed workload
//! per core to completion. [`TaskService`] is the host-side serving layer
//! on top of that machinery: a seeded, reproducible arrival process of
//! offload tasks flows through a bounded admission queue onto idle cores
//! (a fresh [`offload`](crate::offload::offload) image per dispatch), and
//! the service keeps its throughput and accounting invariants under
//! faults, hangs, and overload:
//!
//! * **Admission control** — arrivals beyond [`ServeConfig::queue_depth`]
//!   are shed with a typed [`RejectReason::QueueFull`]; once every core is
//!   quarantined, arriving *and* queued tasks drain with
//!   [`RejectReason::QuarantinedCapacity`] instead of deadlocking.
//! * **Per-task deadlines** — a cycle-denominated SLO deadline relative to
//!   arrival ([`ServeConfig::deadline_cycles`]).
//! * **Retry with backoff** — failed attempts re-dispatch with a
//!   geometrically scaled cycle budget, reusing the experiment layer's
//!   [`RetryPolicy`].
//! * **Quarantine & failover** — [`ServeConfig::quarantine_after`]
//!   consecutive failed attempts on one core quarantine it; the in-flight
//!   task that tripped the quarantine is re-dispatched to a healthy core
//!   without being charged a retry. Every task resolves to exactly one
//!   [`TaskOutcome`]: `completed + rejected + failed == submitted`, always.
//! * **Fault campaign** — [`ServeFaultPlan`] injects seeded word upsets
//!   into the data image of running tasks (single-bit transients and
//!   double-bit bursts on "sticky" bad cores) and wears out mesh NoC
//!   links. Both go through the fault router the single-core runner uses:
//!   each attempt carries a router holding its upset as `DramLine` events,
//!   routed through the SEC-DED/parity protection model before they
//!   corrupt anything (a detected-uncorrectable ends the attempt), and one
//!   service-wide router takes the link upsets down its CRC/retransmission
//!   and link-retirement path. An independent golden-digest cross-check
//!   counts silent corruptions on completed tasks even when verification
//!   is off.
//! * **Repair & degraded mode (PR-8)** — [`ServeFaultPlan::stuck_cores`]
//!   cores develop *permanent* defects that never heal. With
//!   [`ServeConfig::ras`] set, the first uncorrectable burst on such a
//!   core triggers the RAS path instead of quarantine: a spare region is
//!   consumed and the slot spends [`crate::ras::RasConfig::repair_cycles`]
//!   repairing (the in-flight task fails over exactly-once),
//!   or — spare pool dry — the core is *fenced* and keeps serving at 750
//!   millicores. Capacity is integrated in millicore-cycles so
//!   availability reports the loss without ever dropping a task.
//!
//! The report carries the serving-layer SLO metrics the north star asks
//! for: tasks/sec, p50/p99/p999 latency, availability (delivered
//! millicore-cycles over total capacity), goodput, and the run's fabric
//! traffic.

use crate::cancel::RunGate;
use crate::ecc::ProtectionConfig;
use crate::error::{RunDiagnostics, SimError};
use crate::experiment::{CellData, RetryPolicy};
use crate::fault::{second_bit, FaultClass, FaultEvent, FaultSite};
use crate::machine::{self, CoreSlot, Driver, LimitTrip, Machine, RunLimits, Step};
use crate::offload::{core_ports, load_core};
use crate::ras::RasConfig;
use crate::router::{FaultRouter, Scope};
use crate::runner::{
    arch_digest, engine_label, golden_arch_digest, golden_step_cap, try_verify_against_golden,
};
use crate::watchdog::DEFAULT_LIVELOCK_CYCLES;
use std::collections::{HashMap, HashSet, VecDeque};
use virec_core::policy::XorShift;
use virec_core::{Core, CoreConfig};
use virec_isa::FlatMem;
use virec_mem::{Fabric, FabricConfig, FabricStats};
use virec_workloads::{kernels, layout, Layout, Workload, WorkloadCtor};

/// Why an arriving (or queued) task was shed by admission control.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was full at arrival.
    QueueFull,
    /// Every core was quarantined: no capacity remained to ever run it.
    QuarantinedCapacity,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull => write!(f, "queue_full"),
            RejectReason::QuarantinedCapacity => write!(f, "quarantined_capacity"),
        }
    }
}

/// Final, exactly-once outcome of one submitted task.
#[derive(Clone, Debug)]
pub enum TaskOutcome {
    /// The task ran to completion (and verified, when verification is on).
    Completed {
        /// Arrival-to-completion latency in cycles.
        latency: u64,
        /// Dispatch attempts consumed (1 = completed on the first try).
        attempts: u32,
        /// Core slot that ran the successful attempt.
        core: usize,
    },
    /// Shed by admission control without ever running.
    Rejected(RejectReason),
    /// Every attempt the retry policy allowed failed.
    Failed {
        /// Dispatch attempts consumed (0 = expired while still queued).
        attempts: u32,
        /// `SimError::kind`-style tag of the last failure.
        kind: &'static str,
    },
}

/// Seeded service-level fault campaign: which tasks suffer transient
/// upsets and which cores turn sticky-bad mid-run.
///
/// Faults are realized as word flips in the tail of the running task's
/// data segment — bytes the kernel never touches, so the upset perturbs
/// the *architectural image* the golden checker compares, on any engine,
/// without changing the timing run. Routed through the per-site protection
/// model first: under SEC-DED a single-bit transient corrects in place and
/// a sticky double-bit burst raises detected-uncorrectable mid-attempt.
/// Corrected link upsets count as injected but not as corrected faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeFaultPlan {
    /// Number of distinct tasks (seeded choice) whose *first* attempt
    /// suffers a single-bit upset; retries run clean.
    pub transient: usize,
    /// Number of cores (seeded choice) that go bad: every attempt
    /// dispatched to such a core after onset suffers a double-bit burst.
    pub sticky_cores: usize,
    /// Number of cores (seeded choice) with a **stuck-at** defect: every
    /// attempt after onset suffers a double-bit burst, like a sticky core —
    /// but the damage is a localized permanent defect, so with
    /// [`ServeConfig::ras`] enabled the service repairs (spare) or fences
    /// the region instead of quarantining the whole core.
    pub stuck_cores: usize,
    /// Global dispatch count after which sticky/stuck cores turn bad (lets
    /// the service warm up healthy before the campaign bites).
    pub sticky_after: usize,
    /// Number of NoC link upsets injected over the run (one per dispatch
    /// after onset, hammering one link to the RAS CE threshold before
    /// moving to the next). Only lands when the shared fabric is a mesh
    /// ([`virec_mem::FabricTopology::Mesh`]); ignored on the crossbar.
    /// Retiring a worn link is a RAS action: without [`ServeConfig::ras`]
    /// every upset is retransmitted and the one target link never retires.
    pub link_faults: usize,
}

impl ServeFaultPlan {
    /// No injected faults.
    pub fn none() -> ServeFaultPlan {
        ServeFaultPlan::default()
    }

    /// A campaign with `transient` one-shot task upsets and
    /// `sticky_cores` bad cores turning after a short warmup.
    pub fn campaign(transient: usize, sticky_cores: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            transient,
            sticky_cores,
            sticky_after: 4,
            ..ServeFaultPlan::none()
        }
    }

    /// A wear campaign: `stuck_cores` cores develop permanent stuck-at
    /// defects after a short warmup (the RAS repair/fence path's stimulus).
    pub fn stuck(stuck_cores: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            stuck_cores,
            sticky_after: 4,
            ..ServeFaultPlan::none()
        }
    }

    /// A transport-wear campaign: `link_faults` seeded upsets on mesh NoC
    /// links, exercising CRC/retransmission and predictive link retirement.
    pub fn links(link_faults: usize) -> ServeFaultPlan {
        ServeFaultPlan {
            sticky_after: 4,
            link_faults,
            ..ServeFaultPlan::none()
        }
    }
}

/// The default task mix: one spec per entry, chosen per arrival by the
/// seeded generator. Covers the paper's headline kernel plus streaming,
/// reduction, and dense-copy behaviour at problem size `n`.
pub fn default_mix(n: u64) -> Vec<(WorkloadCtor, u64)> {
    vec![
        (kernels::spatter::gather as WorkloadCtor, n),
        (kernels::stream::stream_triad as WorkloadCtor, n),
        (kernels::stream::reduction as WorkloadCtor, n),
        (kernels::dense::copy as WorkloadCtor, n),
    ]
}

/// Configuration of a [`TaskService`] run.
#[derive(Clone)]
pub struct ServeConfig {
    /// Number of near-memory cores available to the dispatcher.
    pub ncores: usize,
    /// Per-core configuration (every slot runs the same engine).
    pub core: CoreConfig,
    /// Shared fabric configuration.
    pub fabric: FabricConfig,
    /// Total tasks the arrival process generates.
    pub tasks: usize,
    /// Seed of the arrival process, task mix, and fault campaign.
    pub seed: u64,
    /// Mean cycles between arrivals (jittered uniformly in
    /// `[mean/2, 3*mean/2)`); clamped to at least 1.
    pub mean_interarrival: u64,
    /// Bound of the admission queue; arrivals past it are shed with
    /// [`RejectReason::QueueFull`]. Must be nonzero.
    pub queue_depth: usize,
    /// Per-task SLO deadline in cycles from *arrival* (queued wait
    /// included); 0 disables. An exceeded task fails with kind `deadline`.
    pub deadline_cycles: u64,
    /// Retry policy for failed attempts: bounded count, geometrically
    /// scaled cycle budget.
    pub retry: RetryPolicy,
    /// Consecutive failed attempts on one core before it is quarantined;
    /// 0 disables quarantine.
    pub quarantine_after: u32,
    /// Protection levels the injected faults are routed through.
    pub protection: ProtectionConfig,
    /// The seeded service-level fault campaign.
    pub faults: ServeFaultPlan,
    /// RAS layer for permanent defects: `Some` lets a stuck-at core be
    /// repaired from the spare pool (slot offline for
    /// [`RasConfig::repair_cycles`] while data migrates) or, with the pool
    /// dry, fenced to reduced capacity — instead of being quarantined
    /// outright — and retires worn mesh links. `None` (the default) keeps
    /// the PR-6 behavior: a stuck core fails repeatedly until the health
    /// tracker quarantines it, and no link is ever retired.
    pub ras: Option<RasConfig>,
    /// Task mix: each arrival picks one `(ctor, n)` spec (seeded).
    pub mix: Vec<(WorkloadCtor, u64)>,
    /// Verify every completed attempt against the golden interpreter.
    pub verify: bool,
    /// Force the dense per-cycle step loop instead of the event-driven
    /// fast-forward (also forced globally by `VIREC_NO_SKIP=1`). Both loops
    /// produce byte-identical reports; this is a debugging escape hatch.
    pub dense_loop: bool,
}

impl ServeConfig {
    /// A streaming-service configuration with sensible defaults: default
    /// fabric, mean inter-arrival 2048 cycles, queue depth `2*ncores + 4`,
    /// no deadlines, default retry policy, quarantine after 3 consecutive
    /// failures, no protection, no faults, the [`default_mix`] at n=64,
    /// verification on.
    pub fn streaming(ncores: usize, core: CoreConfig, tasks: usize, seed: u64) -> ServeConfig {
        ServeConfig {
            ncores,
            core,
            fabric: FabricConfig::default(),
            tasks,
            seed,
            mean_interarrival: 2048,
            queue_depth: 2 * ncores.max(1) + 4,
            deadline_cycles: 0,
            retry: RetryPolicy::default(),
            quarantine_after: 3,
            protection: ProtectionConfig::none(),
            faults: ServeFaultPlan::none(),
            ras: None,
            mix: default_mix(64),
            verify: true,
            dense_loop: false,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.ncores == 0 {
            return Err(config_error(
                "a system needs at least one core (ncores == 0)",
            ));
        }
        if self.queue_depth == 0 {
            return Err(config_error("admission queue depth must be nonzero"));
        }
        if self.mix.is_empty() {
            return Err(config_error("the task mix must name at least one workload"));
        }
        Ok(())
    }
}

/// LCG step over link-injection targets: deterministic, and independent of
/// the service's arrival/fault RNG so enabling the link campaign cannot
/// perturb any other seeded draw.
fn advance_link_target(t: u64) -> u64 {
    t.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
        | 1
}

fn config_error(detail: &str) -> SimError {
    SimError::Config {
        detail: detail.to_string(),
        diag: RunDiagnostics::placeholder("serve-config"),
    }
}

/// Aggregated outcome of a [`TaskService`] run.
#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Engine label of the serving cores (`virec`, `banked`, ...).
    pub engine: String,
    /// Core count the service was built with.
    pub ncores: usize,
    /// Tasks the arrival process generated.
    pub submitted: usize,
    /// Tasks that completed (and verified) exactly once.
    pub completed: usize,
    /// Arrivals shed because the admission queue was full.
    pub rejected_queue_full: usize,
    /// Tasks shed because every core was quarantined.
    pub rejected_quarantined: usize,
    /// Tasks whose every allowed attempt failed.
    pub failed: usize,
    /// Re-dispatches charged to the retry policy.
    pub retries: usize,
    /// Re-dispatches caused by a core quarantine (not charged a retry).
    pub failovers: usize,
    /// Cores quarantined by the health tracker.
    pub quarantined_cores: usize,
    /// Stuck-at defects repaired from the spare pool (slot offline for
    /// the migration window, then back at full capacity).
    pub repairs: usize,
    /// Stuck-at defects fenced with the spare pool dry: the core keeps
    /// serving at reduced capacity instead of being quarantined.
    pub fenced_cores: usize,
    /// Spare regions consumed by repairs.
    pub spares_consumed: usize,
    /// Fault events realized by the campaign (corrected ones included).
    pub faults_injected: usize,
    /// Injected upsets corrected in place by the protection model.
    pub faults_corrected: usize,
    /// Injected upsets detected but uncorrectable (attempt aborted).
    pub faults_uncorrectable: usize,
    /// Completed tasks whose final state digest disagreed with the golden
    /// reference — must be zero whenever verification is on.
    pub silent_corruptions: usize,
    /// Tasks that resolved to more than one outcome (must be zero).
    pub duplicated: usize,
    /// Tasks that never resolved to any outcome (must be zero).
    pub lost: usize,
    /// Total service cycles.
    pub cycles: u64,
    /// Sum over all cycles of delivered capacity in **millicores**: a
    /// healthy core contributes 1000 per cycle, a fenced (degraded) core
    /// 750, a repairing or quarantined core 0. Availability divides this
    /// by `ncores * cycles * 1000`.
    pub capacity_millicore_cycles: u64,
    /// Completion latencies in cycles, sorted ascending.
    pub latencies: Vec<u64>,
    /// Cumulative shared-fabric statistics at end of run: per-port
    /// attribution plus the mesh NoC counters (hops, CRC catches,
    /// retransmissions, link retirements) when the topology is a mesh.
    pub fabric: FabricStats,
    /// Human-readable description of the most recent attempt failure, kept
    /// for post-mortem diagnosis of faulty campaigns.
    pub last_failure: Option<String>,
}

impl ServeReport {
    /// Tasks that resolved to some outcome.
    pub fn accounted(&self) -> usize {
        self.completed + self.rejected_queue_full + self.rejected_quarantined + self.failed
    }

    /// Completed fraction of submitted tasks.
    pub fn goodput(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.completed as f64 / self.submitted as f64
    }

    /// Time-weighted fraction of core capacity actually delivered, in
    /// millicore-cycles: quarantined and repairing slots deliver nothing,
    /// fenced slots deliver 750/1000, healthy slots the full 1000.
    pub fn availability(&self) -> f64 {
        let capacity = (self.ncores as u64 * self.cycles).saturating_mul(1000);
        if capacity == 0 {
            return 1.0;
        }
        self.capacity_millicore_cycles as f64 / capacity as f64
    }

    /// Completed tasks per second at the 1 GHz timing convention
    /// (cycles ≈ ns).
    pub fn tasks_per_sec(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.completed as f64 / (self.cycles as f64 * 1e-9)
    }

    /// Nearest-rank latency percentile in cycles (`p` in 0..=1); 0 when no
    /// task completed.
    pub fn latency_percentile(&self, p: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = (p.clamp(0.0, 1.0) * (self.latencies.len() - 1) as f64).round() as usize;
        self.latencies[idx]
    }

    /// Median completion latency in cycles.
    pub fn p50(&self) -> u64 {
        self.latency_percentile(0.50)
    }

    /// 99th-percentile completion latency in cycles.
    pub fn p99(&self) -> u64 {
        self.latency_percentile(0.99)
    }

    /// 99.9th-percentile completion latency in cycles.
    pub fn p999(&self) -> u64 {
        self.latency_percentile(0.999)
    }

    /// Multi-line, stable-format summary (one `serve[engine]:` prefix per
    /// line; CI greps these).
    pub fn summary(&self) -> String {
        let e = &self.engine;
        let mut s = format!(
            "serve[{e}]: submitted={} completed={} rejected_queue_full={} \
             rejected_quarantined={} failed={} lost={} duplicated={}\n\
             serve[{e}]: faults injected={} corrected={} uncorrectable={} \
             silent_corruptions={} retries={} failovers={} quarantined_cores={}\n\
             serve[{e}]: p50={} p99={} p999={} cycles, tasks_per_sec={:.0}, \
             availability={:.1}%, goodput={:.1}%\n\
             serve[{e}]: ras repairs={} fenced_cores={} spares_consumed={}",
            self.submitted,
            self.completed,
            self.rejected_queue_full,
            self.rejected_quarantined,
            self.failed,
            self.lost,
            self.duplicated,
            self.faults_injected,
            self.faults_corrected,
            self.faults_uncorrectable,
            self.silent_corruptions,
            self.retries,
            self.failovers,
            self.quarantined_cores,
            self.p50(),
            self.p99(),
            self.p999(),
            self.tasks_per_sec(),
            self.availability() * 100.0,
            self.goodput() * 100.0,
            self.repairs,
            self.fenced_cores,
            self.spares_consumed,
        );
        // Transport line only when the run actually moved flits over a
        // mesh, so crossbar summaries stay byte-identical.
        if self.fabric.noc_hops > 0 {
            s.push_str(&format!(
                "\nserve[{e}]: noc hops={} crc_detected={} retransmissions={} \
                 links_retired={} links_fenced={}",
                self.fabric.noc_hops,
                self.fabric.noc_crc_detected,
                self.fabric.noc_retransmissions,
                self.fabric.noc_links_retired,
                self.fabric.noc_links_fenced,
            ));
        }
        s
    }

    /// The SLO summary as experiment-layer metrics, for emission into the
    /// machine-readable `results/<name>.json` provenance format.
    pub fn metrics(&self) -> CellData {
        let mut m = vec![
            ("submitted", self.submitted as f64),
            ("completed", self.completed as f64),
            ("rejected_queue_full", self.rejected_queue_full as f64),
            ("rejected_quarantined", self.rejected_quarantined as f64),
            ("failed", self.failed as f64),
            ("lost", self.lost as f64),
            ("duplicated", self.duplicated as f64),
            ("retries", self.retries as f64),
            ("failovers", self.failovers as f64),
            ("quarantined_cores", self.quarantined_cores as f64),
            ("repairs", self.repairs as f64),
            ("fenced_cores", self.fenced_cores as f64),
            ("spares_consumed", self.spares_consumed as f64),
            ("faults_injected", self.faults_injected as f64),
            ("faults_corrected", self.faults_corrected as f64),
            ("faults_uncorrectable", self.faults_uncorrectable as f64),
            ("silent_corruptions", self.silent_corruptions as f64),
            ("cycles", self.cycles as f64),
            ("tasks_per_sec", self.tasks_per_sec()),
            ("p50_cycles", self.p50() as f64),
            ("p99_cycles", self.p99() as f64),
            ("p999_cycles", self.p999() as f64),
            ("availability", self.availability()),
            ("goodput", self.goodput()),
        ];
        if self.fabric.noc_hops > 0 {
            m.push((
                "noc_retransmissions",
                self.fabric.noc_retransmissions as f64,
            ));
            m.push(("noc_links_retired", self.fabric.noc_links_retired as f64));
            m.push(("noc_links_fenced", self.fabric.noc_links_fenced as f64));
        }
        CellData::Metrics(m.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// One admitted task's dispatch state.
#[derive(Clone, Copy, Debug)]
struct Task {
    id: usize,
    spec: usize,
    arrival: u64,
    attempts: u32,
    retries_left: u32,
    scale: u64,
}

pub(crate) struct InFlight {
    task: Task,
    core: Core,
    /// The attempt's watchdog and budget, counted from its dispatch.
    limits: RunLimits,
    /// The attempt's scheduled word upset, if the campaign gave it one.
    faults: FaultRouter,
    /// Set when the attempt ended before (or, for a structural hazard,
    /// during) this cycle's tick; the machine no longer ticks it.
    end: Option<AttemptEnd>,
}

pub(crate) enum Slot {
    Idle,
    Busy(Box<InFlight>),
    Quarantined,
    /// Offline while a stuck region's data migrates onto a spare; back to
    /// `Idle` (at full capacity) at cycle `until`.
    Repairing {
        until: u64,
    },
}

impl CoreSlot for Slot {
    fn core(&mut self) -> Option<&mut Core> {
        match self {
            Slot::Busy(inf) if inf.end.is_none() => Some(&mut inf.core),
            _ => None,
        }
    }
}

enum AttemptEnd {
    Done,
    Fail { kind: &'static str, detail: String },
}

/// The host-side streaming dispatcher: admission queue, per-core dispatch
/// through [`offload`](crate::offload::offload), retry/quarantine/failover,
/// and SLO accounting.
pub struct TaskService {
    cfg: ServeConfig,
    /// The service's cores, shared fabric and memory; the machine's own
    /// watchdog and budget are off, as every attempt carries its own.
    m: Machine<Slot>,
    /// Routes the link-wear campaign's upsets: CRC retransmission, and
    /// with the RAS layer on, predictive link retirement.
    links: FaultRouter,
    /// The bounded admission queue.
    queue: VecDeque<Task>,
    /// Index of the next arrival still to be admitted.
    next_arrival: usize,
    consec: Vec<u32>,
    workloads: Vec<Vec<Workload>>,
    golden: HashMap<(usize, usize), u64>,
    sticky: Vec<bool>,
    /// Cores with an un-retired stuck-at defect (cleared by repair/fence).
    stuck: Vec<bool>,
    /// Cores running fenced: the defect is out of service but so is part
    /// of the capacity (750/1000 millicores).
    fenced: Vec<bool>,
    /// Spare regions left in the service-wide RAS pool.
    spares_left: u32,
    /// Remaining link upsets the campaign may inject.
    link_faults_left: usize,
    /// Current link-injection target (an opaque index the fabric reduces
    /// modulo its link population); advanced by an LCG once a target is
    /// retired, so the campaign wears out one link at a time.
    link_target: u64,
    transient_tasks: HashSet<usize>,
    arrivals: Vec<(u64, usize)>,
    rng: XorShift,
    /// Slot the next dispatch scan starts from (round-robin, so light
    /// load still exercises every healthy core rather than pinning to
    /// slot 0).
    next_slot: usize,
    dispatches: usize,
    accounted: usize,
    outcomes: Vec<Option<TaskOutcome>>,
    report: ServeReport,
}

impl TaskService {
    /// Builds the service: validates the configuration, realizes the
    /// seeded arrival process and fault campaign, and pre-instantiates the
    /// per-slot workload images.
    pub fn new(cfg: ServeConfig) -> Result<TaskService, SimError> {
        cfg.validate()?;
        let mut rng = XorShift::new(cfg.seed);
        let mean = cfg.mean_interarrival.max(1);
        let mut t = 0u64;
        let arrivals: Vec<(u64, usize)> = (0..cfg.tasks)
            .map(|_| {
                t += mean / 2 + rng.next_u64() % mean;
                let spec = (rng.next_u64() % cfg.mix.len() as u64) as usize;
                (t, spec)
            })
            .collect();

        let mut plan_rng = XorShift::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut transient_tasks = HashSet::new();
        if cfg.tasks > 0 {
            while transient_tasks.len() < cfg.faults.transient.min(cfg.tasks) {
                transient_tasks.insert((plan_rng.next_u64() % cfg.tasks as u64) as usize);
            }
        }
        // `count` distinct cores, seeded.
        let mut pick = |count: usize| {
            let mut picked = vec![false; cfg.ncores];
            while picked.iter().filter(|&&p| p).count() < count.min(cfg.ncores) {
                picked[(plan_rng.next_u64() % cfg.ncores as u64) as usize] = true;
            }
            picked
        };
        let sticky = pick(cfg.faults.sticky_cores);
        let stuck = pick(cfg.faults.stuck_cores);

        let workloads: Vec<Vec<Workload>> = (0..cfg.ncores)
            .map(|slot| {
                cfg.mix
                    .iter()
                    .map(|&(ctor, n)| ctor(n, Layout::for_core(slot)))
                    .collect()
            })
            .collect();

        let report = ServeReport {
            engine: engine_label(&cfg.core).to_string(),
            ncores: cfg.ncores,
            submitted: cfg.tasks,
            ..ServeReport::default()
        };
        Ok(TaskService {
            m: Machine::new(
                (0..cfg.ncores).map(|_| Slot::Idle).collect(),
                Fabric::new(cfg.fabric),
                FlatMem::new(0, layout::mem_size(cfg.ncores)),
                RunGate::unbounded(),
                RunLimits::new(0, 0, u64::MAX),
            ),
            links: FaultRouter::new(Vec::new(), ProtectionConfig::none(), cfg.ras, None),
            queue: VecDeque::new(),
            next_arrival: 0,
            consec: vec![0; cfg.ncores],
            workloads,
            golden: HashMap::new(),
            sticky,
            stuck,
            fenced: vec![false; cfg.ncores],
            spares_left: cfg.ras.map_or(0, |rc| rc.spare_rows),
            link_faults_left: cfg.faults.link_faults,
            link_target: cfg.seed | 1,
            transient_tasks,
            arrivals,
            rng: plan_rng,
            next_slot: 0,
            dispatches: 0,
            accounted: 0,
            outcomes: vec![None; cfg.tasks],
            report,
            cfg,
        })
    }

    /// Runs the whole arrival process to drain and returns the report.
    pub fn run(&mut self) -> Result<ServeReport, SimError> {
        let dense = self.cfg.dense_loop;
        machine::run(self, dense)?;
        self.report.cycles = self.m.now;
        self.report.lost = self.outcomes.iter().filter(|o| o.is_none()).count();
        self.report.latencies.sort_unstable();
        self.report.fabric = *self.m.fabric.stats();
        Ok(self.report.clone())
    }

    /// Every task's final outcome, indexed by task id (`None` = lost).
    pub fn outcomes(&self) -> &[Option<TaskOutcome>] {
        &self.outcomes
    }

    /// Slots that can still (eventually) serve: everything but
    /// quarantined. A repairing slot counts — it returns to service — so
    /// admission keeps queueing instead of shedding while repairs run.
    fn healthy(&self) -> usize {
        self.m
            .slots
            .iter()
            .filter(|s| !matches!(s, Slot::Quarantined))
            .count()
    }

    /// Delivered capacity this cycle in millicores: healthy slots are
    /// worth 1000, fenced slots 750, repairing and quarantined slots 0.
    fn capacity_millicores(&self) -> u64 {
        let cap: u64 = self
            .m
            .slots
            .iter()
            .zip(&self.fenced)
            .map(|(s, &fenced)| match s {
                Slot::Quarantined | Slot::Repairing { .. } => 0,
                _ if fenced => 750,
                _ => 1000,
            })
            .sum();
        // Mesh link loss shrinks delivered capacity: a retired link's
        // bandwidth is gone (traffic routes around it), a fenced link
        // keeps half. Defect-free meshes and crossbars scale by 1.
        match self.m.fabric.link_health() {
            Some(h) if h.total > 0 => {
                cap * (2 * h.healthy as u64 + h.fenced as u64) / (2 * h.total as u64)
            }
            _ => cap,
        }
    }

    /// The earliest cycle a repairing slot returns to service.
    fn earliest_repair(&self) -> Option<u64> {
        self.m
            .slots
            .iter()
            .filter_map(|s| match s {
                Slot::Repairing { until } => Some(*until),
                _ => None,
            })
            .min()
    }

    /// Zeroes the slot's whole address span so a re-offload starts from a
    /// clean image: stale data from a previous (possibly killed or
    /// corrupted) task must never leak into the next task's golden
    /// comparison. The span is page-aligned, so this drops its pages.
    fn scrub(&mut self, slot: usize) {
        self.m
            .mem
            .zero_range(slot as u64 * layout::CORE_SPAN, layout::CORE_SPAN);
    }

    fn dispatch(&mut self, slot: usize, mut task: Task) {
        let now = self.m.now;
        task.attempts += 1;
        self.dispatches += 1;
        self.inject_link_upset(now);
        self.scrub(slot);
        let events = self.plan_attempt_fault(slot, &task, now);
        let w = &self.workloads[slot][task.spec];
        let core = load_core(&mut self.m.mem, slot, self.cfg.core, w, Default::default());
        let budget = self.cfg.core.max_cycles.saturating_mul(task.scale);
        self.m.slots[slot] = Slot::Busy(Box::new(InFlight {
            task,
            core,
            limits: RunLimits::new(now, DEFAULT_LIVELOCK_CYCLES, budget),
            faults: FaultRouter::new(events, self.cfg.protection, None, None),
            end: None,
        }));
    }

    /// Realizes one scheduled NoC link upset (dispatch-clocked, so both
    /// step loops inject on exactly the same cycles) through the link
    /// router: the target link's next flit will arrive CRC-dirty and
    /// retransmit, and with the RAS layer on the link is retired —
    /// route-around or half-bandwidth fence — once it crosses the CE
    /// threshold. Crossbar fabrics have no links; the campaign is inert
    /// there.
    fn inject_link_upset(&mut self, now: u64) {
        if self.link_faults_left == 0 || self.dispatches <= self.cfg.faults.sticky_after {
            return;
        }
        // A worn link is a permanent defect: every upset charges its bucket.
        let fabric = &mut self.m.fabric;
        let Some(retired) = self.links.link_upset(now, fabric, self.link_target, true) else {
            // Crossbar, or the target already out of service: move on (the
            // next dispatch attacks the advanced target).
            if self.m.fabric.link_health().is_some() {
                self.link_target = advance_link_target(self.link_target);
            }
            return;
        };
        self.link_faults_left -= 1;
        self.report.faults_injected += 1;
        if retired {
            self.link_target = advance_link_target(self.link_target);
        }
    }

    /// Realizes the campaign for one attempt dispatched at `now`: sticky
    /// and stuck cores burst two bits of one word, transient tasks flip one
    /// bit on their first attempt. The upset is one or two `DramLine`
    /// events on the same word at the same cycle, so the router sees a
    /// burst whole.
    fn plan_attempt_fault(&mut self, slot: usize, task: &Task, now: u64) -> Vec<FaultEvent> {
        let onset = self.dispatches > self.cfg.faults.sticky_after;
        let sticky = self.sticky[slot] && onset;
        let stuck = self.stuck[slot] && onset;
        let transient = task.attempts == 1 && self.transient_tasks.contains(&task.id);
        if !sticky && !stuck && !transient {
            return Vec::new();
        }
        let w = &self.workloads[slot][task.spec];
        // Tail of the data segment: bytes no kernel touches, so the flip
        // perturbs the compared image without changing execution.
        let word = w.layout.data_size / 8 - 8 + self.rng.next_u64() % 8;
        let b1 = (self.rng.next_u64() % 64) as u8;
        let b2 = (sticky || stuck).then(|| second_bit(&mut self.rng, b1));
        let cycle = now + 16 + self.rng.next_u64() % 240;
        std::iter::once(b1)
            .chain(b2)
            .map(|bit| FaultEvent {
                cycle,
                site: FaultSite::DramLine,
                index: word,
                bit,
                class: FaultClass::Transient,
            })
            .collect()
    }

    /// Per-attempt work before the cycle's tick. Due upsets come first: an
    /// uncorrectable one aborts its attempt, which settles at once. Then
    /// each attempt's SLO deadline may end it before its tick; those
    /// endings settle with the cycle's other endings.
    fn pre_tick(&mut self) {
        let now = self.m.now;
        for i in 0..self.m.slots.len() {
            let Machine {
                slots, fabric, mem, ..
            } = &mut self.m;
            let Slot::Busy(inf) = &mut slots[i] else {
                continue;
            };
            let InFlight {
                task, core, faults, ..
            } = &mut **inf;
            if faults.wakeup(now) > now {
                continue;
            }
            let mut scope = Scope {
                core,
                fabric,
                mem,
                layout: &self.workloads[i][task.spec].layout,
            };
            // The attempt's one upset fires whole at one cycle, so the
            // router's counters are this upset's.
            let detected = faults.inject(now, &mut scope);
            self.report.faults_injected += 1;
            self.report.faults_corrected += faults.rewindable.ecc.corrected as usize;
            if let Some(detected) = detected {
                self.report.faults_uncorrectable += 1;
                let kind = "uncorrectable";
                let detail = detected.desc;
                self.settle(i, AttemptEnd::Fail { kind, detail });
            }
        }
        let deadline = self.cfg.deadline_cycles;
        for slot in &mut self.m.slots {
            let Slot::Busy(inf) = slot else { continue };
            if deadline > 0 && now.saturating_sub(inf.task.arrival) >= deadline {
                inf.end = Some(AttemptEnd::Fail {
                    kind: "deadline",
                    detail: format!("task exceeded its {deadline}-cycle SLO deadline"),
                });
            }
        }
    }

    /// Resolves a completed attempt: verifies it (when verification is on)
    /// and records the completion, or returns the verification failure.
    fn complete(&mut self, slot: usize, task: &Task, mut core: Core) -> Result<(), SimError> {
        let now = self.m.now;
        core.finalize_stats();
        core.drain(&mut self.m.mem);
        let w = &self.workloads[slot][task.spec];
        let nthreads = self.cfg.core.nthreads;
        if self.cfg.verify {
            try_verify_against_golden(w, nthreads, &core, &self.m.mem, now)?;
        }
        // Independent second net: a completed task whose digest disagrees
        // with the golden reference is a silent corruption (provably
        // impossible while verification is on).
        let digest = arch_digest(&core, &self.m.mem, w, nthreads);
        let key = (slot, task.spec);
        let golden = match self.golden.get(&key) {
            Some(&g) => Some(g),
            None => golden_arch_digest(w, nthreads, golden_step_cap(core.stats().instructions))
                .ok()
                .inspect(|&g| {
                    self.golden.insert(key, g);
                }),
        };
        if golden.is_some_and(|g| g != digest) {
            self.report.silent_corruptions += 1;
        }
        self.consec[slot] = 0;
        self.finish(
            task.id,
            TaskOutcome::Completed {
                latency: now.saturating_sub(task.arrival) + 1,
                attempts: task.attempts,
                core: slot,
            },
        );
        Ok(())
    }

    /// Resolves one ended attempt: completion (verify + silent-corruption
    /// cross-check) or failure (retry / quarantine + failover / final).
    fn settle(&mut self, slot: usize, end: AttemptEnd) {
        let now = self.m.now;
        let Slot::Busy(inf) = std::mem::replace(&mut self.m.slots[slot], Slot::Idle) else {
            return;
        };
        // The attempt's core is discarded: nothing will collect the
        // responses to its requests, and the slot's next core reuses its
        // ports.
        for port in core_ports(slot) {
            self.m.fabric.release_port(port);
        }
        let inf = *inf;
        let mut task = inf.task;
        let (kind, detail) = match end {
            AttemptEnd::Fail { kind, detail } => (kind, detail),
            AttemptEnd::Done => match self.complete(slot, &task, inf.core) {
                Ok(()) => return,
                Err(e) => (e.kind(), e.to_string()),
            },
        };
        self.report.last_failure = Some(format!(
            "task {} attempt {} on core {slot}: {kind}: {detail}",
            task.id, task.attempts
        ));
        // A failure on a core with an un-retired stuck-at defect is the
        // defect's doing, not the task's or the core's: the RAS layer
        // retires the region — onto a spare when one is left (slot offline
        // while the data migrates), fenced at reduced capacity otherwise —
        // and the victim task re-dispatches for free, like a failover.
        // Without RAS the defect keeps firing until quarantine takes the
        // whole core (the pre-RAS behavior).
        if self.stuck[slot] && self.dispatches > self.cfg.faults.sticky_after {
            if let Some(rc) = self.cfg.ras {
                self.stuck[slot] = false;
                self.consec[slot] = 0;
                if self.spares_left > 0 {
                    self.spares_left -= 1;
                    self.report.spares_consumed += 1;
                    self.report.repairs += 1;
                    self.m.slots[slot] = Slot::Repairing {
                        until: now + rc.repair_cycles.max(1),
                    };
                } else {
                    self.fenced[slot] = true;
                    self.report.fenced_cores += 1;
                }
                self.report.failovers += 1;
                self.queue.push_front(task);
                return;
            }
        }
        self.consec[slot] += 1;
        let quarantine_now = self.cfg.quarantine_after > 0
            && self.consec[slot] >= self.cfg.quarantine_after
            && !matches!(self.m.slots[slot], Slot::Quarantined);
        if quarantine_now {
            self.m.slots[slot] = Slot::Quarantined;
            self.report.quarantined_cores += 1;
            if self.healthy() > 0 {
                // Failover: the task that tripped the quarantine gets a
                // free re-dispatch to a healthy core.
                self.report.failovers += 1;
                self.queue.push_front(task);
            } else {
                self.finish(
                    task.id,
                    TaskOutcome::Failed {
                        attempts: task.attempts,
                        kind,
                    },
                );
            }
            return;
        }
        match self.cfg.retry.next_scale(task.scale) {
            Some(next) if task.retries_left > 0 => {
                task.retries_left -= 1;
                task.scale = next;
                self.report.retries += 1;
                self.queue.push_front(task);
            }
            _ => self.finish(
                task.id,
                TaskOutcome::Failed {
                    attempts: task.attempts,
                    kind,
                },
            ),
        }
    }

    /// Records the final outcome of `id` exactly once; a second resolution
    /// is counted as a duplication (an invariant violation CI fails on)
    /// and otherwise ignored.
    fn finish(&mut self, id: usize, outcome: TaskOutcome) {
        if self.outcomes[id].is_some() {
            self.report.duplicated += 1;
            return;
        }
        match &outcome {
            TaskOutcome::Completed { latency, .. } => {
                self.report.completed += 1;
                self.report.latencies.push(*latency);
            }
            TaskOutcome::Rejected(RejectReason::QueueFull) => {
                self.report.rejected_queue_full += 1;
            }
            TaskOutcome::Rejected(RejectReason::QuarantinedCapacity) => {
                self.report.rejected_quarantined += 1;
            }
            TaskOutcome::Failed { .. } => self.report.failed += 1,
        }
        self.outcomes[id] = Some(outcome);
        self.accounted += 1;
    }
}

/// The dispatcher as a [`Driver`] of the shared step loop. Admission,
/// shedding and dispatch run before each cycle; an idle service
/// fast-forwards to its next arrival without ticking. Arrivals, SLO
/// expiries, repair completions and each attempt's fault,
/// watchdog and budget cycles are its wakeups, and delivered capacity
/// accrues over skipped spans through [`Driver::skipped`].
impl Driver for TaskService {
    type Slot = Slot;

    fn machine(&mut self) -> &mut Machine<Slot> {
        &mut self.m
    }

    fn running(&self) -> bool {
        self.accounted < self.cfg.tasks
    }

    fn diag(&self) -> Box<RunDiagnostics> {
        RunDiagnostics::placeholder("serve")
    }

    /// Unused: attempts carry their own watchdogs, the machine's is off.
    fn dump(&self) -> String {
        String::new()
    }

    fn begin(&mut self) -> Result<Step, SimError> {
        let now = self.m.now;
        // Repair completions: a slot whose migration window elapsed
        // returns to service at full capacity.
        for slot in &mut self.m.slots {
            if matches!(slot, Slot::Repairing { until } if now >= *until) {
                *slot = Slot::Idle;
            }
        }

        // Admission: arrivals due this cycle either queue or shed.
        while self.next_arrival < self.arrivals.len() && self.arrivals[self.next_arrival].0 <= now {
            let (arrival, spec) = self.arrivals[self.next_arrival];
            let id = self.next_arrival;
            self.next_arrival += 1;
            let task = Task {
                id,
                spec,
                arrival,
                attempts: 0,
                retries_left: self.cfg.retry.max_retries,
                scale: 1,
            };
            if self.healthy() == 0 {
                self.finish(id, TaskOutcome::Rejected(RejectReason::QuarantinedCapacity));
            } else if self.queue.len() >= self.cfg.queue_depth {
                self.finish(id, TaskOutcome::Rejected(RejectReason::QueueFull));
            } else {
                self.queue.push_back(task);
            }
        }

        // SLO shedding: tasks whose deadline passed while still queued.
        let deadline = self.cfg.deadline_cycles;
        if deadline > 0 {
            let (expired, kept): (VecDeque<Task>, VecDeque<Task>) = std::mem::take(&mut self.queue)
                .into_iter()
                .partition(|t| now.saturating_sub(t.arrival) >= deadline);
            self.queue = kept;
            for t in expired {
                self.finish(
                    t.id,
                    TaskOutcome::Failed {
                        attempts: t.attempts,
                        kind: "deadline",
                    },
                );
            }
        }

        // Dispatch queued tasks onto idle healthy slots. The scan starts
        // one past the last dispatched slot, so under light load work
        // rotates over every healthy core instead of pinning to slot 0
        // (which would starve the fault campaign's sticky cores of
        // dispatches and hide them from quarantine).
        let n = self.m.slots.len();
        for off in 0..n {
            let i = (self.next_slot + off) % n;
            if matches!(self.m.slots[i], Slot::Idle) {
                let Some(task) = self.queue.pop_front() else {
                    break;
                };
                self.dispatch(i, task);
                self.next_slot = (i + 1) % n;
            }
        }

        // A fully-quarantined service must drain, not hang.
        if self.healthy() == 0 {
            for t in std::mem::take(&mut self.queue) {
                self.finish(
                    t.id,
                    TaskOutcome::Rejected(RejectReason::QuarantinedCapacity),
                );
            }
        }

        if self.m.slots.iter().any(|s| matches!(s, Slot::Busy(_))) {
            self.pre_tick();
            return Ok(Step::Tick);
        }
        let target = if self.next_arrival < self.arrivals.len() {
            // Idle: fast-forward to the next arrival — but never past a
            // repair completion, which changes both the delivered capacity
            // and the set of dispatchable slots mid-span.
            let next = self.arrivals[self.next_arrival].0;
            self.earliest_repair().map_or(next, |until| next.min(until))
        } else if let Some(until) = self.earliest_repair().filter(|_| !self.queue.is_empty()) {
            // Arrivals exhausted and every serving slot offline in repair
            // while work is still queued: advance to the first repair
            // completion so the queue drains there.
            until
        } else {
            // No work in flight, nothing queued (drained above), no
            // arrivals left: every task is accounted.
            return Ok(Step::Stop);
        };
        let target = target.max(now + 1);
        self.skipped(target - now);
        self.m.now = target;
        Ok(Step::Idle)
    }

    fn structural(&mut self, slot: usize, detail: String) -> Result<(), SimError> {
        if let Slot::Busy(inf) = &mut self.m.slots[slot] {
            inf.end = Some(AttemptEnd::Fail {
                kind: "structural_hazard",
                detail,
            });
        }
        Ok(())
    }

    /// Collects the attempts that ended this cycle, in slot order, and
    /// settles them; then accrues the cycle's delivered capacity.
    fn end_tick(&mut self) -> Result<bool, SimError> {
        let now = self.m.now;
        let mut ended: Vec<(usize, AttemptEnd)> = Vec::new();
        for (i, slot) in self.m.slots.iter_mut().enumerate() {
            let Slot::Busy(inf) = slot else { continue };
            let end = if let Some(end) = inf.end.take() {
                end
            } else if inf.core.done() {
                AttemptEnd::Done
            } else {
                match inf.limits.observe(now + 1, inf.core.stats().instructions) {
                    Ok(()) => continue,
                    Err(LimitTrip::Livelock { stalled }) => AttemptEnd::Fail {
                        kind: "livelock",
                        detail: format!("no commit for {stalled} cycles"),
                    },
                    Err(LimitTrip::Budget { budget }) => AttemptEnd::Fail {
                        kind: "cycle_budget",
                        detail: format!("attempt exceeded {budget} cycles"),
                    },
                }
            };
            ended.push((i, end));
        }
        for (slot, end) in ended {
            self.settle(slot, end);
        }
        self.report.capacity_millicore_cycles += self.capacity_millicores();
        Ok(false)
    }

    fn wakeup(&self) -> u64 {
        let now = self.m.now;
        // A queued task with an idle slot dispatches at the very next
        // iteration; a queued task with zero healthy cores drains there.
        if !self.queue.is_empty()
            && (self.healthy() == 0 || self.m.slots.iter().any(|s| matches!(s, Slot::Idle)))
        {
            return now;
        }
        let deadline = self.cfg.deadline_cycles;
        let mut wake = u64::MAX;
        for slot in &self.m.slots {
            let Slot::Busy(inf) = slot else { continue };
            wake = wake.min(inf.faults.wakeup(now)).min(inf.limits.wake());
            if deadline > 0 {
                wake = wake.min(inf.task.arrival + deadline);
            }
        }
        if let Some(until) = self.earliest_repair() {
            wake = wake.min(until);
        }
        if let Some(&(arrival, _)) = self.arrivals.get(self.next_arrival) {
            wake = wake.min(arrival);
        }
        if deadline > 0 {
            for t in &self.queue {
                wake = wake.min(t.arrival + deadline);
            }
        }
        wake
    }

    fn skipped(&mut self, span: u64) {
        self.report.capacity_millicore_cycles += self.capacity_millicores() * span;
    }
}

/// Convenience wrapper: builds and runs a service in one call.
pub fn run_service(cfg: ServeConfig) -> Result<ServeReport, SimError> {
    TaskService::new(cfg)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(ncores: usize, tasks: usize) -> ServeConfig {
        let mut cfg = ServeConfig::streaming(ncores, CoreConfig::banked(2), tasks, 0xA11CE);
        cfg.mix = default_mix(32);
        cfg.mean_interarrival = 512;
        cfg
    }

    #[test]
    fn clean_service_completes_every_task() {
        let r = run_service(quick_cfg(2, 12)).expect("service runs");
        assert_eq!(r.completed, 12);
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.failed, 0);
        assert_eq!(r.latencies.len(), 12);
        assert!(r.p50() <= r.p99() && r.p99() <= r.p999());
        assert!(r.tasks_per_sec() > 0.0);
        assert!((r.availability() - 1.0).abs() < 1e-12);
        assert!((r.goodput() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mesh_link_campaign_retires_links_and_loses_no_tasks() {
        let mut cfg = quick_cfg(4, 24);
        cfg.fabric.topology = "mesh2x2".parse().unwrap();
        cfg.faults = ServeFaultPlan::links(9);
        cfg.ras = Some(RasConfig::default());
        let r = run_service(cfg).expect("mesh service runs");
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.silent_corruptions, 0);
        assert!(r.fabric.noc_hops > 0, "traffic must traverse the mesh");
        assert!(
            r.fabric.noc_retransmissions >= 1,
            "corrupted flits must be caught and retried"
        );
        assert!(
            r.fabric.noc_links_retired + r.fabric.noc_links_fenced >= 1,
            "nine upsets at threshold 3 must retire links"
        );
        assert!(
            r.availability() < 1.0,
            "lost link bandwidth must show up in availability"
        );
        assert!(r.summary().contains("noc hops="));
    }

    #[test]
    fn discarded_cores_leave_no_uncollected_responses() -> Result<(), SimError> {
        // Finished and failed attempts alike are discarded with requests
        // (writebacks at least) still in the fabric.
        let mut cfg = quick_cfg(4, 24);
        cfg.fabric.topology = virec_mem::FabricTopology::Mesh { cols: 2, rows: 2 };
        cfg.protection = ProtectionConfig::secded();
        cfg.faults = ServeFaultPlan {
            transient: 8,
            ..ServeFaultPlan::links(4)
        };
        cfg.ras = Some(RasConfig::default());
        let mut svc = TaskService::new(cfg)?;
        let r = svc.run()?;
        assert_eq!(r.completed + r.failed, 24);
        assert!(r.faults_injected > 0);
        assert_eq!(svc.m.fabric.uncollected(), 0);
        Ok(())
    }

    #[test]
    fn crossbar_link_campaign_is_inert() {
        let mut cfg = quick_cfg(2, 8);
        cfg.faults = ServeFaultPlan::links(6);
        let r = run_service(cfg).expect("service runs");
        assert_eq!(r.faults_injected, 0, "no links to attack on a crossbar");
        assert_eq!(r.completed, 8);
        assert!(!r.summary().contains("noc hops="));
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = run_service(quick_cfg(3, 16)).unwrap();
        let b = run_service(quick_cfg(3, 16)).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn zero_cores_is_a_typed_config_error() {
        let err = TaskService::new(quick_cfg(0, 4)).err().expect("must fail");
        assert_eq!(err.kind(), "config");
    }

    #[test]
    fn zero_queue_depth_is_a_typed_config_error() {
        let mut cfg = quick_cfg(1, 4);
        cfg.queue_depth = 0;
        assert_eq!(TaskService::new(cfg).err().unwrap().kind(), "config");
    }

    #[test]
    fn empty_mix_is_a_typed_config_error() {
        let mut cfg = quick_cfg(1, 4);
        cfg.mix.clear();
        assert_eq!(TaskService::new(cfg).err().unwrap().kind(), "config");
    }

    #[test]
    fn overload_sheds_with_queue_full_not_deadlock() {
        let mut cfg = quick_cfg(1, 40);
        cfg.mean_interarrival = 8; // far beyond one core's capacity
        cfg.queue_depth = 2;
        let r = run_service(cfg).unwrap();
        assert!(r.rejected_queue_full > 0, "overload must shed load");
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost, 0);
        assert_eq!(r.duplicated, 0);
    }

    #[test]
    fn transient_fault_is_detected_and_retried() {
        let mut cfg = quick_cfg(1, 6);
        cfg.faults = ServeFaultPlan {
            transient: 6,
            ..ServeFaultPlan::none()
        };
        cfg.quarantine_after = 0; // isolate the retry path
        let r = run_service(cfg).unwrap();
        assert_eq!(r.faults_injected, 6);
        assert!(r.retries > 0, "detected divergences must trigger retries");
        assert_eq!(r.completed, 6, "clean retries must complete every task");
        assert_eq!(r.silent_corruptions, 0);
        assert_eq!(r.accounted(), r.submitted);
    }

    #[test]
    fn secded_corrects_single_bit_transients_in_place() {
        let mut cfg = quick_cfg(1, 6);
        cfg.faults = ServeFaultPlan {
            transient: 6,
            ..ServeFaultPlan::none()
        };
        cfg.protection = ProtectionConfig::secded();
        let r = run_service(cfg).unwrap();
        assert_eq!(r.faults_corrected, 6);
        assert_eq!(r.completed, 6);
        assert_eq!(r.retries, 0, "corrected upsets never cost a retry");
    }

    #[test]
    fn sticky_core_quarantines_and_fails_over() {
        let mut cfg = quick_cfg(2, 20);
        cfg.faults = ServeFaultPlan {
            sticky_cores: 1,
            sticky_after: 2,
            ..ServeFaultPlan::none()
        };
        cfg.protection = ProtectionConfig::secded();
        cfg.quarantine_after = 2;
        let r = run_service(cfg).unwrap();
        assert_eq!(r.quarantined_cores, 1);
        assert!(
            r.failovers >= 1,
            "quarantine must re-dispatch in-flight work"
        );
        assert!(r.faults_uncorrectable >= 2);
        assert_eq!(r.accounted(), r.submitted);
        assert_eq!(r.lost + r.duplicated + r.silent_corruptions, 0);
        assert!(r.availability() < 1.0, "a quarantined core costs capacity");
    }

    #[test]
    fn fully_quarantined_service_drains_with_rejections() {
        let mut cfg = quick_cfg(1, 15);
        cfg.faults = ServeFaultPlan {
            sticky_cores: 1,
            ..ServeFaultPlan::none()
        };
        cfg.protection = ProtectionConfig::secded();
        cfg.quarantine_after = 1;
        cfg.retry = RetryPolicy::none();
        let r = run_service(cfg).unwrap();
        assert_eq!(r.quarantined_cores, 1);
        assert!(r.rejected_quarantined > 0, "drain must be typed rejections");
        assert_eq!(r.completed + r.failed + r.rejected_quarantined, r.submitted);
        assert_eq!(r.lost, 0);
    }

    #[test]
    fn queued_tasks_past_their_slo_deadline_fail_typed() {
        let mut cfg = quick_cfg(1, 30);
        cfg.mean_interarrival = 8;
        cfg.queue_depth = 30; // admit everything; the deadline must shed
        cfg.deadline_cycles = 2_000;
        let r = run_service(cfg).unwrap();
        assert!(r.failed > 0, "queued tasks must expire against the SLO");
        assert_eq!(r.accounted(), r.submitted);
    }

    #[test]
    fn summary_and_metrics_are_consistent() {
        let r = run_service(quick_cfg(2, 8)).unwrap();
        let s = r.summary();
        assert!(s.contains("lost=0 duplicated=0"), "{s}");
        assert!(s.contains("silent_corruptions=0"), "{s}");
        let CellData::Metrics(m) = r.metrics() else {
            panic!("metrics cell expected")
        };
        let get = |k: &str| m.iter().find(|(n, _)| n == k).map(|(_, v)| *v).unwrap();
        assert_eq!(get("completed") as usize, r.completed);
        assert_eq!(get("p99_cycles") as u64, r.p99());
        assert!((get("availability") - r.availability()).abs() < 1e-12);
    }

    #[test]
    fn reject_reason_labels_are_stable() {
        assert_eq!(RejectReason::QueueFull.to_string(), "queue_full");
        assert_eq!(
            RejectReason::QuarantinedCapacity.to_string(),
            "quarantined_capacity"
        );
    }
}
