//! Deterministic fault injection.
//!
//! A [`FaultPlan`] schedules bit flips at chosen cycles in the structures a
//! real near-memory core would need to protect: VRMU tag-store entries,
//! rollback-queue slots, backing-store register slots, DRAM lines, and
//! in-flight fabric responses. Plans are generated from a `u64` seed with
//! the same xorshift generator the core's Random replacement policy uses —
//! no external RNG crate, and a seed fully determines the campaign.
//!
//! [`run_campaign_with`] drives K single-fault injections against one
//! configuration and classifies every outcome: the paper's differential
//! golden check is the detector, and the acceptance bar is that **no
//! effectful fault survives silently**. Each injection is a fork of one
//! fault-free prefix pass, paused where its plan can first act, rather
//! than a run from cycle 0 ([`crate::runner`]); a fork that its faults
//! left equal to the fault-free run takes that run's result from there.
//! The forks are exact, so the outcomes are the same. A detected injection
//! is classified by what a fault-free re-execution would give, which is
//! known without running it (see `classify`).

use crate::ecc::ProtectionConfig;
use crate::error::SimError;
use crate::ras::RasConfig;
use crate::runner::{
    default_checkpoint_interval, try_run_forks, try_run_single, RunOptions, RunResult,
};
use std::str::FromStr;
use virec_core::policy::XorShift;
use virec_core::{CoreConfig, EngineFault};
use virec_mem::FabricConfig;
use virec_workloads::Workload;

/// A corruptible structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Flip a bit in a valid VRMU tag-store entry's cached value.
    TagValue,
    /// Corrupt a rollback-queue slot (register list or kind bit).
    RollbackSlot,
    /// Mark a tag-store entry's fill as never completing (lost response).
    StuckFill,
    /// Flip a bit in a register slot of the backing-store region.
    BackingReg,
    /// Flip a bit in a word of the workload's data segment (DRAM cell).
    DramLine,
    /// Flip a bit in the memory behind an in-flight fabric request
    /// (a corrupted response payload).
    FabricResponse,
    /// Corrupt a flit in transit on a mesh NoC link (wire upset). Caught
    /// by the link-level CRC and retransmitted; persistent classes model a
    /// marginal link that the RAS layer retires via route-around. Only
    /// meaningful under [`virec_mem::FabricTopology::Mesh`]; on the
    /// crossbar the injection does not land.
    NocLink,
}

impl FaultSite {
    /// The engine-internal sites: the population a seeded campaign draws
    /// from by default. `NocLink` is deliberately **excluded** so that the
    /// `rng % len` site draw of every pre-existing seeded campaign stays
    /// byte-identical; link upsets are opted into via `--sites noc-link`.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::TagValue,
        FaultSite::RollbackSlot,
        FaultSite::StuckFill,
        FaultSite::BackingReg,
        FaultSite::DramLine,
        FaultSite::FabricResponse,
    ];

    /// Every site including the NoC transport layer — the parse / display
    /// population for `--sites`.
    pub const EVERY: [FaultSite; 7] = [
        FaultSite::TagValue,
        FaultSite::RollbackSlot,
        FaultSite::StuckFill,
        FaultSite::BackingReg,
        FaultSite::DramLine,
        FaultSite::FabricResponse,
        FaultSite::NocLink,
    ];

    /// Sites meaningful for engines without a VRMU (banked, software):
    /// `TagValue` still lands (it maps to register cells via
    /// `EngineFault::RegValue`), the VRMU-internal sites do not.
    pub const NON_VRMU: [FaultSite; 4] = [
        FaultSite::TagValue,
        FaultSite::BackingReg,
        FaultSite::DramLine,
        FaultSite::FabricResponse,
    ];

    /// Word-organized sites covered by SEC-DED under the full coverage map
    /// ([`crate::ecc::ProtectionConfig::secded`]) — the sites a double-bit
    /// burst campaign targets to exercise the detection limit.
    pub const SECDED_WORDS: [FaultSite; 3] = [
        FaultSite::BackingReg,
        FaultSite::DramLine,
        FaultSite::FabricResponse,
    ];

    /// Sites with *retirable* physical cells, for permanent-fault
    /// campaigns: a stuck CAM way (tag-value) or a stuck DRAM cell
    /// (backing-reg / dram-line). Transport upsets (fabric-response) and
    /// control-state sites (rollback-slot, stuck-fill) have no region a
    /// spare can replace and are excluded.
    pub const PERMANENT: [FaultSite; 3] = [
        FaultSite::TagValue,
        FaultSite::BackingReg,
        FaultSite::DramLine,
    ];

    /// Retirable sites for engines without a VRMU: no CAM ways to spare,
    /// only DRAM rows.
    pub const PERMANENT_NON_VRMU: [FaultSite; 2] = [FaultSite::BackingReg, FaultSite::DramLine];

    /// Stable kebab-case name (the `--sites` / journal spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::TagValue => "tag-value",
            FaultSite::RollbackSlot => "rollback-slot",
            FaultSite::StuckFill => "stuck-fill",
            FaultSite::BackingReg => "backing-reg",
            FaultSite::DramLine => "dram-line",
            FaultSite::FabricResponse => "fabric-response",
            FaultSite::NocLink => "noc-link",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultSite {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultSite, String> {
        FaultSite::EVERY
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let known: Vec<&str> = FaultSite::EVERY.iter().map(|s| s.name()).collect();
                format!(
                    "unknown fault site '{s}' (expected one of: {})",
                    known.join(", ")
                )
            })
    }
}

/// Parses a comma-separated `--sites` filter (`tag-value,dram-line`) into a
/// site list. Rejects empty lists and unknown names.
pub fn parse_sites(s: &str) -> Result<Vec<FaultSite>, String> {
    let sites: Vec<FaultSite> = s
        .split(',')
        .filter(|p| !p.is_empty())
        .map(str::trim)
        .map(FaultSite::from_str)
        .collect::<Result<_, _>>()?;
    if sites.is_empty() {
        return Err("empty site list".into());
    }
    Ok(sites)
}

/// Temporal behaviour of a scheduled fault: how the upset re-asserts after
/// its first firing. Transient flips are one-shot soft errors; intermittent
/// and stuck-at faults model marginal and dead cells that keep re-asserting
/// until the RAS layer retires the region (or, for intermittent, the duty
/// cycle ends).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// One-shot soft error: fires once and never again.
    Transient,
    /// Duty-cycled upset (a marginal / variable-retention cell): after the
    /// first firing it re-asserts every `period` cycles, `repeats` more
    /// times, then goes quiet.
    Intermittent {
        /// Cycles between assertions.
        period: u64,
        /// Further assertions after the first.
        repeats: u32,
    },
    /// Permanent stuck-at cell: re-asserts every `period` cycles until the
    /// region is retired or the run ends.
    StuckAt {
        /// Cycles between assertions.
        period: u64,
    },
}

impl FaultClass {
    /// Default assertion period for persistent classes parsed by name.
    pub const DEFAULT_PERIOD: u64 = 400;
    /// Default extra assertions for `intermittent` parsed by name.
    pub const DEFAULT_REPEATS: u32 = 6;

    /// Stable kebab-case name (the `--fault-class` / journal spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Intermittent { .. } => "intermittent",
            FaultClass::StuckAt { .. } => "stuck-at",
        }
    }

    /// Whether the fault re-asserts after its first firing.
    pub fn is_persistent(self) -> bool {
        !matches!(self, FaultClass::Transient)
    }

    /// The re-armed copy scheduled after one assertion: `None` when the
    /// fault has exhausted its duty cycle (or is transient).
    pub fn rearm(self) -> Option<(u64, FaultClass)> {
        match self {
            FaultClass::Transient => None,
            FaultClass::Intermittent { repeats: 0, .. } => None,
            FaultClass::Intermittent { period, repeats } => Some((
                period,
                FaultClass::Intermittent {
                    period,
                    repeats: repeats - 1,
                },
            )),
            FaultClass::StuckAt { period } => Some((period, FaultClass::StuckAt { period })),
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for FaultClass {
    type Err = String;
    fn from_str(s: &str) -> Result<FaultClass, String> {
        match s {
            "transient" => Ok(FaultClass::Transient),
            "intermittent" => Ok(FaultClass::Intermittent {
                period: FaultClass::DEFAULT_PERIOD,
                repeats: FaultClass::DEFAULT_REPEATS,
            }),
            "stuck-at" => Ok(FaultClass::StuckAt {
                period: FaultClass::DEFAULT_PERIOD,
            }),
            other => Err(format!(
                "unknown fault class '{other}' (expected one of: transient, intermittent, stuck-at)"
            )),
        }
    }
}

/// One scheduled corruption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault is applied (after the core's tick).
    pub cycle: u64,
    /// Structure to corrupt.
    pub site: FaultSite,
    /// Free index the site interprets (entry/slot/thread/line selector).
    pub index: u64,
    /// Bit position the site interprets modulo the field width.
    pub bit: u8,
    /// Temporal class: one-shot, duty-cycled, or permanent.
    pub class: FaultClass,
}

impl FaultEvent {
    /// The `(site, index)` family key: all assertions of one physical
    /// defect share it, and retirement removes the whole family.
    pub fn family(&self) -> (FaultSite, u64) {
        (self.site, self.index)
    }
}

/// A deterministic schedule of faults for one run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Events, not necessarily sorted; each fires once.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// No faults (the default for ordinary runs).
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    /// A single fault.
    pub fn single(event: FaultEvent) -> FaultPlan {
        FaultPlan {
            events: vec![event],
        }
    }

    /// `count` faults drawn from `sites`, with cycles uniform in
    /// `window.0..window.1`, fully determined by `seed`.
    pub fn seeded(seed: u64, count: usize, window: (u64, u64), sites: &[FaultSite]) -> FaultPlan {
        FaultPlan::drawn(seed, count, window, sites, FaultClass::Transient, |_, _| {
            false
        })
    }

    /// `count` faults of the given temporal `class`, drawn like
    /// [`FaultPlan::seeded`]. For permanent faults on SEC-DED word sites,
    /// one seed in three models a **pair** of stuck cells in the same word:
    /// correction is defeated from the first assertion, forcing the
    /// demand-retirement path instead of the predictive one.
    pub fn seeded_class(
        seed: u64,
        count: usize,
        window: (u64, u64),
        sites: &[FaultSite],
        class: FaultClass,
    ) -> FaultPlan {
        FaultPlan::drawn(seed, count, window, sites, class, |rng, site| {
            matches!(class, FaultClass::StuckAt { .. })
                && FaultSite::SECDED_WORDS.contains(&site)
                && rng.next_u64().is_multiple_of(3)
        })
    }

    /// A double-bit burst: `count` upsets drawn from `sites`, each flipping
    /// **two distinct bits of the same word in the same cycle** — the
    /// multi-bit upset pattern that defeats single-error correction and
    /// exercises the SEC-DED detection limit. Fully determined by `seed`.
    pub fn seeded_burst(
        seed: u64,
        count: usize,
        window: (u64, u64),
        sites: &[FaultSite],
    ) -> FaultPlan {
        FaultPlan::drawn(seed, count, window, sites, FaultClass::Transient, |_, _| {
            true
        })
    }

    /// `count` upsets of `class` drawn from `sites` with cycles uniform in
    /// `window.0..window.1`, fully determined by `seed`. After each upset's
    /// draws, `burst` decides (and may draw to decide) whether a second,
    /// distinct bit of the same word flips in the same cycle.
    fn drawn(
        seed: u64,
        count: usize,
        window: (u64, u64),
        sites: &[FaultSite],
        class: FaultClass,
        burst: impl Fn(&mut XorShift, FaultSite) -> bool,
    ) -> FaultPlan {
        assert!(!sites.is_empty(), "fault plan needs at least one site");
        let mut rng = XorShift::new(seed);
        let span = window.1.saturating_sub(window.0).max(1);
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let ev = FaultEvent {
                cycle: window.0 + rng.next_u64() % span,
                site: sites[(rng.next_u64() % sites.len() as u64) as usize],
                index: rng.next_u64(),
                bit: (rng.next_u64() % 64) as u8,
                class,
            };
            events.push(ev);
            if burst(&mut rng, ev.site) {
                let bit = second_bit(&mut rng, ev.bit);
                events.push(FaultEvent { bit, ..ev });
            }
        }
        FaultPlan { events }
    }

    /// True if the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// How one injection ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectionOutcome {
    /// The run failed with [`SimError::FaultDetected`]: the checker (or
    /// watchdog/budget) caught the corruption — but re-executing the cell
    /// without the fault plan would not reproduce the clean run's state.
    /// Detection without repair. [`run_campaign_with`] never reports it:
    /// that re-execution is the clean run itself (see `classify`).
    Detected,
    /// The corruption was detected **and** re-executing the cell without
    /// the fault plan reproduces the clean run's architectural digest:
    /// the detect-and-re-execute recovery path works end to end.
    Recovered,
    /// The corrupted run panicked on an internal consistency assert —
    /// also a successful detection, via a different tripwire.
    Crashed,
    /// The protection model corrected the flip in place (single-bit under
    /// SEC-DED): the run finished clean with a nonzero scrub counter and
    /// the clean run's digest. The strongest outcome — no time was lost.
    Corrected,
    /// The protection model detected an uncorrectable flip and the runner
    /// restored an architectural checkpoint mid-run, replaying only the
    /// window since the snapshot. The run finished with the clean digest.
    CheckpointRecovered,
    /// The protection model detected an uncorrectable flip with no
    /// checkpoint available; the campaign-level full re-execution
    /// reproduced the clean digest. Detection via check bits, recovery by
    /// re-running from scratch.
    DetectedUncorrectable,
    /// The RAS layer's CE tracker predictively retired the failing region
    /// onto a spare before any uncorrectable error occurred: every
    /// assertion was corrected in place, the leaky-bucket threshold
    /// tripped, and the run finished with the clean digest.
    Retired,
    /// The fault went uncorrectable (stuck CAM way under parity, or a
    /// double stuck cell under SEC-DED); the runner restored a checkpoint
    /// and *demand-retired* the region onto a spare, after which the run
    /// finished with the clean digest.
    Remapped,
    /// A region had to be retired but the spare pool was exhausted: the
    /// region was fenced, capacity shrank, and the run completed — slower,
    /// but with the clean digest. Graceful degradation instead of death.
    Degraded,
    /// The fault was applied but changed nothing observable: the corrupted
    /// state was dead (never read again). Verification passed and the
    /// architectural digest matches the clean run. Benign by construction.
    Masked,
    /// The plan never landed (e.g. VRMU site on an engine without one, or
    /// the scheduled structure was empty at that cycle).
    NotApplied,
    /// The fault changed architectural state **and** every checker passed.
    /// This must never happen; any occurrence is a checker bug.
    Silent,
}

/// One row of a campaign report.
#[derive(Clone, Debug)]
pub struct InjectionRecord {
    /// Seed that generated this injection's plan.
    pub seed: u64,
    /// Descriptions of the faults that actually landed.
    pub faults: Vec<String>,
    /// Classification.
    pub outcome: InjectionOutcome,
    /// Error kind for detected runs (`cycle_budget`, `golden_divergence`…).
    pub error_kind: Option<String>,
    /// Cycles replayed from the restored checkpoint (present only for
    /// [`InjectionOutcome::CheckpointRecovered`]).
    pub replay_cycles: Option<u64>,
}

/// Aggregate result of [`run_campaign_with`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Engine label of the attacked configuration.
    pub engine: String,
    /// Per-injection records, in seed order.
    pub records: Vec<InjectionRecord>,
    /// Cycles of the clean reference run.
    pub clean_cycles: u64,
}

impl CampaignReport {
    /// Count of records with the given outcome.
    pub fn count(&self, outcome: InjectionOutcome) -> usize {
        self.records.iter().filter(|r| r.outcome == outcome).count()
    }

    /// Detection rate over *effectful* faults: caught / (applied − masked).
    /// Masked faults hit dead state and are undetectable by any
    /// architectural checker; they are excluded, as in hardware FIT
    /// accounting. Corrected, checkpoint-recovered, ECC-detected, and
    /// re-execution-recovered injections were all caught first, so they
    /// count as caught.
    pub fn detection_rate(&self) -> f64 {
        let caught = self.count(InjectionOutcome::Detected)
            + self.count(InjectionOutcome::Recovered)
            + self.count(InjectionOutcome::Crashed)
            + self.count(InjectionOutcome::Corrected)
            + self.count(InjectionOutcome::CheckpointRecovered)
            + self.count(InjectionOutcome::DetectedUncorrectable)
            + self.count(InjectionOutcome::Retired)
            + self.count(InjectionOutcome::Remapped)
            + self.count(InjectionOutcome::Degraded);
        let effectful = caught + self.count(InjectionOutcome::Silent);
        if effectful == 0 {
            1.0
        } else {
            caught as f64 / effectful as f64
        }
    }

    /// Recovery rate over detected injections: how many ended with the
    /// clean run's architectural state — corrected in place, restored from
    /// a checkpoint, or repaired by a fault-free re-execution (crashes
    /// detect via a different tripwire and are not re-executed). 1.0 when
    /// nothing was detected.
    pub fn recovery_rate(&self) -> f64 {
        let repaired = self.count(InjectionOutcome::Recovered)
            + self.count(InjectionOutcome::Corrected)
            + self.count(InjectionOutcome::CheckpointRecovered)
            + self.count(InjectionOutcome::DetectedUncorrectable)
            + self.count(InjectionOutcome::Retired)
            + self.count(InjectionOutcome::Remapped)
            + self.count(InjectionOutcome::Degraded);
        let detected = repaired + self.count(InjectionOutcome::Detected);
        if detected == 0 {
            1.0
        } else {
            repaired as f64 / detected as f64
        }
    }

    /// Mean cycles replayed per checkpoint recovery, or `None` when no
    /// injection took the checkpoint path. Compare against
    /// [`CampaignReport::clean_cycles`] — the cost of the full
    /// re-execution that recovery used to require.
    pub fn mean_replay_cycles(&self) -> Option<f64> {
        let replays: Vec<u64> = self
            .records
            .iter()
            .filter_map(|r| r.replay_cycles)
            .collect();
        if replays.is_empty() {
            None
        } else {
            Some(replays.iter().sum::<u64>() as f64 / replays.len() as f64)
        }
    }

    /// True when no effectful fault escaped: zero silent corruptions.
    pub fn all_detected(&self) -> bool {
        self.count(InjectionOutcome::Silent) == 0
    }

    /// True when every checker-detected injection also recovered on its
    /// fault-free re-execution.
    pub fn all_recovered(&self) -> bool {
        self.count(InjectionOutcome::Detected) == 0
    }

    /// One summary line for logs and the campaign driver.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{}: {} injections — {} corrected, {} ckpt-recovered, {} detected-uncorrectable, \
             {} recovered, {} detected-only, {} crashed, {} retired, {} remapped, {} degraded, \
             {} masked, {} not applied, {} SILENT (detection rate {:.1}%, recovery rate {:.1}%)",
            self.engine,
            self.records.len(),
            self.count(InjectionOutcome::Corrected),
            self.count(InjectionOutcome::CheckpointRecovered),
            self.count(InjectionOutcome::DetectedUncorrectable),
            self.count(InjectionOutcome::Recovered),
            self.count(InjectionOutcome::Detected),
            self.count(InjectionOutcome::Crashed),
            self.count(InjectionOutcome::Retired),
            self.count(InjectionOutcome::Remapped),
            self.count(InjectionOutcome::Degraded),
            self.count(InjectionOutcome::Masked),
            self.count(InjectionOutcome::NotApplied),
            self.count(InjectionOutcome::Silent),
            self.detection_rate() * 100.0,
            self.recovery_rate() * 100.0
        );
        if let Some(mean) = self.mean_replay_cycles() {
            s.push_str(&format!(
                " [mean replay {:.0} cycles vs {} full re-execution]",
                mean, self.clean_cycles
            ));
        }
        s
    }

    /// The RAS-campaign gate line, greppable by CI:
    /// `retired=N remapped=N degraded_runs=N silent=N`.
    pub fn ras_summary(&self) -> String {
        format!(
            "{}: ras retired={} remapped={} degraded_runs={} silent={}",
            self.engine,
            self.count(InjectionOutcome::Retired),
            self.count(InjectionOutcome::Remapped),
            self.count(InjectionOutcome::Degraded),
            self.count(InjectionOutcome::Silent)
        )
    }
}

/// Knobs for [`run_campaign_with`]: the protection coverage map, the
/// checkpoint spacing, and the single- vs. double-bit injection mode.
#[derive(Clone, Copy, Debug)]
pub struct CampaignOptions {
    /// Per-site protection levels routed in front of every injection.
    pub protection: ProtectionConfig,
    /// Double-bit burst mode: every injection flips two distinct bits of
    /// the same word in the same cycle, defeating single-error correction.
    pub multi_fault: bool,
    /// Architectural-checkpoint spacing in cycles (0 disables mid-run
    /// recovery; detected-uncorrectable faults then fall back to full
    /// re-execution).
    pub checkpoint_interval: u64,
    /// Temporal class of the injected faults (transient, intermittent,
    /// stuck-at). Non-transient classes model defects that re-assert and
    /// are only survivable with the RAS layer enabled.
    pub class: FaultClass,
    /// RAS layer (scrubber + CE tracker + sparing) for the attacked runs.
    /// `None` disables it; persistent faults then end in a bounded typed
    /// uncorrectable error instead of a retirement.
    pub ras: Option<RasConfig>,
    /// Fabric configuration (topology, latencies) for the clean reference
    /// and every attacked run. Mesh topologies make `noc-link` injections
    /// land; the crossbar default keeps legacy campaigns byte-identical.
    pub fabric: FabricConfig,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            protection: ProtectionConfig::none(),
            multi_fault: false,
            checkpoint_interval: 0,
            class: FaultClass::Transient,
            ras: None,
            fabric: FabricConfig::default(),
        }
    }
}

impl CampaignOptions {
    /// The full protect–detect–correct–recover stack: the SEC-DED coverage
    /// map plus checkpointing at the default spacing.
    pub fn protected() -> CampaignOptions {
        CampaignOptions {
            protection: ProtectionConfig::secded(),
            multi_fault: false,
            checkpoint_interval: default_checkpoint_interval(),
            class: FaultClass::Transient,
            ras: None,
            fabric: FabricConfig::default(),
        }
    }

    /// The permanent-fault endurance stack: SEC-DED, checkpoints, stuck-at
    /// injections, and the RAS layer at its default rates.
    pub fn permanent() -> CampaignOptions {
        CampaignOptions {
            class: FaultClass::StuckAt {
                period: FaultClass::DEFAULT_PERIOD,
            },
            ras: Some(RasConfig::default()),
            ..CampaignOptions::protected()
        }
    }
}

/// Runs a clean reference, then `injections` seeded single-fault runs of
/// `cfg` on `workload`, classifying each against the golden checker and the
/// clean run's architectural digest. [`CampaignOptions::default`] is the
/// detector-only campaign (no protection, no checkpoints); with protection
/// each injection is routed through the coverage map first, and the
/// outcomes extend the detector-only classification with [`InjectionOutcome::Corrected`],
/// [`InjectionOutcome::CheckpointRecovered`], and
/// [`InjectionOutcome::DetectedUncorrectable`].
///
/// # Panics
/// Panics if the clean (fault-free) run itself fails — the configuration
/// must be healthy before it is attacked.
pub fn run_campaign_with(
    cfg: CoreConfig,
    workload: &Workload,
    injections: usize,
    base_seed: u64,
    sites: &[FaultSite],
    campaign: &CampaignOptions,
) -> CampaignReport {
    campaign_forks(cfg, workload, injections, base_seed, sites, campaign).0
}

/// [`run_campaign_with`], and how many injections rejoined the fault-free
/// run ([`try_run_forks`]).
fn campaign_forks(
    cfg: CoreConfig,
    workload: &Workload,
    injections: usize,
    base_seed: u64,
    sites: &[FaultSite],
    campaign: &CampaignOptions,
) -> (CampaignReport, usize) {
    let clean_opts = RunOptions {
        fabric: campaign.fabric,
        ..RunOptions::default()
    };
    let clean: RunResult = try_run_single(cfg, workload, &clean_opts)
        .unwrap_or_else(|e| panic!("clean reference run failed: {e}"));
    let attack = Attack::new(cfg, &clean, injections, base_seed, sites, campaign);
    let mut records = Vec::with_capacity(injections);
    let rejoined = attack.run(workload, &clean, |i, run| {
        let seed = attack.injections[i].seed;
        records.push((i, classify(seed, run, clean.arch_digest)));
    });
    records.sort_unstable_by_key(|&(i, _)| i);
    let report = CampaignReport {
        engine: crate::runner::engine_label(&cfg).to_string(),
        records: records.into_iter().map(|(_, r)| r).collect(),
        clean_cycles: clean.cycles,
    };
    (report, rejoined)
}

/// One attacked run of a campaign: its seed, its fault plan and the RAS
/// layer of its machine.
struct Injection {
    seed: u64,
    plan: FaultPlan,
    ras: Option<RasConfig>,
}

/// A campaign's attacked runs: the attacked configuration, the options
/// every injection shares (no plan, no RAS layer) and each injection.
struct Attack {
    cfg: CoreConfig,
    opts: RunOptions,
    injections: Vec<Injection>,
}

impl Attack {
    /// The `count` injections of a campaign against `cfg`, whose clean
    /// run is `clean`.
    fn new(
        cfg: CoreConfig,
        clean: &RunResult,
        count: usize,
        base_seed: u64,
        sites: &[FaultSite],
        campaign: &CampaignOptions,
    ) -> Attack {
        // Inject inside the meaty middle of the run: after warm-up fills,
        // before the drain, so the corrupted state has a real chance to be
        // consumed.
        let window = ((clean.cycles / 10).max(1), (clean.cycles * 9 / 10).max(2));

        // Attacked runs get tripwires scaled to the clean run, not the
        // conservative defaults: a corrupted run that stops committing is
        // flagged after a few clean-run lengths, and one that runs away
        // while still committing (e.g. a flipped loop bound) is flagged by
        // the budget instead of burning the full configured allowance.
        let mut attacked = cfg;
        attacked.max_cycles = clean
            .cycles
            .saturating_mul(20)
            .max(100_000)
            .min(cfg.max_cycles);
        let opts = RunOptions {
            livelock_cycles: clean.cycles.saturating_mul(4).max(10_000),
            protection: campaign.protection,
            checkpoint_interval: campaign.checkpoint_interval,
            fabric: campaign.fabric,
            ..RunOptions::default()
        };
        let injections = (0..count)
            .map(|i| {
                let seed = base_seed.wrapping_add(i as u64).max(1);
                let plan = if campaign.class.is_persistent() {
                    FaultPlan::seeded_class(seed, 1, window, sites, campaign.class)
                } else if campaign.multi_fault {
                    FaultPlan::seeded_burst(seed, 1, window, sites)
                } else {
                    FaultPlan::seeded(seed, 1, window, sites)
                };
                // One injection in four runs on an end-of-life machine
                // whose spare pools are already consumed: retirement then
                // has to fence the region, exercising the degraded-mode
                // path deterministically.
                let mut ras = campaign.ras;
                if let Some(rc) = &mut ras {
                    if i % 4 == 3 {
                        rc.spare_rows = 0;
                        rc.spare_ways = 0;
                    }
                }
                Injection { seed, plan, ras }
            })
            .collect();
        Attack {
            cfg: attacked,
            opts,
            injections,
        }
    }

    /// Runs every injection and hands `each` its index and what
    /// [`try_run_single`] under [`Attack::opts`] returns (`Err` when it
    /// panicked). The injections of one RAS layer are forks of one
    /// fault-free prefix pass ([`crate::runner::try_run_forks`]), and
    /// those that rejoin it take the campaign's `clean` result. Returns
    /// how many rejoined it.
    fn run(
        &self,
        workload: &Workload,
        clean: &RunResult,
        mut each: impl FnMut(usize, std::thread::Result<Result<RunResult, SimError>>),
    ) -> usize {
        let mut rejoined = 0;
        let mut layers: Vec<Option<RasConfig>> = Vec::new();
        for inj in &self.injections {
            if !layers.contains(&inj.ras) {
                layers.push(inj.ras);
            }
        }
        for ras in layers {
            let members: Vec<usize> = (0..self.injections.len())
                .filter(|&i| self.injections[i].ras == ras)
                .collect();
            let plans: Vec<FaultPlan> = members
                .iter()
                .map(|&i| self.injections[i].plan.clone())
                .collect();
            let opts = RunOptions {
                ras,
                ..self.opts.clone()
            };
            rejoined += try_run_forks(self.cfg, workload, &opts, &plans, clean, |k, run| {
                each(members[k], run)
            });
        }
        rejoined
    }

    /// Injection `i`'s options for a run of its own from cycle 0.
    #[cfg(test)]
    fn opts(&self, i: usize) -> RunOptions {
        let inj = &self.injections[i];
        RunOptions {
            faults: inj.plan.clone(),
            ras: inj.ras,
            ..self.opts.clone()
        }
    }
}

/// Classifies one attacked run against the clean run's `clean_digest`.
///
/// A detected run counts as recovered: re-executed without its fault plan
/// (the checkpoint/restart answer to a detected soft error), it reproduces
/// the clean run's architectural state. That re-execution is known without
/// running it. It is the clean run's configuration on the same fabric, and
/// a deterministic run of it is the clean run unless a limit fires. Its
/// budget, min(`cfg.max_cycles`, max(20 × clean, 100 000)) cycles, exceeds
/// the clean run's length, which finished inside `cfg.max_cycles`. Its
/// watchdog fires after a drought of max(4 × clean, 10 000) cycles, which
/// no run of `clean` cycles can contain. So it ends as the clean run did,
/// with its digest, and [`InjectionOutcome::Detected`] cannot occur.
fn classify(
    seed: u64,
    run: std::thread::Result<Result<RunResult, SimError>>,
    clean_digest: u64,
) -> InjectionRecord {
    match run {
        Err(_) => InjectionRecord {
            seed,
            faults: vec!["(panicked before reporting)".into()],
            outcome: InjectionOutcome::Crashed,
            error_kind: None,
            replay_cycles: None,
        },
        Ok(Err(SimError::FaultDetected {
            faults,
            cause,
            diag: _,
        })) => {
            // An ECC-detected uncorrectable (no checkpoint was available)
            // is its own recovered class: the check bits, not the
            // differential checker, were the tripwire.
            let ecc_detected = cause.kind() == "uncorrectable";
            InjectionRecord {
                seed,
                faults,
                outcome: if ecc_detected {
                    InjectionOutcome::DetectedUncorrectable
                } else {
                    InjectionOutcome::Recovered
                },
                error_kind: Some(cause.kind().to_string()),
                replay_cycles: None,
            }
        }
        Ok(Err(other)) => InjectionRecord {
            // A failure without an applied fault: infrastructure bug,
            // surface it loudly as a crash rather than a detection.
            seed,
            faults: Vec::new(),
            outcome: InjectionOutcome::Crashed,
            error_kind: Some(other.kind().to_string()),
            replay_cycles: None,
        },
        Ok(Ok(result)) => {
            let clean_digest = result.arch_digest == clean_digest;
            // RAS outcomes outrank the transient-era classes: a run that
            // fenced a region *and* replayed a checkpoint is a degradation
            // story, not a recovery story.
            let (outcome, replay) = if result.ras.degraded_regions > 0 && clean_digest {
                (InjectionOutcome::Degraded, None)
            } else if result.ras.demand_retirements > 0 && clean_digest {
                (InjectionOutcome::Remapped, Some(result.ecc.replay_cycles))
            } else if result.ras.predictive_retirements > 0 && clean_digest {
                (InjectionOutcome::Retired, None)
            } else if result.ecc.restores > 0 && clean_digest {
                (
                    InjectionOutcome::CheckpointRecovered,
                    Some(result.ecc.replay_cycles),
                )
            } else if result.ecc.corrected > 0 && clean_digest {
                (InjectionOutcome::Corrected, None)
            } else if result.faults_applied.is_empty() {
                (InjectionOutcome::NotApplied, None)
            } else if clean_digest {
                (InjectionOutcome::Masked, None)
            } else {
                (InjectionOutcome::Silent, None)
            };
            InjectionRecord {
                seed,
                faults: result.faults_applied,
                outcome,
                error_kind: None,
                replay_cycles: replay,
            }
        }
    }
}

/// A second flip in the same word as `bit`, guaranteed distinct so the two
/// cannot XOR-cancel into a no-op.
pub(crate) fn second_bit(rng: &mut XorShift, bit: u8) -> u8 {
    ((bit as u64 + 1 + rng.next_u64() % 63) % 64) as u8
}

/// Maps a generic (site, index, bit) event onto the engine's fault hooks.
/// Used by the runner; exposed for tests.
pub fn engine_fault_of(event: &FaultEvent) -> Option<EngineFault> {
    match event.site {
        FaultSite::TagValue => Some(EngineFault::RegValue {
            nth: event.index,
            bit: event.bit,
        }),
        FaultSite::RollbackSlot => Some(EngineFault::RollbackSlot {
            nth: event.index,
            bit: event.bit,
        }),
        FaultSite::StuckFill => Some(EngineFault::StuckFill { nth: event.index }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecc::EccStats;
    use crate::ras::RasStats;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use virec_core::CoreStats;
    use virec_mem::{FabricStats, FabricTopology};
    use virec_workloads::{kernels, Layout};

    /// Everything a run returns except its wall-clock clone time; a failed
    /// run by its error's kind and text, a panicked one as `None`.
    type Seen = Option<Result<Summary, (&'static str, String)>>;
    type Summary = (
        u64,
        CoreStats,
        Vec<String>,
        u64,
        EccStats,
        RasStats,
        FabricStats,
    );

    fn seen(run: std::thread::Result<Result<RunResult, SimError>>) -> Seen {
        let summary = |r: RunResult| {
            (
                r.cycles,
                r.stats,
                r.faults_applied,
                r.arch_digest,
                r.ecc,
                r.ras,
                r.fabric,
            )
        };
        Some(
            run.ok()?
                .map(summary)
                .map_err(|e| (e.kind(), e.to_string())),
        )
    }

    /// Every injection of the campaigns `tests/campaign_lock.rs` pins, of a
    /// parity campaign against double-bit bursts (each pair escapes, so a
    /// protected group lands), and of two stuck-at campaigns that reach
    /// what a fork must copy besides the machine, on `w` under both loops:
    /// the fork of the fault-free prefix pass returns what the same run
    /// from cycle 0 returns. Without a RAS layer a defect re-asserts after
    /// its checkpoint restore, so the checkpoint must hold the armed plan;
    /// a patrol read every 16 cycles finds defects pending before they
    /// first assert, so a fork must start before such a read.
    fn assert_forks_equal_runs_from_cycle_zero(w: &Workload) -> Result<(), SimError> {
        let protected = CampaignOptions::protected();
        let mesh = FabricConfig {
            topology: FabricTopology::Mesh { cols: 2, rows: 2 },
            ..FabricConfig::default()
        };
        let permanent = CampaignOptions::permanent();
        let patrolled = RasConfig {
            scrub_interval: 16,
            ..RasConfig::default()
        };
        let campaigns: [(&[FaultSite], CampaignOptions); 9] = [
            (&FaultSite::ALL, protected),
            (&[FaultSite::FabricResponse], protected),
            (&FaultSite::ALL, CampaignOptions::default()),
            (
                &FaultSite::SECDED_WORDS,
                CampaignOptions {
                    multi_fault: true,
                    ..protected
                },
            ),
            (
                &FaultSite::ALL,
                CampaignOptions {
                    protection: ProtectionConfig::parity(),
                    multi_fault: true,
                    ..protected
                },
            ),
            (&FaultSite::PERMANENT, permanent),
            (
                &[FaultSite::NocLink],
                CampaignOptions {
                    fabric: mesh,
                    ..protected
                },
            ),
            (
                &FaultSite::PERMANENT,
                CampaignOptions {
                    ras: None,
                    ..permanent
                },
            ),
            (
                &FaultSite::PERMANENT,
                CampaignOptions {
                    ras: Some(patrolled),
                    ..permanent
                },
            ),
        ];
        let cfg = CoreConfig::virec(8, 40);
        for (sites, campaign) in &campaigns {
            let clean_opts = RunOptions {
                fabric: campaign.fabric,
                ..RunOptions::default()
            };
            let clean = try_run_single(cfg, w, &clean_opts)?;
            for dense_loop in [false, true] {
                let mut attack = Attack::new(cfg, &clean, 16, 64, sites, campaign);
                attack.opts.dense_loop = dense_loop;
                let mut forks = 0;
                attack.run(w, &clean, |i, forked| {
                    let opts = attack.opts(i);
                    let whole =
                        catch_unwind(AssertUnwindSafe(|| try_run_single(attack.cfg, w, &opts)));
                    let what = (w.name, sites, dense_loop, attack.injections[i].seed);
                    assert_eq!(seen(forked), seen(whole), "{what:?}");
                    forks += 1;
                });
                assert_eq!(forks, 16);
            }
        }
        Ok(())
    }

    #[test]
    fn gather_forks_equal_runs_from_cycle_zero() -> Result<(), SimError> {
        let gather = kernels::spatter::gather(512, Layout::for_core(0));
        assert_forks_equal_runs_from_cycle_zero(&gather)
    }

    #[test]
    fn spmv_forks_equal_runs_from_cycle_zero() -> Result<(), SimError> {
        let spmv = kernels::sparse::spmv(32, Layout::for_core(0));
        assert_forks_equal_runs_from_cycle_zero(&spmv)
    }

    #[test]
    fn forks_rejoin_only_when_their_faults_left_the_machine_alone() {
        use InjectionOutcome::{CheckpointRecovered, Corrected, NotApplied};
        let w = kernels::spatter::gather(512, Layout::for_core(0));
        let campaign = |sites: &[FaultSite], opts: &CampaignOptions| {
            campaign_forks(CoreConfig::virec(8, 40), &w, 16, 64, sites, opts)
        };
        // Protected: every corrected, checkpoint-recovered and not-applied
        // fork rejoins, and no other.
        let protected = CampaignOptions::protected();
        for sites in [&FaultSite::ALL[..], &[FaultSite::FabricResponse]] {
            let (report, rejoined) = campaign(sites, &protected);
            let repaired = report.count(Corrected) + report.count(CheckpointRecovered);
            assert!(repaired > 0, "{sites:?}");
            assert_eq!(rejoined, repaired + report.count(NotApplied), "{sites:?}");
        }
        // Unprotected, and under parity against double-bit bursts (every
        // pair escapes), every fault that lands changes the machine.
        let escapes = CampaignOptions {
            protection: ProtectionConfig::parity(),
            multi_fault: true,
            ..protected
        };
        for opts in [CampaignOptions::default(), escapes] {
            let (report, rejoined) = campaign(&FaultSite::ALL, &opts);
            assert!(report.count(NotApplied) < 16);
            assert_eq!(rejoined, report.count(NotApplied));
        }
        // The RAS layer and link upsets keep every fork apart.
        let mesh = CampaignOptions {
            fabric: FabricConfig {
                topology: FabricTopology::Mesh { cols: 2, rows: 2 },
                ..FabricConfig::default()
            },
            ..protected
        };
        let permanent = CampaignOptions::permanent();
        for (sites, opts) in [
            (&FaultSite::PERMANENT[..], permanent),
            (&[FaultSite::NocLink], mesh),
        ] {
            assert_eq!(campaign(sites, &opts).1, 0, "{sites:?}");
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 8, (100, 1000), &FaultSite::ALL);
        let b = FaultPlan::seeded(42, 8, (100, 1000), &FaultSite::ALL);
        assert_eq!(a.events.len(), 8);
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.cycle, y.cycle);
            assert_eq!(x.site, y.site);
            assert_eq!(x.index, y.index);
            assert_eq!(x.bit, y.bit);
        }
        let c = FaultPlan::seeded(43, 8, (100, 1000), &FaultSite::ALL);
        assert!(a
            .events
            .iter()
            .zip(&c.events)
            .any(|(x, y)| x.cycle != y.cycle || x.index != y.index));
    }

    #[test]
    fn plan_cycles_respect_window() {
        let p = FaultPlan::seeded(7, 64, (500, 600), &FaultSite::ALL);
        for e in &p.events {
            assert!(
                (500..600).contains(&e.cycle),
                "cycle {} outside window",
                e.cycle
            );
        }
    }

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::EVERY {
            let name = site.to_string();
            assert_eq!(
                name.parse::<FaultSite>().unwrap(),
                site,
                "round trip through '{name}'"
            );
            assert!(
                name.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "'{name}' is not stable kebab-case"
            );
        }
        assert!("tag_value".parse::<FaultSite>().is_err());
        assert_eq!(
            parse_sites("tag-value,dram-line").unwrap(),
            vec![FaultSite::TagValue, FaultSite::DramLine]
        );
        assert_eq!(
            parse_sites("noc-link").unwrap(),
            vec![FaultSite::NocLink],
            "the NoC transport site parses even though ALL excludes it"
        );
        assert!(!FaultSite::ALL.contains(&FaultSite::NocLink));
        assert!(parse_sites("").is_err());
        assert!(parse_sites("tag-value,bogus").is_err());
    }

    #[test]
    fn burst_plans_pair_distinct_bits_in_one_word() {
        let p = FaultPlan::seeded_burst(99, 16, (100, 1000), &FaultSite::SECDED_WORDS);
        assert_eq!(p.events.len(), 32);
        for pair in p.events.chunks(2) {
            assert_eq!(pair[0].cycle, pair[1].cycle, "same cycle");
            assert_eq!(pair[0].site, pair[1].site, "same site");
            assert_eq!(pair[0].index, pair[1].index, "same word");
            assert_ne!(pair[0].bit, pair[1].bit, "distinct bits");
        }
        let q = FaultPlan::seeded_burst(99, 16, (100, 1000), &FaultSite::SECDED_WORDS);
        assert_eq!(p.events, q.events, "seed determines the burst");
    }

    #[test]
    fn report_math() {
        let rec = |outcome| InjectionRecord {
            seed: 1,
            faults: vec![],
            outcome,
            error_kind: None,
            replay_cycles: None,
        };
        let report = CampaignReport {
            engine: "virec".into(),
            records: vec![
                rec(InjectionOutcome::Recovered),
                rec(InjectionOutcome::Recovered),
                rec(InjectionOutcome::Crashed),
                rec(InjectionOutcome::Masked),
                rec(InjectionOutcome::NotApplied),
            ],
            clean_cycles: 1000,
        };
        assert!(report.all_detected());
        assert!(report.all_recovered());
        assert_eq!(report.detection_rate(), 1.0);
        assert_eq!(report.recovery_rate(), 1.0);

        let mut partial = report.clone();
        partial.records.push(rec(InjectionOutcome::Detected));
        assert!(partial.all_detected(), "detection still holds");
        assert!(!partial.all_recovered());
        assert!((partial.recovery_rate() - 2.0 / 3.0).abs() < 1e-12);

        let mut bad = report.clone();
        bad.records.push(rec(InjectionOutcome::Silent));
        assert!(!bad.all_detected());
        assert!(bad.detection_rate() < 1.0);
        assert!(bad.summary().contains("1 SILENT"));

        let mut protected = report.clone();
        protected.records.push(rec(InjectionOutcome::Corrected));
        protected
            .records
            .push(rec(InjectionOutcome::DetectedUncorrectable));
        protected.records.push(InjectionRecord {
            seed: 9,
            faults: vec![],
            outcome: InjectionOutcome::CheckpointRecovered,
            error_kind: None,
            replay_cycles: Some(400),
        });
        assert!(protected.all_detected());
        assert!(protected.all_recovered());
        assert_eq!(protected.detection_rate(), 1.0);
        assert_eq!(protected.recovery_rate(), 1.0);
        assert_eq!(protected.mean_replay_cycles(), Some(400.0));
        assert!(protected.summary().contains("1 ckpt-recovered"));
        assert!(protected.summary().contains("mean replay 400 cycles"));
    }
}
