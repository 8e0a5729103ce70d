//! The one fault router every driver shares.
//!
//! A [`FaultRouter`] holds a schedule of [`FaultEvent`]s and routes each
//! one through the protection model ([`crate::ecc`]) and the RAS layer
//! ([`crate::ras`]) before it corrupts anything: due events are grouped by
//! word (a multi-bit upset is seen whole), corrected or detected under the
//! per-site coverage map, charged to the CE tracker, and — at the
//! threshold, or on demand after a detected-uncorrectable — their physical
//! region is retired. Link upsets take the NoC's CRC/retransmission path
//! instead. Every entry point takes the cycle and the [`Scope`] it acts on,
//! so the router does not care which driver, or which hook of its step,
//! calls it: the single-core runner routes after each tick and rewinds
//! through its checkpoint, the serve dispatcher routes a task's upset
//! before the attempt's tick and drives its link-wear campaign through
//! [`FaultRouter::link_upset`].
//!
//! The router's state splits in two. [`Rewindable`] — the pending events,
//! the [`EccStats`], the narrative and whether routing has changed the
//! machine at all — is architectural: a checkpoint copies it and a restore
//! rewinds it. The rest is physical: RAS counters,
//! the CE tracker, the patrol scrubber, the retirement log and the
//! per-family restore counts survive a restore, because a masked way or a
//! remapped row stays repaired when the architectural state rolls back.

use crate::ecc::{protect_word, EccStats, ProtectionConfig, ProtectionLevel, WordVerdict};
use crate::fault::{engine_fault_of, FaultEvent, FaultSite};
use crate::ras::{CeRegion, CeTracker, RasConfig, RasStats, RetiredRegion, Scrubber};
use std::collections::HashMap;
use virec_core::Core;
use virec_isa::{FlatMem, Reg};
use virec_mem::{Fabric, LinkRetireOutcome, RetireOutcome};
use virec_workloads::Layout;

/// What a routed fault acts on: the core it targets, the shared fabric and
/// memory, and the layout of the workload that core runs.
pub(crate) struct Scope<'a> {
    pub core: &'a mut Core,
    pub fabric: &'a mut Fabric,
    pub mem: &'a mut FlatMem,
    pub layout: &'a Layout,
}

/// The part of a [`FaultRouter`] a checkpoint copies and a restore rewinds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rewindable {
    /// Scheduled events not yet due (persistent classes re-arm here).
    pub pending: Vec<FaultEvent>,
    /// Protection-model and checkpoint/replay counters.
    pub ecc: EccStats,
    /// Descriptions of what the injected faults did, in order.
    pub narrative: Vec<String>,
    /// Whether routing changed the core, the fabric or memory: a landed or
    /// pass-through fault, a parity escape, a link upset, a patrol read or
    /// a retirement. A corrected, detected or not-applicable group leaves
    /// it alone. A restore takes back the checkpoint's value, since the
    /// machine goes back to the checkpoint's image with it.
    pub altered: bool,
}

impl Rewindable {
    /// Arms `events` on a state with nothing pending, as if they had been
    /// scheduled from cycle 0. Before an event's cycle the plan only sits
    /// in the pending list (and in the checkpoint that copies it), so a
    /// fork of a fault-free run that arms its plan here, in its router and
    /// in its checkpoint, is the run that carried the plan from the start,
    /// provided no event is due yet and no patrol read has passed one of
    /// them ([`FaultRouter::first_scrub_hit`]).
    pub fn arm(&mut self, events: &[FaultEvent]) {
        debug_assert!(self.pending.is_empty(), "a fork arms a fault-free run");
        self.pending = events.to_vec();
    }
}

/// A detected-uncorrectable outcome: the protection caught the upset before
/// anything consumed it, so the machine is clean but the driver must
/// recover (rewind, or end the attempt).
pub(crate) struct Detected {
    /// Every event of every detected group this cycle, first group first.
    pub events: Vec<FaultEvent>,
    /// Description of the last detected group.
    pub desc: String,
}

/// Routes scheduled faults through protection and RAS (module docs).
#[derive(Clone)]
pub(crate) struct FaultRouter {
    protection: ProtectionConfig,
    ras: Option<RasConfig>,
    /// Rewound by a checkpoint restore.
    pub rewindable: Rewindable,
    // Physical state: survives a restore.
    /// RAS-layer counters.
    pub ras_stats: RasStats,
    tracker: CeTracker,
    scrubber: Option<Scrubber>,
    retired_log: Vec<RetiredRegion>,
    retired_families: Vec<(FaultSite, u64)>,
    due_restores: HashMap<(FaultSite, u64), u32>,
}

impl FaultRouter {
    /// A router over `events` under `protection`, with the RAS layer `ras`
    /// and, when the layer patrols, a scrubber.
    pub fn new(
        events: Vec<FaultEvent>,
        protection: ProtectionConfig,
        ras: Option<RasConfig>,
        scrubber: Option<Scrubber>,
    ) -> FaultRouter {
        FaultRouter {
            protection,
            ras,
            rewindable: Rewindable {
                pending: events,
                ..Rewindable::default()
            },
            ras_stats: RasStats::default(),
            tracker: CeTracker::new(
                ras.map_or(1, |rc| rc.ce_threshold),
                ras.map_or(0, |rc| rc.ce_leak_interval),
            ),
            scrubber,
            retired_log: Vec::new(),
            retired_families: Vec::new(),
            due_restores: HashMap::new(),
        }
    }

    /// The patrol scrubber's spacing in cycles, when the RAS layer patrols.
    pub fn scrub_interval(&self) -> Option<u64> {
        match (&self.ras, &self.scrubber) {
            (Some(rc), Some(_)) => Some(rc.scrub_interval),
            _ => None,
        }
    }

    /// The earliest cycle at or after `now` the router must act: the next
    /// pending event or patrol read; `u64::MAX` when it has nothing left.
    pub fn wakeup(&self, now: u64) -> u64 {
        let wake = self
            .rewindable
            .pending
            .iter()
            .map(|ev| ev.cycle)
            .min()
            .unwrap_or(u64::MAX);
        match self.scrub_interval() {
            Some(interval) => wake.min(now.next_multiple_of(interval)),
            None => wake,
        }
    }

    /// Applies the events due at `now`. Returns the detected-uncorrectable
    /// groups, if any, for the driver to recover from.
    pub fn inject(&mut self, now: u64, scope: &mut Scope<'_>) -> Option<Detected> {
        // Collect every event due this cycle, then group the ones that hit
        // the same word of the same site — that is a multi-bit upset, and
        // the protection model must see it whole (a double-bit flip is one
        // DUE, not two correctable singles).
        let pending = &mut self.rewindable.pending;
        let mut due: Vec<FaultEvent> = Vec::new();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].cycle <= now {
                let ev = pending.swap_remove(i);
                if self.retired_families.contains(&ev.family()) {
                    // The region is out of service — its cells are no
                    // longer wired to anything. The assertion is dropped
                    // and the family is not re-armed.
                    self.ras_stats.suppressed_assertions += 1;
                    continue;
                }
                // Persistent classes re-assert: schedule the next firing up
                // front so the skip step's wakeups cover it like any
                // scheduled event.
                if let Some((period, next)) = ev.class.rearm() {
                    pending.push(FaultEvent {
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
        let (mut suppress, mut detected_desc) = (Vec::new(), None);
        for group in &groups {
            let ev = group[0];
            if ev.site == FaultSite::NocLink {
                for ev in group {
                    self.link_upset(now, scope.fabric, ev.index, ev.class.is_persistent());
                }
                continue;
            }
            let corrected_before = self.rewindable.ecc.corrected;
            if let Some(desc) = self.protect(now, group, scope) {
                suppress.extend_from_slice(group);
                detected_desc = Some(desc);
            }
            // Predictive sparing: every *corrected* assertion of a
            // persistent defect charges the region's leaky bucket; at the
            // threshold the region is retired before a second cell failure
            // can turn correctable into uncorrectable.
            let fam = ev.family();
            if self.ras.is_some()
                && self.rewindable.ecc.corrected > corrected_before
                && ev.class.is_persistent()
                && !self.retired_families.contains(&fam)
            {
                let waddr = word_target(&ev, scope).map(|(a, _)| a);
                let region = match waddr {
                    Some(a) => CeRegion::Row(scope.fabric.row_key(a)),
                    None => CeRegion::Site(ev.index),
                };
                if self.charge(now, region) {
                    self.retire_family(now, &ev, waddr, scope);
                }
            }
        }
        detected_desc.map(|desc| Detected {
            events: suppress,
            desc,
        })
    }

    /// Patrol read: a real fabric request that occupies the target bank
    /// like demand traffic — scrubbing is not free bandwidth. A persistent
    /// defect whose cells sit in the line just scrubbed registers a
    /// correctable error with the CE tracker before demand traffic trips
    /// over it.
    #[cold]
    pub fn scrub(&mut self, now: u64, scope: &mut Scope<'_>) {
        let Some(addr) = self.scrubber.as_mut().and_then(Scrubber::next_line) else {
            return;
        };
        scope.fabric.submit_scrub(now, addr);
        self.rewindable.altered = true;
        self.ras_stats.scrub_reads += 1;
        let hits: Vec<(FaultEvent, u64)> = self
            .rewindable
            .pending
            .iter()
            .filter_map(|ev| Some((*ev, patrolled_word(ev, scope)?)))
            .filter(|&(_, waddr)| line_of(waddr) == line_of(addr))
            .collect();
        let mut seen: Vec<(FaultSite, u64)> = Vec::new();
        for (ev, waddr) in hits {
            let fam = ev.family();
            if seen.contains(&fam) || self.retired_families.contains(&fam) {
                continue;
            }
            seen.push(fam);
            if self.charge(now, CeRegion::Row(scope.fabric.row_key(waddr))) {
                self.retire_family(now, &ev, Some(waddr), scope);
            }
        }
    }

    /// The first patrol read in `[now, until)` that would find one of
    /// `events` pending, with the clock at the top of step `now`. A scrub
    /// charges a persistent cell defect it finds pending before the defect
    /// first asserts, so such a read is where a plan can first change a
    /// run. `None` when no read before `until` would.
    pub fn first_scrub_hit(
        &self,
        now: u64,
        until: u64,
        events: &[FaultEvent],
        scope: &Scope<'_>,
    ) -> Option<u64> {
        let interval = self.scrub_interval()?;
        let lines: Vec<u64> = events
            .iter()
            .filter_map(|ev| patrolled_word(ev, scope).map(line_of))
            .collect();
        if lines.is_empty() {
            return None;
        }
        let mut scrubber = self.scrubber.clone()?;
        (now.next_multiple_of(interval)..until)
            .step_by(interval as usize)
            .find(|_| {
                scrubber
                    .next_line()
                    .is_some_and(|addr| lines.contains(&line_of(addr)))
            })
    }

    /// Feeds one correctable error to the CE tracker; `true` when the
    /// region crossed the threshold and is retired predictively.
    fn charge(&mut self, now: u64, region: CeRegion) -> bool {
        self.ras_stats.ce_observations += 1;
        let retire = self.tracker.charge(region, now);
        if retire {
            self.ras_stats.predictive_retirements += 1;
        }
        retire
    }

    /// Link upsets never reach the word-protection model: the per-hop CRC
    /// detects the corrupted flit in transit and the nack/retransmit
    /// protocol delivers a clean copy, so the upset is corrected at the
    /// link layer. With the RAS layer on, persistent defects charge the
    /// link's CE leaky bucket toward predictive retirement (route-around)
    /// or, when no route would survive, degraded fencing. `index` picks
    /// the link (the fabric reduces it modulo its link population), and
    /// `persistent` marks a defect that re-asserts. `None` when there was
    /// nothing to corrupt (a crossbar, or the link is out of service);
    /// otherwise whether the link was retired.
    pub fn link_upset(
        &mut self,
        now: u64,
        fabric: &mut Fabric,
        index: u64,
        persistent: bool,
    ) -> Option<bool> {
        let link = fabric.inject_link_fault(index)?;
        self.rewindable.altered = true;
        self.rewindable.ecc.corrected += 1;
        let narrative = &mut self.rewindable.narrative;
        narrative.push(format!(
            "cycle {now}: noc link {link} upset (crc caught, retransmitted)"
        ));
        let fam = (FaultSite::NocLink, index);
        if self.ras.is_none()
            || !persistent
            || self.retired_families.contains(&fam)
            || !self.charge(now, CeRegion::Link(link))
        {
            return Some(false);
        }
        // `inject_link_fault` landed, so the fabric is a mesh and
        // `retire_link` always answers.
        let outcome = fabric.retire_link(link);
        debug_assert!(outcome.is_some(), "a mesh retires its links");
        let narrative = &mut self.rewindable.narrative;
        if outcome == Some(LinkRetireOutcome::Fenced) {
            self.ras_stats.degraded_regions += 1;
            narrative.push(format!(
                "cycle {now}: ras fenced noc link {link} \
                 (half bandwidth, no surviving route)"
            ));
        } else {
            narrative.push(format!(
                "cycle {now}: ras retired noc link {link} (rerouted)"
            ));
        }
        self.retired_log.push(RetiredRegion::Link { link });
        self.retire(fam);
        Some(true)
    }

    /// Without a RAS layer, persistent faults cannot be outlived by replay
    /// alone — the cells stay broken — so the retry loop is bounded: the
    /// first defect family of `detected` to trip its second
    /// detected-uncorrectable, counted across restores.
    pub fn unrecoverable(&mut self, detected: &Detected) -> Option<(FaultSite, u64)> {
        if self.ras.is_some() {
            return None;
        }
        for fam in detected
            .events
            .iter()
            .filter(|e| e.class.is_persistent())
            .map(FaultEvent::family)
        {
            let c = self.due_restores.entry(fam).or_insert(0);
            *c += 1;
            if *c >= 2 {
                return Some(fam);
            }
        }
        None
    }

    /// The router half of a checkpoint restore: rewinds to `to` (the state
    /// snapshotted at cycle `now`) with the transient members of `detected`
    /// suppressed for the replay, replays the retirement log onto the
    /// restored machine in `scope`, and — with RAS on — retires the
    /// persistent regions behind `detected` on demand. `detect_cycle` is
    /// the cycle the detection rewound from.
    pub fn rewind(
        &mut self,
        to: Rewindable,
        detected: &Detected,
        now: u64,
        detect_cycle: u64,
        scope: &mut Scope<'_>,
    ) {
        let suppress = &detected.events;
        let ecc = std::mem::replace(&mut self.rewindable, to).ecc;
        // Transient members of the detected group are suppressed for the
        // replay; persistent members stay armed — only a retirement (below)
        // or the bounded-restore tripwire removes them.
        self.rewindable
            .pending
            .retain(|e| !suppress.contains(e) || e.class.is_persistent());
        // Physical repairs survive the rollback: replay the retirement log
        // onto the restored clone. Stats are not recounted, and spare
        // numbering re-applies in log order, hence deterministically.
        self.rewindable.altered |= !self.retired_log.is_empty();
        for r in &self.retired_log {
            match *r {
                RetiredRegion::Way { idx, spared } => {
                    scope.core.remask_way(idx, spared, scope.fabric, scope.mem);
                }
                RetiredRegion::Row { addr, .. } => {
                    scope.fabric.retire_row(addr);
                }
                RetiredRegion::Link { link } => {
                    // Re-decides rerouted-vs-fenced on the restored fabric;
                    // log order makes the outcome deterministic.
                    let _ = scope.fabric.retire_link(link);
                }
            }
        }
        // Demand retirement: with RAS on, a detected uncorrectable in a
        // persistent region retires it on the restored machine, so the
        // replay cannot trip over the same defect again.
        if self.ras.is_some() {
            let mut fams: Vec<FaultEvent> = Vec::new();
            for ev in suppress.iter().filter(|e| e.class.is_persistent()) {
                if !self.retired_families.contains(&ev.family())
                    && !fams.iter().any(|f| f.family() == ev.family())
                {
                    fams.push(*ev);
                }
            }
            for ev in fams {
                let waddr = word_target(&ev, scope).map(|(a, _)| a);
                self.ras_stats.demand_retirements += 1;
                self.retire_family(now, &ev, waddr, scope);
            }
            let retired = &self.retired_families;
            self.rewindable
                .pending
                .retain(|e| !retired.contains(&e.family()));
        }
        // Correction/escape counters rewind with the state (re-fired
        // events in the replay window re-count); the cumulative recovery
        // counters carry forward.
        let rewound = &mut self.rewindable.ecc;
        rewound.checkpoints_taken = ecc.checkpoints_taken;
        rewound.detected_uncorrectable += 1;
        rewound.restores = ecc.restores + 1;
        rewound.replay_cycles = ecc.replay_cycles + (detect_cycle - now);
        self.rewindable.narrative.push(format!(
            "{}; restored checkpoint @ cycle {now} (replaying {} cycles)",
            detected.desc,
            detect_cycle - now
        ));
    }

    /// Takes the physical region behind one persistent fault family out of
    /// service: masks a VRMU way (activating a spare when provisioned) or
    /// retires a DRAM row through the remap table (consuming a spare row or
    /// fencing onto the shared remnant row). Regions without retirable
    /// cells — control state, transport, a banked engine's register cells —
    /// are fenced logically: the family is dropped and the loss is
    /// accounted as degraded capacity. Migration of a retired row's data is
    /// modeled as real scrub-read traffic through the fabric.
    fn retire_family(
        &mut self,
        now: u64,
        ev: &FaultEvent,
        word_addr: Option<u64>,
        scope: &mut Scope<'_>,
    ) {
        let Scope {
            core, fabric, mem, ..
        } = scope;
        self.rewindable.altered = true;
        let (ras, applied) = (&mut self.ras_stats, &mut self.rewindable.narrative);
        match (ev.site, word_addr) {
            (FaultSite::TagValue, _) => match core.retire_value_way(ev.index, true, fabric, mem) {
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
                    // No maskable way (banked engine) or the store is at its
                    // in-flight floor: fence the family logically and run
                    // on with the capacity loss.
                    ras.degraded_regions += 1;
                    applied.push(format!(
                        "cycle {now}: ras fenced unmaskable way family index {}",
                        ev.index
                    ));
                }
            },
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
        self.retire(ev.family());
    }

    /// Takes a fault family out of service: its cells no longer assert.
    fn retire(&mut self, fam: (FaultSite, u64)) {
        self.retired_families.push(fam);
        self.rewindable.pending.retain(|e| e.family() != fam);
    }

    /// Routes one fault group (same cycle, same site, same word) through the
    /// coverage map and applies whatever the modeled hardware lets through.
    /// Returns the description of a detected-uncorrectable group: the
    /// machine was *not* corrupted (the detection is precise), and the
    /// driver must recover. `None` when the group was absorbed (corrected,
    /// not applicable) or applied (pass-through, parity escape).
    fn protect(&mut self, now: u64, group: &[FaultEvent], scope: &mut Scope<'_>) -> Option<String> {
        let protection = &self.protection;
        let site = group[0].site;
        let level = protection.level(site);
        if level == ProtectionLevel::None {
            for ev in group {
                if let Some(desc) = apply_fault(ev, scope) {
                    self.rewindable.altered = true;
                    if !protection.is_none() {
                        self.rewindable.ecc.unprotected += 1;
                    }
                    self.rewindable
                        .narrative
                        .push(format!("cycle {now}: {desc}"));
                }
            }
            return None;
        }
        // The group as the check bits see it: the verdict, the target as
        // the narrative names it (whole, and once corrected), and a
        // pass-through beyond the code's reach with its flip count.
        let (verdict, target, corrected, passed, flips) = match site {
            FaultSite::TagValue | FaultSite::RollbackSlot => {
                // Probe applicability on a deep copy so detected or corrected
                // flips never touch the real machine — the check bits caught
                // them before any consumer read the entry.
                let mut probe = scope.core.clone();
                let landed: Vec<String> = group
                    .iter()
                    .filter_map(engine_fault_of)
                    .filter_map(|f| probe.inject_fault(f))
                    .collect();
                let n = landed.len();
                if n == 0 {
                    return None; // structure empty: nothing to protect
                }
                let verdict = match level {
                    ProtectionLevel::Parity if n % 2 == 1 => WordVerdict::Detected,
                    ProtectionLevel::SecDed if n == 1 => WordVerdict::Corrected,
                    ProtectionLevel::SecDed if n == 2 => WordVerdict::Detected,
                    // An even-weight flip the parity bit is blind to, or ≥ 3
                    // flips beyond the SEC-DED guarantee: the corruption goes
                    // through for real.
                    _ => WordVerdict::Landed,
                };
                if verdict == WordVerdict::Landed {
                    self.rewindable.altered = true;
                    for f in group.iter().filter_map(engine_fault_of) {
                        scope.core.inject_fault(f);
                    }
                }
                let target = format!("{site} ({})", landed.join("; "));
                let passed = format!("{n} flips passed {site}");
                (verdict, target.clone(), target, passed, n)
            }
            FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse => {
                // `None`: target out of range / no in-flight request.
                let (addr, base) = word_target(&group[0], scope)?;
                let mask: u64 = group.iter().fold(0, |m, ev| m ^ (1u64 << (ev.bit % 64)));
                if mask == 0 {
                    return None; // flips cancelled each other
                }
                let word = scope.mem.read_u64(addr);
                let verdict = protect_word(level, word, mask);
                if verdict == WordVerdict::Landed {
                    self.rewindable.altered = true;
                    scope.mem.write_u64(addr, word ^ mask);
                }
                let corrected = format!("{base} bit {}", mask.trailing_zeros());
                let passed = format!("{} flips passed {base} mask {mask:#x}", mask.count_ones());
                let target = format!("{base} mask {mask:#x}");
                (verdict, target, corrected, passed, group.len())
            }
            // Never protected: `ProtectionConfig::level` is `None` for both,
            // so the pass-through above took them; link groups never get
            // here at all.
            FaultSite::StuckFill | FaultSite::NocLink => return None,
        };
        let Rewindable { ecc, narrative, .. } = &mut self.rewindable;
        let parity = level == ProtectionLevel::Parity;
        let desc = match verdict {
            WordVerdict::Corrected => {
                ecc.corrected += 1;
                format!("cycle {now}: secded corrected {corrected}")
            }
            WordVerdict::Detected => {
                ecc.detected_uncorrectable += 1;
                let double = if parity { "" } else { "double-bit " };
                let desc = format!("cycle {now}: {level} detected {double}{target}");
                narrative.push(desc.clone());
                return Some(desc);
            }
            WordVerdict::Landed if parity => {
                // The differential checker is the only remaining net.
                ecc.parity_escapes += 1;
                format!("cycle {now}: parity escape {target}")
            }
            WordVerdict::Landed => {
                ecc.unprotected += flips as u64;
                format!("cycle {now}: {passed}")
            }
        };
        narrative.push(desc);
        None
    }
}

/// Applies one fault event to the machine with no protection in the way.
/// Returns a description when the fault landed, `None` when the targeted
/// structure had nothing to corrupt (e.g. a VRMU site on a banked engine,
/// or no in-flight request).
fn apply_fault(event: &FaultEvent, scope: &mut Scope<'_>) -> Option<String> {
    match event.site {
        FaultSite::TagValue | FaultSite::RollbackSlot | FaultSite::StuckFill => {
            scope.core.inject_fault(engine_fault_of(event)?)
        }
        FaultSite::BackingReg | FaultSite::DramLine | FaultSite::FabricResponse => {
            let (addr, base) = word_target(event, scope)?;
            let v = scope.mem.read_u64(addr);
            scope.mem.write_u64(addr, v ^ (1u64 << (event.bit % 64)));
            Some(format!("{base} bit {}", event.bit % 64))
        }
        // Link upsets are consumed by the CRC/retransmission path, never
        // applied raw (the flit payload is timing-only).
        FaultSite::NocLink => None,
    }
}

/// The word of a persistent backing-store or DRAM cell defect, which a
/// patrol read of its line finds; `None` for any other event.
fn patrolled_word(ev: &FaultEvent, scope: &Scope<'_>) -> Option<u64> {
    let cell = matches!(ev.site, FaultSite::BackingReg | FaultSite::DramLine);
    if !(cell && ev.class.is_persistent()) {
        return None;
    }
    word_target(ev, scope).map(|(addr, _)| addr)
}

/// The cache line holding `addr`.
fn line_of(addr: u64) -> u64 {
    addr & !(virec_mem::LINE_BYTES - 1)
}

/// Resolves a word-site fault event to the memory word it targets.
/// Returns `(address, description)` or `None` when the target is out of
/// range (or, for `FabricResponse`, when no request is in flight).
fn word_target(event: &FaultEvent, scope: &Scope<'_>) -> Option<(u64, String)> {
    let mem_end = scope.mem.size() as u64;
    let layout = scope.layout;
    match event.site {
        FaultSite::BackingReg => {
            let core = &*scope.core;
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
            let addr = scope.fabric.inflight_addr(event.index as usize)?;
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
