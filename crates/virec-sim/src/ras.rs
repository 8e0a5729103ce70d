//! RAS (Reliability / Availability / Serviceability) layer: patrol
//! scrubbing, predictive sparing, and degraded-mode bookkeeping.
//!
//! PRs 5–6 made the machine survive **transient** upsets (SEC-DED
//! correction, checkpoint replay, core quarantine). This module handles
//! the faults that do not go away: intermittent duty-cycled flips and
//! permanent stuck-at cells, over the same six injection sites.
//!
//! Three mechanisms compose:
//!
//! * A **patrol scrubber** ([`Scrubber`]) walks every protected word on a
//!   configurable cycle budget. Scrub reads are *real* fabric requests
//!   ([`virec_mem::Fabric::submit_scrub`]) that contend with demand
//!   traffic — repair bandwidth occupies cycles in the latency-bearing
//!   components, it is not free.
//! * A **CE tracker** ([`CeTracker`]) keeps a leaky-bucket counter per
//!   physical region (DRAM row or CAM way). Corrected errors — observed
//!   on demand accesses or by the patrol — fill the bucket; time leaks
//!   it. Crossing the threshold predictively retires the region *before*
//!   a second cell failure turns correctable into silent.
//! * **Spare pools** back the retirement: DRAM rows remap through
//!   [`virec_mem::RemapTable`], CAM ways mask-and-relocate inside the
//!   VRMU tag store. When the pools run dry the region is *fenced* —
//!   taken out of service with no replacement — and the machine keeps
//!   running with less capacity instead of dying.
//!
//! The fault router every driver shares owns the per-run [`RasStats`] and
//! the retirement log ([`RetiredRegion`]); both live *outside* the
//! architectural checkpoint, because a physical repair survives an architectural
//! rollback.

use std::collections::HashMap;

/// Knobs for the RAS layer. `Copy` so campaign options can embed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RasConfig {
    /// Cycles between patrol scrub reads (one cache line per wakeup).
    /// 0 disables the scrubber.
    pub scrub_interval: u64,
    /// Leaky-bucket level at which a region is predictively retired.
    pub ce_threshold: u32,
    /// Cycles per unit of bucket leakage (0 = no leak).
    pub ce_leak_interval: u64,
    /// Spare DRAM rows available for remapping (whole machine).
    pub spare_rows: u32,
    /// Spare CAM ways provisioned per VRMU tag store.
    pub spare_ways: u32,
    /// Cycles a serve slot spends migrating data after a retirement
    /// (the checkpoint/offload copy, modeled as lost slot capacity).
    pub repair_cycles: u64,
}

impl Default for RasConfig {
    fn default() -> RasConfig {
        RasConfig {
            scrub_interval: 8192,
            ce_threshold: 3,
            ce_leak_interval: 100_000,
            spare_rows: 4,
            spare_ways: 2,
            repair_cycles: 20_000,
        }
    }
}

/// Per-run RAS counters, carried in
/// [`crate::runner::RunResult`] and journaled only when non-empty
/// (mirroring [`crate::ecc::EccStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RasStats {
    /// Patrol scrub reads issued into the fabric.
    pub scrub_reads: u64,
    /// Correctable-error observations fed to the CE tracker (demand
    /// corrections and patrol hits on a faulty row).
    pub ce_observations: u64,
    /// Regions retired by the CE tracker before any uncorrectable error.
    pub predictive_retirements: u64,
    /// Regions retired in response to a detected-uncorrectable error
    /// (restore-then-retire).
    pub demand_retirements: u64,
    /// Regions fenced with no spare available (capacity lost).
    pub degraded_regions: u64,
    /// Cache lines copied while migrating retired regions onto spares.
    pub migrated_lines: u64,
    /// Fault assertions dropped because their region was already retired
    /// (the cells are out of service).
    pub suppressed_assertions: u64,
}

impl RasStats {
    /// Every counter with its journal key, in journal order.
    pub fn counters_mut(&mut self) -> [(&'static str, &mut u64); 7] {
        [
            ("scrub_reads", &mut self.scrub_reads),
            ("ce_observations", &mut self.ce_observations),
            ("predictive_retirements", &mut self.predictive_retirements),
            ("demand_retirements", &mut self.demand_retirements),
            ("degraded_regions", &mut self.degraded_regions),
            ("migrated_lines", &mut self.migrated_lines),
            ("suppressed_assertions", &mut self.suppressed_assertions),
        ]
    }

    /// True when the run had no RAS activity at all.
    pub fn is_empty(&self) -> bool {
        *self == RasStats::default()
    }
}

/// One physical repair, recorded so it can be re-applied after a
/// checkpoint restore (the rollback rewinds architectural state, not the
/// remap table or the way mask — but restores clone the *machine*, so the
/// fault router replays the log onto the restored clone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetiredRegion {
    /// A VRMU tag-store way was masked (`spared`: a spare way was
    /// activated to replace it).
    Way {
        /// Physical index of the masked way.
        idx: usize,
        /// Whether a spare way was activated.
        spared: bool,
    },
    /// A DRAM row was retired through the remap table (`spared`: remapped
    /// onto a spare row rather than fenced).
    Row {
        /// Any byte address inside the retired row.
        addr: u64,
        /// Whether a spare row was consumed.
        spared: bool,
    },
    /// A mesh NoC link was taken out of service (routed around, or fenced
    /// to half bandwidth when no route would survive — the fabric
    /// re-decides deterministically on replay).
    Link {
        /// Link id within the mesh's directed-link population.
        link: usize,
    },
}

/// A physical region the [`CeTracker`] keeps a bucket for. The variants
/// share one key space without colliding: packed DRAM row ids sit far below
/// bit 62, and links and word-less fault sites carry a tag bit of their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CeRegion {
    /// A DRAM row, by its packed key ([`virec_mem::Fabric::row_key`]).
    Row(u64),
    /// A mesh NoC link, by its id in the directed-link population.
    Link(usize),
    /// A fault-site index with no addressable word behind it (a CAM way,
    /// control state).
    Site(u64),
}

impl CeRegion {
    fn key(self) -> u64 {
        match self {
            CeRegion::Row(key) => key,
            CeRegion::Link(link) => (1 << 62) | link as u64,
            CeRegion::Site(index) => (1 << 63) | index,
        }
    }
}

/// Leaky-bucket correctable-error counters, one bucket per physical
/// region key (a packed DRAM row id, a link id or a fault-site index).
///
/// The bucket fills by one per observation and leaks one unit per
/// `leak_interval` cycles; [`CeTracker::observe`] reports `true` exactly
/// when the post-increment level reaches the threshold — never below it.
/// The map is only ever looked up by key (never iterated), so `HashMap`
/// ordering cannot leak into simulation results.
#[derive(Clone, Debug)]
pub struct CeTracker {
    threshold: u32,
    leak_interval: u64,
    buckets: HashMap<u64, Bucket>,
}

#[derive(Clone, Copy, Debug)]
struct Bucket {
    level: u32,
    last_leak: u64,
}

impl CeTracker {
    /// A tracker with the given threshold and leak rate.
    pub fn new(threshold: u32, leak_interval: u64) -> CeTracker {
        CeTracker {
            threshold: threshold.max(1),
            leak_interval,
            buckets: HashMap::new(),
        }
    }

    /// Records one corrected error against `key` at `now`; returns `true`
    /// when the region has crossed the retirement threshold.
    pub fn observe(&mut self, key: u64, now: u64) -> bool {
        let b = self.buckets.entry(key).or_insert(Bucket {
            level: 0,
            last_leak: now,
        });
        if self.leak_interval > 0 && now > b.last_leak {
            let periods = (now - b.last_leak) / self.leak_interval;
            b.level = b
                .level
                .saturating_sub(periods.min(u64::from(u32::MAX)) as u32);
            b.last_leak += periods * self.leak_interval;
        }
        b.level += 1;
        b.level >= self.threshold
    }

    /// Charges one corrected error to `region` at `now`. Returns `true` —
    /// and drops the region's bucket — once the region has crossed the
    /// threshold and must be retired.
    pub(crate) fn charge(&mut self, region: CeRegion, now: u64) -> bool {
        let key = region.key();
        let retire = self.observe(key, now);
        if retire {
            self.clear(key);
        }
        retire
    }

    /// Drops the bucket for a retired region.
    pub fn clear(&mut self, key: u64) {
        self.buckets.remove(&key);
    }

    /// Current level of a region's bucket (0 when untracked).
    pub fn level(&self, key: u64) -> u32 {
        self.buckets.get(&key).map_or(0, |b| b.level)
    }
}

/// The patrol scrubber's walk state: a cursor over the protected address
/// ranges, advanced one cache line per wakeup.
#[derive(Clone, Debug)]
pub struct Scrubber {
    ranges: Vec<(u64, u64)>,
    range: usize,
    offset: u64,
}

impl Scrubber {
    /// A scrubber patrolling the given `(base, bytes)` ranges. Ranges of
    /// zero length are skipped; with no usable range the scrubber is inert.
    pub fn new(ranges: Vec<(u64, u64)>) -> Scrubber {
        let ranges: Vec<(u64, u64)> = ranges.into_iter().filter(|&(_, len)| len > 0).collect();
        Scrubber {
            ranges,
            range: 0,
            offset: 0,
        }
    }

    /// The next line address to patrol, advancing the cursor. `None` when
    /// there is nothing to walk.
    pub fn next_line(&mut self) -> Option<u64> {
        let &(base, len) = self.ranges.get(self.range)?;
        let addr = base + self.offset;
        self.offset += virec_mem::LINE_BYTES;
        if self.offset >= len {
            self.offset = 0;
            self.range = (self.range + 1) % self.ranges.len();
        }
        Some(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_fires_exactly_at_threshold() {
        let mut t = CeTracker::new(3, 0);
        assert!(!t.observe(7, 100));
        assert!(!t.observe(7, 200));
        assert!(t.observe(7, 300), "third observation crosses threshold 3");
        assert_eq!(t.level(7), 3);
        t.clear(7);
        assert_eq!(t.level(7), 0);
    }

    #[test]
    fn bucket_leaks_over_time() {
        let mut t = CeTracker::new(3, 1000);
        assert!(!t.observe(1, 0));
        assert!(!t.observe(1, 10));
        // Two full leak intervals drain both units; the bucket restarts.
        assert!(!t.observe(1, 2500));
        assert!(!t.observe(1, 2600));
        assert!(t.observe(1, 2700));
    }

    #[test]
    fn distinct_regions_do_not_share_buckets() {
        let mut t = CeTracker::new(2, 0);
        assert!(!t.observe(1, 0));
        assert!(!t.observe(2, 0));
        assert!(t.observe(1, 1));
    }

    #[test]
    fn scrubber_walks_ranges_round_robin() {
        let mut s = Scrubber::new(vec![(0, 128), (4096, 64)]);
        assert_eq!(s.next_line(), Some(0));
        assert_eq!(s.next_line(), Some(64));
        assert_eq!(s.next_line(), Some(4096));
        assert_eq!(s.next_line(), Some(0), "wraps back to the first range");
    }

    #[test]
    fn empty_scrubber_is_inert() {
        let mut s = Scrubber::new(vec![(0, 0)]);
        assert_eq!(s.next_line(), None);
    }

    #[test]
    fn stats_emptiness() {
        assert!(RasStats::default().is_empty());
        let s = RasStats {
            scrub_reads: 1,
            ..RasStats::default()
        };
        assert!(!s.is_empty());
    }
}
