//! Set-associative cache with MSHRs, port limits, and the ViReC
//! backing-store extensions (§5.3 of the paper):
//!
//! * each line carries a **register/data bit** marking lines that hold
//!   spilled register state, and
//! * a **3-bit pin counter**, incremented when a register is filled from the
//!   line into the RF (register becomes live on-chip) and decremented when a
//!   register is spilled back. Lines with a nonzero pin count are never
//!   evicted, which accelerates fills/spills at the cost of dcache capacity —
//!   the contention effect measured in the paper's Figure 13.

use crate::fabric::{Fabric, PortId, ReqToken};
use crate::stats::CacheStats;
use crate::{line_of, LINE_BYTES};

/// Maximum value of the per-line pin counter (3 bits, saturating).
pub const PIN_MAX: u8 = 7;

/// Cache geometry and timing.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Hit latency in cycles.
    pub hit_latency: u32,
    /// Number of miss-status holding registers.
    pub mshrs: usize,
    /// Read ports (accesses per cycle).
    pub read_ports: usize,
    /// Write ports (accesses per cycle).
    pub write_ports: usize,
}

impl CacheConfig {
    /// The paper's near-memory dcache: 8 KiB, 4-way, 2-cycle, 1R/1W, 24 MSHRs.
    pub fn nmp_dcache() -> CacheConfig {
        CacheConfig {
            size_bytes: 8 * 1024,
            assoc: 4,
            hit_latency: 2,
            mshrs: 24,
            read_ports: 1,
            write_ports: 1,
        }
    }

    /// The paper's near-memory icache: 32 KiB, 4-way, 2-cycle, 1R/1W.
    pub fn nmp_icache() -> CacheConfig {
        CacheConfig {
            size_bytes: 32 * 1024,
            assoc: 4,
            hit_latency: 2,
            mshrs: 4,
            read_ports: 1,
            write_ports: 1,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (LINE_BYTES as usize * self.assoc)
    }
}

/// What kind of access is being performed. Register kinds drive the pinning
/// metadata; data loads are the ones whose misses trigger context switches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Program load through the LSQ.
    DataLoad,
    /// Program store through the LSQ.
    DataStore,
    /// BSI reading a spilled register into the RF (pins the line).
    RegFill,
    /// BSI writing an evicted register back (unpins the line).
    RegSpill,
    /// Instruction fetch.
    IFetch,
}

impl AccessKind {
    fn is_write(self) -> bool {
        matches!(self, AccessKind::DataStore | AccessKind::RegSpill)
    }

    fn is_reg(self) -> bool {
        matches!(self, AccessKind::RegFill | AccessKind::RegSpill)
    }
}

/// Identifier for a pending miss; poll with [`Cache::mshr_ready`].
pub type MshrId = u64;

/// Why an MSHR could not be retired. In a healthy machine retires always
/// follow a successful [`Cache::mshr_ready`] poll, so either variant means
/// the id itself is wrong — a corrupted pipeline slot (e.g. an injected
/// fault flipped the stored id), not an ordinary timing condition. The
/// core degrades this to a detected structural hazard instead of aborting
/// the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrRetireError {
    /// No MSHR with this id exists.
    Unknown(MshrId),
    /// The MSHR exists but its fill has not completed.
    NotReady(MshrId),
}

impl std::fmt::Display for MshrRetireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MshrRetireError::Unknown(id) => write!(f, "retiring unknown MSHR {id}"),
            MshrRetireError::NotReady(id) => write!(f, "retiring MSHR {id} before completion"),
        }
    }
}

impl std::error::Error for MshrRetireError {}

/// Result of a cache access attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The access hit; the data is usable at `ready_at`.
    Hit {
        /// Absolute cycle at which the access completes.
        ready_at: u64,
    },
    /// The access missed; an MSHR tracks the fill.
    Miss {
        /// Poll this id with [`Cache::mshr_ready`] and then
        /// [`Cache::mshr_retire`].
        mshr: MshrId,
    },
    /// All MSHRs are in use; retry next cycle.
    NoMshr,
    /// This cycle's ports are exhausted; retry next cycle.
    NoPort,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    is_reg: bool,
    pins: u8,
    last_used: u64,
}

impl Line {
    const INVALID: Line = Line {
        tag: 0,
        valid: false,
        dirty: false,
        is_reg: false,
        pins: 0,
        last_used: 0,
    };
}

#[derive(Clone, Debug)]
struct Mshr {
    id: MshrId,
    line_addr: u64,
    token: ReqToken,
    /// Kinds of the merged requesters, applied to the line on install.
    waiters: Vec<AccessKind>,
    /// Set when the fill has installed; requesters may collect.
    ready_at: Option<u64>,
    /// How many requesters have not yet retired this MSHR.
    outstanding: usize,
}

/// A set-associative, write-back, write-allocate cache.
///
/// ```
/// use virec_mem::{AccessKind, AccessResult, Cache, CacheConfig, Fabric, FabricConfig};
/// let mut cache = Cache::new(CacheConfig::nmp_dcache(), 0);
/// let mut fabric = Fabric::new(FabricConfig::default());
/// // Cold access misses and allocates an MSHR...
/// let AccessResult::Miss { mshr } = cache.access(0, 0x1000, AccessKind::DataLoad, &mut fabric)
///     else { panic!() };
/// let mut now = 0;
/// while !cache.mshr_ready(mshr, now) {
///     fabric.tick(now);
///     cache.tick(now, &mut fabric);
///     now += 1;
/// }
/// cache.mshr_retire(mshr).unwrap();
/// // ...and the refill hits.
/// assert!(matches!(
///     cache.access(now, 0x1000, AccessKind::DataLoad, &mut fabric),
///     AccessResult::Hit { .. }
/// ));
/// ```
#[derive(Clone)]
pub struct Cache {
    cfg: CacheConfig,
    port: PortId,
    sets: Vec<Vec<Line>>,
    mshrs: Vec<Mshr>,
    /// Earliest `ready_at` among the filled MSHRs (`u64::MAX` when none
    /// is filled): before it no waiter can collect anything.
    ready_min: u64,
    next_mshr_id: MshrId,
    writeback_tokens: Vec<ReqToken>,
    /// Scratch for the tokens a tick collects from the fabric.
    collected: Vec<ReqToken>,
    stats: CacheStats,
    cur_cycle: u64,
    reads_used: usize,
    writes_used: usize,
}

impl Cache {
    /// Creates a cache that talks to the fabric on `port`.
    pub fn new(cfg: CacheConfig, port: PortId) -> Cache {
        assert!(
            cfg.sets().is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(cfg.assoc >= 1);
        Cache {
            sets: vec![vec![Line::INVALID; cfg.assoc]; cfg.sets()],
            cfg,
            port,
            mshrs: Vec::new(),
            ready_min: u64::MAX,
            next_mshr_id: 0,
            writeback_tokens: Vec::new(),
            collected: Vec::new(),
            stats: CacheStats::default(),
            cur_cycle: 0,
            reads_used: 0,
            writes_used: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of MSHRs currently allocated (outstanding misses), for
    /// forward-progress diagnostics.
    pub fn outstanding_mshrs(&self) -> usize {
        self.mshrs.len()
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / LINE_BYTES) as usize) & (self.cfg.sets() - 1)
    }

    fn roll_cycle(&mut self, now: u64) {
        if now != self.cur_cycle {
            self.cur_cycle = now;
            self.reads_used = 0;
            self.writes_used = 0;
        }
    }

    fn take_port(&mut self, kind: AccessKind) -> bool {
        if kind.is_write() {
            if self.writes_used < self.cfg.write_ports {
                self.writes_used += 1;
                return true;
            }
        } else if self.reads_used < self.cfg.read_ports {
            self.reads_used += 1;
            return true;
        }
        false
    }

    /// Attempts an access at cycle `now`. Misses submit a line fill through
    /// `fabric`. The caller must keep calling [`Cache::tick`] each cycle for
    /// misses to complete.
    pub fn access(
        &mut self,
        now: u64,
        addr: u64,
        kind: AccessKind,
        fabric: &mut Fabric,
    ) -> AccessResult {
        self.roll_cycle(now);
        if !self.take_port(kind) {
            self.stats.port_stalls += 1;
            return AccessResult::NoPort;
        }
        let line_addr = line_of(addr);
        let set = self.set_index(line_addr);
        let tag = line_addr / LINE_BYTES;

        if let Some(way) = self.sets[set].iter().position(|l| l.valid && l.tag == tag) {
            let line = &mut self.sets[set][way];
            line.last_used = now;
            if kind.is_write() {
                line.dirty = true;
            }
            if kind.is_reg() {
                line.is_reg = true;
            }
            match kind {
                AccessKind::RegFill => line.pins = (line.pins + 1).min(PIN_MAX),
                AccessKind::RegSpill => line.pins = line.pins.saturating_sub(1),
                _ => {}
            }
            self.stats.hits += 1;
            if kind.is_reg() {
                self.stats.reg_hits += 1;
            }
            return AccessResult::Hit {
                ready_at: now + self.cfg.hit_latency as u64,
            };
        }

        // Miss: merge into an existing MSHR for the same line if any.
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line_addr == line_addr) {
            m.waiters.push(kind);
            m.outstanding += 1;
            self.stats.misses += 1;
            if kind.is_reg() {
                self.stats.reg_misses += 1;
            }
            return AccessResult::Miss { mshr: m.id };
        }

        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.mshr_stalls += 1;
            return AccessResult::NoMshr;
        }

        let token = fabric.submit(now, self.port, line_addr, false);
        let id = self.next_mshr_id;
        self.next_mshr_id += 1;
        self.mshrs.push(Mshr {
            id,
            line_addr,
            token,
            waiters: vec![kind],
            ready_at: None,
            outstanding: 1,
        });
        self.stats.misses += 1;
        if kind.is_reg() {
            self.stats.reg_misses += 1;
        }
        AccessResult::Miss { mshr: id }
    }

    /// Whether the miss tracked by `mshr` has completed by cycle `now`.
    pub fn mshr_ready(&self, mshr: MshrId, now: u64) -> bool {
        self.first_ready() <= now
            && self
                .mshrs
                .iter()
                .find(|m| m.id == mshr)
                .and_then(|m| m.ready_at)
                .is_some_and(|t| t <= now)
    }

    /// Earliest cycle at which [`Cache::mshr_ready`] can answer true for
    /// some MSHR, or `u64::MAX` while no fill has installed. Waiters may
    /// skip polling before it: debug builds check on every call that it
    /// is exactly the earliest `ready_at` of the filled MSHRs.
    pub fn first_ready(&self) -> u64 {
        debug_assert_eq!(self.ready_min, self.scan_ready_min(), "stale first_ready");
        self.ready_min
    }

    /// The earliest `ready_at` of the filled MSHRs, by a scan.
    fn scan_ready_min(&self) -> u64 {
        let filled = self.mshrs.iter().filter_map(|m| m.ready_at);
        filled.min().unwrap_or(u64::MAX)
    }

    /// Releases one requester's interest in a completed MSHR.
    ///
    /// Returns a typed [`MshrRetireError`] — never panics — if the id names
    /// no MSHR or one whose fill has not completed. Both indicate a
    /// corrupted requester-side id (a fault, not a timing race): callers
    /// surface the error as a detected structural hazard.
    pub fn mshr_retire(&mut self, mshr: MshrId) -> Result<(), MshrRetireError> {
        let idx = self
            .mshrs
            .iter()
            .position(|m| m.id == mshr)
            .ok_or(MshrRetireError::Unknown(mshr))?;
        if self.mshrs[idx].ready_at.is_none() {
            return Err(MshrRetireError::NotReady(mshr));
        }
        self.mshrs[idx].outstanding -= 1;
        if self.mshrs[idx].outstanding == 0 {
            let gone = self.mshrs.swap_remove(idx);
            if gone.ready_at == Some(self.ready_min) {
                self.ready_min = self.scan_ready_min();
            }
        }
        Ok(())
    }

    /// Advances the cache: collects this cache's fabric responses due at
    /// `now`, installs the fills among them in MSHR order, and forgets the
    /// finished writebacks. Call once per cycle. A cycle on which none of
    /// its responses is due ([`Fabric::due`] of its port lies ahead)
    /// returns at once.
    pub fn tick(&mut self, now: u64, fabric: &mut Fabric) {
        if fabric.due(self.port) > now {
            debug_assert!(
                !self.tokens_in_flight().any(|t| fabric.is_done(t, now)),
                "cache tick skipped at cycle {now} with a response due"
            );
            return;
        }
        let mut done = std::mem::take(&mut self.collected);
        fabric.take_done(self.port, now, &mut done);
        // Posted writebacks: no one waits on them.
        self.writeback_tokens.retain(|t| !done.contains(t));
        for i in 0..self.mshrs.len() {
            if !done.contains(&self.mshrs[i].token) {
                continue;
            }
            let line_addr = self.mshrs[i].line_addr;
            let waiters = std::mem::take(&mut self.mshrs[i].waiters);
            self.install(now, line_addr, &waiters, fabric);
            let ready = now + self.cfg.hit_latency as u64;
            self.mshrs[i].ready_at = Some(ready);
            self.ready_min = self.ready_min.min(ready);
        }
        done.clear();
        self.collected = done;
    }

    /// Fabric tokens of the unfilled MSHRs and the posted writebacks.
    fn tokens_in_flight(&self) -> impl Iterator<Item = ReqToken> + '_ {
        let fills = self.mshrs.iter().filter(|m| m.ready_at.is_none());
        fills
            .map(|m| m.token)
            .chain(self.writeback_tokens.iter().copied())
    }

    /// Earliest future cycle at which [`Cache::tick`] could do anything, or
    /// a requester waiting on an MSHR could observe completion. Call after
    /// `tick(now)`. `None` means the cache has nothing in flight. It is the
    /// earlier of [`Cache::first_ready`] (a filled MSHR keeps answering
    /// `now + 1` until its last waiter retires it) and the fabric's
    /// [`Fabric::due`] for this cache's port. Requests whose response
    /// cycle the fabric has not yet decided contribute nothing: the
    /// fabric's own [`Fabric::next_event`] covers their progression.
    pub fn next_event(&self, now: u64, fabric: &Fabric) -> Option<u64> {
        let t = self.ready_min.min(fabric.due(self.port));
        (t < u64::MAX).then(|| t.max(now + 1))
    }

    fn install(&mut self, now: u64, line_addr: u64, waiters: &[AccessKind], fabric: &mut Fabric) {
        let set = self.set_index(line_addr);
        let tag = line_addr / LINE_BYTES;
        let ways = &mut self.sets[set];

        let victim = ways.iter().position(|l| !l.valid).or_else(|| {
            // LRU among unpinned ways.
            ways.iter()
                .enumerate()
                .filter(|(_, l)| l.pins == 0)
                .min_by_key(|(_, l)| l.last_used)
                .map(|(w, _)| w)
        });

        let Some(way) = victim else {
            // Every way pinned: the fill bypasses the cache entirely. The
            // requester still gets its data (it came over the fabric); we
            // just could not retain the line.
            self.stats.pinned_bypasses += 1;
            return;
        };

        let old = ways[way];
        if old.valid {
            self.stats.evictions += 1;
            if old.dirty {
                let old_addr = old.tag * LINE_BYTES;
                let t = fabric.submit(now, self.port, old_addr, true);
                self.writeback_tokens.push(t);
                self.stats.writebacks += 1;
            }
        }

        let mut line = Line {
            tag,
            valid: true,
            dirty: false,
            is_reg: false,
            pins: 0,
            last_used: now,
        };
        for &k in waiters {
            if k.is_write() {
                line.dirty = true;
            }
            if k.is_reg() {
                line.is_reg = true;
            }
            match k {
                AccessKind::RegFill => line.pins = (line.pins + 1).min(PIN_MAX),
                AccessKind::RegSpill => line.pins = line.pins.saturating_sub(1),
                _ => {}
            }
        }
        ways[way] = line;
    }

    /// Whether the line containing `addr` is currently resident.
    pub fn contains_line(&self, addr: u64) -> bool {
        let line_addr = line_of(addr);
        let set = self.set_index(line_addr);
        let tag = line_addr / LINE_BYTES;
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Pin count of the line containing `addr` (0 when absent).
    pub fn pin_count(&self, addr: u64) -> u8 {
        let line_addr = line_of(addr);
        let set = self.set_index(line_addr);
        let tag = line_addr / LINE_BYTES;
        self.sets[set]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map_or(0, |l| l.pins)
    }

    /// Number of valid lines currently marked as register lines.
    pub fn reg_lines(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.valid && l.is_reg)
            .count()
    }

    /// Checks internal invariants (used by property tests): at most one
    /// valid way per tag per set.
    pub fn check_invariants(&self) {
        for (si, set) in self.sets.iter().enumerate() {
            let mut tags: Vec<u64> = set.iter().filter(|l| l.valid).map(|l| l.tag).collect();
            tags.sort_unstable();
            let before = tags.len();
            tags.dedup();
            assert_eq!(before, tags.len(), "duplicate tag in set {si}");
            for l in set {
                assert!(l.pins <= PIN_MAX);
                if !l.valid {
                    assert_eq!(l.pins, 0, "invalid line with pins in set {si}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, FabricConfig};

    fn tiny_cache() -> (Cache, Fabric) {
        // 4 sets x 2 ways = 512B.
        let cfg = CacheConfig {
            size_bytes: 512,
            assoc: 2,
            hit_latency: 2,
            mshrs: 4,
            read_ports: 2,
            write_ports: 2,
        };
        (Cache::new(cfg, 0), Fabric::new(FabricConfig::default()))
    }

    /// Drives the cache+fabric until an access to `addr` completes, and
    /// returns the cycle at which it did.
    fn access_to_completion(
        c: &mut Cache,
        f: &mut Fabric,
        start: u64,
        addr: u64,
        kind: AccessKind,
    ) -> u64 {
        let mut now = start;
        loop {
            match c.access(now, addr, kind, f) {
                AccessResult::Hit { ready_at } => return ready_at,
                AccessResult::Miss { mshr } => loop {
                    f.tick(now);
                    c.tick(now, f);
                    if c.mshr_ready(mshr, now) {
                        c.mshr_retire(mshr).unwrap();
                        return now;
                    }
                    now += 1;
                    assert!(now < start + 100_000, "miss never completed");
                },
                AccessResult::NoMshr | AccessResult::NoPort => {
                    f.tick(now);
                    c.tick(now, f);
                    now += 1;
                }
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, mut f) = tiny_cache();
        let t0 = access_to_completion(&mut c, &mut f, 0, 0x1000, AccessKind::DataLoad);
        assert!(t0 > 10, "first access must go to DRAM");
        assert_eq!(c.stats().misses, 1);
        let t1 = access_to_completion(&mut c, &mut f, t0 + 1, 0x1008, AccessKind::DataLoad);
        assert_eq!(t1, t0 + 1 + c.config().hit_latency as u64);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn mshr_merging_same_line() {
        let (mut c, mut f) = tiny_cache();
        let r1 = c.access(0, 0x2000, AccessKind::DataLoad, &mut f);
        let r2 = c.access(0, 0x2010, AccessKind::DataLoad, &mut f);
        let (AccessResult::Miss { mshr: m1 }, AccessResult::Miss { mshr: m2 }) = (r1, r2) else {
            panic!("both should miss: {r1:?} {r2:?}");
        };
        assert_eq!(m1, m2, "same line must merge into one MSHR");
        assert_eq!(f.outstanding(), 1, "only one fabric request");
        let mut now = 0;
        while !c.mshr_ready(m1, now) {
            f.tick(now);
            c.tick(now, &mut f);
            now += 1;
        }
        c.mshr_retire(m1).unwrap();
        c.mshr_retire(m2).unwrap();
        c.check_invariants();
    }

    #[test]
    fn mshr_exhaustion() {
        let (mut c, mut f) = tiny_cache();
        // 2 read ports per cycle: spread the 4 misses over two cycles.
        for i in 0..4u64 {
            let r = c.access(i / 2, 0x10_000 + i * 64, AccessKind::DataLoad, &mut f);
            assert!(matches!(r, AccessResult::Miss { .. }), "{r:?}");
        }
        let r = c.access(2, 0x20_000, AccessKind::DataLoad, &mut f);
        assert_eq!(r, AccessResult::NoMshr);
        assert_eq!(c.stats().mshr_stalls, 1);
    }

    #[test]
    fn port_exhaustion_resets_next_cycle() {
        let (mut c, mut f) = tiny_cache();
        // 2 read ports.
        let _ = c.access(5, 0x0, AccessKind::DataLoad, &mut f);
        let _ = c.access(5, 0x40, AccessKind::DataLoad, &mut f);
        let r = c.access(5, 0x80, AccessKind::DataLoad, &mut f);
        assert_eq!(r, AccessResult::NoPort);
        // Next cycle the ports are free again.
        let r = c.access(6, 0x80, AccessKind::DataLoad, &mut f);
        assert!(matches!(
            r,
            AccessResult::Miss { .. } | AccessResult::Hit { .. }
        ));
    }

    #[test]
    fn lru_eviction_within_set() {
        let (mut c, mut f) = tiny_cache();
        // 4 sets → addresses 0, 0x100, 0x200 all map to set 0 (stride 4*64).
        let s = 4 * 64;
        let mut now = 0;
        now = access_to_completion(&mut c, &mut f, now, 0, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, s, AccessKind::DataLoad);
        // Touch line 0 so line `s` is LRU.
        now = access_to_completion(&mut c, &mut f, now + 1, 0, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, 2 * s, AccessKind::DataLoad);
        assert!(c.contains_line(0), "recently used line must survive");
        assert!(!c.contains_line(s), "LRU line must be evicted");
        assert!(c.contains_line(2 * s));
        let _ = now;
        c.check_invariants();
    }

    #[test]
    fn pinned_lines_survive_eviction_pressure() {
        let (mut c, mut f) = tiny_cache();
        let s = 4 * 64;
        let mut now = 0;
        // Install a register line and pin it.
        now = access_to_completion(&mut c, &mut f, now, 0, AccessKind::RegFill);
        assert_eq!(c.pin_count(0), 1);
        // Two more lines to the same set: the pinned line must survive.
        now = access_to_completion(&mut c, &mut f, now + 1, s, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, 2 * s, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, 3 * s, AccessKind::DataLoad);
        assert!(c.contains_line(0), "pinned register line was evicted");
        // Unpin; now it can be evicted.
        now = access_to_completion(&mut c, &mut f, now + 1, 0, AccessKind::RegSpill);
        assert_eq!(c.pin_count(0), 0);
        now = access_to_completion(&mut c, &mut f, now + 1, 4 * s, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, 5 * s, AccessKind::DataLoad);
        assert!(!c.contains_line(0), "unpinned line should now be evictable");
        let _ = now;
    }

    #[test]
    fn fully_pinned_set_bypasses() {
        let (mut c, mut f) = tiny_cache();
        let s = 4 * 64;
        let mut now = 0;
        now = access_to_completion(&mut c, &mut f, now, 0, AccessKind::RegFill);
        now = access_to_completion(&mut c, &mut f, now + 1, s, AccessKind::RegFill);
        // Set 0 is fully pinned; a data fill must bypass but still complete.
        now = access_to_completion(&mut c, &mut f, now + 1, 2 * s, AccessKind::DataLoad);
        assert_eq!(c.stats().pinned_bypasses, 1);
        assert!(!c.contains_line(2 * s));
        assert!(c.contains_line(0) && c.contains_line(s));
        let _ = now;
    }

    #[test]
    fn pin_counter_saturates() {
        let (mut c, mut f) = tiny_cache();
        let mut now = 0;
        for _ in 0..10 {
            now = access_to_completion(&mut c, &mut f, now + 1, 0, AccessKind::RegFill);
        }
        assert_eq!(c.pin_count(0), PIN_MAX);
        for _ in 0..10 {
            now = access_to_completion(&mut c, &mut f, now + 1, 0, AccessKind::RegSpill);
        }
        assert_eq!(c.pin_count(0), 0, "saturating decrement floors at zero");
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut c, mut f) = tiny_cache();
        let s = 4 * 64;
        let mut now = 0;
        now = access_to_completion(&mut c, &mut f, now, 0, AccessKind::DataStore);
        now = access_to_completion(&mut c, &mut f, now + 1, s, AccessKind::DataLoad);
        now = access_to_completion(&mut c, &mut f, now + 1, 2 * s, AccessKind::DataLoad);
        // Run a few cycles so the writeback drains.
        for t in now..now + 200 {
            f.tick(t);
            c.tick(t, &mut f);
        }
        assert_eq!(c.stats().writebacks, 1);
        assert!(f.stats().writes >= 1);
    }

    #[test]
    fn reg_lines_tracked() {
        let (mut c, mut f) = tiny_cache();
        let mut now = access_to_completion(&mut c, &mut f, 0, 0, AccessKind::RegFill);
        now = access_to_completion(&mut c, &mut f, now + 1, 0x40, AccessKind::DataLoad);
        assert_eq!(c.reg_lines(), 1);
        let _ = now;
    }
}
