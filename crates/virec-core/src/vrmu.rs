//! The Virtual Register Management Unit (§5.1, Figure 8).
//!
//! The VRMU sits in the decode stage and consists of:
//!
//! * the **tag store** — a fully associative CAM mapping
//!   `(thread, architectural register)` to physical RF entries, carrying the
//!   T/C/A replacement metadata; and
//! * the **rollback queue** — a FIFO with one entry per in-flight
//!   instruction, used to reset the speculatively-set commit bits of
//!   registers whose instructions were flushed by a context switch, and to
//!   report whether the oldest in-flight instruction is a memory operation
//!   (one of the CSL masking signals).
//!
//! Unlike a cache, the tag store also carries the register *values* in this
//! simulator: the physical RF is the `value` field of each entry. Values
//! really travel through spill/fill, so the differential tests against the
//! golden interpreter validate the whole machinery.

use crate::config::PolicyKind;
use crate::policy::{priority, EntryMeta, XorShift, AGE_MAX, RRPV_INSERT, RRPV_MAX};
use std::collections::VecDeque;
use virec_isa::{Reg, RegList};

/// One physical register with its CAM tag and metadata.
#[derive(Clone, Copy, Debug)]
pub struct TagEntry {
    /// Owning thread (CAM tag, together with `reg`).
    pub tid: u8,
    /// Architectural register (CAM tag).
    pub reg: Reg,
    /// Current register value (the physical RF cell).
    pub value: u64,
    /// Modified since fill — must be spilled on eviction.
    pub dirty: bool,
    /// A fill from the backing store is in flight; value not yet usable.
    pub fill_pending: bool,
    /// How many in-flight instructions reference this entry (eviction lock).
    pub lock_count: u8,
    /// The tag store's touch count when `meta.a_bits` was last set (touch
    /// or allocate): every touch since then has aged this entry by one.
    /// Never above the store's count, which only this module advances.
    age_mark: u64,
    /// Replacement metadata. `meta.a_bits` is the age at `age_mark`; the
    /// current age is [`TagStore::age`].
    pub meta: EntryMeta,
}

impl TagEntry {
    const EMPTY: TagEntry = TagEntry {
        tid: 0,
        reg: Reg::XZR,
        value: 0,
        dirty: false,
        fill_pending: false,
        lock_count: 0,
        age_mark: 0,
        meta: EntryMeta {
            valid: false,
            locked: false,
            t_bits: 0,
            c_bit: false,
            a_bits: 0,
            last_access: 0,
            fill_seq: 0,
            rrpv: 0,
        },
    };
}

/// Result of requesting a physical register for `(tid, reg)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocOutcome {
    /// Allocated into a free entry.
    Free {
        /// Index of the allocated entry.
        idx: usize,
    },
    /// Allocated by evicting a victim; the caller must spill the victim if
    /// it was dirty.
    Evicted {
        /// Index of the (re-used) entry.
        idx: usize,
        /// The victim's owning thread.
        victim_tid: u8,
        /// The victim's architectural register.
        victim_reg: Reg,
        /// The victim's value at eviction time.
        victim_value: u64,
        /// Whether the victim must be written back.
        victim_dirty: bool,
    },
    /// Every valid entry is locked by in-flight instructions; retry after a
    /// commit frees locks.
    NoVictim,
}

/// Maximum hardware threads a tag store can map (bounds the reverse-map
/// size; far above the paper's 4–10 threads).
pub const MAX_THREADS: usize = 32;

const NO_ENTRY: u16 = u16::MAX;

/// The tag store: a fully associative register cache.
///
/// Lookups are O(1) through a `(thread, register) -> entry` reverse map —
/// the simulator's hottest path (hardware does this with the CAM match
/// lines).
#[derive(Clone)]
pub struct TagStore {
    entries: Vec<TagEntry>,
    /// Reverse map: `tid * 32 + reg` -> entry index (or `NO_ENTRY`).
    map: Vec<u16>,
    /// Occupancy bitset mirroring `entries[i].meta.valid` (bit `i % 64` of
    /// word `i / 64`). Validity only changes inside this module (allocate /
    /// evict), so the mirror cannot go stale through `entry_mut`. Hot-path
    /// scans walk set bits with `trailing_zeros` instead of every entry.
    valid: Vec<u64>,
    /// Ways out of service (RAS): spare ways awaiting activation plus
    /// retired ways. A masked way is never valid and never allocated.
    masked: Vec<u64>,
    /// Subset of `masked` that was permanently retired (a masked,
    /// non-retired way is an available spare).
    retired: Vec<u64>,
    policy: PolicyKind,
    stamp: u64,
    /// Register accesses so far: the clock of the lazy A-bit ageing.
    touches: u64,
    fill_seq: u64,
    rotate: u64,
    rng: XorShift,
    /// Scratch bitset of the entries tied for eviction, one bit per way
    /// like `valid`; reused by every victim pick so a pick allocates
    /// nothing.
    ties: Vec<u64>,
}

/// Floor on in-service ways: masking must never leave fewer active ways
/// than the processor's in-flight register window needs (the same bound
/// [`crate::CoreConfig::validate`] enforces on `phys_regs`).
pub const MIN_ACTIVE_WAYS: usize = 12;

impl TagStore {
    /// Creates a tag store with `phys_regs` entries managed by `policy`.
    pub fn new(phys_regs: usize, policy: PolicyKind) -> TagStore {
        TagStore::with_spares(phys_regs, 0, policy)
    }

    /// A tag store with `spare_ways` additional ways held in reserve:
    /// physically present but masked until a RAS retirement activates
    /// them, so the in-service capacity stays `phys_regs`.
    pub fn with_spares(phys_regs: usize, spare_ways: usize, policy: PolicyKind) -> TagStore {
        let total = phys_regs + spare_ways;
        assert!(total < NO_ENTRY as usize);
        let words = total.div_ceil(64);
        let mut ts = TagStore {
            entries: vec![TagEntry::EMPTY; total],
            map: vec![NO_ENTRY; MAX_THREADS * 32],
            valid: vec![0; words],
            masked: vec![0; words],
            retired: vec![0; words],
            policy,
            stamp: 0,
            touches: 0,
            fill_seq: 0,
            rotate: 0,
            rng: XorShift::new(0x5EED_CAFE),
            ties: vec![0; words],
        };
        for idx in phys_regs..total {
            ts.masked[idx / 64] |= 1u64 << (idx % 64);
        }
        ts
    }

    /// Number of physical ways, including masked spares and retired ways.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Ways currently in service (capacity minus masked ways).
    pub fn active_capacity(&self) -> usize {
        self.entries.len() - self.masked_count()
    }

    /// Masked ways (spares not yet activated + retired ways).
    pub fn masked_count(&self) -> usize {
        self.masked.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Spare ways still available for activation.
    pub fn spare_ways_left(&self) -> usize {
        self.masked
            .iter()
            .zip(&self.retired)
            .map(|(&m, &r)| (m & !r).count_ones() as usize)
            .sum()
    }

    /// Whether way `idx` is out of service.
    pub fn is_masked(&self, idx: usize) -> bool {
        (self.masked[idx / 64] >> (idx % 64)) & 1 == 1
    }

    #[inline]
    fn map_slot(tid: u8, reg: Reg) -> usize {
        debug_assert!((tid as usize) < MAX_THREADS);
        tid as usize * 32 + reg.index()
    }

    #[inline]
    fn set_valid(&mut self, idx: usize) {
        self.valid[idx / 64] |= 1u64 << (idx % 64);
    }

    #[inline]
    fn clear_valid(&mut self, idx: usize) {
        self.valid[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Indices of valid entries in ascending order, one `trailing_zeros`
    /// per set bit.
    fn valid_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.valid.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            })
        })
    }

    /// Lowest-index free *in-service* entry (first bit neither valid nor
    /// masked). Padding bits past the capacity sit above every real bit in
    /// the last word, so a hit on one means the store is genuinely full.
    fn first_free(&self) -> Option<usize> {
        for (w, (&v, &m)) in self.valid.iter().zip(&self.masked).enumerate() {
            let bits = v | m;
            if bits != u64::MAX {
                let idx = w * 64 + (!bits).trailing_zeros() as usize;
                return (idx < self.entries.len()).then_some(idx);
            }
        }
        None
    }

    /// Looks up `(tid, reg)`; does not touch metadata.
    #[inline]
    pub fn lookup(&self, tid: u8, reg: Reg) -> Option<usize> {
        let idx = self.map[Self::map_slot(tid, reg)];
        if idx == NO_ENTRY {
            None
        } else {
            Some(idx as usize)
        }
    }

    /// Immutable access to an entry.
    pub fn entry(&self, idx: usize) -> &TagEntry {
        &self.entries[idx]
    }

    /// Mutable access to an entry.
    pub fn entry_mut(&mut self, idx: usize) -> &mut TagEntry {
        &mut self.entries[idx]
    }

    /// Records an access to entry `idx`: resets its age, ages everyone else,
    /// speculatively sets the commit bit (§5.1), and stamps perfect-LRU
    /// metadata.
    ///
    /// The hardware ages every other entry in parallel; here that is one
    /// tick of the touch clock, which [`TagStore::age`] reads back.
    pub fn touch(&mut self, idx: usize) {
        self.stamp += 1;
        self.touches += 1;
        let e = &mut self.entries[idx];
        e.age_mark = self.touches;
        e.meta.a_bits = 0;
        e.meta.c_bit = true;
        e.meta.last_access = self.stamp;
        e.meta.rrpv = 0; // SRRIP hit promotion
    }

    /// Current 3-bit age of entry `idx`: its age when last set plus one per
    /// touch of another entry since, saturating at [`AGE_MAX`].
    pub fn age(&self, idx: usize) -> u8 {
        self.age_of(&self.entries[idx])
    }

    #[inline]
    fn age_of(&self, e: &TagEntry) -> u8 {
        let aged = e.meta.a_bits as u64 + (self.touches - e.age_mark);
        aged.min(AGE_MAX as u64) as u8
    }

    /// Whether an entry may be evicted: not referenced by an in-flight
    /// instruction and not waiting for its fill.
    #[inline]
    fn evictable(e: &TagEntry) -> bool {
        e.lock_count == 0 && !e.fill_pending
    }

    /// SRRIP aging: increment every valid entry's RRPV until an evictable
    /// one saturates (bounded by the 2-bit range). The increment is
    /// `RRPV_MAX` minus the largest evictable RRPV, applied in one pass.
    fn srrip_age(&mut self) {
        if self.policy != PolicyKind::Srrip {
            return;
        }
        let top = self
            .valid_indices()
            .map(|i| &self.entries[i])
            .filter(|e| Self::evictable(e))
            .map(|e| e.meta.rrpv)
            .max()
            .unwrap_or(0);
        let step = RRPV_MAX.saturating_sub(top);
        if step == 0 {
            return;
        }
        for w in 0..self.valid.len() {
            let mut bits = self.valid[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = &mut self.entries[i];
                e.meta.rrpv = (e.meta.rrpv + step).min(RRPV_MAX);
            }
        }
    }

    /// Picks the eviction victim among the evictable entries, or `None`
    /// when there is none. One pass over the valid entries keeps the best
    /// priority and the bitset of entries tied at it. Ties are broken by
    /// the rotating pointer, advanced once per pick: the pick is the
    /// `rotate`-th tie in ascending index order. `Random` ties every
    /// candidate and draws one value over their count.
    fn pick_victim(&mut self) -> Option<usize> {
        self.rotate = self.rotate.wrapping_add(1);
        let random = self.policy == PolicyKind::Random;
        let mut best = 0u128;
        let mut count = 0u64;
        // Words below `first` hold ties of a beaten priority; they are
        // never read again, so a new best need not clear them.
        let mut first = 0;
        for w in 0..self.valid.len() {
            let mut bits = self.valid[w];
            let mut tied = 0u64;
            while bits != 0 {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                let e = &self.entries[w * 64 + b as usize];
                if !Self::evictable(e) {
                    continue;
                }
                let p = if random {
                    0
                } else {
                    priority(self.policy, &e.meta, self.age_of(e))
                };
                if count == 0 || p > best {
                    best = p;
                    count = 0;
                    first = w;
                    tied = 0;
                }
                if p == best {
                    tied |= 1u64 << b;
                    count += 1;
                }
            }
            self.ties[w] = tied;
        }
        if count == 0 {
            return None;
        }
        let mut nth = if random {
            self.rng.next_u64() % count
        } else {
            self.rotate % count
        };
        self.ties[first..]
            .iter()
            .enumerate()
            .find_map(|(w, &word)| {
                let ones = word.count_ones() as u64;
                if nth >= ones {
                    nth -= ones;
                    return None;
                }
                let mut bits = word;
                for _ in 0..nth {
                    bits &= bits - 1;
                }
                Some((first + w) * 64 + bits.trailing_zeros() as usize)
            })
    }

    /// Allocates a physical register for `(tid, reg)`, evicting if needed.
    /// The new entry starts invalid-valued (`fill_pending` decided by the
    /// caller) and unlocked.
    pub fn allocate(&mut self, tid: u8, reg: Reg) -> AllocOutcome {
        debug_assert!(self.lookup(tid, reg).is_none(), "allocating resident reg");
        let idx_and_victim = if let Some(idx) = self.first_free() {
            Some((idx, None))
        } else {
            self.srrip_age();
            self.pick_victim().map(|idx| (idx, Some(self.entries[idx])))
        };

        let Some((idx, victim)) = idx_and_victim else {
            return AllocOutcome::NoVictim;
        };

        if let Some(v) = victim {
            self.map[Self::map_slot(v.tid, v.reg)] = NO_ENTRY;
        }
        self.map[Self::map_slot(tid, reg)] = idx as u16;
        self.set_valid(idx);

        self.fill_seq += 1;
        self.stamp += 1;
        let e = &mut self.entries[idx];
        *e = TagEntry {
            tid,
            reg,
            value: 0,
            dirty: false,
            fill_pending: false,
            lock_count: 0,
            age_mark: self.touches,
            meta: EntryMeta {
                valid: true,
                locked: false,
                t_bits: 0,
                c_bit: true,
                a_bits: 0,
                last_access: self.stamp,
                fill_seq: self.fill_seq,
                rrpv: RRPV_INSERT,
            },
        };

        match victim {
            None => AllocOutcome::Free { idx },
            Some(v) => AllocOutcome::Evicted {
                idx,
                victim_tid: v.tid,
                victim_reg: v.reg,
                victim_value: v.value,
                victim_dirty: v.dirty,
            },
        }
    }

    /// Selects and removes an additional eviction victim (for group
    /// evictions — paper future work). Returns the victim's identity and
    /// value, or `None` if no evictable entry exists.
    pub fn evict_one(&mut self) -> Option<(u8, Reg, u64, bool)> {
        let idx = self.pick_victim()?;
        let v = self.entries[idx];
        self.entries[idx] = TagEntry::EMPTY;
        self.clear_valid(idx);
        self.map[Self::map_slot(v.tid, v.reg)] = NO_ENTRY;
        Some((v.tid, v.reg, v.value, v.dirty))
    }

    /// Registers currently resident for thread `tid`, in entry order.
    pub fn resident_regs(&self, tid: u8) -> impl Iterator<Item = Reg> + '_ {
        self.valid_entries()
            .filter(move |e| e.tid == tid)
            .map(|e| e.reg)
    }

    /// Context-switch metadata update (§5.1): registers of the suspended
    /// thread get the maximum thread-recency value, everyone else is
    /// decremented, and the incoming thread's registers are zeroed.
    pub fn on_context_switch(&mut self, out_tid: u8, in_tid: u8) {
        for w in 0..self.valid.len() {
            let mut bits = self.valid[w];
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let e = &mut self.entries[i];
                if e.tid == out_tid {
                    e.meta.t_bits = AGE_MAX;
                } else if e.tid == in_tid {
                    e.meta.t_bits = 0;
                } else {
                    e.meta.t_bits = e.meta.t_bits.saturating_sub(1);
                }
            }
        }
    }

    /// Adds an in-flight reference to `(tid, reg)`, protecting it from
    /// eviction until commit or flush.
    pub fn lock(&mut self, idx: usize) {
        self.entries[idx].lock_count += 1;
    }

    /// Releases one in-flight reference.
    pub fn unlock(&mut self, idx: usize) {
        let e = &mut self.entries[idx];
        debug_assert!(e.lock_count > 0, "unlocking unlocked entry");
        e.lock_count = e.lock_count.saturating_sub(1);
    }

    /// Clears the commit bit of `(tid, reg)` if resident — the rollback
    /// queue's compaction operation for flushed registers.
    pub fn clear_commit(&mut self, tid: u8, reg: Reg) {
        if let Some(idx) = self.lookup(tid, reg) {
            self.entries[idx].meta.c_bit = false;
        }
    }

    /// Iterates over valid entries (for drain and debugging).
    pub fn valid_entries(&self) -> impl Iterator<Item = &TagEntry> {
        self.valid_indices().map(|i| &self.entries[i])
    }

    /// Number of valid entries (VRMU occupancy).
    pub fn valid_count(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of entries with a fill in flight (for livelock dumps).
    pub fn fills_pending_count(&self) -> usize {
        self.valid_indices()
            .filter(|&i| self.entries[i].fill_pending)
            .count()
    }

    /// Entry index of the `nth` valid entry, wrapping modulo occupancy.
    fn nth_valid(&self, nth: usize) -> Option<usize> {
        let occupancy = self.valid_count();
        if occupancy == 0 {
            return None;
        }
        self.valid_indices().nth(nth % occupancy)
    }

    /// Physical index of the way behind the `nth` valid entry (the RAS
    /// layer resolves a fault's `nth` target to a concrete way before
    /// masking it). Wraps modulo occupancy; `None` when empty.
    pub fn resolve_nth_way(&self, nth: usize) -> Option<usize> {
        self.nth_valid(nth)
    }

    /// Activates one spare way (masked, not retired): clears its mask bit
    /// so it can be allocated. Returns its index, or `None` when the
    /// spare pool is exhausted.
    fn activate_spare(&mut self) -> Option<usize> {
        for w in 0..self.masked.len() {
            let spares = self.masked[w] & !self.retired[w];
            if spares != 0 {
                let idx = w * 64 + spares.trailing_zeros() as usize;
                self.masked[w] &= !(1u64 << (idx % 64));
                return Some(idx);
            }
        }
        None
    }

    /// RAS retirement: permanently masks way `idx`, activating a spare way
    /// (when `use_spare` and one is left) to preserve capacity. A valid
    /// occupant is *relocated* to a free in-service way — every consumer
    /// resolves entries through the reverse map at point of use, so live
    /// locks and pending fills move safely.
    ///
    /// Returns `Some(spared)` on success (`spared`: a spare was
    /// activated). Idempotent: a way that is already masked reports
    /// success without consuming anything. Returns `None` — refused — when
    /// the occupant has nowhere to go (store full of locked entries) or
    /// masking would drop the in-service capacity below
    /// [`MIN_ACTIVE_WAYS`]; the caller may evict an entry and retry.
    pub fn mask_way(&mut self, idx: usize, use_spare: bool) -> Option<bool> {
        if self.is_masked(idx) {
            return Some(false);
        }
        let spare = if use_spare {
            self.activate_spare()
        } else {
            None
        };
        // `active_capacity` already includes the just-activated spare;
        // masking `idx` will subtract one.
        let floor_after = self.active_capacity() - 1;
        if floor_after < MIN_ACTIVE_WAYS {
            if let Some(s) = spare {
                self.masked[s / 64] |= 1u64 << (s % 64);
            }
            return None;
        }
        if self.entries[idx].meta.valid {
            let target = match self.first_free() {
                Some(t) if t != idx => t,
                _ => {
                    if let Some(s) = spare {
                        self.masked[s / 64] |= 1u64 << (s % 64);
                    }
                    return None;
                }
            };
            let e = self.entries[idx];
            self.entries[target] = e;
            self.entries[idx] = TagEntry::EMPTY;
            self.set_valid(target);
            self.clear_valid(idx);
            self.map[Self::map_slot(e.tid, e.reg)] = target as u16;
        }
        self.masked[idx / 64] |= 1u64 << (idx % 64);
        self.retired[idx / 64] |= 1u64 << (idx % 64);
        Some(spare.is_some())
    }

    /// Fault injection: flips `bit` of the physical-RF cell behind the
    /// `nth` valid entry (an SRAM upset in the value array). Bookkeeping
    /// state is left untouched — a clean entry that is never read again
    /// and never written back masks the fault, exactly as hardware would.
    /// Returns a description of the corrupted site, or `None` when the
    /// store is empty.
    pub fn corrupt_value(&mut self, nth: usize, bit: u8) -> Option<String> {
        let idx = self.nth_valid(nth)?;
        let e = &mut self.entries[idx];
        e.value ^= 1 << (bit % 64);
        Some(format!(
            "tag-store[{idx}] t{} {} value bit {}",
            e.tid,
            e.reg,
            bit % 64
        ))
    }

    /// Fault injection: marks the `nth` valid entry as waiting for a fill
    /// that will never arrive (a lost BSI response). The entry becomes
    /// unreadable and unevictable. A later acquire of its register waits
    /// for the fill forever, which surfaces as a livelock; an instruction
    /// that acquired it before the fault reads it anyway, and the core
    /// latches that read as a structural hazard.
    pub fn corrupt_stuck_fill(&mut self, nth: usize) -> Option<String> {
        let idx = self.nth_valid(nth)?;
        let e = &mut self.entries[idx];
        e.fill_pending = true;
        Some(format!(
            "tag-store[{idx}] t{} {} stuck fill_pending",
            e.tid, e.reg
        ))
    }

    /// Checks structural invariants (used by property tests): injective
    /// tags and a reverse map consistent with the entry array.
    pub fn check_invariants(&self) {
        for (i, a) in self.entries.iter().enumerate() {
            assert_eq!(
                (self.valid[i / 64] >> (i % 64)) & 1 == 1,
                a.meta.valid,
                "occupancy bitset out of sync at entry {i}"
            );
            if !a.meta.valid {
                continue;
            }
            assert!(!a.reg.is_zero(), "xzr must never be cached");
            assert_eq!(
                self.map[Self::map_slot(a.tid, a.reg)] as usize,
                i,
                "reverse map out of sync for t{} {:?}",
                a.tid,
                a.reg
            );
            for b in &self.entries[i + 1..] {
                if b.meta.valid {
                    assert!(
                        !(a.tid == b.tid && a.reg == b.reg),
                        "duplicate mapping for t{} {:?}",
                        a.tid,
                        a.reg
                    );
                }
            }
        }
        // Every mapped slot points at a matching valid entry.
        for (slot, &idx) in self.map.iter().enumerate() {
            if idx == NO_ENTRY {
                continue;
            }
            let e = &self.entries[idx as usize];
            assert!(e.meta.valid, "map points at invalid entry");
            assert_eq!(Self::map_slot(e.tid, e.reg), slot, "map slot mismatch");
        }
        // RAS masking: a masked way is out of service (never valid) and
        // retired ways are a subset of masked ways.
        for i in 0..self.entries.len() {
            let masked = (self.masked[i / 64] >> (i % 64)) & 1 == 1;
            let retired = (self.retired[i / 64] >> (i % 64)) & 1 == 1;
            if masked {
                assert!(!self.entries[i].meta.valid, "masked way {i} holds an entry");
            }
            if retired {
                assert!(masked, "retired way {i} must be masked");
            }
        }
        let retired_count: usize = self.retired.iter().map(|w| w.count_ones() as usize).sum();
        assert!(
            self.active_capacity() >= MIN_ACTIVE_WAYS || retired_count == 0,
            "retirement shrank capacity below the in-flight window"
        );
    }
}

/// One rollback-queue record: the registers an in-flight instruction
/// accessed and whether it is a memory operation.
#[derive(Clone, Copy, Debug)]
pub struct RollbackEntry {
    /// Registers the instruction referenced (sources and destinations).
    pub regs: RegList,
    /// Whether the instruction is a load or store (CSL masking signal).
    pub is_mem: bool,
}

/// The rollback queue (§5.1): FIFO with a depth equal to the maximum number
/// of instructions in the processor backend.
#[derive(Clone)]
pub struct RollbackQueue {
    entries: VecDeque<RollbackEntry>,
    depth: usize,
}

impl RollbackQueue {
    /// Creates a queue with the given depth.
    pub fn new(depth: usize) -> RollbackQueue {
        RollbackQueue {
            entries: VecDeque::with_capacity(depth),
            depth,
        }
    }

    /// Records an instruction entering the backend.
    ///
    /// # Panics
    /// Panics if the queue overflows — the pipeline must never have more
    /// in-flight instructions than the backend depth.
    pub fn push(&mut self, entry: RollbackEntry) {
        assert!(
            self.entries.len() < self.depth,
            "rollback queue overflow (depth {})",
            self.depth
        );
        self.entries.push_back(entry);
    }

    /// Removes the oldest entry when its instruction commits.
    pub fn pop_commit(&mut self) -> Option<RollbackEntry> {
        self.entries.pop_front()
    }

    /// Removes the youngest entry — used when a branch redirect squashes an
    /// already-acquired instruction in decode.
    pub fn pop_youngest(&mut self) -> Option<RollbackEntry> {
        self.entries.pop_back()
    }

    /// Whether the oldest in-flight instruction is a memory operation.
    /// `None` when the backend is empty.
    pub fn oldest_is_mem(&self) -> Option<bool> {
        self.entries.front().map(|e| e.is_mem)
    }

    /// Number of in-flight instructions tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the backend is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fault injection: corrupts the `nth` occupied slot (modulo occupancy).
    /// High `bit` values toggle the is-mem CSL signal; otherwise one
    /// recorded register identity is rewritten, so commit/flush will unlock
    /// and clear the wrong registers. Returns a description of the
    /// corrupted site, or `None` when the queue is empty.
    pub fn corrupt_slot(&mut self, nth: usize, bit: u8) -> Option<String> {
        let n = self.entries.len();
        if n == 0 {
            return None;
        }
        let slot = &mut self.entries[nth % n];
        if slot.regs.is_empty() || bit >= 56 {
            slot.is_mem = !slot.is_mem;
            return Some(format!(
                "rollback[{}] is_mem toggled to {}",
                nth % n,
                slot.is_mem
            ));
        }
        let regs: Vec<Reg> = slot.regs.iter().collect();
        let i = (bit as usize / 5) % regs.len();
        let old = regs[i];
        let new = Reg::new(((old.index() ^ (1 << (bit % 5))) % 31) as u8);
        let mut rewritten = RegList::new();
        for (j, &r) in regs.iter().enumerate() {
            rewritten.push(if j == i { new } else { r });
        }
        slot.regs = rewritten;
        Some(format!(
            "rollback[{}] reg {old} rewritten to {new}",
            nth % n
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use virec_isa::reg::names::*;

    #[test]
    fn allocate_then_lookup() {
        let mut ts = TagStore::new(4, PolicyKind::Lrc);
        let out = ts.allocate(0, X1);
        assert!(matches!(out, AllocOutcome::Free { .. }));
        assert!(ts.lookup(0, X1).is_some());
        assert!(ts.lookup(1, X1).is_none(), "tags include the thread id");
        ts.check_invariants();
    }

    #[test]
    fn eviction_when_full() {
        let mut ts = TagStore::new(2, PolicyKind::Lrc);
        let AllocOutcome::Free { idx } = ts.allocate(0, X1) else {
            panic!()
        };
        ts.entry_mut(idx).value = 111;
        ts.entry_mut(idx).dirty = true;
        let _ = ts.allocate(0, X2);
        // Make X1 the clear victim: committed + old.
        let i1 = ts.lookup(0, X1).unwrap();
        ts.entry_mut(i1).meta.a_bits = AGE_MAX;
        let out = ts.allocate(0, X3);
        match out {
            AllocOutcome::Evicted {
                victim_reg,
                victim_value,
                victim_dirty,
                ..
            } => {
                assert_eq!(victim_reg, X1);
                assert_eq!(victim_value, 111);
                assert!(victim_dirty);
            }
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(ts.lookup(0, X1).is_none());
        assert!(ts.lookup(0, X3).is_some());
        ts.check_invariants();
    }

    #[test]
    fn locked_entries_block_eviction() {
        let mut ts = TagStore::new(1, PolicyKind::Lrc);
        let AllocOutcome::Free { idx } = ts.allocate(0, X1) else {
            panic!()
        };
        ts.lock(idx);
        assert_eq!(ts.allocate(0, X2), AllocOutcome::NoVictim);
        ts.unlock(idx);
        assert!(matches!(ts.allocate(0, X2), AllocOutcome::Evicted { .. }));
    }

    #[test]
    fn touch_updates_ages_and_commit() {
        let mut ts = TagStore::new(3, PolicyKind::Lrc);
        let AllocOutcome::Free { idx: i1 } = ts.allocate(0, X1) else {
            panic!()
        };
        let AllocOutcome::Free { idx: i2 } = ts.allocate(0, X2) else {
            panic!()
        };
        ts.entry_mut(i1).meta.c_bit = false;
        ts.touch(i1);
        assert_eq!(ts.age(i1), 0);
        assert!(ts.entry(i1).meta.c_bit, "touch speculatively sets C");
        assert!(ts.age(i2) > 0, "others age");
    }

    #[test]
    fn ages_saturate() {
        let mut ts = TagStore::new(2, PolicyKind::Lrc);
        let AllocOutcome::Free { idx: i1 } = ts.allocate(0, X1) else {
            panic!()
        };
        let AllocOutcome::Free { idx: i2 } = ts.allocate(0, X2) else {
            panic!()
        };
        for _ in 0..20 {
            ts.touch(i1);
        }
        assert_eq!(ts.age(i2), AGE_MAX);
    }

    #[test]
    fn context_switch_updates_t_bits() {
        let mut ts = TagStore::new(6, PolicyKind::Lrc);
        let _ = ts.allocate(0, X1);
        let _ = ts.allocate(1, X1);
        let _ = ts.allocate(2, X1);
        // Give thread 2 a mid-range T value to observe the decrement.
        let i2 = ts.lookup(2, X1).unwrap();
        ts.entry_mut(i2).meta.t_bits = 3;
        ts.on_context_switch(0, 1);
        assert_eq!(ts.entry(ts.lookup(0, X1).unwrap()).meta.t_bits, AGE_MAX);
        assert_eq!(ts.entry(ts.lookup(1, X1).unwrap()).meta.t_bits, 0);
        assert_eq!(ts.entry(ts.lookup(2, X1).unwrap()).meta.t_bits, 2);
    }

    #[test]
    fn clear_commit_only_if_resident() {
        let mut ts = TagStore::new(2, PolicyKind::Lrc);
        let AllocOutcome::Free { idx } = ts.allocate(0, X1) else {
            panic!()
        };
        ts.touch(idx);
        ts.clear_commit(0, X1);
        assert!(!ts.entry(idx).meta.c_bit);
        ts.clear_commit(0, X9); // absent: no-op, must not panic
    }

    #[test]
    fn rollback_fifo_order_and_mem_signal() {
        let mut rq = RollbackQueue::new(4);
        let mut regs1 = RegList::new();
        regs1.push(X1);
        rq.push(RollbackEntry {
            regs: regs1,
            is_mem: true,
        });
        let mut regs2 = RegList::new();
        regs2.push(X2);
        rq.push(RollbackEntry {
            regs: regs2,
            is_mem: false,
        });
        assert_eq!(rq.oldest_is_mem(), Some(true));
        let e = rq.pop_commit().unwrap();
        assert!(e.regs.contains(X1));
        assert_eq!(rq.oldest_is_mem(), Some(false));
    }

    #[test]
    fn rollback_flush_compacts_to_unique_regs() {
        let mut rq = RollbackQueue::new(4);
        for regs in [[X1, X2], [X2, X3]] {
            let mut l = RegList::new();
            l.push(regs[0]);
            l.push(regs[1]);
            rq.push(RollbackEntry {
                regs: l,
                is_mem: false,
            });
        }
        let mut flushed = Vec::new();
        while let Some(e) = rq.pop_commit() {
            for r in e.regs.iter() {
                if !flushed.contains(&r) {
                    flushed.push(r);
                }
            }
        }
        flushed.sort();
        assert_eq!(flushed, vec![X1, X2, X3]);
        assert!(rq.is_empty());
        assert_eq!(rq.oldest_is_mem(), None);
    }

    #[test]
    #[should_panic(expected = "rollback queue overflow")]
    fn rollback_overflow_panics() {
        let mut rq = RollbackQueue::new(1);
        rq.push(RollbackEntry {
            regs: RegList::new(),
            is_mem: false,
        });
        rq.push(RollbackEntry {
            regs: RegList::new(),
            is_mem: false,
        });
    }

    #[test]
    fn spare_ways_start_masked() {
        let ts = TagStore::with_spares(16, 2, PolicyKind::Lrc);
        assert_eq!(ts.capacity(), 18);
        assert_eq!(ts.active_capacity(), 16);
        assert_eq!(ts.spare_ways_left(), 2);
        assert!(ts.is_masked(16));
        assert!(ts.is_masked(17));
        ts.check_invariants();
    }

    #[test]
    fn mask_way_relocates_occupant_and_activates_spare() {
        let mut ts = TagStore::with_spares(16, 1, PolicyKind::Lrc);
        // Fill every in-service way so relocation must use the spare.
        for i in 0..16 {
            let _ = ts.allocate((i / 4) as u8, Reg::new((1 + i % 16) as u8));
        }
        let idx = ts.lookup(0, X1).unwrap();
        let e = *ts.entry(idx);
        ts.lock(idx);
        ts.entry_mut(idx).value = 0xDEAD;
        assert_eq!(ts.mask_way(idx, true), Some(true), "spare activated");
        assert!(ts.is_masked(idx));
        assert_eq!(ts.spare_ways_left(), 0);
        assert_eq!(ts.active_capacity(), 16, "spare preserved capacity");
        // The occupant survived relocation with its lock and value.
        let new_idx = ts.lookup(e.tid, e.reg).unwrap();
        assert_ne!(new_idx, idx);
        assert_eq!(ts.entry(new_idx).value, 0xDEAD);
        assert_eq!(ts.entry(new_idx).lock_count, 1);
        ts.check_invariants();
        // Idempotent re-application consumes nothing further.
        assert_eq!(ts.mask_way(idx, true), Some(false));
        ts.check_invariants();
    }

    #[test]
    fn mask_way_without_spare_shrinks_capacity() {
        let mut ts = TagStore::new(16, PolicyKind::Lrc);
        let _ = ts.allocate(0, X1);
        let idx = ts.lookup(0, X1).unwrap();
        assert_eq!(ts.mask_way(idx, true), Some(false), "no spare to activate");
        assert_eq!(ts.active_capacity(), 15);
        assert!(ts.lookup(0, X1).is_some(), "occupant relocated");
        ts.check_invariants();
    }

    #[test]
    fn mask_way_refuses_below_floor() {
        let mut ts = TagStore::new(MIN_ACTIVE_WAYS, PolicyKind::Lrc);
        let _ = ts.allocate(0, X1);
        let idx = ts.lookup(0, X1).unwrap();
        assert_eq!(ts.mask_way(idx, false), None);
        assert!(!ts.is_masked(idx));
        ts.check_invariants();
    }

    #[test]
    fn masked_ways_are_never_allocated() {
        let mut ts = TagStore::with_spares(12, 1, PolicyKind::Lrc);
        for i in 0..12 {
            let _ = ts.allocate(0, Reg::new((1 + i) as u8));
        }
        assert_eq!(ts.valid_count(), 12);
        // Store full, spare still masked: allocation must evict, not use
        // the spare.
        match ts.allocate(0, Reg::new(13)) {
            AllocOutcome::Evicted { idx, .. } => assert!(idx < 12, "spare way must stay masked"),
            other => panic!("expected eviction, got {other:?}"),
        }
        ts.check_invariants();
    }

    #[test]
    fn fill_pending_blocks_eviction() {
        let mut ts = TagStore::new(1, PolicyKind::Plru);
        let AllocOutcome::Free { idx } = ts.allocate(0, X1) else {
            panic!()
        };
        ts.entry_mut(idx).fill_pending = true;
        assert_eq!(ts.allocate(0, X2), AllocOutcome::NoVictim);
    }
}
