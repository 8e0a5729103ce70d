//! The ViReC context engine: VRMU (tag store + rollback queue) plus BSI.
//!
//! Register *values* live in the tag-store entries (the physical RF) while
//! resident, and in the backing region of functional memory while spilled.
//! Every fill reads memory and every dirty eviction writes it, so the
//! differential tests against the golden interpreter exercise the entire
//! §5 machinery.

use crate::bsi::Bsi;
use crate::config::CoreConfig;
use crate::engine::{AcquireOutcome, ContextEngine, EngineEnv, EngineFault, RegFault, WayRetire};
use crate::regions::RegRegion;
use crate::vrmu::{AllocOutcome, RollbackEntry, RollbackQueue, TagStore};
use virec_isa::{AccessSize, DataMemory, FlatMem, Instr, Reg, RegList};

/// Depth of the rollback queue: the maximum number of in-flight
/// instructions in the backend (decode + execute + mem stages, plus one
/// being committed).
pub const ROLLBACK_DEPTH: usize = 4;

/// State of a multi-cycle acquisition.
#[derive(Clone)]
struct PendingAcquire {
    tid: u8,
    /// Registers still waiting for a free/evictable physical entry.
    unallocated: RegList,
    /// All registers the instruction needs (for the final residency check).
    needed: RegList,
    /// Destination-only registers (dummy-fill candidates).
    dst_only: RegList,
}

/// The ViReC engine (§5).
#[derive(Clone)]
pub struct VirecEngine {
    tags: TagStore,
    rollback: RollbackQueue,
    bsi: Bsi,
    dummy_opt: bool,
    /// Registers to evict per eviction event (future-work group evictions).
    group_evict: usize,
    /// Prefetch the incoming thread's last context on switches
    /// (future-work prefetch + caching hybrid).
    switch_prefetch: bool,
    /// Resident register set of each thread at its last suspension, in
    /// entry order (kept only with `switch_prefetch`, its one reader; each
    /// list reuses its buffer).
    last_ctx: Vec<Vec<Reg>>,
    pending: Option<PendingAcquire>,
}

impl VirecEngine {
    /// Builds the engine from a core configuration.
    pub fn new(cfg: &CoreConfig) -> VirecEngine {
        assert!(cfg.group_evict >= 1, "group_evict must be at least 1");
        VirecEngine {
            tags: TagStore::with_spares(cfg.phys_regs, cfg.spare_ways, cfg.policy),
            rollback: RollbackQueue::new(ROLLBACK_DEPTH),
            bsi: Bsi::new(cfg.nonblocking_bsi, cfg.reg_line_pinning),
            dummy_opt: cfg.dummy_fill_opt,
            group_evict: cfg.group_evict,
            switch_prefetch: cfg.switch_prefetch,
            last_ctx: vec![Vec::new(); cfg.nthreads],
            pending: None,
        }
    }

    /// Immutable view of the tag store (for tests and diagnostics).
    pub fn tags(&self) -> &TagStore {
        &self.tags
    }

    fn dst_only_regs(instr: &Instr) -> RegList {
        let srcs = instr.srcs();
        instr.dsts().iter().filter(|d| !srcs.contains(*d)).collect()
    }

    /// Evicts `victim` data: functional writeback if dirty, and an unpin /
    /// writeback transaction through the BSI.
    fn spill_victim(
        &mut self,
        victim_tid: u8,
        victim_reg: Reg,
        victim_value: u64,
        victim_dirty: bool,
        env: &mut EngineEnv<'_>,
    ) {
        let addr = env.region.reg_addr(victim_tid as usize, victim_reg);
        if victim_dirty {
            env.mem.write(addr, AccessSize::B8, victim_value);
        }
        // The spill transaction also decrements the line's pin counter;
        // clean evictions still need the unpin bookkeeping.
        self.bsi.enqueue_spill(addr);
        env.stats.rf_spills += 1;
    }

    /// Allocates and queues a speculative prefetch fill for `(tid, reg)`.
    /// Unlike demand fills, this never performs group evictions and never
    /// blocks the CSL.
    fn try_allocate_prefetch(&mut self, tid: u8, reg: Reg, env: &mut EngineEnv<'_>) -> bool {
        let outcome = self.tags.allocate(tid, reg);
        let idx = match outcome {
            AllocOutcome::NoVictim => return false,
            AllocOutcome::Free { idx } => idx,
            AllocOutcome::Evicted {
                idx,
                victim_tid,
                victim_reg,
                victim_value,
                victim_dirty,
            } => {
                self.spill_victim(victim_tid, victim_reg, victim_value, victim_dirty, env);
                idx
            }
        };
        let addr = env.region.reg_addr(tid as usize, reg);
        self.tags.entry_mut(idx).fill_pending = true;
        self.bsi.enqueue_prefetch_fill(tid, reg, addr);
        true
    }

    /// Tries to allocate a physical register for `(tid, reg)` on behalf of
    /// an acquiring instruction; on success locks it for that instruction
    /// and queues the fill (real or dummy).
    ///
    /// The lock comes before any group eviction, so the extra victims are
    /// never the register just allocated.
    fn try_allocate(&mut self, tid: u8, reg: Reg, dummy: bool, env: &mut EngineEnv<'_>) -> bool {
        let outcome = self.tags.allocate(tid, reg);
        let idx = match outcome {
            AllocOutcome::NoVictim => return false,
            AllocOutcome::Free { idx } => {
                self.tags.lock(idx);
                idx
            }
            AllocOutcome::Evicted {
                idx,
                victim_tid,
                victim_reg,
                victim_value,
                victim_dirty,
            } => {
                self.tags.lock(idx);
                self.spill_victim(victim_tid, victim_reg, victim_value, victim_dirty, env);
                // Future-work extension: group evictions free additional
                // entries in the same event, amortizing the spill burst.
                for _ in 1..self.group_evict {
                    let Some((vt, vr, vv, vd)) = self.tags.evict_one() else {
                        break;
                    };
                    self.spill_victim(vt, vr, vv, vd, env);
                }
                idx
            }
        };
        let addr = env.region.reg_addr(tid as usize, reg);
        if dummy {
            // Usable immediately; transaction is metadata bookkeeping only.
            let e = self.tags.entry_mut(idx);
            e.value = 0;
            e.fill_pending = false;
            env.stats.rf_dummy_fills += 1;
            self.bsi.enqueue_fill(tid, reg, addr, true);
        } else {
            self.tags.entry_mut(idx).fill_pending = true;
            self.bsi.enqueue_fill(tid, reg, addr, false);
        }
        true
    }

    /// Entry indices of every register `p` needs, in list order, once all
    /// are allocated and none waits for its fill; `None` before that.
    fn ready_indices(&self, p: &PendingAcquire) -> Option<([usize; RegList::CAPACITY], usize)> {
        if !p.unallocated.is_empty() {
            return None;
        }
        let mut idxs = [0; RegList::CAPACITY];
        for (slot, r) in idxs.iter_mut().zip(p.needed.iter()) {
            let idx = self.tags.lookup(p.tid, r)?;
            if self.tags.entry(idx).fill_pending {
                return None;
            }
            *slot = idx;
        }
        Some((idxs, p.needed.len()))
    }

    /// Masks physical way `idx`, making room for its occupant by evicting
    /// another entry (a real spill through the BSI) when the store is full.
    /// Returns `Some(spared)` like [`TagStore::mask_way`], or `None` when
    /// the mask is impossible (floor violation, or every relocation target
    /// is locked).
    fn mask_making_room(
        &mut self,
        idx: usize,
        use_spare: bool,
        env: &mut EngineEnv<'_>,
    ) -> Option<bool> {
        if let Some(spared) = self.tags.mask_way(idx, use_spare) {
            return Some(spared);
        }
        // The occupant had nowhere to go (or the floor blocked the shrink).
        // Free a slot with a genuine eviction and retry once; if the store
        // still refuses, the retirement genuinely cannot proceed.
        let (vt, vr, vv, vd) = self.tags.evict_one()?;
        self.spill_victim(vt, vr, vv, vd, env);
        self.tags.mask_way(idx, use_spare)
    }
}

impl ContextEngine for VirecEngine {
    fn acquire(
        &mut self,
        _now: u64,
        tid: u8,
        instr: &Instr,
        env: &mut EngineEnv<'_>,
    ) -> AcquireOutcome {
        let mut p = match self.pending.take() {
            Some(p) => p,
            None => {
                // First attempt: classify hits and misses, count stats, lock
                // resident registers, allocate missing ones.
                let needed = instr.regs();
                let dst_only = if self.dummy_opt {
                    Self::dst_only_regs(instr)
                } else {
                    RegList::new()
                };
                let mut unallocated = RegList::new();
                for r in needed.iter() {
                    if let Some(idx) = self.tags.lookup(tid, r) {
                        env.stats.rf_hits += 1;
                        self.tags.lock(idx);
                    } else {
                        env.stats.rf_misses += 1;
                        if !self.try_allocate(tid, r, dst_only.contains(r), env) {
                            unallocated.push(r);
                        }
                    }
                }
                self.rollback.push(RollbackEntry {
                    regs: needed,
                    is_mem: instr.is_mem(),
                });
                PendingAcquire {
                    tid,
                    unallocated,
                    needed,
                    dst_only,
                }
            }
        };

        // Progress check: allocate leftovers, then wait for fills.
        debug_assert_eq!(p.tid, tid, "interleaved acquires are impossible");
        p.unallocated = p
            .unallocated
            .iter()
            .filter(|&r| !self.try_allocate(tid, r, p.dst_only.contains(r), env))
            .collect();

        match self.ready_indices(&p) {
            Some((idxs, n)) => {
                for &idx in &idxs[..n] {
                    self.tags.touch(idx);
                }
                AcquireOutcome::Ready
            }
            // With every register allocated, a retry only re-reads the fill
            // bits; before that it runs victim selection again.
            None => {
                let outcome = if p.unallocated.is_empty() {
                    AcquireOutcome::Filling
                } else {
                    AcquireOutcome::Pending
                };
                self.pending = Some(p);
                outcome
            }
        }
    }

    fn read(&self, tid: u8, reg: Reg) -> Result<u64, RegFault> {
        if reg.is_zero() {
            return Ok(0);
        }
        let idx = self
            .tags
            .lookup(tid, reg)
            .ok_or(RegFault::Spilled { tid, reg })?;
        let e = self.tags.entry(idx);
        if e.fill_pending {
            return Err(RegFault::FillPending { tid, reg });
        }
        Ok(e.value)
    }

    fn write(&mut self, tid: u8, reg: Reg, value: u64) -> Result<(), RegFault> {
        if reg.is_zero() {
            return Ok(());
        }
        let idx = self
            .tags
            .lookup(tid, reg)
            .ok_or(RegFault::Spilled { tid, reg })?;
        let e = self.tags.entry_mut(idx);
        e.value = value;
        e.dirty = true;
        Ok(())
    }

    fn commit_instr(&mut self, tid: u8, instr: &Instr) {
        let entry = self
            .rollback
            .pop_commit()
            .expect("commit with empty rollback queue");
        debug_assert_eq!(entry.regs, instr.regs());
        for r in entry.regs.iter() {
            if let Some(idx) = self.tags.lookup(tid, r) {
                self.tags.unlock(idx);
            }
        }
    }

    fn abort_youngest(&mut self, tid: u8, _instr: &Instr) {
        // Squashed while (or after) acquiring: drop the pending state and
        // release the locks of the youngest rollback entry.
        self.pending = None;
        if let Some(entry) = self.rollback.pop_youngest() {
            for r in entry.regs.iter() {
                if let Some(idx) = self.tags.lookup(tid, r) {
                    self.tags.unlock(idx);
                }
            }
        }
    }

    fn flush_all_inflight(&mut self, tid: u8) {
        self.pending = None;
        // Unlock per instruction and clear the commit bit of every flushed
        // register (the 1-hot compaction of §5.1: clearing a bit twice is
        // clearing it once, so no union is needed).
        while let Some(entry) = self.rollback.pop_commit() {
            for r in entry.regs.iter() {
                if let Some(idx) = self.tags.lookup(tid, r) {
                    self.tags.unlock(idx);
                    self.tags.entry_mut(idx).meta.c_bit = false;
                }
            }
        }
    }

    fn on_switch(&mut self, _now: u64, out_tid: u8, in_tid: u8, env: &mut EngineEnv<'_>) {
        if self.switch_prefetch {
            let ctx = &mut self.last_ctx[out_tid as usize];
            ctx.clear();
            ctx.extend(self.tags.resident_regs(out_tid));
        }
        self.tags.on_context_switch(out_tid, in_tid);
        if self.switch_prefetch {
            // Prefetch + caching hybrid (paper future work): warm the
            // incoming thread's last-held registers during the pipeline
            // refill window. Bounded, and abandoned if the RF has no free
            // victims.
            const MAX_PREFETCH: usize = 4;
            let want: RegList = self.last_ctx[in_tid as usize]
                .iter()
                .copied()
                .filter(|&r| self.tags.lookup(in_tid, r).is_none())
                .take(MAX_PREFETCH)
                .collect();
            for r in want.iter() {
                if !self.try_allocate_prefetch(in_tid, r, env) {
                    break;
                }
            }
        }
    }

    fn thread_ready(&mut self, _now: u64, _tid: u8, _env: &mut EngineEnv<'_>) -> bool {
        true
    }

    fn tick(&mut self, now: u64, env: &mut EngineEnv<'_>) -> Option<u64> {
        self.bsi
            .tick(now, env.dcache, env.fabric, &mut self.tags, env.mem)
    }

    fn bsi_busy(&self) -> bool {
        // §5.2: the BSI masks context switches during an *ongoing fill
        // request* (to simplify fill logic / protect registers being
        // retrieved). Posted spills and dummy-fill bookkeeping transactions
        // retrieve nothing and must not turn switches into blocking waits.
        self.bsi.fills_pending()
    }

    fn oldest_inflight_is_mem(&self) -> Option<bool> {
        self.rollback.oldest_is_mem()
    }

    fn inject_fault(&mut self, fault: EngineFault) -> Option<String> {
        match fault {
            EngineFault::RegValue { nth, bit } => self.tags.corrupt_value(nth as usize, bit),
            EngineFault::RollbackSlot { nth, bit } => self.rollback.corrupt_slot(nth as usize, bit),
            EngineFault::StuckFill { nth } => self.tags.corrupt_stuck_fill(nth as usize),
        }
    }

    fn retire_way(
        &mut self,
        nth: u64,
        use_spare: bool,
        env: &mut EngineEnv<'_>,
    ) -> Option<WayRetire> {
        // Same nth-occupied addressing the fault injector uses, so the RAS
        // layer retires exactly the way the campaign corrupted.
        let occ = self.tags.valid_count().max(1);
        let idx = self.tags.resolve_nth_way((nth % occ as u64) as usize)?;
        let spared = self.mask_making_room(idx, use_spare, env)?;
        Some(WayRetire {
            idx,
            spared,
            desc: format!("vrmu way {idx} retired (spared={spared})"),
        })
    }

    fn remask_way(&mut self, idx: usize, use_spare: bool, env: &mut EngineEnv<'_>) -> bool {
        self.mask_making_room(idx, use_spare, env).is_some()
    }

    fn spare_ways_left(&self) -> usize {
        self.tags.spare_ways_left()
    }

    fn live_bits(&self, tid: u8) -> Option<(u32, u32)> {
        let mut resident = 0u32;
        let mut committed = 0u32;
        for e in self.tags.valid_entries().filter(|e| e.tid == tid) {
            let bit = 1u32 << e.reg.index();
            resident |= bit;
            if e.meta.c_bit {
                committed |= bit;
            }
        }
        Some((resident, committed))
    }

    fn occupancy(&self) -> (usize, usize) {
        (self.tags.valid_count(), self.tags.capacity())
    }

    fn debug_state(&self) -> String {
        format!(
            "VRMU {}/{} entries valid, {} fills pending, rollback depth {}",
            self.tags.valid_count(),
            self.tags.capacity(),
            self.tags.fills_pending_count(),
            self.rollback.len()
        )
    }

    fn drain(&mut self, region: RegRegion, mem: &mut FlatMem) {
        for e in self.tags.valid_entries() {
            if e.dirty {
                let addr = region.reg_addr(e.tid as usize, e.reg);
                mem.write(addr, AccessSize::B8, e.value);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ContextEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CoreConfig;
    use crate::stats::CoreStats;
    use virec_isa::instr::{AluOp, Operand2};
    use virec_isa::reg::names::*;
    use virec_mem::{Cache, CacheConfig, Fabric, FabricConfig};

    struct Rig {
        dcache: Cache,
        fabric: Fabric,
        mem: FlatMem,
        region: RegRegion,
        stats: CoreStats,
    }

    impl Rig {
        fn new() -> Rig {
            let region = RegRegion::new(0x8000, 8);
            Rig {
                dcache: Cache::new(CacheConfig::nmp_dcache(), 0),
                fabric: Fabric::new(FabricConfig::default()),
                mem: FlatMem::new(0, 0x10_000),
                region,
                stats: CoreStats::default(),
            }
        }

        fn env(&mut self) -> EngineEnv<'_> {
            EngineEnv {
                dcache: &mut self.dcache,
                fabric: &mut self.fabric,
                mem: &mut self.mem,
                region: self.region,
                stats: &mut self.stats,
            }
        }
    }

    fn add_instr(dst: virec_isa::Reg, a: virec_isa::Reg, b: virec_isa::Reg) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            dst,
            src: a,
            rhs: Operand2::Reg(b),
        }
    }

    /// Drives acquire to Ready, ticking the machinery.
    fn acquire_to_ready(e: &mut VirecEngine, rig: &mut Rig, tid: u8, instr: &Instr) -> u64 {
        let mut now = 0;
        loop {
            let out = {
                let mut env = rig.env();
                e.acquire(now, tid, instr, &mut env)
            };
            if out == AcquireOutcome::Ready {
                return now;
            }
            rig.fabric.tick(now);
            rig.dcache.tick(now, &mut rig.fabric);
            let mut env = rig.env();
            e.tick(now, &mut env);
            now += 1;
            assert!(now < 10_000, "acquire never completed");
        }
    }

    #[test]
    fn fill_reads_initial_context_from_region() {
        let mut rig = Rig::new();
        let cfg = CoreConfig::virec(8, 16);
        let mut e = VirecEngine::new(&cfg);
        // Offload wrote x1 = 77 for thread 0.
        let addr = rig.region.reg_addr(0, X1);
        rig.mem.write_u64(addr, 77);
        let i = add_instr(X2, X1, XZR);
        acquire_to_ready(&mut e, &mut rig, 0, &i);
        assert_eq!(e.read(0, X1), Ok(77));
        assert!(rig.stats.rf_misses >= 1);
        // x2 was destination-only: dummy-filled, no memory latency.
        assert!(rig.stats.rf_dummy_fills >= 1);
        e.commit_instr(0, &i);
    }

    #[test]
    fn spill_and_refill_roundtrip() {
        let mut rig = Rig::new();
        // RF with barely enough space: 12 entries. PLRU (age-only) lets the
        // idle thread's register age out — exactly the thrash LRC avoids —
        // which is what this round-trip test needs.
        let mut cfg = CoreConfig::virec(8, 12);
        cfg.policy = crate::config::PolicyKind::Plru;
        let mut e = VirecEngine::new(&cfg);

        // Write x1 of thread 0, then thrash with other threads until it is
        // evicted, then reload and check the value survived the round trip.
        let i = add_instr(X1, X1, XZR);
        acquire_to_ready(&mut e, &mut rig, 0, &i);
        assert_eq!(e.write(0, X1, 0xBEEF), Ok(()));
        e.commit_instr(0, &i);

        let mut switched_from = 0u8;
        for t in 1..7u8 {
            // Each thread touches 3 registers → 18 regs pressure over 12.
            for r in [X3, X4, X5] {
                let j = add_instr(r, r, XZR);
                acquire_to_ready(&mut e, &mut rig, t, &j);
                e.commit_instr(t, &j);
            }
            {
                let mut env = rig.env();
                e.on_switch(0, switched_from, t, &mut env);
            }
            switched_from = t;
        }
        assert!(
            e.tags().lookup(0, X1).is_none(),
            "x1 should have been evicted under pressure"
        );
        // Reload.
        let k = add_instr(X2, X1, XZR);
        acquire_to_ready(&mut e, &mut rig, 0, &k);
        assert_eq!(e.read(0, X1), Ok(0xBEEF), "value lost across spill/refill");
    }

    #[test]
    fn flush_clears_commit_bits() {
        let mut rig = Rig::new();
        let cfg = CoreConfig::virec(8, 16);
        let mut e = VirecEngine::new(&cfg);
        let i = add_instr(X1, X1, X2);
        acquire_to_ready(&mut e, &mut rig, 0, &i);
        let idx = e.tags().lookup(0, X1).unwrap();
        assert!(
            e.tags().entry(idx).meta.c_bit,
            "speculatively set on access"
        );
        e.flush_all_inflight(0);
        let idx = e.tags().lookup(0, X1).unwrap();
        assert!(!e.tags().entry(idx).meta.c_bit, "cleared by rollback flush");
        assert_eq!(e.tags().entry(idx).lock_count, 0, "locks released");
    }

    #[test]
    fn commit_keeps_commit_bit() {
        let mut rig = Rig::new();
        let cfg = CoreConfig::virec(8, 16);
        let mut e = VirecEngine::new(&cfg);
        let i = add_instr(X1, X1, X2);
        acquire_to_ready(&mut e, &mut rig, 0, &i);
        e.commit_instr(0, &i);
        let idx = e.tags().lookup(0, X1).unwrap();
        assert!(e.tags().entry(idx).meta.c_bit);
        assert_eq!(e.tags().entry(idx).lock_count, 0);
    }

    #[test]
    fn drain_writes_dirty_values() {
        let mut rig = Rig::new();
        let cfg = CoreConfig::virec(8, 16);
        let mut e = VirecEngine::new(&cfg);
        let i = add_instr(X1, X1, XZR);
        acquire_to_ready(&mut e, &mut rig, 0, &i);
        assert_eq!(e.write(0, X1, 1234), Ok(()));
        e.commit_instr(0, &i);
        let region = rig.region;
        e.drain(region, &mut rig.mem);
        assert_eq!(rig.mem.read_u64(region.reg_addr(0, X1)), 1234);
    }

    #[test]
    fn xzr_reads_zero() {
        let cfg = CoreConfig::virec(8, 16);
        let e = VirecEngine::new(&cfg);
        assert_eq!(e.read(0, XZR), Ok(0));
    }

    #[test]
    fn oldest_inflight_reports_mem() {
        let mut rig = Rig::new();
        let cfg = CoreConfig::virec(8, 16);
        let mut e = VirecEngine::new(&cfg);
        let ld = Instr::Ldr {
            dst: X1,
            base: X2,
            offset: virec_isa::MemOffset::Imm(0),
            size: AccessSize::B8,
        };
        rig.mem.write_u64(rig.region.reg_addr(0, X2), 0x100);
        acquire_to_ready(&mut e, &mut rig, 0, &ld);
        assert_eq!(e.oldest_inflight_is_mem(), Some(true));
        e.commit_instr(0, &ld);
        assert_eq!(e.oldest_inflight_is_mem(), None);
    }
}
