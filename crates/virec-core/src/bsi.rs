//! The Backing Store Interface (§5.3).
//!
//! On an RF miss the BSI reads registers from and writes evicted registers
//! to the dcache. It implements the paper's three optimizations:
//!
//! * **fill priority** — loads for register fills are issued before stores
//!   for evictions, since fills are on the critical path;
//! * **dummy-value fills** — destination-only registers do not need their
//!   old value; the BSI writes a dummy value immediately and issues the
//!   backing-store transaction only for metadata bookkeeping, removing the
//!   backing-store latency from the critical path;
//! * **non-blocking operation** — multiple pipelined requests to the cache
//!   hide part of the backing-store latency (the blocking variant, used by
//!   the NSF baseline, allows a single outstanding request).
//!
//! While any register load or store is outstanding, the BSI signals the CSL
//! to block context switches (preventing eviction of registers that are
//! being retrieved).

use crate::vrmu::TagStore;
use std::collections::VecDeque;
use virec_isa::{AccessSize, DataMemory, FlatMem, Reg};
use virec_mem::{AccessKind, AccessResult, Cache, Fabric, MshrId};

/// A queued register fill.
#[derive(Clone, Copy, Debug)]
struct FillReq {
    tid: u8,
    reg: Reg,
    addr: u64,
    /// Dummy (metadata-only) transaction: the RF entry is already usable.
    dummy: bool,
    /// Speculative context-switch prefetch (never gates the pipeline or
    /// the CSL; issued behind demand fills).
    prefetch: bool,
}

/// A queued register spill (the value was already written functionally when
/// the eviction happened; this tracks the timing and the unpin).
#[derive(Clone, Copy, Debug)]
struct SpillReq {
    addr: u64,
}

#[derive(Clone, Copy, Debug)]
enum Wait {
    /// Dcache hit completing at this cycle.
    At(u64),
    /// Dcache miss tracked by this MSHR.
    Mshr(MshrId),
}

#[derive(Clone, Copy, Debug)]
enum Action {
    /// On completion, mark `(tid, reg)`'s fill as done and load its value.
    Fill {
        tid: u8,
        reg: Reg,
        addr: u64,
        /// Demand fills gate the CSL; prefetches do not.
        demand: bool,
    },
    /// Metadata-only transaction (dummy fill or spill): nothing to apply.
    Bookkeeping,
}

#[derive(Clone, Copy, Debug)]
struct Outstanding {
    wait: Wait,
    action: Action,
}

/// The backing store interface between the VRMU and the dcache.
#[derive(Clone)]
pub struct Bsi {
    nonblocking: bool,
    pinning: bool,
    fills: VecDeque<FillReq>,
    spills: VecDeque<SpillReq>,
    outstanding: Vec<Outstanding>,
}

impl Bsi {
    /// Creates a BSI. `nonblocking` allows pipelined requests; `pinning`
    /// makes BSI traffic pin/unpin register lines in the dcache.
    pub fn new(nonblocking: bool, pinning: bool) -> Bsi {
        Bsi {
            nonblocking,
            pinning,
            fills: VecDeque::new(),
            spills: VecDeque::new(),
            outstanding: Vec::new(),
        }
    }

    /// Queues a fill of `(tid, reg)` from backing-store address `addr`,
    /// behind the other demand fills and ahead of every queued prefetch:
    /// the queue always holds its demand fills first, in arrival order.
    ///
    /// For dummy fills the caller has already made the RF entry usable; the
    /// transaction is bookkeeping only.
    pub fn enqueue_fill(&mut self, tid: u8, reg: Reg, addr: u64, dummy: bool) {
        let prefetches = self.fills.iter().rev().take_while(|f| f.prefetch).count();
        self.fills.insert(
            self.fills.len() - prefetches,
            FillReq {
                tid,
                reg,
                addr,
                dummy,
                prefetch: false,
            },
        );
    }

    /// Queues a speculative prefetch fill (future-work extension): issued
    /// after all demand fills, and never counted by [`Bsi::fills_pending`].
    pub fn enqueue_prefetch_fill(&mut self, tid: u8, reg: Reg, addr: u64) {
        self.fills.push_back(FillReq {
            tid,
            reg,
            addr,
            dummy: false,
            prefetch: true,
        });
    }

    /// Queues a spill. The caller must have written the value to functional
    /// memory already (the architectural effect of the eviction).
    pub fn enqueue_spill(&mut self, addr: u64) {
        self.spills.push_back(SpillReq { addr });
    }

    /// Whether any register load or store is queued or outstanding — the
    /// CSL masking signal of §5.2.
    pub fn busy(&self) -> bool {
        !self.fills.is_empty() || !self.spills.is_empty() || !self.outstanding.is_empty()
    }

    /// Whether a *demand* fill (one the pipeline may be waiting on) is
    /// queued or in flight. Dummy bookkeeping transactions and speculative
    /// prefetches are excluded: they gate neither the pipeline nor the CSL.
    pub fn fills_pending(&self) -> bool {
        self.fills.iter().any(|f| !f.dummy && !f.prefetch)
            || self
                .outstanding
                .iter()
                .any(|o| matches!(o.action, Action::Fill { demand: true, .. }))
    }

    fn fill_kind(&self) -> AccessKind {
        if self.pinning {
            AccessKind::RegFill
        } else {
            AccessKind::DataLoad
        }
    }

    fn spill_kind(&self) -> AccessKind {
        if self.pinning {
            AccessKind::RegSpill
        } else {
            AccessKind::DataStore
        }
    }

    /// Advances the BSI one cycle: completes returned requests and issues
    /// new ones (fills before spills). Returns the next cycle the BSI has
    /// work, or the next cycle after a fill landed, as
    /// [`crate::engine::ContextEngine::tick`] does.
    pub fn tick(
        &mut self,
        now: u64,
        dcache: &mut Cache,
        fabric: &mut Fabric,
        tags: &mut TagStore,
        mem: &FlatMem,
    ) -> Option<u64> {
        // Complete outstanding requests.
        let mut hit_at = u64::MAX;
        let mut i = 0;
        while i < self.outstanding.len() {
            let done = match self.outstanding[i].wait {
                Wait::At(t) if t > now => {
                    hit_at = hit_at.min(t);
                    false
                }
                Wait::At(_) => true,
                Wait::Mshr(id) => {
                    if dcache.mshr_ready(id, now) {
                        // Guarded by mshr_ready, so a retire failure means the
                        // id itself was corrupted; the transfer is complete
                        // either way (timing-only model), so degrade silently
                        // here and let the golden checker catch state damage.
                        let _ = dcache.mshr_retire(id);
                        true
                    } else {
                        false
                    }
                }
            };
            if !done {
                i += 1;
                continue;
            }
            if let Action::Fill { tid, reg, addr, .. } = self.outstanding[i].action {
                // The entry may have been flushed/evicted races are
                // impossible: fill_pending entries are not evictable.
                let idx = tags
                    .lookup(tid, reg)
                    .expect("fill completed for a vanished register");
                let e = tags.entry_mut(idx);
                debug_assert!(e.fill_pending);
                e.value = mem.read(addr, AccessSize::B8);
                e.fill_pending = false;
                // A decode waiting on this fill retries next cycle.
                hit_at = now + 1;
            }
            self.outstanding.swap_remove(i);
        }

        // Issue new requests. Blocking BSI: one request in flight, total.
        if !self.nonblocking && !self.outstanding.is_empty() {
            return self.wake(now, hit_at);
        }

        // Fills have priority over spills (§5.3); within fills, demand
        // before prefetch (the queue's order).
        while let Some(f) = self.fills.front().copied() {
            match dcache.access(now, f.addr, self.fill_kind(), fabric) {
                AccessResult::Hit { ready_at } => {
                    self.fills.pop_front();
                    self.push_outstanding(f, Wait::At(ready_at));
                    hit_at = hit_at.min(ready_at);
                }
                AccessResult::Miss { mshr } => {
                    self.fills.pop_front();
                    self.push_outstanding(f, Wait::Mshr(mshr));
                }
                AccessResult::NoMshr | AccessResult::NoPort => break,
            }
            if !self.nonblocking {
                return self.wake(now, hit_at);
            }
        }

        while let Some(s) = self.spills.front().copied() {
            match dcache.access(now, s.addr, self.spill_kind(), fabric) {
                AccessResult::Hit { ready_at } => {
                    self.spills.pop_front();
                    self.outstanding.push(Outstanding {
                        wait: Wait::At(ready_at),
                        action: Action::Bookkeeping,
                    });
                    hit_at = hit_at.min(ready_at);
                }
                AccessResult::Miss { mshr } => {
                    self.spills.pop_front();
                    self.outstanding.push(Outstanding {
                        wait: Wait::Mshr(mshr),
                        action: Action::Bookkeeping,
                    });
                }
                AccessResult::NoMshr | AccessResult::NoPort => break,
            }
            if !self.nonblocking {
                return self.wake(now, hit_at);
            }
        }
        self.wake(now, hit_at)
    }

    /// `now + 1` while requests wait to issue (MSHR waits count nothing:
    /// the dcache's `next_event` covers them), else `hit_at`: the earliest
    /// hit completion, or `now + 1` after a fill landed.
    fn wake(&self, now: u64, hit_at: u64) -> Option<u64> {
        if !self.fills.is_empty() || !self.spills.is_empty() {
            Some(now + 1)
        } else {
            (hit_at < u64::MAX).then_some(hit_at)
        }
    }

    fn push_outstanding(&mut self, f: FillReq, wait: Wait) {
        let action = if f.dummy {
            Action::Bookkeeping
        } else {
            Action::Fill {
                tid: f.tid,
                reg: f.reg,
                addr: f.addr,
                demand: !f.prefetch,
            }
        };
        self.outstanding.push(Outstanding { wait, action });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyKind;
    use crate::vrmu::AllocOutcome;
    use virec_mem::{CacheConfig, FabricConfig};

    fn setup() -> (Bsi, Cache, Fabric, TagStore, FlatMem) {
        let bsi = Bsi::new(true, true);
        let dcache = Cache::new(CacheConfig::nmp_dcache(), 0);
        let fabric = Fabric::new(FabricConfig::default());
        let tags = TagStore::new(8, PolicyKind::Lrc);
        let mem = FlatMem::new(0, 0x1000);
        (bsi, dcache, fabric, tags, mem)
    }

    fn drive(
        bsi: &mut Bsi,
        dcache: &mut Cache,
        fabric: &mut Fabric,
        tags: &mut TagStore,
        mem: &FlatMem,
        from: u64,
        cycles: u64,
    ) -> u64 {
        for now in from..from + cycles {
            fabric.tick(now);
            dcache.tick(now, fabric);
            bsi.tick(now, dcache, fabric, tags, mem);
            if !bsi.busy() {
                return now;
            }
        }
        panic!("BSI did not drain in {cycles} cycles");
    }

    #[test]
    fn fill_loads_value_from_memory() {
        let (mut bsi, mut dc, mut fab, mut tags, mut mem) = setup();
        mem.write_u64(0x100, 0xABCD);
        let AllocOutcome::Free { idx } = tags.allocate(0, virec_isa::reg::names::X5) else {
            panic!()
        };
        tags.entry_mut(idx).fill_pending = true;
        bsi.enqueue_fill(0, virec_isa::reg::names::X5, 0x100, false);
        assert!(bsi.busy());
        assert!(bsi.fills_pending());
        drive(&mut bsi, &mut dc, &mut fab, &mut tags, &mem, 0, 1000);
        let e = tags.entry(idx);
        assert!(!e.fill_pending);
        assert_eq!(e.value, 0xABCD);
    }

    #[test]
    fn dummy_fill_is_bookkeeping_only() {
        let (mut bsi, mut dc, mut fab, mut tags, mem) = setup();
        let AllocOutcome::Free { idx } = tags.allocate(0, virec_isa::reg::names::X5) else {
            panic!()
        };
        // Dummy fill: the entry is immediately usable (not fill_pending).
        tags.entry_mut(idx).value = 0;
        bsi.enqueue_fill(0, virec_isa::reg::names::X5, 0x100, true);
        assert!(
            !bsi.fills_pending() || bsi.busy(),
            "dummy fills do not gate the pipeline as fills"
        );
        drive(&mut bsi, &mut dc, &mut fab, &mut tags, &mem, 0, 1000);
        assert_eq!(tags.entry(idx).value, 0, "dummy fill must not load data");
    }

    #[test]
    fn spill_unpins_line() {
        let (mut bsi, mut dc, mut fab, mut tags, mem) = setup();
        // Fill pins; spill unpins.
        let AllocOutcome::Free { idx } = tags.allocate(0, virec_isa::reg::names::X1) else {
            panic!()
        };
        tags.entry_mut(idx).fill_pending = true;
        bsi.enqueue_fill(0, virec_isa::reg::names::X1, 0x200, false);
        let t = drive(&mut bsi, &mut dc, &mut fab, &mut tags, &mem, 0, 1000);
        assert_eq!(dc.pin_count(0x200), 1);
        bsi.enqueue_spill(0x200);
        drive(&mut bsi, &mut dc, &mut fab, &mut tags, &mem, t + 1, 1000);
        assert_eq!(dc.pin_count(0x200), 0);
    }

    #[test]
    fn blocking_bsi_serializes() {
        let (_, mut dc, mut fab, mut tags, mut mem) = setup();
        mem.write_u64(0x100, 1);
        mem.write_u64(0x400, 2); // different line → two dcache misses

        let count_cycles = |nonblocking: bool| -> u64 {
            let mut bsi = Bsi::new(nonblocking, true);
            let mut dc2 = Cache::new(*dc.config(), 0);
            let mut fab2 = Fabric::new(*fab.config());
            let mut tags2 = TagStore::new(8, PolicyKind::Lrc);
            for (i, r) in [virec_isa::reg::names::X1, virec_isa::reg::names::X2]
                .iter()
                .enumerate()
            {
                let AllocOutcome::Free { idx } = tags2.allocate(0, *r) else {
                    panic!()
                };
                tags2.entry_mut(idx).fill_pending = true;
                bsi.enqueue_fill(0, *r, if i == 0 { 0x100 } else { 0x400 }, false);
            }
            drive(&mut bsi, &mut dc2, &mut fab2, &mut tags2, &mem, 0, 10_000)
        };
        let nb = count_cycles(true);
        let bl = count_cycles(false);
        assert!(nb < bl, "non-blocking {nb} must beat blocking {bl}");
        let _ = (&mut dc, &mut fab, &mut tags);
    }

    #[test]
    fn fills_prioritized_over_spills() {
        let (mut bsi, mut dc, mut fab, mut tags, mem) = setup();
        // One spill queued first, then a fill; with one read and one write
        // port they can both issue in a cycle, but the fill must not wait
        // behind a wall of spills on the same (write) resources. Check
        // ordering directly: enqueue many spills then one fill; the fill's
        // entry must complete within the dcache miss latency rather than
        // after all spills.
        for i in 0..16 {
            bsi.enqueue_spill(0x800 + i * 64);
        }
        let AllocOutcome::Free { idx } = tags.allocate(0, virec_isa::reg::names::X3) else {
            panic!()
        };
        tags.entry_mut(idx).fill_pending = true;
        bsi.enqueue_fill(0, virec_isa::reg::names::X3, 0x100, false);
        for now in 0..200 {
            fab.tick(now);
            dc.tick(now, &mut fab);
            bsi.tick(now, &mut dc, &mut fab, &mut tags, &mem);
            if !tags.entry(idx).fill_pending {
                return; // fill completed while spills still queued — good
            }
        }
        panic!("fill starved behind spills");
    }
}
