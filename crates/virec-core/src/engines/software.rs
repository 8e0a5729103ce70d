//! Software context switching (Figure 3(a)).
//!
//! Only the current thread's context is held in the (single) register file;
//! every context switch saves all 31 registers to memory and restores the
//! incoming thread's 31 registers with ordinary loads and stores. The
//! save/restore delay "can exceed memory latency" (§3) — this engine is the
//! low-area, low-performance end of the design space.

use super::Xfer;
use crate::engine::{AcquireOutcome, ContextEngine, EngineEnv, RegFault};
use crate::regions::RegRegion;
use virec_isa::{AccessSize, DataMemory, FlatMem, Instr, Reg};

/// Software save/restore context management.
#[derive(Clone)]
pub struct SoftwareEngine {
    /// Architectural values per thread (functionally always current; the
    /// xfer queue models when the memory traffic happens).
    ctxs: Vec<[u64; 32]>,
    /// Thread contexts that have been fetched from the offload image.
    loaded: Vec<bool>,
    xfer: Xfer,
    /// Thread whose restore sequence is in progress.
    restoring: Option<u8>,
}

impl SoftwareEngine {
    /// Creates the engine for `nthreads` threads.
    pub fn new(nthreads: usize) -> SoftwareEngine {
        SoftwareEngine {
            ctxs: vec![[0; 32]; nthreads],
            loaded: vec![false; nthreads],
            xfer: Xfer::new(),
            restoring: None,
        }
    }

    fn start_restore(&mut self, tid: u8, env: &mut EngineEnv<'_>) {
        let t = tid as usize;
        if !self.loaded[t] {
            for r in Reg::allocatable() {
                self.ctxs[t][r.index()] = env.mem.read(env.region.reg_addr(t, r), AccessSize::B8);
            }
            self.loaded[t] = true;
        }
        for r in Reg::allocatable() {
            self.xfer.enqueue_load(env.region.reg_addr(t, r));
        }
        self.restoring = Some(tid);
    }
}

impl ContextEngine for SoftwareEngine {
    fn acquire(
        &mut self,
        _now: u64,
        _tid: u8,
        instr: &Instr,
        env: &mut EngineEnv<'_>,
    ) -> AcquireOutcome {
        env.stats.rf_hits += instr.regs().len() as u64;
        AcquireOutcome::Ready
    }

    fn read(&self, tid: u8, reg: Reg) -> Result<u64, RegFault> {
        if reg.is_zero() {
            Ok(0)
        } else {
            Ok(self.ctxs[tid as usize][reg.index()])
        }
    }

    fn write(&mut self, tid: u8, reg: Reg, value: u64) -> Result<(), RegFault> {
        if !reg.is_zero() {
            self.ctxs[tid as usize][reg.index()] = value;
        }
        Ok(())
    }

    fn commit_instr(&mut self, _tid: u8, _instr: &Instr) {}

    fn abort_youngest(&mut self, _tid: u8, _instr: &Instr) {}

    fn flush_all_inflight(&mut self, _tid: u8) {}

    fn on_switch(&mut self, _now: u64, out_tid: u8, in_tid: u8, env: &mut EngineEnv<'_>) {
        // Save the outgoing context with ordinary stores...
        let t = out_tid as usize;
        if self.loaded[t] {
            for r in Reg::allocatable() {
                let addr = env.region.reg_addr(t, r);
                env.mem.write(addr, AccessSize::B8, self.ctxs[t][r.index()]);
                self.xfer.enqueue_store(addr);
            }
        }
        // ...then restore the incoming one with ordinary loads.
        self.start_restore(in_tid, env);
    }

    fn thread_ready(&mut self, _now: u64, tid: u8, env: &mut EngineEnv<'_>) -> bool {
        match self.restoring {
            Some(t) if t == tid => self.xfer.idle(),
            Some(_) => false,
            None => {
                if !self.loaded[tid as usize] {
                    self.start_restore(tid, env);
                    return false;
                }
                true
            }
        }
    }

    fn tick(&mut self, now: u64, env: &mut EngineEnv<'_>) -> Option<u64> {
        let was_busy = !self.xfer.idle();
        self.xfer.tick(now, env.dcache, env.fabric);
        if was_busy {
            env.stats.stall_ctx_software += 1;
        }
        if self.xfer.idle() {
            self.restoring = None;
            None
        } else {
            // Every busy cycle bumps `stall_ctx_software`, so none may be
            // skipped until the xfer drains, MSHR waits included.
            Some(now + 1)
        }
    }

    fn drain(&mut self, region: RegRegion, mem: &mut FlatMem) {
        for (t, ctx) in self.ctxs.iter().enumerate() {
            if !self.loaded[t] {
                continue;
            }
            for r in Reg::allocatable() {
                mem.write(region.reg_addr(t, r), AccessSize::B8, ctx[r.index()]);
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
    use crate::stats::CoreStats;
    use virec_isa::reg::names::*;
    use virec_mem::{Cache, CacheConfig, Fabric, FabricConfig};

    struct Rig {
        dc: Cache,
        fab: Fabric,
        mem: FlatMem,
        region: RegRegion,
        stats: CoreStats,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                dc: Cache::new(CacheConfig::nmp_dcache(), 0),
                fab: Fabric::new(FabricConfig::default()),
                mem: FlatMem::new(0, 0x10_000),
                region: RegRegion::new(0x8000, 4),
                stats: CoreStats::default(),
            }
        }
        fn env(&mut self) -> EngineEnv<'_> {
            EngineEnv {
                dcache: &mut self.dc,
                fabric: &mut self.fab,
                mem: &mut self.mem,
                region: self.region,
                stats: &mut self.stats,
            }
        }
        fn drive_until_ready(&mut self, e: &mut SoftwareEngine, tid: u8) -> u64 {
            let mut now = 0;
            loop {
                let ready = {
                    let mut env = self.env();
                    e.thread_ready(now, tid, &mut env)
                };
                if ready {
                    return now;
                }
                self.fab.tick(now);
                self.dc.tick(now, &mut self.fab);
                let mut env = self.env();
                e.tick(now, &mut env);
                now += 1;
                assert!(now < 100_000);
            }
        }
    }

    #[test]
    fn restore_takes_many_cycles() {
        let mut rig = Rig::new();
        rig.mem.write_u64(rig.region.reg_addr(0, X7), 99);
        let mut e = SoftwareEngine::new(4);
        let t = rig.drive_until_ready(&mut e, 0);
        // 31 loads through one read port: at least 31 cycles.
        assert!(t >= 31, "restore finished suspiciously fast ({t} cycles)");
        assert_eq!(e.read(0, X7), Ok(99));
    }

    #[test]
    fn switch_saves_and_restores() {
        let mut rig = Rig::new();
        let mut e = SoftwareEngine::new(2);
        rig.drive_until_ready(&mut e, 0);
        assert_eq!(e.write(0, X3, 1234), Ok(()));
        {
            let mut env = rig.env();
            e.on_switch(100, 0, 1, &mut env);
        }
        // Functional save already visible.
        assert_eq!(rig.mem.read_u64(rig.region.reg_addr(0, X3)), 1234);
        rig.drive_until_ready(&mut e, 1);
        assert!(rig.stats.stall_ctx_software > 0);
    }

    #[test]
    fn other_threads_not_ready_during_restore() {
        let mut rig = Rig::new();
        let mut e = SoftwareEngine::new(2);
        let mut env = rig.env();
        assert!(!e.thread_ready(0, 0, &mut env));
        assert!(!e.thread_ready(0, 1, &mut env), "restore of 0 blocks 1");
    }
}
