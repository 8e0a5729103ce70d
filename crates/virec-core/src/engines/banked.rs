//! The banked-register-file baseline (Figure 3(b)).
//!
//! One full 32-register bank per hardware thread, statically provisioned.
//! Register accesses never miss; the only memory traffic is the initial
//! context fetch when a thread is first scheduled (the offload mechanism of
//! §6 ships contexts through the crossbar into the reserved region, and the
//! core loads them into the bank).

use super::Xfer;
use crate::engine::{AcquireOutcome, ContextEngine, EngineEnv, EngineFault, RegFault};
use crate::regions::{RegRegion, BYTES_PER_THREAD};
use crate::stats::CoreStats;
use virec_isa::{AccessSize, DataMemory, FlatMem, Instr, Reg};

#[derive(Clone, Copy)]
enum LoadState {
    NotLoaded,
    Loading,
    Ready,
}

/// Statically banked context storage.
#[derive(Clone)]
pub struct BankedEngine {
    banks: Vec<[u64; 32]>,
    state: Vec<LoadState>,
    xfer: Xfer,
    /// Thread whose initial context is currently being loaded.
    loading_tid: Option<u8>,
}

impl BankedEngine {
    /// Creates banks for `nthreads` threads.
    pub fn new(nthreads: usize) -> BankedEngine {
        BankedEngine {
            banks: vec![[0; 32]; nthreads],
            state: (0..nthreads).map(|_| LoadState::NotLoaded).collect(),
            xfer: Xfer::new(),
            loading_tid: None,
        }
    }

    fn count_access(stats: &mut CoreStats, instr: &Instr) {
        // Banked RFs never miss; count lookups as hits so RF hit-rate
        // comparisons are meaningful.
        stats.rf_hits += instr.regs().len() as u64;
    }
}

impl ContextEngine for BankedEngine {
    fn acquire(
        &mut self,
        _now: u64,
        tid: u8,
        instr: &Instr,
        env: &mut EngineEnv<'_>,
    ) -> AcquireOutcome {
        debug_assert!(
            matches!(self.state[tid as usize], LoadState::Ready),
            "scheduling gate must load the bank first"
        );
        Self::count_access(env.stats, instr);
        AcquireOutcome::Ready
    }

    fn read(&self, tid: u8, reg: Reg) -> Result<u64, RegFault> {
        if reg.is_zero() {
            Ok(0)
        } else {
            Ok(self.banks[tid as usize][reg.index()])
        }
    }

    fn write(&mut self, tid: u8, reg: Reg, value: u64) -> Result<(), RegFault> {
        if !reg.is_zero() {
            self.banks[tid as usize][reg.index()] = value;
        }
        Ok(())
    }

    fn commit_instr(&mut self, _tid: u8, _instr: &Instr) {}

    fn abort_youngest(&mut self, _tid: u8, _instr: &Instr) {}

    fn flush_all_inflight(&mut self, _tid: u8) {}

    fn on_switch(&mut self, _now: u64, _out: u8, _in: u8, _env: &mut EngineEnv<'_>) {}

    fn thread_ready(&mut self, _now: u64, tid: u8, env: &mut EngineEnv<'_>) -> bool {
        let t = tid as usize;
        match self.state[t] {
            LoadState::Ready => true,
            LoadState::Loading => false,
            LoadState::NotLoaded => {
                // Only one initial context load at a time (shared port).
                if self.loading_tid.is_some() {
                    return false;
                }
                // Functional copy from the offloaded context image.
                for r in Reg::allocatable() {
                    self.banks[t][r.index()] =
                        env.mem.read(env.region.reg_addr(t, r), AccessSize::B8);
                }
                // Timing: fetch the thread's context lines.
                let base = env.region.reg_addr(t, virec_isa::reg::names::X0);
                for line in 0..BYTES_PER_THREAD / 64 {
                    self.xfer.enqueue_load(base + line * 64);
                }
                self.state[t] = LoadState::Loading;
                self.loading_tid = Some(tid);
                false
            }
        }
    }

    fn tick(&mut self, now: u64, env: &mut EngineEnv<'_>) -> Option<u64> {
        let wake = self.xfer.tick(now, env.dcache, env.fabric);
        if let Some(tid) = self.loading_tid {
            if self.xfer.idle() {
                self.state[tid as usize] = LoadState::Ready;
                self.loading_tid = None;
            }
        }
        wake
    }

    fn inject_fault(&mut self, fault: EngineFault) -> Option<String> {
        // Banked storage has no tag store or rollback queue; only register
        // cells can be hit.
        let EngineFault::RegValue { nth, bit } = fault else {
            return None;
        };
        let loaded: Vec<usize> = (0..self.banks.len())
            .filter(|&t| !matches!(self.state[t], LoadState::NotLoaded))
            .collect();
        if loaded.is_empty() {
            return None;
        }
        let cells = loaded.len() * virec_isa::reg::NUM_ALLOCATABLE;
        let cell = nth as usize % cells;
        let t = loaded[cell / virec_isa::reg::NUM_ALLOCATABLE];
        let r = cell % virec_isa::reg::NUM_ALLOCATABLE;
        self.banks[t][r] ^= 1 << (bit % 64);
        Some(format!("bank[t{t}] x{r} value bit {}", bit % 64))
    }

    fn occupancy(&self) -> (usize, usize) {
        let loaded = (0..self.banks.len())
            .filter(|&t| !matches!(self.state[t], LoadState::NotLoaded))
            .count();
        (
            loaded * virec_isa::reg::NUM_ALLOCATABLE,
            self.banks.len() * virec_isa::reg::NUM_ALLOCATABLE,
        )
    }

    fn drain(&mut self, region: RegRegion, mem: &mut FlatMem) {
        for (t, bank) in self.banks.iter().enumerate() {
            if matches!(self.state[t], LoadState::NotLoaded) {
                continue; // never ran; region still holds the initial image
            }
            for r in Reg::allocatable() {
                mem.write(region.reg_addr(t, r), AccessSize::B8, bank[r.index()]);
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
    use virec_isa::reg::names::*;
    use virec_mem::{Cache, CacheConfig, Fabric, FabricConfig};

    fn rig() -> (Cache, Fabric, FlatMem, RegRegion, CoreStats) {
        (
            Cache::new(CacheConfig::nmp_dcache(), 0),
            Fabric::new(FabricConfig::default()),
            FlatMem::new(0, 0x10_000),
            RegRegion::new(0x8000, 4),
            CoreStats::default(),
        )
    }

    #[test]
    fn initial_load_then_ready() {
        let (mut dc, mut fab, mut mem, region, mut stats) = rig();
        mem.write_u64(region.reg_addr(1, X5), 42);
        let mut e = BankedEngine::new(4);
        let mut now = 0;
        loop {
            let ready = {
                let mut env = EngineEnv {
                    dcache: &mut dc,
                    fabric: &mut fab,
                    mem: &mut mem,
                    region,
                    stats: &mut stats,
                };
                e.thread_ready(now, 1, &mut env)
            };
            if ready {
                break;
            }
            fab.tick(now);
            dc.tick(now, &mut fab);
            let mut env = EngineEnv {
                dcache: &mut dc,
                fabric: &mut fab,
                mem: &mut mem,
                region,
                stats: &mut stats,
            };
            e.tick(now, &mut env);
            now += 1;
            assert!(now < 10_000);
        }
        assert!(now > 5, "initial context fetch must take time");
        assert_eq!(e.read(1, X5), Ok(42));
    }

    #[test]
    fn one_load_at_a_time() {
        let (mut dc, mut fab, mut mem, region, mut stats) = rig();
        let mut e = BankedEngine::new(4);
        let mut env = EngineEnv {
            dcache: &mut dc,
            fabric: &mut fab,
            mem: &mut mem,
            region,
            stats: &mut stats,
        };
        assert!(!e.thread_ready(0, 0, &mut env));
        assert!(
            !e.thread_ready(0, 1, &mut env),
            "second thread must wait for the first load"
        );
        assert!(matches!(e.state[1], LoadState::NotLoaded));
    }

    #[test]
    fn reads_writes_isolated_per_thread() {
        let mut e = BankedEngine::new(2);
        assert_eq!(e.write(0, X3, 7), Ok(()));
        assert_eq!(e.write(1, X3, 9), Ok(()));
        assert_eq!(e.read(0, X3), Ok(7));
        assert_eq!(e.read(1, X3), Ok(9));
        assert_eq!(e.read(0, XZR), Ok(0));
        assert_eq!(e.write(0, XZR, 1), Ok(()));
        assert_eq!(e.read(0, XZR), Ok(0));
    }

    #[test]
    fn drain_skips_unloaded() {
        let (mut dc, mut fab, mut mem, region, mut stats) = rig();
        mem.write_u64(region.reg_addr(0, X1), 55);
        let mut e = BankedEngine::new(2);
        // Never loaded: drain must not clobber the initial image with zeros.
        e.drain(region, &mut mem);
        assert_eq!(mem.read_u64(region.reg_addr(0, X1)), 55);
        let _ = (&mut dc, &mut fab, &mut stats);
    }
}
