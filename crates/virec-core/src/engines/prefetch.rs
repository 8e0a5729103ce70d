//! Double-buffer register-file prefetching (§6.1's alternative approach,
//! after LTRF-style designs).
//!
//! Two context banks are used as a double buffer: while one thread executes
//! out of its bank, the other bank saves the previous thread's registers and
//! prefetches the next thread's. Two strategies are modelled:
//!
//! * **full** — prefetch the thread's complete (used) register context;
//! * **exact** — prefetch exactly the register set the thread will use in
//!   its next scheduling quantum, assuming an oracle prediction (recorded
//!   from a previous run). Registers the oracle missed are demand-filled, so
//!   the engine stays architecturally correct even when the recorded
//!   schedule diverges.
//!
//! Either way, all used registers are stored and re-loaded on every quantum —
//! the structural disadvantage versus ViReC's caching that the paper's
//! Figure 9 quantifies.

use super::Xfer;
use crate::engine::{AcquireOutcome, ContextEngine, EngineEnv, OracleSchedule, RegFault};
use crate::regions::RegRegion;
use virec_isa::{AccessSize, DataMemory, FlatMem, Instr, Reg};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BankState {
    Empty,
    Filling,
    Ready,
    Saving,
}

#[derive(Clone)]
struct Bank {
    owner: Option<u8>,
    state: BankState,
    /// Registers present in the bank (bit per architectural register).
    present: u32,
    xfer: Xfer,
}

impl Bank {
    fn new() -> Bank {
        Bank {
            owner: None,
            state: BankState::Empty,
            present: 0,
            xfer: Xfer::new(),
        }
    }
}

fn mask_of(regs: impl Iterator<Item = Reg>) -> u32 {
    regs.fold(0, |m, r| m | 1 << r.index())
}

const FULL_MASK: u32 = (1 << 31) - 1; // x0..x30

/// The double-buffer prefetching engine.
#[derive(Clone)]
pub struct PrefetchEngine {
    exact: bool,
    oracle: OracleSchedule,
    /// Architectural values (functionally always current).
    ctxs: Vec<[u64; 32]>,
    loaded: Vec<bool>,
    /// Union of registers each thread has ever used (fallback context set).
    used_ever: Vec<u32>,
    /// Scheduling quantum counter per thread (indexes the oracle).
    quantum: Vec<usize>,
    halted: Vec<bool>,
    banks: [Bank; 2],
    /// Most recently switched-in thread (round-robin prediction base).
    last_in: u8,
    /// Thread the CSL is currently waiting to schedule (takes priority over
    /// the round-robin prediction for the next free bank, so a mispredicted
    /// prefetch cannot starve the scheduler).
    wanted: Option<u8>,
    nthreads: usize,
}

impl PrefetchEngine {
    /// Creates a full-context prefetcher.
    pub fn full(nthreads: usize) -> PrefetchEngine {
        Self::build(nthreads, false, OracleSchedule::default())
    }

    /// Creates an exact-context prefetcher driven by a recorded oracle.
    pub fn exact(nthreads: usize, oracle: OracleSchedule) -> PrefetchEngine {
        Self::build(nthreads, true, oracle)
    }

    fn build(nthreads: usize, exact: bool, oracle: OracleSchedule) -> PrefetchEngine {
        PrefetchEngine {
            exact,
            oracle,
            ctxs: vec![[0; 32]; nthreads],
            loaded: vec![false; nthreads],
            used_ever: vec![0; nthreads],
            quantum: vec![0; nthreads],
            halted: vec![false; nthreads],
            banks: [Bank::new(), Bank::new()],
            last_in: 0,
            wanted: None,
            nthreads,
        }
    }

    fn bank_of(&self, tid: u8) -> Option<usize> {
        self.banks.iter().position(|b| b.owner == Some(tid))
    }

    /// The register set to prefetch for `tid`'s next quantum. The full
    /// variant moves the complete architectural context every quantum (the
    /// expensive behaviour §6.1 measures); the exact variant moves only the
    /// oracle-predicted set, falling back to the thread's used set when the
    /// recorded schedule runs out.
    fn prefetch_mask(&self, tid: u8) -> u32 {
        let t = tid as usize;
        if self.exact {
            if let Some(m) = self.oracle.mask(t, self.quantum[t]) {
                return m;
            }
            if self.used_ever[t] != 0 {
                return self.used_ever[t];
            }
        }
        FULL_MASK
    }

    fn start_fill(&mut self, bank: usize, tid: u8, env: &mut EngineEnv<'_>) {
        let t = tid as usize;
        if !self.loaded[t] {
            for r in Reg::allocatable() {
                self.ctxs[t][r.index()] = env.mem.read(env.region.reg_addr(t, r), AccessSize::B8);
            }
            self.loaded[t] = true;
        }
        let mask = self.prefetch_mask(tid);
        let b = &mut self.banks[bank];
        b.owner = Some(tid);
        b.state = BankState::Filling;
        b.present = mask;
        for r in Reg::allocatable() {
            if mask & (1 << r.index()) != 0 {
                b.xfer.enqueue_load(env.region.reg_addr(t, r));
            }
        }
    }

    fn start_save(&mut self, bank: usize, env: &mut EngineEnv<'_>) {
        if self.banks[bank].state != BankState::Ready {
            return; // already saving, or nothing to save
        }
        let tid = self.banks[bank].owner.expect("saving ownerless bank") as usize;
        let present = self.banks[bank].present;
        for r in Reg::allocatable() {
            if present & (1 << r.index()) != 0 {
                let addr = env.region.reg_addr(tid, r);
                env.mem
                    .write(addr, AccessSize::B8, self.ctxs[tid][r.index()]);
                self.banks[bank].xfer.enqueue_store(addr);
            }
        }
        self.banks[bank].state = BankState::Saving;
    }

    /// Next thread after `self.last_in` (round-robin) that has no bank and
    /// has not halted — the CSL's prediction for who runs after next.
    fn predict_next(&self) -> Option<u8> {
        for i in 1..=self.nthreads {
            let cand = ((self.last_in as usize + i) % self.nthreads) as u8;
            if !self.halted[cand as usize] && self.bank_of(cand).is_none() {
                return Some(cand);
            }
        }
        None
    }
}

impl ContextEngine for PrefetchEngine {
    fn acquire(
        &mut self,
        _now: u64,
        tid: u8,
        instr: &Instr,
        env: &mut EngineEnv<'_>,
    ) -> AcquireOutcome {
        let bank = self.bank_of(tid).expect("running thread must own a bank");
        debug_assert_eq!(self.banks[bank].state, BankState::Ready);

        let srcs = mask_of(instr.srcs().iter());
        let dsts = mask_of(instr.dsts().iter());
        self.used_ever[tid as usize] |= srcs | dsts;

        let missing_srcs = srcs & !self.banks[bank].present;
        if missing_srcs != 0 {
            // Oracle mispredicted: demand-fill the missing sources.
            env.stats.rf_misses += (missing_srcs.count_ones()) as u64;
            env.stats.rf_hits +=
                (srcs & self.banks[bank].present).count_ones() as u64 + dsts.count_ones() as u64;
            for r in Reg::allocatable() {
                if missing_srcs & (1 << r.index()) != 0 {
                    self.banks[bank]
                        .xfer
                        .enqueue_load(env.region.reg_addr(tid as usize, r));
                }
            }
            self.banks[bank].present |= missing_srcs;
            return AcquireOutcome::Pending;
        }
        if !self.banks[bank].xfer.idle() {
            // Demand fills from a previous attempt still in flight.
            return AcquireOutcome::Pending;
        }
        env.stats.rf_hits += (srcs | dsts).count_ones() as u64;
        // Destinations materialize in the bank (dummy allocation).
        self.banks[bank].present |= dsts;
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
            self.used_ever[tid as usize] |= 1 << reg.index();
            if let Some(b) = self.bank_of(tid) {
                self.banks[b].present |= 1 << reg.index();
            }
        }
        Ok(())
    }

    fn commit_instr(&mut self, _tid: u8, _instr: &Instr) {}

    fn abort_youngest(&mut self, _tid: u8, _instr: &Instr) {}

    fn flush_all_inflight(&mut self, _tid: u8) {}

    fn on_switch(&mut self, _now: u64, out_tid: u8, in_tid: u8, env: &mut EngineEnv<'_>) {
        self.quantum[out_tid as usize] += 1;
        self.last_in = in_tid;
        if let Some(b) = self.bank_of(out_tid) {
            // All used registers are stored back every quantum (§6.1).
            self.start_save(b, env);
        }
    }

    fn on_thread_halt(&mut self, tid: u8, env: &mut EngineEnv<'_>) {
        self.halted[tid as usize] = true;
        if let Some(b) = self.bank_of(tid) {
            self.start_save(b, env);
        }
    }

    fn thread_ready(&mut self, _now: u64, tid: u8, env: &mut EngineEnv<'_>) -> bool {
        match self.bank_of(tid) {
            Some(b) => {
                if self.banks[b].state == BankState::Ready && self.banks[b].xfer.idle() {
                    if self.wanted == Some(tid) {
                        self.wanted = None;
                    }
                    true
                } else {
                    false
                }
            }
            None => {
                self.wanted = Some(tid);
                if let Some(b) = self.banks.iter().position(|b| b.state == BankState::Empty) {
                    self.start_fill(b, tid, env);
                } else if let Some(b) = self
                    .banks
                    .iter()
                    .position(|b| b.state == BankState::Ready && b.owner != Some(self.last_in))
                {
                    // Both banks busy with other threads: reclaim the one
                    // that is not running.
                    self.start_save(b, env);
                }
                false
            }
        }
    }

    fn tick(&mut self, now: u64, env: &mut EngineEnv<'_>) -> Option<u64> {
        let mut wake = None;
        for i in 0..2 {
            let bank_wake = self.banks[i].xfer.tick(now, env.dcache, env.fabric);
            wake = wake.into_iter().chain(bank_wake).min();
            if self.banks[i].xfer.idle() {
                match self.banks[i].state {
                    BankState::Filling => self.banks[i].state = BankState::Ready,
                    BankState::Saving => {
                        self.banks[i].owner = None;
                        self.banks[i].present = 0;
                        self.banks[i].state = BankState::Empty;
                    }
                    _ => {}
                }
            }
        }
        // Keep the double buffer warm: an empty bank prefetches the thread
        // the scheduler is waiting on, or else the predicted next thread.
        if let Some(b) = self.banks.iter().position(|b| b.state == BankState::Empty) {
            let target = self
                .wanted
                .filter(|&t| self.bank_of(t).is_none() && !self.halted[t as usize])
                .or_else(|| self.predict_next());
            if let Some(tid) = target {
                self.start_fill(b, tid, env);
                return Some(now + 1);
            }
        }
        wake
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
    use virec_isa::instr::{AluOp, Operand2};
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
                region: RegRegion::new(0x8000, 8),
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
        fn drive_until_ready(&mut self, e: &mut PrefetchEngine, tid: u8, from: u64) -> u64 {
            let mut now = from;
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
                assert!(now < from + 100_000);
            }
        }
    }

    #[test]
    fn initial_fill_then_run() {
        let mut rig = Rig::new();
        rig.mem.write_u64(rig.region.reg_addr(0, X2), 5);
        let mut e = PrefetchEngine::full(4);
        let t = rig.drive_until_ready(&mut e, 0, 0);
        assert!(t > 10);
        assert_eq!(e.read(0, X2), Ok(5));
    }

    #[test]
    fn double_buffer_prefetches_next_thread() {
        let mut rig = Rig::new();
        let mut e = PrefetchEngine::full(4);
        let t = rig.drive_until_ready(&mut e, 0, 0);
        // Run ticks: the second bank should start prefetching thread 1.
        for now in t..t + 2000 {
            rig.fab.tick(now);
            rig.dc.tick(now, &mut rig.fab);
            let mut env = rig.env();
            e.tick(now, &mut env);
        }
        assert_eq!(e.bank_of(1), Some(1), "bank 1 must hold thread 1");
        assert_eq!(e.banks[1].state, BankState::Ready);
    }

    #[test]
    fn exact_prefetch_demand_fills_on_oracle_miss() {
        let mut rig = Rig::new();
        rig.mem.write_u64(rig.region.reg_addr(0, X4), 77);
        // Oracle claims thread 0's first quantum only uses x1.
        let oracle = OracleSchedule {
            sets: vec![vec![1 << 1]],
        };
        let mut e = PrefetchEngine::exact(4, oracle);
        let t = rig.drive_until_ready(&mut e, 0, 0);
        // Instruction reads x4 (not prefetched).
        let i = Instr::Alu {
            op: AluOp::Add,
            dst: X5,
            src: X4,
            rhs: Operand2::Imm(0),
        };
        let mut now = t;
        loop {
            let out = {
                let mut env = rig.env();
                e.acquire(now, 0, &i, &mut env)
            };
            if out == AcquireOutcome::Ready {
                break;
            }
            rig.fab.tick(now);
            rig.dc.tick(now, &mut rig.fab);
            let mut env = rig.env();
            e.tick(now, &mut env);
            now += 1;
            assert!(now < t + 10_000);
        }
        assert!(now > t, "demand fill must cost cycles");
        assert!(rig.stats.rf_misses >= 1);
        assert_eq!(e.read(0, X4), Ok(77));
    }

    #[test]
    fn save_writes_values_back() {
        let mut rig = Rig::new();
        let mut e = PrefetchEngine::full(2);
        rig.drive_until_ready(&mut e, 0, 0);
        assert_eq!(e.write(0, X9, 4242), Ok(()));
        {
            let mut env = rig.env();
            e.on_switch(100, 0, 1, &mut env);
        }
        assert_eq!(rig.mem.read_u64(rig.region.reg_addr(0, X9)), 4242);
    }

    #[test]
    fn halted_threads_not_prefetched() {
        let mut rig = Rig::new();
        let mut e = PrefetchEngine::full(2);
        rig.drive_until_ready(&mut e, 0, 0);
        {
            let mut env = rig.env();
            e.on_thread_halt(1, &mut env);
        }
        assert_eq!(e.predict_next(), None, "only halted candidates remain");
    }
}
