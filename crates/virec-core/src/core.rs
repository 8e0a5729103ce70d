//! The near-memory processor core: a single-issue, in-order, 5-stage
//! pipeline (Fetch → Decode → Execute → Mem → Commit) with coarse-grain
//! multithreading, the context-switching logic (CSL) of §5.2, and a
//! pluggable [`ContextEngine`].
//!
//! ## Timing model
//!
//! * Fetch is pipelined: icache hits deliver one instruction per cycle;
//!   misses stall. Branches use static prediction (backward taken, forward
//!   not-taken; unconditional branches always follow their target).
//! * Decode performs the register lookup through the context engine. ViReC
//!   misses stall the front end until the BSI fills return (Figure 4 (A)→(B)).
//! * Execute resolves branches (mispredicts squash the fetched slot and
//!   redirect) and computes ALU results / effective addresses. `mul` and
//!   `udiv` occupy the stage for multiple cycles.
//! * Mem issues loads/stores through the LSQ port of the dcache. A **load
//!   miss to program data** raises the context-switch request (Figure 4
//!   (C)→(E)); the CSL masks of §5.2 may instead turn it into a blocking
//!   wait. Stores retire into a finite store queue that drains in the
//!   background.
//! * Commit pops the rollback queue, counts instructions and unblocks the
//!   "committed since last switch" CSL mask.

use crate::config::{CoreConfig, EngineKind};
use crate::engine::{
    AcquireOutcome, ContextEngine, EngineEnv, EngineFault, OracleSchedule, QuantumRecord,
    QuantumTrace, RegFault,
};
use crate::engines::{BankedEngine, PrefetchEngine, SoftwareEngine, VirecEngine};
use crate::regions::RegRegion;
use crate::stats::CoreStats;
use crate::thread::{Thread, ThreadStatus};
use crate::trace::{TraceEvent, Tracer, TracerSlot};
use std::collections::VecDeque;
use virec_isa::{AccessSize, DataMemory, Flags, FlatMem, Instr, Program, Reg};
use virec_mem::{AccessKind, AccessResult, Cache, Fabric, MshrId, PortId};

/// A fetched instruction waiting for decode.
#[derive(Clone, Copy, Debug)]
struct Fetched {
    instr: Instr,
    pc: u32,
    predicted_next: u32,
    avail_at: u64,
}

/// The decode-stage latch.
#[derive(Clone, Copy, Debug)]
struct DecodeSlot {
    instr: Instr,
    pc: u32,
    predicted_next: u32,
    /// `acquire` has been called at least once (engine holds in-flight
    /// state for this instruction).
    started: bool,
    /// `acquire` returned `Ready`.
    ready: bool,
}

/// The execute-stage latch.
#[derive(Clone, Copy, Debug)]
struct ExecSlot {
    instr: Instr,
    pc: u32,
    done_at: u64,
    /// ALU-class result to write back on exit.
    result: Option<(Reg, u64)>,
    /// Effective address for memory instructions.
    addr: u64,
    /// Value to store, for stores.
    store_val: u64,
}

#[derive(Clone, Copy, Debug)]
enum MemPhase {
    /// Needs to issue its dcache access (or is a non-memory instruction).
    Start,
    /// Dcache hit in flight.
    Wait { at: u64 },
    /// Blocking on an MSHR (masked context switch or register-region miss).
    WaitMshr { mshr: MshrId },
    /// Completed; commits at `at`.
    Done { at: u64 },
}

/// The mem-stage latch.
#[derive(Clone, Copy, Debug)]
struct MemSlot {
    instr: Instr,
    pc: u32,
    phase: MemPhase,
    addr: u64,
    store_val: u64,
    /// Functionally loaded value (written back at completion).
    load_val: u64,
}

#[derive(Clone, Copy, Debug)]
enum SqState {
    Issue,
    Wait { at: u64 },
    WaitMshr { mshr: MshrId },
}

#[derive(Clone, Copy, Debug)]
struct SqEntry {
    addr: u64,
    state: SqState,
}

#[derive(Clone, Copy, Debug)]
enum SysPurpose {
    /// Demand fetch of the incoming thread's sysregs (blocks fetch).
    DemandIn,
    /// Ping-pong buffer prefetch for a predicted-next thread.
    Prefetch(u8),
    /// Write-back of a suspended thread's sysregs.
    Writeback,
}

#[derive(Clone, Copy, Debug)]
struct SysOp {
    addr: u64,
    is_load: bool,
    purpose: SysPurpose,
}

#[derive(Clone, Copy, Debug)]
enum SysWait {
    At(u64),
    Mshr(MshrId),
}

/// A near-memory processor core. A clone is a deep copy for architectural
/// checkpointing; it carries no tracer, so replayed cycles are not traced
/// twice.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    program: Program,
    region: RegRegion,
    code_base: u64,
    icache: Cache,
    dcache: Cache,
    engine: Box<dyn ContextEngine>,
    threads: Vec<Thread>,

    running: Option<u8>,
    /// At least one thread has been activated (suppresses the first
    /// `on_switch` callback, which has no suspended predecessor).
    started: bool,
    /// Thread chosen to switch in, waiting for the engine to be ready.
    pending_in: Option<u8>,
    /// Last thread that ran (round-robin pointer).
    last_tid: u8,
    committed_since_switch: bool,

    fetch_pc: u32,
    fetch_stopped: bool,
    fetch_wait_mshr: Option<MshrId>,
    fetched: Option<Fetched>,
    decode: Option<DecodeSlot>,
    exec: Option<ExecSlot>,
    mem_slot: Option<MemSlot>,
    sq: VecDeque<SqEntry>,

    /// Sysreg ping-pong buffer state (§5.2). Only used by engines that keep
    /// sysregs in the backing store (ViReC and the prefetchers).
    use_sysbuf: bool,
    sys_ready: Vec<bool>,
    sys_queue: VecDeque<SysOp>,
    sys_wait: Vec<(SysWait, SysPurpose)>,
    sys_demand_outstanding: bool,

    /// Abandoned icache MSHRs (squashed fetches), retired when they return.
    orphan_ifetches: Vec<MshrId>,

    /// Quantum tracer (the prefetch oracle and static-analysis
    /// cross-checks): closed quanta plus the in-flight quantum's start PC
    /// and use/demand/written masks. Only the running thread accumulates,
    /// so scalars suffice.
    qtracer: Option<QuantumTrace>,
    q_start_pc: u32,
    q_used: u32,
    q_demand: u32,
    q_written: u32,

    /// PC of each thread's most recently committed instruction (failure
    /// diagnostics — pinpoints where a thread was when a run went wrong).
    last_commit_pc: Vec<Option<u32>>,

    /// First structural hazard observed (a corrupted MSHR id whose retire
    /// failed, a register the engine could not serve, or a load or store
    /// address outside memory). A healthy machine
    /// never sets this; the runner polls it and converts the run into a
    /// detected failure instead of a panic.
    structural_fault: Option<String>,

    /// Earliest cycle at which a stage or the engine has work again, which
    /// each decision point of [`Core::tick`] lowers through
    /// [`Core::wake_at`]. Mutators called between ticks set it to 0, so the
    /// next [`Core::next_event`] answers the very next cycle.
    wake: u64,

    tracer: TracerSlot,
    stats: CoreStats,
}

/// Records the first structural hazard into `slot` (later ones are dropped:
/// the machine is already poisoned and the first cause is the useful one).
fn note_structural(slot: &mut Option<String>, e: impl std::fmt::Display) {
    if slot.is_none() {
        *slot = Some(e.to_string());
    }
}

impl Core {
    /// Builds a core. `ports.0`/`ports.1` are the fabric ports of the
    /// icache and dcache respectively; `region` is where this core's thread
    /// contexts were offloaded; `code_base` is the (timing-only) address of
    /// the program image.
    pub fn new(
        cfg: CoreConfig,
        program: Program,
        region: RegRegion,
        code_base: u64,
        ports: (PortId, PortId),
    ) -> Core {
        Self::with_oracle(
            cfg,
            program,
            region,
            code_base,
            ports,
            OracleSchedule::default(),
        )
    }

    /// Builds a core with an oracle schedule for exact-context prefetching.
    pub fn with_oracle(
        cfg: CoreConfig,
        program: Program,
        region: RegRegion,
        code_base: u64,
        ports: (PortId, PortId),
        oracle: OracleSchedule,
    ) -> Core {
        cfg.validate();
        assert_eq!(region.nthreads, cfg.nthreads, "region sized for nthreads");
        let engine: Box<dyn ContextEngine> = match cfg.engine {
            EngineKind::ViReC => Box::new(VirecEngine::new(&cfg)),
            EngineKind::Banked => Box::new(BankedEngine::new(cfg.nthreads)),
            EngineKind::Software => Box::new(SoftwareEngine::new(cfg.nthreads)),
            EngineKind::PrefetchFull => Box::new(PrefetchEngine::full(cfg.nthreads)),
            EngineKind::PrefetchExact => Box::new(PrefetchEngine::exact(cfg.nthreads, oracle)),
        };
        let use_sysbuf = matches!(
            cfg.engine,
            EngineKind::ViReC | EngineKind::PrefetchFull | EngineKind::PrefetchExact
        );
        Core {
            program,
            region,
            code_base,
            icache: Cache::new(cfg.icache, ports.0),
            dcache: Cache::new(cfg.dcache, ports.1),
            engine,
            threads: (0..cfg.nthreads).map(|_| Thread::new(0)).collect(),
            running: None,
            started: false,
            pending_in: Some(0),
            last_tid: 0,
            committed_since_switch: true,
            fetch_pc: 0,
            fetch_stopped: false,
            fetch_wait_mshr: None,
            fetched: None,
            decode: None,
            exec: None,
            mem_slot: None,
            sq: VecDeque::new(),
            use_sysbuf,
            sys_ready: vec![false; cfg.nthreads],
            sys_queue: VecDeque::new(),
            sys_wait: Vec::new(),
            sys_demand_outstanding: false,
            orphan_ifetches: Vec::new(),
            qtracer: None,
            q_start_pc: 0,
            q_used: 0,
            q_demand: 0,
            q_written: 0,
            last_commit_pc: vec![None; cfg.nthreads],
            structural_fault: None,
            wake: 0,
            tracer: TracerSlot::default(),
            stats: CoreStats::default(),
            cfg,
        }
    }

    /// Installs an event tracer (see [`crate::trace`]). Pass the callback
    /// from [`crate::trace::VecTracer::tracer`] to record into a vector.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = TracerSlot(Some(tracer));
    }

    #[inline]
    fn emit(&mut self, now: u64, ev: TraceEvent) {
        if let Some(t) = &mut self.tracer.0 {
            t(now, ev);
        }
    }

    /// Enables per-quantum tracing of use/demand masks and engine live-bit
    /// samples: the source of the exact-prefetch oracle
    /// ([`OracleSchedule::from_trace`]) and of the cross-checks against
    /// static liveness (virec-verify).
    pub fn enable_quantum_trace(&mut self) {
        self.qtracer = Some(QuantumTrace::default());
    }

    /// Takes the recorded quantum trace (call after the run).
    pub fn take_quantum_trace(&mut self) -> QuantumTrace {
        self.qtracer.take().unwrap_or_default()
    }

    /// This core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// This core's register-backing region.
    pub fn region(&self) -> RegRegion {
        self.region
    }

    /// Execution statistics (dcache/icache stats are folded in by
    /// [`Core::finalize_stats`]).
    #[inline]
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Scheduling state of thread `tid`.
    pub fn thread(&self, tid: usize) -> &Thread {
        &self.threads[tid]
    }

    /// Whether every launched thread has halted (threads that were never
    /// activated do not keep the core alive).
    #[inline]
    pub fn done(&self) -> bool {
        self.threads
            .iter()
            .all(|t| matches!(t.status, ThreadStatus::Halted | ThreadStatus::Inactive))
    }

    /// Deactivates thread `tid` so the scheduler skips it until
    /// [`Core::activate_thread`]. Only valid before the thread has run
    /// (status `Ready`, typically right after construction).
    pub fn deactivate_thread(&mut self, tid: usize) {
        assert_eq!(
            self.threads[tid].status,
            ThreadStatus::Ready,
            "can only deactivate a not-yet-run thread"
        );
        self.threads[tid].status = ThreadStatus::Inactive;
        self.wake = 0;
    }

    /// Launches a previously inactive thread at `pc`. The caller must have
    /// offloaded its context to the reserved region beforehand.
    pub fn activate_thread(&mut self, tid: usize, pc: u32) {
        assert_eq!(
            self.threads[tid].status,
            ThreadStatus::Inactive,
            "thread {tid} is not inactive"
        );
        self.threads[tid].pc = pc;
        self.threads[tid].status = ThreadStatus::Ready;
        self.wake = 0;
    }

    /// Copies cache statistics into the core stats snapshot.
    pub fn finalize_stats(&mut self) {
        self.stats.dcache = *self.dcache.stats();
        self.stats.icache = *self.icache.stats();
    }

    /// Writes all live register state to the backing region so final
    /// architectural state can be inspected from memory.
    pub fn drain(&mut self, mem: &mut FlatMem) {
        self.engine.drain(self.region, mem);
    }

    /// PC of each thread's most recently committed instruction (`None` for
    /// threads that never committed).
    pub fn last_commit_pcs(&self) -> &[Option<u32>] {
        &self.last_commit_pc
    }

    /// First structural hazard observed by the pipeline (a failed MSHR
    /// retire from a corrupted id, or a [`RegFault`] on an operand read or a
    /// result write), or `None` for a healthy machine. The runner polls this
    /// every cycle and aborts the run with a typed error.
    #[inline]
    pub fn structural_fault(&self) -> Option<&str> {
        self.structural_fault.as_deref()
    }

    /// Delivers a fault to the context engine (the fault-injection
    /// subsystem's entry point for engine-internal state). Returns a
    /// description of the corrupted site, or `None` if not applicable.
    pub fn inject_fault(&mut self, fault: EngineFault) -> Option<String> {
        self.wake = 0;
        self.engine.inject_fault(fault)
    }

    /// RAS: permanently retires the `nth` occupied engine way (see
    /// [`crate::engine::ContextEngine::retire_way`]); relocation spills go
    /// through the real BSI/fabric path.
    pub fn retire_value_way(
        &mut self,
        nth: u64,
        use_spare: bool,
        fabric: &mut Fabric,
        mem: &mut FlatMem,
    ) -> Option<crate::engine::WayRetire> {
        self.wake = 0;
        let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
        self.engine.retire_way(nth, use_spare, &mut env)
    }

    /// RAS: re-applies a way retirement by physical index after a
    /// checkpoint restore rewound engine state (idempotent).
    pub fn remask_way(
        &mut self,
        idx: usize,
        use_spare: bool,
        fabric: &mut Fabric,
        mem: &mut FlatMem,
    ) -> bool {
        self.wake = 0;
        let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
        self.engine.remask_way(idx, use_spare, &mut env)
    }

    /// Spare engine ways still available for RAS retirement.
    pub fn spare_ways_left(&self) -> usize {
        self.engine.spare_ways_left()
    }

    /// Multi-line snapshot of pipeline and engine state for livelock dumps:
    /// per-thread status and last-committed PC, latch occupancy, engine
    /// occupancy, and outstanding cache MSHRs.
    pub fn debug_dump(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (i, t) in self.threads.iter().enumerate() {
            let _ = writeln!(
                s,
                "  thread {i}: {:?} pc={} last_commit={}",
                t.status,
                t.pc,
                match self.last_commit_pc[i] {
                    Some(pc) => pc.to_string(),
                    None => "-".to_string(),
                }
            );
        }
        let occ = |b: bool| if b { "busy" } else { "-" };
        let _ = writeln!(
            s,
            "  pipeline: running={:?} fetched={} decode={} exec={} mem={} sq={}",
            self.running,
            occ(self.fetched.is_some()),
            occ(self.decode.is_some()),
            occ(self.exec.is_some()),
            occ(self.mem_slot.is_some()),
            self.sq.len()
        );
        let _ = writeln!(s, "  engine: {}", self.engine.debug_state());
        let _ = writeln!(
            s,
            "  mshrs: dcache {} outstanding, icache {} outstanding",
            self.dcache.outstanding_mshrs(),
            self.icache.outstanding_mshrs()
        );
        s
    }

    /// Architectural value of `(tid, reg)` after [`Core::drain`].
    pub fn arch_reg(&self, tid: usize, reg: Reg, mem: &FlatMem) -> u64 {
        if reg.is_zero() {
            0
        } else {
            mem.read(self.region.reg_addr(tid, reg), AccessSize::B8)
        }
    }

    fn code_addr(&self, pc: u32) -> u64 {
        self.code_base + pc as u64 * 4
    }

    fn env<'a>(
        engine_stats: &'a mut CoreStats,
        dcache: &'a mut Cache,
        fabric: &'a mut Fabric,
        mem: &'a mut FlatMem,
        region: RegRegion,
    ) -> EngineEnv<'a> {
        EngineEnv {
            dcache,
            fabric,
            mem,
            region,
            stats: engine_stats,
        }
    }

    /// Advances the core by one cycle. The caller must tick the fabric once
    /// per cycle (before or after all cores, consistently).
    pub fn tick(&mut self, now: u64, fabric: &mut Fabric, mem: &mut FlatMem) {
        self.stats.cycles += 1;
        self.wake = u64::MAX;

        self.dcache.tick(now, fabric);
        self.icache.tick(now, fabric);
        self.poll_blocked_threads(now);
        self.poll_orphans(now);

        // Stall accounting (one category per cycle, most severe first).
        if let Some(stalls) = self.stall_class() {
            *stalls += 1;
        }

        // Backend first so younger stages see freed slots this cycle. A
        // switch-out flushes every latch, so a latch holds an instruction
        // only while its thread runs: the latched stages run with its id.
        if let Some(tid) = self.running {
            self.stage_mem(now, tid, fabric, mem);
        }
        self.drain_sq(now, fabric);
        if let Some(tid) = self.running {
            self.stage_exec(now, tid, fabric, mem);
        }
        if let Some(tid) = self.running {
            self.stage_decode(now, tid, fabric, mem);
        }
        self.stage_fetch_to_decode(now);

        // Engine machinery (BSI / transfer queues) after the LSQ had its
        // chance at the dcache ports — the arbiter priority of §5.3.
        let engine_wake = {
            let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
            self.engine.tick(now, &mut env)
        };
        if let Some(t) = engine_wake {
            self.wake_at(t);
        }
        self.tick_sysops(now, fabric);
        self.stage_fetch(now, fabric);
        self.schedule(now, fabric, mem);
    }

    /// Notes that a stage has work again at cycle `t`.
    #[inline]
    fn wake_at(&mut self, t: u64) {
        self.wake = self.wake.min(t);
    }

    /// Earliest future cycle at which [`Core::tick`] could do anything
    /// beyond the fixed per-cycle bookkeeping that [`Core::credit_skipped`]
    /// reproduces. Call after `tick(now)`. `None` means the core is fully
    /// quiescent until new work arrives (e.g. a thread is activated).
    ///
    /// Each stage recorded its own wake during the tick: a retry answers
    /// `now + 1`, a timer its cycle. MSHR waits record nothing; the caches
    /// answer for their fills here, because the fabric decides completion
    /// times after the cores tick (a filled MSHR keeps reporting `now + 1`
    /// until its waiter retires it).
    pub fn next_event(&self, now: u64, fabric: &Fabric) -> Option<u64> {
        if self.wake <= now + 1 {
            return Some(now + 1);
        }
        let mut wake = self.wake;
        if let Some(t) = self.dcache.next_event(now, fabric) {
            wake = wake.min(t);
        }
        if let Some(t) = self.icache.next_event(now, fabric) {
            wake = wake.min(t);
        }
        (wake < u64::MAX).then(|| wake.max(now + 1))
    }

    /// Credits a span of skipped (provably no-op) cycles to the statistics
    /// exactly as the dense loop would have: the cycle counter advances and
    /// the per-cycle stall classification — evaluated on the frozen state,
    /// as [`Core::tick`] evaluates it — accrues the whole span. Digests and
    /// stats stay byte-identical either way.
    pub fn credit_skipped(&mut self, span: u64) {
        self.stats.cycles += span;
        if let Some(stalls) = self.stall_class() {
            *stalls += span;
        }
        if self.store_blocked_on_sq() {
            self.stats.stall_sq_full += span;
        }
    }

    /// Whether the mem stage holds a store that the full store queue
    /// refuses. Such a store records no wake: it can retry only once the
    /// queue's head retires, and the head's own timer (or, for a head on
    /// an MSHR, the dcache's fill) already wakes the core for that cycle,
    /// where [`Core::drain_sq`] wakes the store for the next.
    fn store_blocked_on_sq(&self) -> bool {
        matches!(
            self.mem_slot,
            Some(MemSlot {
                instr: Instr::Str { .. },
                phase: MemPhase::Start,
                ..
            })
        ) && self.sq.len() >= self.cfg.sq_entries
    }

    /// The stall counter the current state charges a cycle to, most severe
    /// first (idle, memory, register fill, fetch), or `None` for a cycle
    /// that is not stalled.
    fn stall_class(&mut self) -> Option<&mut u64> {
        let stats = &mut self.stats;
        if self.running.is_none() {
            Some(&mut stats.stall_idle)
        } else if matches!(
            self.mem_slot,
            Some(MemSlot {
                phase: MemPhase::WaitMshr { .. },
                ..
            })
        ) {
            Some(&mut stats.stall_mem)
        } else if matches!(
            self.decode,
            Some(DecodeSlot {
                started: true,
                ready: false,
                ..
            })
        ) {
            Some(&mut stats.stall_reg_fill)
        } else if self.fetched.is_none()
            && (self.fetch_wait_mshr.is_some() || self.sys_demand_outstanding)
        {
            Some(&mut stats.stall_fetch)
        } else {
            None
        }
    }

    // ---- scheduling ----------------------------------------------------

    /// Wakes the threads whose load miss has filled. Before the dcache's
    /// first ready MSHR (exact, as debug builds check) no thread can wake,
    /// so the walk is skipped.
    fn poll_blocked_threads(&mut self, now: u64) {
        if self.dcache.first_ready() > now {
            return;
        }
        for tid in 0..self.threads.len() {
            if let ThreadStatus::Blocked(mshr) = self.threads[tid].status {
                if self.dcache.mshr_ready(mshr, now) {
                    if let Err(e) = self.dcache.mshr_retire(mshr) {
                        note_structural(&mut self.structural_fault, e);
                    }
                    self.threads[tid].status = ThreadStatus::Ready;
                    self.emit(now, TraceEvent::Wakeup { tid: tid as u8 });
                }
            }
        }
    }

    fn poll_orphans(&mut self, now: u64) {
        let icache = &mut self.icache;
        let structural = &mut self.structural_fault;
        self.orphan_ifetches.retain(|&m| {
            if icache.mshr_ready(m, now) {
                if let Err(e) = icache.mshr_retire(m) {
                    note_structural(structural, e);
                }
                false
            } else {
                true
            }
        });
    }

    /// Picks and activates the next thread when the pipeline is idle.
    fn schedule(&mut self, now: u64, fabric: &mut Fabric, mem: &mut FlatMem) {
        if self.running.is_some() {
            return;
        }
        if self.pending_in.is_none() {
            // Round-robin scan from the last running thread.
            let n = self.cfg.nthreads;
            for i in 1..=n {
                let cand = ((self.last_tid as usize + i) % n) as u8;
                if self.threads[cand as usize].runnable() {
                    self.pending_in = Some(cand);
                    break;
                }
            }
        }
        let Some(tid) = self.pending_in else { return };
        if !self.threads[tid as usize].runnable() {
            // Chosen thread got blocked/halted in the meantime; rescan.
            self.pending_in = None;
            if self.threads.iter().any(Thread::runnable) {
                self.wake_at(now + 1);
            }
            return;
        }
        let ready = {
            let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
            self.engine.thread_ready(now, tid, &mut env)
        };
        // A held thread retries, and a switched-in one fetches, next cycle.
        self.wake_at(now + 1);
        if !ready {
            return;
        }
        // Switch in.
        self.pending_in = None;
        let out = self.last_tid;
        self.running = Some(tid);
        self.last_tid = tid;
        self.fetch_pc = self.threads[tid as usize].pc;
        self.fetch_stopped = false;
        self.committed_since_switch = false;
        if self.started {
            let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
            self.engine.on_switch(now, out, tid, &mut env);
        }
        self.started = true;
        if self.qtracer.is_some() {
            self.q_start_pc = self.fetch_pc;
            self.q_used = 0;
            self.q_demand = 0;
            self.q_written = 0;
        }
        self.emit(
            now,
            TraceEvent::SwitchIn {
                tid,
                pc: self.fetch_pc,
            },
        );
        if self.use_sysbuf {
            if !self.sys_ready[tid as usize] {
                self.sys_queue.push_back(SysOp {
                    addr: self.region.sysreg_addr(tid as usize),
                    is_load: true,
                    purpose: SysPurpose::DemandIn,
                });
                self.sys_demand_outstanding = true;
            }
            // Warm the ping-pong buffer for the predicted next thread.
            if let Some(next) = self.predict_next_thread(tid) {
                if !self.sys_ready[next as usize] {
                    self.sys_queue.push_back(SysOp {
                        addr: self.region.sysreg_addr(next as usize),
                        is_load: true,
                        purpose: SysPurpose::Prefetch(next),
                    });
                }
            }
        }
    }

    fn predict_next_thread(&self, after: u8) -> Option<u8> {
        let n = self.cfg.nthreads;
        for i in 1..n {
            let cand = ((after as usize + i) % n) as u8;
            if self.threads[cand as usize].status != ThreadStatus::Halted {
                return Some(cand);
            }
        }
        None
    }

    /// Flushes the pipeline and suspends the running thread `tid` with
    /// `status`: `Blocked` on the MSHR of the triggering load miss, or
    /// `Halted`. `resume_pc` is where the thread will replay from.
    fn context_switch_out(
        &mut self,
        now: u64,
        tid: u8,
        resume_pc: u32,
        status: ThreadStatus,
        fabric: &mut Fabric,
        mem: &mut FlatMem,
    ) {
        debug_assert_eq!(self.running, Some(tid));
        self.running = None;
        let halted = status == ThreadStatus::Halted;
        let t = &mut self.threads[tid as usize];
        t.pc = resume_pc;
        t.status = status;

        // Flush the pipeline; the engine compacts its rollback queue and
        // clears the C bits of in-flight registers (§5.1).
        self.fetched = None;
        self.decode = None;
        self.exec = None;
        self.mem_slot = None;
        if let Some(m) = self.fetch_wait_mshr.take() {
            self.orphan_ifetches.push(m);
        }
        self.engine.flush_all_inflight(tid);
        // Close the quantum-trace record, sampling engine live bits after
        // the §5.1 compaction but before halt reclamation.
        if let Some(tracer) = self.qtracer.as_mut() {
            let live = self.engine.live_bits(tid);
            let (resident, committed) = live.unwrap_or((0, 0));
            tracer.quanta.push(QuantumRecord {
                tid,
                start_pc: self.q_start_pc,
                resume_pc,
                used: self.q_used,
                demand: self.q_demand,
                resident,
                committed,
                has_live_bits: live.is_some(),
                halted,
            });
        }
        if halted {
            let mut env = Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
            self.engine.on_thread_halt(tid, &mut env);
        }

        if self.use_sysbuf {
            self.sys_ready[tid as usize] = false;
            self.sys_queue.push_back(SysOp {
                addr: self.region.sysreg_addr(tid as usize),
                is_load: false,
                purpose: SysPurpose::Writeback,
            });
        }

        if !halted {
            self.stats.context_switches += 1;
        }
        self.emit(
            now,
            TraceEvent::SwitchOut {
                tid,
                resume_pc,
                blocked: matches!(status, ThreadStatus::Blocked(_)),
            },
        );
    }

    // ---- pipeline stages -------------------------------------------------

    fn stage_mem(&mut self, now: u64, tid: u8, fabric: &mut Fabric, mem: &mut FlatMem) {
        let Some(mut slot) = self.mem_slot.take() else {
            return;
        };

        match slot.phase {
            MemPhase::Start => {
                // The issue attempt failed last cycle (port/MSHR/full
                // store queue); retry.
                self.mem_slot = Some(slot);
                self.mem_issue(now, tid, fabric, mem);
                return;
            }
            MemPhase::Wait { at } => {
                if at <= now {
                    if let Instr::Ldr { dst, .. } = slot.instr {
                        self.write_reg(tid, dst, slot.load_val);
                    }
                    slot.phase = MemPhase::Done { at: now };
                } else {
                    self.wake_at(at);
                }
                self.mem_slot = Some(slot);
            }
            MemPhase::WaitMshr { mshr } => {
                if self.dcache.mshr_ready(mshr, now) {
                    if let Err(e) = self.dcache.mshr_retire(mshr) {
                        note_structural(&mut self.structural_fault, e);
                    }
                    if let Instr::Ldr { dst, size, .. } = slot.instr {
                        slot.load_val = mem.read(slot.addr, size);
                        self.write_reg(tid, dst, slot.load_val);
                    }
                    slot.phase = MemPhase::Done { at: now };
                }
                self.mem_slot = Some(slot);
            }
            MemPhase::Done { .. } => {
                self.mem_slot = Some(slot);
            }
        }
        self.try_commit(now, tid, fabric, mem);
    }

    /// Processes a mem-stage slot in [`MemPhase::Start`]: issues the dcache
    /// access for loads/stores (the CSL switch decision happens here) or
    /// completes non-memory instructions in a single cycle.
    fn mem_issue(&mut self, now: u64, tid: u8, fabric: &mut Fabric, mem: &mut FlatMem) {
        if self.store_blocked_on_sq() {
            // No wake: `drain_sq` wakes the store when the head retires.
            self.stats.stall_sq_full += 1;
            return;
        }
        let Some(mut slot) = self.mem_slot.take() else {
            return;
        };
        debug_assert!(matches!(slot.phase, MemPhase::Start));

        match slot.instr {
            Instr::Ldr { size, .. } => {
                if !mem.contains(slot.addr, size.bytes()) {
                    return self.wild_access(slot, size, mem);
                }
                match self
                    .dcache
                    .access(now, slot.addr, AccessKind::DataLoad, fabric)
                {
                    AccessResult::Hit { ready_at } => {
                        slot.load_val = mem.read(slot.addr, size);
                        slot.phase = MemPhase::Wait { at: ready_at };
                        self.mem_slot = Some(slot);
                        self.wake_at(ready_at);
                    }
                    AccessResult::Miss { mshr } => {
                        if self.region.contains(slot.addr) {
                            // Register-region miss: never a context switch
                            // (§5.3) — wait for the fill.
                            slot.phase = MemPhase::WaitMshr { mshr };
                            self.mem_slot = Some(slot);
                        } else if self.can_switch(tid) {
                            let blocked = ThreadStatus::Blocked(mshr);
                            self.context_switch_out(now, tid, slot.pc, blocked, fabric, mem);
                            return;
                        } else {
                            self.stats.switches_masked += 1;
                            self.emit(now, TraceEvent::SwitchMasked { tid });
                            slot.phase = MemPhase::WaitMshr { mshr };
                            self.mem_slot = Some(slot);
                        }
                    }
                    AccessResult::NoMshr | AccessResult::NoPort => {
                        self.mem_slot = Some(slot); // retry next cycle
                        self.wake_at(now + 1);
                    }
                }
            }
            Instr::Str { size, .. } => {
                if !mem.contains(slot.addr, size.bytes()) {
                    return self.wild_access(slot, size, mem);
                }
                mem.write(slot.addr, size, slot.store_val);
                self.sq.push_back(SqEntry {
                    addr: slot.addr,
                    state: SqState::Issue,
                });
                if self.sq.len() == 1 {
                    // A new head issues from the next cycle on.
                    self.wake_at(now + 1);
                }
                slot.phase = MemPhase::Done { at: now };
                self.mem_slot = Some(slot);
            }
            _ => {
                slot.phase = MemPhase::Done { at: now };
                self.mem_slot = Some(slot);
            }
        }
        self.try_commit(now, tid, fabric, mem);
    }

    /// Latches a load or store whose address lies outside memory as the
    /// structural hazard, before the dcache or memory sees it: only a
    /// corrupted operand forms such an address, and the run ends after
    /// this tick.
    #[cold]
    fn wild_access(&mut self, slot: MemSlot, size: AccessSize, mem: &FlatMem) {
        let what = if slot.instr.is_store() {
            "store"
        } else {
            "load"
        };
        note_structural(
            &mut self.structural_fault,
            format_args!(
                "{what} address {:#x} ({} bytes) outside memory {:#x}..{:#x}",
                slot.addr,
                size.bytes(),
                mem.base(),
                mem.end()
            ),
        );
        self.mem_slot = Some(slot);
    }

    fn try_commit(&mut self, now: u64, tid: u8, fabric: &mut Fabric, mem: &mut FlatMem) {
        let Some(slot) = self.mem_slot else { return };
        let MemPhase::Done { at } = slot.phase else {
            return;
        };
        if at > now {
            return;
        }
        self.mem_slot = None;
        self.engine.commit_instr(tid, &slot.instr);
        self.stats.instructions += 1;
        self.committed_since_switch = true;
        self.last_commit_pc[tid as usize] = Some(slot.pc);
        self.emit(
            now,
            TraceEvent::Commit {
                tid,
                pc: slot.pc,
                instr: slot.instr,
            },
        );
        if matches!(slot.instr, Instr::Halt) {
            self.context_switch_out(now, tid, slot.pc, ThreadStatus::Halted, fabric, mem);
        }
    }

    /// The CSL masking conditions of §5.2 for switching out `tid`.
    fn can_switch(&self, tid: u8) -> bool {
        // (1) At least one instruction committed since the last switch.
        if !self.committed_since_switch {
            return false;
        }
        // (2) Another runnable thread exists.
        let any_other = self
            .threads
            .iter()
            .enumerate()
            .any(|(i, t)| i != tid as usize && t.runnable());
        if !any_other {
            return false;
        }
        // (3) No outstanding BSI register transfer.
        if self.engine.bsi_busy() {
            return false;
        }
        // (4) The oldest in-flight instruction is the memory operation
        // itself (always true for this in-order pipeline when known).
        if self.engine.oldest_inflight_is_mem() == Some(false) {
            return false;
        }
        true
    }

    fn drain_sq(&mut self, now: u64, fabric: &mut Fabric) {
        let Some(head) = self.sq.front_mut() else {
            return;
        };
        let retired = match head.state {
            SqState::Issue => {
                match self
                    .dcache
                    .access(now, head.addr, AccessKind::DataStore, fabric)
                {
                    AccessResult::Hit { ready_at } => {
                        head.state = SqState::Wait { at: ready_at };
                        self.wake_at(ready_at);
                    }
                    AccessResult::Miss { mshr } => head.state = SqState::WaitMshr { mshr },
                    AccessResult::NoMshr | AccessResult::NoPort => self.wake_at(now + 1),
                }
                false
            }
            SqState::Wait { at } if at > now => {
                self.wake_at(at);
                false
            }
            SqState::Wait { .. } => true,
            SqState::WaitMshr { mshr } => {
                let ready = self.dcache.mshr_ready(mshr, now);
                if ready {
                    if let Err(e) = self.dcache.mshr_retire(mshr) {
                        note_structural(&mut self.structural_fault, e);
                    }
                }
                ready
            }
        };
        if retired {
            // A store the full queue refused retries, and the next head
            // issues, from the next cycle on. The refusal must be read
            // before the pop, which is what ends it.
            let unblocks = self.store_blocked_on_sq();
            self.sq.pop_front();
            if unblocks || !self.sq.is_empty() {
                self.wake_at(now + 1);
            }
        }
    }

    fn stage_exec(&mut self, now: u64, tid: u8, fabric: &mut Fabric, mem: &mut FlatMem) {
        let Some(slot) = self.exec else { return };
        if slot.done_at > now {
            self.wake_at(slot.done_at);
            return;
        }
        if self.mem_slot.is_some() {
            return;
        }
        // Writeback of ALU-class results happens as the instruction leaves
        // execute (full forwarding to the next instruction's execute entry).
        if let Some((dst, val)) = slot.result {
            self.write_reg(tid, dst, val);
        }
        self.exec = None;
        self.mem_slot = Some(MemSlot {
            instr: slot.instr,
            pc: slot.pc,
            phase: MemPhase::Start,
            addr: slot.addr,
            store_val: slot.store_val,
            load_val: 0,
        });
        // Issue immediately (the LSQ access happens in the cycle the
        // instruction enters the mem stage).
        self.mem_issue(now, tid, fabric, mem);
    }

    /// Whether `instr` must wait for an in-flight load's destination.
    fn load_hazard(&self, instr: &Instr) -> bool {
        let Some(MemSlot {
            instr: Instr::Ldr { dst, .. },
            phase,
            ..
        }) = &self.mem_slot
        else {
            return false;
        };
        if matches!(phase, MemPhase::Done { .. }) {
            return false; // value already written back
        }
        instr.regs().contains(*dst)
    }

    fn stage_decode(&mut self, now: u64, tid: u8, fabric: &mut Fabric, mem: &mut FlatMem) {
        let Some(mut slot) = self.decode else { return };

        if !slot.ready {
            let outcome = {
                let mut env =
                    Self::env(&mut self.stats, &mut self.dcache, fabric, mem, self.region);
                self.engine.acquire(now, tid, &slot.instr, &mut env)
            };
            slot.started = true;
            slot.ready = outcome == AcquireOutcome::Ready;
            if outcome == AcquireOutcome::Pending {
                self.wake_at(now + 1);
            } else if slot.ready && self.qtracer.is_some() {
                // Acquired instructions are on the true execution path
                // (branches resolve at decode-exit), so the
                // read-before-written accumulation below is exactly the
                // quantum's demand set.
                for r in slot.instr.regs().iter() {
                    self.q_used |= 1 << r.index();
                }
                let uses = virec_isa::dataflow::use_mask(&slot.instr);
                let defs = virec_isa::dataflow::def_mask(&slot.instr);
                self.q_demand |= uses & !self.q_written;
                self.q_written |= defs;
            }
            self.decode = Some(slot);
        }
        let Some(slot) = self.decode else { return };
        if !slot.ready || self.exec.is_some() || self.load_hazard(&slot.instr) {
            return;
        }
        // Issue to execute: read operands, compute, resolve branches.
        self.decode = None;
        self.issue_to_exec(now, tid, slot);
    }

    fn issue_to_exec(&mut self, now: u64, tid: u8, slot: DecodeSlot) {
        use virec_isa::instr::Operand2;
        use virec_isa::MemOffset;

        // An unreadable operand reads as 0 and latches a structural hazard,
        // which ends the run after this tick, before the result is used.
        let engine = &*self.engine;
        let mut unreadable = None;
        let mut read = |r: Reg| {
            engine.read(tid, r).unwrap_or_else(|f| {
                unreadable.get_or_insert(f);
                0
            })
        };
        let flags = self.threads[tid as usize].flags;
        let mut result: Option<(Reg, u64)> = None;
        let mut addr = 0u64;
        let mut store_val = 0u64;
        let mut latency = 1u32;
        let mut actual_next = slot.pc + 1;

        match slot.instr {
            Instr::Alu { op, dst, src, rhs } => {
                let b = match rhs {
                    Operand2::Reg(r) => read(r),
                    Operand2::Imm(v) => v as u64,
                };
                result = Some((dst, op.apply(read(src), b)));
                latency = op.latency();
            }
            Instr::Madd { dst, a, b, acc } => {
                let v = read(a).wrapping_mul(read(b)).wrapping_add(read(acc));
                result = Some((dst, v));
                latency = 3;
            }
            Instr::MovImm { dst, imm } => {
                result = Some((dst, imm as u64));
            }
            Instr::Cmp { src, rhs } => {
                let b = match rhs {
                    Operand2::Reg(r) => read(r),
                    Operand2::Imm(v) => v as u64,
                };
                self.threads[tid as usize].flags = Flags::from_cmp(read(src), b);
            }
            Instr::Csel { dst, a, b, cond } => {
                let v = if cond.eval(flags) { read(a) } else { read(b) };
                result = Some((dst, v));
            }
            Instr::Ldr { base, offset, .. } | Instr::Str { base, offset, .. } => {
                let b = read(base);
                addr = match offset {
                    MemOffset::Imm(i) => b.wrapping_add(i as u64),
                    MemOffset::RegShifted { index, shift } => {
                        b.wrapping_add(read(index).wrapping_shl(shift as u32))
                    }
                };
                if let Instr::Str { src, .. } = slot.instr {
                    store_val = read(src);
                }
            }
            Instr::B { target } => actual_next = target,
            Instr::Bcc { cond, target } => {
                if cond.eval(flags) {
                    actual_next = target;
                }
            }
            Instr::Cbz { src, target } => {
                if read(src) == 0 {
                    actual_next = target;
                }
            }
            Instr::Cbnz { src, target } => {
                if read(src) != 0 {
                    actual_next = target;
                }
            }
            Instr::Nop | Instr::Halt => {}
        }

        if let Some(f) = unreadable {
            self.note_reg_fault("operand read", f);
        }
        if slot.instr.is_branch() && actual_next != slot.predicted_next {
            // Mispredict: squash the fetched slot and redirect.
            self.stats.branch_mispredicts += 1;
            self.fetched = None;
            if let Some(m) = self.fetch_wait_mshr.take() {
                self.orphan_ifetches.push(m);
            }
            self.fetch_pc = actual_next;
            self.fetch_stopped = false;
        }

        let done_at = now + latency as u64;
        self.exec = Some(ExecSlot {
            instr: slot.instr,
            pc: slot.pc,
            done_at,
            result,
            addr,
            store_val,
        });
        self.wake_at(done_at);
    }

    /// Writes a result register through the engine.
    fn write_reg(&mut self, tid: u8, reg: Reg, value: u64) {
        if let Err(f) = self.engine.write(tid, reg, value) {
            self.note_reg_fault("result write", f);
        }
    }

    /// Latches a register the engine could not serve as the core's
    /// structural hazard.
    fn note_reg_fault(&mut self, access: &str, f: RegFault) {
        note_structural(&mut self.structural_fault, format!("{access} failed: {f}"));
    }

    fn stage_fetch_to_decode(&mut self, now: u64) {
        if self.decode.is_some() {
            return;
        }
        let Some(f) = self.fetched else { return };
        if f.avail_at > now {
            self.wake_at(f.avail_at);
            return;
        }
        self.fetched = None;
        self.decode = Some(DecodeSlot {
            instr: f.instr,
            pc: f.pc,
            predicted_next: f.predicted_next,
            started: false,
            ready: false,
        });
        // Decode acquires its registers from the next cycle on.
        self.wake_at(now + 1);
    }

    fn stage_fetch(&mut self, now: u64, fabric: &mut Fabric) {
        if self.running.is_none()
            || self.fetched.is_some()
            || self.fetch_stopped
            || self.sys_demand_outstanding
        {
            return;
        }
        if let Some(m) = self.fetch_wait_mshr {
            if self.icache.mshr_ready(m, now) {
                if let Err(e) = self.icache.mshr_retire(m) {
                    note_structural(&mut self.structural_fault, e);
                }
                self.fetch_wait_mshr = None;
                self.deliver_fetch(now + 1);
            }
            return;
        }
        let addr = self.code_addr(self.fetch_pc);
        match self.icache.access(now, addr, AccessKind::IFetch, fabric) {
            AccessResult::Hit { .. } => {
                // Pipelined fetch: one instruction per cycle on hits.
                self.deliver_fetch(now + 1);
            }
            AccessResult::Miss { mshr } => {
                self.fetch_wait_mshr = Some(mshr);
            }
            AccessResult::NoMshr | AccessResult::NoPort => self.wake_at(now + 1),
        }
    }

    fn deliver_fetch(&mut self, avail_at: u64) {
        let pc = self.fetch_pc;
        let instr = self.program.fetch(pc);
        let predicted_next = match instr {
            Instr::B { target } => target,
            Instr::Bcc { target, .. } | Instr::Cbz { target, .. } | Instr::Cbnz { target, .. } => {
                if self.cfg.branch_pred && target <= pc {
                    target // backward: predict taken
                } else {
                    pc + 1 // forward: predict not-taken
                }
            }
            Instr::Halt => {
                self.fetch_stopped = true;
                pc
            }
            _ => pc + 1,
        };
        self.fetched = Some(Fetched {
            instr,
            pc,
            predicted_next,
            avail_at,
        });
        if self.decode.is_none() {
            self.wake_at(avail_at);
        }
        if !self.fetch_stopped {
            self.fetch_pc = predicted_next;
        }
    }

    fn tick_sysops(&mut self, now: u64, fabric: &mut Fabric) {
        if !self.use_sysbuf {
            return;
        }
        // Complete.
        let mut i = 0;
        while i < self.sys_wait.len() {
            let done = match self.sys_wait[i].0 {
                SysWait::At(t) if t > now => {
                    self.wake_at(t);
                    false
                }
                SysWait::At(_) => true,
                SysWait::Mshr(m) => {
                    if self.dcache.mshr_ready(m, now) {
                        if let Err(e) = self.dcache.mshr_retire(m) {
                            note_structural(&mut self.structural_fault, e);
                        }
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
            match self.sys_wait[i].1 {
                SysPurpose::DemandIn => self.sys_demand_outstanding = false,
                SysPurpose::Prefetch(t) => self.sys_ready[t as usize] = true,
                SysPurpose::Writeback => {}
            }
            self.sys_wait.swap_remove(i);
        }
        // Issue (lowest priority on the dcache ports).
        if let Some(op) = self.sys_queue.front().copied() {
            let kind = match (op.is_load, self.cfg.reg_line_pinning) {
                (true, true) => AccessKind::RegFill,
                (true, false) => AccessKind::DataLoad,
                (false, true) => AccessKind::RegSpill,
                (false, false) => AccessKind::DataStore,
            };
            match self.dcache.access(now, op.addr, kind, fabric) {
                AccessResult::Hit { ready_at } => {
                    self.sys_queue.pop_front();
                    self.sys_wait.push((SysWait::At(ready_at), op.purpose));
                    self.wake_at(ready_at);
                }
                AccessResult::Miss { mshr } => {
                    self.sys_queue.pop_front();
                    self.sys_wait.push((SysWait::Mshr(mshr), op.purpose));
                }
                AccessResult::NoMshr | AccessResult::NoPort => {}
            }
            if !self.sys_queue.is_empty() {
                self.wake_at(now + 1);
            }
        }
    }
}
